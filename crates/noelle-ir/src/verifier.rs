//! IR verifier: SSA dominance, CFG well-formedness, and type checking.

use crate::cfg::{Cfg, StructureBuffers};
use crate::dom::DomTree;
use crate::inst::{Callee, Inst, InstId, Terminator};
use crate::layout::LayoutIndex;
use crate::module::{BlockId, Function, Module};
use crate::types::Type;
use crate::value::{Constant, Value};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// All problems found by the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyErrors {
    /// One message per violated invariant.
    pub errors: Vec<String>,
}

impl fmt::Display for VerifyErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} verification error(s):", self.errors.len())?;
        for e in &self.errors {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

impl Error for VerifyErrors {}

/// What the verifier rebuilds for each function it checks, kept across a
/// module's functions: the CFG, the dominator tree, the layout index, the
/// structure builds' buffers and the phi checks' block lists. The default
/// value holds nothing.
#[derive(Default)]
pub struct VerifyBuffers {
    cfg: Cfg,
    dt: DomTree,
    layout: LayoutIndex,
    structures: StructureBuffers,
    preds: Vec<BlockId>,
    inc: Vec<BlockId>,
}

impl VerifyBuffers {
    /// Size every buffer once for the largest body of `m`: its most blocks,
    /// edges and arena slots, and its widest phi.
    fn reserve_for(&mut self, m: &Module) {
        let (mut blocks, mut edges, mut insts, mut phi) = (0, 0, 0, 0);
        for f in m.functions().iter().filter(|f| !f.is_declaration()) {
            let mut out = 0;
            for &b in f.block_order() {
                if let Some(t) = f.terminator(b) {
                    t.for_each_successor(|_| out += 1);
                }
            }
            for id in f.inst_iter() {
                if let Inst::Phi { incomings, .. } = f.inst(id) {
                    phi = phi.max(incomings.len());
                }
            }
            (blocks, edges) = (blocks.max(f.num_blocks()), edges.max(out));
            insts = insts.max(f.inst_arena_len());
        }
        self.cfg.reserve(blocks, edges);
        self.dt.reserve(blocks);
        self.layout.reserve(insts);
        self.structures.reserve(blocks, edges);
        self.preds.reserve(edges);
        self.inc.reserve(phi);
    }
}

/// Verify every function of a module.
///
/// # Errors
/// Returns all violations found across the module.
pub fn verify_module(m: &Module) -> Result<(), VerifyErrors> {
    let mut errors = Vec::new();
    let mut buf = VerifyBuffers::default();
    buf.reserve_for(m);
    for f in m.functions() {
        if f.is_declaration() {
            continue;
        }
        verify_function(m, f, &mut errors, &mut buf);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(VerifyErrors { errors })
    }
}

/// Verify a single function, appending problems to `errors` and rebuilding
/// its structures in `buf`.
pub fn verify_function(
    m: &Module,
    f: &Function,
    errors: &mut Vec<String>,
    buf: &mut VerifyBuffers,
) {
    let fname = &f.name;

    // Structural checks first; bail out of deeper checks if they fail.
    let mut structural_ok = true;
    for &b in f.block_order() {
        let insts = &f.block(b).insts;
        if insts.is_empty() {
            errors.push(format!("@{fname}: block {b} is empty"));
            structural_ok = false;
            continue;
        }
        let last = *insts.last().expect("non-empty");
        if !f.inst(last).is_terminator() {
            errors.push(format!("@{fname}: block {b} does not end in a terminator"));
            structural_ok = false;
        }
        for (i, &id) in insts.iter().enumerate() {
            if f.inst(id).is_terminator() && i + 1 != insts.len() {
                errors.push(format!(
                    "@{fname}: terminator {id} in the middle of block {b}"
                ));
                structural_ok = false;
            }
            if matches!(f.inst(id), Inst::Phi { .. }) {
                let at_head = insts[..i]
                    .iter()
                    .all(|&p| matches!(f.inst(p), Inst::Phi { .. }));
                if !at_head {
                    errors.push(format!("@{fname}: phi {id} not at head of block {b}"));
                }
            }
            if f.parent_block(id) != b {
                errors.push(format!("@{fname}: instruction {id} has stale parent block"));
            }
        }
        // Successor validity.
        if let Some(t) = f.terminator(b) {
            t.for_each_successor(|s| {
                if s.index() >= f.num_blocks() {
                    errors.push(format!("@{fname}: branch to non-existent block {s}"));
                    structural_ok = false;
                }
            });
        }
    }
    if !structural_ok {
        return;
    }

    let VerifyBuffers {
        cfg,
        dt,
        layout,
        structures,
        preds,
        inc,
    } = buf;
    cfg.rebuild(f, structures);
    dt.rebuild(f, cfg, structures);
    // Positions come from one pass over the layout: a scan per instruction
    // and per same-block operand is quadratic in block length.
    layout.rebuild(f);

    // Phi incoming edges match predecessors; SSA dominance; type rules.
    // Both block lists are sorted and deduplicated.
    for &b in &cfg.rpo {
        preds.clear();
        preds.extend(cfg.preds(b).iter().filter(|p| cfg.is_reachable(**p)));
        preds.sort_unstable();
        preds.dedup();
        for &id in &f.block(b).insts {
            if let Inst::Phi { incomings, .. } = f.inst(id) {
                inc.clear();
                inc.extend(incomings.iter().map(|(p, _)| *p));
                inc.sort_unstable();
                inc.dedup();
                if inc.len() != incomings.len() {
                    errors.push(format!("@{fname}: phi {id} has duplicate incoming blocks"));
                }
                if !preds.iter().all(|p| inc.binary_search(p).is_ok()) {
                    let set = |blocks: &[BlockId]| blocks.iter().copied().collect::<BTreeSet<_>>();
                    errors.push(format!(
                        "@{fname}: phi {id} incoming blocks {:?} do not cover predecessors {:?}",
                        set(inc),
                        set(preds)
                    ));
                }
            }
            check_operand_dominance(f, cfg, dt, layout, b, id, errors);
            check_types(m, f, id, errors);
        }
    }
}

fn def_dominates_use(
    f: &Function,
    dt: &DomTree,
    layout: &LayoutIndex,
    def: InstId,
    use_block: BlockId,
    use_pos: usize,
) -> bool {
    let def_block = f.parent_block(def);
    if def_block == use_block {
        layout
            .position(def)
            .is_some_and(|def_pos| def_pos < use_pos)
    } else {
        dt.strictly_dominates(def_block, use_block)
    }
}

fn check_operand_dominance(
    f: &Function,
    cfg: &Cfg,
    dt: &DomTree,
    layout: &LayoutIndex,
    b: BlockId,
    id: InstId,
    errors: &mut Vec<String>,
) {
    let fname = &f.name;
    let pos = layout.position(id).expect("attached");
    match f.inst(id) {
        Inst::Phi { incomings, .. } => {
            for (pred, v) in incomings {
                if let Value::Inst(def) = v {
                    if !cfg.is_reachable(*pred) {
                        continue;
                    }
                    // The def must dominate the end of the incoming block.
                    let def_block = f.parent_block(*def);
                    if !(dt.dominates(def_block, *pred)) {
                        errors.push(format!(
                            "@{fname}: phi {id} incoming {def} from {pred} does not dominate the edge"
                        ));
                    }
                }
            }
        }
        inst => {
            inst.for_each_operand(|v| match v {
                Value::Inst(def) if !def_dominates_use(f, dt, layout, def, b, pos) => {
                    errors.push(format!(
                        "@{fname}: use of {def} in {id} is not dominated by its definition"
                    ));
                }
                Value::Arg(i) if i as usize >= f.params.len() => {
                    errors.push(format!(
                        "@{fname}: {id} references out-of-range argument {i}"
                    ));
                }
                _ => {}
            });
        }
    }
}

/// True when a constant may stand in for a value of type `ty`.
fn const_matches(c: &Constant, ty: &Type) -> bool {
    match c {
        Constant::Undef => true,
        Constant::Null => ty.is_ptr(),
        Constant::Int(_, w) => *ty == Type::Int(*w),
        Constant::Float(_, w) => *ty == Type::Float(*w),
    }
}

fn value_matches(m: &Module, f: &Function, v: Value, ty: &Type) -> bool {
    match v {
        Value::Const(c) => const_matches(&c, ty),
        other => f.type_view(m, other).is(ty),
    }
}

/// True when `v` may stand in for a value of type `pointee*`: the value's
/// pointee is compared, and no `pointee*` is built.
fn pointer_matches(m: &Module, f: &Function, v: Value, pointee: &Type) -> bool {
    match v {
        Value::Const(c) => matches!(c, Constant::Undef | Constant::Null),
        other => f.type_view(m, other).pointee_is(pointee),
    }
}

fn check_types(m: &Module, f: &Function, id: InstId, errors: &mut Vec<String>) {
    let fname = &f.name;
    let mut bad = |msg: String| errors.push(format!("@{fname}: {id}: {msg}"));
    match f.inst(id) {
        Inst::Alloca { count, .. } => {
            if !matches!(
                count,
                Value::Const(Constant::Int(_, _)) | Value::Inst(_) | Value::Arg(_)
            ) {
                bad("alloca count must be an integer value".into());
            }
        }
        Inst::Load { ty, ptr } => {
            if !pointer_matches(m, f, *ptr, ty) {
                bad(format!("load pointer is not {ty}*"));
            }
        }
        Inst::Store { val, ptr, ty } => {
            if !value_matches(m, f, *val, ty) {
                bad(format!("stored value is not {ty}"));
            }
            if !pointer_matches(m, f, *ptr, ty) {
                bad(format!("store pointer is not {ty}*"));
            }
        }
        Inst::Gep {
            base,
            base_ty,
            indices,
        } => {
            if !pointer_matches(m, f, *base, base_ty) {
                bad(format!("gep base is not {base_ty}*"));
            }
            // Struct indices must be constants so the result type is static.
            let mut ty = base_ty;
            for idx in indices.iter().skip(1) {
                match ty {
                    Type::Array(elem, _) => ty = elem,
                    Type::Struct(fields) => match idx {
                        Value::Const(Constant::Int(v, _)) => match fields.get(*v as usize) {
                            Some(t) => ty = t,
                            None => {
                                bad(format!("gep struct index {v} out of range"));
                                return;
                            }
                        },
                        _ => {
                            bad("gep struct index must be a constant".into());
                            return;
                        }
                    },
                    _ => {
                        bad("gep indexes into a non-aggregate type".into());
                        return;
                    }
                }
            }
        }
        Inst::Bin { op, ty, lhs, rhs } => {
            if op.is_float_op() != ty.is_float() {
                bad(format!("{} used with type {ty}", op.mnemonic()));
            }
            for v in [lhs, rhs] {
                if !value_matches(m, f, *v, ty) {
                    bad(format!("operand is not {ty}"));
                }
            }
        }
        Inst::Icmp { ty, lhs, rhs, .. } => {
            if !(ty.is_int() || ty.is_ptr()) {
                bad(format!("icmp on non-integer type {ty}"));
            }
            for v in [lhs, rhs] {
                if !value_matches(m, f, *v, ty) {
                    bad(format!("icmp operand is not {ty}"));
                }
            }
        }
        Inst::Fcmp { ty, lhs, rhs, .. } => {
            if !ty.is_float() {
                bad(format!("fcmp on non-float type {ty}"));
            }
            for v in [lhs, rhs] {
                if !value_matches(m, f, *v, ty) {
                    bad(format!("fcmp operand is not {ty}"));
                }
            }
        }
        Inst::Cast { from, val, .. } => {
            if !value_matches(m, f, *val, from) {
                bad(format!("cast source is not {from}"));
            }
        }
        Inst::Select {
            ty,
            cond,
            tval,
            fval,
        } => {
            if !value_matches(m, f, *cond, &Type::I1) {
                bad("select condition is not i1".into());
            }
            for v in [tval, fval] {
                if !value_matches(m, f, *v, ty) {
                    bad(format!("select arm is not {ty}"));
                }
            }
        }
        Inst::Phi { ty, incomings } => {
            for (_, v) in incomings {
                if !value_matches(m, f, *v, ty) {
                    bad(format!("phi incoming is not {ty}"));
                }
            }
        }
        Inst::Call {
            callee,
            args,
            ret_ty,
        } => {
            if let Callee::Direct(fid) = callee {
                let callee_f = m.func(*fid);
                if callee_f.params.len() != args.len() {
                    bad(format!(
                        "call to @{} passes {} args, expected {}",
                        callee_f.name,
                        args.len(),
                        callee_f.params.len()
                    ));
                } else {
                    for (a, (_, pty)) in args.iter().zip(&callee_f.params) {
                        if !value_matches(m, f, *a, pty) {
                            bad(format!("call argument is not {pty}"));
                        }
                    }
                }
                if callee_f.ret_ty != *ret_ty {
                    bad(format!(
                        "call return type {ret_ty} does not match @{}'s {}",
                        callee_f.name, callee_f.ret_ty
                    ));
                }
            }
        }
        Inst::Term(t) => match t {
            Terminator::Ret(None) => {
                if f.ret_ty != Type::Void {
                    bad(format!("ret void in function returning {}", f.ret_ty));
                }
            }
            Terminator::Ret(Some(v)) => {
                if f.ret_ty == Type::Void {
                    bad("ret with value in void function".into());
                } else if !value_matches(m, f, *v, &f.ret_ty) {
                    bad(format!("returned value is not {}", f.ret_ty));
                }
            }
            Terminator::CondBr { cond, .. } => {
                if !value_matches(m, f, *cond, &Type::I1) {
                    bad("condbr condition is not i1".into());
                }
            }
            Terminator::Switch { value, .. } => {
                let ty = f.type_view(m, *value);
                if !ty.is_int() {
                    bad(format!("switch on non-integer type {ty}"));
                }
            }
            Terminator::Br(_) | Terminator::Unreachable => {}
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;

    fn verify_one(f: Function) -> Result<(), VerifyErrors> {
        let mut m = Module::new("t");
        m.add_function(f);
        verify_module(&m)
    }

    #[test]
    fn accepts_well_formed() {
        let mut b = FunctionBuilder::new("f", vec![("x", Type::I64)], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let s = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
        b.ret(Some(s));
        assert!(verify_one(b.finish()).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.binop(
            BinOp::Add,
            Type::I64,
            Value::const_i64(1),
            Value::const_i64(2),
        );
        let err = verify_one(b.finish()).unwrap_err();
        assert!(err.errors[0].contains("does not end in a terminator"));
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut b = FunctionBuilder::new("f", vec![("x", Type::I32)], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        // i32 argument used as i64 operand.
        let s = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
        b.ret(Some(s));
        let err = verify_one(b.finish()).unwrap_err();
        assert!(err.errors.iter().any(|e| e.contains("operand is not i64")));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        // Manually create a use of an instruction defined later.
        let f = {
            let fut = crate::inst::InstId(1);
            let use_first = b.binop(BinOp::Add, Type::I64, Value::Inst(fut), Value::const_i64(1));
            let _def_later = b.binop(
                BinOp::Add,
                Type::I64,
                Value::const_i64(2),
                Value::const_i64(3),
            );
            b.ret(Some(use_first));
            b.finish()
        };
        let err = verify_one(f).unwrap_err();
        assert!(err
            .errors
            .iter()
            .any(|e| e.contains("not dominated by its definition")));
    }

    #[test]
    fn rejects_use_placed_before_its_same_block_def() {
        let mut b = FunctionBuilder::new("f", vec![("x", Type::I64)], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let def = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
        b.ret(Some(def));
        let mut f = b.finish();
        // The user gets the higher arena id but the earlier position: only
        // positions, not ids, say it runs before its operand is defined.
        let user = f.insert_inst(
            entry,
            0,
            Inst::Bin {
                op: BinOp::Mul,
                ty: Type::I64,
                lhs: def,
                rhs: Value::const_i64(2),
            },
        );
        let def = def.as_inst().expect("an instruction");
        assert!(user > def);
        let err = verify_one(f).unwrap_err();
        assert_eq!(
            err.errors,
            [format!(
                "@f: use of {def} in {user} is not dominated by its definition"
            )]
        );
    }

    #[test]
    fn rejects_bad_ret_type() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(Some(Value::const_i64(1)));
        let err = verify_one(b.finish()).unwrap_err();
        assert!(err.errors[0].contains("ret with value in void function"));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new("t");
        let callee = m.declare_function("g", vec![Type::I64, Type::I64], Type::I64);
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let r = b.call(callee, vec![Value::const_i64(1)], Type::I64);
        b.ret(Some(r));
        m.add_function(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.errors[0].contains("passes 1 args, expected 2"));
    }

    #[test]
    fn rejects_float_op_on_ints() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let s = b.binop(
            BinOp::FAdd,
            Type::I64,
            Value::const_i64(1),
            Value::const_i64(2),
        );
        b.ret(Some(s));
        let err = verify_one(b.finish()).unwrap_err();
        assert!(err
            .errors
            .iter()
            .any(|e| e.contains("fadd used with type i64")));
    }

    #[test]
    fn null_matches_any_pointer() {
        let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let c = b.icmp(
            crate::inst::IcmpPred::Eq,
            Type::I64.ptr_to(),
            b.arg(0),
            Value::Const(Constant::Null),
        );
        let t = b.block("t");
        let e = b.block("e");
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        assert!(verify_one(b.finish()).is_ok());
    }
}
