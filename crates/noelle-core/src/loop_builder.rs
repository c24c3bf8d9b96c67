//! The Loop Builder (LB) abstraction.
//!
//! "LB is similar to the IRBuilder abstraction offered by LLVM, but instead
//! of targeting instructions, LB targets loops": it creates, modifies, and
//! deletes loops. The operations here are the ones the ten custom tools
//! consume: pre-header normalization, invariant hoisting, and loop bypassing
//! (used by the parallelizers to replace a loop with a dispatch block).

use noelle_ir::inst::{Inst, InstId, Terminator};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::{BlockId, Function};
use noelle_ir::value::Value;

/// Errors raised by loop-builder operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopBuilderError {
    /// The header's out-of-loop predecessors cannot be determined.
    MalformedLoop(String),
}

impl std::fmt::Display for LoopBuilderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopBuilderError::MalformedLoop(m) => write!(f, "malformed loop: {m}"),
        }
    }
}

impl std::error::Error for LoopBuilderError {}

/// Out-of-loop predecessors of the loop header.
fn outside_preds(f: &Function, l: &LoopInfo) -> Vec<BlockId> {
    let mut out = Vec::new();
    for &b in f.block_order() {
        if l.contains(b) {
            continue;
        }
        if f.successors(b).contains(&l.header) {
            out.push(b);
        }
    }
    out
}

/// Return the loop's pre-header, creating one if necessary.
///
/// When created, the new block takes over every out-of-loop edge into the
/// header, and the header's phis are rewired (introducing merge phis in the
/// pre-header when the header had several outside predecessors).
///
/// # Errors
/// Fails if the header has no outside predecessor at all (unreachable loop).
pub fn ensure_preheader(f: &mut Function, l: &LoopInfo) -> Result<BlockId, LoopBuilderError> {
    if let Some(p) = l.preheader {
        return Ok(p);
    }
    let preds = outside_preds(f, l);
    if preds.is_empty() {
        return Err(LoopBuilderError::MalformedLoop(
            "header has no out-of-loop predecessor".into(),
        ));
    }
    // A single outside pred whose only successor is the header already acts
    // as a pre-header even if loop detection did not record it.
    if preds.len() == 1 && f.successors(preds[0]).len() == 1 {
        return Ok(preds[0]);
    }
    let pre = f.add_block("preheader");
    // Rewire header phis first (they still name the old predecessors).
    for phi_id in f.phis(l.header) {
        let incomings = match f.inst(phi_id) {
            Inst::Phi { incomings, ty } => (incomings.clone(), ty.clone()),
            _ => unreachable!(),
        };
        let (incomings, ty) = incomings;
        let (outside, inside): (Vec<_>, Vec<_>) =
            incomings.into_iter().partition(|(b, _)| !l.contains(*b));
        let merged: Value = if outside.len() == 1 {
            outside[0].1
        } else {
            // Merge differing values with a phi in the new pre-header.
            let merge = f.insert_inst(
                pre,
                0,
                Inst::Phi {
                    ty,
                    incomings: outside.clone(),
                },
            );
            Value::Inst(merge)
        };
        if let Inst::Phi { incomings, .. } = f.inst_mut(phi_id) {
            *incomings = inside;
            incomings.push((pre, merged));
        }
    }
    // Redirect the outside edges.
    for p in preds {
        if let Some(tid) = f.terminator_id(p) {
            if let Inst::Term(t) = f.inst_mut(tid) {
                t.replace_successor(l.header, pre);
            }
        }
    }
    let header = l.header;
    f.set_terminator(pre, Terminator::Br(header));
    Ok(pre)
}

/// Hoist instruction `inst` to the end of the loop's pre-header (before its
/// terminator). The caller is responsible for legality (invariance and
/// safety); the builder performs the mechanical move — this is the primitive
/// the LICM custom tool drives.
///
/// # Errors
/// Fails if a pre-header cannot be materialized.
pub fn hoist_to_preheader(
    f: &mut Function,
    l: &LoopInfo,
    inst: InstId,
) -> Result<(), LoopBuilderError> {
    let pre = ensure_preheader(f, l)?;
    let pos = f.block(pre).insts.len().saturating_sub(1);
    f.move_inst(inst, pre, pos);
    Ok(())
}

/// Redirect `pre`, the pre-header of `l` (what [`ensure_preheader`]
/// returned), to `replacement` instead of the loop header, making the loop
/// body unreachable. The code `replacement` starts must branch to `exit`,
/// the loop's one exit block, from block `tail` (which may be `replacement`
/// itself); the caller is responsible for replacing uses of loop-defined
/// values that escape. Exit-block phis with incomings from exiting blocks
/// are rewired to come from `tail` using `exit_phi_values` (phi instruction
/// → new incoming value).
pub fn bypass_loop(
    f: &mut Function,
    l: &LoopInfo,
    pre: BlockId,
    exit: BlockId,
    replacement: BlockId,
    tail: BlockId,
    exit_phi_values: &[(InstId, Value)],
) {
    if let Some(tid) = f.terminator_id(pre) {
        if let Inst::Term(t) = f.inst_mut(tid) {
            t.replace_successor(l.header, replacement);
        }
    }
    // Rewire exit phis: incomings from in-loop blocks now come from the
    // replacement's tail. Rewiring a phi moves no instruction, so the
    // block's list is walked in place.
    for k in 0..f.block(exit).insts.len() {
        let phi_id = f.block(exit).insts[k];
        let Inst::Phi { incomings, .. } = f.inst_mut(phi_id) else {
            break;
        };
        let new_value = exit_phi_values
            .iter()
            .find(|(p, _)| *p == phi_id)
            .map(|(_, v)| *v);
        incomings.retain_mut(|(b, v)| {
            if !l.contains(*b) {
                return true;
            }
            let Some(nv) = new_value else {
                return false;
            };
            (*b, *v) = (tail, nv);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::loops::LoopForest;
    use noelle_ir::module::Module;
    use noelle_ir::types::Type;

    fn loop_of(f: &Function) -> LoopInfo {
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        LoopForest::new(f, &cfg, &dt).loops()[0].clone()
    }

    /// Loop whose header has TWO outside predecessors (no pre-header).
    fn no_preheader_loop() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", vec![("c", Type::I1), ("n", Type::I64)], Type::I64);
        let entry = b.entry_block();
        let alt = b.block("alt");
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.cond_br(b.arg(0), alt, header);
        b.switch_to(alt);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(
            Type::I64,
            vec![(entry, Value::const_i64(0)), (alt, Value::const_i64(5))],
        );
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(Some(i));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn ensure_preheader_creates_merge_block() {
        let mut m = no_preheader_loop();
        let fid = m.func_ids().next().unwrap();
        let l = loop_of(m.func(fid));
        assert!(l.preheader.is_none());
        let pre = ensure_preheader(m.func_mut(fid), &l).unwrap();
        noelle_ir::verifier::verify_module(&m).expect("verifies after preheader creation");
        // Re-detect: the loop now has a pre-header and it is `pre`.
        let l2 = loop_of(m.func(fid));
        assert_eq!(l2.preheader, Some(pre));
        // The differing incoming constants were merged via a phi in `pre`.
        let f = m.func(fid);
        assert_eq!(f.phis(pre).len(), 1);
        assert_eq!(f.phis(l2.header).len(), 1);
    }

    #[test]
    fn ensure_preheader_is_idempotent_when_present() {
        let mut m = no_preheader_loop();
        let fid = m.func_ids().next().unwrap();
        let l = loop_of(m.func(fid));
        let pre1 = ensure_preheader(m.func_mut(fid), &l).unwrap();
        let l2 = loop_of(m.func(fid));
        let pre2 = ensure_preheader(m.func_mut(fid), &l2).unwrap();
        assert_eq!(pre1, pre2);
    }

    #[test]
    fn hoist_moves_instruction_to_preheader() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", vec![("a", Type::I64), ("n", Type::I64)], Type::I64);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let x = b.binop(BinOp::Mul, Type::I64, b.arg(0), Value::const_i64(3)); // invariant
        let i2 = b.binop(BinOp::Add, Type::I64, i, x);
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(Some(i));
        let fid = m.add_function(b.finish());
        let l = loop_of(m.func(fid));
        hoist_to_preheader(m.func_mut(fid), &l, x.as_inst().unwrap()).unwrap();
        noelle_ir::verifier::verify_module(&m).expect("verifies after hoist");
        let f = m.func(fid);
        assert!(!l.contains(f.parent_block(x.as_inst().unwrap())));
    }

    #[test]
    fn bypass_loop_redirects_and_rewires_phis() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64)], Type::I64);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        let out = b.phi(Type::I64, vec![(header, i)]);
        b.ret(Some(out));
        let fid = m.add_function(b.finish());
        let l = loop_of(m.func(fid));

        // Build the replacement block: compute 42 and jump to the exit.
        let f = m.func_mut(fid);
        let dispatch = f.add_block("dispatch");
        let v = f.append_inst(
            dispatch,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Value::const_i64(40),
                rhs: Value::const_i64(2),
            },
        );
        f.set_terminator(dispatch, Terminator::Br(exit));
        let pre = ensure_preheader(f, &l).unwrap();
        let outs = [(out.as_inst().unwrap(), Value::Inst(v))];
        bypass_loop(f, &l, pre, exit, dispatch, dispatch, &outs);
        noelle_ir::verifier::verify_module(&m).expect("verifies after bypass");
        // The loop is unreachable now.
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        assert!(!cfg.is_reachable(l.header));
        assert!(cfg.is_reachable(dispatch));
    }
}
