//! The Invariant (INV) abstraction: loop-invariant instructions and values.
//!
//! Both detection algorithms printed in the paper are implemented here:
//!
//! - [`invariants_llvm`] — **Algorithm 1**, the low-level LLVM logic: an
//!   instruction is invariant only if none of its operands are defined in the
//!   loop, with ad-hoc mod/ref checks for loads, stores, and calls. It is
//!   *not* recursive, so computations chained off other invariants inside the
//!   loop are missed, and it runs against the weaker basic alias tier.
//! - [`invariants_noelle`] — **Algorithm 2**, the NOELLE logic: an
//!   instruction is invariant iff every instruction it *depends on* (per the
//!   loop PDG, which is powered by the full alias stack) is outside the loop
//!   or itself invariant. Cycles (recurrences) are cut with an explicit
//!   stack, exactly as in the paper's pseudo-code.
//!
//! Figure 4 of the paper — NOELLE finds significantly more invariants with a
//! smaller algorithm — is reproduced by running both of these over the same
//! workloads (`noelle-bench`, `fig4_invariants`).
//!
//! Note: Algorithm 2 walks *data* dependences only. Control dependences on
//! the loop's own exit branch would otherwise disqualify the entire body.

use crate::loop_abs::LoopBuffers;
use noelle_analysis::alias::{AliasAnalysis, AliasResult};
use noelle_analysis::modref::ModRefSummaries;
use noelle_ir::dom::DomTree;
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::{FuncId, Function, Module};
use noelle_ir::value::Value;
use noelle_pdg::depgraph::DepGraph;
use std::collections::BTreeSet;

/// The set of invariant instructions of one loop, with value-level queries —
/// the INV abstraction handed out by the manager.
#[derive(Clone, Debug)]
pub struct InvariantSet {
    /// Ascending, none twice.
    insts: Vec<InstId>,
}

impl InvariantSet {
    /// Wrap a computed set.
    pub fn new(insts: BTreeSet<InstId>) -> InvariantSet {
        InvariantSet {
            insts: insts.into_iter().collect(),
        }
    }

    /// True if instruction `id` is invariant in the loop.
    pub fn contains(&self, id: InstId) -> bool {
        self.insts.binary_search(&id).is_ok()
    }

    /// True if `v` is invariant with respect to loop `l`: a constant, an
    /// argument, a global, an instruction defined outside `l`, or an
    /// invariant instruction inside it.
    pub fn is_invariant_value(&self, f: &Function, l: &LoopInfo, v: Value) -> bool {
        match v {
            Value::Const(_) | Value::Arg(_) | Value::Global(_) | Value::Func(_) => true,
            Value::Inst(id) => !l.contains(f.parent_block(id)) || self.contains(id),
        }
    }

    /// The invariant instructions.
    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.insts.iter().copied()
    }

    /// Number of invariant instructions found.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no instruction of the loop is invariant.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// **Algorithm 1** (the paper's simplified LLVM logic): detect the invariant
/// instructions of `l` using only low-level abstractions — dominators and a
/// (basic) alias analysis.
pub fn invariants_llvm(
    m: &Module,
    fid: FuncId,
    l: &LoopInfo,
    dt: &DomTree,
    alias: &dyn AliasAnalysis,
    modref: &ModRefSummaries,
) -> InvariantSet {
    let f = m.func(fid);
    let loop_insts: Vec<InstId> = f
        .inst_iter()
        .filter(|&id| l.contains(f.parent_block(id)))
        .collect();
    let mut out = BTreeSet::new();
    for &id in &loop_insts {
        if is_invariant_llvm_one(m, fid, f, l, dt, alias, modref, id, &loop_insts) {
            out.insert(id);
        }
    }
    InvariantSet::new(out)
}

#[allow(clippy::too_many_arguments)]
fn is_invariant_llvm_one(
    m: &Module,
    fid: FuncId,
    f: &Function,
    l: &LoopInfo,
    dt: &DomTree,
    alias: &dyn AliasAnalysis,
    modref: &ModRefSummaries,
    id: InstId,
    loop_insts: &[InstId],
) -> bool {
    let inst = f.inst(id);
    // Phis and terminators are never invariant.
    if matches!(inst, Inst::Phi { .. } | Inst::Term(_) | Inst::Alloca { .. }) {
        return false;
    }
    // "for operand in I.getOperands(): if operand is defined in L then
    // return False" — note: NOT a recursive invariance check.
    let mut operand_in_loop = false;
    inst.for_each_operand(|op| {
        operand_in_loop |= matches!(op, Value::Inst(def) if l.contains(f.parent_block(def)));
    });
    if operand_in_loop {
        return false;
    }
    match inst {
        Inst::Load { ptr, .. } => {
            // "if any other instruction of L can modify the same memory
            // location accessed by I" — mod/ref over every instruction of L.
            for &j in loop_insts {
                if j == id {
                    continue;
                }
                match f.inst(j) {
                    Inst::Store { ptr: sp, .. }
                        if alias.alias(fid, *ptr, *sp) != AliasResult::No =>
                    {
                        return false;
                    }
                    Inst::Call { .. } if modref.call_may_write(m, fid, j) => {
                        return false;
                    }
                    _ => {}
                }
            }
            true
        }
        Inst::Store { ptr, .. } => {
            // "Conservatively ensure no memory use precedes this store" and
            // no def/use would be invalidated by hoisting: every aliasing
            // access of L must be dominated by the store, and there must be
            // no other may-aliasing write in the loop at all.
            for &j in loop_insts {
                if j == id {
                    continue;
                }
                let other_ptr = match f.inst(j) {
                    Inst::Load { ptr: p, .. } => Some(*p),
                    Inst::Store { ptr: p, .. } => Some(*p),
                    Inst::Call { .. } => {
                        if modref.call_may_read(m, fid, j) || modref.call_may_write(m, fid, j) {
                            return false;
                        }
                        None
                    }
                    _ => None,
                };
                if let Some(op) = other_ptr {
                    if alias.alias(fid, *ptr, op) != AliasResult::No {
                        if matches!(f.inst(j), Inst::Store { .. }) {
                            return false;
                        }
                        if !dt.dominates(f.parent_block(id), f.parent_block(j)) {
                            return false;
                        }
                        if f.parent_block(id) == f.parent_block(j)
                            && f.position_in_block(id) > f.position_in_block(j)
                        {
                            return false;
                        }
                    }
                }
            }
            true
        }
        Inst::Call { callee, .. } => {
            // "if AA.getModRefBehavior(call) != NoMod then return False":
            // the callee must not modify memory, must not perform I/O, and
            // (for simplicity, matching the argument-only check plus the
            // sub-loop scan) must not read memory that anything in the loop
            // writes — conservatively: must not read at all if the loop
            // writes memory.
            let writes_in_loop = loop_insts.iter().any(|&j| match f.inst(j) {
                Inst::Store { .. } => true,
                Inst::Call { .. } if j != id => modref.call_may_write(m, fid, j),
                _ => false,
            });
            match callee {
                Callee::Direct(cid) => {
                    if modref.may_write(*cid) || modref.has_io(*cid) {
                        return false;
                    }
                    if modref.may_read(*cid) && writes_in_loop {
                        return false;
                    }
                    true
                }
                Callee::Indirect(_) => false,
            }
        }
        _ => true,
    }
}

/// **Algorithm 2** (the paper's NOELLE logic): detect the invariant
/// instructions of `l` using the loop dependence graph. Smaller, simpler,
/// and more precise — the comparison the paper draws in §2.5.
pub fn invariants_noelle(f: &Function, l: &LoopInfo, loop_pdg: &DepGraph<InstId>) -> InvariantSet {
    invariants_noelle_in(f, l, loop_pdg, &mut LoopBuffers::default())
}

/// [`invariants_noelle`] working in `buf`: the loop's block marks, the
/// walk's memo and the list of what it found live there.
pub(crate) fn invariants_noelle_in(
    f: &Function,
    l: &LoopInfo,
    loop_pdg: &DepGraph<InstId>,
    buf: &mut LoopBuffers,
) -> InvariantSet {
    let LoopBuffers {
        in_loop,
        visits,
        frames,
        insts: found,
        ..
    } = buf;
    in_loop.clear();
    in_loop.resize(f.num_blocks(), false);
    for &b in &l.blocks {
        in_loop[b.index()] = true;
    }
    visits.clear();
    visits.resize(f.inst_arena_len(), Visit::Unknown);
    let mut walk = InvariantWalk {
        f,
        dg: loop_pdg,
        in_loop,
        state: visits,
    };
    // One stack of frames for every root.
    frames.clear();
    found.clear();
    for &b in f.block_order() {
        if !walk.in_loop[b.index()] {
            continue;
        }
        for &id in &f.block(b).insts {
            if walk.is_invariant(id, frames) {
                found.push(id);
            }
        }
    }
    found.sort_unstable();
    InvariantSet {
        insts: found.to_vec(),
    }
}

/// Where Algorithm 2's walk stands with one instruction.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    Unknown,
    /// On the walk's stack: reached again, it closes a dependence cycle.
    OnStack,
    Invariant,
    Variant,
}

/// Algorithm 2's dependence walk over one loop, with an explicit stack: a
/// chain of any length costs heap, not call frames. The memo is a state per
/// arena index of the function, the loop a mark per block.
struct InvariantWalk<'a> {
    f: &'a Function,
    dg: &'a DepGraph<InstId>,
    in_loop: &'a [bool],
    state: &'a mut [Visit],
}

impl InvariantWalk<'_> {
    /// Instructions whose *execution* matters (effects) or whose value
    /// varies structurally can never be invariant.
    fn eligible(&self, id: InstId) -> bool {
        match self.f.inst(id) {
            Inst::Phi { .. } | Inst::Term(_) | Inst::Alloca { .. } | Inst::Store { .. } => false,
            // Calls: only if the PDG gave them no memory/IO edges from inside
            // the loop (pure calls have none) — handled below by dependence
            // walking — but a call that writes memory or does I/O carries a
            // self-edge in the loop PDG, so it is excluded there.
            // Conservatively exclude any call with a memory self-edge.
            Inst::Call { .. } => !self
                .dg
                .edges_to(id)
                .chain(self.dg.edges_from(id))
                .any(|e| e.attrs.memory && e.src == e.dst),
            _ => true,
        }
    }

    /// Is loop instruction `root` invariant? Every instruction the walk
    /// settles on the way is memoized. `frames` is the walk's stack, empty
    /// between calls: an instruction and how many of its dependences
    /// ([`DepGraph::edge_to`]) were walked.
    fn is_invariant(&mut self, root: InstId, frames: &mut Vec<(InstId, usize)>) -> bool {
        if !self.enter(root) {
            return false;
        }
        if self.state[root.index()] == Visit::Invariant {
            return true;
        }
        // "for PDG dependence J to I": each frame walks the data
        // dependences of its instruction, descending into the ones inside
        // the loop that are not settled yet.
        frames.push((root, 0));
        // The verdict of the frame just popped, for the frame below it.
        let mut child: Option<bool> = None;
        while let Some(&mut (id, ref mut walked)) = frames.last_mut() {
            let mut verdict = (child.take() == Some(false)).then_some(false);
            let mut descend = None;
            if verdict.is_none() {
                while let Some(e) = self.dg.edge_to(id, *walked) {
                    *walked += 1;
                    if !e.attrs.is_data() {
                        continue;
                    }
                    let j = e.src;
                    // "if I in s then return False" — a dependence cycle is
                    // a recurrence.
                    if j == id {
                        verdict = Some(false);
                        break;
                    }
                    if !self.in_loop[self.f.parent_block(j).index()] {
                        continue;
                    }
                    if !self.enter(j) {
                        verdict = Some(false);
                        break;
                    }
                    if self.state[j.index()] == Visit::OnStack {
                        descend = Some(j);
                        break;
                    }
                }
            }
            if let Some(j) = descend {
                frames.push((j, 0));
                continue;
            }
            // Every dependence was walked without a variant one: invariant.
            let verdict = verdict.unwrap_or(true);
            self.state[id.index()] = if verdict {
                Visit::Invariant
            } else {
                Visit::Variant
            };
            frames.pop();
            child = Some(verdict);
        }
        self.state[root.index()] == Visit::Invariant
    }

    /// Reach `id` from a dependence (or as a root): `false` when it is
    /// known variant — settled so, ineligible, or on the stack already;
    /// otherwise it is settled invariant, or newly marked `OnStack` for the
    /// caller to push its frame.
    fn enter(&mut self, id: InstId) -> bool {
        match self.state[id.index()] {
            Visit::OnStack | Visit::Variant => false,
            Visit::Invariant => true,
            Visit::Unknown if !self.eligible(id) => {
                self.state[id.index()] = Visit::Variant;
                false
            }
            Visit::Unknown => {
                self.state[id.index()] = Visit::OnStack;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_analysis::alias::{AliasStack, AndersenAlias, BasicAlias};
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::loops::LoopForest;
    use noelle_ir::types::Type;
    use noelle_pdg::pdg::PdgBuilder;

    /// Loop where x = a + b is invariant and y = x * 2 is *chained* off it:
    /// Algorithm 1 misses y (its operand is defined in the loop); Algorithm 2
    /// finds both.
    fn chained_invariants() -> (Module, FuncId, LoopInfo) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("a", Type::I64), ("b", Type::I64), ("n", Type::I64)],
            Type::I64,
        );
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let acc = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(2));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let x = b.binop(BinOp::Add, Type::I64, b.arg(0), b.arg(1)); // invariant
        let y = b.binop(BinOp::Mul, Type::I64, x, Value::const_i64(2)); // chained invariant
        let acc2 = b.binop(BinOp::Add, Type::I64, acc, y);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(acc, body, acc2);
        b.switch_to(exit);
        b.ret(Some(acc));
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        (m.clone(), fid, forest.loops()[0].clone())
    }

    fn run_both(m: &Module, fid: FuncId, l: &LoopInfo) -> (InvariantSet, InvariantSet) {
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let basic = BasicAlias::new(m);
        let modref = ModRefSummaries::compute(m);
        let llvm = invariants_llvm(m, fid, l, &dt, &basic, &modref);

        let andersen = AndersenAlias::new(m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let builder = PdgBuilder::new(m, &stack);
        let g = builder.loop_pdg(fid, l);
        let noelle = invariants_noelle(f, l, &g);
        (llvm, noelle)
    }

    #[test]
    fn algorithm2_finds_chained_invariants_algorithm1_does_not() {
        let (m, fid, l) = chained_invariants();
        let (llvm, noelle) = run_both(&m, fid, &l);
        // x is found by both; y only by NOELLE.
        assert_eq!(llvm.len(), 1, "llvm: {:?}", llvm.iter().collect::<Vec<_>>());
        assert_eq!(noelle.len(), 2);
        // NOELLE's set is a superset.
        assert!(llvm.iter().all(|i| noelle.contains(i)));
    }

    #[test]
    fn recurrences_are_never_invariant() {
        let (m, fid, l) = chained_invariants();
        let f = m.func(fid);
        let (_, noelle) = run_both(&m, fid, &l);
        // phis, icmp on IV, updates: not invariant.
        for id in f.inst_ids() {
            if matches!(f.inst(id), Inst::Phi { .. }) {
                assert!(!noelle.contains(id));
            }
        }
        // The IV increment participates in a cycle.
        let incr = f
            .inst_ids()
            .into_iter()
            .find(|&i| {
                matches!(f.inst(i), Inst::Bin { op: BinOp::Add, lhs, .. }
                    if matches!(lhs, Value::Inst(p) if matches!(f.inst(*p), Inst::Phi { .. })))
            })
            .unwrap();
        assert!(!noelle.contains(incr));
    }

    #[test]
    fn load_from_readonly_location_is_invariant_for_noelle() {
        // q = load p (p an argument) inside a loop that stores only to a
        // distinct alloca. Basic AA can't always tell; the PDG with the full
        // stack can.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("p", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::I64,
        );
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        let scratch = b.alloca(Type::I64);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let v = b.load(Type::I64, b.arg(0)); // invariant: p never written
        b.store(Type::I64, v, scratch);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(Some(Value::const_i64(0)));
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let (_llvm, noelle) = run_both(&m, fid, &l);
        assert!(noelle.contains(v.as_inst().unwrap()));
        // Value-level query helpers.
        assert!(noelle.is_invariant_value(f, &l, v));
        assert!(noelle.is_invariant_value(f, &l, Value::Arg(0)));
        assert!(!noelle.is_invariant_value(f, &l, i));
    }

    #[test]
    fn store_in_loop_blocks_aliasing_load_for_both() {
        // load p and store p in the same loop: not invariant for either
        // algorithm.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("p", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::Void,
        );
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
        let v = b.load(Type::I64, b.arg(0));
        let v2 = b.binop(BinOp::Add, Type::I64, v, Value::const_i64(1));
        b.store(Type::I64, v2, b.arg(0));
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let (llvm, noelle) = run_both(&m, fid, &l);
        assert!(!llvm.contains(v.as_inst().unwrap()));
        assert!(!noelle.contains(v.as_inst().unwrap()));
    }

    #[test]
    fn pure_call_invariant_for_noelle() {
        let mut m = Module::new("t");
        let sqrt = m.declare_function("sqrt", vec![Type::F64], Type::F64);
        let mut b = FunctionBuilder::new("k", vec![("x", Type::F64), ("n", Type::I64)], Type::F64);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let acc = b.phi(Type::F64, vec![(entry, Value::const_f64(0.0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let s = b.call(sqrt, vec![b.arg(0)], Type::F64); // pure, invariant args
        let acc2 = b.binop(BinOp::FAdd, Type::F64, acc, s);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(acc, body, acc2);
        b.switch_to(exit);
        b.ret(Some(acc));
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let (llvm, noelle) = run_both(&m, fid, &l);
        assert!(noelle.contains(s.as_inst().unwrap()));
        assert!(llvm.contains(s.as_inst().unwrap()));
    }
}
