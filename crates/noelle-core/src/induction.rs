//! The Induction Variable (IV) abstraction.
//!
//! Two detectors are provided, mirroring the paper's §4.3 comparison:
//!
//! - [`ivs_noelle`] — NOELLE's SCC-based detection: a loop's induction
//!   variable is the SCC of its aSCCDAG formed by a header phi and its
//!   affine update, independent of loop *shape*. It exposes the start value,
//!   the step, whether the IV *governs* the loop (controls its trip count),
//!   and derived IVs.
//! - [`ivs_llvm`] — the LLVM-9-style detection, which "expects the input IR
//!   to have loops in the do-while shape": for while-shaped loops it finds
//!   no governing induction variable. This asymmetry is what makes LLVM
//!   report 11 governing IVs where NOELLE reports 385 across the paper's 41
//!   benchmarks.

use noelle_analysis::scev::{affine_recurrences, exit_condition, AddRec};
use noelle_ir::inst::{BinOp, Inst, InstId};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::Function;
use noelle_ir::value::Value;
use std::collections::BTreeSet;

/// One induction variable of a loop.
#[derive(Clone, Debug)]
pub struct InductionVariable {
    /// The affine recurrence (phi, start, step, update).
    pub rec: AddRec,
    /// True if this IV controls the number of iterations.
    pub governing: bool,
    /// The exit bound when governing (`i < bound`).
    pub bound: Option<Value>,
    /// Instructions whose value is an affine function of this IV (derived
    /// IVs), e.g. `j = i * 4 + base`.
    pub derived: BTreeSet<InstId>,
}

/// All induction variables of one loop.
#[derive(Clone, Debug, Default)]
pub struct InductionVariables {
    /// The IVs found.
    pub ivs: Vec<InductionVariable>,
}

impl InductionVariables {
    /// The governing IV, if one was identified.
    pub fn governing(&self) -> Option<&InductionVariable> {
        self.ivs.iter().find(|iv| iv.governing)
    }

    /// The IV rooted at phi `phi`, if any.
    pub fn by_phi(&self, phi: InstId) -> Option<&InductionVariable> {
        self.ivs.iter().find(|iv| iv.rec.phi == phi)
    }

    /// Instructions that belong to any IV's recurrence (phi + update).
    pub fn recurrence_insts(&self) -> BTreeSet<InstId> {
        self.ivs
            .iter()
            .flat_map(|iv| [iv.rec.phi, iv.rec.update])
            .collect()
    }

    /// Number of IVs found.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// True if no IV was found.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }
}

/// NOELLE's shape-independent, SCC-based IV detection over the loop's
/// affine recurrences (`noelle_analysis::scev::affine_recurrences`).
pub fn ivs_noelle(f: &Function, l: &LoopInfo, recs: &[AddRec]) -> InductionVariables {
    ivs_noelle_in(f, l, recs, &mut Vec::new())
}

/// [`ivs_noelle`] listing the loop's instructions in `loop_insts`, which is
/// cleared first and keeps its storage.
pub(crate) fn ivs_noelle_in(
    f: &Function,
    l: &LoopInfo,
    recs: &[AddRec],
    loop_insts: &mut Vec<InstId>,
) -> InductionVariables {
    if recs.is_empty() {
        return InductionVariables::default();
    }
    let cond = exit_condition(f, l, recs);
    loop_insts.clear();
    for &b in f.block_order().iter().filter(|&&b| l.contains(b)) {
        loop_insts.extend_from_slice(&f.block(b).insts);
    }
    let loop_insts: &[InstId] = loop_insts;
    let mut ivs = Vec::with_capacity(recs.len());
    for (i, rec) in recs.iter().enumerate() {
        let governing = cond.as_ref().map(|c| c.rec_index == i).unwrap_or(false);
        let bound = cond.as_ref().filter(|c| c.rec_index == i).map(|c| c.bound);
        let derived = derived_ivs(f, l, rec, loop_insts);
        ivs.push(InductionVariable {
            rec: rec.clone(),
            governing,
            bound,
            derived,
        });
    }
    InductionVariables { ivs }
}

/// LLVM-9-style IV detection: only meaningful on do-while-shaped loops. On
/// while-shaped loops (the common case after Clang without loop rotation)
/// it finds no governing IV, as the paper observes.
pub fn ivs_llvm(f: &Function, l: &LoopInfo) -> InductionVariables {
    if !l.is_do_while() {
        return InductionVariables::default();
    }
    // Within the do-while shape it looks only at header PHIs updated by a
    // constant step (def-use chains, no SCC reasoning).
    let recs = affine_recurrences(f, l);
    let cond = exit_condition(f, l, &recs);
    let mut ivs = Vec::new();
    for (i, rec) in recs.iter().enumerate() {
        if rec.const_step().is_none() {
            continue; // LLVM-style: requires a constant step
        }
        let governing = cond.as_ref().map(|c| c.rec_index == i).unwrap_or(false);
        let bound = cond.as_ref().filter(|c| c.rec_index == i).map(|c| c.bound);
        ivs.push(InductionVariable {
            rec: rec.clone(),
            governing,
            bound,
            derived: BTreeSet::new(),
        });
    }
    InductionVariables { ivs }
}

/// Instructions of `loop_insts` (those of `l`) whose value is affine in
/// `rec`: transitive closure of `add`/`sub`/`mul`/`shl` where one operand is
/// IV-derived and the other is trivially loop-invariant.
fn derived_ivs(
    f: &Function,
    l: &LoopInfo,
    rec: &AddRec,
    loop_insts: &[InstId],
) -> BTreeSet<InstId> {
    use noelle_analysis::scev::trivially_loop_invariant as inv;
    let mut derived: BTreeSet<InstId> = BTreeSet::new();
    let mut changed = true;
    let in_family = |derived: &BTreeSet<InstId>, v: Value| -> bool {
        match v {
            Value::Inst(i) => i == rec.phi || i == rec.update || derived.contains(&i),
            _ => false,
        }
    };
    while changed {
        changed = false;
        for &id in loop_insts {
            if derived.contains(&id) || id == rec.phi || id == rec.update {
                continue;
            }
            if let Inst::Bin { op, lhs, rhs, .. } = f.inst(id) {
                let affine_op = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl);
                if !affine_op {
                    continue;
                }
                let l_fam = in_family(&derived, *lhs);
                let r_fam = in_family(&derived, *rhs);
                let ok = (l_fam && inv(f, l, *rhs)) || (r_fam && inv(f, l, *lhs));
                if ok {
                    derived.insert(id);
                    changed = true;
                }
            }
        }
    }
    derived
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::IcmpPred;
    use noelle_ir::loops::LoopForest;
    use noelle_ir::types::Type;

    /// while-shaped counted loop with a derived IV j = i * 8.
    fn while_loop_with_derived() -> (Function, LoopInfo) {
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64)], Type::Void);
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
        let j = b.binop(BinOp::Mul, Type::I64, i, Value::const_i64(8));
        let k = b.binop(BinOp::Add, Type::I64, j, Value::const_i64(16));
        let _ = k;
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        (f, l)
    }

    /// do-while-shaped counted loop.
    fn do_while_loop() -> (Function, LoopInfo) {
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64)], Type::Void);
        let entry = b.entry_block();
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        let c = b.icmp(IcmpPred::Slt, Type::I64, i2, b.arg(0));
        b.cond_br(c, body, exit);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        (f, l)
    }

    #[test]
    fn noelle_finds_governing_iv_in_while_loop() {
        let (f, l) = while_loop_with_derived();
        let ivs = ivs_noelle(&f, &l, &affine_recurrences(&f, &l));
        assert_eq!(ivs.len(), 1);
        let gov = ivs.governing().expect("governing IV");
        assert_eq!(gov.rec.const_step(), Some(1));
        assert_eq!(gov.bound, Some(Value::Arg(0)));
        // Derived: j = i*8 and k = j+16.
        assert_eq!(gov.derived.len(), 2);
    }

    #[test]
    fn llvm_finds_nothing_in_while_loop() {
        // This is the §4.3 asymmetry: same loop, no IV for the LLVM-style
        // analysis because the loop is while-shaped.
        let (f, l) = while_loop_with_derived();
        let ivs = ivs_llvm(&f, &l);
        assert!(ivs.is_empty());
        assert!(ivs.governing().is_none());
    }

    #[test]
    fn both_find_iv_in_do_while_loop() {
        let (f, l) = do_while_loop();
        let a = ivs_noelle(&f, &l, &affine_recurrences(&f, &l));
        let b = ivs_llvm(&f, &l);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(a.governing().is_some());
        assert!(b.governing().is_some());
    }

    #[test]
    fn recurrence_insts_cover_phi_and_update() {
        let (f, l) = while_loop_with_derived();
        let ivs = ivs_noelle(&f, &l, &affine_recurrences(&f, &l));
        let insts = ivs.recurrence_insts();
        assert_eq!(insts.len(), 2);
        for id in insts {
            assert!(matches!(
                f.inst(id),
                Inst::Phi { .. } | Inst::Bin { op: BinOp::Add, .. }
            ));
        }
        let phi = ivs.ivs[0].rec.phi;
        assert!(ivs.by_phi(phi).is_some());
    }

    #[test]
    fn non_governing_secondary_iv() {
        // Two IVs; only i governs.
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64)], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let j = b.phi(Type::I64, vec![(entry, Value::const_i64(100))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        let j2 = b.binop(BinOp::Sub, Type::I64, j, Value::const_i64(3));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(j, body, j2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let ivs = ivs_noelle(&f, &l, &affine_recurrences(&f, &l));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs.ivs.iter().filter(|iv| iv.governing).count(), 1);
        let j_iv = ivs
            .ivs
            .iter()
            .find(|iv| iv.rec.const_step() == Some(-3))
            .expect("j IV");
        assert!(!j_iv.governing);
    }
}
