//! Scalar-evolution-lite: affine recurrence recognition and constant trip
//! counts.
//!
//! The paper lists *scalar evolution* among the LLVM abstractions NOELLE
//! re-implements with user-controlled lifetime. This module recognizes
//! `{start, +, step}` add-recurrences rooted at loop-header phis and derives
//! constant trip counts for governed loops; the IV abstraction in
//! `noelle-core` builds on it.

use noelle_ir::inst::{BinOp, IcmpPred, Inst, InstId, Terminator};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::Function;
use noelle_ir::types::{IntWidth, Type};
use noelle_ir::value::{Constant, Value};

/// An affine recurrence `value(k) = start + k * step` carried by a header
/// phi (`step` is negated for `sub` updates).
#[derive(Clone, Debug, PartialEq)]
pub struct AddRec {
    /// The header phi carrying the recurrence.
    pub phi: InstId,
    /// Value on loop entry.
    pub start: Value,
    /// Loop-invariant step added each iteration.
    pub step: Value,
    /// The instruction computing the next value (the `add`/`sub` feeding the
    /// phi around the back edge).
    pub update: InstId,
    /// True if the update subtracts the step instead of adding it.
    pub negated: bool,
}

impl AddRec {
    /// The step as a signed constant, if it is one (negated for subtracting
    /// updates).
    pub fn const_step(&self) -> Option<i64> {
        match self.step {
            Value::Const(Constant::Int(v, _)) => Some(if self.negated { -v } else { v }),
            _ => None,
        }
    }

    /// The start as a signed constant, if it is one.
    pub fn const_start(&self) -> Option<i64> {
        match self.start {
            Value::Const(Constant::Int(v, _)) => Some(v),
            _ => None,
        }
    }
}

/// True if `v` is trivially invariant with respect to loop `l`: a constant,
/// argument, global, or an instruction defined outside the loop. (The full
/// PDG-powered invariant analysis lives in `noelle-core`; this weaker check
/// is all recurrence *detection* needs.)
pub fn trivially_loop_invariant(f: &Function, l: &LoopInfo, v: Value) -> bool {
    match v {
        Value::Const(_) | Value::Arg(_) | Value::Global(_) | Value::Func(_) => true,
        Value::Inst(id) => !l.contains(f.parent_block(id)),
    }
}

/// Find every affine recurrence rooted at a header phi of `l`.
pub fn affine_recurrences(f: &Function, l: &LoopInfo) -> Vec<AddRec> {
    let mut out = Vec::new();
    affine_recurrences_into(f, l, &mut out);
    out
}

/// [`affine_recurrences`] into `out`, which is cleared first and keeps its
/// storage.
pub fn affine_recurrences_into(f: &Function, l: &LoopInfo, out: &mut Vec<AddRec>) {
    out.clear();
    for &phi_id in &f.block(l.header).insts {
        let Inst::Phi { incomings, .. } = f.inst(phi_id) else {
            break; // the phis lead the block
        };
        let mut start: Option<Value> = None;
        let mut update_val: Option<Value> = None;
        let mut ok = true;
        for (pred, v) in incomings {
            if l.contains(*pred) {
                match update_val {
                    None => update_val = Some(*v),
                    Some(u) if u == *v => {}
                    _ => ok = false,
                }
            } else {
                match start {
                    None => start = Some(*v),
                    Some(s) if s == *v => {}
                    _ => ok = false,
                }
            }
        }
        let (Some(start), Some(update_val), true) = (start, update_val, ok) else {
            continue;
        };
        let Some(update) = update_val.as_inst() else {
            continue;
        };
        if !l.contains(f.parent_block(update)) {
            continue;
        }
        if let Inst::Bin { op, lhs, rhs, .. } = f.inst(update) {
            let (step, negated) = match op {
                BinOp::Add => {
                    if *lhs == Value::Inst(phi_id) {
                        (*rhs, false)
                    } else if *rhs == Value::Inst(phi_id) {
                        (*lhs, false)
                    } else {
                        continue;
                    }
                }
                BinOp::Sub => {
                    if *lhs == Value::Inst(phi_id) {
                        (*rhs, true)
                    } else {
                        continue;
                    }
                }
                _ => continue,
            };
            if trivially_loop_invariant(f, l, step) {
                out.push(AddRec {
                    phi: phi_id,
                    start,
                    step,
                    update,
                    negated,
                });
            }
        }
    }
}

/// The exit condition of a counted loop: the compare governing the exit
/// branch, which recurrence it tests, and the loop-invariant bound.
#[derive(Clone, Debug)]
pub struct ExitCondition {
    /// The compare instruction.
    pub cmp: InstId,
    /// The recurrence being compared (index into the `affine_recurrences`
    /// result passed in).
    pub rec_index: usize,
    /// True if the compared value is the *updated* IV (post-increment),
    /// false if it is the phi itself.
    pub compares_update: bool,
    /// The loop-invariant bound.
    pub bound: Value,
    /// Predicate, normalized so the recurrence is the left operand.
    pub pred: IcmpPred,
    /// True if the branch *continues* the loop when the predicate holds.
    pub continue_on_true: bool,
}

/// Find the exit condition of `l` tested in an exiting block, if its shape is
/// `icmp(iv-or-update, invariant)` feeding a conditional branch with one edge
/// leaving the loop.
pub fn exit_condition(f: &Function, l: &LoopInfo, recs: &[AddRec]) -> Option<ExitCondition> {
    for exiting in l.exiting_blocks() {
        let Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        }) = f.terminator(exiting)
        else {
            continue;
        };
        let cmp = cond.as_inst()?;
        let Inst::Icmp { pred, lhs, rhs, .. } = f.inst(cmp) else {
            continue;
        };
        let classify = |v: Value| -> Option<(usize, bool)> {
            recs.iter().enumerate().find_map(|(i, r)| {
                if v == Value::Inst(r.phi) {
                    Some((i, false))
                } else if v == Value::Inst(r.update) {
                    Some((i, true))
                } else {
                    None
                }
            })
        };
        let (rec_index, compares_update, bound, pred) = match (classify(*lhs), classify(*rhs)) {
            (Some((i, upd)), None) if trivially_loop_invariant(f, l, *rhs) => (i, upd, *rhs, *pred),
            (None, Some((i, upd))) if trivially_loop_invariant(f, l, *lhs) => {
                (i, upd, *lhs, pred.swapped())
            }
            _ => continue,
        };
        let then_in = l.contains(*then_bb);
        let else_in = l.contains(*else_bb);
        let continue_on_true = match (then_in, else_in) {
            (true, false) => true,
            (false, true) => false,
            _ => continue,
        };
        return Some(ExitCondition {
            cmp,
            rec_index,
            compares_update,
            bound,
            pred,
            continue_on_true,
        });
    }
    None
}

/// Constant trip count of `l` — the number of times the loop body runs — if
/// the governing recurrence, bound, and shape are all statically known.
/// `recs` are the loop's [`affine_recurrences`].
pub fn const_trip_count(f: &Function, l: &LoopInfo, recs: &[AddRec]) -> Option<i64> {
    trip_count_given(f, l, recs, None)
}

/// [`const_trip_count`] for a caller that knows more than `f` says: a
/// governing bound that is not a literal is taken to be `bound` (an
/// argument every call site passes the same constant, say).
///
/// The count is computed in `i128` and answered only when every value the
/// exit test reads lies in the counter's integer type — in its non-negative
/// half for an unsigned test, where unsigned and signed order agree. A
/// counter that would wrap before the test fails gets no count.
pub fn trip_count_given(
    f: &Function,
    l: &LoopInfo,
    recs: &[AddRec],
    bound: Option<i64>,
) -> Option<i64> {
    let cond = exit_condition(f, l, recs)?;
    let rec = &recs[cond.rec_index];
    let Inst::Phi {
        ty: Type::Int(width),
        ..
    } = f.inst(rec.phi)
    else {
        return None;
    };
    if *width == IntWidth::I1 {
        return None;
    }
    let max = (1i128 << (width.bits() - 1)) - 1;
    let start = i128::from(rec.const_start()?);
    let step = i128::from(rec.const_step()?);
    let bound = i128::from(match cond.bound {
        Value::Const(Constant::Int(v, _)) => v,
        _ => bound?,
    });
    if step == 0 {
        return None;
    }
    // Normalize to a "continue while pred(iv_tested, bound)" predicate.
    let pred = if cond.continue_on_true {
        cond.pred
    } else {
        // Continue when the predicate is false: invert it.
        match cond.pred {
            IcmpPred::Eq => IcmpPred::Ne,
            IcmpPred::Ne => IcmpPred::Eq,
            IcmpPred::Slt => IcmpPred::Sge,
            IcmpPred::Sle => IcmpPred::Sgt,
            IcmpPred::Sgt => IcmpPred::Sle,
            IcmpPred::Sge => IcmpPred::Slt,
            IcmpPred::Ult => IcmpPred::Uge,
            IcmpPred::Ule => IcmpPred::Ugt,
            IcmpPred::Ugt => IcmpPred::Ule,
            IcmpPred::Uge => IcmpPred::Ult,
        }
    };
    // The value seen by the k-th test (0-based) is start + k*step when the
    // phi is tested, or start + (k+1)*step when the updated value is tested.
    let first = start + if cond.compares_update { step } else { 0 };
    let unsigned = matches!(
        pred,
        IcmpPred::Ult | IcmpPred::Ule | IcmpPred::Ugt | IcmpPred::Uge
    );
    let fits = |v: i128| (if unsigned { 0 } else { -max - 1 }..=max).contains(&v);
    if !(-max - 1..=max).contains(&start) || !fits(first) || !fits(bound) {
        return None;
    }

    // N = number of consecutive passing tests, starting from the k = 0 test.
    let passes: i128 = match pred {
        IcmpPred::Slt | IcmpPred::Ult => {
            if step <= 0 {
                return None; // moving away from the bound or not at all
            }
            if first >= bound {
                0
            } else {
                (bound - first + step - 1).div_euclid(step)
            }
        }
        IcmpPred::Sle | IcmpPred::Ule => {
            if step <= 0 {
                return None;
            }
            if first > bound {
                0
            } else {
                (bound - first).div_euclid(step) + 1
            }
        }
        IcmpPred::Sgt | IcmpPred::Ugt => {
            if step >= 0 {
                return None;
            }
            if first <= bound {
                0
            } else {
                (first - bound + (-step) - 1).div_euclid(-step)
            }
        }
        IcmpPred::Sge | IcmpPred::Uge => {
            if step >= 0 {
                return None;
            }
            if first < bound {
                0
            } else {
                (first - bound).div_euclid(-step) + 1
            }
        }
        IcmpPred::Ne => {
            let diff = bound - first;
            if diff == 0 {
                0
            } else if diff % step == 0 && diff / step > 0 {
                diff / step
            } else {
                return None; // never hits the bound exactly: endless
            }
        }
        IcmpPred::Eq => return None,
    };
    // The tested values run monotonically from `first` to the failing one:
    // if that one fits too, no test read a wrapped value.
    if !fits(first + passes * step) {
        return None;
    }

    // While-shaped loops run the body once per passing test; do-while loops
    // run the body once before the first test as well.
    i64::try_from(passes + i128::from(l.is_do_while())).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::loops::LoopForest;
    use noelle_ir::types::Type;

    fn counted_loop(start: i64, step: i64, bound: i64) -> (Function, LoopInfo) {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(start))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, Value::const_i64(bound));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(step));
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

    #[test]
    fn recognizes_affine_recurrence() {
        let (f, l) = counted_loop(0, 1, 10);
        let recs = affine_recurrences(&f, &l);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.const_start(), Some(0));
        assert_eq!(r.const_step(), Some(1));
        assert!(!r.negated);
    }

    #[test]
    fn trip_counts_for_common_shapes() {
        for (start, step, bound, expect) in [
            (0, 1, 10, 10),
            (0, 2, 10, 5),
            (0, 3, 10, 4),
            (5, 1, 10, 5),
            (0, 1, 0, 0),
            (7, 1, 3, 0),
        ] {
            let (f, l) = counted_loop(start, step, bound);
            assert_eq!(
                const_trip_count(&f, &l, &affine_recurrences(&f, &l)),
                Some(expect),
                "start={start} step={step} bound={bound}"
            );
        }
    }

    #[test]
    fn non_constant_bound_has_no_trip_count() {
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
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dt);
        let l = &forest.loops()[0];
        // Recurrence is found but the bound is an argument.
        let recs = affine_recurrences(&f, l);
        assert_eq!(recs.len(), 1);
        assert_eq!(const_trip_count(&f, l, &recs), None);
        // The exit condition is still recognized symbolically.
        let cond = exit_condition(&f, l, &recs).expect("found");
        assert_eq!(cond.bound, Value::Arg(0));
        assert!(cond.continue_on_true);
    }

    #[test]
    fn down_counting_loop() {
        // for (i = 10; i > 0; i -= 2): 5 iterations
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(10))]);
        let c = b.icmp(IcmpPred::Sgt, Type::I64, i, Value::const_i64(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Sub, Type::I64, i, Value::const_i64(2));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dt);
        let l = &forest.loops()[0];
        let recs = affine_recurrences(&f, l);
        assert_eq!(recs[0].const_step(), Some(-2));
        assert_eq!(const_trip_count(&f, l, &recs), Some(5));
    }

    #[test]
    fn non_affine_phi_rejected() {
        // i = phi; i2 = i * 2 — geometric, not affine.
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(1))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, Value::const_i64(100));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Mul, Type::I64, i, Value::const_i64(2));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dt);
        assert!(affine_recurrences(&f, &forest.loops()[0]).is_empty());
    }

    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::module::Function;
}
