//! Fixpoint test-case reducer.
//!
//! [`reduce`] shrinks a failing module while preserving an arbitrary
//! "still fails" predicate (normally [`crate::oracle::fails_like`] curried
//! over the original failure). The algorithm is a deterministic greedy
//! descent: each round runs a fixed sequence of passes, each pass proposes
//! single mutations in a canonical order, and a candidate is accepted only
//! when it
//!
//! 1. still verifies,
//! 2. strictly decreases the reduction metric, and
//! 3. still satisfies the predicate.
//!
//! The metric is the lexicographic triple `(reachable instructions, total
//! instructions, summed integer-constant magnitude)`, so every accepted
//! step makes provable progress and the loop terminates; a round that
//! accepts nothing is a fixpoint and ends the run early.
//!
//! Passes, in order:
//!
//! - **drop-inst** — delete a non-terminator instruction, replacing its
//!   uses with a typed zero (`0`, `0.0`, or `null`) when it has any.
//! - **flatten-branch** — rewrite a `condbr`/`switch` into an
//!   unconditional `br` (both polarities / the default target are tried).
//! - **prune-unreachable** — gut blocks no longer reachable from the
//!   entry, leaving a bare `unreachable` stub (the verifier rejects empty
//!   blocks, and the IR has no block-removal primitive).
//! - **merge-blocks** — fold a single-successor block into its unique
//!   `br` predecessor, retargeting successor phis.
//! - **shrink-const** — replace an integer constant operand by `0`, `1`,
//!   or half its value.

use std::collections::HashSet;

use noelle_ir::inst::{Inst, InstId, Terminator};
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::{Constant, Value};
use noelle_ir::verifier::verify_module;

use crate::oracle::operand_list;

/// Default bound on reduction rounds; each round is a full pass sequence.
pub const DEFAULT_MAX_ROUNDS: usize = 12;

/// Statistics from one [`reduce`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Rounds executed (including the final no-progress round).
    pub rounds: usize,
    /// Candidate mutations proposed.
    pub attempted: usize,
    /// Candidate mutations accepted.
    pub accepted: usize,
    /// `total_insts` of the input module.
    pub insts_before: usize,
    /// `total_insts` of the reduced module.
    pub insts_after: usize,
}

/// Reduction metric: candidates are accepted only if this strictly
/// decreases lexicographically.
type Metric = (usize, usize, u128);

fn reachable_blocks(m: &Module, fid: FuncId) -> HashSet<BlockId> {
    let f = m.func(fid);
    let mut seen = HashSet::new();
    if f.is_declaration() {
        return seen;
    }
    let mut stack = vec![f.entry()];
    while let Some(b) = stack.pop() {
        if seen.insert(b) {
            stack.extend(f.successors(b));
        }
    }
    seen
}

fn metric(m: &Module) -> Metric {
    let mut reachable = 0usize;
    let mut const_mag = 0u128;
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        for b in reachable_blocks(m, fid) {
            reachable += f.block(b).insts.len();
        }
        for id in f.inst_ids() {
            f.inst(id).for_each_operand(|op| {
                if let Value::Const(Constant::Int(v, _)) = op {
                    const_mag += v.unsigned_abs() as u128;
                }
            });
        }
    }
    (reachable, m.total_insts(), const_mag)
}

/// A typed zero suitable for replacing a value of type `ty`, if one exists.
fn zero_of(ty: &Type) -> Option<Value> {
    match ty {
        Type::Int(w) => Some(Value::Const(Constant::Int(0, *w))),
        Type::Float(w) => Some(Value::Const(Constant::Float(0, *w))),
        Type::Ptr(_) => Some(Value::Const(Constant::Null)),
        _ => None,
    }
}

struct Reducer<'a> {
    best: Module,
    best_metric: Metric,
    still_fails: &'a dyn Fn(&Module) -> bool,
    stats: ReduceStats,
}

impl<'a> Reducer<'a> {
    /// Accept `cand` iff it verifies, strictly improves the metric, and
    /// still fails. Returns whether it became the new best.
    fn try_accept(&mut self, cand: Module) -> bool {
        self.stats.attempted += 1;
        if verify_module(&cand).is_err() {
            return false;
        }
        let cm = metric(&cand);
        if cm >= self.best_metric {
            return false;
        }
        if !(self.still_fails)(&cand) {
            return false;
        }
        self.best = cand;
        self.best_metric = cm;
        self.stats.accepted += 1;
        true
    }

    /// Defined-function ids of the current best, in id order.
    fn defined_funcs(&self) -> Vec<FuncId> {
        self.best
            .func_ids()
            .filter(|&fid| !self.best.func(fid).is_declaration())
            .collect()
    }

    /// drop-inst: try deleting each non-terminator instruction, replacing
    /// its uses (if any) with a typed zero.
    fn pass_drop_insts(&mut self) -> usize {
        let mut accepted = 0;
        for fid in self.defined_funcs() {
            for id in self.best.func(fid).inst_ids() {
                let f = self.best.func(fid);
                // Stale id (an earlier acceptance removed it) or terminator.
                if f.position_in_block(id).is_none() || f.inst(id).is_terminator() {
                    continue;
                }
                let has_uses = f.compute_uses().get(&id).is_some_and(|us| !us.is_empty());
                let replacement = if has_uses {
                    match zero_of(&f.inst(id).result_type()) {
                        Some(z) => Some(z),
                        None => continue, // no typed zero for this result
                    }
                } else {
                    None
                };
                let mut cand = self.best.clone();
                let cf = cand.func_mut(fid);
                if let Some(z) = replacement {
                    cf.replace_all_uses(Value::Inst(id), z);
                }
                cf.remove_inst(id);
                if self.try_accept(cand) {
                    accepted += 1;
                }
            }
        }
        accepted
    }

    /// flatten-branch: try rewriting each condbr (both arms) and switch
    /// (default target) into an unconditional br.
    fn pass_flatten_branches(&mut self) -> usize {
        let mut accepted = 0;
        for fid in self.defined_funcs() {
            for b in self.best.func(fid).block_order().to_vec() {
                let targets: Vec<BlockId> = match self.best.func(fid).terminator(b) {
                    Some(Terminator::CondBr {
                        then_bb, else_bb, ..
                    }) => vec![*then_bb, *else_bb],
                    Some(Terminator::Switch { default, .. }) => vec![*default],
                    _ => continue,
                };
                for t in targets {
                    let mut cand = self.best.clone();
                    cand.func_mut(fid).set_terminator(b, Terminator::Br(t));
                    if self.try_accept(cand) {
                        accepted += 1;
                        break; // the other polarity no longer exists
                    }
                }
            }
        }
        accepted
    }

    /// prune-unreachable: gut every block not reachable from the entry in
    /// one candidate, leaving `unreachable` stubs.
    fn pass_prune_unreachable(&mut self) -> usize {
        let mut accepted = 0;
        for fid in self.defined_funcs() {
            let reachable = reachable_blocks(&self.best, fid);
            let f = self.best.func(fid);
            let dead: Vec<BlockId> = f
                .block_order()
                .iter()
                .copied()
                .filter(|b| !reachable.contains(b))
                .filter(|&b| {
                    f.block(b).insts.len() != 1
                        || !matches!(f.terminator(b), Some(Terminator::Unreachable))
                })
                .collect();
            if dead.is_empty() {
                continue;
            }
            let mut cand = self.best.clone();
            let cf = cand.func_mut(fid);
            for b in dead {
                for id in cf.block(b).insts.clone() {
                    cf.remove_inst(id);
                }
                cf.set_terminator(b, Terminator::Unreachable);
            }
            if self.try_accept(cand) {
                accepted += 1;
            }
        }
        accepted
    }

    /// merge-blocks: fold block `b` into its unique predecessor `a` when
    /// `a` ends in `br b` and `b` has no phis.
    fn pass_merge_blocks(&mut self) -> usize {
        let mut accepted = 0;
        for fid in self.defined_funcs() {
            for a in self.best.func(fid).block_order().to_vec() {
                let f = self.best.func(fid);
                let b = match f.terminator(a) {
                    Some(Terminator::Br(b)) => *b,
                    _ => continue,
                };
                if b == a || b == f.entry() || !f.phis(b).is_empty() {
                    continue;
                }
                // `b` must have `a` as its only predecessor.
                let preds = f
                    .block_order()
                    .iter()
                    .filter(|&&p| f.successors(p).contains(&b))
                    .count();
                if preds != 1 {
                    continue;
                }
                let mut cand = self.best.clone();
                let cf = cand.func_mut(fid);
                let a_term = cf.terminator_id(a).expect("a has a terminator");
                cf.remove_inst(a_term);
                let moved: Vec<InstId> = cf.block(b).insts.clone();
                for id in moved {
                    cf.move_inst_to_block_end(id, a); // includes b's terminator
                }
                cf.set_terminator(b, Terminator::Unreachable);
                // Successor phis that named `b` as a predecessor now flow
                // in from `a`.
                for succ in cf.successors(a) {
                    for phi in cf.phis(succ) {
                        if let Inst::Phi { incomings, .. } = cf.inst_mut(phi) {
                            for (pred, _) in incomings.iter_mut() {
                                if *pred == b {
                                    *pred = a;
                                }
                            }
                        }
                    }
                }
                if self.try_accept(cand) {
                    accepted += 1;
                }
            }
        }
        accepted
    }

    /// shrink-const: replace each integer constant operand by 0, 1, or
    /// half its value (first improvement wins per operand).
    fn pass_shrink_consts(&mut self) -> usize {
        let mut accepted = 0;
        for fid in self.defined_funcs() {
            for id in self.best.func(fid).inst_ids() {
                let f = self.best.func(fid);
                if f.position_in_block(id).is_none() {
                    continue;
                }
                let ops = operand_list(f.inst(id));
                for (k, op) in ops.iter().enumerate() {
                    let (v, w) = match op {
                        Value::Const(Constant::Int(v, w)) if v.unsigned_abs() > 1 => (*v, *w),
                        _ => continue,
                    };
                    for repl in [0, 1, v / 2] {
                        if repl == v {
                            continue;
                        }
                        let mut cand = self.best.clone();
                        let mut seen = 0usize;
                        cand.func_mut(fid).inst_mut(id).map_operands(|o| {
                            let hit = seen == k;
                            seen += 1;
                            if hit {
                                Value::Const(Constant::Int(repl, w))
                            } else {
                                o
                            }
                        });
                        if self.try_accept(cand) {
                            accepted += 1;
                            break;
                        }
                    }
                }
            }
        }
        accepted
    }
}

/// Shrink `m` while `still_fails` holds, bounded by `max_rounds` rounds.
///
/// Deterministic: the same input module and predicate always produce the
/// same reduced module (candidates are proposed in instruction-id order
/// and accepted greedily).
pub fn reduce(
    m: &Module,
    still_fails: &dyn Fn(&Module) -> bool,
    max_rounds: usize,
) -> (Module, ReduceStats) {
    let mut r = Reducer {
        best_metric: metric(m),
        best: m.clone(),
        still_fails,
        stats: ReduceStats {
            insts_before: m.total_insts(),
            ..ReduceStats::default()
        },
    };
    for _ in 0..max_rounds.max(1) {
        r.stats.rounds += 1;
        let mut accepted = 0;
        accepted += r.pass_drop_insts();
        accepted += r.pass_flatten_branches();
        accepted += r.pass_prune_unreachable();
        accepted += r.pass_merge_blocks();
        accepted += r.pass_shrink_consts();
        if accepted == 0 {
            break; // fixpoint
        }
    }
    r.stats.insts_after = r.best.total_insts();
    (r.best, r.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use crate::oracle::{check_module, fails_like, FuzzTool};
    use noelle_core::Noelle;
    use noelle_ir::parser::parse_module;
    use noelle_ir::printer::print_module;

    /// Small modules keep the O(candidates × re-checks) loop fast in
    /// debug-mode test runs.
    fn small_cfg() -> GenConfig {
        GenConfig {
            max_kernels: 1,
            size_budget: 60,
            min_n: 4,
            max_n: 10,
        }
    }

    /// A transform that miscompiles every module: main returns -12345.
    fn breaker() -> FuzzTool {
        FuzzTool::new("breaker", |n: &mut Noelle| {
            let fid = n.module().func_id_by_name("main").expect("main exists");
            n.edit(|tx| {
                let f = tx.func_mut(fid);
                for b in f.block_order().to_vec() {
                    if let Some(Terminator::Ret(Some(_))) = f.terminator(b) {
                        f.set_terminator(b, Terminator::Ret(Some(Value::const_i64(-12345))));
                    }
                }
            });
            Ok("broke main".into())
        })
    }

    #[test]
    fn reduction_terminates_and_shrinks_under_trivial_predicate() {
        let m = generate(7, &small_cfg());
        let before = m.total_insts();
        // "Still fails" as long as main exists: the reducer should strip
        // the module down hard and must terminate within the round bound.
        let pred = |c: &Module| c.func_by_name("main").is_some();
        let (red, stats) = reduce(&m, &pred, DEFAULT_MAX_ROUNDS);
        assert!(stats.rounds <= DEFAULT_MAX_ROUNDS);
        assert!(red.total_insts() < before, "reducer made no progress");
        assert_eq!(stats.insts_before, before);
        assert_eq!(stats.insts_after, red.total_insts());
        assert!(verify_module(&red).is_ok());
    }

    #[test]
    fn reduced_module_still_fails_the_original_oracle() {
        let m = generate(11, &small_cfg());
        // Mutated candidates can loop forever (e.g. a zeroed loop
        // increment); a small step budget rejects them quickly instead of
        // burning the full default interpreter budget per candidate.
        let max_steps = 200_000;
        let out = check_module(&m, &[breaker()], max_steps);
        let failures = match out {
            crate::oracle::Outcome::Fail { failures } => failures,
            other => panic!("breaker should fail, got {other:?}"),
        };
        let proto = failures[0].clone();
        let pred = |c: &Module| fails_like(c, &[breaker()], max_steps, &proto);
        assert!(pred(&m), "original must fail like itself");
        let (red, stats) = reduce(&m, &pred, DEFAULT_MAX_ROUNDS);
        assert!(pred(&red), "reduced module no longer fails the oracle");
        assert!(
            red.total_insts() <= m.total_insts(),
            "reduction must not grow the module"
        );
        assert!(stats.accepted > 0, "expected at least one accepted shrink");
    }

    #[test]
    fn reduction_is_deterministic() {
        let m = generate(23, &small_cfg());
        let pred = |c: &Module| c.func_by_name("main").is_some();
        let (a, sa) = reduce(&m, &pred, DEFAULT_MAX_ROUNDS);
        let (b, sb) = reduce(&m, &pred, DEFAULT_MAX_ROUNDS);
        assert_eq!(print_module(&a), print_module(&b));
        assert_eq!(sa, sb);
    }

    #[test]
    fn reduction_round_trips_through_the_printer() {
        // Reduced repros are persisted as text; they must re-parse and
        // re-verify so the corpus replays cleanly.
        let m = generate(31, &small_cfg());
        let pred = |c: &Module| c.func_by_name("main").is_some();
        let (red, _) = reduce(&m, &pred, 4);
        let text = print_module(&red);
        let back = parse_module(&text).expect("reduced module re-parses");
        assert!(verify_module(&back).is_ok());
        assert_eq!(print_module(&back), text);
    }
}
