//! The parallelization planner: NOELLE's composed production optimizer.
//!
//! The auditor (`noelle-lint::run_audit`) answers *which* techniques are
//! legal per loop; the planner answers *which one to run, on how many
//! cores*. For every loop with at least one clean verdict it predicts, in
//! the simulated machine's own cycles, what each technique's recipe costs
//! at every worker count in its budget: the architecture abstraction says
//! what an instruction, a spawn, a join, a queue operation and a signal
//! cost (the same functions the machine charges through), the recipe and
//! the loop abstraction say what code the transform writes, and the
//! profiles or the call sites say how often the loop iterates. It then
//! picks the best candidate per loop subject to nesting conflicts and
//! emits a deterministic, explainable report. Each winner carries the
//! judgment it was priced on, and [`apply_plan`] emits exactly that.
//!
//! The report has one writer: [`LoopPlan::write_json`] writes a loop's row
//! and [`ModulePlan::json_text`] the whole report straight into one
//! `String`, members in key order, spelled as compact output spells them.
//! [`ModulePlan::to_json`] parses that text, so the document's compact
//! output is the text itself, copied; the IDE writes its hint rows with the
//! same writer, less `weight`. Nothing builds a report tree.

use noelle_analysis::scev::{affine_recurrences, trip_count_given};
use noelle_core::architecture::{bin_cost, static_cost, Architecture};
use noelle_core::json::{self, Json};
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::{CallEdges, Noelle};
use noelle_core::profiler::Profiles;
use noelle_ir::inst::{BinOp, Callee, Inst};
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_ir::value::{Constant, Value};
use noelle_lint::audit::{LoopAudit, ModuleAudit, AUDIT_WORKERS};
use noelle_lint::run_audit;
use noelle_transforms::common::{
    emit, fixed_cost, gate, FixedCost, GateBuffers, Parallelizer, Recipe,
};
use noelle_transforms::dswp::StageSummary;
use noelle_transforms::helix::Segments;
use noelle_transforms::{ParallelReport, ParallelizeError};
use std::fmt::Write;
use std::sync::Arc;

/// Trip count assumed when neither the static analysis nor the profiles
/// know how often the loop iterates.
const DEFAULT_TRIP: f64 = 64.0;

/// Operations a loop bound may sit from the arguments it is computed from
/// and still be resolved through the call sites (`n - 1`, `2 * n + 1`).
const BOUND_DEPTH: u32 = 3;

/// Minimum predicted speedup for a loop to be planned at all: the margin
/// kept against what the prediction leaves out.
const MIN_SPEEDUP: f64 = 1.05;

/// Options controlling the planner.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// Worker budget per parallelized loop: each candidate takes the count
    /// within it that predicts the fewest cycles (cores for DOALL/HELIX,
    /// pipeline stages for DSWP). The planner caps it at the module's
    /// machine's cores: tasks that share a core would not run in parallel.
    pub workers: usize,
}

impl Default for PlanOptions {
    /// Every core of the default machine.
    fn default() -> PlanOptions {
        PlanOptions {
            workers: Architecture::DEFAULT_CORES,
        }
    }
}

/// One technique's entry in a loop's candidate table.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The technique.
    pub technique: Parallelizer,
    /// Did the audit mark this technique clean for the loop?
    pub clean: bool,
    /// Predicted loop-level speedup (sequential cycles / parallel cycles)
    /// at `workers`; 0 for blocked techniques.
    pub predicted_speedup: f64,
    /// Predicted cycles from the dispatch to the end of its join, per
    /// invocation, at `workers` — what the machine's `dispatch.cycles`
    /// counter measures; 0 for blocked techniques.
    pub predicted_cycles: f64,
    /// The worker count, within the budget, that predicts the fewest
    /// cycles (DSWP: the stage count).
    pub workers: usize,
    /// Explanation: the cost-model inputs behind the number, or the blocker
    /// behind the refusal.
    pub detail: String,
}

impl Candidate {
    /// A candidate with no prediction: blocked by the audit, or a pipeline
    /// the budget has no room for.
    fn unpriced(technique: Parallelizer, clean: bool, workers: usize, detail: String) -> Candidate {
        Candidate {
            technique,
            clean,
            predicted_speedup: 0.0,
            predicted_cycles: 0.0,
            workers,
            detail,
        }
    }
}

/// The planner's verdict for one loop.
#[derive(Clone, Debug)]
pub struct LoopPlan {
    /// Enclosing function name.
    pub function: String,
    /// Loop header block.
    pub header: BlockId,
    /// Loop header label.
    pub header_name: String,
    /// Share of whole-program work attributed to this loop: profiled
    /// hotness when profiles are embedded, static cost share otherwise.
    pub weight: f64,
    /// Estimated iterations per invocation.
    pub trip: f64,
    /// Estimated cycles of one iteration, inner loops at their trip counts.
    pub body_cost: u64,
    /// Per-technique candidate table (all three techniques, always).
    pub candidates: Vec<Candidate>,
    /// The winning technique, if any candidate cleared the bar and no
    /// nesting conflict vetoed it.
    pub chosen: Option<Parallelizer>,
    /// Why the winner won — or why nothing was planned.
    pub reason: String,
    /// What the winner was priced on; `None` exactly when nothing won.
    pub judgment: Option<Judgment>,
}

/// The judgment a chosen loop was priced on: the audit's loop abstraction
/// and the recipe of the chosen technique's verdict (DSWP: the one gated at
/// the chosen stage count), at the epoch the audit read them.
#[derive(Clone, Debug)]
pub struct Judgment {
    /// Owning function.
    pub fid: FuncId,
    /// The abstraction the audit issued its verdicts on.
    pub abstraction: Arc<LoopAbstraction>,
    /// The owning function's [`Noelle::epoch`] at audit time.
    pub epoch: u64,
    /// What the chosen technique's gate decided.
    pub recipe: Recipe,
}

impl Judgment {
    /// Emit the recipe on `workers` tasks in one edit of `n`: the planning
    /// manager while the epoch matches, or one over a copy of its module.
    pub fn emit(&self, n: &mut Noelle, workers: usize) -> Result<(), ParallelizeError> {
        let (fid, la) = (self.fid, &*self.abstraction);
        n.edit(|tx| emit(tx.module_touching([fid]), fid, la, &self.recipe, workers))
    }
}

impl LoopPlan {
    /// The winning candidate's entry.
    pub fn chosen_candidate(&self) -> Option<&Candidate> {
        let t = self.chosen?;
        self.candidates.iter().find(|c| c.technique == t)
    }

    /// Does the audit allow at least one technique on this loop?
    pub fn any_clean(&self) -> bool {
        self.candidates.iter().any(|c| c.clean)
    }

    /// Write this loop's row of the report — its candidate table, the
    /// winner and the reason — into `out` as compact JSON, members in key
    /// order. A row of [`ModulePlan::json_text`] carries `weight`; the IDE's
    /// hint rows leave it out (a weight is a share among the loops planned
    /// together, and the IDE plans a few functions at a time).
    pub fn write_json(&self, out: &mut String, with_weight: bool) {
        out.push_str("{\"body_cost\":");
        let _ = write!(out, "{}", self.body_cost as i64);
        out.push_str(",\"candidates\":[");
        for (k, c) in self.candidates.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(if c.clean {
                "{\"clean\":true,\"detail\":"
            } else {
                "{\"clean\":false,\"detail\":"
            });
            json::write_escaped(out, &c.detail);
            out.push_str(",\"predicted_speedup\":");
            json::write_float(out, round4(c.predicted_speedup));
            out.push_str(",\"technique\":");
            json::write_escaped(out, c.technique.as_str());
            let _ = write!(out, ",\"workers\":{}}}", c.workers as i64);
        }
        out.push_str("],\"chosen\":");
        match self.chosen {
            Some(t) => json::write_escaped(out, t.as_str()),
            None => out.push_str("null"),
        }
        out.push_str(",\"function\":");
        json::write_escaped(out, &self.function);
        out.push_str(",\"header\":");
        json::write_escaped(out, &self.header_name);
        out.push_str(",\"reason\":");
        json::write_escaped(out, &self.reason);
        out.push_str(",\"trip\":");
        json::write_float(out, round4(self.trip));
        if with_weight {
            out.push_str(",\"weight\":");
            json::write_float(out, round4(self.weight));
        }
        out.push('}');
    }

    /// Room for this loop's row: its strings, and beside them more than its
    /// keys and numbers take. A row that does not fit (a string with
    /// escapes, a huge number) only grows the buffer.
    fn row_capacity(&self) -> usize {
        let details: usize = self.candidates.iter().map(|c| c.detail.len()).sum();
        const PER_ROW: usize = 640;
        PER_ROW + self.function.len() + self.header_name.len() + self.reason.len() + details
    }
}

/// A whole-module parallelization plan.
#[derive(Clone, Debug)]
pub struct ModulePlan {
    /// Worker budget the plan was computed for: the asked budget, capped
    /// at the machine's cores.
    pub workers: usize,
    /// Were embedded profiles available to weigh the loops?
    pub profiled: bool,
    /// Per-loop verdicts, in audit order (function name, header index).
    pub loops: Vec<LoopPlan>,
}

impl ModulePlan {
    /// Number of loops with a chosen technique.
    pub fn planned(&self) -> usize {
        self.loops.iter().filter(|l| l.chosen.is_some()).count()
    }

    /// Amdahl-combined whole-program speedup prediction: each planned
    /// loop's weight shrinks by its predicted speedup, the rest stays.
    pub fn predicted_program_speedup(&self) -> f64 {
        let mut covered = 0.0;
        let mut scaled = 0.0;
        for l in &self.loops {
            if let Some(c) = l.chosen_candidate() {
                if c.predicted_speedup > 0.0 {
                    covered += l.weight;
                    scaled += l.weight / c.predicted_speedup;
                }
            }
        }
        let covered = covered.min(1.0);
        let rest = 1.0 - covered;
        if scaled + rest <= 0.0 {
            return 1.0;
        }
        1.0 / (scaled + rest)
    }

    /// The report (the golden / wire format) as a document: [`Json::parse`]
    /// of [`ModulePlan::json_text`], so its compact output is that text,
    /// copied.
    pub fn to_json(&self) -> Json {
        // The writer writes JSON: the round-trip test holds every workload's
        // report to that, byte for byte.
        Json::parse(&self.json_text()).unwrap_or(Json::Null)
    }

    /// The report as compact JSON, written in one pass into one buffer:
    /// `{"loops": [rows], "summary": {...}}`, members in key order, so it
    /// is byte for byte what compact output of the document writes.
    pub fn json_text(&self) -> String {
        let rows: usize = self.loops.iter().map(LoopPlan::row_capacity).sum();
        let mut out = String::with_capacity(rows + 256);
        out.push_str("{\"loops\":[");
        for (k, l) in self.loops.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            l.write_json(&mut out, true);
        }
        let _ = write!(
            out,
            "],\"summary\":{{\"loops\":{},\"planned\":{},\"predicted_speedup\":",
            self.loops.len() as i64,
            self.planned() as i64
        );
        json::write_float(&mut out, round4(self.predicted_program_speedup()));
        let _ = write!(
            out,
            ",\"profiled\":{},\"workers\":{}}}}}",
            self.profiled, self.workers as i64
        );
        out
    }

    /// Deterministic human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "parallelization plan: {} loop(s), {} planned, workers={}, \
             predicted program speedup {:.2}x{}\n",
            self.loops.len(),
            self.planned(),
            self.workers,
            self.predicted_program_speedup(),
            if self.profiled { "" } else { " (unprofiled)" },
        ));
        for l in &self.loops {
            out.push_str(&format!(
                "loop @{}:{} weight={:.3} trip={:.1} body={}\n",
                l.function, l.header_name, l.weight, l.trip, l.body_cost
            ));
            for c in &l.candidates {
                let marker = if Some(c.technique) == l.chosen {
                    "*"
                } else {
                    " "
                };
                if c.clean {
                    out.push_str(&format!(
                        " {marker} {:<5} {:>6.2}x w={} {}\n",
                        c.technique.as_str(),
                        c.predicted_speedup,
                        c.workers,
                        c.detail
                    ));
                } else {
                    out.push_str(&format!(
                        " {marker} {:<5} blocked: {}\n",
                        c.technique.as_str(),
                        c.detail
                    ));
                }
            }
            out.push_str(&format!("   -> {}\n", l.reason));
        }
        out
    }
}

fn round4(x: f64) -> f64 {
    (x * 10000.0).round() / 10000.0
}

/// Plan the whole module.
pub fn plan_module(n: &mut Noelle, opts: &PlanOptions) -> ModulePlan {
    let audit = run_audit(n);
    plan_from_audit(n, &audit, opts)
}

/// Plan against an already-computed audit (shares the feasibility matrix
/// and the loop abstractions instead of re-deriving them). The audit must
/// be `n`'s own, with no edit committed since: its abstractions name
/// instructions of the module as audited.
pub fn plan_from_audit(n: &mut Noelle, audit: &ModuleAudit, opts: &PlanOptions) -> ModulePlan {
    let arch = n.architecture();
    // The machine gives each task a core of its own only up to its cores.
    let budget = opts.workers.min(arch.num_cores);
    let profiles = n.profiles();
    let profiled = !profiles.block_counts.is_empty();
    let (m, calls) = (n.module(), n.direct_calls());

    // Pass 0: every loop's trip count, which prices the loops around it.
    let trips: Vec<f64> = audit
        .loops
        .iter()
        .map(|laud| trip_estimate(&profiles, profiled, m, calls, laud))
        .collect();

    // Pass 1: per-loop candidate tables, priced on the abstraction the
    // audit issued its verdicts on, and any wider DSWP recipe priced.
    let mut loops: Vec<LoopPlan> = Vec::with_capacity(audit.loops.len());
    let mut wider: Vec<Option<Recipe>> = Vec::with_capacity(audit.loops.len());
    let mut gates = GateBuffers::default();
    for (i, laud) in audit.loops.iter().enumerate() {
        debug_assert_eq!(n.epoch(laud.fid), laud.epoch, "audit predates an edit");
        let cost = LoopCost::of(m, audit, &trips, i);

        let mut priced_wider = None;
        let candidates = laud
            .verdicts
            .iter()
            .map(|v| match &v.outcome {
                Ok(recipe) => {
                    let (c, w) = price(
                        v.technique,
                        m,
                        laud,
                        recipe,
                        &arch,
                        budget,
                        &cost,
                        &mut gates,
                    );
                    priced_wider = w.or(priced_wider.take());
                    c
                }
                Err(refusal) => {
                    let why = v
                        .blockers
                        .first()
                        .map_or_else(|| refusal.to_string(), |b| b.kind.as_str().to_string());
                    Candidate::unpriced(v.technique, false, 0, why)
                }
            })
            .collect();

        loops.push(LoopPlan {
            function: laud.function.clone(),
            header: laud.header,
            header_name: laud.header_name.clone(),
            weight: if profiled {
                profiles.loop_hotness(m, laud.fid, laud.abstraction.structure())
            } else {
                0.0 // filled by the static-share pass below
            },
            trip: cost.trip,
            body_cost: cost.iter.round().max(1.0) as u64,
            candidates,
            chosen: None,
            reason: String::new(),
            judgment: None,
        });
        wider.push(priced_wider);
    }

    // Unprofiled modules: weigh loops by their static cost share so the
    // nesting arbitration and the program-speedup prediction stay defined.
    if !profiled {
        let total: f64 = loops.iter().map(|p| p.trip * p.body_cost as f64).sum();
        if total > 0.0 {
            for p in &mut loops {
                p.weight = (p.trip * p.body_cost as f64 / total).min(1.0);
            }
        }
    }

    // Pass 2: pick winners under nesting conflicts. Greedy by saved-time
    // benefit: a loop's plan excludes plans on any loop it contains or is
    // contained by (same function).
    let benefits: Vec<f64> = loops.iter().map(benefit).collect();
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..loops.len()).collect();
        idx.sort_by(|&a, &b| {
            benefits[b]
                .partial_cmp(&benefits[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| loops[a].function.cmp(&loops[b].function))
                .then_with(|| loops[a].header.0.cmp(&loops[b].header.0))
        });
        idx
    };
    let mut accepted: Vec<usize> = Vec::new();
    for i in order {
        let (p, laud) = (&loops[i], &audit.loops[i]);
        let Some(best) = best_candidate(p).filter(|c| c.predicted_speedup >= MIN_SPEEDUP) else {
            continue;
        };
        let (t, s, w) = (best.technique, best.predicted_speedup, best.workers);
        // Nesting conflict with an already-accepted loop of the same function?
        let l = laud.abstraction.structure();
        let conflict = accepted.iter().copied().find(|&j| {
            let (q, lj) = (&loops[j], audit.loops[j].abstraction.structure());
            audit.loops[j].fid == laud.fid
                && q.header != p.header
                && (lj.contains(p.header) || l.contains(q.header))
        });
        match conflict {
            Some(j) => {
                let q = &loops[j];
                let reason = format!(
                    "skipped: nesting conflict with planned @{}:{} ({} {:.2}x, benefit {:.4} vs {:.4})",
                    q.function,
                    q.header_name,
                    q.chosen.map(|t| t.as_str()).unwrap_or("?"),
                    q.chosen_candidate().map(|c| c.predicted_speedup).unwrap_or(0.0),
                    benefits[j],
                    benefits[i],
                );
                loops[i].reason = reason;
            }
            None => {
                let runners: Vec<String> = p
                    .candidates
                    .iter()
                    .filter(|c| c.clean && c.technique != t)
                    .map(|c| format!("{} {:.2}x", c.technique.as_str(), c.predicted_speedup))
                    .collect();
                let recipe = (wider[i].take().filter(|_| t == Parallelizer::Dswp))
                    .or_else(|| laud.verdict(t).outcome.clone().ok())
                    .expect("a chosen technique is clean");
                loops[i].judgment = Some(Judgment {
                    fid: laud.fid,
                    abstraction: Arc::clone(&laud.abstraction),
                    epoch: laud.epoch,
                    recipe,
                });
                loops[i].chosen = Some(t);
                loops[i].reason = if runners.is_empty() {
                    format!(
                        "{} wins on {w} workers: only clean candidate, predicted {s:.2}x",
                        t.as_str()
                    )
                } else {
                    format!(
                        "{} wins on {w} workers: predicted {s:.2}x vs {}",
                        t.as_str(),
                        runners.join(", ")
                    )
                };
                accepted.push(i);
            }
        }
    }
    for p in &mut loops {
        if p.reason.is_empty() {
            p.reason = match best_candidate(p) {
                None => "no clean technique".to_string(),
                Some(c) => format!(
                    "unplanned: best candidate {} predicts {:.2}x at its best worker count, {}, \
                     below the {MIN_SPEEDUP:.2}x bar",
                    c.technique.as_str(),
                    c.predicted_speedup,
                    c.workers
                ),
            };
        }
    }

    ModulePlan {
        workers: budget,
        profiled,
        loops,
    }
}

/// Saved-time benefit of a loop's best candidate: weight × (1 − 1/speedup).
fn benefit(p: &LoopPlan) -> f64 {
    match best_candidate(p) {
        Some(c) if c.predicted_speedup > 1.0 => p.weight * (1.0 - 1.0 / c.predicted_speedup),
        _ => 0.0,
    }
}

/// Best clean candidate by predicted speedup; ties break in report
/// order (DOALL before HELIX before DSWP — cheaper runtime machinery wins).
fn best_candidate(p: &LoopPlan) -> Option<&Candidate> {
    let mut best: Option<&Candidate> = None;
    for c in &p.candidates {
        if !c.clean || c.predicted_speedup <= 0.0 {
            continue;
        }
        if best.is_none_or(|b| c.predicted_speedup > b.predicted_speedup) {
            best = Some(c);
        }
    }
    best
}

/// How often the loop iterates per invocation: what the profile measured,
/// else what the function says, else what its callers say — a bound
/// computed from arguments every direct call site passes the same literal
/// ([`known_value`]) — else [`DEFAULT_TRIP`].
fn trip_estimate(
    profiles: &Profiles,
    profiled: bool,
    m: &Module,
    calls: &CallEdges,
    laud: &LoopAudit,
) -> f64 {
    let (fid, la) = (laud.fid, &*laud.abstraction);
    if profiled {
        let t = profiles.loop_avg_iterations(m, fid, la.structure());
        if t > 0.0 {
            return t;
        }
    }
    let from_callers = || {
        let bound = known_value(m, calls, fid, la.ivs.governing()?.bound?, BOUND_DEPTH)?;
        let (f, l) = (m.func(fid), la.structure());
        trip_count_given(f, l, &affine_recurrences(f, l), Some(bound))
    };
    match la.trip_count.or_else(from_callers) {
        Some(t) if t > 0 => t as f64,
        _ => DEFAULT_TRIP,
    }
}

/// The integer `v` always holds in `fid`, when that can be read off the
/// call sites: a literal, an argument every direct call of `fid` passes the
/// same literal, or a sum, difference or product of such, `depth`
/// operations deep. One call-graph hop and no further: the IDE re-plans an
/// edited function's direct callers and callees, and a row must not depend
/// on anything beyond them.
fn known_value(m: &Module, calls: &CallEdges, fid: FuncId, v: Value, depth: u32) -> Option<i64> {
    match v {
        Value::Const(Constant::Int(c, _)) => Some(c),
        Value::Arg(arg) => {
            let mut agreed = None;
            for caller in calls.callers_of(fid) {
                let f = m.func(caller);
                for &i in f.block_order().iter().flat_map(|&b| &f.block(b).insts) {
                    match f.inst(i) {
                        Inst::Call {
                            callee: Callee::Direct(c),
                            args,
                            ..
                        } if *c == fid => {
                            let Some(Value::Const(Constant::Int(c, _))) = args.get(arg as usize)
                            else {
                                return None;
                            };
                            if agreed.is_some_and(|a| a != *c) {
                                return None;
                            }
                            agreed = Some(*c);
                        }
                        _ => {}
                    }
                }
            }
            agreed
        }
        Value::Inst(i) if depth > 0 => {
            let Inst::Bin { op, lhs, rhs, .. } = m.func(fid).inst(i) else {
                return None;
            };
            let fold: fn(i64, i64) -> i64 = match op {
                BinOp::Add => i64::wrapping_add,
                BinOp::Sub => i64::wrapping_sub,
                BinOp::Mul => i64::wrapping_mul,
                _ => return None,
            };
            Some(fold(
                known_value(m, calls, fid, *lhs, depth - 1)?,
                known_value(m, calls, fid, *rhs, depth - 1)?,
            ))
        }
        _ => None,
    }
}

/// What one invocation of a loop costs run sequentially, in the machine's
/// cycles: `trip` iterations of `iter` cycles and the final, failing test.
struct LoopCost {
    trip: f64,
    /// One pass over the loop's instructions at [`static_cost`], an inner
    /// loop's blocks counted once per iteration of it.
    iter: f64,
    /// The header's instructions when the loop tests at the top (exits
    /// from a header that is no latch): they run once more than the body.
    tail: u64,
}

impl LoopCost {
    /// Price loop `i` of the audit; `trips` holds every audited loop's trip.
    fn of(m: &Module, audit: &ModuleAudit, trips: &[f64], i: usize) -> LoopCost {
        let laud = &audit.loops[i];
        let (f, l) = (m.func(laud.fid), laud.abstraction.structure());
        // The loops nested in this one sit beside it: the audit lists a
        // function's loops together.
        let elsewhere = |o: &LoopAudit| o.fid != laud.fid;
        let lo = audit.loops[..i]
            .iter()
            .rposition(elsewhere)
            .map_or(0, |j| j + 1);
        let hi = audit.loops[i..]
            .iter()
            .position(elsewhere)
            .map_or(audit.loops.len(), |j| i + j);
        let block_cost = |b: BlockId| -> u64 {
            f.block(b)
                .insts
                .iter()
                .map(|&id| static_cost(m, f.inst(id)))
                .sum()
        };
        let iter = l
            .blocks
            .iter()
            .map(|&b| {
                let runs: f64 = (lo..hi)
                    .filter(|&j| j != i)
                    .map(|j| (audit.loops[j].abstraction.structure(), trips[j]))
                    .filter(|(inner, _)| l.contains(inner.header) && inner.contains(b))
                    .map(|(_, trip)| trip)
                    .product();
                runs * block_cost(b) as f64
            })
            .sum();
        let tests_at_top = !l.latches.contains(&l.header)
            && l.exit_edges.iter().any(|&(from, _)| from == l.header);
        LoopCost {
            trip: trips[i],
            iter,
            tail: if tests_at_top {
                block_cost(l.header)
            } else {
                0
            },
        }
    }

    fn sequential(&self) -> f64 {
        self.trip * self.iter + self.tail as f64
    }
}

/// A recipe's predicted cost at one worker count.
struct Price {
    /// Cycles from the dispatch to the end of its join.
    span: f64,
    /// `span` plus the parent's fixed code: what replaces the loop.
    total: f64,
    workers: usize,
    /// The pipeline the span was read off, when the recipe is DSWP's.
    stages: Option<StageSummary>,
}

/// Predict what `recipe`, whose fixed code costs `fixed`, costs on `w`
/// tasks (DSWP: on its own stages).
fn predict(
    m: &Module,
    laud: &LoopAudit,
    arch: &Architecture,
    cost: &LoopCost,
    recipe: &Recipe,
    fixed: FixedCost,
    w: usize,
) -> Price {
    let stages = match recipe {
        Recipe::Dswp(plan) => Some(plan.summary(m, laud.fid, &laud.abstraction)),
        _ => None,
    };
    let (span, workers) = match (recipe, &stages) {
        (_, Some(ss)) => (dswp_span(arch, cost, fixed.task, ss), ss.n_stages),
        (Recipe::Helix(s), _) if !s.groups.is_empty() => {
            (helix_span(arch, cost, fixed.task, s, w), w)
        }
        _ => (distributed_span(arch, cost, fixed.task, 0.0, w), w),
    };
    Price {
        span,
        total: fixed.parent_for(workers) as f64 + span,
        workers,
        stages,
    }
}

/// Price the recipe the audit's verdict for `t` carries — the one the
/// transform would execute — at the worker count in `1..=budget` that
/// predicts the fewest cycles; the fewer workers on a tie. DSWP's recipe is
/// the one that depends on the count: the audit's has [`AUDIT_WORKERS`]
/// stages, and each larger count within the budget is gated here. When a
/// wider pipeline wins, its recipe is returned beside the candidate.
#[allow(clippy::too_many_arguments)]
fn price(
    t: Parallelizer,
    m: &Module,
    laud: &LoopAudit,
    recipe: &Recipe,
    arch: &Architecture,
    budget: usize,
    cost: &LoopCost,
    gates: &mut GateBuffers,
) -> (Candidate, Option<Recipe>) {
    let (fid, la) = (laud.fid, &*laud.abstraction);
    let at = |recipe: &Recipe, fixed: FixedCost, w: usize| {
        predict(m, laud, arch, cost, recipe, fixed, w)
    };
    let mut priced_wider = None;
    let p = if let Recipe::Dswp(_) = recipe {
        if budget < AUDIT_WORKERS {
            let why = format!("a pipeline needs {AUDIT_WORKERS} workers");
            return (Candidate::unpriced(t, true, budget, why), None);
        }
        let mut best = at(recipe, fixed_cost(la, recipe), AUDIT_WORKERS);
        for want in AUDIT_WORKERS + 1..=budget {
            match gate(t, m, fid, la, arch, want, gates) {
                // Fewer SCCs than wanted: the partition already priced.
                Ok(Recipe::Dswp(stages)) if stages.n_stages < want => break,
                Ok(wider) => {
                    let p = at(&wider, fixed_cost(la, &wider), want);
                    if p.total < best.total {
                        (best, priced_wider) = (p, Some(wider));
                    }
                }
                // A count the gate refuses is not a candidate; the next may be.
                Err(_) => {}
            }
        }
        best
    } else {
        // One recipe, priced at each count until one whose last spawn alone
        // costs as much as the cheapest so far: every count past it spawns
        // later still, so none of them can be cheaper.
        let fixed = fixed_cost(la, recipe);
        let mut best = at(recipe, fixed, 1);
        for w in 2..=budget {
            let floor = fixed.parent_for(w) + arch.spawn_clock(w - 1) + fixed.task + cost.tail;
            if floor as f64 >= best.total {
                break;
            }
            let p = at(recipe, fixed, w);
            if p.total < best.total {
                best = p;
            }
        }
        best
    };
    let seq = cost.sequential();
    // One buffer, written twice: the sequential side, then the recipe's.
    // Whole cycles, as integers: they format several times faster.
    let whole = |x: f64| x.round() as u64;
    let mut detail = String::with_capacity(160);
    let _ = write!(
        detail,
        "{} iterations x {} cycles = {} sequential; {} on ",
        whole(cost.trip),
        whole(cost.iter),
        whole(seq),
        whole(p.total)
    );
    let _ = match (recipe, &p.stages) {
        (_, Some(ss)) => {
            let balance: Vec<String> = (0..ss.n_stages)
                .map(|s| stage_period(arch, ss, s).to_string())
                .collect();
            write!(
                detail,
                "{} stages [{}] cycles/iter, {} value queue(s)",
                ss.n_stages,
                balance.join(" "),
                ss.value_queues
            )
        }
        (Recipe::Helix(s), _) if !s.groups.is_empty() => write!(
            detail,
            "{} cores, {} cycles/iter in sequential segments",
            p.workers, s.cost
        ),
        _ => write!(
            detail,
            "{} cores, the last spawned at {}",
            p.workers,
            arch.spawn_clock(p.workers - 1)
        ),
    };
    let candidate = Candidate {
        technique: t,
        clean: true,
        predicted_speedup: if p.total > 0.0 { seq / p.total } else { 1.0 },
        predicted_cycles: p.span,
        workers: p.workers,
        detail,
    };
    (candidate, priced_wider)
}

/// Cycles from the dispatch to the end of its join when `w` tasks split the
/// iterations cyclically (DOALL; HELIX's parallel part): task `t` starts at
/// its spawn clock, runs its frame, its share of the iterations — each
/// `extra` cycles dearer than the loop's own — and the final test, and the
/// parent (on core 0, where `main` runs) sees the last of them after the
/// join latency.
fn distributed_span(arch: &Architecture, cost: &LoopCost, frame: u64, extra: f64, w: usize) -> f64 {
    (0..w)
        .map(|t| {
            let share = ((cost.trip - t as f64) / w as f64).ceil().max(0.0);
            let work = frame + cost.tail + arch.core_latency(arch.task_core(t), 0);
            arch.spawn_clock(t) as f64 + share * (cost.iter + extra) + work as f64
        })
        .fold(0.0, f64::max)
}

/// HELIX: the iterations split as DOALL's do, each paying its brackets, and
/// the sequential segments of successive iterations chain through a signal
/// and — across cores — its latency.
fn helix_span(arch: &Architecture, cost: &LoopCost, frame: u64, s: &Segments, w: usize) -> f64 {
    // A wait and a signal per segment, and the iteration counter's add.
    let brackets = 2 * s.groups.len() as u64 * arch.signal_cycles() + bin_cost(BinOp::Add);
    let parallel = distributed_span(arch, cost, frame, brackets as f64, w);
    let hop = arch.core_latency(arch.task_core(0), arch.task_core(w - 1));
    let link = s.cost + arch.signal_cycles() + hop;
    let chain = (arch.spawn_clock(0) + frame) as f64 + cost.trip * link as f64 + hop as f64;
    parallel.max(chain)
}

/// Cycles stage `s` of a pipeline spends per iteration: its instructions
/// and its queue operations.
fn stage_period(arch: &Architecture, ss: &StageSummary, s: usize) -> u64 {
    ss.stage_costs[s] + ss.queue_ops[s] * arch.queue_op_cycles()
}

/// DSWP: every stage runs every iteration, so the pipeline moves at its
/// slowest stage's pace once the last stage has been spawned; what the
/// stages behind the slowest still hold then drains one hop at a time.
fn dswp_span(arch: &Architecture, cost: &LoopCost, frame: u64, ss: &StageSummary) -> f64 {
    let last = ss.n_stages - 1;
    (0..=last)
        .map(|s| {
            let drain = (last - s) as u64 * arch.max_latency();
            let work = frame + cost.tail + drain + arch.core_latency(arch.task_core(last), 0);
            arch.spawn_clock(s) as f64 + cost.trip * stage_period(arch, ss, s) as f64 + work as f64
        })
        .fold(0.0, f64::max)
}

/// Execute the plan in order: a chosen loop emits the recipe its
/// [`Judgment`] carries while `n` reports the epoch it was judged at. Where
/// the epoch moved (an earlier emit damaged the function, an edit landed
/// since, or `n` did not plan), the chosen technique's [`gate`] judges the
/// loop again as it stands, and a refusal is reported as skipped.
pub fn apply_plan(n: &mut Noelle, plan: &ModulePlan) -> ParallelReport {
    let mut report = ParallelReport::default();
    let mut gates = GateBuffers::default();
    for l in &plan.loops {
        let (Some(c), Some(judged)) = (l.chosen_candidate(), &l.judgment) else {
            continue;
        };
        for &a in c.technique.abstractions() {
            n.note(a);
        }
        let (fid, workers) = (judged.fid, c.workers);
        let outcome = if n.epoch(fid) == judged.epoch {
            judged.emit(n, workers)
        } else {
            // A loop the edits since have removed is not attempted.
            let forest = n.loop_forest(fid);
            let Some(lp) = forest.loops().iter().find(|lp| lp.header == l.header) else {
                continue;
            };
            let la = n.loop_abstraction(fid, lp.id);
            // Read through `Noelle::machine`, as `parallelize` reads it.
            let arch = n.machine();
            let gated = gate(
                c.technique,
                n.module(),
                fid,
                &la,
                &arch,
                workers,
                &mut gates,
            );
            gated.and_then(|recipe| {
                n.edit(|tx| emit(tx.module_touching([fid]), fid, &la, &recipe, workers))
            })
        };
        match outcome {
            Ok(()) => report.parallelized.push((l.function.clone(), l.header)),
            Err(e) => report
                .skipped
                .push((l.function.clone(), l.header, e.to_string())),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_runtime::{run_module, RunConfig};

    fn noelle_for(name: &str) -> Noelle {
        let w = noelle_workloads::by_name(name).expect("workload exists");
        Noelle::new(w.build(), AliasTier::Full)
    }

    /// Predicted and simulated cycles from dispatch to join, and the whole
    /// run's simulated cycles, of `t` on `@kernel`'s loop at exactly `w`
    /// workers.
    fn at_workers(src: &str, t: Parallelizer, w: usize) -> (f64, u64, u64) {
        let m = noelle_ir::parser::parse_module(src).expect("parses");
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        let audit = run_audit(&mut n);
        let arch = n.architecture();
        let (m, calls) = (n.module(), n.direct_calls());
        let trips: Vec<f64> = audit
            .loops
            .iter()
            .map(|l| trip_estimate(&Profiles::default(), false, m, calls, l))
            .collect();
        let i = audit
            .loops
            .iter()
            .position(|l| l.function == "kernel")
            .expect("@kernel has a loop");
        let laud = &audit.loops[i];
        let cost = LoopCost::of(m, &audit, &trips, i);
        let recipe = laud.verdict(t).outcome.as_ref().expect("clean");
        let fixed = fixed_cost(&laud.abstraction, recipe);
        let predicted = predict(m, laud, &arch, &cost, recipe, fixed, w);
        assert_eq!(predicted.workers, w);

        let mut alone = Noelle::new(m.clone(), AliasTier::Full);
        alone
            .edit(|tx| {
                emit(
                    tx.module_touching([laud.fid]),
                    laud.fid,
                    &laud.abstraction,
                    recipe,
                    w,
                )
            })
            .expect("a clean verdict emits");
        let par = run_module(&alone.into_module(), "main", &[], &RunConfig::default()).unwrap();
        (predicted.span, par.counters["dispatch.cycles"], par.cycles)
    }

    const DOALL_ONE_LOOP: &str = r#"
module "one" {
declare i64* @malloc(i64 %n)
define i64 @kernel(i64* %a, f64 %scale) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi f64 [entry: f64 0.0] [body: %s2]
  %c = icmp slt i64 %i, i64 75
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %x = mul i64 %v, i64 3
  %y = div i64 %x, i64 7
  store i64 %y, %p
  %f = sitofp i64 %y to f64
  %g = fmul f64 %f, %scale
  %s2 = fadd f64 %s, %g
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = fptosi f64 %s to i64
  ret %r
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 2048)
  %s = call i64 @kernel(%buf, f64 1.5)
  ret %s
}
}
"#;

    #[test]
    fn doall_predictions_are_the_machines_cycles_and_pick_its_best_count() {
        let mut totals = Vec::new();
        for w in 1..=4 {
            let (predicted, simulated, total) = at_workers(DOALL_ONE_LOOP, Parallelizer::Doall, w);
            let off = (predicted - simulated as f64).abs() / simulated as f64;
            assert!(
                off <= 0.05,
                "w={w}: predicted {predicted:.0}, simulated {simulated}"
            );
            totals.push(total);
        }
        let fastest = 1 + (0..4).min_by_key(|&w| totals[w]).unwrap();
        assert_eq!(
            fastest, 3,
            "the loop is sized to prefer fewer than the budget"
        );
        let m = noelle_ir::parser::parse_module(DOALL_ONE_LOOP).unwrap();
        let plan = plan_module(
            &mut Noelle::new(m, AliasTier::Full),
            &PlanOptions::default(),
        );
        let kernel = plan.loops.iter().find(|l| l.function == "kernel").unwrap();
        assert_eq!(
            kernel.chosen,
            Some(Parallelizer::Doall),
            "{}",
            kernel.reason
        );
        assert_eq!(
            kernel.chosen_candidate().unwrap().workers,
            fastest,
            "simulated totals at 1..=4 workers: {totals:?}"
        );
    }

    /// A pipeline needs two workers. `raytrace`'s `@kernel1` is the suite's
    /// one DSWP-clean loop: under a smaller budget its DSWP candidate is
    /// clean and unpriced and nothing is chosen (one DOALL or HELIX task
    /// only adds its dispatch to the loop); with two, the audit's two
    /// stages are priced.
    #[test]
    fn a_budget_below_two_prices_no_pipeline() {
        let dswp_at = |workers: usize| {
            let plan = plan_module(&mut noelle_for("raytrace"), &PlanOptions { workers });
            let kernel = plan.loops.iter().find(|l| l.function == "kernel1").unwrap();
            let dswp = kernel.candidates[2].clone();
            assert_eq!(dswp.technique, Parallelizer::Dswp);
            assert!(dswp.clean, "{dswp:?}");
            (kernel.chosen, dswp)
        };
        for workers in [0, 1] {
            let (chosen, dswp) = dswp_at(workers);
            assert_eq!(chosen, None, "budget {workers}");
            assert_eq!(dswp.predicted_speedup, 0.0);
            assert_eq!(dswp.detail, "a pipeline needs 2 workers");
        }
        let (_, dswp) = dswp_at(2);
        assert_eq!(dswp.workers, 2);
        assert!(
            dswp.detail
                .ends_with("on 2 stages [372 365] cycles/iter, 2 value queue(s)"),
            "{}",
            dswp.detail
        );
    }

    #[test]
    fn plan_is_deterministic_and_explains_winners() {
        let render = || {
            let mut n = noelle_for("blackscholes");
            plan_module(&mut n, &PlanOptions::default())
                .to_json()
                .to_string_pretty()
        };
        let a = render();
        assert_eq!(a, render(), "plan JSON must be byte-identical");
        let mut n = noelle_for("blackscholes");
        let plan = plan_module(&mut n, &PlanOptions::default());
        assert!(plan.planned() >= 1, "{}", plan.render_text());
        for l in &plan.loops {
            assert!(!l.reason.is_empty(), "every loop carries a reason");
            assert_eq!(l.candidates.len(), 3, "all techniques tabled");
        }
    }

    #[test]
    fn applied_plan_preserves_semantics_and_speeds_up() {
        let w = noelle_workloads::by_name("blackscholes").expect("exists");
        let m = w.build();
        let seq = run_module(&m, "main", &[], &RunConfig::default()).expect("runs");
        let mut n = Noelle::new(m, AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        let report = apply_plan(&mut n, &plan);
        assert_eq!(report.count(), plan.planned(), "{report:?}");
        let m2 = n.into_module();
        noelle_ir::verifier::verify_module(&m2).expect("planned module verifies");
        let par = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
        assert_eq!(par.ret_i64(), seq.ret_i64(), "semantics preserved");
        assert!(
            par.cycles < seq.cycles,
            "planned module must be faster: {} vs {}",
            par.cycles,
            seq.cycles
        );
    }

    #[test]
    fn profiles_sharpen_the_plan() {
        let w = noelle_workloads::by_name("swaptions").expect("exists");
        let mut m = w.build();
        let cfg = RunConfig {
            collect_profiles: true,
            ..RunConfig::default()
        };
        let r = run_module(&m, "main", &[], &cfg).expect("runs");
        r.profiles.embed(&mut m);
        let mut n = Noelle::new(m, AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        assert!(plan.profiled);
        assert!(
            plan.loops.iter().any(|l| l.weight > 0.0),
            "profiled weights populate"
        );
    }

    #[test]
    fn nested_plans_do_not_overlap() {
        for name in ["blackscholes", "ferret", "swaptions", "dedup"] {
            let mut n = noelle_for(name);
            let plan = plan_module(&mut n, &PlanOptions::default());
            let chosen: Vec<&LoopPlan> = plan.loops.iter().filter(|l| l.chosen.is_some()).collect();
            for a in &chosen {
                for b in &chosen {
                    if a.function == b.function && a.header != b.header {
                        // Re-derive containment from scratch.
                        let fid = n.module().func_id_by_name(&a.function).unwrap();
                        let forest = n.loop_forest(fid);
                        let la = forest
                            .loops()
                            .iter()
                            .find(|l| l.header == a.header)
                            .unwrap();
                        assert!(
                            !la.contains(b.header),
                            "{name}: planned loops nest: @{}:{} contains @{}:{}",
                            a.function,
                            a.header_name,
                            b.function,
                            b.header_name
                        );
                    }
                }
            }
        }
    }
}
