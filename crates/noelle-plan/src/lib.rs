//! The parallelization planner: NOELLE's composed production optimizer.
//!
//! The auditor (`noelle-lint::run_audit`) answers *which* techniques are
//! legal per loop; the planner answers *which one to run*. For every loop
//! with at least one clean verdict it predicts each technique's speedup
//! from the architecture model (dispatch overhead, queue costs, inter-core
//! latency), the embedded profiles (hotness, average trip counts), and the
//! SCCDAG structure (DOALL chunking, HELIX sequential-segment serial
//! fraction, DSWP stage balance and queue traffic — including nested
//! DOALL-inside-DSWP hybrid estimates). It then picks the best candidate
//! per loop subject to nesting conflicts and emits a deterministic,
//! explainable report; [`apply_plan`] executes the winners through the
//! unified [`LoopTargetOpts`] transform surface.

use noelle_core::architecture::Architecture;
use noelle_core::audit::{ModuleAudit, Technique};
use noelle_core::json::Json;
use noelle_core::noelle::Noelle;
use noelle_core::profiler::Profiles;
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::{BlockId, FuncId};
use noelle_lint::run_audit;
use noelle_transforms::common::{approx_inst_cost, gate, parallelize, LoopTargetOpts, Recipe};
use noelle_transforms::dswp::StageSummary;
use noelle_transforms::ParallelReport;

/// Trip count assumed when neither the static analysis nor the profiles
/// know how often the loop iterates.
const DEFAULT_TRIP: f64 = 64.0;

/// Minimum predicted speedup for a loop to be planned at all; below this
/// the dispatch overhead is not worth paying.
const MIN_SPEEDUP: f64 = 1.05;

/// Options controlling the planner.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// Worker budget per parallelized loop (cores for DOALL/HELIX; DSWP
    /// uses up to four pipeline stages out of this budget).
    pub workers: usize,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions { workers: 4 }
    }
}

/// Predicted outcome of a nested DOALL inside a DSWP stage.
#[derive(Clone, Debug)]
pub struct HybridNote {
    /// `function:header` of the inner DOALL-clean loop.
    pub inner: String,
    /// Predicted speedup of the combined DSWP + inner-DOALL pipeline.
    pub predicted_speedup: f64,
}

/// One technique's entry in a loop's candidate table.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The technique.
    pub technique: Technique,
    /// Did the audit mark this technique clean for the loop?
    pub clean: bool,
    /// Predicted loop-level speedup (sequential cycles / parallel cycles);
    /// 0 for blocked techniques.
    pub predicted_speedup: f64,
    /// Workers the prediction assumed (DSWP reports its actual stage count).
    pub workers: usize,
    /// Explanation: the cost-model inputs behind the number, or the blocker
    /// behind the refusal.
    pub detail: String,
    /// Nested DOALL-inside-DSWP estimate, when the loop is a DSWP candidate
    /// containing a DOALL-clean inner loop.
    pub hybrid: Option<HybridNote>,
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
    /// Estimated per-iteration body cost in cycles.
    pub body_cost: u64,
    /// Per-technique candidate table (all three techniques, always).
    pub candidates: Vec<Candidate>,
    /// The winning technique, if any candidate cleared the bar and no
    /// nesting conflict vetoed it.
    pub chosen: Option<Technique>,
    /// Why the winner won — or why nothing was planned.
    pub reason: String,
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

    /// Deterministic JSON rendering of one loop's candidate table (the
    /// per-loop row of [`ModulePlan::to_json`]; the IDE's hint rows are
    /// this without `weight`).
    pub fn to_json(&self) -> Json {
        let candidates = self
            .candidates
            .iter()
            .map(|c| {
                let mut pairs = vec![
                    (
                        "technique".to_string(),
                        Json::Str(c.technique.as_str().to_string()),
                    ),
                    ("clean".to_string(), Json::Bool(c.clean)),
                    (
                        "predicted_speedup".to_string(),
                        Json::Float(round4(c.predicted_speedup)),
                    ),
                    ("workers".to_string(), Json::Int(c.workers as i64)),
                    ("detail".to_string(), Json::Str(c.detail.clone())),
                ];
                if let Some(h) = &c.hybrid {
                    pairs.push((
                        "hybrid".to_string(),
                        Json::object([
                            ("inner".to_string(), Json::Str(h.inner.clone())),
                            (
                                "predicted_speedup".to_string(),
                                Json::Float(round4(h.predicted_speedup)),
                            ),
                        ]),
                    ));
                }
                Json::object(pairs)
            })
            .collect();
        Json::object([
            ("function".to_string(), Json::Str(self.function.clone())),
            ("header".to_string(), Json::Str(self.header_name.clone())),
            ("weight".to_string(), Json::Float(round4(self.weight))),
            ("trip".to_string(), Json::Float(round4(self.trip))),
            ("body_cost".to_string(), Json::Int(self.body_cost as i64)),
            ("candidates".to_string(), Json::Array(candidates)),
            (
                "chosen".to_string(),
                match self.chosen {
                    Some(t) => Json::Str(t.as_str().to_string()),
                    None => Json::Null,
                },
            ),
            ("reason".to_string(), Json::Str(self.reason.clone())),
        ])
    }
}

/// A whole-module parallelization plan.
#[derive(Clone, Debug)]
pub struct ModulePlan {
    /// Worker budget the plan was computed for.
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

    /// Deterministic JSON rendering (the golden / wire format).
    pub fn to_json(&self) -> Json {
        let loops = self.loops.iter().map(LoopPlan::to_json).collect();
        Json::object([
            (
                "summary".to_string(),
                Json::object([
                    ("loops".to_string(), Json::Int(self.loops.len() as i64)),
                    ("planned".to_string(), Json::Int(self.planned() as i64)),
                    (
                        "predicted_speedup".to_string(),
                        Json::Float(round4(self.predicted_program_speedup())),
                    ),
                    ("workers".to_string(), Json::Int(self.workers as i64)),
                    ("profiled".to_string(), Json::Bool(self.profiled)),
                ]),
            ),
            ("loops".to_string(), Json::Array(loops)),
        ])
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
                if let Some(h) = &c.hybrid {
                    out.push_str(&format!(
                        "     hybrid doall({}) inside dswp: {:.2}x\n",
                        h.inner, h.predicted_speedup
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
    let profiles = n.profiles();
    let profiled = !profiles.block_counts.is_empty();

    // Pass 1: per-loop candidate tables, priced on the abstraction the
    // audit issued its verdicts on.
    let m = n.module();
    let mut loops: Vec<(LoopPlan, &LoopInfo, FuncId)> = Vec::new();
    for laud in &audit.loops {
        let (fid, la) = (laud.fid, &*laud.abstraction);
        debug_assert_eq!(n.revision(fid), laud.revision, "audit predates an edit");
        let l = &la.structure;
        let f = m.func(fid);

        let body_cost: u64 = la
            .pdg
            .internal_nodes()
            .map(|i| approx_inst_cost(f.inst(i)))
            .sum::<u64>()
            .max(1);
        let trip = trip_estimate(&profiles, profiled, m, fid, l, la.trip_count);

        let mut candidates = Vec::new();
        for t in Technique::all() {
            let v = laud.verdict(t);
            if !v.clean {
                let why = v
                    .blockers
                    .first()
                    .map(|b| b.kind.as_str().to_string())
                    .or_else(|| v.reason.clone())
                    .unwrap_or_else(|| "blocked".to_string());
                candidates.push(Candidate {
                    technique: t,
                    clean: false,
                    predicted_speedup: 0.0,
                    workers: 0,
                    detail: why,
                    hybrid: None,
                });
                continue;
            }
            // Price the recipe the transform would execute. DSWP uses up
            // to four stages of the budget.
            let workers = match t {
                Technique::Dswp => opts.workers.clamp(2, 4),
                _ => opts.workers.max(1),
            };
            let c = match gate(t, m, fid, la, &arch, workers) {
                Ok(Recipe::Helix(segments)) => {
                    predict_helix(segments.cost, &arch, workers, trip, body_cost)
                }
                Ok(Recipe::Dswp(stages)) => predict_dswp(
                    &stages.summary(m, fid, la),
                    m,
                    audit,
                    fid,
                    l,
                    &arch,
                    opts,
                    trip,
                    body_cost,
                ),
                Ok(_) => predict_doall(&arch, workers, trip, body_cost),
                // The audit said clean at its own worker count; this budget
                // can still refuse (only DSWP's gate reads it). Report it
                // honestly.
                Err(e) => Candidate {
                    technique: t,
                    clean: true,
                    predicted_speedup: 0.0,
                    workers,
                    detail: format!("stage planning refused at {workers} stages: {e}"),
                    hybrid: None,
                },
            };
            candidates.push(c);
        }

        let plan = LoopPlan {
            function: laud.function.clone(),
            header: laud.header,
            header_name: laud.header_name.clone(),
            weight: if profiled {
                profiles.loop_hotness(m, fid, l)
            } else {
                0.0 // filled by the static-share pass below
            },
            trip,
            body_cost,
            candidates,
            chosen: None,
            reason: String::new(),
        };
        loops.push((plan, l, fid));
    }

    // Unprofiled modules: weigh loops by their static cost share so the
    // nesting arbitration and the program-speedup prediction stay defined.
    if !profiled {
        let total: f64 = loops
            .iter()
            .map(|(p, _, _)| p.trip * p.body_cost as f64)
            .sum();
        if total > 0.0 {
            for (p, _, _) in &mut loops {
                p.weight = (p.trip * p.body_cost as f64 / total).min(1.0);
            }
        }
    }

    // Pass 2: pick winners under nesting conflicts. Greedy by saved-time
    // benefit: a loop's plan excludes plans on any loop it contains or is
    // contained by (same function).
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..loops.len()).collect();
        idx.sort_by(|&a, &b| {
            let ba = benefit(&loops[a].0);
            let bb = benefit(&loops[b].0);
            bb.partial_cmp(&ba)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| loops[a].0.function.cmp(&loops[b].0.function))
                .then_with(|| loops[a].0.header.0.cmp(&loops[b].0.header.0))
        });
        idx
    };
    let mut accepted: Vec<usize> = Vec::new();
    for i in order {
        let best = best_candidate(&loops[i].0);
        let (p, l, fid) = &loops[i];
        let Some((t, s)) = best else {
            continue;
        };
        if s < MIN_SPEEDUP {
            continue;
        }
        // Nesting conflict with an already-accepted loop of the same function?
        let conflict = accepted.iter().copied().find(|&j| {
            let (q, lj, fj) = &loops[j];
            fj == fid && q.header != p.header && (lj.contains(p.header) || l.contains(q.header))
        });
        match conflict {
            Some(j) => {
                let (q, _, _) = &loops[j];
                let reason = format!(
                    "skipped: nesting conflict with planned @{}:{} ({} {:.2}x, benefit {:.4} vs {:.4})",
                    q.function,
                    q.header_name,
                    q.chosen.map(|t| t.as_str()).unwrap_or("?"),
                    q.chosen_candidate().map(|c| c.predicted_speedup).unwrap_or(0.0),
                    benefit(q),
                    benefit(&loops[i].0),
                );
                loops[i].0.reason = reason;
            }
            None => {
                let runners: Vec<String> = loops[i]
                    .0
                    .candidates
                    .iter()
                    .filter(|c| c.clean && c.technique != t)
                    .map(|c| format!("{} {:.2}x", c.technique.as_str(), c.predicted_speedup))
                    .collect();
                loops[i].0.chosen = Some(t);
                loops[i].0.reason = if runners.is_empty() {
                    format!(
                        "{} wins: only clean candidate, predicted {s:.2}x",
                        t.as_str()
                    )
                } else {
                    format!(
                        "{} wins: predicted {s:.2}x vs {}",
                        t.as_str(),
                        runners.join(", ")
                    )
                };
                accepted.push(i);
            }
        }
    }
    for (p, _, _) in &mut loops {
        if p.reason.is_empty() {
            p.reason = match best_candidate(p) {
                None => "no clean technique".to_string(),
                Some((t, s)) => format!(
                    "unplanned: best candidate {} predicts {s:.2}x, below the {MIN_SPEEDUP:.2}x bar",
                    t.as_str()
                ),
            };
        }
    }

    ModulePlan {
        workers: opts.workers,
        profiled,
        loops: loops.into_iter().map(|(p, _, _)| p).collect(),
    }
}

/// Saved-time benefit of a loop's best candidate: weight × (1 − 1/speedup).
fn benefit(p: &LoopPlan) -> f64 {
    match best_candidate(p) {
        Some((_, s)) if s > 1.0 => p.weight * (1.0 - 1.0 / s),
        _ => 0.0,
    }
}

/// Best clean candidate by predicted speedup; ties break in `Technique::all`
/// order (DOALL before HELIX before DSWP — cheaper runtime machinery wins).
fn best_candidate(p: &LoopPlan) -> Option<(Technique, f64)> {
    let mut best: Option<(Technique, f64)> = None;
    for c in &p.candidates {
        if !c.clean || c.predicted_speedup <= 0.0 {
            continue;
        }
        if best.map(|(_, s)| c.predicted_speedup > s).unwrap_or(true) {
            best = Some((c.technique, c.predicted_speedup));
        }
    }
    best
}

fn trip_estimate(
    profiles: &Profiles,
    profiled: bool,
    m: &noelle_ir::module::Module,
    fid: FuncId,
    l: &LoopInfo,
    static_trip: Option<i64>,
) -> f64 {
    if profiled {
        let t = profiles.loop_avg_iterations(m, fid, l);
        if t > 0.0 {
            return t;
        }
    }
    match static_trip {
        Some(t) if t > 0 => t as f64,
        _ => DEFAULT_TRIP,
    }
}

/// DOALL: iterations split cyclically over `workers` cores; one dispatch.
fn predict_doall(arch: &Architecture, w: usize, trip: f64, body: u64) -> Candidate {
    let seq = trip * body as f64;
    let par = seq / w as f64 + arch.dispatch_overhead as f64;
    let s = if par > 0.0 { seq / par } else { 1.0 };
    Candidate {
        technique: Technique::Doall,
        clean: true,
        predicted_speedup: s,
        workers: w,
        detail: format!(
            "chunked {trip:.0} iterations x {body} cycles over {w} cores + {} dispatch",
            arch.dispatch_overhead
        ),
        hybrid: None,
    }
}

/// HELIX: parallel portion splits over cores, the sequential-segment chain
/// plus one cross-core signal latency serializes per iteration.
fn predict_helix(seg_cost: u64, arch: &Architecture, w: usize, trip: f64, body: u64) -> Candidate {
    let seq = trip * body as f64;
    let serial = if seg_cost > 0 {
        seg_cost as f64 + arch.max_latency() as f64
    } else {
        0.0
    };
    let per_iter = (body as f64 / w as f64).max(serial);
    let par = trip * per_iter + arch.dispatch_overhead as f64;
    let s = if par > 0.0 { seq / par } else { 1.0 };
    let serial_fraction = seg_cost as f64 / body as f64;
    Candidate {
        technique: Technique::Helix,
        clean: true,
        predicted_speedup: s,
        workers: w,
        detail: format!(
            "serial fraction {serial_fraction:.2} ({seg_cost} of {body} cycles) + {} signal \
             latency over {w} cores",
            arch.max_latency()
        ),
        hybrid: None,
    }
}

/// DSWP: throughput is bounded by the bottleneck stage (compute + queue
/// traffic + steady-state transfer latency); hybrids additionally DOALL an
/// inner clean loop inside its stage.
#[allow(clippy::too_many_arguments)]
fn predict_dswp(
    ss: &StageSummary,
    m: &noelle_ir::module::Module,
    audit: &ModuleAudit,
    fid: FuncId,
    l: &LoopInfo,
    arch: &Architecture,
    opts: &PlanOptions,
    trip: f64,
    body: u64,
) -> Candidate {
    let seq = trip * body as f64;
    let q = arch.queue_op_cost as f64;
    let lat = arch.max_latency() as f64;
    let stage_cost = |s: usize| ss.stage_costs[s] as f64 + ss.queue_ops[s] as f64 * q + lat;
    let bottleneck = (0..ss.n_stages)
        .map(stage_cost)
        .fold(0.0f64, |a, b| a.max(b));
    let par = trip * bottleneck + arch.dispatch_overhead as f64;
    let s = if par > 0.0 { seq / par } else { 1.0 };

    // Nested DOALL-inside-DSWP hybrid: an inner loop the audit marked
    // DOALL-clean could be chunked within its stage, shrinking that stage by
    // (W-1)/W of the inner body — at the price of one dispatch per outer
    // iteration. Reported as an estimate; the executable plan stays
    // single-technique per loop.
    let hybrid = audit
        .loops
        .iter()
        .filter(|il| il.fid == fid && il.header != l.header && l.contains(il.header))
        .filter(|il| il.verdict(Technique::Doall).clean)
        .map(|il| {
            let f = m.func(fid);
            let inner_body: f64 = il
                .abstraction
                .structure
                .blocks
                .iter()
                .flat_map(|&b| f.block(b).insts.iter())
                .map(|&i| approx_inst_cost(f.inst(i)) as f64)
                .sum();
            let w = opts.workers.max(1) as f64;
            let shrunk =
                (bottleneck - inner_body + inner_body / w + arch.dispatch_overhead as f64).max(1.0);
            let hpar = trip * shrunk.max(bottleneck.min(shrunk)) + arch.dispatch_overhead as f64;
            let hs = if hpar > 0.0 { seq / hpar } else { 1.0 };
            HybridNote {
                inner: format!("{}:{}", il.function, il.header_name),
                predicted_speedup: hs,
            }
        })
        .max_by(|a, b| {
            a.predicted_speedup
                .partial_cmp(&b.predicted_speedup)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

    let balance: Vec<String> = (0..ss.n_stages)
        .map(|s| format!("{:.0}", stage_cost(s)))
        .collect();
    Candidate {
        technique: Technique::Dswp,
        clean: true,
        predicted_speedup: s,
        workers: ss.n_stages,
        detail: format!(
            "{} stages [{}] cycles/iter, {} value queue(s), bottleneck {bottleneck:.0}",
            ss.n_stages,
            balance.join(" "),
            ss.value_queues
        ),
        hybrid,
    }
}

/// Execute the plan: each chosen technique runs pinned to its loop through
/// the unified [`LoopTargetOpts`] surface. Returns the merged report.
pub fn apply_plan(n: &mut Noelle, plan: &ModulePlan) -> ParallelReport {
    let mut merged = ParallelReport::default();
    for l in &plan.loops {
        let Some(c) = l.chosen_candidate() else {
            continue;
        };
        let target = LoopTargetOpts::pinned(&l.function, l.header).with_workers(c.workers);
        let report = parallelize(n, c.technique, &target);
        merged.parallelized.extend(report.parallelized);
        merged.skipped.extend(report.skipped);
    }
    merged
}

/// Spearman rank correlation with average ranks for ties. Returns 1.0 when
/// both sides are constant (perfect trivial agreement), 0.0 when exactly
/// one is.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples");
    let n = xs.len();
    if n < 2 {
        return 1.0;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let mx = rx.iter().sum::<f64>() / n as f64;
    let my = ry.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = rx[i] - mx;
        let dy = ry[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 && vy == 0.0 {
        return 1.0;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
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

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]), 1.0);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        // Ties get average ranks: still monotone overall.
        assert!(spearman(&[1.0, 2.0, 2.0, 4.0], &[1.0, 3.0, 3.0, 9.0]) > 0.99);
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
                        let la = n
                            .loops_of(fid)
                            .into_iter()
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
