//! The three compile-side workloads: `suite_compile`, `scale_analyze` and
//! `scale_transform`. Each op drives the crates' public functions in
//! pipeline order, one span per call, so a layer's cost lands in its own
//! span in the traced run and the untraced run executes the very same calls.

use crate::inputs;
use crate::measure::{fnv1a, FNV_SEED};
use crate::trace::Tracer;
use crate::Workload;
use noelle_core::noelle::{Abstraction, AliasTier, FuncCacheCounters, Noelle};
use noelle_ir::module::Module;
use noelle_ir::parser::parse_module;
use noelle_ir::printer::print_module;
use noelle_ir::verifier::verify_module;
use noelle_lint::run_audit;
use noelle_plan::{apply_plan, plan_from_audit, ModulePlan, PlanOptions};
use noelle_runtime::{run_module, RunConfig, RunResult};
use std::time::Instant;

/// Groups in the module `scale_analyze` analyzes: 991 functions.
pub const ANALYZE_GROUPS: usize = 30;
/// Groups in the module `scale_transform` transforms: 133 functions.
/// Transform cost grows faster than module size (every commit re-solves
/// and repairs), so this is the size that keeps one op inside the
/// 80–400 ms window.
pub const TRANSFORM_GROUPS: usize = 4;

fn insts(m: &Module) -> f64 {
    m.functions()
        .iter()
        .map(|f| f.inst_ids().len())
        .sum::<usize>() as f64
}

fn parse(tr: &mut Tracer, text: &str) -> Result<Module, String> {
    let m = tr
        .span("ir.parse", |_| parse_module(text))
        .map_err(|e| format!("input does not parse: line {}: {}", e.line, e.message))?;
    if tr.on {
        tr.count("ir.parse_bytes", text.len() as f64);
        tr.count("ir.insts_in", insts(&m));
    }
    Ok(m)
}

/// Cold analysis through the plan: every abstraction the planner reads is
/// requested explicitly, in dependency order, so each is built inside its
/// own span (the audit would otherwise build them lazily inside its own).
fn analyze(tr: &mut Tracer, n: &mut Noelle) -> ModulePlan {
    tr.span("analysis.andersen", |_| {
        n.points_to();
    });
    tr.span("analysis.modref", |_| {
        n.modref_summaries();
    });
    let pdg = tr.span("pdg.build", |_| n.pdg());
    tr.span("core.loops", |_| {
        let fids: Vec<_> = n.module().func_ids().collect();
        for fid in fids {
            if !n.module().func(fid).is_declaration() {
                n.loop_forest(fid);
            }
        }
    });
    let audit = tr.span("lint.audit", |_| run_audit(n));
    let plan = tr.span("plan.plan", |_| {
        plan_from_audit(n, &audit, &PlanOptions::default())
    });
    if tr.on {
        let mem = n.memory_stats();
        tr.count("analysis.andersen_bytes", mem.andersen_bytes as f64);
        tr.count("pdg.bytes", mem.pdg_bytes as f64);
        tr.count("pdg.edges", pdg.num_edges() as f64);
        tr.count("pdg.funcs", pdg.per_function.len() as f64);
        tr.count("lint.loops_audited", audit.loops.len() as f64);
        tr.count("lint.blockers", audit.num_blockers() as f64);
        tr.count("plan.loops_planned", plan.planned() as f64);
        // Summed here, averaged over modules when reported.
        tr.count("plan.predicted_speedup", plan.predicted_program_speedup());
        tr.count("plan.modules", 1.0);
    }
    plan
}

/// The manager's public counters of the commit path: the only view from
/// outside of what an edit costs inside.
pub struct CommitCounters {
    cache: FuncCacheCounters,
    pdg_builds: u64,
    pdg_nanos: u128,
}

impl CommitCounters {
    pub fn read(n: &Noelle) -> CommitCounters {
        let pdg = n
            .build_stats()
            .get(&Abstraction::Pdg)
            .copied()
            .unwrap_or_default();
        CommitCounters {
            cache: n.func_cache_counters(),
            pdg_builds: pdg.builds,
            pdg_nanos: pdg.nanos,
        }
    }

    /// What the counters moved by since `before`, under the names the
    /// report reads.
    pub fn since(&self, before: &CommitCounters) -> [(&'static str, f64); 6] {
        let (c0, c1) = (&before.cache, &self.cache);
        [
            (
                "core.pdg_rebuilds",
                (self.pdg_builds - before.pdg_builds) as f64,
            ),
            (
                "core.pdg_rebuild_ns",
                (self.pdg_nanos - before.pdg_nanos) as f64,
            ),
            (
                "core.func_invalidations",
                (c1.invalidations - c0.invalidations) as f64,
            ),
            ("core.pdg_hits", (c1.pdg_hits - c0.pdg_hits) as f64),
            ("core.pdg_misses", (c1.pdg_misses - c0.pdg_misses) as f64),
            (
                "core.andersen_reuses",
                (c1.andersen_reuses - c0.andersen_reuses) as f64,
            ),
        ]
    }
}

/// Execute the plan, check the result and print it. The commit counters
/// are read on both sides of `apply_plan`: about one commit per loop.
fn transform(tr: &mut Tracer, mut n: Noelle, plan: &ModulePlan) -> Result<String, String> {
    let before = CommitCounters::read(&n);
    let report = tr.span("transforms.apply", |_| apply_plan(&mut n, plan));
    if tr.on {
        for (name, moved) in CommitCounters::read(&n).since(&before) {
            tr.count(name, moved);
        }
        tr.count(
            "transforms.loops_parallelized",
            report.parallelized.len() as f64,
        );
        tr.count("transforms.loops_skipped", report.skipped.len() as f64);
    }
    let m = tr.span("core.teardown", |_| n.into_module());
    tr.span("ir.verify", |_| verify_module(&m))
        .map_err(|e| format!("transformed module fails verification: {e:?}"))?;
    let text = tr.span("ir.print", |_| print_module(&m));
    if tr.on {
        tr.count("ir.insts_out", insts(&m));
    }
    tr.span("core.teardown", |_| drop(m));
    Ok(text)
}

/// What a sequential run of the untransformed program produced: the answer
/// every transformed version must reproduce. It comes from the simulator
/// interpreting the *input* module, never from the compiler under test.
struct Reference {
    name: String,
    seq: RunResult,
}

fn reference(tr: &mut Tracer, name: &str, m: &Module) -> Result<Reference, String> {
    let t = Instant::now();
    let seq = tr
        .span("runtime.run_seq", |_| {
            run_module(m, "main", &[], &RunConfig::default())
        })
        .map_err(|e| format!("{name}: reference run failed: {e:?}"))?;
    tr.total("runtime.run_seq_ns", t.elapsed().as_nanos() as f64);
    tr.total("runtime.seq_insts", seq.dyn_insts as f64);
    tr.total("runtime.sim_cycles_seq", seq.cycles as f64);
    Ok(Reference {
        name: name.to_string(),
        seq,
    })
}

/// Run the emitted program (parsed back from the printed text, so the
/// printer is inside the check) and compare it with its reference.
/// Returns sequential ÷ parallel simulated cycles.
fn check_against(tr: &mut Tracer, r: &Reference, emitted: &str) -> Result<f64, String> {
    let m = parse_module(emitted).map_err(|e| {
        format!(
            "{}: emitted text does not parse: line {}: {}",
            r.name, e.line, e.message
        )
    })?;
    let t = Instant::now();
    let par = tr
        .span("runtime.run_par", |_| {
            run_module(&m, "main", &[], &RunConfig::default())
        })
        .map_err(|e| format!("{}: emitted program failed: {e:?}", r.name))?;
    tr.total("runtime.run_par_ns", t.elapsed().as_nanos() as f64);
    tr.total("runtime.par_insts", par.dyn_insts as f64);
    tr.total("runtime.sim_cycles_par", par.cycles as f64);
    if par.ret != r.seq.ret
        || par.output != r.seq.output
        || par.globals_digest != r.seq.globals_digest
    {
        return Err(format!(
            "{}: emitted program returned {:?}, the reference {:?} (outputs equal: {}, globals equal: {})",
            r.name,
            par.ret,
            r.seq.ret,
            par.output == r.seq.output,
            par.globals_digest == r.seq.globals_digest
        ));
    }
    Ok(r.seq.cycles as f64 / par.cycles as f64)
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One op = cold compile of all 42 paper workloads from text.
pub struct SuiteCompile {
    texts: Vec<String>,
    refs: Vec<Reference>,
    emitted: Vec<String>,
}

impl SuiteCompile {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<SuiteCompile, String> {
        let mut texts = Vec::new();
        let mut refs = Vec::new();
        for w in inputs::suite(seed) {
            let m = w.build();
            refs.push(reference(tr, w.name, &m)?);
            texts.push(print_module(&m));
        }
        Ok(SuiteCompile {
            texts,
            refs,
            emitted: Vec::new(),
        })
    }
}

impl Workload for SuiteCompile {
    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        // The first op's outputs are kept to be run; later ops answer for
        // theirs by hash. Holding every op's would make the peak heap
        // depend on which program the suite order compiles last.
        let keep = self.emitted.is_empty();
        let mut h = FNV_SEED;
        for text in &self.texts {
            let m = parse(tr, text)?;
            let mut n = tr.span("core.manager_new", |_| Noelle::new(m, AliasTier::Full));
            let plan = analyze(tr, &mut n);
            let out = transform(tr, n, &plan)?;
            h = fnv1a(h, out.as_bytes());
            if keep {
                self.emitted.push(out);
            }
        }
        Ok(h)
    }

    fn check_emitted(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        if self.emitted.len() != self.refs.len() {
            return Err(format!(
                "the first op emitted {} of {} programs",
                self.emitted.len(),
                self.refs.len()
            ));
        }
        let mut speedups = Vec::with_capacity(self.refs.len());
        for (r, out) in self.refs.iter().zip(&self.emitted) {
            speedups.push(check_against(tr, r, out)?);
        }
        Ok(geomean(&speedups))
    }
}

/// One op = cold analysis of a 991-function module through the plan
/// report; nothing is transformed.
pub struct ScaleAnalyze {
    text: String,
}

impl ScaleAnalyze {
    pub fn setup(seed: u64) -> ScaleAnalyze {
        let (m, _) = inputs::bench_module(ANALYZE_GROUPS, seed);
        ScaleAnalyze {
            text: print_module(&m),
        }
    }
}

impl Workload for ScaleAnalyze {
    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let m = parse(tr, &self.text)?;
        let mut n = tr.span("core.manager_new", |_| Noelle::new(m, AliasTier::Full));
        let plan = analyze(tr, &mut n);
        let kernels = ANALYZE_GROUPS * inputs::GROUP;
        if plan.loops.len() < kernels / 2 {
            return Err(format!(
                "plan covers {} loops; most of the {kernels} kernels have one",
                plan.loops.len()
            ));
        }
        let report = tr.span("plan.report", |_| plan.to_json().to_string_compact());
        tr.span("core.teardown", |_| drop((n, plan)));
        Ok(fnv1a(FNV_SEED, report.as_bytes()))
    }

    /// Nothing is emitted, so there is nothing to run: the input program
    /// against itself.
    fn check_emitted(&mut self, _tr: &mut Tracer) -> Result<f64, String> {
        Ok(1.0)
    }
}

/// One op = plan and transform a 133-function module held in memory.
pub struct ScaleTransform {
    module: Module,
    reference: Reference,
    emitted: String,
}

impl ScaleTransform {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<ScaleTransform, String> {
        let (module, _) = inputs::bench_module(TRANSFORM_GROUPS, seed);
        let reference = reference(tr, "scale", &module)?;
        Ok(ScaleTransform {
            module,
            reference,
            emitted: String::new(),
        })
    }
}

impl Workload for ScaleTransform {
    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let m = tr.span("ir.clone", |_| self.module.clone());
        let mut n = tr.span("core.manager_new", |_| Noelle::new(m, AliasTier::Full));
        let plan = analyze(tr, &mut n);
        self.emitted = transform(tr, n, &plan)?;
        Ok(fnv1a(FNV_SEED, self.emitted.as_bytes()))
    }

    fn check_emitted(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        check_against(tr, &self.reference, &self.emitted)
    }
}
