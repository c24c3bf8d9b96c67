//! End-to-end tests of the parallelization planner: the whole-workload plan
//! report must match the checked-in golden byte-for-byte, the predictions
//! must be the simulated machine's cycles (no planned loop of the
//! calibration corpus loses when applied alone, and the median error of the
//! predicted cycles stays within 25 %), applying a plan must emit what the
//! audit judged — judging a loop again only where its function's epoch
//! moved — preserve observable behavior and never slow a workload down, and
//! the daemon's
//! `plan` method must serve the same report inside the versioned reply
//! envelope while counting its work.

use noelle::core::architecture::Architecture;
use noelle::core::json::{envelope, Json, ENVELOPE_VERSION};
use noelle::core::noelle::{Abstraction, AliasTier, Noelle};
use noelle::ir::printer::print_module;
use noelle::ir::verifier::verify_module;
use noelle::runtime::{run_module, RunConfig};
use noelle::transforms::common::{emit, gate, GateBuffers, Parallelizer};
use noelle::workloads::scale_module;
use noelle_ide::DocSession;
use noelle_lint::run_audit;
use noelle_plan::{apply_plan, plan_from_audit, plan_module, PlanOptions};
use noelle_server::{Client, Server, ServerConfig};
use noelle_tools::calibrate::{calibrate, corpus, error_summary, render, Row};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

fn corpus_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("plan")
        .join(file)
}

fn workloads_all() -> Vec<(String, noelle::ir::module::Module)> {
    noelle::workloads::all()
        .into_iter()
        .chain(std::iter::once(noelle::workloads::pdg_stress()))
        .map(|w| (w.name.to_string(), w.build()))
        .collect()
}

// ---------------------------------------------------------------------------
// Golden diff: the checked-in whole-suite plan must match a fresh run,
// constructed exactly as `noelle-plan workload:all --format json` builds it.
// ---------------------------------------------------------------------------

#[test]
fn workload_plans_match_checked_in_golden() {
    let opts = PlanOptions::default();
    let plans: Vec<(String, Json)> = workloads_all()
        .into_iter()
        .map(|(name, m)| {
            let mut n = Noelle::new(m, AliasTier::Full);
            let audit = run_audit(&mut n);
            let audited = loops_built(&n);
            let plan = plan_from_audit(&mut n, &audit, &opts).to_json();
            // The planner prices the abstractions the audit hands it.
            assert_eq!(
                loops_built(&n),
                audited,
                "{name}: the planner built a loop abstraction of its own"
            );
            // A re-plan over the manager's warm analyses says the same.
            assert_eq!(plan_module(&mut n, &opts).to_json(), plan, "{name}");
            (name, plan)
        })
        .collect();
    assert_eq!(plans.len(), 42, "the full suite plus pdg_stress");
    let fresh = envelope(
        "plan",
        Json::object([("plans".to_string(), Json::object(plans))]),
    )
    .to_string_pretty();
    let golden = std::fs::read_to_string(corpus_path("golden_workloads.json"))
        .expect("golden plan JSON is checked in");
    assert_eq!(
        fresh.trim(),
        golden.trim(),
        "workload plans diverge from tests/corpus/plan/golden_workloads.json; \
         regenerate with `noelle-plan workload:all --format json` if the \
         change is intentional"
    );
}

// ---------------------------------------------------------------------------
// One writer: the report text is the plan's only serialization. A parse of
// it prints back byte for byte, and the IDE's hint rows are its rows
// without `weight`.
// ---------------------------------------------------------------------------

#[test]
fn the_report_writer_is_the_only_serialization() {
    let opts = PlanOptions::default();
    let scale = ("scale_module(256, 3)".to_string(), scale_module(256, 3));
    let mut hinted = 0;
    for (name, m) in workloads_all().into_iter().chain(std::iter::once(scale)) {
        let source = print_module(&m);
        let plan = plan_module(&mut Noelle::new(m, AliasTier::Full), &opts);
        let text = plan.json_text();
        let parsed = Json::parse(&text).expect("the report is JSON");
        assert_eq!(parsed.to_string_compact(), text, "{name}: compact");
        // Decoded member by member, it still writes the same text.
        let decoded = Json::parse(&parsed.to_string_pretty()).expect("pretty is JSON");
        assert_eq!(decoded.to_string_compact(), text, "{name}: pretty");
        assert_eq!(plan.to_json().to_string_compact(), text, "{name}: to_json");

        // A cold open plans the whole module: its rows are the module
        // plan's rows with a clean candidate, in the same order, less
        // each one's weight.
        let doc = DocSession::open(name.as_str(), &source, AliasTier::Full);
        let pulled: Vec<Json> = doc
            .plan_hints()
            .as_object()
            .expect("hints are an object")
            .values()
            .flat_map(|rows| rows.as_array().expect("rows").to_vec())
            .collect();
        let rows = parsed.get("loops").and_then(Json::as_array).expect("rows");
        let expected: Vec<Json> = plan
            .loops
            .iter()
            .zip(rows)
            .filter(|(l, _)| l.any_clean())
            .map(|(_, row)| {
                let members = row.as_object().expect("a row is an object").iter();
                let kept = members.filter(|(k, _)| k.as_str() != "weight");
                Json::object(kept.map(|(k, v)| (k.clone(), v.clone())))
            })
            .collect();
        assert_eq!(pulled, expected, "{name}: the IDE's rows");
        hinted += pulled.len();
    }
    assert!(hinted > 100, "{hinted} rows compared");
}

// ---------------------------------------------------------------------------
// Judged once, audit to emit: `apply_plan` emits the recipe each chosen
// loop's judgment carries, and builds a loop abstraction only where the
// function's epoch says the judgment went stale.
// ---------------------------------------------------------------------------

fn loops_built(n: &Noelle) -> u64 {
    n.build_stats().get(&Abstraction::L).map_or(0, |s| s.builds)
}

/// Across `apply_plan` on the suite, a loop abstraction is built for each
/// planned loop whose function an earlier emit of the plan damaged — the 37
/// `@main:fill_header` loops their kernels' emits reach — and for no other.
/// Which functions those are is read off the damage sets of the same emits
/// committed one by one on a second manager, not off the epochs; the two
/// managers end on the same text.
#[test]
fn apply_plan_judges_again_only_what_an_earlier_emit_damaged() {
    let (mut planned, mut stale) = (0, 0);
    for (name, m) in workloads_all() {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        let audit = run_audit(&mut n);
        let plan = plan_from_audit(&mut n, &audit, &PlanOptions::default());

        // The twin holds the analyses the damage rule reads, as `n` does.
        let mut twin = Noelle::new(m, AliasTier::Full);
        run_audit(&mut twin);
        let arch = twin.architecture();
        let (mut damaged, mut expected) = (BTreeSet::new(), 0);
        for l in &plan.loops {
            let (Some(c), Some(judged)) = (l.chosen_candidate(), &l.judgment) else {
                continue;
            };
            let fid = judged.fid;
            let rejudged;
            let (la, recipe) = if damaged.contains(&fid) {
                expected += 1;
                let forest = twin.loop_forest(fid);
                let lp = forest.loops().iter().find(|lp| lp.header == l.header);
                let la = twin.loop_abstraction(fid, lp.expect("the loop stands").id);
                let gates = &mut GateBuffers::default();
                let recipe = gate(
                    c.technique,
                    twin.module(),
                    fid,
                    &la,
                    &arch,
                    c.workers,
                    gates,
                );
                rejudged = (la, recipe.expect("the suite's stale loops still pass"));
                (&rejudged.0, &rejudged.1)
            } else {
                (&*judged.abstraction, &judged.recipe)
            };
            let (emitted, damage) = twin
                .edit_with_damage(|tx| emit(tx.module_touching([fid]), fid, la, recipe, c.workers));
            emitted.unwrap_or_else(|e| panic!("{name}: @{}: {e}", l.function));
            damaged.extend(damage);
        }

        let before = loops_built(&n);
        let report = apply_plan(&mut n, &plan);
        assert_eq!(report.count(), plan.planned(), "{name}: {report:?}");
        assert_eq!(loops_built(&n) - before, expected, "{name}");
        assert_eq!(
            print_module(n.module()),
            print_module(twin.module()),
            "{name}"
        );
        planned += plan.planned();
        stale += expected;
    }
    assert_eq!((planned, stale), (94, 37), "planned, judged again");
}

/// The module a stale verdict is made on: `@kernel`'s loop calls `@scale`,
/// which reads nothing and writes nothing, so DOALL takes the loop; `@main`
/// fills the array first.
const STALE_SRC: &str = r#"
module "stale" {
declare i64* @malloc(i64 %n)
define i64 @scale(i64 %x, i64* %p) {
entry:
  %y = mul i64 %x, i64 3
  %z = div i64 %y, i64 7
  ret %z
}
define i64 @kernel(i64* %a) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 400
  condbr %c, body, exit
body:
  %q = gep i64, %a, %i
  %v = load i64, %q
  %w = call i64 @scale(%v, %a)
  %d0 = div i64 %w, i64 3
  %d1 = mul i64 %d0, i64 5
  %d2 = div i64 %d1, i64 7
  %d3 = mul i64 %d2, i64 11
  %d4 = div i64 %d3, i64 13
  store i64 %d4, %q
  %s2 = add i64 %s, %d4
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 3200)
  br fill_header
fill_header:
  %j = phi i64 [entry: i64 0] [fill_body: %j2]
  %f = icmp slt i64 %j, i64 400
  condbr %f, fill_body, run
fill_body:
  %p = gep i64, %buf, %j
  %x = mul i64 %j, i64 37
  %y = div i64 %x, i64 3
  %z = add i64 %y, i64 11
  store i64 %z, %p
  %j2 = add i64 %j, i64 1
  br fill_header
run:
  %r = call i64 @kernel(%buf)
  ret %r
}
}
"#;

/// ROADMAP item 1's bar. After the plan, `@scale` starts storing to the
/// array its caller's loop walks: its mod/ref summary moves, the damage
/// rule reaches `@kernel`, and `apply_plan` must judge that loop again and
/// skip it with the gate's reason, not emit the DOALL the audit judged.
/// The result still computes what the edited module computes. And a plan
/// applied to another manager over the same text is judged again loop by
/// loop, emitting what that manager's own plan emits.
#[test]
fn a_stale_verdict_is_judged_again_and_skipped_with_the_gates_reason() {
    let stores = STALE_SRC.replace(
        "  %y = mul i64 %x, i64 3\n",
        "  %y = mul i64 %x, i64 3\n  store i64 %y, %p\n",
    );
    let edited = noelle::ir::parser::parse_module(&stores).expect("the edited text parses");
    let mut n = Noelle::new(
        noelle::ir::parser::parse_module(STALE_SRC).expect("parses"),
        AliasTier::Full,
    );
    let plan = plan_module(&mut n, &PlanOptions::default());
    let chosen: Vec<(&str, Option<Parallelizer>)> = plan
        .loops
        .iter()
        .map(|l| (l.function.as_str(), l.chosen))
        .collect();
    let doall = Some(Parallelizer::Doall);
    assert_eq!(
        chosen,
        [("kernel", doall), ("main", doall)],
        "{}",
        plan.render_text()
    );

    let (scale, kernel) = (
        n.module().func_id_by_name("scale").expect("@scale"),
        n.module().func_id_by_name("kernel").expect("@kernel"),
    );
    let ((), damage) = n.edit_with_damage(|tx| {
        let body = edited.func(scale).clone();
        *tx.func_mut(scale) = body;
    });
    assert!(damage.contains(&kernel), "{damage:?}");
    let seq = run_module(&edited, "main", &[], &RunConfig::default()).expect("runs");

    // What the gate says of the edited loop, asked on a manager of its own.
    let mut judge = Noelle::new(edited, AliasTier::Full);
    let header = plan.loops[0].header;
    let forest = judge.loop_forest(kernel);
    let l = forest.loops().iter().find(|l| l.header == header);
    let la = judge.loop_abstraction(kernel, l.expect("the loop stands").id);
    let arch = judge.architecture();
    let workers = plan.loops[0].chosen_candidate().expect("chosen").workers;
    let refusal = gate(
        Parallelizer::Doall,
        judge.module(),
        kernel,
        &la,
        &arch,
        workers,
        &mut GateBuffers::default(),
    )
    .expect_err("a callee that stores to the array carries a dependence");

    let before = loops_built(&n);
    let report = apply_plan(&mut n, &plan);
    assert_eq!(
        report.skipped,
        [("kernel".to_string(), header, refusal.to_string())],
        "{report:?}"
    );
    assert_eq!(
        report.parallelized,
        [("main".to_string(), plan.loops[1].header)]
    );
    assert_eq!(
        loops_built(&n) - before,
        1,
        "only @kernel's loop is judged again"
    );
    let par = run_module(n.module(), "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(
        (par.ret, par.output, par.globals_digest),
        (seq.ret, seq.output, seq.globals_digest)
    );

    // Another manager: no epoch of it is one the plan was judged at.
    for m in [
        noelle::ir::parser::parse_module(STALE_SRC).expect("parses"),
        noelle::workloads::by_name("blackscholes")
            .expect("exists")
            .build(),
    ] {
        let plan = plan_module(
            &mut Noelle::new(m.clone(), AliasTier::Full),
            &PlanOptions::default(),
        );
        let mut other = Noelle::new(m.clone(), AliasTier::Full);
        let report = apply_plan(&mut other, &plan);
        assert_eq!(report.count(), plan.planned());
        assert_eq!(loops_built(&other), plan.planned() as u64);
        let mut own = Noelle::new(m, AliasTier::Full);
        let own_plan = plan_module(&mut own, &PlanOptions::default());
        apply_plan(&mut own, &own_plan);
        assert_eq!(print_module(other.module()), print_module(own.module()));
    }
}

// ---------------------------------------------------------------------------
// Calibration: the planner prices what the machine charges. Every planned
// loop of the corpus (the suite, `pdg_stress`, `scale_module(133, 42)`) is
// applied alone at its chosen worker count and run; the two gates below
// bind where a rank correlation did not — it read 0.954 while every planned
// loop of the scale module lost.
// ---------------------------------------------------------------------------

/// The sweep `noelle-plan workload:all --calibrate` prints, run once.
fn calibration() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let opts = PlanOptions::default();
        corpus()
            .iter()
            .flat_map(|(name, m)| calibrate(name, m, &opts).expect("calibrates"))
            .collect()
    })
}

#[test]
fn no_planned_loop_loses_when_applied_alone() {
    let losers: Vec<String> = calibration()
        .iter()
        .filter(|r| r.gained < 0)
        .map(|r| format!("{} @{}: {} cycles", r.module, r.loop_name, r.gained))
        .collect();
    assert!(
        losers.is_empty(),
        "planned loops that simulate below 1.0x:\n{}",
        losers.join("\n")
    );
}

#[test]
fn predicted_cycles_track_the_simulated_machine() {
    let rows = calibration();
    assert!(rows.len() >= 90, "the suite plans {} loops", rows.len());
    let (median, max) = error_summary(rows);
    assert!(
        median <= 0.25,
        "median relative error of predicted cycles {median:.3} (max {max:.3})"
    );
    let table = render(rows);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/plan_calibration.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if table != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/plan_calibration.actual.txt");
        std::fs::write(actual, &table).expect("writes the actual table");
        panic!(
            "the calibration table diverges from {} (actual written to {actual}); regenerate \
             with `noelle-plan workload:all --calibrate` if the change is intentional",
            path.display()
        );
    }
}

#[test]
fn chosen_worker_counts_stay_within_the_budget() {
    // Below two workers nothing can be chosen: one task is the loop plus
    // its dispatch, and a pipeline needs two stages.
    for workers in [0, 1, 2, PlanOptions::default().workers] {
        for (name, m) in workloads_all() {
            let mut n = Noelle::new(m, AliasTier::Full);
            let plan = plan_module(&mut n, &PlanOptions { workers });
            for c in plan.loops.iter().filter_map(|l| l.chosen_candidate()) {
                assert!(
                    (2..=workers).contains(&c.workers),
                    "{name}: a chosen {} runs on {} of {workers} workers",
                    c.technique.as_str(),
                    c.workers
                );
            }
        }
    }
}

/// The budget stops at the machine's cores. The machine puts task `i` on
/// core `i % cores` yet gives every task a clock of its own, so a plan for
/// more tasks than cores would predict — and simulate — parallelism the
/// machine does not have. On a 4-core machine the default budget is 4.
#[test]
fn a_plan_never_has_more_workers_than_the_machine_has_cores() {
    let mut widest = 0;
    for (name, mut m) in workloads_all() {
        Architecture::synthetic(4, 1).embed(&mut m);
        let plan = plan_module(
            &mut Noelle::new(m, AliasTier::Full),
            &PlanOptions::default(),
        );
        let summary = plan.to_json().get("summary").cloned().unwrap();
        assert_eq!(
            summary.get("workers").and_then(Json::as_i64),
            Some(4),
            "{name}"
        );
        for c in plan.loops.iter().filter_map(|l| l.chosen_candidate()) {
            assert!(
                c.workers <= 4,
                "{name}: {} on {}",
                c.technique.as_str(),
                c.workers
            );
            widest = widest.max(c.workers);
        }
    }
    assert_eq!(widest, 4, "some loop takes every core");
}

/// The composed optimizer's claim, per module: the applied plan behaves as
/// the input does and is no slower on the simulated machine.
#[test]
fn applied_plans_preserve_behavior_and_never_slow_a_module_down() {
    for (name, m) in corpus() {
        let seq = run_module(&m, "main", &[], &RunConfig::default()).expect("workload runs");
        let mut n = Noelle::new(m, AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        apply_plan(&mut n, &plan);
        let m2 = n.into_module();
        verify_module(&m2).expect("planned module verifies");
        let par = run_module(&m2, "main", &[], &RunConfig::default()).expect("planned runs");
        assert_eq!(par.ret_i64(), seq.ret_i64(), "{name}: semantics preserved");
        assert_eq!(par.output, seq.output, "{name}: output preserved");
        assert_eq!(
            par.globals_digest, seq.globals_digest,
            "{name}: globals preserved"
        );
        assert!(
            par.cycles <= seq.cycles,
            "{name}: the plan costs {} cycles, the input {}",
            par.cycles,
            seq.cycles
        );
    }
}

// ---------------------------------------------------------------------------
// The daemon's `plan` method: same report, versioned envelope, counters.
// ---------------------------------------------------------------------------

#[test]
fn server_plan_method_reports_and_counts() {
    let server = Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .start()
    .expect("bind ephemeral port");
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    let ok = c
        .call(
            "load",
            Json::object([
                (
                    "path".to_string(),
                    Json::Str("workload:blackscholes".into()),
                ),
                ("session".to_string(), Json::Str("bs".into())),
            ]),
        )
        .expect("load succeeds");
    assert_eq!(ok.get("session").and_then(Json::as_str), Some("bs"));

    let reply = c
        .call(
            "plan",
            Json::object([("session".to_string(), Json::Str("bs".into()))]),
        )
        .expect("plan succeeds");
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("plan"),
        "reply carries the envelope kind"
    );
    assert_eq!(
        reply.get("v").and_then(Json::as_i64),
        Some(ENVELOPE_VERSION),
        "reply carries the envelope version"
    );
    let loops = reply
        .get("plan")
        .and_then(|p| p.get("summary"))
        .and_then(|s| s.get("loops"))
        .and_then(Json::as_i64)
        .expect("reply carries the plan summary");
    assert!(loops >= 1, "blackscholes has loops to plan");

    // The reply matches a local plan of the same module byte-for-byte.
    let w = noelle::workloads::by_name("blackscholes").expect("workload");
    let mut n = Noelle::new(w.build(), AliasTier::Full);
    let local = plan_module(&mut n, &PlanOptions::default()).to_json();
    assert_eq!(
        reply.get("plan").map(Json::to_string_compact),
        Some(local.to_string_compact()),
        "wire plan == local plan"
    );

    let doc = c.call("stats", Json::object([])).expect("stats");
    let runs = doc
        .get("plan")
        .and_then(|p| p.get("runs"))
        .and_then(Json::as_i64);
    assert_eq!(runs, Some(1), "stats must surface the plan counters");
    let planned = doc
        .get("plan")
        .and_then(|p| p.get("planned"))
        .and_then(Json::as_i64)
        .expect("counters carry planned totals");
    assert!(planned >= 1);
    server.shutdown_and_join();
}

// ---------------------------------------------------------------------------
// Unified error envelope: an unknown method is a structured, feature-probe
// friendly `unknown_method` error — not a generic bad_request.
// ---------------------------------------------------------------------------

#[test]
fn unknown_method_error_is_structured() {
    let server = Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .start()
    .expect("bind ephemeral port");
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    let reply = c
        .request("no-such-method", Json::object([]))
        .expect("transport succeeds");
    let err = reply.get("error").expect("error reply");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("unknown_method"),
        "{reply:?}"
    );
    assert!(
        err.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("no-such-method")),
        "{reply:?}"
    );
    server.shutdown_and_join();
}

// ---------------------------------------------------------------------------
// Applied-output golden: what `apply_plan` emits, pinned per module.
// ---------------------------------------------------------------------------

/// `tests/corpus/plan/applied_golden.json` was recorded before the
/// parallelizers were split into `gate` + `emit` under one driver, while
/// each technique still had its own `run`. Per module (the suite,
/// `pdg_stress` and `scale_module(256)`) it holds the FNV-64 of the printed
/// module after `apply_plan` and the report's counts. Whatever executes
/// plans must reproduce it bit for bit. (Regenerated when the planner
/// started choosing a worker count per loop; the scale module, whose
/// kernels earn no dispatch on the default machine, names one that spawns
/// a task for 20 cycles so that its row still pins emitted code.)
#[test]
fn applied_plans_reproduce_the_recorded_golden() {
    let mut scale = noelle::workloads::scale_module(256, 1);
    let mut cheap_spawn = Architecture::default_machine();
    cheap_spawn.dispatch_overhead = 20;
    cheap_spawn.embed(&mut scale);
    let corpus = workloads_all().into_iter().chain(std::iter::once((
        "scale_module(256), 20-cycle spawn".to_string(),
        scale,
    )));
    let rows: Vec<String> = corpus
        .map(|(name, m)| {
            let mut n = Noelle::new(m, AliasTier::Full);
            let plan = plan_module(&mut n, &PlanOptions::default());
            let report = apply_plan(&mut n, &plan);
            let text = noelle::ir::printer::print_module(n.module());
            let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            format!(
                "  {{\"name\": \"{name}\", \"ir\": \"{hash:016x}\", \"parallelized\": {}, \"skipped\": {}}}",
                report.parallelized.len(),
                report.skipped.len()
            )
        })
        .collect();
    let doc = format!("[\n{}\n]\n", rows.join(",\n"));
    let path = corpus_path("applied_golden.json");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if doc != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/applied_golden.actual.json");
        std::fs::write(actual, &doc).expect("writes the actual document");
        let line = doc
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .find(|(a, g)| a != g)
            .map_or("<length differs>", |(a, _)| a);
        panic!(
            "applied plans diverge from {} (actual written to {actual}); first difference: {line}",
            path.display()
        );
    }
}
