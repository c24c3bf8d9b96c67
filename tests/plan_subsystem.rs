//! End-to-end tests of the parallelization planner: the whole-workload plan
//! report must match the checked-in golden byte-for-byte, the predicted
//! speedups must rank-correlate with what the simulated machine actually
//! measures (Spearman >= 0.7 across the suite), applying a plan must
//! preserve observable behavior on every workload, and the daemon's `plan`
//! method must serve the same report inside the versioned reply envelope
//! while counting its work.

use noelle::core::json::{envelope, Json, ENVELOPE_VERSION};
use noelle::core::noelle::{Abstraction, AliasTier, Noelle};
use noelle::ir::verifier::verify_module;
use noelle::runtime::{run_module, RunConfig};
use noelle_lint::run_audit;
use noelle_plan::{apply_plan, plan_from_audit, plan_module, spearman, PlanOptions};
use noelle_server::{Client, Server, ServerConfig};
use std::path::PathBuf;

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
            let loops_built =
                |n: &Noelle| n.build_stats().get(&Abstraction::L).map_or(0, |s| s.builds);
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
// Prediction quality: across the suite, the cost model's predicted program
// speedups must rank workloads in (close to) the same order the simulated
// machine does. Exact cycle counts are not the claim — ordering is, since
// the planner's job is picking winners.
// ---------------------------------------------------------------------------

/// Predicted and simulated program speedup for every workload whose
/// baseline runs (all of them, by suite construction).
fn prediction_pairs() -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    let mut names = Vec::new();
    for (name, m) in workloads_all() {
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
        predicted.push(plan.predicted_program_speedup());
        measured.push(seq.cycles as f64 / par.cycles as f64);
        names.push(name);
    }
    (predicted, measured, names)
}

#[test]
fn predicted_speedups_rank_correlate_with_simulated() {
    let (predicted, measured, names) = prediction_pairs();
    assert_eq!(predicted.len(), 42);
    let rho = spearman(&predicted, &measured);
    let pairs: Vec<String> = names
        .iter()
        .zip(predicted.iter().zip(measured.iter()))
        .map(|(n, (p, m))| format!("{n}: predicted {p:.2}x measured {m:.2}x"))
        .collect();
    assert!(
        rho >= 0.7,
        "prediction rank correlation {rho:.3} below 0.7:\n{}",
        pairs.join("\n")
    );
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

    for method in ["stats", "metrics"] {
        let doc = c.call(method, Json::object([])).expect(method);
        let runs = doc
            .get("plan")
            .and_then(|p| p.get("runs"))
            .and_then(Json::as_i64);
        assert_eq!(runs, Some(1), "{method} must surface the plan counters");
        let planned = doc
            .get("plan")
            .and_then(|p| p.get("planned"))
            .and_then(Json::as_i64)
            .expect("counters carry planned totals");
        assert!(planned >= 1);
    }
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
/// plans must reproduce it bit for bit.
#[test]
fn applied_plans_reproduce_the_recorded_golden() {
    let corpus = workloads_all().into_iter().chain(std::iter::once((
        "scale_module(256)".to_string(),
        noelle::workloads::scale_module(256, 1),
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
