//! End-to-end tests of the `noelle-lint` subsystem: the PDG-based race
//! detector must stay silent on the output of the repo's own parallelizers
//! (DOALL strides, HELIX sequential segments, DSWP queues are all mediated
//! communication), must flag the checked-in racy repro exactly once, and the
//! report must be byte-identical across runs. The satellite passes
//! (dead stores, env slots, hoistable calls, hygiene) each fire on a
//! purpose-built module.

use std::path::PathBuf;

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::parser::parse_module;
use noelle::ir::printer::print_module;
use noelle_lint::{
    check_usage, detect_races, has_errors, passes, render_json, render_text, run_checks, Severity,
};
use noelle_tools::registry::{self, ToolOptions};

fn racy_repro_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("lint")
        .join("racy_task.nir")
}

fn noelle_for(src: &str) -> Noelle {
    let m = parse_module(src).expect("test module parses");
    Noelle::new(m, AliasTier::Full)
}

fn run_registered_tool(n: &mut Noelle, name: &str) -> Result<String, String> {
    let tool = registry::tools()
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("tool {name} registered"));
    (tool.run)(n, &ToolOptions { cores: Some(4) })
}

// ---------------------------------------------------------------------------
// The racy repro: exactly one NL0001, with both locations reported.
// ---------------------------------------------------------------------------

#[test]
fn racy_repro_reports_exactly_one_race() {
    let src = std::fs::read_to_string(racy_repro_path()).expect("racy corpus exists");
    let mut n = noelle_for(&src);
    let findings = run_checks(&mut n, "races").expect("known check");
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one race finding, got:\n{}",
        render_text(&findings)
    );
    let f = &findings[0];
    assert_eq!(f.code, "NL0001");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.loc.function, "worker");
    // The repro races a store against itself across task instances, so the
    // message names the instances; a two-instruction pair would instead
    // carry the second location in `related`.
    assert!(
        !f.related.is_empty() || f.message.contains("task instances"),
        "a race must identify its second participant: {}",
        f.message
    );
    assert!(has_errors(&findings), "NL0001 is error severity");
}

// ---------------------------------------------------------------------------
// Clean-parallelization sweep: the race detector must prove the repo's own
// tool output mediated — zero findings across workloads and parallelizers.
// ---------------------------------------------------------------------------

#[test]
fn parallelizer_output_is_race_free_across_workloads() {
    let subset = [
        "blackscholes",
        "dijkstra",
        "crc32",
        "qsort",
        "fft",
        "swaptions",
        "mcf",
        "xz",
    ];
    for name in subset {
        let w = noelle::workloads::by_name(name).expect("known workload");
        for tool in ["doall", "helix", "dswp"] {
            let mut n = Noelle::new(w.build(), AliasTier::Full);
            if run_registered_tool(&mut n, tool).is_err() {
                continue; // tool declined (no suitable loop) — nothing to lint
            }
            let races = detect_races(&mut n);
            assert!(
                races.is_empty(),
                "{tool} on {name} produced race findings:\n{}",
                render_text(&races)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// HELIX sequential segments and DSWP queues are recognized as mediation.
// ---------------------------------------------------------------------------

/// A loop whose body is heavy enough for HELIX to parallelize but whose
/// accumulator update forces a sequential segment (`noelle.ss.*`).
const HELIX_DEMO: &str = r#"
module "helixdemo" {
declare i64* @malloc(i64 %n)
define i64 @kernel(i64* %a, i64* %acc, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %t1 = mul i64 %v, %v
  %u0 = div i64 %t1, i64 7
  %w0 = add i64 %u0, %v
  %u1 = div i64 %w0, i64 3
  %w1 = add i64 %u1, %v
  %u2 = div i64 %w1, i64 5
  %w2 = add i64 %u2, %v
  %u3 = div i64 %w2, i64 9
  %w3 = add i64 %u3, %v
  %u4 = div i64 %w3, i64 11
  %w4 = add i64 %u4, %v
  %u5 = div i64 %w4, i64 13
  %w5 = add i64 %u5, %v
  %u6 = div i64 %w5, i64 2
  %w6 = add i64 %u6, %v
  %u7 = div i64 %w6, i64 17
  %w7 = add i64 %u7, %v
  %u8 = div i64 %w7, i64 19
  %w8 = add i64 %u8, %v
  %s0 = load i64, %acc
  %s1 = add i64 %s0, %w8
  store i64 %s1, %acc
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %acc
  ret %r
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 4096)
  %acc = alloca i64, i64 1
  store i64 i64 0, %acc
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  %x = mul i64 %i, i64 37
  %y = and i64 %x, i64 255
  store i64 %y, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 256
  condbr %c, fill, done
done:
  %s = call i64 @kernel(%buf, %acc, i64 256)
  ret %s
}
}
"#;

#[test]
fn helix_sequential_segments_are_recognized_as_mediation() {
    let mut n = noelle_for(HELIX_DEMO);
    run_registered_tool(&mut n, "helix").expect("helix parallelizes the demo");
    let races = detect_races(&mut n);
    let printed = print_module(n.module());
    assert!(
        printed.contains("noelle.ss.wait") && printed.contains("noelle.task.dispatch"),
        "demo should exercise sequential segments:\n{printed}"
    );
    assert!(
        races.is_empty(),
        "segment-protected accesses must not be flagged:\n{}",
        render_text(&races)
    );
}

/// A loop with a long data-chain plus a cheap accumulator — the shape DSWP
/// splits into queue-connected pipeline stages.
const DSWP_DEMO: &str = r#"
module "dswpdemo" {
declare i64* @malloc(i64 %n)
define i64 @kernel(i64* %a, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %t1 = mul i64 %v, %v
  %u0 = div i64 %t1, i64 7
  %w0 = add i64 %u0, %v
  %u1 = div i64 %w0, i64 3
  %w1 = add i64 %u1, %v
  %u2 = div i64 %w1, i64 5
  %w2 = add i64 %u2, %v
  %u3 = div i64 %w2, i64 9
  %w3 = add i64 %u3, %v
  %u4 = div i64 %w3, i64 11
  %w4 = add i64 %u4, %v
  %u5 = div i64 %w4, i64 13
  %w5 = add i64 %u5, %v
  %u6 = div i64 %w5, i64 2
  %w6 = add i64 %u6, %v
  %u7 = div i64 %w6, i64 17
  %w7 = add i64 %u7, %v
  %u8 = div i64 %w7, i64 19
  %w8 = add i64 %u8, %v
  %u9 = div i64 %w8, i64 23
  %w9 = add i64 %u9, %v
  %u10 = div i64 %w9, i64 7
  %w10 = add i64 %u10, %v
  %u11 = div i64 %w10, i64 3
  %w11 = add i64 %u11, %v
  %u12 = div i64 %w11, i64 5
  %w12 = add i64 %u12, %v
  %u13 = div i64 %w12, i64 9
  %w13 = add i64 %u13, %v
  %u14 = div i64 %w13, i64 11
  %w14 = add i64 %u14, %v
  %u15 = div i64 %w14, i64 13
  %w15 = add i64 %u15, %v
  %u16 = div i64 %w15, i64 2
  %w16 = add i64 %u16, %v
  %u17 = div i64 %w16, i64 17
  %w17 = add i64 %u17, %v
  %u18 = div i64 %w17, i64 19
  %w18 = add i64 %u18, %v
  %u19 = div i64 %w18, i64 23
  %w19 = add i64 %u19, %v
  %s2 = add i64 %s, %w19
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 4096)
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  %x = mul i64 %i, i64 37
  %y = and i64 %x, i64 255
  store i64 %y, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 512
  condbr %c, fill, done
done:
  %s = call i64 @kernel(%buf, i64 512)
  ret %s
}
}
"#;

#[test]
fn dswp_queue_traffic_is_recognized_as_mediation() {
    let mut n = noelle_for(DSWP_DEMO);
    run_registered_tool(&mut n, "dswp").expect("dswp parallelizes the demo");
    let races = detect_races(&mut n);
    let printed = print_module(n.module());
    assert!(
        printed.contains("noelle.queue.push") && printed.contains("noelle.queue.pop"),
        "demo should exercise inter-stage queues:\n{printed}"
    );
    assert!(
        races.is_empty(),
        "queue-connected stages must not be flagged:\n{}",
        render_text(&races)
    );
}

// ---------------------------------------------------------------------------
// Determinism: the JSON report is byte-identical across independent runs.
// ---------------------------------------------------------------------------

#[test]
fn json_report_is_byte_identical_across_runs() {
    let src = std::fs::read_to_string(racy_repro_path()).expect("racy corpus exists");
    let render = || {
        let mut n = noelle_for(&src);
        let findings = run_checks(&mut n, "all").expect("known check");
        render_json(&findings).to_string_compact()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "lint JSON must be deterministic");
    assert!(a.contains("\"NL0001\""), "report carries the race code");
    assert!(a.contains("\"summary\""), "report carries the summary");
}

// ---------------------------------------------------------------------------
// Satellite passes each fire on a purpose-built module.
// ---------------------------------------------------------------------------

/// First store to `%a` is dead (overwritten before any load); `%dead` is an
/// unused pure instruction; `@g` has an unreachable block.
const PASSES_DEMO: &str = r#"
module "passesdemo" {
define i64 @f() {
entry:
  %a = alloca i64, i64 1
  store i64 i64 1, %a
  store i64 i64 2, %a
  %v = load i64, %a
  %dead = mul i64 %v, i64 3
  ret %v
}
define i64 @g() {
entry:
  ret i64 0
orphan:
  ret i64 1
}
}
"#;

#[test]
fn dead_store_and_hygiene_passes_fire() {
    let mut n = noelle_for(PASSES_DEMO);
    let dead = run_checks(&mut n, "dead-stores").expect("known check");
    assert_eq!(
        dead.len(),
        1,
        "exactly the overwritten store:\n{}",
        render_text(&dead)
    );
    assert_eq!(dead[0].code, "NL0002");
    assert_eq!(dead[0].loc.function, "f");

    let hyg = run_checks(&mut n, "hygiene").expect("known check");
    let codes: Vec<&str> = hyg.iter().map(|f| f.code).collect();
    assert!(
        codes.contains(&"NL0005"),
        "unreachable block flagged: {codes:?}"
    );
    assert!(
        codes.contains(&"NL0006"),
        "unused pure inst flagged: {codes:?}"
    );
    assert!(!has_errors(&hyg), "hygiene findings are not errors");
}

/// The dispatcher initializes env slot 3 but no task member ever reads it.
const ENV_SLOT_DEMO: &str = r#"
module "envslots" {
define void @w(i64* %env, i64 %task_id, i64 %n_tasks) {
entry:
  %v0 = gep i64, %env, i64 0
  %v1 = load i64, %v0
  ret void
}
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %a0, i64* %a1, i64 %a2)
define i64 @main() {
entry:
  %env = alloca i64, i64 8
  %p0 = gep i64, %env, i64 0
  store i64 i64 1, %p0
  %p3 = gep i64, %env, i64 3
  store i64 i64 7, %p3
  call void @noelle.task.dispatch(@w, %env, i64 2)
  ret i64 0
}
}
"#;

#[test]
fn unused_env_slot_is_flagged_and_read_only_task_is_race_free() {
    let mut n = noelle_for(ENV_SLOT_DEMO);
    let env = run_checks(&mut n, "env-slots").expect("known check");
    assert_eq!(
        env.len(),
        1,
        "exactly the slot-3 store:\n{}",
        render_text(&env)
    );
    assert_eq!(env[0].code, "NL0003");
    assert_eq!(env[0].loc.function, "main");
    assert!(
        detect_races(&mut n).is_empty(),
        "read-only task has no races"
    );
}

/// A pure defined callee invoked with loop-invariant arguments inside a loop.
const HOIST_DEMO: &str = r#"
module "hoistdemo" {
define i64 @h(i64 %x) {
entry:
  %v0 = mul i64 %x, %x
  ret %v0
}
define i64 @f(i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %v = call i64 @h(i64 5)
  %acc = add i64 %i, %v
  %i2 = add i64 %acc, i64 1
  br header
exit:
  ret i64 0
}
}
"#;

#[test]
fn loop_invariant_pure_call_gets_a_hoist_hint() {
    let mut n = noelle_for(HOIST_DEMO);
    let hints = run_checks(&mut n, "hoistable-calls").expect("known check");
    assert_eq!(
        hints.len(),
        1,
        "exactly the call to @h:\n{}",
        render_text(&hints)
    );
    assert_eq!(hints[0].code, "NL0004");
    assert_eq!(hints[0].severity, Severity::Hint);
    assert_eq!(hints[0].loc.function, "f");
}

// ---------------------------------------------------------------------------
// Framework plumbing: the registry is coherent and bad names are rejected.
// ---------------------------------------------------------------------------

#[test]
fn check_registry_is_coherent_and_rejects_unknown_names() {
    let ps = passes();
    assert!(ps.len() >= 5, "race detector plus four satellite passes");
    let mut codes: Vec<&str> = ps.iter().map(|p| p.code()).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), ps.len(), "lint codes must be unique");
    for p in &ps {
        assert!(
            check_usage().contains(p.name()),
            "usage string must list {}",
            p.name()
        );
    }

    let mut n = noelle_for(PASSES_DEMO);
    let err = run_checks(&mut n, "no-such-check").expect_err("unknown check rejected");
    assert!(
        err.contains("no-such-check"),
        "error names the bad check: {err}"
    );
}
