//! Every field of a run, pinned: `tests/corpus/runtime/run_results.txt`
//! holds one line per run of the 41 workloads, `pdg_stress` and each
//! program `apply_plan` emits for them. Each program runs once with the
//! default settings and once with profiles and dependence tracing on. A
//! line records `ret`, `cycles`, `dyn_insts` and the counters as they are,
//! and FNV-64 digests of the output, the observed dependences and the
//! profiles beside the globals digest. The file was recorded by the
//! interpreter that kept registers in a hash map per frame; whatever
//! executes programs must reproduce it byte for byte.

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::module::Module;
use noelle::runtime::{run_module, RunConfig, RunResult};
use noelle_plan::{apply_plan, plan_module, PlanOptions};
use std::fmt::Write;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(name: &str, how: &str, r: &RunResult) -> String {
    let mut s = format!(
        "{name} {how}: ret {:?}, cycles {}, dyn_insts {}, counters {{",
        r.ret, r.cycles, r.dyn_insts
    );
    for (k, v) in &r.counters {
        let _ = write!(s, " {k}={v}");
    }
    let output = fnv(r.output.iter().flat_map(|l| l.bytes().chain([b'\n'])));
    let deps = fnv(r.observed_deps.iter().flat_map(|d| {
        [d.func.0, d.src.0, d.dst.0]
            .into_iter()
            .flat_map(u32::to_le_bytes)
    }));
    let profiles = fnv(format!("{:?}", r.profiles).into_bytes());
    let _ = write!(
        s,
        " }}, output {output:016x} ({} lines), deps {deps:016x} ({}), profiles {profiles:016x}, globals {:016x}",
        r.output.len(),
        r.observed_deps.len(),
        r.globals_digest
    );
    s
}

fn runs(name: &str, m: &Module, out: &mut String) {
    let traced = RunConfig {
        collect_profiles: true,
        trace_deps: true,
        ..RunConfig::default()
    };
    for (how, cfg) in [("default", RunConfig::default()), ("traced", traced)] {
        let r = run_module(m, "main", &[], &cfg)
            .unwrap_or_else(|e| panic!("{name} ({how}) fails to run: {e}"));
        out.push_str(&line(name, how, &r));
        out.push('\n');
    }
}

#[test]
fn every_run_reproduces_the_recorded_results() {
    let mut doc = String::new();
    let corpus = noelle::workloads::all()
        .into_iter()
        .chain(std::iter::once(noelle::workloads::pdg_stress()));
    for w in corpus {
        let m = w.build();
        runs(w.name, &m, &mut doc);
        let mut n = Noelle::new(m, AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        apply_plan(&mut n, &plan);
        runs(&format!("{} applied", w.name), n.module(), &mut doc);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/runtime/run_results.txt"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if doc != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/run_results.actual.txt");
        std::fs::write(actual, &doc).expect("writes the actual results");
        let line = doc
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .find(|(a, g)| a != g)
            .map_or("<length differs>", |(a, _)| a);
        panic!("runs diverge from {path} (actual written to {actual}); first difference: {line}");
    }
}
