//! End-to-end tests of the `noelle-fuzz` subsystem wired to the real tool
//! registry — the same composition the `noelle-fuzz` binary uses: generate
//! seed-driven modules, differential-check every pipeline transform,
//! dynamically validate the PDG, and shrink failures into repros.

use std::path::PathBuf;

use noelle::core::noelle::Noelle;
use noelle::ir::parser::parse_module;
use noelle::ir::verifier::verify_module;
use noelle::runtime::{run_module, RtError, RunConfig};
use noelle_fuzz::driver::{run_campaign, FuzzConfig};
use noelle_fuzz::generator::GenConfig;
use noelle_fuzz::oracle::{FuzzTool, PIPELINE};
use noelle_fuzz::reducer::{reduce, DEFAULT_MAX_ROUNDS};
use noelle_tools::registry::{self, ToolOptions};

fn pipeline_tools() -> Vec<FuzzTool> {
    registry::tools()
        .iter()
        .filter(|t| PIPELINE.contains(&t.name))
        .map(|t| {
            let run = t.run;
            FuzzTool::new(t.name, move |n: &mut Noelle| {
                run(n, &ToolOptions { cores: Some(3) })
            })
        })
        .collect()
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("fuzz")
}

#[test]
fn fuzz_campaign_over_the_registry_pipeline_is_clean_and_deterministic() {
    let cfg = FuzzConfig {
        seeds: 25,
        corpus_dir: Some(corpus_dir()),
        persist: false, // never write into the repo from a test
        gen: GenConfig {
            max_kernels: 2,
            size_budget: 100,
            min_n: 4,
            max_n: 16,
        },
        ..FuzzConfig::default()
    };
    let a = run_campaign(&cfg, &pipeline_tools());
    assert!(a.ok(), "campaign found violations:\n{}", a.render());
    assert!(a.corpus_replayed >= 1, "checked-in corpus should replay");
    assert!(a.deps_checked > 0, "PDG-soundness oracle should fire");
    let b = run_campaign(&cfg, &pipeline_tools());
    assert_eq!(a.render(), b.render(), "campaigns must be deterministic");
}

/// The unreduced form of the checked-in type-confusion repro: an indirect
/// call through a lying function-pointer cast, padded with unrelated work.
/// The verifier accepts it (indirect callees are unchecked), and the
/// runtime used to abort the whole process on it (`as_i` on a float).
const TYPE_CONFUSION_FULL: &str = r#"
module "type_confusion" {
define f64 @f() {
entry:
  ret f64 1.5
}
define i64 @main() {
entry:
  %slot = alloca i64, i64 1
  %junk = alloca i64, i64 8
  %fi = ptrtoint fn f64()* @f to i64
  store i64 %fi, %slot
  %x = add i64 i64 40, i64 2
  %p = gep i64, %junk, i64 3
  store i64 %x, %p
  %raw = load i64, %slot
  %fp = inttoptr i64 %raw to fn i64()*
  %v = call i64 %fp()
  %y = load i64, %p
  %r = add i64 %v, %y
  ret %r
}
}
"#;

fn confuses_types(m: &noelle::ir::Module) -> bool {
    if verify_module(m).is_err() {
        return false;
    }
    matches!(
        run_module(m, "main", &[], &RunConfig::default()),
        Err(RtError::TypeConfusion(_))
    )
}

#[test]
fn type_confusion_is_reported_and_minimizes_to_the_checked_in_repro() {
    let full = parse_module(TYPE_CONFUSION_FULL).expect("parses");
    verify_module(&full).expect("verifier accepts the lying cast");
    assert!(confuses_types(&full), "runtime must report, not abort");

    let (min, stats) = reduce(&full, &confuses_types, DEFAULT_MAX_ROUNDS);
    assert!(confuses_types(&min), "minimized repro must still reproduce");
    assert!(
        stats.insts_after < stats.insts_before,
        "the padding must shrink away: {stats:?}"
    );

    let checked_in = std::fs::read_to_string(corpus_dir().join("type_confusion.min.nir"))
        .expect("corpus repro exists");
    assert_eq!(
        noelle::ir::printer::print_module(&min),
        checked_in,
        "checked-in repro should be exactly the reducer's output"
    );
}

/// Maintenance helper, not part of the suite: regenerate the checked-in
/// minimized repro from the full reproducer. Run with
/// `cargo test --test fuzz_subsystem regenerate -- --ignored`.
#[test]
#[ignore]
fn regenerate_type_confusion_corpus_file() {
    let full = parse_module(TYPE_CONFUSION_FULL).expect("parses");
    let (min, _) = reduce(&full, &confuses_types, DEFAULT_MAX_ROUNDS);
    std::fs::create_dir_all(corpus_dir()).expect("mkdir corpus");
    std::fs::write(
        corpus_dir().join("type_confusion.min.nir"),
        noelle::ir::printer::print_module(&min),
    )
    .expect("write repro");
}

#[test]
fn corpus_repros_replay_as_reported_errors_not_aborts() {
    // Replaying the corpus with the full pipeline must be clean: repros
    // whose baseline errors (like type confusion) are skipped — which is
    // the point: the runtime reports them instead of killing the process.
    let cfg = FuzzConfig {
        seeds: 0,
        corpus_dir: Some(corpus_dir()),
        persist: false,
        ..FuzzConfig::default()
    };
    let summary = run_campaign(&cfg, &pipeline_tools());
    assert!(summary.ok(), "corpus violations:\n{}", summary.render());
    assert!(summary.corpus_replayed >= 1);
}
