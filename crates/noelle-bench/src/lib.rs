//! # noelle-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§4). Each experiment is a library function returning
//! structured rows — the `src/bin` printers render them like the paper's
//! tables, the integration tests assert the *shape* claims, and the
//! Criterion benches measure the infrastructure costs. The experiment ↔
//! module map lives in DESIGN.md; paper-vs-measured numbers in
//! EXPERIMENTS.md.

use noelle_analysis::alias::{AliasAnalysis, AliasStack, AndersenAlias, BasicAlias};
use noelle_analysis::modref::ModRefSummaries;
use noelle_analysis::scev::affine_recurrences;
use noelle_core::architecture::Architecture;
use noelle_core::induction::{ivs_llvm, ivs_noelle};
use noelle_core::invariants::{invariants_llvm, invariants_noelle};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::loops::LoopForest;
use noelle_pdg::pdg::{memory_dependence_stats, PdgBuilder};
use noelle_runtime::{run_module, RunConfig};
use noelle_transforms as tools;
use noelle_transforms::common::{parallelize, LoopTargetOpts, Parallelizer};
use noelle_workloads::{all, Suite, Workload};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Figure 3: memory dependences disproved, LLVM tier vs NOELLE tier
// ---------------------------------------------------------------------------

/// One benchmark's Figure 3 data point.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Benchmark name.
    pub bench: String,
    /// Suite label.
    pub suite: &'static str,
    /// Potential memory dependence pairs examined.
    pub total: usize,
    /// Pairs disproved by the basic (LLVM-like) alias tier.
    pub llvm_disproved: usize,
    /// Pairs disproved by the full NOELLE stack (basic + points-to).
    pub noelle_disproved: usize,
}

/// Regenerate Figure 3 over the 41-benchmark corpus.
pub fn fig3_dependences() -> Vec<Fig3Row> {
    all()
        .iter()
        .map(|w| {
            let m = w.build();
            let basic = BasicAlias::new(&m);
            let s_basic = memory_dependence_stats(&m, &basic);
            let andersen = AndersenAlias::new(&m);
            let tiers = [&basic as &dyn AliasAnalysis, &andersen];
            let stack = AliasStack::new(&tiers);
            let s_full = memory_dependence_stats(&m, &stack);
            Fig3Row {
                bench: w.name.to_string(),
                suite: w.suite.name(),
                total: s_basic.total_pairs,
                llvm_disproved: s_basic.disproved,
                noelle_disproved: s_full.disproved,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4: loop invariants, Algorithm 1 vs Algorithm 2
// ---------------------------------------------------------------------------

/// One benchmark's Figure 4 data point.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Benchmark name.
    pub bench: String,
    /// Invariants found by Algorithm 1 (LLVM logic, basic alias tier).
    pub llvm: usize,
    /// Invariants found by Algorithm 2 (PDG-powered).
    pub noelle: usize,
}

/// Regenerate Figure 4: total loop invariants detected per benchmark.
pub fn fig4_invariants() -> Vec<Fig4Row> {
    all()
        .iter()
        .map(|w| {
            let m = w.build();
            // One mod/ref summary + one PDG builder shared by both
            // algorithms: Algorithm 1 consumes the summaries directly and
            // the builder reuses the same Arc instead of recomputing.
            let modref = std::sync::Arc::new(ModRefSummaries::compute(&m));
            let basic = BasicAlias::new(&m);
            let andersen = AndersenAlias::new(&m);
            let tiers = [&basic as &dyn AliasAnalysis, &andersen];
            let stack = AliasStack::new(&tiers);
            let builder = PdgBuilder::new_with_modref(&m, &stack, std::sync::Arc::clone(&modref));
            let (mut n_llvm, mut n_noelle) = (0usize, 0usize);
            for fid in m.func_ids() {
                let f = m.func(fid);
                if f.is_declaration() {
                    continue;
                }
                let cfg = Cfg::new(f);
                let dt = DomTree::new(f, &cfg);
                let forest = LoopForest::new(f, &cfg, &dt);
                let fg = builder.function_pdg(fid);
                for l in forest.loops() {
                    n_llvm += invariants_llvm(&m, fid, l, &dt, &basic, &modref).len();
                    let g = builder.loop_pdg_with(fid, l, &fg, &affine_recurrences(f, l));
                    n_noelle += invariants_noelle(f, l, &g).len();
                }
            }
            Fig4Row {
                bench: w.name.to_string(),
                llvm: n_llvm,
                noelle: n_noelle,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §4.3: governing induction variables, LLVM vs NOELLE
// ---------------------------------------------------------------------------

/// One benchmark's governing-IV counts.
#[derive(Debug, Clone)]
pub struct IvRow {
    /// Benchmark name.
    pub bench: String,
    /// Governing IVs the do-while-only LLVM-style analysis finds.
    pub llvm: usize,
    /// Governing IVs NOELLE's shape-independent analysis finds.
    pub noelle: usize,
}

/// Regenerate the §4.3 governing-IV comparison (paper: 11 vs 385 in total).
pub fn iv_counts() -> Vec<IvRow> {
    all()
        .iter()
        .map(|w| {
            let m = w.build();
            let (mut n_llvm, mut n_noelle) = (0usize, 0usize);
            for fid in m.func_ids() {
                let f = m.func(fid);
                if f.is_declaration() {
                    continue;
                }
                let cfg = Cfg::new(f);
                let dt = DomTree::new(f, &cfg);
                let forest = LoopForest::new(f, &cfg, &dt);
                for l in forest.loops() {
                    n_llvm += usize::from(ivs_llvm(f, l).governing().is_some());
                    let recs = affine_recurrences(f, l);
                    n_noelle += usize::from(ivs_noelle(f, l, &recs).governing().is_some());
                }
            }
            IvRow {
                bench: w.name.to_string(),
                llvm: n_llvm,
                noelle: n_noelle,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5 + §4.4: parallelization speedups
// ---------------------------------------------------------------------------

/// One benchmark's speedups under each parallelizing tool.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark name.
    pub bench: String,
    /// Suite label.
    pub suite: &'static str,
    /// Sequential (clang-stand-in) cycles.
    pub seq_cycles: u64,
    /// Speedup per technique (1.0 = no benefit); keys: `doall`, `helix`,
    /// `dswp`, `autopar` (the gcc/icc stand-in), `perspective`.
    pub speedups: BTreeMap<&'static str, f64>,
}

/// Run the paper's profile-guided compilation flow for one technique on a
/// fresh copy of the workload, then measure simulated cycles.
fn measure_technique(w: &Workload, technique: &str, cores: usize, arch: &Architecture) -> f64 {
    let mut m = w.build();
    // Profile and embed (noelle-prof-coverage + noelle-meta-prof-embed).
    let prof_cfg = RunConfig {
        collect_profiles: true,
        arch: arch.clone(),
        ..RunConfig::default()
    };
    let Ok(seq) = run_module(&m, "main", &[], &prof_cfg) else {
        return 1.0;
    };
    seq.profiles.embed(&mut m);
    arch.clone().embed(&mut m);

    let min_hotness = 0.02;
    let (m2, changed) = match technique {
        "autopar" => {
            let (m2, report) = tools::baseline::conservative_parallelize(m, cores);
            (m2, report.count() > 0)
        }
        _ => {
            let mut noelle = Noelle::new(m, AliasTier::Full);
            // Perspective has always run ungated; DSWP as two stages.
            let (tool, min_hotness, workers) = match technique {
                "doall" => (Parallelizer::Doall, min_hotness, cores),
                "helix" => (Parallelizer::Helix, min_hotness, cores),
                "dswp" => (Parallelizer::Dswp, min_hotness, 2),
                "perspective" => (Parallelizer::Perspective, 0.0, cores),
                other => panic!("unknown technique {other}"),
            };
            let target = LoopTargetOpts {
                min_hotness,
                workers,
            };
            let count = parallelize(&mut noelle, tool, &target).count();
            (noelle.into_module(), count > 0)
        }
    };
    if !changed {
        return 1.0;
    }
    if noelle_ir::verifier::verify_module(&m2).is_err() {
        return f64::NAN; // would be a compiler bug; surfaced by tests
    }
    let run_cfg = RunConfig {
        arch: arch.clone(),
        ..RunConfig::default()
    };
    let Ok(par) = run_module(&m2, "main", &[], &run_cfg) else {
        return f64::NAN;
    };
    // Semantics check: a transformed program must compute the same result.
    if par.ret_i64() != seq.ret_i64() {
        return f64::NAN;
    }
    seq.cycles as f64 / par.cycles as f64
}

/// Regenerate Figure 5 (PARSEC + MiBench) or §4.4 (SPEC) speedups.
pub fn speedups(suites: &[Suite], cores: usize) -> Vec<Fig5Row> {
    let arch = Architecture::synthetic(cores.max(2), 1);
    all()
        .iter()
        .filter(|w| suites.contains(&w.suite))
        .map(|w| {
            let m = w.build();
            let cfg = RunConfig {
                arch: arch.clone(),
                ..RunConfig::default()
            };
            let seq = run_module(&m, "main", &[], &cfg).expect("workload runs");
            let speedups = ["doall", "helix", "dswp", "autopar", "perspective"]
                .into_iter()
                .map(|technique| (technique, measure_technique(w, technique, cores, &arch)))
                .collect();
            Fig5Row {
                bench: w.name.to_string(),
                suite: w.suite.name(),
                seq_cycles: seq.cycles,
                speedups,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §4.5: binary-size reduction by DEAD
// ---------------------------------------------------------------------------

/// One benchmark's DEAD result.
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Benchmark name.
    pub bench: String,
    /// Instruction count before (the binary-size proxy).
    pub before: usize,
    /// Instruction count after dead-function elimination.
    pub after: usize,
}

impl SizeRow {
    /// Fractional reduction.
    pub fn reduction(&self) -> f64 {
        1.0 - self.after as f64 / self.before.max(1) as f64
    }
}

/// Regenerate the §4.5 experiment.
pub fn binary_size() -> Vec<SizeRow> {
    all()
        .iter()
        .map(|w| {
            let m = w.build();
            let mut noelle = Noelle::new(m, AliasTier::Full);
            let report = tools::dead::run(&mut noelle, "main");
            SizeRow {
                bench: w.name.to_string(),
                before: report.insts_before,
                after: report.insts_after,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 4: abstractions used per custom tool
// ---------------------------------------------------------------------------

/// Run every custom tool on a representative workload and record which
/// abstractions it requested from the demand-driven manager.
pub fn table4_usage() -> Vec<(&'static str, Vec<&'static str>)> {
    let run_tool = |tool: &str| -> Vec<&'static str> {
        let w = noelle_workloads::by_name(match tool {
            "PRVJ" => "bodytrack",
            "CARAT" => "fluidanimate",
            "PERS" => "wrf",
            _ => "blackscholes",
        })
        .expect("workload exists");
        let mut noelle = Noelle::new(w.build(), AliasTier::Full);
        match tool {
            "HELIX" => {
                parallelize(&mut noelle, Parallelizer::Helix, &LoopTargetOpts::default());
            }
            "DSWP" => {
                let two_stages = LoopTargetOpts {
                    workers: 2,
                    ..LoopTargetOpts::default()
                };
                parallelize(&mut noelle, Parallelizer::Dswp, &two_stages);
            }
            "DOALL" => {
                parallelize(&mut noelle, Parallelizer::Doall, &LoopTargetOpts::default());
            }
            "CARAT" => {
                tools::carat::run(&mut noelle);
            }
            "COOS" => {
                tools::coos::run(&mut noelle);
            }
            "PRVJ" => {
                tools::prvj::run(&mut noelle);
            }
            "LICM" => {
                tools::licm::run(&mut noelle);
            }
            "TIME" => {
                tools::time::run(&mut noelle);
            }
            "DEAD" => {
                tools::dead::run(&mut noelle, "main");
            }
            "PERS" => {
                let ungated = LoopTargetOpts {
                    min_hotness: 0.0,
                    ..LoopTargetOpts::default()
                };
                parallelize(&mut noelle, Parallelizer::Perspective, &ungated);
            }
            _ => unreachable!(),
        }
        noelle.requested().iter().map(|a| a.short_name()).collect()
    };
    [
        "HELIX", "DSWP", "CARAT", "COOS", "PRVJ", "DOALL", "LICM", "TIME", "DEAD", "PERS",
    ]
    .into_iter()
    .map(|t| (t, run_tool(t)))
    .collect()
}

// ---------------------------------------------------------------------------
// Tables 1–3: lines of code
// ---------------------------------------------------------------------------

/// Lines-of-code row.
#[derive(Debug, Clone)]
pub struct LocRow {
    /// Component name (abstraction / tool).
    pub name: &'static str,
    /// Source files measured, relative to the workspace root.
    pub files: Vec<&'static str>,
    /// Total source lines.
    pub loc: usize,
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Total lines of `files`. A file that cannot be read is an error naming
/// it, so a renamed or deleted file cannot drop out of a table unnoticed.
fn count_loc(files: &[&'static str]) -> Result<usize, String> {
    let root = workspace_root();
    files
        .iter()
        .map(|f| {
            std::fs::read_to_string(root.join(f))
                .map(|t| t.lines().count())
                .map_err(|e| format!("cannot count the lines of {f}: {e}"))
        })
        .sum()
}

/// Regenerate Table 1: LoC per NOELLE abstraction (our Rust measurements).
pub fn table1_loc() -> Result<Vec<LocRow>, String> {
    let rows: Vec<(&'static str, Vec<&'static str>)> = vec![
        (
            "PDG",
            vec![
                "crates/noelle-pdg/src/depgraph.rs",
                "crates/noelle-pdg/src/pdg.rs",
            ],
        ),
        ("aSCCDAG", vec!["crates/noelle-pdg/src/sccdag.rs"]),
        (
            "Call graph (CG)",
            vec!["crates/noelle-pdg/src/callgraph.rs"],
        ),
        ("Environment (ENV)", vec!["crates/noelle-core/src/env.rs"]),
        ("Task (T)", vec!["crates/noelle-core/src/task.rs"]),
        (
            "Data-flow engine (DFE)",
            vec![
                "crates/noelle-analysis/src/dfe.rs",
                "crates/noelle-analysis/src/analyses.rs",
            ],
        ),
        ("Loop structure (LS)", vec!["crates/noelle-ir/src/loops.rs"]),
        ("Profiler (PRO)", vec!["crates/noelle-core/src/profiler.rs"]),
        (
            "Scheduler (SCD)",
            vec!["crates/noelle-core/src/scheduler.rs"],
        ),
        (
            "Invariant (INV)",
            vec!["crates/noelle-core/src/invariants.rs"],
        ),
        (
            "Induction variable (IV)",
            vec![
                "crates/noelle-core/src/induction.rs",
                "crates/noelle-analysis/src/scev.rs",
            ],
        ),
        (
            "IV stepper (IVS)",
            vec!["crates/noelle-core/src/ivstepper.rs"],
        ),
        (
            "Reduction (RD)",
            vec!["crates/noelle-core/src/reduction.rs"],
        ),
        ("Loop (L)", vec!["crates/noelle-core/src/loop_abs.rs"]),
        ("Forest (FR)", vec!["crates/noelle-core/src/forest.rs"]),
        (
            "Loop builder (LB)",
            vec!["crates/noelle-core/src/loop_builder.rs"],
        ),
        ("Islands (ISL)", vec!["crates/noelle-pdg/src/islands.rs"]),
        (
            "Architecture (AR)",
            vec!["crates/noelle-core/src/architecture.rs"],
        ),
        (
            "Others (manager, alias analyses)",
            vec![
                "crates/noelle-core/src/noelle.rs",
                "crates/noelle-analysis/src/alias.rs",
                "crates/noelle-analysis/src/modref.rs",
            ],
        ),
    ];
    rows.into_iter()
        .map(|(name, files)| {
            Ok(LocRow {
                loc: count_loc(&files)?,
                name,
                files,
            })
        })
        .collect()
}

/// Regenerate Table 2: LoC per NOELLE tool, and a row for the code the
/// tools share.
pub fn table2_loc() -> Result<Vec<LocRow>, String> {
    let rows: Vec<(&'static str, Vec<&'static str>)> = vec![
        (
            "noelle-whole-IR",
            vec!["crates/noelle-tools/src/bin/noelle-whole-ir.rs"],
        ),
        (
            "noelle-rm-lc-dependences",
            vec!["crates/noelle-tools/src/bin/noelle-rm-lc-dependences.rs"],
        ),
        (
            "noelle-prof-coverage",
            vec!["crates/noelle-tools/src/bin/noelle-prof-coverage.rs"],
        ),
        (
            "noelle-meta-prof-embed",
            vec!["crates/noelle-tools/src/bin/noelle-meta-prof-embed.rs"],
        ),
        (
            "noelle-meta-pdg-embed",
            vec!["crates/noelle-tools/src/bin/noelle-meta-pdg-embed.rs"],
        ),
        (
            "noelle-meta-clean",
            vec!["crates/noelle-tools/src/bin/noelle-meta-clean.rs"],
        ),
        (
            "noelle-load",
            vec!["crates/noelle-tools/src/bin/noelle-load.rs"],
        ),
        (
            "noelle-arch",
            vec!["crates/noelle-tools/src/bin/noelle-arch.rs"],
        ),
        (
            "noelle-linker",
            vec!["crates/noelle-tools/src/bin/noelle-linker.rs"],
        ),
        (
            "noelle-bin",
            vec!["crates/noelle-tools/src/bin/noelle-bin.rs"],
        ),
        // What every tool shares: the flag parser and the module linker.
        (
            "(shared: flags, linker)",
            vec!["crates/noelle-tools/src/lib.rs"],
        ),
    ];
    rows.into_iter()
        .map(|(name, files)| {
            Ok(LocRow {
                loc: count_loc(&files)?,
                name,
                files,
            })
        })
        .collect()
}

/// A Table 3 row: our measured LoC for the NOELLE-based tool next to the
/// paper's reported numbers.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Tool name.
    pub tool: &'static str,
    /// Paper: LLVM-only implementation LoC.
    pub paper_llvm: usize,
    /// Paper: LLVM+NOELLE implementation LoC.
    pub paper_noelle: usize,
    /// Our measured LoC for the NOELLE-based Rust implementation.
    pub ours: usize,
}

impl Table3Row {
    /// The paper's reported reduction.
    pub fn paper_reduction(&self) -> f64 {
        1.0 - self.paper_noelle as f64 / self.paper_llvm as f64
    }
}

/// Regenerate Table 3 (paper numbers + our measured tool sizes).
pub fn table3_loc() -> Result<Vec<Table3Row>, String> {
    let t = |tool, paper_llvm, paper_noelle, files: Vec<&'static str>| {
        Ok(Table3Row {
            tool,
            paper_llvm,
            paper_noelle,
            ours: count_loc(&files)?,
        })
    };
    [
        t(
            "TIME",
            510,
            92,
            vec!["crates/noelle-transforms/src/time.rs"],
        ),
        t(
            "COOS",
            1641,
            495,
            vec!["crates/noelle-transforms/src/coos.rs"],
        ),
        t(
            "LICM",
            2317,
            170,
            vec!["crates/noelle-transforms/src/licm.rs"],
        ),
        t(
            "DOALL",
            5512,
            321,
            vec!["crates/noelle-transforms/src/doall.rs"],
        ),
        t(
            "DEAD",
            7512,
            61,
            vec!["crates/noelle-transforms/src/dead.rs"],
        ),
        t(
            "DSWP",
            8525,
            775,
            vec!["crates/noelle-transforms/src/dswp.rs"],
        ),
        t(
            "HELIX",
            15453,
            958,
            vec!["crates/noelle-transforms/src/helix.rs"],
        ),
        t(
            "PRVJ",
            17863,
            456,
            vec!["crates/noelle-transforms/src/prvj.rs"],
        ),
        t(
            "CARAT",
            21899,
            595,
            vec!["crates/noelle-transforms/src/carat.rs"],
        ),
        t(
            "PERS",
            33998,
            22706,
            vec!["crates/noelle-transforms/src/perspective.rs"],
        ),
    ]
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------------------
// Ablation: PDG precision vs parallelization coverage
// ---------------------------------------------------------------------------

/// How many loops DOALL parallelizes across the corpus when its PDG is
/// powered by the basic tier vs the full stack — the ablation DESIGN.md
/// calls out (alias precision is what buys parallelism).
pub fn ablation_alias_tier(cores: usize) -> (usize, usize) {
    let mut basic_total = 0;
    let mut full_total = 0;
    for w in all() {
        for (tier, total) in [
            (AliasTier::Basic, &mut basic_total),
            (AliasTier::Full, &mut full_total),
        ] {
            let mut noelle = Noelle::new(w.build(), tier);
            let target = LoopTargetOpts {
                min_hotness: 0.0,
                workers: cores,
            };
            *total += parallelize(&mut noelle, Parallelizer::Doall, &target).count();
        }
    }
    (basic_total, full_total)
}

/// Render rows as a fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&line(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn an_unreadable_file_is_an_error_that_names_it() {
        let loc = super::count_loc(&["crates/noelle-bench/src/lib.rs", "crates/gone.rs"]);
        assert!(loc.is_err_and(|e| e.contains("crates/gone.rs")));
    }
}
