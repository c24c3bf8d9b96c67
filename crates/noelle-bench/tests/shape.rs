//! Shape tests: the qualitative claims of the paper's evaluation must hold
//! on the reproduction — who wins, in which direction, and roughly by how
//! much. (Absolute numbers differ: our substrate is a simulator.)

use noelle_bench::*;
use noelle_workloads::Suite;

#[test]
fn fig3_noelle_disproves_more_dependences() {
    let rows = fig3_dependences();
    assert_eq!(rows.len(), 41);
    let (mut total, mut llvm, mut noelle) = (0usize, 0usize, 0usize);
    for r in &rows {
        // The stack is layered: it can never disprove fewer than its first
        // tier alone.
        assert!(
            r.noelle_disproved >= r.llvm_disproved,
            "{}: NOELLE disproved {} < LLVM {}",
            r.bench,
            r.noelle_disproved,
            r.llvm_disproved
        );
        total += r.total;
        llvm += r.llvm_disproved;
        noelle += r.noelle_disproved;
    }
    assert!(total > 0);
    // Figure 3's headline: the state-of-the-art stack disproves strictly
    // more in aggregate, by a visible margin.
    assert!(
        noelle as f64 >= llvm as f64 * 1.1,
        "aggregate: NOELLE {noelle} vs LLVM {llvm} of {total}"
    );
}

#[test]
fn fig4_algorithm2_finds_more_invariants() {
    let rows = fig4_invariants();
    let (mut llvm, mut noelle) = (0usize, 0usize);
    for r in &rows {
        assert!(
            r.noelle >= r.llvm,
            "{}: Algorithm 2 found {} < Algorithm 1's {}",
            r.bench,
            r.noelle,
            r.llvm
        );
        llvm += r.llvm;
        noelle += r.noelle;
    }
    // "NOELLE detects significantly more invariants than LLVM".
    assert!(
        noelle as f64 >= llvm as f64 * 1.5,
        "NOELLE {noelle} vs LLVM {llvm}"
    );
    assert!(noelle > 0);
}

#[test]
fn iv_counts_match_the_shape_asymmetry() {
    let rows = iv_counts();
    let (mut llvm, mut noelle) = (0usize, 0usize);
    for r in &rows {
        llvm += r.llvm;
        noelle += r.noelle;
    }
    // Paper: 11 vs 385 — while-shaped loops defeat the LLVM-style analysis.
    // Our corpus is while-dominated too, so the ratio must be large.
    assert!(
        noelle >= llvm * 10,
        "governing IVs: NOELLE {noelle} vs LLVM {llvm}"
    );
    assert!(noelle >= 41, "at least one governing IV per benchmark");
}

#[test]
fn fig5_shape_noelle_beats_conservative_baseline() {
    // A fast slice of Figure 5: a handful of benchmarks at 4 cores.
    let cores = 4;
    let rows: Vec<Fig5Row> = speedups(&[Suite::Parsec, Suite::MiBench], cores)
        .into_iter()
        .filter(|r| {
            ["blackscholes", "streamcluster", "vips", "crc32", "fft"].contains(&r.bench.as_str())
        })
        .collect();
    assert_eq!(rows.len(), 5);
    for r in &rows {
        let autopar = r.speedups["autopar"];
        let best = ["doall", "helix", "dswp", "perspective"]
            .iter()
            .map(|k| r.speedups[*k])
            .fold(1.0f64, f64::max);
        assert!(
            !best.is_nan() && !autopar.is_nan(),
            "{}: NaN speedup (semantics violated)",
            r.bench
        );
        // The gcc/icc stand-in gets (essentially) nothing.
        assert!(autopar <= 1.05, "{}: autopar {autopar}", r.bench);
        match r.bench.as_str() {
            // crc's sequential chain resists parallelization (paper calls
            // this out); only its input preparation speeds up a little.
            "crc32" => assert!(best < 1.6, "crc32 best {best}"),
            // The compute-heavy kernels must see real speedups.
            _ => assert!(best > 1.5, "{}: best {best}", r.bench),
        }
        assert!(best >= autopar, "{}: {best} < {autopar}", r.bench);
    }
}

#[test]
fn spec_speedups_are_small_but_positive() {
    let rows = speedups(&[Suite::Spec], 4);
    assert_eq!(rows.len(), 14);
    let mut positive = 0;
    for r in &rows {
        let best = ["doall", "helix", "dswp", "perspective"]
            .iter()
            .map(|k| r.speedups[*k])
            .fold(1.0f64, f64::max);
        let autopar = r.speedups["autopar"];
        assert!(autopar <= 1.05, "{}: autopar {autopar}", r.bench);
        // §4.4: speedups exist but are small — the sequential chains bound
        // them well below the parallel suites' numbers.
        assert!(
            best < 1.4,
            "{}: {best} too large for a SPEC-like program",
            r.bench
        );
        if best > 1.005 {
            positive += 1;
        }
    }
    assert!(positive >= 10, "only {positive} SPEC benchmarks improved");
}

#[test]
fn binary_size_reduction_present_everywhere() {
    let rows = binary_size();
    assert_eq!(rows.len(), 41);
    for r in &rows {
        assert!(r.after < r.before, "{}: DEAD removed nothing", r.bench);
    }
    let avg = rows.iter().map(|r| r.reduction()).sum::<f64>() / rows.len() as f64;
    // Paper: 6.3% average. Same order of magnitude here.
    assert!(avg > 0.02 && avg < 0.20, "average reduction {avg}");
}

#[test]
fn table4_every_abstraction_serves_multiple_tools() {
    let usage = table4_usage();
    assert_eq!(usage.len(), 10);
    // The paper's point: high heterogeneity, yet every abstraction is used
    // by more than one custom tool.
    const COLS: [&str; 18] = [
        "PDG", "aSCCDAG", "CG", "ENV", "T", "DFE", "PRO", "SCD", "L", "LB", "IV", "IVS", "INV",
        "FR", "ISL", "RD", "AR", "LS",
    ];
    for c in COLS {
        let n = usage.iter().filter(|(_, used)| used.contains(&c)).count();
        assert!(n >= 2, "abstraction {c} used by only {n} tool(s)");
    }
    // And the parallelizers are the heaviest consumers.
    let helix = usage.iter().find(|(t, _)| *t == "HELIX").unwrap();
    assert!(helix.1.len() >= 12, "HELIX used only {:?}", helix.1);
}

#[test]
fn ablation_full_stack_parallelizes_at_least_as_much() {
    let (basic, full) = ablation_alias_tier(4);
    assert!(full >= basic, "full {full} < basic {basic}");
    assert!(full > 0);
}

#[test]
fn every_file_tables_1_to_3_list_exists() {
    // A table reads every file it lists or names the one it could not.
    for (table, counted) in [
        ("Table 1", table1_loc().map(|rows| rows.len())),
        ("Table 2", table2_loc().map(|rows| rows.len())),
        ("Table 3", table3_loc().map(|rows| rows.len())),
    ] {
        assert!(matches!(counted, Ok(n) if n > 0), "{table}: {counted:?}");
    }
}

#[test]
fn loc_tables_are_nonempty_and_in_band() {
    let t1: usize = table1_loc().expect("table 1").iter().map(|r| r.loc).sum();
    assert!(t1 > 3000, "abstraction layer suspiciously small: {t1}");
    let t2: usize = table2_loc().expect("table 2").iter().map(|r| r.loc).sum();
    assert!(t2 > 300, "tools suspiciously small: {t2}");
    for r in table3_loc().expect("table 3") {
        assert!(r.ours > 0, "{}: no source measured", r.tool);
        // Table 3's claim transfers: every NOELLE-based tool is far below
        // its LLVM-only size (paper's LLVM column), PERS excepted.
        if r.tool != "PERS" {
            assert!(
                r.ours < r.paper_llvm,
                "{}: ours {} not smaller than paper's LLVM-only {}",
                r.tool,
                r.ours,
                r.paper_llvm
            );
        }
    }
}
