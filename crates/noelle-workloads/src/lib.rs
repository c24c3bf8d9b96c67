//! # noelle-workloads
//!
//! The benchmark corpus standing in for the paper's 41 benchmarks from SPEC
//! CPU2017, PARSEC 3.0, and MiBench (DESIGN.md documents the substitution).
//! Each workload is a synthetic program named after its counterpart whose
//! loop/memory/call structure mimics the original's qualitative character:
//!
//! - PARSEC-like programs are loop-centric with hot, often parallelizable
//!   kernels (maps, reductions, stencils, Monte-Carlo draws);
//! - MiBench-like programs mix small kernels with bit-twiddling sequential
//!   recurrences (`crc32` and `sha` stay sequential — the paper calls out
//!   crc as resisting its parallelizers);
//! - SPEC-like programs are dominated by sequential chains with only small
//!   parallel fractions, which is why the paper reports just 1–5% speedups
//!   there.
//!
//! Every workload also carries a couple of uncalled helper functions so the
//! §4.5 dead-function-elimination experiment has something to find.

pub mod kernels;

use noelle_ir::Module;

/// Benchmark suite a workload imitates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// PARSEC 3.0-like.
    Parsec,
    /// MiBench-like.
    MiBench,
    /// SPEC CPU2017-like.
    Spec,
}

impl Suite {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Parsec => "PARSEC",
            Suite::MiBench => "MiBench",
            Suite::Spec => "SPEC CPU2017",
        }
    }
}

/// The kernel shapes a workload is assembled from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Kernel {
    MapLight,
    MapHeavy,
    SumLight,
    SumHeavy,
    Min,
    FSum,
    Stencil,
    SeqChain,
    Hist,
    Scratch,
    Monte,
    Branchy,
    CallWork,
    Indirect,
    Pipe,
    SeqChainHeavy,
    BankScratch,
}

/// One synthetic benchmark.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name (after the benchmark it imitates).
    pub name: &'static str,
    /// Suite it belongs to.
    pub suite: Suite,
    /// Array length driving the problem size.
    pub n: i64,
    /// Kernels composing the program, called in order from `main`.
    pub kernels: &'static [Kernel],
    /// How many times `main` repeats the kernel sequence (sequential-heavy
    /// programs use more passes so input preparation stays cold).
    pub passes: usize,
}

impl Workload {
    /// Materialize the workload as an IR module (deterministic).
    pub fn build(&self) -> Module {
        let mut m = Module::new(self.name);
        let mut fids = Vec::new();
        for (k, kind) in self.kernels.iter().enumerate() {
            let name = format!("kernel{k}");
            let fid = match kind {
                Kernel::MapLight => kernels::add_map(&mut m, &name, false),
                Kernel::MapHeavy => kernels::add_map(&mut m, &name, true),
                Kernel::SumLight => kernels::add_sum(&mut m, &name, false),
                Kernel::SumHeavy => kernels::add_sum(&mut m, &name, true),
                Kernel::Min => kernels::add_min(&mut m, &name),
                Kernel::FSum => kernels::add_fsum(&mut m, &name),
                Kernel::Stencil => kernels::add_stencil(&mut m, &name),
                Kernel::SeqChain => kernels::add_seq_chain(&mut m, &name),
                Kernel::Hist => kernels::add_hist(&mut m, &name),
                Kernel::Scratch => kernels::add_scratch(&mut m, &name),
                Kernel::Monte => kernels::add_monte(&mut m, &name),
                Kernel::Branchy => kernels::add_branchy(&mut m, &name),
                Kernel::CallWork => kernels::add_call_work(&mut m, &name),
                Kernel::Indirect => kernels::add_indirect(&mut m, &name),
                Kernel::Pipe => kernels::add_pipe(&mut m, &name),
                Kernel::SeqChainHeavy => kernels::add_seq_chain_heavy(&mut m, &name),
                Kernel::BankScratch => kernels::add_bank_scratch(&mut m, &name, 16, 10),
            };
            fids.push(fid);
        }
        kernels::add_dead_functions(&mut m, 2, 1);
        kernels::add_main(&mut m, &fids, self.n, self.passes, self.n == 512);
        m
    }
}

use Kernel::*;

/// The full 41-benchmark corpus.
pub fn all() -> Vec<Workload> {
    let w = |name, suite, n, kernels| Workload {
        name,
        suite,
        n,
        kernels,
        passes: if suite == Suite::Spec { 3 } else { 1 },
    };
    let wp = |name, suite, n, kernels, passes| Workload {
        name,
        suite,
        n,
        kernels,
        passes,
    };
    vec![
        // ------------------------- PARSEC-like (13) ------------------------
        w("blackscholes", Suite::Parsec, 512, &[FSum, MapHeavy][..]),
        w("bodytrack", Suite::Parsec, 384, &[Monte, MapLight]),
        wp("canneal", Suite::Parsec, 384, &[Hist, SeqChain][..], 2),
        w("dedup", Suite::Parsec, 384, &[Hist, SumLight]),
        w("facesim", Suite::Parsec, 448, &[Stencil, FSum]),
        w("ferret", Suite::Parsec, 320, &[Indirect, SumHeavy]),
        w("fluidanimate", Suite::Parsec, 512, &[Stencil, MapLight]),
        w("freqmine", Suite::Parsec, 384, &[Hist, SumHeavy]),
        w("raytrace", Suite::Parsec, 448, &[FSum, Pipe]),
        w("streamcluster", Suite::Parsec, 512, &[Min, MapHeavy]),
        w("swaptions", Suite::Parsec, 448, &[SumHeavy, Monte]),
        w("vips", Suite::Parsec, 512, &[MapHeavy, MapLight]),
        w("x264", Suite::Parsec, 384, &[Branchy, MapLight]),
        // ------------------------- MiBench-like (14) -----------------------
        w("basicmath", Suite::MiBench, 384, &[FSum]),
        w("bitcount", Suite::MiBench, 512, &[SumLight, MapLight]),
        w("qsort", Suite::MiBench, 320, &[CallWork, SumLight]),
        w("susan", Suite::MiBench, 448, &[MapHeavy, Branchy]),
        w("jpeg", Suite::MiBench, 384, &[MapHeavy, Hist]),
        w("dijkstra", Suite::MiBench, 384, &[Min, SumLight]),
        w("patricia", Suite::MiBench, 320, &[Hist, SumLight]),
        w("stringsearch", Suite::MiBench, 384, &[Branchy, SumLight]),
        w("blowfish", Suite::MiBench, 384, &[MapLight, SeqChain]),
        wp("sha", Suite::MiBench, 448, &[SeqChain, SumLight][..], 2),
        wp("crc32", Suite::MiBench, 512, &[SeqChain][..], 3),
        w("fft", Suite::MiBench, 448, &[FSum, Stencil]),
        wp("adpcm", Suite::MiBench, 448, &[SeqChain, MapLight][..], 2),
        w("gsm", Suite::MiBench, 384, &[SeqChain, SumHeavy]),
        // ------------------------ SPEC-like (14) ---------------------------
        w("perlbench", Suite::Spec, 448, &[SeqChainHeavy, MapLight]),
        w("mcf", Suite::Spec, 448, &[SeqChainHeavy, Min]),
        w("omnetpp", Suite::Spec, 384, &[SeqChainHeavy, CallWork]),
        w("xalancbmk", Suite::Spec, 384, &[SeqChainHeavy, Hist]),
        w("deepsjeng", Suite::Spec, 448, &[SeqChainHeavy, Branchy]),
        w("leela", Suite::Spec, 384, &[SeqChainHeavy, Monte]),
        w("exchange2", Suite::Spec, 448, &[SeqChainHeavy, SumLight]),
        w("xz", Suite::Spec, 512, &[SeqChainHeavy, SeqChain, SumLight]),
        w("bwaves", Suite::Spec, 448, &[SeqChainHeavy, SumLight]),
        w("cactuBSSN", Suite::Spec, 448, &[SeqChainHeavy, MapLight]),
        w(
            "lbm",
            Suite::Spec,
            512,
            &[SeqChainHeavy, SeqChain, MapLight],
        ),
        w("imagick", Suite::Spec, 448, &[SeqChainHeavy, MapLight]),
        w("nab", Suite::Spec, 384, &[SeqChainHeavy, SumLight]),
        w("wrf", Suite::Spec, 448, &[SeqChainHeavy, Scratch]),
    ]
}

/// The compilation-scale stress workload: an order of magnitude more memory
/// instructions than anything in the 41-benchmark corpus (which mirrors the
/// paper and stays fixed). Bundled for the PDG scaling bench and the
/// parallel-determinism tests, which need a workload where dependence
/// analysis is the dominant cost.
pub fn pdg_stress() -> Workload {
    Workload {
        name: "pdg_stress",
        suite: Suite::Parsec,
        n: 256,
        kernels: &[
            BankScratch,
            BankScratch,
            BankScratch,
            BankScratch,
            MapHeavy,
            Stencil,
            Hist,
            SumHeavy,
        ],
        passes: 1,
    }
}

/// What `workload:all` names to the report tools: every workload of [`all`]
/// and [`pdg_stress`], built, beside its name.
pub fn built_suite() -> Vec<(String, Module)> {
    all()
        .into_iter()
        .chain(std::iter::once(pdg_stress()))
        .map(|w| (w.name.to_string(), w.build()))
        .collect()
}

/// Synthetic compilation-scale module: `n_funcs` defined functions built by
/// cycling the corpus kernel shapes, grouped under per-group caller functions
/// (32 kernels per group) so `main` stays small and the call graph is
/// realistically hierarchical. Deterministic for a given `(n_funcs, seed)` —
/// the seed drives an xorshift64 stream that picks each kernel's shape.
///
/// This is the `workload:scale:N` input: the 41-benchmark corpus
/// mirrors the paper and stays fixed at tens of functions, while the CSR /
/// sharded-solver work targets modules 3–4 orders of magnitude larger.
pub fn scale_module(n_funcs: usize, seed: u64) -> Module {
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::inst::BinOp;
    use noelle_ir::types::Type;
    use noelle_ir::value::Value;

    const GROUP: usize = 32;
    let n_funcs = n_funcs.max(3);
    // Defined functions = kernels + group callers + main, exactly n_funcs:
    // fix the group count first, then the kernel count falls out.
    let g = (n_funcs - 1).div_ceil(GROUP + 1);
    let k = n_funcs - 1 - g;
    let per_group = k.div_ceil(g);

    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut m = Module::new("scale");
    let mut fids = Vec::with_capacity(k);
    for i in 0..k {
        let name = format!("k{i}");
        // Weighted toward the banked-scratch shape: it is the regime the
        // PDG's base-object bucketing targets (all-pairs pays quadratic
        // alias queries, bucketing proves the banks disjoint up front), so
        // the scale bench spends its instructions where dependence analysis
        // is the dominant cost — like `pdg_stress`, but per function.
        let fid = match next() % 8 {
            0 => kernels::add_map(&mut m, &name, false),
            1 => kernels::add_sum(&mut m, &name, false),
            2 => kernels::add_bank_scratch(&mut m, &name, 16, 3),
            3 => kernels::add_stencil(&mut m, &name),
            4 => kernels::add_bank_scratch(&mut m, &name, 8, 4),
            5 => kernels::add_hist(&mut m, &name),
            6 => kernels::add_scratch(&mut m, &name),
            _ => kernels::add_bank_scratch(&mut m, &name, 12, 3),
        };
        fids.push(fid);
    }

    let mut groups = Vec::with_capacity(g);
    for (gi, chunk) in fids.chunks(per_group).enumerate() {
        let mut b =
            FunctionBuilder::new(&format!("group{gi}"), kernels::kernel_params(), Type::I64);
        let e = b.entry_block();
        b.switch_to(e);
        let (a, bb, n) = (b.arg(0), b.arg(1), b.arg(2));
        let mut sum = Value::const_i64(0);
        for &fid in chunk {
            let r = b.call(fid, vec![a, bb, n], Type::I64);
            sum = b.binop(BinOp::Add, Type::I64, sum, r);
        }
        b.ret(Some(sum));
        groups.push(m.add_function(b.finish()));
    }

    kernels::add_main(&mut m, &groups, 64, 1, false);
    m
}

/// The workloads of one suite.
pub fn suite(s: Suite) -> Vec<Workload> {
    all().into_iter().filter(|w| w.suite == s).collect()
}

/// Look up one workload by name. Resolves the 41-benchmark corpus plus the
/// bundled `pdg_stress` scaling workload (kept out of [`all`] so the corpus
/// mirrors the paper's benchmark count).
pub fn by_name(name: &str) -> Option<Workload> {
    if name == "pdg_stress" {
        return Some(pdg_stress());
    }
    all().into_iter().find(|w| w.name == name)
}

/// The largest `workload:scale:N` a path may name: the size the daemon is
/// designed for (DESIGN §12). The module is built in the caller's process.
const MAX_SCALE_FUNCTIONS: usize = 100_000;

/// The module `path` names: `workload:scale:N` ([`scale_module`] with N
/// defined functions, seed 42), `workload:NAME` ([`by_name`]), or a `.nir`
/// file. The one resolver of the tools and the daemon.
///
/// # Errors
/// What is wrong with the path: a bad or too large scale size, an unknown
/// workload, a file that cannot be read or does not parse.
pub fn read_module(path: &str) -> Result<Module, String> {
    if let Some(n) = path.strip_prefix("workload:scale:") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad scale size '{n}' (expected a function count)"))?;
        if n > MAX_SCALE_FUNCTIONS {
            return Err(format!(
                "scale size {n} exceeds the limit of {MAX_SCALE_FUNCTIONS} functions"
            ));
        }
        return Ok(scale_module(n, 42));
    }
    if let Some(name) = path.strip_prefix("workload:") {
        return by_name(name)
            .map(|w| w.build())
            .ok_or_else(|| format!("unknown workload '{name}'"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    noelle_ir::parser::parse_module(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_runtime::{run_module, RunConfig};

    #[test]
    fn corpus_has_41_benchmarks_across_three_suites() {
        let ws = all();
        assert_eq!(ws.len(), 41);
        assert_eq!(suite(Suite::Parsec).len(), 13);
        assert_eq!(suite(Suite::MiBench).len(), 14);
        assert_eq!(suite(Suite::Spec).len(), 14);
        // Unique names.
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 41);
        assert!(by_name("crc32").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn every_workload_builds_verifies_and_runs() {
        for w in all() {
            let m = w.build();
            noelle_ir::verifier::verify_module(&m)
                .unwrap_or_else(|e| panic!("{} does not verify: {e}", w.name));
            let r = run_module(&m, "main", &[], &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name));
            assert!(r.ret_i64().is_some(), "{} returned no value", w.name);
            assert!(r.cycles > 1000, "{} did too little work", w.name);
        }
    }

    #[test]
    fn pdg_stress_builds_verifies_and_dwarfs_the_corpus() {
        let m = pdg_stress().build();
        noelle_ir::verifier::verify_module(&m).expect("pdg_stress verifies");
        let r = run_module(&m, "main", &[], &RunConfig::default()).expect("pdg_stress runs");
        assert!(r.ret_i64().is_some());
        let mem_insts = |m: &Module| -> usize {
            m.func_ids()
                .map(|fid| {
                    let f = m.func(fid);
                    f.inst_ids()
                        .into_iter()
                        .filter(|&i| {
                            matches!(
                                f.inst(i),
                                noelle_ir::inst::Inst::Load { .. }
                                    | noelle_ir::inst::Inst::Store { .. }
                            )
                        })
                        .count()
                })
                .sum()
        };
        let stress = mem_insts(&m);
        let largest_corpus = all().iter().map(|w| mem_insts(&w.build())).max().unwrap();
        assert!(
            stress >= 10 * largest_corpus,
            "stress {stress} vs corpus max {largest_corpus}"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let w = by_name("blackscholes").unwrap();
        let a = noelle_ir::printer::print_module(&w.build());
        let b = noelle_ir::printer::print_module(&w.build());
        assert_eq!(a, b);
        let r1 = run_module(&w.build(), "main", &[], &RunConfig::default()).unwrap();
        let r2 = run_module(&w.build(), "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(r1.ret_i64(), r2.ret_i64());
        assert_eq!(r1.cycles, r2.cycles);
    }

    #[test]
    fn scale_module_hits_requested_size_and_verifies() {
        for req in [3, 50, 200] {
            let m = scale_module(req, 7);
            noelle_ir::verifier::verify_module(&m)
                .unwrap_or_else(|e| panic!("scale_module({req}) does not verify: {e}"));
            let defined = m
                .func_ids()
                .filter(|&fid| !m.func(fid).is_declaration())
                .count();
            assert_eq!(defined, req, "scale_module({req}) made {defined} functions");
        }
        // Deterministic for a fixed (n_funcs, seed); seed changes the mix.
        let a = noelle_ir::printer::print_module(&scale_module(50, 7));
        let b = noelle_ir::printer::print_module(&scale_module(50, 7));
        assert_eq!(a, b);
        let c = noelle_ir::printer::print_module(&scale_module(50, 8));
        assert_ne!(a, c);
        // The generated program actually runs.
        let r = run_module(&scale_module(50, 7), "main", &[], &RunConfig::default())
            .expect("scale module runs");
        assert!(r.ret_i64().is_some());
    }

    #[test]
    fn one_resolver_names_workloads_scale_modules_and_files() -> Result<(), String> {
        let print = noelle_ir::printer::print_module;
        let scale = read_module("workload:scale:100")?;
        assert_eq!(print(&scale), print(&scale_module(100, 42)));
        assert_eq!(print(&read_module("workload:crc32")?), {
            let crc32 = by_name("crc32").ok_or("crc32 is a workload")?;
            print(&crc32.build())
        });
        for (path, error) in [
            ("workload:nope", "unknown workload 'nope'"),
            (
                "workload:scale:abc",
                "bad scale size 'abc' (expected a function count)",
            ),
            (
                "workload:scale:100001",
                "scale size 100001 exceeds the limit of 100000 functions",
            ),
        ] {
            assert_eq!(read_module(path).err().as_deref(), Some(error), "{path}");
        }
        let missing = read_module("/nonexistent.nir").err();
        assert!(missing.is_some_and(|e| e.starts_with("/nonexistent.nir: ")));
        Ok(())
    }

    #[test]
    fn workloads_round_trip_through_text() {
        for w in [by_name("crc32").unwrap(), by_name("ferret").unwrap()] {
            let m = w.build();
            let text = noelle_ir::printer::print_module(&m);
            let m2 = noelle_ir::parser::parse_module(&text)
                .unwrap_or_else(|e| panic!("{} does not reparse: {e}", w.name));
            let r1 = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
            let r2 = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
            assert_eq!(r1.ret_i64(), r2.ret_i64());
        }
    }
}
