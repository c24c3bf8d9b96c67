//! Campaign driver: corpus replay, fresh-seed fuzzing, failure
//! persistence, and minimization.
//!
//! [`run_campaign`] is the engine behind the `noelle-fuzz` binary in
//! `noelle-tools`:
//!
//! 1. **Replay** every `*.nir` module under the corpus directory (sorted by
//!    file name) through the oracle. A replay that fails is a violation —
//!    either a regression or an unfixed known bug; a replay that skips
//!    (e.g. a baseline runtime error such as the checked-in type-confusion
//!    repro) is fine, since skipping proves the runtime reported the error
//!    instead of aborting.
//! 2. **Fuzz** fresh seeds `seed_start .. seed_start + seeds`, stopping
//!    early if the optional wall-clock budget runs out.
//! 3. **Persist + minimize** each failing seed: the original module is
//!    written to `seed-<n>-<tool>.nir`, then shrunk with
//!    [`crate::reducer::reduce`] under a [`crate::oracle::fails_like`]
//!    predicate and written to `seed-<n>-<tool>.min.nir`.
//!
//! The [`CampaignSummary::render`] output contains no timing data, so two
//! runs with the same flags over the same corpus are byte-for-byte
//! identical — CI asserts on this.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use noelle_ir::parser::parse_module;
use noelle_ir::printer::print_module;

use crate::generator::{generate, GenConfig};
use crate::oracle::{check_module, fails_like, Failure, FuzzTool, Outcome, DEFAULT_MAX_STEPS};
use crate::reducer::{reduce, DEFAULT_MAX_ROUNDS};

/// Step budget used while *reducing* a failure. Mutated candidates can
/// loop forever (e.g. a zeroed loop increment); a tight budget rejects
/// them quickly without affecting which candidates are accepted.
const REDUCE_MAX_STEPS: u64 = 200_000;

/// Configuration for one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of fresh seeds to run.
    pub seeds: u64,
    /// First seed (campaigns are resumable / shardable by seed range).
    pub seed_start: u64,
    /// Optional wall-clock budget; the seed loop stops once exceeded.
    pub time_budget_ms: Option<u64>,
    /// The interpreter's step budget per oracle run.
    pub max_steps: u64,
    /// Directory of persisted repros to replay (and to write new ones).
    pub corpus_dir: Option<PathBuf>,
    /// Write failing seeds + minimized repros into `corpus_dir`.
    pub persist: bool,
    /// Generator shape/size configuration.
    pub gen: GenConfig,
    /// Bound on reducer rounds per failure.
    pub reduce_rounds: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seeds: 100,
            seed_start: 0,
            time_budget_ms: None,
            max_steps: DEFAULT_MAX_STEPS,
            corpus_dir: None,
            persist: false,
            gen: GenConfig::default(),
            reduce_rounds: DEFAULT_MAX_ROUNDS,
        }
    }
}

/// One failing seed, with where its repro files went.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The generator seed that produced the failing module.
    pub seed: u64,
    /// The first oracle failure for that seed.
    pub failure: Failure,
    /// Path of the persisted original module, if persistence was on.
    pub persisted: Option<PathBuf>,
    /// Path of the persisted minimized module, if reduction succeeded.
    pub minimized: Option<PathBuf>,
    /// `(before, after)` instruction counts from the reducer.
    pub reduced_insts: Option<(usize, usize)>,
}

/// Deterministic summary of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Corpus modules replayed.
    pub corpus_replayed: usize,
    /// Corpus replays that failed the oracle (file name + detail).
    pub corpus_violations: Vec<String>,
    /// Fresh seeds executed before any early stop.
    pub seeds_run: u64,
    /// Seeds whose module passed every oracle.
    pub passed: u64,
    /// Seeds skipped (baseline runtime error — not a differential result).
    pub skipped: u64,
    /// Failing seeds, in seed order.
    pub seed_failures: Vec<SeedFailure>,
    /// Observed dynamic dependences checked against the static PDG.
    pub deps_checked: usize,
    /// Passing seeds whose applied plan simulated slower than the baseline:
    /// a number to watch, not a failure.
    pub plans_slower: u64,
    /// Whether the wall-clock budget ended the seed loop early.
    pub stopped_early: bool,
}

impl CampaignSummary {
    /// A campaign is OK when nothing failed (skips are fine).
    pub fn ok(&self) -> bool {
        self.corpus_violations.is_empty() && self.seed_failures.is_empty()
    }

    /// Render the summary as stable text: no timing data, so identical
    /// campaigns render identically byte-for-byte.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "corpus: {} replayed, {} violations",
            self.corpus_replayed,
            self.corpus_violations.len()
        );
        for v in &self.corpus_violations {
            let _ = writeln!(s, "  VIOLATION {v}");
        }
        let _ = writeln!(
            s,
            "seeds: {} run, {} passed, {} skipped, {} failed",
            self.seeds_run,
            self.passed,
            self.skipped,
            self.seed_failures.len()
        );
        let _ = writeln!(s, "deps checked against PDG: {}", self.deps_checked);
        let _ = writeln!(
            s,
            "applied plans slower than baseline: {}",
            self.plans_slower
        );
        if self.stopped_early {
            let _ = writeln!(s, "stopped early: time budget exhausted");
        }
        for f in &self.seed_failures {
            let tool = f.failure.tool.as_deref().unwrap_or("oracle");
            let _ = writeln!(
                s,
                "  FAIL seed {} [{}] {}: {}",
                f.seed, tool, f.failure.kind, f.failure.detail
            );
            if let Some(p) = &f.persisted {
                let _ = writeln!(s, "    repro: {}", p.display());
            }
            if let (Some(p), Some((before, after))) = (&f.minimized, f.reduced_insts) {
                let _ = writeln!(
                    s,
                    "    minimized: {} ({} -> {} insts)",
                    p.display(),
                    before,
                    after
                );
            }
        }
        let _ = writeln!(s, "result: {}", if self.ok() { "OK" } else { "FAILED" });
        s
    }
}

/// Replay every `*.nir` under `dir` (sorted by file name), recording
/// violations into `summary`.
fn replay_corpus(
    dir: &PathBuf,
    tools: &[FuzzTool],
    cfg: &FuzzConfig,
    summary: &mut CampaignSummary,
) {
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "nir"))
            .collect(),
        Err(_) => return, // no corpus yet
    };
    entries.sort();
    for path in entries {
        summary.corpus_replayed += 1;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                summary
                    .corpus_violations
                    .push(format!("{name}: unreadable: {e}"));
                continue;
            }
        };
        let m = match parse_module(&text) {
            Ok(m) => m,
            Err(e) => {
                summary
                    .corpus_violations
                    .push(format!("{name}: does not parse: {e}"));
                continue;
            }
        };
        match check_module(&m, tools, cfg.max_steps) {
            Outcome::Fail { failures } => {
                let f = &failures[0];
                let tool = f.tool.as_deref().unwrap_or("oracle");
                summary
                    .corpus_violations
                    .push(format!("{name}: [{tool}] {}: {}", f.kind, f.detail));
            }
            Outcome::Pass { deps_checked, .. } => summary.deps_checked += deps_checked,
            Outcome::Skip { .. } => {} // reported error instead of aborting: fine
        }
    }
}

/// Persist the failing module and a minimized repro for `seed`.
fn persist_failure(
    seed: u64,
    m: &noelle_ir::module::Module,
    failure: &Failure,
    tools: &[FuzzTool],
    cfg: &FuzzConfig,
    dir: &PathBuf,
) -> (Option<PathBuf>, Option<PathBuf>, Option<(usize, usize)>) {
    let tool = failure.tool.as_deref().unwrap_or("oracle");
    let stem = format!("seed-{seed}-{tool}");
    if std::fs::create_dir_all(dir).is_err() {
        return (None, None, None);
    }
    let full = dir.join(format!("{stem}.nir"));
    if std::fs::write(&full, print_module(m)).is_err() {
        return (None, None, None);
    }

    let max_steps = cfg.max_steps.min(REDUCE_MAX_STEPS);
    let pred = |c: &noelle_ir::module::Module| fails_like(c, tools, max_steps, failure);
    let (min, stats) = reduce(m, &pred, cfg.reduce_rounds);
    let min_path = dir.join(format!("{stem}.min.nir"));
    if std::fs::write(&min_path, print_module(&min)).is_err() {
        return (Some(full), None, None);
    }
    (
        Some(full),
        Some(min_path),
        Some((stats.insts_before, stats.insts_after)),
    )
}

/// Run a campaign: replay the corpus, then fuzz fresh seeds.
pub fn run_campaign(cfg: &FuzzConfig, tools: &[FuzzTool]) -> CampaignSummary {
    let start = Instant::now();
    let mut summary = CampaignSummary::default();

    if let Some(dir) = &cfg.corpus_dir {
        replay_corpus(dir, tools, cfg, &mut summary);
    }

    for seed in cfg.seed_start..cfg.seed_start.saturating_add(cfg.seeds) {
        if let Some(budget) = cfg.time_budget_ms {
            if start.elapsed().as_millis() as u64 > budget {
                summary.stopped_early = true;
                break;
            }
        }
        summary.seeds_run += 1;
        let m = generate(seed, &cfg.gen);
        match check_module(&m, tools, cfg.max_steps) {
            Outcome::Pass {
                deps_checked,
                plan_slower,
                ..
            } => {
                summary.passed += 1;
                summary.deps_checked += deps_checked;
                summary.plans_slower += u64::from(plan_slower);
            }
            Outcome::Skip { .. } => summary.skipped += 1,
            Outcome::Fail { failures } => {
                let failure = failures[0].clone();
                let (persisted, minimized, reduced_insts) = match &cfg.corpus_dir {
                    Some(dir) if cfg.persist => {
                        persist_failure(seed, &m, &failure, tools, cfg, dir)
                    }
                    _ => (None, None, None),
                };
                summary.seed_failures.push(SeedFailure {
                    seed,
                    failure,
                    persisted,
                    minimized,
                    reduced_insts,
                });
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::Noelle;
    use noelle_ir::inst::Terminator;
    use noelle_ir::value::Value;
    use noelle_ir::verifier::verify_module;

    fn small_cfg() -> FuzzConfig {
        FuzzConfig {
            seeds: 10,
            gen: GenConfig {
                max_kernels: 1,
                size_budget: 60,
                min_n: 4,
                max_n: 10,
            },
            ..FuzzConfig::default()
        }
    }

    fn breaker() -> FuzzTool {
        FuzzTool::new("breaker", |n: &mut Noelle| {
            let fid = n.module().func_id_by_name("main").expect("main exists");
            n.edit(|tx| {
                let f = tx.func_mut(fid);
                for b in f.block_order().to_vec() {
                    if let Some(Terminator::Ret(Some(_))) = f.terminator(b) {
                        f.set_terminator(b, Terminator::Ret(Some(Value::const_i64(-12345))));
                    }
                }
            });
            Ok("broke main".into())
        })
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("noelle-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch dir");
        d
    }

    #[test]
    fn clean_campaign_is_ok_and_renders_deterministically() {
        let cfg = small_cfg();
        let a = run_campaign(&cfg, &[]);
        let b = run_campaign(&cfg, &[]);
        assert!(a.ok(), "clean campaign failed:\n{}", a.render());
        assert_eq!(a.seeds_run, 10);
        assert!(a.deps_checked > 0, "the PDG-soundness oracle should fire");
        assert_eq!(a.render(), b.render(), "summary must be deterministic");
    }

    #[test]
    fn failing_seeds_are_persisted_and_minimized() {
        let dir = scratch_dir("persist");
        let cfg = FuzzConfig {
            seeds: 2,
            corpus_dir: Some(dir.clone()),
            persist: true,
            reduce_rounds: 4,
            ..small_cfg()
        };
        let summary = run_campaign(&cfg, &[breaker()]);
        assert!(!summary.ok());
        assert_eq!(summary.seed_failures.len(), 2);
        for f in &summary.seed_failures {
            let full = f.persisted.as_ref().expect("original persisted");
            let min = f.minimized.as_ref().expect("minimized persisted");
            let min_m =
                parse_module(&std::fs::read_to_string(min).expect("read min")).expect("parse min");
            assert!(verify_module(&min_m).is_ok());
            let (before, after) = f.reduced_insts.expect("reducer stats");
            assert!(after <= before);
            assert!(full.exists());
        }

        // Replaying that corpus with the same broken tool reports every
        // repro (original + minimized) as a violation...
        let replay = run_campaign(
            &FuzzConfig {
                seeds: 0,
                persist: false,
                ..cfg.clone()
            },
            &[breaker()],
        );
        assert_eq!(replay.corpus_replayed, 4);
        assert_eq!(replay.corpus_violations.len(), 4);

        // ...and with the bug "fixed" (no tools), the corpus replays clean.
        let fixed = run_campaign(
            &FuzzConfig {
                seeds: 0,
                persist: false,
                ..cfg
            },
            &[],
        );
        assert!(fixed.ok(), "fixed replay not ok:\n{}", fixed.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_corpus_entries_are_violations() {
        let dir = scratch_dir("garbage");
        std::fs::write(dir.join("bad.nir"), "this is not IR").expect("write garbage");
        let cfg = FuzzConfig {
            seeds: 0,
            corpus_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let summary = run_campaign(&cfg, &[]);
        assert_eq!(summary.corpus_replayed, 1);
        assert_eq!(summary.corpus_violations.len(), 1);
        assert!(summary.corpus_violations[0].contains("does not parse"));
        assert!(!summary.ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn time_budget_stops_the_seed_loop() {
        let cfg = FuzzConfig {
            seeds: 1_000_000,
            time_budget_ms: Some(0),
            ..small_cfg()
        };
        let summary = run_campaign(&cfg, &[]);
        assert!(summary.stopped_early);
        assert!(summary.seeds_run < 1_000_000);
    }
}
