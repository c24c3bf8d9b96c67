//! End-to-end tests of the parallelism auditor: each checked-in corpus
//! exemplar must produce exactly its NL01xx blocker category with the
//! intended resolution hint, the interprocedural attribution must reach the
//! call site in `@main` that creates the aliasing, the whole-workload audit
//! must match the checked-in golden JSON byte-for-byte, and — the contract
//! the fuzz oracle enforces seed-by-seed — no verdict across the 42-workload
//! suite may be a false "clean": every clean verdict survives actually
//! running the transform, every blocked verdict names at least one concrete
//! instruction carrying a hint.

use std::path::PathBuf;

use noelle::analysis::scev::{affine_recurrences, AddRec};
use noelle::core::json::Json;
use noelle::core::loop_abs::LoopAbstraction;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::loops::{LoopForest, LoopInfo};
use noelle::ir::module::{FuncId, Module};
use noelle::ir::parser::parse_module;
use noelle::ir::verifier::verify_module;
use noelle::transforms::common::{emit, gate, outline, GateBuffers, Parallelizer};
use noelle::transforms::{LoopTargetOpts, ParallelizeError};
use noelle_fuzz::generator::{generate, GenConfig};
use noelle_lint::audit::{BlockerKind, Hint, ModuleAudit, TechniqueAudit, AUDIT_WORKERS};
use noelle_lint::{audit_code, audit_findings, run_audit};
use noelle_server::{Client, Server, ServerConfig};

fn corpus_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("audit")
        .join(file)
}

fn audit_corpus(file: &str) -> (Noelle, ModuleAudit) {
    let src = std::fs::read_to_string(corpus_path(file)).expect("audit corpus exists");
    let m = parse_module(&src).expect("corpus module parses");
    let mut n = Noelle::new(m, AliasTier::Full);
    let audit = run_audit(&mut n);
    (n, audit)
}

/// The kernel loop's verdict for `t` — every exemplar puts its loop in
/// `@kernel`.
fn kernel_verdict(audit: &ModuleAudit, t: Parallelizer) -> &TechniqueAudit {
    let l = audit
        .loops
        .iter()
        .find(|l| l.function == "kernel")
        .expect("exemplar has a loop in @kernel");
    l.verdict(t)
}

/// Assert the exemplar's kernel loop is blocked for `t` by exactly the
/// expected category/hint, and that the NL01xx finding surfaces through the
/// lint rendering pipeline.
fn assert_exemplar(file: &str, t: Parallelizer, kind: BlockerKind, hint: Hint) {
    let (n, audit) = audit_corpus(file);
    let v = kernel_verdict(&audit, t);
    assert!(
        !v.clean(),
        "{file}: {} must be blocked, got clean",
        t.as_str()
    );
    let b = v
        .blockers
        .iter()
        .find(|b| b.kind == kind)
        .unwrap_or_else(|| {
            panic!(
                "{file}: expected a {} blocker, got {:?}",
                kind.as_str(),
                v.blockers.iter().map(|b| b.kind).collect::<Vec<_>>()
            )
        });
    assert_eq!(
        b.hint,
        hint,
        "{file}: {} should resolve via {}, got {}",
        kind.as_str(),
        hint.as_str(),
        b.hint.as_str()
    );
    assert!(!b.detail.is_empty(), "{file}: blocker carries specifics");

    let code = audit_code(kind);
    let findings = audit_findings(n.module(), &audit);
    assert!(
        findings
            .iter()
            .any(|f| f.code == code && f.loc.function == "kernel"),
        "{file}: diagnostics must carry {code} on @kernel, got {:?}",
        findings.iter().map(|f| f.code).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// One exemplar per blocker category, asserting the exact code + hint.
// ---------------------------------------------------------------------------

#[test]
fn carried_dep_exemplar_is_nl0101_with_reduction_hint() {
    assert_exemplar(
        "carried_dep.nir",
        Parallelizer::Doall,
        BlockerKind::CarriedMemoryDep,
        Hint::Reduction,
    );
}

#[test]
fn unproven_alias_exemplar_is_nl0102_with_speculate_hint() {
    assert_exemplar(
        "unproven_alias.nir",
        Parallelizer::Doall,
        BlockerKind::UnprovenAlias,
        Hint::Speculate,
    );
}

#[test]
fn escaping_induction_exemplar_is_nl0103_with_restructure_hint() {
    assert_exemplar(
        "escaping_induction.nir",
        Parallelizer::Doall,
        BlockerKind::EscapingInduction,
        Hint::Restructure,
    );
}

#[test]
fn impure_call_exemplar_is_nl0104_with_queue_mediate_hint() {
    assert_exemplar(
        "impure_call.nir",
        Parallelizer::Doall,
        BlockerKind::ImpureCall,
        Hint::QueueMediate,
    );
}

#[test]
fn dswp_cyclic_exemplar_is_nl0106_with_speculate_hint() {
    assert_exemplar(
        "dswp_cyclic.nir",
        Parallelizer::Dswp,
        BlockerKind::CyclicSccSpan,
        Hint::Speculate,
    );
}

// ---------------------------------------------------------------------------
// Interprocedural attribution: the unproven-alias blocker must point past
// the kernel, at the @main call site whose actuals alias, and name the
// abstract heap object behind the failed query.
// ---------------------------------------------------------------------------

#[test]
fn unproven_alias_attribution_reaches_the_main_call_site() {
    let (n, audit) = audit_corpus("unproven_alias.nir");
    let v = kernel_verdict(&audit, Parallelizer::Doall);
    let b = v
        .blockers
        .iter()
        .find(|b| b.kind == BlockerKind::UnprovenAlias)
        .expect("unproven-alias blocker present");
    assert!(
        !b.objects.is_empty(),
        "alias blocker names the points-to objects behind the failed query"
    );
    let cross_fns: Vec<&str> = b
        .cross
        .iter()
        .map(|(fid, _)| n.module().func(*fid).name.as_str())
        .collect();
    assert!(
        cross_fns.contains(&"main"),
        "attribution must reach the aliasing call site in @main, got {cross_fns:?}"
    );
}

// ---------------------------------------------------------------------------
// Determinism: the audit JSON is byte-identical across independent builds.
// ---------------------------------------------------------------------------

#[test]
fn audit_json_is_byte_identical_across_runs() {
    let render = || {
        let (_, audit) = audit_corpus("unproven_alias.nir");
        audit.to_json().to_string_compact()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "audit JSON must be deterministic");
    assert!(a.contains("\"unproven-alias\""));
    // And a re-audit over the manager's warm analyses says the same.
    let (mut n, _) = audit_corpus("unproven_alias.nir");
    let warm = run_audit(&mut n).to_json().to_string_compact();
    assert_eq!(a, warm, "re-audit on a warm manager must be deterministic");
}

// ---------------------------------------------------------------------------
// Golden diff: the checked-in whole-suite audit must match a fresh run,
// constructed exactly as `noelle-lint workload:all --audit --format json`
// builds it.
// ---------------------------------------------------------------------------

fn workloads_all() -> Vec<(String, noelle::ir::module::Module)> {
    noelle::workloads::all()
        .into_iter()
        .chain(std::iter::once(noelle::workloads::pdg_stress()))
        .map(|w| (w.name.to_string(), w.build()))
        .collect()
}

#[test]
fn workload_audit_matches_checked_in_golden() {
    let audits: Vec<(String, Json)> = workloads_all()
        .into_iter()
        .map(|(name, m)| {
            let mut n = Noelle::new(m, AliasTier::Full);
            (name, run_audit(&mut n).to_json())
        })
        .collect();
    assert_eq!(audits.len(), 42, "the full suite plus pdg_stress");
    let fresh = noelle::core::json::envelope(
        "audit",
        Json::object([("audits".to_string(), Json::object(audits))]),
    )
    .to_string_pretty();
    let golden = std::fs::read_to_string(corpus_path("golden_workloads.json"))
        .expect("golden audit JSON is checked in");
    assert_eq!(
        fresh.trim(),
        golden.trim(),
        "workload audit diverges from tests/corpus/audit/golden_workloads.json; \
         regenerate with `noelle-lint workload:all --audit --format json` if the \
         change is intentional"
    );
}

// ---------------------------------------------------------------------------
// Zero false "clean" across the suite: every clean verdict's recipe must
// emit on exactly the audited loop and leave a module that verifies, and
// every blocked verdict must name at least one concrete instruction with a
// hint.
// (Behavioral equivalence of the transformed modules is the differential
// fuzz oracle's job — every `noelle-fuzz` campaign — so this sweep stops at
// "applies and verifies".)
// ---------------------------------------------------------------------------

#[test]
fn no_false_clean_verdicts_across_all_workloads() {
    let mut clean_checked = 0usize;
    let mut blocked_checked = 0usize;
    for (name, m) in workloads_all() {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        let audit = run_audit(&mut n);
        for la in &audit.loops {
            let loop_name = format!("{name} @{}:{}", la.function, la.header_name);
            for v in &la.verdicts {
                let Ok(recipe) = &v.outcome else {
                    blocked_checked += 1;
                    assert!(
                        !v.blockers.is_empty(),
                        "{loop_name}: blocked {} verdict names no blocker",
                        v.technique.as_str()
                    );
                    for b in &v.blockers {
                        assert!(
                            !b.detail.is_empty(),
                            "{loop_name}: blocker without specifics"
                        );
                        assert!(
                            audit_code(b.kind).starts_with("NL01"),
                            "{loop_name}: blocker outside the NL01xx series"
                        );
                    }
                    continue;
                };
                clean_checked += 1;
                // The recipe, emitted on a copy of the audited module: what
                // `apply_plan` emits for a loop the plan chose.
                let mut tn = Noelle::new(m.clone(), AliasTier::Full);
                let workers = workers_for(v.technique);
                tn.edit(|tx| {
                    let tm = tx.module_touching([la.fid]);
                    emit(tm, la.fid, &la.abstraction, recipe, workers)
                })
                .unwrap_or_else(|e| {
                    panic!(
                        "{loop_name}: clean {} verdict but the recipe does not emit: {e}",
                        v.technique.as_str()
                    )
                });
                let tm = tn.into_module();
                verify_module(&tm).unwrap_or_else(|e| {
                    panic!(
                        "{loop_name}: clean {} verdict, transformed module rejects: {e:?}",
                        v.technique.as_str()
                    )
                });
            }
        }
    }
    assert!(
        clean_checked >= 30 && blocked_checked >= 30,
        "the suite must exercise both directions (clean {clean_checked}, \
         blocked {blocked_checked})"
    );
}

/// Worker count each technique is exercised at: the auditor judges DSWP as
/// the canonical two-stage pipeline.
fn workers_for(t: Parallelizer) -> usize {
    match t {
        Parallelizer::Dswp => AUDIT_WORKERS,
        _ => LoopTargetOpts::default().workers,
    }
}

// ---------------------------------------------------------------------------
// gate ⇒ emit: a gate that says `Ok` has made every decision, so the emitter
// it hands its recipe to cannot fail mid-rewrite (an edit does not roll
// back: a late `Err` would leave a half-outlined task function behind). And
// a gate that refuses is the auditor's verdict, attributed by the refusal's
// variant — never by comparing its text.
// ---------------------------------------------------------------------------

/// The loop `outline` hands the emit steps, and the loop's recurrences
/// mapped into the clone, against what a loop forest rebuilt on the task
/// function finds: the reference for what the emitters no longer compute.
fn assert_outlined_loop_is_the_rebuilt_one(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    loop_name: &str,
) {
    let mut m = m.clone();
    let task = outline(&mut m, fid, la, "outlined.task".to_string())
        .unwrap_or_else(|e| panic!("{loop_name}: a single-exit loop outlines: {e}"));
    let tf = m.func(task.fid);
    let cfg = Cfg::new(tf);
    let dt = DomTree::new(tf, &cfg);
    let forest = LoopForest::new(tf, &cfg, &dt);
    let &[top] = forest.top_level() else {
        panic!(
            "{loop_name}: the task holds {} outermost loops",
            forest.top_level().len()
        );
    };
    let rebuilt = forest.loop_info(top);
    let shape = |l: &LoopInfo| {
        let edges = l.exit_edges.clone();
        (
            l.header,
            l.latches.clone(),
            l.blocks.clone(),
            l.preheader,
            edges,
        )
    };
    assert_eq!(
        shape(&task.structure),
        shape(rebuilt),
        "{loop_name}: the outliner's loop"
    );
    let mapped: Vec<AddRec> = la
        .ivs
        .ivs
        .iter()
        .map(|iv| task.clone_rec(&iv.rec))
        .collect();
    assert_eq!(
        mapped,
        affine_recurrences(tf, rebuilt),
        "{loop_name}: the clone's recurrences"
    );
}

/// Loop shapes the suite and the generator lack: recurrences that start
/// and step at live-ins (one counting down), a loop with two latches, and
/// a nest.
const OUTLINE_SHAPES: &str = r#"
module "outline_shapes" {
define void @strided(i64* %a, i64 %lo, i64 %n, i64 %s) {
entry:
  br header
header:
  %i = phi i64 [entry: %lo] [body: %i2]
  %j = phi i64 [entry: %n] [body: %j2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  store i64 %j, %p
  %i2 = add i64 %i, %s
  %j2 = sub i64 %j, i64 1
  br header
exit:
  ret void
}
define void @two_latches(i64* %a, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [even: %i2] [odd: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %i2 = add i64 %i, i64 1
  %b = and i64 %i, i64 1
  %z = icmp eq i64 %b, i64 0
  condbr %z, even, odd
even:
  %p = gep i64, %a, %i
  store i64 %i, %p
  br header
odd:
  br header
exit:
  ret void
}
define void @nest(i64* %a, i64 %n) {
entry:
  br outer
outer:
  %i = phi i64 [entry: i64 0] [latch: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, inner, exit
inner:
  %j = phi i64 [outer: i64 0] [inner: %j2]
  %k = mul i64 %i, %n
  %x = add i64 %k, %j
  %p = gep i64, %a, %x
  store i64 %j, %p
  %j2 = add i64 %j, i64 1
  %d = icmp slt i64 %j2, %n
  condbr %d, inner, latch
latch:
  %i2 = add i64 %i, i64 1
  br outer
exit:
  ret void
}
}
"#;

#[test]
fn gate_ok_means_emit_ok_and_refusals_attribute_by_variant() {
    let cfg = GenConfig::default();
    let shapes = parse_module(OUTLINE_SHAPES).expect("the shapes parse");
    let corpus = workloads_all()
        .into_iter()
        .chain(std::iter::once(("outline_shapes".to_string(), shapes)))
        .chain((0..200).map(|seed| (format!("fuzz_{seed}"), generate(seed, &cfg))));
    let (mut emitted, mut refused, mut outlined) = (0usize, 0usize, 0usize);
    for (name, m) in corpus {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        let audit = run_audit(&mut n);
        let arch = n.architecture();
        // One set of gate buffers for every loop, as the audit keeps one:
        // what a gate leaves in them must not reach the next verdict.
        let mut gates = GateBuffers::default();
        for laud in &audit.loops {
            let loop_name = format!("{name} @{}:{}", laud.function, laud.header_name);
            let forest = n.loop_forest(laud.fid);
            let l = forest
                .loops()
                .iter()
                .find(|l| l.header == laud.header)
                .expect("audited loop exists");
            let la = n.loop_abstraction(laud.fid, l.id);
            if la.structure().exit_blocks().len() == 1 {
                assert_outlined_loop_is_the_rebuilt_one(&m, laud.fid, &la, &loop_name);
                outlined += 1;
            }
            for p in Parallelizer::AUDITED
                .into_iter()
                .chain([Parallelizer::Perspective])
            {
                let workers = workers_for(p);
                let fresh = gate(p, n.module(), laud.fid, &la, &arch, workers, &mut gates);
                // An audited technique's verdict holds that gate's result,
                // and its recipe is emitted on the abstraction it names;
                // Perspective, which the auditor does not judge, is gated
                // here.
                let verdict = (p != Parallelizer::Perspective).then(|| laud.verdict(p));
                let (outcome, la) = match verdict {
                    Some(v) => {
                        assert_eq!(
                            v.outcome.as_ref().err(),
                            fresh.as_ref().err(),
                            "{loop_name}"
                        );
                        (&v.outcome, &*laud.abstraction)
                    }
                    None => (&fresh, &la),
                };
                match outcome {
                    Ok(recipe) => {
                        emitted += 1;
                        let mut tn = Noelle::new(m.clone(), AliasTier::Full);
                        tn.edit(|tx| {
                            let tm = tx.module_touching([laud.fid]);
                            emit(tm, laud.fid, la, recipe, workers)
                        })
                        .unwrap_or_else(|e| panic!("{loop_name}: {p:?} gate Ok, emit: {e}"));
                        verify_module(tn.module()).unwrap_or_else(|e| {
                            panic!("{loop_name}: {p:?} gate Ok, emitted module rejects: {e:?}")
                        });
                    }
                    Err(e) => {
                        refused += 1;
                        let Some(v) = verdict else { continue };
                        use BlockerKind::*;
                        let expected: &[BlockerKind] = match e {
                            ParallelizeError::CarriedDependences => &[
                                CarriedMemoryDep,
                                UnprovenAlias,
                                EscapingInduction,
                                ImpureCall,
                            ],
                            ParallelizeError::UnsupportedLiveOut(_) => &[UnsupportedLiveOut],
                            ParallelizeError::Segments { .. } => &[SequentialSegment],
                            ParallelizeError::Stages(_) => &[CyclicSccSpan],
                            ParallelizeError::NoGoverningIv | ParallelizeError::Shape(_) => {
                                &[LoopShape]
                            }
                        };
                        // `LoopShape` is also the anchor of last resort when
                        // a specialized attribution finds nothing to name.
                        assert!(
                            v.blockers
                                .iter()
                                .all(|b| expected.contains(&b.kind) || b.kind == LoopShape),
                            "{loop_name}: {e:?} attributed as {:?}",
                            v.blockers
                        );
                    }
                }
            }
        }
    }
    assert!(
        emitted >= 100 && refused >= 100,
        "the corpus must exercise both directions (emitted {emitted}, refused {refused})"
    );
    assert!(
        outlined >= 100,
        "only {outlined} single-exit loops outlined"
    );
    // The refusals the auditor attributes specially are variants now.
    let auditor = include_str!("../crates/noelle-lint/src/audit.rs");
    for text in [
        "unbracketably sequential",
        "mostly sequential",
        "sequential segment dominates",
        "fewer than two pipeline stages",
        "backward cross-stage dependence",
        "loop control depends on memory",
        "communicated value defined in the loop header",
    ] {
        assert!(!auditor.contains(text), "audit.rs still matches {text:?}");
    }
}

// ---------------------------------------------------------------------------
// A refusal carries what its gate found, and the audit renders its blockers
// from that alone: a HELIX segment refusal's groups, an unsupported
// live-out refusal's live-outs.
// ---------------------------------------------------------------------------

#[test]
fn blockers_are_rendered_from_what_the_refusal_carries() {
    use noelle::ir::inst::InstId;
    let (mut segment_refusals, mut liveout_refusals) = (0, 0);
    for (name, m) in workloads_all() {
        let mut n = Noelle::new(m, AliasTier::Full);
        let audit = run_audit(&mut n);
        for laud in &audit.loops {
            let la = &laud.abstraction;
            let sorted_scc = |s: usize| {
                let mut insts = la.sccdag.insts(s).to_vec();
                insts.sort_unstable();
                insts
            };
            for v in &laud.verdicts {
                let at = format!(
                    "{name} @{}:{} {:?}",
                    laud.function, laud.header_name, v.technique
                );
                let anchors: Vec<InstId> = v.blockers.iter().map(|b| b.inst).collect();
                match &v.outcome {
                    Err(ParallelizeError::Segments { why, groups }) => {
                        segment_refusals += 1;
                        // The groups are what HELIX's gate found: inside the
                        // loop, ascending, disjoint, and every sequential SCC
                        // is in one — each one alone when the segments
                        // cannot be bracketed.
                        let mut all: Vec<InstId> = groups.concat();
                        assert!(all.iter().all(|&i| la.pdg.is_internal(i)), "{at}");
                        assert!(groups.iter().all(|g| g.is_sorted()), "{at}");
                        all.sort_unstable();
                        let total = all.len();
                        all.dedup();
                        assert_eq!(all.len(), total, "{at}: groups overlap");
                        let sequential: Vec<Vec<InstId>> =
                            la.sequential_sccs().map(sorted_scc).collect();
                        if *why == "unbracketably sequential" {
                            assert_eq!(groups, &sequential, "{at}");
                        }
                        for scc in &sequential {
                            assert!(scc.iter().all(|i| all.binary_search(i).is_ok()), "{at}");
                        }
                        // One blocker per group, anchored at its first
                        // instruction, naming the rest of it and its size.
                        assert!(!groups.is_empty(), "{at}");
                        assert_eq!(v.blockers.len(), groups.len(), "{at}");
                        for b in &v.blockers {
                            let g = groups
                                .iter()
                                .find(|g| g[0] == b.inst)
                                .unwrap_or_else(|| panic!("{at}: {b:?} anchors no group"));
                            assert_eq!(b.kind, BlockerKind::SequentialSegment, "{at}");
                            assert!(g[1..].starts_with(&b.related), "{at}: {b:?}");
                            let size = format!("segment of {} instruction(s)", g.len());
                            assert!(b.detail.contains(&size), "{at}: {}", b.detail);
                        }
                    }
                    Err(ParallelizeError::UnsupportedLiveOut(live_outs)) => {
                        liveout_refusals += 1;
                        // The live-outs no reduction stands behind, in
                        // environment order, and one blocker each.
                        let unsupported: Vec<InstId> = la
                            .env
                            .live_outs
                            .iter()
                            .filter(|&&(v, _)| la.reduction_of(v).is_none())
                            .filter_map(|(v, _)| v.as_inst())
                            .collect();
                        assert!(!live_outs.is_empty(), "{at}");
                        assert_eq!(live_outs, &unsupported, "{at}");
                        let mut expected = live_outs.clone();
                        expected.sort_unstable();
                        assert_eq!(anchors, expected, "{at}");
                        assert!(
                            v.blockers
                                .iter()
                                .all(|b| b.kind == BlockerKind::UnsupportedLiveOut),
                            "{at}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    // The suite's HELIX refusals are all segment refusals, and DSWP refuses
    // loops for their live-outs (`results/technique_coverage.txt`).
    assert_eq!(segment_refusals, 42);
    assert_eq!(liveout_refusals, 30);
}

// ---------------------------------------------------------------------------
// Coverage: per technique, how many of the suite's loops its gate takes, how
// many of those the planner chooses, and what refuses the rest — a fold over
// the verdicts the audit carries, refusals told apart by variant (ROADMAP
// 2(a)). Checked in as `results/technique_coverage.txt`.
// ---------------------------------------------------------------------------

#[test]
fn technique_coverage_matches_the_checked_in_table() {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Row {
        clean: usize,
        chosen: usize,
        refusals: BTreeMap<(&'static str, String), usize>,
    }
    let opts = noelle_plan::PlanOptions::default();
    let mut rows = Parallelizer::AUDITED.map(|t| (t, Row::default()));
    let suite = workloads_all();
    let (modules, mut loops) = (suite.len(), 0);
    for (_, m) in suite {
        let mut n = Noelle::new(m, AliasTier::Full);
        let audit = run_audit(&mut n);
        let plan = noelle_plan::plan_from_audit(&mut n, &audit, &opts);
        loops += audit.loops.len();
        for (laud, planned) in audit.loops.iter().zip(&plan.loops) {
            for (t, row) in &mut rows {
                row.chosen += usize::from(planned.chosen == Some(*t));
                let refusal = match &laud.verdict(*t).outcome {
                    Ok(_) => {
                        row.clean += 1;
                        continue;
                    }
                    Err(ParallelizeError::Shape(why)) => ("Shape", why.to_string()),
                    Err(ParallelizeError::Segments { why, .. }) => ("Segments", why.to_string()),
                    Err(ParallelizeError::Stages(why)) => ("Stages", why.to_string()),
                    Err(ParallelizeError::NoGoverningIv) => ("NoGoverningIv", String::new()),
                    Err(ParallelizeError::UnsupportedLiveOut(_)) => {
                        ("UnsupportedLiveOut", String::new())
                    }
                    Err(ParallelizeError::CarriedDependences) => {
                        ("CarriedDependences", String::new())
                    }
                };
                *row.refusals.entry(refusal).or_default() += 1;
            }
        }
    }
    let mut table = format!(
        "Technique coverage: the suite and pdg_stress ({modules} modules, {loops} loops), a budget \
         of {} workers\n\
         technique   clean  chosen  refused  (by ParallelizeError variant)\n",
        opts.workers
    );
    for (t, row) in &rows {
        table.push_str(&format!(
            "{:<10} {:>6} {:>7} {:>8}\n",
            t.as_str(),
            row.clean,
            row.chosen,
            loops - row.clean
        ));
        let mut refusals: Vec<_> = row.refusals.iter().collect();
        refusals.sort_by_key(|(key, count)| (std::cmp::Reverse(**count), (*key).clone()));
        for ((variant, why), count) in refusals {
            let sep = if why.is_empty() { "" } else { ": " };
            table.push_str(&format!("{count:>35}  {variant}{sep}{why}\n"));
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/technique_coverage.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if table != golden {
        let actual = concat!(
            env!("CARGO_TARGET_TMPDIR"),
            "/technique_coverage.actual.txt"
        );
        std::fs::write(actual, &table).expect("writes the actual table");
        panic!(
            "technique coverage diverges from {} (actual written to {actual}); copy it over \
             if the change is intentional",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// The daemon's `audit` method: report + diagnostics in one reply, counters
// visible in `stats`.
// ---------------------------------------------------------------------------

#[test]
fn server_audit_method_reports_and_counts() {
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
            "audit",
            Json::object([("session".to_string(), Json::Str("bs".into()))]),
        )
        .expect("audit succeeds");
    let loops = reply
        .get("audit")
        .and_then(|a| a.get("summary"))
        .and_then(|s| s.get("loops"))
        .and_then(Json::as_i64)
        .expect("reply carries the audit summary");
    assert!(loops >= 1, "blackscholes has loops to audit");
    assert!(
        reply.get("diagnostics").is_some(),
        "reply carries the NL01xx findings alongside the report"
    );

    let doc = c.call("stats", Json::object([])).expect("stats");
    let runs = doc
        .get("audit")
        .and_then(|a| a.get("runs"))
        .and_then(Json::as_i64);
    assert_eq!(runs, Some(1), "stats must surface the audit counters");
    let blockers = doc
        .get("audit")
        .and_then(|a| a.get("blockers"))
        .and_then(Json::as_i64)
        .expect("counters carry blocker totals");
    assert!(blockers >= 0);
    server.shutdown_and_join();
}
