//! The differential oracle: transforms must preserve observable behavior,
//! and the static PDG must cover every runtime-observed memory dependence.

use crate::generator::SplitMix64;
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::inst::{Callee, Inst, InstId, Terminator};
use noelle_ir::module::{FuncId, Function, Module};
use noelle_ir::value::{Constant, Value};
use noelle_ir::verifier::verify_module;
use noelle_runtime::machine::{run_module, RtError, RunConfig, RunResult};
use noelle_runtime::memory::RtVal;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A transform under test. Injected (rather than read from the
/// `noelle-tools` registry) to keep the dependency arrow pointing from the
/// tools crate to this one.
/// Boxed tool runner: transforms the managed module, returns a summary.
type ToolRunner = Box<dyn Fn(&mut Noelle) -> Result<String, String> + Sync>;

pub struct FuzzTool {
    /// Registry name, used in reports and repro filenames.
    pub name: String,
    run: ToolRunner,
}

impl FuzzTool {
    /// Wrap a runner under `name`.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(&mut Noelle) -> Result<String, String> + Sync + 'static,
    ) -> FuzzTool {
        FuzzTool {
            name: name.into(),
            run: Box::new(run),
        }
    }

    /// Apply the tool.
    pub fn run(&self, n: &mut Noelle) -> Result<String, String> {
        (self.run)(n)
    }
}

/// The semantics-preserving pipeline a campaign fuzzes by default, by
/// registry name. The registry's other entries (e.g. `time`, `carat`)
/// instrument or annotate rather than optimize, so comparing their output
/// with the uninstrumented baseline would say nothing.
pub const PIPELINE: &[&str] = &["licm", "dead", "doall", "dswp", "helix", "perspective"];

/// The function every checked module is run from.
const ENTRY: &str = "main";

/// Interpreter step budget per run unless a caller sets its own.
pub const DEFAULT_MAX_STEPS: u64 = 20_000_000;

/// What went wrong, in increasing order of "the compiler is broken".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The input module did not verify (a generator bug, not a compiler bug).
    GeneratorInvalid,
    /// A tool returned `Err`.
    ToolError,
    /// A tool panicked.
    ToolPanic,
    /// The transformed module no longer verifies.
    VerifierReject,
    /// The transformed module errored at runtime though the original ran.
    RunError,
    /// The transformed module panicked the interpreter.
    RunPanic,
    /// Return values differ.
    ReturnMismatch,
    /// `print_*` output traces differ.
    OutputMismatch,
    /// The globals region of final memory differs.
    MemoryMismatch,
    /// A runtime-observed memory dependence is missing from the static PDG.
    UnsoundPdg,
    /// The static race detector flagged the tool's parallelized output.
    RaceFinding,
    /// The incrementally repaired PDG diverged from a from-scratch build
    /// of the transformed module (an invalidation-engine bug).
    IncrementalMismatch,
    /// A durable-store artifact codec failed the encode/decode/re-encode
    /// byte-identity round trip (a partition codec bug).
    StoreRoundTrip,
    /// The parallelism auditor's verdict disagreed with reality: a clean
    /// verdict whose transform refused or miscompiled the loop (a false
    /// "clean" — the unforgivable direction), or a blocked verdict that
    /// names no concrete blocker.
    AuditMismatch,
    /// The parallelization planner misbehaved: two fresh plans of the same
    /// module differed (nondeterminism), or applying the chosen plan
    /// changed observable behavior.
    PlanMismatch,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::GeneratorInvalid => "generator-invalid",
            FailureKind::ToolError => "tool-error",
            FailureKind::ToolPanic => "tool-panic",
            FailureKind::VerifierReject => "verifier-reject",
            FailureKind::RunError => "run-error",
            FailureKind::RunPanic => "run-panic",
            FailureKind::ReturnMismatch => "return-mismatch",
            FailureKind::OutputMismatch => "output-mismatch",
            FailureKind::MemoryMismatch => "memory-mismatch",
            FailureKind::UnsoundPdg => "unsound-pdg",
            FailureKind::RaceFinding => "race-finding",
            FailureKind::IncrementalMismatch => "incremental-mismatch",
            FailureKind::StoreRoundTrip => "store-round-trip",
            FailureKind::AuditMismatch => "audit-mismatch",
            FailureKind::PlanMismatch => "plan-mismatch",
        };
        f.write_str(s)
    }
}

/// One oracle violation.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The tool at fault (`None` for PDG-soundness and generator failures).
    pub tool: Option<String>,
    /// Classification.
    pub kind: FailureKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.tool {
            Some(t) => write!(f, "[{t}] {}: {}", self.kind, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

/// Oracle verdict for one module.
#[derive(Debug)]
pub enum Outcome {
    /// Every tool preserved behavior and every observed dep was covered.
    Pass {
        /// Tools exercised.
        tools_applied: usize,
        /// Observed dependences checked against the PDG.
        deps_checked: usize,
        /// The applied plan simulated slower than the baseline. Counted,
        /// not failed: a generated loop's trip count is the planner's
        /// default guess.
        plan_slower: bool,
    },
    /// The baseline run itself errored (e.g. a checked-in repro whose very
    /// point is a reported runtime error); nothing to differentiate against.
    Skip {
        /// Why the module is not differentiable.
        reason: String,
    },
    /// At least one violation.
    Fail {
        /// All violations found.
        failures: Vec<Failure>,
    },
}

impl Outcome {
    /// True when nothing failed (Skip counts as ok: a reported — not
    /// aborting — baseline error is exactly what repros assert).
    pub fn is_ok(&self) -> bool {
        !matches!(self, Outcome::Fail { .. })
    }
}

/// Return-value fingerprint that compares floats by bit pattern.
fn ret_bits(r: &RunResult) -> Option<(u8, u64)> {
    match r.ret {
        Some(RtVal::I(v)) => Some((0, v as u64)),
        Some(RtVal::F(v)) => Some((1, v.to_bits())),
        None => None,
    }
}

fn run_caught(m: &Module, cfg: &RunConfig) -> Result<Result<RunResult, RtError>, String> {
    catch_unwind(AssertUnwindSafe(|| run_module(m, ENTRY, &[], cfg))).map_err(panic_text)
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Round-trip the durable store's artifact codec over `m`'s analyses: every
/// defined function's PDG partition must encode, decode, and re-encode to
/// identical bytes.
/// Byte-identity (not just structural equality) is what content addressing
/// needs: the same analysis state must always persist as the same payload.
fn store_round_trip_failures(m: &Module) -> Vec<Failure> {
    use noelle_core::noelle::artifact;
    let fail = |what: String| Failure {
        tool: None,
        kind: FailureKind::StoreRoundTrip,
        detail: what,
    };
    let mut failures = Vec::new();
    let mut n = Noelle::new(m.clone(), AliasTier::Full);
    let pdg = n.pdg();
    let mut fids: Vec<_> = pdg.per_function.keys().copied().collect();
    fids.sort();
    for fid in fids {
        let fname = &m.func(fid).name;
        let bytes = artifact::encode_partition(&pdg.per_function[&fid]);
        match artifact::decode_partition(&bytes).map(|d| artifact::encode_partition(&d)) {
            Err(e) => failures.push(fail(format!("@{fname} pdg partition: decode failed: {e}"))),
            Ok(re) if re != bytes => failures.push(fail(format!(
                "@{fname} pdg partition: re-encode diverges ({} vs {} bytes)",
                bytes.len(),
                re.len()
            ))),
            Ok(_) => {}
        }
    }
    failures
}

/// Validate the parallelism auditor's verdicts against reality. For every
/// loop × technique: a *clean* verdict's recipe, emitted on a copy of the
/// audited module — what the planner's `apply_plan` emits — must take, the
/// result must verify, and the differential oracle (return value, output
/// trace, globals digest) must match the baseline. A *blocked* verdict must
/// name at least one instruction-level blocker, each carrying a resolution
/// hint. Any disagreement is an `AuditMismatch`.
fn audit_failures(m: &Module, base: &RunResult, run_cfg: &RunConfig) -> Vec<Failure> {
    use noelle_transforms::common::{emit, LoopTargetOpts};
    let fail = |technique: &str, what: String| Failure {
        tool: Some(format!("audit:{technique}")),
        kind: FailureKind::AuditMismatch,
        detail: what,
    };
    let mut failures = Vec::new();
    let mut n = Noelle::new(m.clone(), AliasTier::Full);
    let audit = noelle_lint::run_audit(&mut n);
    for la in &audit.loops {
        let loop_name = format!("@{}:{}", la.function, la.header_name);
        for v in &la.verdicts {
            let tname = v.technique.as_str();
            let Ok(recipe) = &v.outcome else {
                // Blocked ⇒ concrete attribution. (Hints are statically
                // total on `Blocker`; the check documents the contract.)
                if v.blockers.is_empty() {
                    failures.push(fail(
                        tname,
                        format!("blocked verdict on {loop_name} names no blocker"),
                    ));
                }
                continue;
            };
            // Clean ⇒ the recipe emits on exactly this loop (a pipeline's
            // stage count is the recipe's own)...
            let mut tn = Noelle::new(m.clone(), AliasTier::Full);
            let (fid, workers) = (la.fid, LoopTargetOpts::default().workers);
            let emitted = tn.edit(|tx| {
                emit(
                    tx.module_touching([fid]),
                    fid,
                    &la.abstraction,
                    recipe,
                    workers,
                )
            });
            if let Err(e) = emitted {
                failures.push(fail(
                    tname,
                    format!("clean verdict on {loop_name}, but the recipe does not emit: {e}"),
                ));
                continue;
            }
            // ...and the parallelized module must still behave.
            if let Err(why) = rerun(&tn.into_module(), base, run_cfg) {
                failures.push(fail(
                    tname,
                    format!("clean verdict on {loop_name}, transformed {why}"),
                ));
            }
        }
    }
    failures
}

/// Validate the parallelization planner over `m`. Two properties:
///
/// 1. **Determinism.** Planning the module twice from fresh managers must
///    yield byte-identical JSON reports — the invariant the checked-in
///    golden plans (and any cache keyed on plan content) rest on.
/// 2. **Soundness of application.** Executing the chosen plan through
///    `apply_plan` must produce a module that verifies, runs, and matches
///    the baseline on return value, output trace, and globals digest.
///
/// Also says whether the planned module ran slower than the baseline.
fn plan_failures(m: &Module, base: &RunResult, run_cfg: &RunConfig) -> (Vec<Failure>, bool) {
    use noelle_plan::{apply_plan, plan_module, PlanOptions};
    let fail = |what: String| Failure {
        tool: Some("plan".to_string()),
        kind: FailureKind::PlanMismatch,
        detail: what,
    };
    let mut failures = Vec::new();
    let opts = PlanOptions::default();
    let first = {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        plan_module(&mut n, &opts).to_json().to_string_compact()
    };
    let mut n = Noelle::new(m.clone(), AliasTier::Full);
    let plan = plan_module(&mut n, &opts);
    let second = plan.to_json().to_string_compact();
    if first != second {
        failures.push(fail(format!(
            "two fresh plans differ ({} vs {} bytes)",
            first.len(),
            second.len()
        )));
        return (failures, false);
    }
    apply_plan(&mut n, &plan);
    match rerun(&n.into_module(), base, run_cfg) {
        Err(why) => {
            failures.push(fail(format!("planned {why}")));
            (failures, false)
        }
        Ok(after) => (failures, after.cycles > base.cycles),
    }
}

/// Verify and run a transformed module against the baseline's return
/// value, output trace and globals digest; `Err` says how it fails.
fn rerun(tm: &Module, base: &RunResult, run_cfg: &RunConfig) -> Result<RunResult, String> {
    verify_module(tm).map_err(|e| format!("module rejects: {e:?}"))?;
    let after = run_caught(tm, run_cfg)
        .map_err(|p| format!("run panicked: {p}"))?
        .map_err(|e| format!("run errored: {e}"))?;
    if ret_bits(base) != ret_bits(&after)
        || base.output != after.output
        || base.globals_digest != after.globals_digest
    {
        return Err(format!(
            "module diverged from baseline (ret {:?} vs {:?})",
            base.ret, after.ret
        ));
    }
    Ok(after)
}

/// Run every check over `m`, each interpreter run bounded by `max_steps`:
/// the traced baseline and its PDG-soundness pass, the store round trip,
/// the audit and plan oracles, then per tool the incremental≡fresh check
/// and its destructive edit script, the race lint of its output and the
/// differential comparison.
pub fn check_module(m: &Module, tools: &[FuzzTool], max_steps: u64) -> Outcome {
    if let Err(e) = verify_module(m) {
        return Outcome::Fail {
            failures: vec![Failure {
                tool: None,
                kind: FailureKind::GeneratorInvalid,
                detail: format!("input module does not verify: {e:?}"),
            }],
        };
    }

    let base_cfg = RunConfig {
        trace_deps: true,
        max_steps,
        ..RunConfig::default()
    };
    let base = match run_caught(m, &base_cfg) {
        Err(p) => {
            return Outcome::Fail {
                failures: vec![Failure {
                    tool: None,
                    kind: FailureKind::RunPanic,
                    detail: format!("baseline run panicked: {p}"),
                }],
            }
        }
        Ok(Err(e)) => {
            return Outcome::Skip {
                reason: format!("baseline run error: {e}"),
            }
        }
        Ok(Ok(r)) => r,
    };

    let mut failures = Vec::new();
    let deps_checked = base.observed_deps.len();
    {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        let pdg = n.pdg();
        for d in &base.observed_deps {
            if !pdg.covers_memory_dep(d.func, d.src, d.dst) {
                let fname = &m.func(d.func).name;
                failures.push(Failure {
                    tool: None,
                    kind: FailureKind::UnsoundPdg,
                    detail: format!(
                        "observed dependence {:?} -> {:?} in @{fname} missing from the PDG",
                        d.src, d.dst
                    ),
                });
            }
        }
    }

    failures.extend(store_round_trip_failures(m));

    let run_cfg = RunConfig {
        max_steps,
        ..RunConfig::default()
    };
    failures.extend(audit_failures(m, &base, &run_cfg));
    let (plan, plan_slower) = plan_failures(m, &base, &run_cfg);
    failures.extend(plan);
    for tool in tools {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        match catch_unwind(AssertUnwindSafe(|| tool.run(&mut n))) {
            Err(p) => {
                failures.push(Failure {
                    tool: Some(tool.name.clone()),
                    kind: FailureKind::ToolPanic,
                    detail: panic_text(p),
                });
                continue;
            }
            Ok(Err(e)) => {
                failures.push(Failure {
                    tool: Some(tool.name.clone()),
                    kind: FailureKind::ToolError,
                    detail: e,
                });
                continue;
            }
            Ok(Ok(_report)) => {}
        }
        // Incremental-vs-fresh equivalence: the transform edited through
        // `Noelle::edit`, so the warm manager repairs its PDG from the
        // touched set only. The repaired graph must be wire-identical to
        // a from-scratch build of the transformed module.
        if let Some(detail) = points_to_divergence(&n) {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::IncrementalMismatch,
                detail,
            });
            continue;
        }
        let inc_pdg = n.pdg();
        let inc = noelle_core::wire::pdg_to_json(n.module(), &inc_pdg).to_string_compact();
        let mut fresh = Noelle::new(n.module().clone(), AliasTier::Full);
        let fresh_pdg = fresh.pdg();
        let scratch =
            noelle_core::wire::pdg_to_json(fresh.module(), &fresh_pdg).to_string_compact();
        if inc != scratch {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::IncrementalMismatch,
                detail: format!(
                    "incrementally repaired PDG differs from a from-scratch build \
                     ({} vs {} bytes of wire encoding)",
                    inc.len(),
                    scratch.len()
                ),
            });
            continue;
        }
        let tm = n.module().clone();
        // The tool only added pointer flow. Take it away again, on the
        // manager the tool left warm — its tasks, environment stores and
        // dispatch calls are there to delete — with a script that is a
        // function of the module and the tool, so the reducer can replay it.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&m.name, &tool.name).hash(&mut h);
        let seed = h.finish();
        let script = || edit_script_divergence(&mut n, seed, EDIT_SCRIPT_STEPS);
        let diverged = catch_unwind(AssertUnwindSafe(script));
        if let Some(detail) = diverged.unwrap_or_else(|p| Some(panic_text(p))) {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::IncrementalMismatch,
                detail,
            });
            continue;
        }
        if let Err(e) = verify_module(&tm) {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::VerifierReject,
                detail: format!("{e:?}"),
            });
            continue;
        }
        let mut ln = Noelle::new(tm.clone(), AliasTier::Full);
        let races = noelle_lint::detect_races(&mut ln);
        if !races.is_empty() {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::RaceFinding,
                detail: noelle_lint::render_text(&races),
            });
            continue;
        }
        let after = match run_caught(&tm, &run_cfg) {
            Err(p) => {
                failures.push(Failure {
                    tool: Some(tool.name.clone()),
                    kind: FailureKind::RunPanic,
                    detail: p,
                });
                continue;
            }
            Ok(Err(e)) => {
                failures.push(Failure {
                    tool: Some(tool.name.clone()),
                    kind: FailureKind::RunError,
                    detail: e.to_string(),
                });
                continue;
            }
            Ok(Ok(r)) => r,
        };
        if ret_bits(&base) != ret_bits(&after) {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::ReturnMismatch,
                detail: format!("{:?} vs {:?}", base.ret, after.ret),
            });
        }
        if base.output != after.output {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::OutputMismatch,
                detail: format!(
                    "{} vs {} lines; first divergence: {:?}",
                    base.output.len(),
                    after.output.len(),
                    base.output
                        .iter()
                        .zip(after.output.iter())
                        .position(|(a, b)| a != b)
                ),
            });
        }
        if base.globals_digest != after.globals_digest {
            failures.push(Failure {
                tool: Some(tool.name.clone()),
                kind: FailureKind::MemoryMismatch,
                detail: format!(
                    "globals digest {:#x} vs {:#x}",
                    base.globals_digest, after.globals_digest
                ),
            });
        }
    }

    if failures.is_empty() {
        Outcome::Pass {
            tools_applied: tools.len(),
            deps_checked,
            plan_slower,
        }
    } else {
        Outcome::Fail { failures }
    }
}

/// Where the points-to solution a manager maintained across its edits
/// differs from a from-scratch solve of the module as it now stands, if
/// anywhere: every function's observable rows and every indirect call's
/// resolved callees must agree. `None` also when the manager holds no
/// solution (nothing was maintained).
pub fn points_to_divergence(n: &Noelle) -> Option<String> {
    let kept = n.cached_points_to()?;
    let m = n.module();
    let fresh = noelle_analysis::alias::AndersenAlias::new(m);
    let (kept_rows, fresh_rows) = (kept.rows_by_function(), fresh.rows_by_function());
    for fid in m.func_ids() {
        let f = m.func(fid);
        if kept_rows.get(&fid) != fresh_rows.get(&fid) {
            return Some(format!(
                "maintained points-to rows of @{} differ from a from-scratch solve:\n  kept  {:?}\n  fresh {:?}",
                f.name,
                kept_rows.get(&fid),
                fresh_rows.get(&fid)
            ));
        }
        for id in f.inst_ids() {
            let (k, s) = (
                kept.indirect_callees(fid, id),
                fresh.indirect_callees(fid, id),
            );
            if k != s {
                return Some(format!(
                    "maintained callees of indirect call {id:?} in @{} are {k:?}, a from-scratch solve resolves {s:?}",
                    f.name
                ));
            }
        }
    }
    None
}

/// Commits of [`edit_script_divergence`] per tool run under the oracle.
pub const EDIT_SCRIPT_STEPS: usize = 8;

/// Where one pointer-flow edit lands: an instruction to delete, or one of
/// its operands (counted in [`Inst::for_each_operand`] order) to swap.
type EditSite = (FuncId, InstId, Option<usize>);

/// The kinds of destructive pointer-flow edit a script draws from.
#[derive(Clone, Copy)]
enum PointerEdit {
    /// Delete a pointer-typed `store`.
    DeleteStore,
    /// Delete a direct call (its uses become `undef`).
    DeleteCall,
    /// Swap a pointer argument of a call.
    SwapArgument,
    /// Swap a returned pointer.
    SwapReturn,
    /// Swap the callee operand of an indirect call, or a pointer operand of
    /// the `select` or `phi` that computes it.
    RepointCallee,
}

const POINTER_EDITS: [PointerEdit; 5] = [
    PointerEdit::DeleteStore,
    PointerEdit::DeleteCall,
    PointerEdit::SwapArgument,
    PointerEdit::SwapReturn,
    PointerEdit::RepointCallee,
];

/// The operands of `inst` as a list, for the edits that address one by its
/// slot.
pub(crate) fn operand_list(inst: &Inst) -> Vec<Value> {
    let mut ops = Vec::new();
    inst.for_each_operand(|v| ops.push(v));
    ops
}

/// The sites of one kind of edit, in module order.
fn edit_sites(m: &Module, kind: PointerEdit) -> Vec<EditSite> {
    let mut sites = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        // The non-constant pointer operands of `id` in `slots`.
        let pointers = |id: InstId, slots: std::ops::Range<usize>| {
            let ops = operand_list(f.inst(id)).into_iter().enumerate();
            ops.filter(move |&(slot, v)| {
                slots.contains(&slot)
                    && !matches!(v, Value::Const(_))
                    && f.value_type(m, v).is_ptr()
            })
            .map(move |(slot, _)| (fid, id, Some(slot)))
        };
        for &id in f.block_order().iter().flat_map(|&b| &f.block(b).insts) {
            let callee = match f.inst(id) {
                Inst::Call { callee, .. } => Some(callee),
                _ => None,
            };
            match (kind, f.inst(id), callee) {
                (PointerEdit::DeleteStore, Inst::Store { ty, .. }, _) if ty.is_ptr() => {
                    sites.push((fid, id, None));
                }
                (PointerEdit::DeleteCall, _, Some(Callee::Direct(_))) => {
                    sites.push((fid, id, None));
                }
                (PointerEdit::SwapArgument, _, Some(callee)) => {
                    let first = matches!(callee, Callee::Indirect(_)) as usize;
                    sites.extend(pointers(id, first..usize::MAX));
                }
                (PointerEdit::SwapReturn, Inst::Term(Terminator::Ret(Some(_))), _) => {
                    sites.extend(pointers(id, 0..1));
                }
                (PointerEdit::RepointCallee, _, Some(Callee::Indirect(fp))) => {
                    sites.extend(pointers(id, 0..1));
                    match fp.as_inst().map(|d| (d, f.inst(d))) {
                        Some((d, Inst::Select { .. })) => sites.extend(pointers(d, 1..3)),
                        Some((d, Inst::Phi { .. })) => sites.extend(pointers(d, 0..usize::MAX)),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    sites
}

/// Every value of `f` with the type of `like`, `like` itself excepted: the
/// null pointer, arguments, instruction results, globals and functions.
fn same_typed_values(m: &Module, f: &Function, like: Value) -> Vec<Value> {
    let ty = f.value_type(m, like);
    let args = (0..f.params.len() as u32).map(Value::Arg);
    let insts = f.block_order().iter().flat_map(|&b| &f.block(b).insts);
    std::iter::once(Value::Const(Constant::Null))
        .chain(args)
        .chain(insts.map(|&id| Value::Inst(id)))
        .chain(m.global_ids().map(Value::Global))
        .chain(m.func_ids().map(Value::Func))
        .filter(|&v| v != like && (matches!(v, Value::Const(_)) || f.value_type(m, v) == ty))
        .collect()
}

/// Drive `n`'s maintained points-to solution through a script of `steps`
/// destructive, type-preserving pointer-flow edits drawn from `seed`, one
/// commit each, and report the first commit after which it differs from a
/// from-scratch solve ([`points_to_divergence`]) or moved the rows of a
/// function it did not report as damaged. Deletion is where an
/// incremental points-to solver goes wrong, and the transforms themselves
/// only ever add pointer flow. The edits keep types, not dominance or
/// meaning: the module left behind is for the solver only.
pub fn edit_script_divergence(n: &mut Noelle, seed: u64, steps: usize) -> Option<String> {
    let mut rng = SplitMix64::new(seed);
    // Commits keep the solution only beside the mod/ref summaries.
    n.points_to();
    n.modref_summaries();
    for step in 0..steps {
        // The kind drawn, or the next one the module still has a site for.
        let n_kinds = POINTER_EDITS.len();
        let kinds = POINTER_EDITS
            .iter()
            .cycle()
            .skip(rng.below(n_kinds as u64) as usize);
        let mut sites = (kinds.take(n_kinds)).map(|&kind| edit_sites(n.module(), kind));
        let Some(sites) = sites.find(|s| !s.is_empty()) else {
            return None; // no pointer flow left to edit
        };
        let (fid, id, slot) = *rng.pick(&sites);
        let m = n.module();
        let f = m.func(fid);
        let swap = slot.map(|slot| {
            let values = same_typed_values(m, f, operand_list(f.inst(id))[slot]);
            (slot, *rng.pick(&values))
        });
        let edit = format!("step {step}: {:?} of @{} -> {swap:?}", f.inst(id), f.name);
        let rows_before = n.cached_points_to().map(|a| a.rows_by_function());
        let ((), damage) = n.edit_with_damage(|tx| {
            let f = tx.func_mut(fid);
            match swap {
                None => {
                    f.replace_all_uses(Value::Inst(id), Value::Const(Constant::Undef));
                    f.remove_inst(id);
                }
                Some((slot, to)) => {
                    let mut at = 0..;
                    let swap_at = |v| if at.next() == Some(slot) { to } else { v };
                    f.inst_mut(id).map_operands(swap_at);
                }
            }
        });
        if let Some(detail) = points_to_divergence(n) {
            return Some(format!("after {edit}: {detail}"));
        }
        // The rows are right; so must be the list of functions they moved
        // in, or a stale PDG partition survives the commit.
        let rows = n.cached_points_to().map(|a| a.rows_by_function());
        let (Some(before), Some(rows)) = (rows_before, rows) else {
            continue;
        };
        let moved = |fid: &FuncId| before.get(fid) != rows.get(fid);
        if let Some(fid) = n
            .module()
            .func_ids()
            .find(|fid| moved(fid) && !damage.contains(fid))
        {
            let name = &n.module().func(fid).name;
            return Some(format!("after {edit}: rows of undamaged @{name} moved"));
        }
    }
    None
}

/// Reducer predicate: does `m` still exhibit a failure matching `proto`
/// (same tool, same kind)? Used so shrinking cannot drift onto a different
/// bug.
pub fn fails_like(m: &Module, tools: &[FuzzTool], max_steps: u64, proto: &Failure) -> bool {
    match check_module(m, tools, max_steps) {
        Outcome::Fail { failures } => failures
            .iter()
            .any(|f| f.tool == proto.tool && f.kind == proto.kind),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use noelle_ir::parser::parse_module;

    fn identity_tool() -> FuzzTool {
        FuzzTool::new("identity", |_n| Ok("did nothing".into()))
    }

    fn breaking_tool() -> FuzzTool {
        // Miscompiler: rewrite main's ret to a constant.
        FuzzTool::new("breaker", |n| {
            let fid = n.module().func_id_by_name("main").expect("main");
            n.edit(|tx| {
                let f = tx.func_mut(fid);
                for b in f.block_order().to_vec() {
                    if let Some(noelle_ir::inst::Terminator::Ret(Some(_))) = f.terminator(b) {
                        f.set_terminator(
                            b,
                            noelle_ir::inst::Terminator::Ret(Some(
                                noelle_ir::value::Value::const_i64(-12345),
                            )),
                        );
                    }
                }
            });
            Ok("broke it".into())
        })
    }

    fn panicking_tool() -> FuzzTool {
        FuzzTool::new("panicker", |_n| panic!("tool exploded"))
    }

    #[test]
    fn identity_passes_generated_modules() {
        for seed in 0..10 {
            let m = generate(seed, &GenConfig::default());
            let out = check_module(&m, &[identity_tool()], DEFAULT_MAX_STEPS);
            match out {
                Outcome::Pass { tools_applied, .. } => assert_eq!(tools_applied, 1),
                other => panic!("seed {seed}: expected Pass, got {other:?}"),
            }
        }
    }

    #[test]
    fn miscompile_is_reported_as_return_mismatch() {
        let m = generate(3, &GenConfig::default());
        let out = check_module(&m, &[breaking_tool()], DEFAULT_MAX_STEPS);
        let Outcome::Fail { failures } = out else {
            panic!("expected Fail, got {out:?}");
        };
        assert!(
            failures
                .iter()
                .any(|f| f.kind == FailureKind::ReturnMismatch
                    && f.tool.as_deref() == Some("breaker"))
        );
    }

    #[test]
    fn tool_panic_is_caught_and_reported() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let m = generate(1, &GenConfig::default());
        let out = check_module(&m, &[panicking_tool(), identity_tool()], DEFAULT_MAX_STEPS);
        std::panic::set_hook(hook);
        let Outcome::Fail { failures } = out else {
            panic!("expected Fail, got {out:?}");
        };
        // The panicker is reported; the identity tool still ran clean.
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::ToolPanic);
        assert!(failures[0].detail.contains("tool exploded"));
    }

    #[test]
    fn baseline_runtime_error_skips() {
        // Stores a float-returning function pointer, calls it as i64: the
        // historical type-confusion panic path, now a reported Skip.
        let m = parse_module(
            r#"
module "t" {
define f64 @f() {
entry:
  ret f64 1.5
}
define i64 @main() {
entry:
  %slot = alloca i64, i64 1
  %fi = ptrtoint fn f64()* @f to i64
  store i64 %fi, %slot
  %raw = load i64, %slot
  %fp = inttoptr i64 %raw to fn i64()*
  %v = call i64 %fp()
  %r = add i64 %v, i64 1
  ret %r
}
}
"#,
        )
        .unwrap();
        let out = check_module(&m, &[identity_tool()], DEFAULT_MAX_STEPS);
        let Outcome::Skip { reason } = out else {
            panic!("expected Skip, got {out:?}");
        };
        assert!(reason.contains("type confusion"), "{reason}");
    }

    #[test]
    fn store_codecs_round_trip_generated_modules() {
        // The store oracle runs directly: every artifact a manager would
        // persist (PDG partitions) must re-encode byte-identically after
        // a decode.
        for seed in 0..10 {
            let m = generate(seed, &GenConfig::default());
            let failures = store_round_trip_failures(&m);
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
        }
    }

    #[test]
    fn incremental_repair_matches_fresh_build_after_edits() {
        // A behavior-preserving editing tool: warm the PDG, then add a
        // dead instruction to `main` through `edit` — a body edit, so the
        // oracle's incremental check exercises real damage propagation and
        // partition reuse (a bare touch moves no body and damages nothing).
        for seed in 0..5 {
            let warm_then_edit = FuzzTool::new("nop-edit", |n| {
                let _ = n.pdg(); // build, so the edit repairs instead of rebuilding
                let fid = n.module().func_id_by_name("main").expect("main");
                let ((), damage) = n.edit_with_damage(|tx| {
                    let f = tx.func_mut(fid);
                    let entry = f.entry();
                    let dead = Inst::Bin {
                        op: noelle_ir::inst::BinOp::Add,
                        ty: noelle_ir::types::Type::I64,
                        lhs: Value::const_i64(1),
                        rhs: Value::const_i64(2),
                    };
                    f.insert_inst(entry, 0, dead);
                });
                assert!(damage.contains(&fid), "a body edit damages its function");
                Ok("added a dead instruction to main".into())
            });
            let m = generate(seed, &GenConfig::default());
            let out = check_module(&m, &[warm_then_edit], DEFAULT_MAX_STEPS);
            assert!(
                !matches!(
                    &out,
                    Outcome::Fail { failures } if failures
                        .iter()
                        .any(|f| f.kind == FailureKind::IncrementalMismatch)
                ),
                "seed {seed}: incremental mismatch: {out:?}"
            );
        }
    }

    #[test]
    fn audit_verdicts_survive_generated_modules() {
        // No false "clean" verdicts: on generated modules, every clean
        // verdict must hold up when the transform actually runs, and every
        // blocked verdict must carry instruction-level attribution.
        for seed in 0..10 {
            let m = generate(seed, &GenConfig::default());
            let out = check_module(&m, &[], DEFAULT_MAX_STEPS);
            assert!(
                !matches!(
                    &out,
                    Outcome::Fail { failures } if failures
                        .iter()
                        .any(|f| f.kind == FailureKind::AuditMismatch)
                ),
                "seed {seed}: audit mismatch: {out:?}"
            );
        }
    }

    #[test]
    fn plans_are_deterministic_and_sound_on_generated_modules() {
        // The plan oracle: byte-identical plans across two fresh managers,
        // and the applied plan preserves observable behavior.
        for seed in 0..10 {
            let m = generate(seed, &GenConfig::default());
            let out = check_module(&m, &[], DEFAULT_MAX_STEPS);
            assert!(
                !matches!(
                    &out,
                    Outcome::Fail { failures } if failures
                        .iter()
                        .any(|f| f.kind == FailureKind::PlanMismatch)
                ),
                "seed {seed}: plan mismatch: {out:?}"
            );
        }
    }

    #[test]
    fn fails_like_matches_tool_and_kind() {
        let m = generate(3, &GenConfig::default());
        let proto = Failure {
            tool: Some("breaker".into()),
            kind: FailureKind::ReturnMismatch,
            detail: String::new(),
        };
        assert!(fails_like(
            &m,
            &[breaking_tool()],
            DEFAULT_MAX_STEPS,
            &proto
        ));
        assert!(!fails_like(
            &m,
            &[identity_tool()],
            DEFAULT_MAX_STEPS,
            &proto
        ));
    }
}
