//! The parallelism auditor (the AUDIT abstraction): for every loop in the
//! forest, a per-technique verdict (DOALL / HELIX / DSWP) with
//! instruction-level blocker attribution and a resolution hint for each
//! blocker — the static half of a parallelization planner. The paper's
//! abstractions (PDG, aSCCDAG, IV, RD, mod/ref) already carry everything
//! needed to explain a refusal, not just to issue one.
//!
//! A verdict *holds* the result of the transform's own `gate` — the call
//! the driver makes before it emits — so "clean" means "the transform takes
//! this loop", the recipe it carries is the one `emit` takes and the planner
//! prices, and a refusal is read by its variant; the fuzz oracle still
//! holds every clean verdict against the real run and the differential
//! oracle. Blockers come from the dependence-level classifier (over the
//! loop abstraction's `blocking_edges`), enriched with interprocedural
//! attribution: the Andersen points-to rows behind each failed alias query,
//! the call sites whose actuals carry the conflicting pointer into the
//! loop's function, and the callee-side accesses behind impure calls. The
//! NL01xx diagnostic series surfaces the same blockers through the normal
//! lint rendering pipeline.

use crate::diag::{sort_findings, Finding, IrLoc, Severity};
use noelle_analysis::alias::{AndersenAlias, MemoryObject};
use noelle_analysis::modref::ModRefSummaries;
use noelle_core::json::Json;
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::{Abstraction, CallEdges, Noelle};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::loops::{LoopId, LoopInfo};
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::value::Value;
use noelle_pdg::depgraph::{DataDepKind, DepEdge, DepKind};
use noelle_pdg::sccdag::SccKind;
use noelle_transforms::common::{gate, GateBuffers, ParallelizeError, Parallelizer, Recipe};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Worker count verdicts are issued for: DSWP is judged as the canonical
/// two-stage pipeline, and no other gate reads the count.
pub const AUDIT_WORKERS: usize = 2;
/// Cap on rendered alias objects / cross-function sites per blocker: the
/// report names evidence, it does not dump whole rows.
const MAX_ATTRIBUTION: usize = 8;
/// Cap on related instructions carried by a segment/SCC blocker.
const MAX_RELATED: usize = 6;

/// What kind of obstacle blocks a technique on a loop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BlockerKind {
    /// A proven loop-carried dependence through memory.
    CarriedMemoryDep,
    /// A *may* memory dependence: the alias query could not prove the pair
    /// disjoint, so the dependence is assumed.
    UnprovenAlias,
    /// A loop-carried register recurrence that is neither an induction
    /// variable nor a recognized reduction.
    EscapingInduction,
    /// A call with side effects (memory writes or I/O) pinned in the body.
    ImpureCall,
    /// A HELIX sequential segment that serializes too much of the body.
    SequentialSegment,
    /// A DSWP obstacle at the SCC level: the body collapses into one cyclic
    /// SCC (or a dependence running backward ties stages together).
    CyclicSccSpan,
    /// A live-out that is not a recognized reduction accumulator.
    UnsupportedLiveOut,
    /// Structural problems: multiple exits, no governing IV, unprofitable
    /// shape — anything the technique's gates reject before dependences.
    LoopShape,
}

impl BlockerKind {
    /// Stable kebab-case name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            BlockerKind::CarriedMemoryDep => "carried-memory-dep",
            BlockerKind::UnprovenAlias => "unproven-alias",
            BlockerKind::EscapingInduction => "escaping-induction",
            BlockerKind::ImpureCall => "impure-call",
            BlockerKind::SequentialSegment => "sequential-segment",
            BlockerKind::CyclicSccSpan => "cyclic-scc-span",
            BlockerKind::UnsupportedLiveOut => "unsupported-live-out",
            BlockerKind::LoopShape => "loop-shape",
        }
    }
}

/// The resolution the auditor suggests for one blocker.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Hint {
    /// The conflicting object is only written (or written-then-read within
    /// one iteration): give each task a private copy per mod/ref.
    Privatize,
    /// The recurrence applies an associative operator: clone the accumulator
    /// and combine partials (RD).
    Reduction,
    /// The dependence is apparent, not proven: speculate it away and guard
    /// with runtime evidence (DepTracer-style misspeculation checks).
    Speculate,
    /// Forward the value/ordering through an inter-core queue (DSWP-style
    /// decoupling) instead of sharing memory.
    QueueMediate,
    /// Restructure the loop (single exit, governing IV, heavier body) —
    /// nothing dependence-level unblocks it.
    Restructure,
}

impl Hint {
    /// Stable kebab-case name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Hint::Privatize => "privatize",
            Hint::Reduction => "reduction",
            Hint::Speculate => "speculate",
            Hint::QueueMediate => "queue-mediate",
            Hint::Restructure => "restructure",
        }
    }
}

/// One attributed obstacle: the instruction(s) at fault, the alias evidence,
/// and a resolution hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Blocker {
    /// Classification of the obstacle.
    pub kind: BlockerKind,
    /// Primary anchor instruction (in the loop's function).
    pub inst: InstId,
    /// Other instructions of the same function involved (the second half of
    /// a dependence pair, the rest of a segment...).
    pub related: Vec<InstId>,
    /// Interprocedural attribution: instructions in *other* functions the
    /// obstacle flows through (call-site actuals, callee accesses).
    pub cross: Vec<(FuncId, InstId)>,
    /// Rendered alias evidence: the abstract memory objects of the failing
    /// alias query, from the points-to rows (empty when not memory-related).
    pub objects: Vec<String>,
    /// Human-readable specifics.
    pub detail: String,
    /// Suggested resolution.
    pub hint: Hint,
}

/// The verdict of one technique on one loop.
#[derive(Clone, Debug)]
pub struct TechniqueAudit {
    /// Which technique.
    pub technique: Parallelizer,
    /// The technique's own [`gate`] on this loop at [`AUDIT_WORKERS`]: the
    /// recipe its emitter takes — the transform is expected to apply *and*
    /// preserve behavior (the fuzz oracle holds the auditor to exactly this
    /// reading) — or its refusal. A recipe names instructions under the
    /// same contract as [`LoopAudit::abstraction`].
    pub outcome: Result<Recipe, ParallelizeError>,
    /// Attributed blockers (non-empty whenever the gate refused).
    pub blockers: Vec<Blocker>,
}

impl TechniqueAudit {
    /// True when the technique's gate accepts the loop.
    pub fn clean(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The gate's refusal, rendered, when blocked.
    pub fn reason(&self) -> Option<String> {
        self.outcome.as_ref().err().map(ToString::to_string)
    }
}

/// The audit of one loop: one verdict per technique.
#[derive(Clone, Debug)]
pub struct LoopAudit {
    /// Owning function.
    pub fid: FuncId,
    /// Owning function's name (reports are name-keyed, not id-keyed).
    pub function: String,
    /// Loop header block.
    pub header: BlockId,
    /// Header block's name.
    pub header_name: String,
    /// Header block's layout index (deterministic ordering key).
    pub header_index: usize,
    /// The loop abstraction the verdicts were issued on, for whoever acts
    /// on them next (the planner prices it, and a plan emits it, instead of
    /// building it again). Its instruction and block ids name the module as
    /// audited: read it against the auditing manager's module while `epoch`
    /// below still stands.
    pub abstraction: Arc<LoopAbstraction>,
    /// The owning function's [`Noelle::epoch`] at audit time: while the
    /// auditing manager reports it, a fresh audit would say the same.
    pub epoch: u64,
    /// Per-technique verdicts, in [`Parallelizer::AUDITED`] order.
    pub verdicts: Vec<TechniqueAudit>,
}

impl LoopAudit {
    /// The verdict for `t`.
    pub fn verdict(&self, t: Parallelizer) -> &TechniqueAudit {
        self.verdicts
            .iter()
            .find(|v| v.technique == t)
            .expect("an audited technique")
    }

    /// True when every technique is blocked.
    pub fn fully_blocked(&self) -> bool {
        self.verdicts.iter().all(|v| !v.clean())
    }
}

/// The whole-module audit, loops ordered by (function name, header index).
#[derive(Clone, Debug, Default)]
pub struct ModuleAudit {
    /// All audited loops, in canonical order.
    pub loops: Vec<LoopAudit>,
}

impl ModuleAudit {
    /// Loops with at least one clean technique.
    pub fn parallelizable(&self) -> usize {
        self.loops.iter().filter(|l| !l.fully_blocked()).count()
    }

    /// Total blockers across all loops and techniques.
    pub fn num_blockers(&self) -> usize {
        self.loops
            .iter()
            .flat_map(|l| &l.verdicts)
            .map(|v| v.blockers.len())
            .sum()
    }

    /// Deterministic JSON form: loops in canonical order, every list sorted
    /// at construction. Byte-identical across runs over the same module.
    pub fn to_json(&self) -> Json {
        let loops = self
            .loops
            .iter()
            .map(|l| {
                let verdicts = l
                    .verdicts
                    .iter()
                    .map(|v| {
                        let blockers = v
                            .blockers
                            .iter()
                            .map(|b| {
                                Json::object(vec![
                                    ("kind".to_string(), Json::Str(b.kind.as_str().to_string())),
                                    ("inst".to_string(), Json::Int(i64::from(b.inst.0))),
                                    (
                                        "related".to_string(),
                                        Json::Array(
                                            b.related
                                                .iter()
                                                .map(|i| Json::Int(i64::from(i.0)))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "cross".to_string(),
                                        Json::Array(
                                            b.cross
                                                .iter()
                                                .map(|(f, i)| {
                                                    Json::object(vec![
                                                        (
                                                            "func".to_string(),
                                                            Json::Int(i64::from(f.0)),
                                                        ),
                                                        (
                                                            "inst".to_string(),
                                                            Json::Int(i64::from(i.0)),
                                                        ),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "objects".to_string(),
                                        Json::Array(
                                            b.objects
                                                .iter()
                                                .map(|o| Json::Str(o.clone()))
                                                .collect(),
                                        ),
                                    ),
                                    ("detail".to_string(), Json::Str(b.detail.clone())),
                                    ("hint".to_string(), Json::Str(b.hint.as_str().to_string())),
                                ])
                            })
                            .collect();
                        Json::object(vec![
                            (
                                "technique".to_string(),
                                Json::Str(v.technique.as_str().to_string()),
                            ),
                            ("clean".to_string(), Json::Bool(v.clean())),
                            (
                                "reason".to_string(),
                                v.reason().map_or(Json::Null, Json::Str),
                            ),
                            ("blockers".to_string(), Json::Array(blockers)),
                        ])
                    })
                    .collect();
                Json::object(vec![
                    ("function".to_string(), Json::Str(l.function.clone())),
                    ("header".to_string(), Json::Str(l.header_name.clone())),
                    ("header_index".to_string(), Json::Int(l.header_index as i64)),
                    ("verdicts".to_string(), Json::Array(verdicts)),
                ])
            })
            .collect();
        Json::object(vec![
            ("loops".to_string(), Json::Array(loops)),
            (
                "summary".to_string(),
                Json::object(vec![
                    ("loops".to_string(), Json::Int(self.loops.len() as i64)),
                    (
                        "parallelizable".to_string(),
                        Json::Int(self.parallelizable() as i64),
                    ),
                    (
                        "blockers".to_string(),
                        Json::Int(self.num_blockers() as i64),
                    ),
                ]),
            ),
        ])
    }

    /// Deterministic text form, one block per loop.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for l in &self.loops {
            out.push_str(&format!("loop @{}:{}\n", l.function, l.header_name));
            for v in &l.verdicts {
                let Err(refusal) = &v.outcome else {
                    out.push_str(&format!("  {}: clean\n", v.technique.as_str()));
                    continue;
                };
                out.push_str(&format!(
                    "  {}: blocked ({refusal})\n",
                    v.technique.as_str()
                ));
                for b in &v.blockers {
                    out.push_str(&format!(
                        "    [{}] %v{}: {} -> hint: {}\n",
                        b.kind.as_str(),
                        b.inst.0,
                        b.detail,
                        b.hint.as_str()
                    ));
                }
            }
        }
        out.push_str(&format!(
            "{} loop(s), {} parallelizable, {} blocker(s)\n",
            self.loops.len(),
            self.parallelizable(),
            self.num_blockers()
        ));
        out
    }
}

/// Canonicalize a blocker list: deterministic order, exact duplicates
/// dropped. Ordering is total over every field that renders.
fn sort_blockers(blockers: &mut Vec<Blocker>) {
    blockers.sort_by(|a, b| {
        (a.inst, a.kind, &a.detail, a.hint, &a.related, &a.cross)
            .cmp(&(b.inst, b.kind, &b.detail, b.hint, &b.related, &b.cross))
    });
    blockers.dedup();
}

/// The NL01xx diagnostic code for a blocker category.
pub fn audit_code(kind: BlockerKind) -> &'static str {
    match kind {
        BlockerKind::CarriedMemoryDep => "NL0101",
        BlockerKind::UnprovenAlias => "NL0102",
        BlockerKind::EscapingInduction => "NL0103",
        BlockerKind::ImpureCall => "NL0104",
        BlockerKind::SequentialSegment => "NL0105",
        BlockerKind::CyclicSccSpan => "NL0106",
        BlockerKind::UnsupportedLiveOut => "NL0107",
        BlockerKind::LoopShape => "NL0108",
    }
}

/// Audit every loop of the module. Deterministic: loops ordered by
/// (function name, header layout index), blockers canonically sorted.
pub fn run_audit(n: &mut Noelle) -> ModuleAudit {
    run_audit_scoped(n, None)
}

/// Audit only the loops of the given functions (`None` = all). The IDE uses
/// the scoped form to re-audit just the functions an edit damaged.
pub fn run_audit_scoped(n: &mut Noelle, scope: Option<&BTreeSet<FuncId>>) -> ModuleAudit {
    n.note(Abstraction::Audit);
    let arch = n.architecture();

    let modref = n.modref_summaries();
    // The attribution below reads the solved rows.
    let _ = n.points_to();
    let m = n.module();
    let mut fids: Vec<FuncId> = m
        .func_ids()
        .filter(|&fid| !m.func(fid).block_order().is_empty())
        .filter(|fid| scope.is_none_or(|set| set.contains(fid)))
        .collect();
    fids.sort_by_key(|&fid| (&m.func(fid).name, fid));

    let mut buf = AuditBuffers::default();
    let mut loops = Vec::new();
    for fid in fids {
        // Each loop's header index is computed once: it orders the loops
        // and is reported.
        let forest = n.loop_forest(fid);
        let f = n.module().func(fid);
        let at = |l: &LoopInfo| (header_index(f, l.header), l.id);
        buf.loops.extend(forest.loops().iter().map(at));
        buf.loops.sort_unstable_by_key(|&(at, _)| at);
        for (header_index, id) in buf.loops.drain(..) {
            let la = Arc::new(n.loop_abstraction(fid, id));
            let (m, anders) = (n.module(), n.cached_points_to().expect("just built"));
            let verdicts = Parallelizer::AUDITED
                .into_iter()
                .map(|technique| {
                    let outcome =
                        gate(technique, m, fid, &la, &arch, AUDIT_WORKERS, &mut buf.gates);
                    let mut blockers = Vec::new();
                    if let Err(e) = &outcome {
                        // The dependence-level blockers are classified for
                        // the refusal that reads them, and move into it.
                        let carried = || {
                            let mut carried = carried_dep_blockers(m, &la, &modref, &mut buf.pairs);
                            let calls = n.direct_calls();
                            for b in &mut carried {
                                enrich(m, fid, b, anders, &modref, calls, &mut buf.attribution);
                            }
                            carried
                        };
                        blockers = blockers_for(m, fid, &la, e, carried);
                        if blockers.is_empty() {
                            blockers.push(fallback_blocker(m, fid, &la, e));
                        }
                        sort_blockers(&mut blockers);
                    }
                    TechniqueAudit {
                        technique,
                        outcome,
                        blockers,
                    }
                })
                .collect();
            let (f, header) = (m.func(fid), la.structure().header);
            loops.push(LoopAudit {
                fid,
                function: f.name.clone(),
                header,
                header_name: f.block(header).name.clone(),
                header_index,
                abstraction: la,
                epoch: n.epoch(fid),
                verdicts,
            });
        }
    }
    ModuleAudit { loops }
}

/// The audit's working storage, reused from one loop to the next.
#[derive(Default)]
struct AuditBuffers {
    /// One function's loops, each beside its header's layout index.
    loops: Vec<(usize, LoopId)>,
    /// One loop's blocking edges as `(anchor, other, facets)`, grouped by
    /// instruction pair with a sort.
    pairs: Vec<(InstId, InstId, u8)>,
    /// One blocker's attribution, before it is rendered.
    attribution: Attribution,
    /// The gates' working lists.
    gates: GateBuffers,
}

/// What [`enrich`] collects for one blocker, kept across blockers.
#[derive(Default)]
struct Attribution {
    /// The alias objects, as keys.
    objects: Vec<MemoryObject>,
    /// Each distinct object rendered once.
    rendered: Vec<String>,
    /// Distinct cross-function sites, at most [`MAX_ATTRIBUTION`].
    cross: Vec<(FuncId, InstId)>,
    /// The direct call sites of `sites_of`: found once per function, however
    /// many of its blockers name them.
    sites: Vec<(FuncId, InstId)>,
    sites_of: Option<FuncId>,
}

/// Every direct call site of `fid` into `out`: callers ascending, each body
/// in layout order, so which sites survive the attribution cap does not
/// depend on who asks. Only the callers' bodies are walked, never the
/// module.
fn call_sites(m: &Module, calls: &CallEdges, fid: FuncId, out: &mut Vec<(FuncId, InstId)>) {
    out.clear();
    for caller in calls.callers_of(fid) {
        let cf = m.func(caller);
        for &ci in cf.block_order().iter().flat_map(|&bl| &cf.block(bl).insts) {
            if let Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } = cf.inst(ci)
            {
                if *cid == fid {
                    out.push((caller, ci));
                }
            }
        }
    }
}

fn header_index(f: &Function, b: BlockId) -> usize {
    f.block_order()
        .iter()
        .position(|&x| x == b)
        .unwrap_or(usize::MAX)
}

// The facet bits of a dependence pair: its kinds, which index
// `FACET_NAMES`, then whether any of its edges goes through memory and
// whether any is a must-dependence.
const RAW: u8 = 1;
const WAR: u8 = 2;
const WAW: u8 = 4;
const CONTROL: u8 = 8;
const KINDS: u8 = RAW | WAR | WAW | CONTROL;
const MEMORY: u8 = 16;
const MUST: u8 = 32;

/// The "RAW+WAR"-style rendering of every set of dependence kinds, indexed
/// by its bits.
const FACET_NAMES: [&str; 16] = [
    "",
    "RAW",
    "WAR",
    "RAW+WAR",
    "WAW",
    "RAW+WAW",
    "WAR+WAW",
    "RAW+WAR+WAW",
    "control",
    "RAW+control",
    "WAR+control",
    "RAW+WAR+control",
    "WAW+control",
    "RAW+WAW+control",
    "WAR+WAW+control",
    "RAW+WAR+WAW+control",
];

fn facet_bits(e: &DepEdge<InstId>) -> u8 {
    let kind = match e.attrs.kind {
        DepKind::Data(DataDepKind::Raw) => RAW,
        DepKind::Data(DataDepKind::War) => WAR,
        DepKind::Data(DataDepKind::Waw) => WAW,
        DepKind::Control => CONTROL,
    };
    let memory = if e.attrs.memory { MEMORY } else { 0 };
    kind | memory | if e.attrs.must { MUST } else { 0 }
}

/// Classify every blocking edge of `la` into attributed blockers — the
/// DOALL-level obstacles. Purely structural; [`enrich`] layers the
/// interprocedural attribution (call chains, points-to rows) on top.
/// `pairs` is scratch space.
fn carried_dep_blockers(
    m: &Module,
    la: &LoopAbstraction,
    modref: &ModRefSummaries,
    pairs: &mut Vec<(InstId, InstId, u8)>,
) -> Vec<Blocker> {
    let f = m.func(la.fid);
    // One blocker per unordered instruction pair: the PDG usually holds
    // several facets (RAW + WAR + WAW) of one conflicting access pair, and
    // the strongest facet decides the classification — a pair with a RAW
    // component is a recurrence, not just an overwrite.
    pairs.clear();
    pairs.extend(
        la.blocking_edges()
            .map(|e| (e.src.min(e.dst), e.src.max(e.dst), facet_bits(e))),
    );
    pairs.sort_unstable();
    let runs = || pairs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1));
    let mut out = Vec::with_capacity(runs().count());
    for run in runs() {
        let (anchor, other) = (run[0].0, run[0].1);
        let facets = run.iter().fold(0, |acc, &(_, _, bits)| acc | bits);
        let anchor_call = matches!(f.inst(anchor), Inst::Call { .. });
        let other_call = matches!(f.inst(other), Inst::Call { .. });
        let any_memory = facets & MEMORY != 0;
        let any_must = facets & MUST != 0;
        let has_raw = facets & RAW != 0;
        let kinds = FACET_NAMES[usize::from(facets & KINDS)];
        let blocker = if anchor_call || other_call {
            let call = if anchor_call { anchor } else { other };
            let hint = call_hint(m, la.fid, call, modref);
            Blocker {
                kind: BlockerKind::ImpureCall,
                inst: anchor,
                related: vec![other],
                cross: Vec::new(),
                objects: Vec::new(),
                detail: exact(format_args!(
                    "loop-carried {kinds} dependence pinned by a side-effecting call (%v{})",
                    call.0
                )),
                hint,
            }
        } else if any_memory {
            let reduction_like = has_raw
                && matches!(
                    (la.sccdag.scc_of(anchor), la.sccdag.scc_of(other)),
                    (Some(a), Some(b))
                        if a == b && scc_is_reduction_like(f, la.sccdag.insts(a))
                );
            if any_must {
                let hint = if reduction_like {
                    Hint::Reduction
                } else if !has_raw {
                    Hint::Privatize
                } else {
                    Hint::QueueMediate
                };
                Blocker {
                    kind: BlockerKind::CarriedMemoryDep,
                    inst: anchor,
                    related: vec![other],
                    cross: Vec::new(),
                    objects: Vec::new(),
                    detail: exact(format_args!(
                        "proven loop-carried {kinds} dependence through memory \
                         (%v{} <-> %v{})",
                        anchor.0, other.0
                    )),
                    hint,
                }
            } else {
                Blocker {
                    kind: BlockerKind::UnprovenAlias,
                    inst: anchor,
                    related: vec![other],
                    cross: Vec::new(),
                    objects: Vec::new(),
                    detail: exact(format_args!(
                        "apparent loop-carried {kinds} dependence: the alias query \
                         could not prove %v{} and %v{} disjoint",
                        anchor.0, other.0
                    )),
                    hint: if reduction_like {
                        Hint::Reduction
                    } else {
                        Hint::Speculate
                    },
                }
            }
        } else {
            // Register recurrence outside IV/reduction handling.
            Blocker {
                kind: BlockerKind::EscapingInduction,
                inst: anchor,
                related: vec![other],
                cross: Vec::new(),
                objects: Vec::new(),
                detail: exact(format_args!(
                    "loop-carried register recurrence (%v{} <-> %v{}) is neither an \
                     induction variable nor a recognized reduction",
                    anchor.0, other.0
                )),
                hint: register_recurrence_hint(la, anchor),
            }
        };
        out.push(blocker);
    }
    sort_blockers(&mut out);
    out
}

/// Hint for a side-effecting call inside the loop body, per its mod/ref
/// summary: pure-write callees can be privatized, I/O must be decoupled
/// through a queue, everything else needs runtime evidence.
fn call_hint(m: &Module, fid: FuncId, call: InstId, modref: &ModRefSummaries) -> Hint {
    if modref.call_has_io(m, fid, call) {
        Hint::QueueMediate
    } else if modref.call_may_write(m, fid, call) && !modref.call_may_read(m, fid, call) {
        Hint::Privatize
    } else {
        Hint::Speculate
    }
}

/// Hint for an escaping register recurrence: reduction when its SCC looks
/// like one associative update, restructure otherwise.
fn register_recurrence_hint(la: &LoopAbstraction, inst: InstId) -> Hint {
    if let Some(s) = la.sccdag.scc_of(inst) {
        let node = &la.sccdag.nodes()[s];
        if node.kind == SccKind::Sequential {
            // Would it reduce if the operator were recognized?
            return Hint::Restructure;
        }
    }
    Hint::Reduction
}

/// True when the SCC's arithmetic is a single associative binary operator
/// applied along the cycle (add/mul/and/or/xor/min-max style updates).
fn scc_is_reduction_like(f: &noelle_ir::module::Function, insts: &[InstId]) -> bool {
    use noelle_ir::inst::BinOp;
    let mut op: Option<BinOp> = None;
    for &i in insts {
        match f.inst(i) {
            Inst::Bin { op: o, .. } => match o {
                BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul => {
                    if op.is_some_and(|p| p != *o) {
                        return false;
                    }
                    op = Some(*o);
                }
                _ => return false,
            },
            Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::Phi { .. }
            | Inst::Gep { .. }
            | Inst::Cast { .. } => {}
            _ => return false,
        }
    }
    op.is_some()
}

/// Attribute a technique refusal to blockers, by refusal variant, from what
/// the refusal carries; `carried` classifies the loop's carried
/// dependences.
fn blockers_for(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    e: &ParallelizeError,
    carried: impl FnOnce() -> Vec<Blocker>,
) -> Vec<Blocker> {
    match e {
        ParallelizeError::CarriedDependences => carried(),
        ParallelizeError::NoGoverningIv => vec![no_iv_blocker(m, fid, la)],
        ParallelizeError::UnsupportedLiveOut(live_outs) => liveout_blockers(live_outs),
        ParallelizeError::Segments { why, groups } => segment_blockers(why, groups),
        ParallelizeError::Stages(why) => cyclic_scc_blockers(m, fid, la, why),
        ParallelizeError::Shape(why) => vec![shape_blocker(m, fid, la, why)],
    }
}

/// Every blocked verdict must name at least one concrete instruction: when
/// a specialized attribution produced nothing, anchor the refusal at the
/// loop header's terminator.
fn fallback_blocker(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    e: &ParallelizeError,
) -> Blocker {
    Blocker {
        kind: BlockerKind::LoopShape,
        inst: header_terminator(m, fid, la),
        related: Vec::new(),
        cross: Vec::new(),
        objects: Vec::new(),
        detail: exact(format_args!("{e}")),
        hint: Hint::Restructure,
    }
}

fn header_terminator(m: &Module, fid: FuncId, la: &LoopAbstraction) -> InstId {
    *m.func(fid)
        .block(la.structure().header)
        .insts
        .last()
        .expect("header has a terminator")
}

fn no_iv_blocker(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Blocker {
    // Anchor at the first header phi when there is one (the would-be IV),
    // else at the header terminator.
    let f = m.func(fid);
    let anchor = f
        .block(la.structure().header)
        .insts
        .iter()
        .copied()
        .find(|&i| matches!(f.inst(i), Inst::Phi { .. }))
        .unwrap_or_else(|| header_terminator(m, fid, la));
    Blocker {
        kind: BlockerKind::LoopShape,
        inst: anchor,
        related: Vec::new(),
        cross: Vec::new(),
        objects: Vec::new(),
        detail: "no governing induction variable bounds the loop".to_string(),
        hint: Hint::Restructure,
    }
}

/// One blocker per live-out the refusal names.
fn liveout_blockers(live_outs: &[InstId]) -> Vec<Blocker> {
    let blocker = |&anchor: &InstId| Blocker {
        kind: BlockerKind::UnsupportedLiveOut,
        inst: anchor,
        related: Vec::new(),
        cross: Vec::new(),
        objects: Vec::new(),
        detail: exact(format_args!(
            "live-out %v{} is not a recognized reduction accumulator",
            anchor.0
        )),
        hint: Hint::Reduction,
    };
    live_outs.iter().map(blocker).collect()
}

fn shape_blocker(m: &Module, fid: FuncId, la: &LoopAbstraction, reason: &str) -> Blocker {
    Blocker {
        kind: BlockerKind::LoopShape,
        inst: header_terminator(m, fid, la),
        related: Vec::new(),
        cross: Vec::new(),
        objects: Vec::new(),
        detail: exact(format_args!("unsupported loop shape: {reason}")),
        hint: Hint::Restructure,
    }
}

/// HELIX blockers: one per group the refusal carries — each sequential
/// segment, or each sequential SCC when the segments cannot be bracketed.
fn segment_blockers(reason: &str, groups: &[Vec<InstId>]) -> Vec<Blocker> {
    let blocker = |insts: &Vec<InstId>| {
        let (&anchor, rest) = insts.split_first()?;
        Some(Blocker {
            kind: BlockerKind::SequentialSegment,
            inst: anchor,
            related: rest[..rest.len().min(MAX_RELATED)].to_vec(),
            cross: Vec::new(),
            objects: Vec::new(),
            detail: exact(format_args!(
                "sequential segment of {} instruction(s) serializes the loop ({reason})",
                insts.len()
            )),
            hint: Hint::QueueMediate,
        })
    };
    groups.iter().filter_map(blocker).collect()
}

/// DSWP blockers: the largest cyclic (non-induction) SCC is what collapses
/// the pipeline into too few stages or ties stages together.
fn cyclic_scc_blockers(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    reason: &str,
) -> Vec<Blocker> {
    let best = la
        .sccdag
        .nodes()
        .iter()
        .filter(|n| !n.is_induction)
        .map(|n| la.sccdag.insts(n.id))
        .filter(|insts| insts.len() > 1)
        .max_by_key(|insts| insts.len());
    let Some(insts) = best else {
        return vec![shape_blocker(m, fid, la, reason)];
    };
    let anchor = insts[0];
    let related: Vec<InstId> = insts.iter().copied().skip(1).take(MAX_RELATED).collect();
    vec![Blocker {
        kind: BlockerKind::CyclicSccSpan,
        inst: anchor,
        related,
        cross: Vec::new(),
        objects: Vec::new(),
        detail: exact(format_args!(
            "cyclic SCC of {} instruction(s) resists pipeline staging ({reason})",
            insts.len()
        )),
        hint: Hint::Speculate,
    }]
}

/// Interprocedural enrichment of a dependence blocker: the points-to
/// objects behind the failed alias query, the call sites whose actuals
/// carry the conflicting pointer into this function, and the callee-side
/// memory accesses behind an impure call. The objects are collected as
/// keys and each is rendered once; `scratch` holds them meanwhile.
fn enrich(
    m: &Module,
    fid: FuncId,
    b: &mut Blocker,
    anders: &AndersenAlias,
    modref: &ModRefSummaries,
    calls: &CallEdges,
    scratch: &mut Attribution,
) {
    let f = m.func(fid);
    let Attribution {
        objects,
        rendered,
        cross,
        sites,
        sites_of,
    } = scratch;
    objects.clear();
    let add_site = |cross: &mut Vec<_>, site| {
        if !cross.contains(&site) {
            cross.push(site);
        }
    };
    let mut via_args = false;
    for &i in std::iter::once(&b.inst).chain(b.related.iter()) {
        match f.inst(i) {
            Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => {
                objects.extend(anders.points_to(fid, *ptr));
                via_args |= roots_in_args(f, *ptr, 0);
            }
            // The callee accesses that make the call impure.
            Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } if modref.may_write(*cid) || modref.has_io(*cid) => {
                let cf = m.func(*cid);
                for &ci in cf.block_order().iter().flat_map(|&bl| &cf.block(bl).insts) {
                    if cross.len() >= MAX_ATTRIBUTION {
                        break;
                    }
                    match cf.inst(ci) {
                        Inst::Store { .. } | Inst::Call { .. } => add_site(cross, (*cid, ci)),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    // The conflicting pointer arrives through a parameter: attribute the
    // call sites whose actuals feed it, in the order `call_sites` lists them.
    if via_args {
        if *sites_of != Some(fid) {
            call_sites(m, calls, fid, sites);
            *sites_of = Some(fid);
        }
        for &site in sites.iter() {
            if cross.len() >= MAX_ATTRIBUTION {
                break;
            }
            add_site(cross, site);
        }
    }
    objects.sort_unstable();
    objects.dedup();
    rendered.extend(objects.iter().map(|o| render_object(m, o)));
    rendered.sort_unstable();
    rendered.dedup();
    let kept = rendered.len().min(MAX_ATTRIBUTION);
    b.objects = rendered.drain(..kept).collect();
    rendered.clear();
    cross.sort_unstable();
    b.cross = cross.to_vec();
    cross.clear();
}

/// Does the pointer chase down to a function argument (through geps, casts,
/// selects, phis)? Depth-capped; conservative `false` on odd shapes.
fn roots_in_args(f: &noelle_ir::module::Function, v: Value, depth: usize) -> bool {
    if depth > 16 {
        return false;
    }
    match v {
        Value::Arg(_) => true,
        Value::Inst(i) => match f.inst(i) {
            Inst::Gep { base, .. } => roots_in_args(f, *base, depth + 1),
            Inst::Cast { val, .. } => roots_in_args(f, *val, depth + 1),
            Inst::Select { tval, fval, .. } => {
                roots_in_args(f, *tval, depth + 1) || roots_in_args(f, *fval, depth + 1)
            }
            Inst::Phi { incomings, .. } => incomings
                .iter()
                .any(|(_, iv)| roots_in_args(f, *iv, depth + 1)),
            _ => false,
        },
        _ => false,
    }
}

/// `args` rendered into a `String` of exactly its length: a blocker's
/// text lives as long as the audit does.
fn exact(args: fmt::Arguments<'_>) -> String {
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    let _ = fmt::Write::write_fmt(&mut len, args);
    let mut text = String::with_capacity(len.0);
    let _ = fmt::Write::write_fmt(&mut text, args);
    text
}

/// Stable human-readable name for an abstract memory object.
fn render_object(m: &Module, o: &MemoryObject) -> String {
    match o {
        MemoryObject::Global(g) => exact(format_args!("global @{}", m.global(*g).name)),
        MemoryObject::Alloca(f, i) => {
            exact(format_args!("alloca %v{} in @{}", i.0, m.func(*f).name))
        }
        MemoryObject::Heap(f, i) => exact(format_args!("heap %v{} in @{}", i.0, m.func(*f).name)),
        MemoryObject::Function(f) => exact(format_args!("function @{}", m.func(*f).name)),
        MemoryObject::Unknown => "unknown memory".to_string(),
    }
}

/// Lower an audit into NL01xx findings: one hint-severity finding per
/// distinct blocker, techniques merged into the message, related and
/// cross-function sites carried as secondary locations.
pub fn audit_findings(m: &Module, audit: &ModuleAudit) -> Vec<Finding> {
    let mut out = Vec::new();
    for l in &audit.loops {
        // Merge identical blockers reported by several techniques.
        type Key = (InstId, BlockerKind, String, Hint);
        let mut merged: BTreeMap<Key, (Blocker, BTreeSet<&'static str>)> = BTreeMap::new();
        for v in &l.verdicts {
            for b in &v.blockers {
                let key = (b.inst, b.kind, b.detail.clone(), b.hint);
                merged
                    .entry(key)
                    .or_insert_with(|| (b.clone(), BTreeSet::new()))
                    .1
                    .insert(v.technique.as_str());
            }
        }
        for (_, (b, techs)) in merged {
            let techs: Vec<&str> = techs.into_iter().collect();
            let mut message = format!(
                "[{}] loop @{}:{}: {} (hint: {})",
                techs.join("+"),
                l.function,
                l.header_name,
                b.detail,
                b.hint.as_str()
            );
            if !b.objects.is_empty() {
                message.push_str(&format!(" [aliases: {}]", b.objects.join(", ")));
            }
            let related = b
                .related
                .iter()
                .map(|&i| IrLoc::of(m, l.fid, i))
                .chain(b.cross.iter().map(|&(cf, ci)| IrLoc::of(m, cf, ci)))
                .collect();
            out.push(Finding {
                code: audit_code(b.kind),
                severity: Severity::Hint,
                loc: IrLoc::of(m, l.fid, b.inst),
                message,
                related,
            });
        }
    }
    sort_findings(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;

    fn audit_src(src: &str) -> (Noelle, ModuleAudit) {
        let m = parse_module(src).unwrap();
        let mut n = Noelle::new(m, AliasTier::Full);
        let audit = run_audit(&mut n);
        (n, audit)
    }

    #[test]
    fn clean_doall_loop_gets_clean_verdict() {
        let (_, audit) = audit_src(
            r#"
module "t" {
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
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#,
        );
        assert_eq!(audit.loops.len(), 1);
        let v = audit.loops[0].verdict(Parallelizer::Doall);
        assert!(v.clean(), "{v:?}");
        assert!(v.blockers.is_empty());
    }

    #[test]
    fn blocked_loop_names_instruction_and_hint() {
        let (n, audit) = audit_src(
            r#"
module "t" {
define i64 @main() {
entry:
  %cell = alloca i64, i64 1
  store i64 i64 1, %cell
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, i64 100
  condbr %c, body, exit
body:
  %v = load i64, %cell
  %v2 = mul i64 %v, i64 3
  store i64 %v2, %cell
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %cell
  ret %r
}
}
"#,
        );
        assert_eq!(audit.loops.len(), 1);
        let v = audit.loops[0].verdict(Parallelizer::Doall);
        assert!(!v.clean());
        assert!(!v.blockers.is_empty(), "blocked verdicts carry blockers");
        // The recurrence is through the alloca cell: the attribution must
        // name the abstract object.
        assert!(
            v.blockers
                .iter()
                .any(|b| b.objects.iter().any(|o| o.contains("alloca"))),
            "{:?}",
            v.blockers
        );
        let findings = audit_findings(n.module(), &audit);
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.code.starts_with("NL01")));
        assert!(findings.iter().all(|f| f.severity == Severity::Hint));
    }

    #[test]
    fn interprocedural_attribution_reaches_call_sites() {
        // The kernel updates memory through a parameter; the conflicting
        // pointer arrives from main's call site.
        let (_, audit) = audit_src(
            r#"
module "t" {
define void @kernel(i64* %acc, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %v = load i64, %acc
  %v2 = mul i64 %v, i64 3
  store i64 %v2, %acc
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret void
}
define i64 @main() {
entry:
  %cell = alloca i64, i64 1
  store i64 i64 1, %cell
  call void @kernel(%cell, i64 10)
  %r = load i64, %cell
  ret %r
}
}
"#,
        );
        let lk = audit
            .loops
            .iter()
            .find(|l| l.function == "kernel")
            .expect("kernel loop audited");
        let v = lk.verdict(Parallelizer::Doall);
        assert!(!v.clean());
        let main_fid = v
            .blockers
            .iter()
            .flat_map(|b| &b.cross)
            .next()
            .map(|(f, _)| *f);
        assert!(
            main_fid.is_some(),
            "cross attribution names main's call site: {:?}",
            v.blockers
        );
    }

    #[test]
    fn audit_json_is_deterministic() {
        let src = r#"
module "t" {
define i64 @main() {
entry:
  %cell = alloca i64, i64 1
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, i64 100
  condbr %c, body, exit
body:
  %v = load i64, %cell
  %v2 = add i64 %v, %i
  store i64 %v2, %cell
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret i64 0
}
}
"#;
        let (_, a) = audit_src(src);
        let (_, b) = audit_src(src);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    /// The classifier alone, over the basic alias tier.
    fn classified(src: &str, func: &str) -> (Module, Vec<Blocker>) {
        use noelle_analysis::alias::BasicAlias;
        use noelle_pdg::pdg::PdgBuilder;
        let m = parse_module(src).unwrap();
        let fid = m.func_id_by_name(func).unwrap();
        let f = m.func(fid);
        let cfg = noelle_ir::cfg::Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let forest = noelle_ir::loops::LoopForest::new(f, &cfg, &dt);
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let la = LoopAbstraction::build(&builder, fid, &Arc::new(forest), LoopId(0));
        let modref = ModRefSummaries::compute(&m);
        let blockers = carried_dep_blockers(&m, &la, &modref, &mut Vec::new());
        (m, blockers)
    }

    #[test]
    fn doall_clean_loop_has_no_blockers() {
        let (_, blockers) = classified(
            r#"
module "t" {
define i64 @k(i64* %a, i64 %n) {
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
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#,
            "k",
        );
        assert!(blockers.is_empty(), "{blockers:?}");
    }

    #[test]
    fn memory_recurrence_is_attributed_with_reduction_hint() {
        let (_, blockers) = classified(
            r#"
module "t" {
define i64 @k(i64* %acc, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %v = load i64, %acc
  %v2 = add i64 %v, i64 3
  store i64 %v2, %acc
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %acc
  ret %r
}
}
"#,
            "k",
        );
        assert!(!blockers.is_empty());
        assert!(
            blockers.iter().any(|b| matches!(
                b.kind,
                BlockerKind::CarriedMemoryDep | BlockerKind::UnprovenAlias
            )),
            "{blockers:?}"
        );
        // The load-add-store cycle must carry a reduction hint on at least
        // one attributed dependence.
        assert!(
            blockers.iter().any(|b| b.hint == Hint::Reduction),
            "{blockers:?}"
        );
    }

    #[test]
    fn blockers_render_deterministically() {
        let (_, mut a) = classified(
            r#"
module "t" {
define i64 @k(i64* %acc, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %v = load i64, %acc
  %v2 = add i64 %v, i64 3
  store i64 %v2, %acc
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret i64 0
}
}
"#,
            "k",
        );
        let mut b = a.clone();
        b.reverse();
        sort_blockers(&mut a);
        sort_blockers(&mut b);
        assert_eq!(a, b);
    }
}
