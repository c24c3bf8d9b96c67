//! The AUDIT abstraction: per-loop parallelism blocker attribution.
//!
//! For every loop, the auditor answers *why* a parallelization technique
//! (DOALL, HELIX, DSWP) does not apply, naming the exact instructions and
//! dependences at fault and a resolution hint for each. This is the static
//! half of a parallelization planner: the paper's abstractions (PDG,
//! aSCCDAG, IV, RD, mod/ref) already carry everything needed to explain a
//! refusal, not just to issue one.
//!
//! This module owns the *data model* and the dependence-level classifier,
//! which only needs the loop abstraction and the mod/ref summaries. The
//! technique verdicts themselves (does DOALL/HELIX/DSWP actually apply?)
//! are computed by `noelle-lint`'s audit driver by calling the transforms'
//! own `gate`, so a "clean" verdict is the transform's judgment, not a
//! re-implementation of it.

use crate::json::Json;
use crate::loop_abs::LoopAbstraction;
use noelle_analysis::modref::ModRefSummaries;
use noelle_ir::inst::{Inst, InstId};
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_pdg::depgraph::{DataDepKind, DepKind};
use noelle_pdg::sccdag::SccKind;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A parallelization technique the auditor issues a verdict for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Technique {
    /// Iteration distribution with no cross-iteration ordering.
    Doall,
    /// Iteration distribution with ordered sequential segments.
    Helix,
    /// SCC distribution into pipeline stages.
    Dswp,
}

impl Technique {
    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Technique::Doall => "doall",
            Technique::Helix => "helix",
            Technique::Dswp => "dswp",
        }
    }

    /// All techniques, in report order.
    pub fn all() -> [Technique; 3] {
        [Technique::Doall, Technique::Helix, Technique::Dswp]
    }
}

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
    /// SCC (or a backward cross-stage dependence ties stages together).
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
    pub technique: Technique,
    /// True when the technique's own gates accept the loop: the transform
    /// is expected to apply *and* preserve behavior (the fuzz oracle holds
    /// the auditor to exactly this reading).
    pub clean: bool,
    /// The gate's refusal reason, verbatim, when blocked.
    pub reason: Option<String>,
    /// Attributed blockers (non-empty whenever `clean` is false).
    pub blockers: Vec<Blocker>,
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
    /// on them next (the planner prices it instead of building it again).
    /// It lives exactly as long as the audit does, and its instruction and
    /// block ids name the module as it was at audit time: read it against
    /// the auditing manager's module, before that manager's next edit.
    pub abstraction: Arc<LoopAbstraction>,
    /// The owning function's [`crate::noelle::Noelle::revision`] at audit
    /// time (what a consumer of `abstraction` checks it is not late).
    pub revision: u64,
    /// Per-technique verdicts, in [`Technique::all`] order.
    pub verdicts: Vec<TechniqueAudit>,
}

impl LoopAudit {
    /// The verdict for `t`.
    pub fn verdict(&self, t: Technique) -> &TechniqueAudit {
        self.verdicts
            .iter()
            .find(|v| v.technique == t)
            .expect("all techniques audited")
    }

    /// True when every technique is blocked.
    pub fn fully_blocked(&self) -> bool {
        self.verdicts.iter().all(|v| !v.clean)
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
                            ("clean".to_string(), Json::Bool(v.clean)),
                            (
                                "reason".to_string(),
                                match &v.reason {
                                    Some(r) => Json::Str(r.clone()),
                                    None => Json::Null,
                                },
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
                if v.clean {
                    out.push_str(&format!("  {}: clean\n", v.technique.as_str()));
                    continue;
                }
                out.push_str(&format!(
                    "  {}: blocked ({})\n",
                    v.technique.as_str(),
                    v.reason.as_deref().unwrap_or("unspecified")
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
pub fn sort_blockers(blockers: &mut Vec<Blocker>) {
    blockers.sort_by(|a, b| {
        (a.inst, a.kind, &a.detail, a.hint, &a.related, &a.cross)
            .cmp(&(b.inst, b.kind, &b.detail, b.hint, &b.related, &b.cross))
    });
    blockers.dedup();
}

/// Classify every unhandled loop-carried dependence of `la` into attributed
/// blockers — the DOALL-level obstacles. Interprocedural enrichment (call
/// chains, points-to rows) is layered on by the lint driver; this classifier
/// is purely structural so it stays cheap and dependency-free.
pub fn carried_dep_blockers(
    m: &Module,
    la: &LoopAbstraction,
    modref: &ModRefSummaries,
) -> Vec<Blocker> {
    let f = m.func(la.fid);
    let handled = la.handled_recurrence_insts();
    // One blocker per unordered instruction pair: the PDG usually holds
    // several facets (RAW + WAR + WAW) of one conflicting access pair, and
    // the strongest facet decides the classification — a pair with a RAW
    // component is a recurrence, not just an overwrite.
    let mut pairs: std::collections::BTreeMap<
        (InstId, InstId),
        Vec<&noelle_pdg::depgraph::DepEdge<InstId>>,
    > = std::collections::BTreeMap::new();
    for e in la.pdg.edges() {
        if !(e.attrs.loop_carried
            && e.attrs.is_data()
            && la.pdg.is_internal(e.src)
            && la.pdg.is_internal(e.dst))
        {
            continue;
        }
        if handled.contains(&e.src) && handled.contains(&e.dst) {
            continue;
        }
        let key = if e.src <= e.dst {
            (e.src, e.dst)
        } else {
            (e.dst, e.src)
        };
        pairs.entry(key).or_default().push(e);
    }
    let mut out = Vec::new();
    for ((anchor, other), edges) in &pairs {
        let (anchor, other) = (*anchor, *other);
        let anchor_call = matches!(f.inst(anchor), Inst::Call { .. });
        let other_call = matches!(f.inst(other), Inst::Call { .. });
        let any_memory = edges.iter().any(|e| e.attrs.memory);
        let any_must = edges.iter().any(|e| e.attrs.must);
        let has_raw = edges
            .iter()
            .any(|e| e.attrs.kind == DepKind::Data(DataDepKind::Raw));
        let kinds = facet_names(edges);
        let blocker = if anchor_call || other_call {
            let call = if anchor_call { anchor } else { other };
            let hint = call_hint(m, la.fid, call, modref);
            Blocker {
                kind: BlockerKind::ImpureCall,
                inst: anchor,
                related: vec![other],
                cross: Vec::new(),
                objects: Vec::new(),
                detail: format!(
                    "loop-carried {kinds} dependence pinned by a side-effecting call (%v{})",
                    call.0
                ),
                hint,
            }
        } else if any_memory {
            let reduction_like = has_raw
                && matches!(
                    (la.sccdag.scc_of(anchor), la.sccdag.scc_of(other)),
                    (Some(a), Some(b))
                        if a == b && scc_is_reduction_like(f, &la.sccdag.nodes()[a].insts)
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
                    detail: format!(
                        "proven loop-carried {kinds} dependence through memory \
                         (%v{} <-> %v{})",
                        anchor.0, other.0
                    ),
                    hint,
                }
            } else {
                Blocker {
                    kind: BlockerKind::UnprovenAlias,
                    inst: anchor,
                    related: vec![other],
                    cross: Vec::new(),
                    objects: Vec::new(),
                    detail: format!(
                        "apparent loop-carried {kinds} dependence: the alias query \
                         could not prove %v{} and %v{} disjoint",
                        anchor.0, other.0
                    ),
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
                detail: format!(
                    "loop-carried register recurrence (%v{} <-> %v{}) is neither an \
                     induction variable nor a recognized reduction",
                    anchor.0, other.0
                ),
                hint: register_recurrence_hint(la, anchor),
            }
        };
        out.push(blocker);
    }
    sort_blockers(&mut out);
    out
}

/// Deterministic "RAW+WAR"-style rendering of the dependence facets a pair
/// of instructions carries.
fn facet_names(edges: &[&noelle_pdg::depgraph::DepEdge<InstId>]) -> String {
    let mut names: BTreeSet<&'static str> = BTreeSet::new();
    for e in edges {
        names.insert(match e.attrs.kind {
            DepKind::Data(DataDepKind::Raw) => "RAW",
            DepKind::Data(DataDepKind::War) => "WAR",
            DepKind::Data(DataDepKind::Waw) => "WAW",
            DepKind::Control => "control",
        });
    }
    let order = ["RAW", "WAR", "WAW", "control"];
    order
        .iter()
        .filter(|n| names.contains(*n))
        .copied()
        .collect::<Vec<_>>()
        .join("+")
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
fn scc_is_reduction_like(f: &noelle_ir::module::Function, insts: &BTreeSet<InstId>) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_analysis::alias::BasicAlias;
    use noelle_ir::parser::parse_module;
    use noelle_pdg::pdg::PdgBuilder;

    fn audit_of(src: &str, func: &str) -> (Module, Vec<Blocker>) {
        let m = parse_module(src).unwrap();
        let fid = m.func_id_by_name(func).unwrap();
        let f = m.func(fid);
        let cfg = noelle_ir::cfg::Cfg::new(f);
        let dt = noelle_ir::dom::DomTree::new(f, &cfg);
        let forest = noelle_ir::loops::LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let la = LoopAbstraction::build(&builder, fid, l);
        let modref = ModRefSummaries::compute(&m);
        let blockers = carried_dep_blockers(&m, &la, &modref);
        (m, blockers)
    }

    #[test]
    fn doall_clean_loop_has_no_blockers() {
        let (_, blockers) = audit_of(
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
        let (_, blockers) = audit_of(
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
        let (_, mut a) = audit_of(
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
