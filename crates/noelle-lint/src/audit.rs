//! The parallelism auditor: for every loop in the forest, a per-technique
//! verdict (DOALL / HELIX / DSWP) with instruction-level blocker
//! attribution and a resolution hint for each blocker.
//!
//! A verdict *is* the transform's own `gate` — the call the driver makes
//! before it emits — so "clean" means "the transform takes this loop"; the
//! fuzz oracle still holds every clean verdict against the real run and
//! the differential oracle. Blockers come from the
//! dependence-level classifier in `noelle-core::audit`, enriched here with
//! interprocedural attribution: the Andersen points-to rows behind each
//! failed alias query, the call sites whose actuals carry the conflicting
//! pointer into the loop's function, and the callee-side accesses behind
//! impure calls. The NL01xx diagnostic series surfaces the same blockers
//! through the normal lint rendering pipeline.

use crate::diag::{sort_findings, Finding, IrLoc, Severity};
use noelle_analysis::alias::{AndersenAlias, MemoryObject};
use noelle_analysis::modref::ModRefSummaries;
use noelle_core::audit::{
    carried_dep_blockers, sort_blockers, Blocker, BlockerKind, Hint, LoopAudit, ModuleAudit,
    Technique, TechniqueAudit,
};
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::{Abstraction, CallEdges, Noelle};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::value::Value;
use noelle_transforms::common::{gate, ParallelizeError};
use noelle_transforms::helix;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Worker count verdicts are issued for: DSWP is judged as the canonical
/// two-stage pipeline, and no other gate reads the count.
const AUDIT_WORKERS: usize = 2;
/// Cap on rendered alias objects / cross-function sites per blocker: the
/// report names evidence, it does not dump whole rows.
const MAX_ATTRIBUTION: usize = 8;
/// Cap on related instructions carried by a segment/SCC blocker.
const MAX_RELATED: usize = 6;

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
pub fn run_audit_scoped(n: &mut Noelle, only: Option<&BTreeSet<FuncId>>) -> ModuleAudit {
    n.note(Abstraction::Audit);
    let arch = n.architecture();

    let modref = n.modref_summaries();
    // The attribution below reads the solved rows.
    let _ = n.points_to();
    let mut fids: Vec<(String, FuncId)> = n
        .module()
        .func_ids()
        .filter(|&fid| !n.module().func(fid).block_order().is_empty())
        .filter(|fid| only.is_none_or(|set| set.contains(fid)))
        .map(|fid| (n.module().func(fid).name.clone(), fid))
        .collect();
    fids.sort();

    let mut loops = Vec::new();
    for (fname, fid) in fids {
        let mut func_loops = n.loops_of(fid);
        func_loops.sort_by_key(|l| header_index(n.module(), fid, l.header));
        for l in func_loops {
            let la = Arc::new(n.loop_abstraction(fid, l));
            let (m, anders) = (n.module(), n.cached_points_to().expect("just built"));
            // The dependence-level blockers are shared by all three verdicts.
            let mut carried = carried_dep_blockers(m, &la, &modref);
            for b in &mut carried {
                enrich(m, fid, b, anders, &modref, n.direct_calls());
            }
            let verdicts = Technique::all()
                .into_iter()
                .map(|t| match gate(t, m, fid, &la, &arch, AUDIT_WORKERS) {
                    Ok(_) => TechniqueAudit {
                        technique: t,
                        clean: true,
                        reason: None,
                        blockers: Vec::new(),
                    },
                    Err(e) => {
                        let mut blockers = blockers_for(m, fid, &la, &e, &carried);
                        if blockers.is_empty() {
                            blockers.push(fallback_blocker(m, fid, &la, &e));
                        }
                        sort_blockers(&mut blockers);
                        TechniqueAudit {
                            technique: t,
                            clean: false,
                            reason: Some(e.to_string()),
                            blockers,
                        }
                    }
                })
                .collect();
            let header = la.structure.header;
            loops.push(LoopAudit {
                fid,
                function: fname.clone(),
                header,
                header_name: m.func(fid).block(header).name.clone(),
                header_index: header_index(m, fid, header),
                abstraction: la,
                revision: n.revision(fid),
                verdicts,
            });
        }
    }
    ModuleAudit { loops }
}

fn header_index(m: &Module, fid: FuncId, b: noelle_ir::module::BlockId) -> usize {
    m.func(fid)
        .block_order()
        .iter()
        .position(|&x| x == b)
        .unwrap_or(usize::MAX)
}

/// Attribute a technique refusal to blockers, by refusal variant.
fn blockers_for(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    e: &ParallelizeError,
    carried: &[Blocker],
) -> Vec<Blocker> {
    match e {
        ParallelizeError::CarriedDependences => carried.to_vec(),
        ParallelizeError::NoGoverningIv => vec![no_iv_blocker(m, fid, la)],
        ParallelizeError::UnsupportedLiveOut => liveout_blockers(m, fid, la),
        ParallelizeError::Segments(why) => segment_blockers(m, fid, la, why),
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
        detail: e.to_string(),
        hint: Hint::Restructure,
    }
}

fn header_terminator(m: &Module, fid: FuncId, la: &LoopAbstraction) -> InstId {
    *m.func(fid)
        .block(la.structure.header)
        .insts
        .last()
        .expect("header has a terminator")
}

fn no_iv_blocker(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Blocker {
    // Anchor at the first header phi when there is one (the would-be IV),
    // else at the header terminator.
    let f = m.func(fid);
    let anchor = f
        .block(la.structure.header)
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

fn liveout_blockers(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Vec<Blocker> {
    let mut out = Vec::new();
    for (v, _) in &la.env.live_outs {
        if la.reductions.iter().any(|r| Value::Inst(r.phi) == *v) {
            continue;
        }
        let anchor = match v {
            Value::Inst(i) => *i,
            _ => header_terminator(m, fid, la),
        };
        out.push(Blocker {
            kind: BlockerKind::UnsupportedLiveOut,
            inst: anchor,
            related: Vec::new(),
            cross: Vec::new(),
            objects: Vec::new(),
            detail: format!(
                "live-out %v{} is not a recognized reduction accumulator",
                anchor.0
            ),
            hint: Hint::Reduction,
        });
    }
    out
}

fn shape_blocker(m: &Module, fid: FuncId, la: &LoopAbstraction, reason: &str) -> Blocker {
    Blocker {
        kind: BlockerKind::LoopShape,
        inst: header_terminator(m, fid, la),
        related: Vec::new(),
        cross: Vec::new(),
        objects: Vec::new(),
        detail: format!("unsupported loop shape: {reason}"),
        hint: Hint::Restructure,
    }
}

/// HELIX blockers: one per sequential segment (or per sequential SCC when
/// the segments cannot even be bracketed).
fn segment_blockers(m: &Module, fid: FuncId, la: &LoopAbstraction, reason: &str) -> Vec<Blocker> {
    let mut out = Vec::new();
    let groups: Vec<BTreeSet<InstId>> = match helix::sequential_segments(m, fid, la) {
        Some(segments) => segments,
        None => la
            .sequential_sccs()
            .into_iter()
            .map(|s| la.sccdag.nodes()[s].insts.clone())
            .collect(),
    };
    for insts in groups {
        let Some(&anchor) = insts.iter().next() else {
            continue;
        };
        let related: Vec<InstId> = insts.iter().copied().skip(1).take(MAX_RELATED).collect();
        out.push(Blocker {
            kind: BlockerKind::SequentialSegment,
            inst: anchor,
            related,
            cross: Vec::new(),
            objects: Vec::new(),
            detail: format!(
                "sequential segment of {} instruction(s) serializes the loop ({reason})",
                insts.len()
            ),
            hint: Hint::QueueMediate,
        });
    }
    out
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
        .filter(|n| !n.is_induction && n.insts.len() > 1)
        .max_by_key(|n| n.insts.len());
    let Some(node) = best else {
        return vec![shape_blocker(m, fid, la, reason)];
    };
    let anchor = *node.insts.iter().next().expect("non-empty SCC");
    let related: Vec<InstId> = node
        .insts
        .iter()
        .copied()
        .skip(1)
        .take(MAX_RELATED)
        .collect();
    vec![Blocker {
        kind: BlockerKind::CyclicSccSpan,
        inst: anchor,
        related,
        cross: Vec::new(),
        objects: Vec::new(),
        detail: format!(
            "cyclic SCC of {} instruction(s) resists pipeline staging ({reason})",
            node.insts.len()
        ),
        hint: Hint::Speculate,
    }]
}

/// Interprocedural enrichment of a dependence blocker: the points-to
/// objects behind the failed alias query, the call sites whose actuals
/// carry the conflicting pointer into this function, and the callee-side
/// memory accesses behind an impure call.
fn enrich(
    m: &Module,
    fid: FuncId,
    b: &mut Blocker,
    anders: &AndersenAlias,
    modref: &ModRefSummaries,
    calls: &CallEdges,
) {
    let f = m.func(fid);
    let mut objects: BTreeSet<String> = BTreeSet::new();
    let mut cross: BTreeSet<(FuncId, InstId)> = BTreeSet::new();
    let mut via_args = false;
    for &i in std::iter::once(&b.inst).chain(b.related.iter()) {
        match f.inst(i) {
            Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => {
                for o in anders.points_to(fid, *ptr) {
                    objects.insert(render_object(m, &o));
                }
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
                        Inst::Store { .. } | Inst::Call { .. } => {
                            cross.insert((*cid, ci));
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    // The conflicting pointer arrives through a parameter: attribute the
    // call sites whose actuals feed it — callers ascending, each body in
    // layout order, so which sites survive the cap does not depend on who
    // asks. Only the callers' bodies are walked, never the module.
    if via_args {
        'sites: for caller in calls.callers_of(fid) {
            let cf = m.func(caller);
            for &ci in cf.block_order().iter().flat_map(|&bl| &cf.block(bl).insts) {
                if cross.len() >= MAX_ATTRIBUTION {
                    break 'sites;
                }
                match cf.inst(ci) {
                    Inst::Call {
                        callee: Callee::Direct(cid),
                        ..
                    } if *cid == fid => {
                        cross.insert((caller, ci));
                    }
                    _ => {}
                }
            }
        }
    }
    b.objects = objects.into_iter().take(MAX_ATTRIBUTION).collect();
    b.cross = cross.into_iter().take(MAX_ATTRIBUTION).collect();
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

/// Stable human-readable name for an abstract memory object.
fn render_object(m: &Module, o: &MemoryObject) -> String {
    match o {
        MemoryObject::Global(g) => format!("global @{}", m.global(*g).name),
        MemoryObject::Alloca(f, i) => format!("alloca %v{} in @{}", i.0, m.func(*f).name),
        MemoryObject::Heap(f, i) => format!("heap %v{} in @{}", i.0, m.func(*f).name),
        MemoryObject::Function(f) => format!("function @{}", m.func(*f).name),
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
        let v = audit.loops[0].verdict(Technique::Doall);
        assert!(v.clean, "{v:?}");
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
        let v = audit.loops[0].verdict(Technique::Doall);
        assert!(!v.clean);
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
        let v = lk.verdict(Technique::Doall);
        assert!(!v.clean);
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
}
