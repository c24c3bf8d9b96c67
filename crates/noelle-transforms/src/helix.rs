//! HELIX: parallelize a loop by distributing its *iterations* between cores
//! while keeping the loop-carried portions ordered.
//!
//! "Each iteration is sliced into several sequential and parallel segments.
//! Different instances of the same static sequential segment run
//! sequentially between the cores while everything else can overlap."
//!
//! Sequential segments are derived from the aSCCDAG: the sequential SCCs
//! (plus any SCCs tied together by loop-carried data dependences the
//! parallelizer cannot remove) are grouped into segments; each segment is
//! bracketed by `noelle.ss.wait(seg, iter)` / `noelle.ss.signal(seg)` so its
//! dynamic instances execute in iteration order across cores, with the
//! core-to-core signal latency charged from the AR abstraction.

use crate::common::{
    approx_inst_cost, candidate_loops, parallelize_with, task_loop, DoneLoops, LoopTargetOpts,
    ParallelReport, ParallelizeError, SS_SIGNAL_INTRINSIC, SS_WAIT_INTRINSIC,
};
use crate::doall::distribute_cyclically;
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_core::task::TaskFunction;
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;
use noelle_pdg::islands::islands_of;
use std::collections::BTreeSet;

/// Options controlling HELIX. `target.workers` is the number of cores
/// iterations are distributed over.
#[derive(Clone, Debug)]
pub struct HelixOptions {
    /// Shared loop selection: hotness gate, pinning, worker count.
    pub target: LoopTargetOpts,
    /// Skip loops whose sequential segments cover more than this fraction of
    /// the loop body (they would serialize everything).
    pub max_sequential_fraction: f64,
}

impl Default for HelixOptions {
    fn default() -> HelixOptions {
        HelixOptions {
            target: LoopTargetOpts::default(),
            max_sequential_fraction: 0.7,
        }
    }
}

/// Compute the sequential segments of a loop: connected groups of SCCs that
/// must execute in iteration order. Returns `None` when a segment cannot be
/// safely bracketed (its instructions may be skipped within an iteration).
pub fn sequential_segments(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
) -> Option<Vec<BTreeSet<InstId>>> {
    let f = m.func(fid);
    let l = &la.structure;
    let handled = la.handled_recurrence_insts();

    // Problem SCCs: sequential ones, plus SCCs linked by loop-carried data
    // edges that are not confined to handled recurrences.
    let mut problem: BTreeSet<usize> = la.sequential_sccs().into_iter().collect();
    let mut links: Vec<(usize, usize)> = Vec::new();
    for e in la.pdg.edges() {
        if !(e.attrs.loop_carried && e.attrs.is_data()) {
            continue;
        }
        if handled.contains(&e.src) && handled.contains(&e.dst) {
            continue;
        }
        let (Some(a), Some(b)) = (la.sccdag.scc_of(e.src), la.sccdag.scc_of(e.dst)) else {
            continue;
        };
        if la.sccdag.nodes()[a].is_induction && la.sccdag.nodes()[b].is_induction {
            continue;
        }
        problem.insert(a);
        problem.insert(b);
        if a != b {
            links.push((a, b));
        }
    }
    if problem.is_empty() {
        return Some(Vec::new());
    }

    // Group into segments via the islands capability.
    let nodes: Vec<usize> = problem.iter().copied().collect();
    let groups = islands_of(&nodes, &links);

    // Bracketing requires every segment instruction to execute exactly once
    // per iteration: its block must dominate the (single) latch.
    let latch = l.single_latch()?;
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let mut segments = Vec::new();
    for g in groups {
        let mut insts: BTreeSet<InstId> = BTreeSet::new();
        for scc in g {
            insts.extend(la.sccdag.nodes()[scc].insts.iter().copied());
        }
        for &i in &insts {
            let b = f.parent_block(i);
            if !dt.dominates(b, latch) {
                return None;
            }
        }
        segments.push(insts);
    }
    Some(segments)
}

/// Decide, without mutating anything, whether HELIX would apply to this
/// loop: the exact gate sequence of [`run`], then the shared DOALL
/// mechanics gates (live-outs, outlining, IV stepping, dispatcher).
/// `latency` is the architecture's cross-core signal latency, as fed to the
/// profitability gate by [`run`].
pub fn precheck(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    latency: u64,
    max_sequential_fraction: f64,
) -> Result<(), ParallelizeError> {
    if la.ivs.governing().is_none() {
        return Err(ParallelizeError::NoGoverningIv);
    }
    let Some(segments) = sequential_segments(m, fid, la) else {
        return Err(ParallelizeError::Shape("unbracketably sequential".into()));
    };
    let seg_insts: usize = segments.iter().map(BTreeSet::len).sum();
    let total = la.pdg.num_internal().max(1);
    if seg_insts as f64 / total as f64 > max_sequential_fraction {
        return Err(ParallelizeError::Shape("mostly sequential".into()));
    }
    if !segments.is_empty() {
        let f = m.func(fid);
        let body_cost: u64 = la
            .pdg
            .internal_nodes()
            .map(|i| approx_inst_cost(f.inst(i)))
            .sum();
        let seg_cost: u64 = segments
            .iter()
            .flat_map(|s| s.iter())
            .map(|&i| approx_inst_cost(f.inst(i)))
            .sum();
        if body_cost < (seg_cost + latency) * 13 / 10 {
            return Err(ParallelizeError::Shape(
                "sequential segment dominates".into(),
            ));
        }
    }
    // Shared mechanics: live-outs, single exit, steppable IVs, pre-header.
    // HELIX rides on the same outline + cyclic distribution + dispatcher as
    // DOALL, minus the dependence gate (that is the point of the brackets).
    match crate::doall::precheck(m, fid, la) {
        Err(ParallelizeError::CarriedDependences) | Ok(()) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Apply HELIX to every eligible loop of the module.
pub fn run(noelle: &mut Noelle, opts: &HelixOptions) -> ParallelReport {
    for a in [
        Abstraction::Pro,
        Abstraction::Fr,
        Abstraction::L,
        Abstraction::Env,
        Abstraction::Task,
        Abstraction::Dfe,
        Abstraction::Scd,
        Abstraction::Lb,
        Abstraction::Iv,
        Abstraction::Ivs,
        Abstraction::Inv,
        Abstraction::Rd,
        Abstraction::ASccDag,
        Abstraction::Ar,
        Abstraction::Ls,
    ] {
        noelle.note(a);
    }
    let mut report = ParallelReport::default();
    let profiles = noelle.profiles();
    let have_profiles = !profiles.block_counts.is_empty();
    let mut seg_counter: i64 = next_segment_base(noelle.module());

    let mut done = DoneLoops::default();
    for (fid, l) in candidate_loops(noelle, &opts.target) {
        if done.subsume(fid, &l) {
            continue;
        }
        let fname = noelle.module().func(fid).name.clone();
        if have_profiles
            && profiles.loop_hotness(noelle.module(), fid, &l) < opts.target.min_hotness
        {
            report.skipped.push((fname, l.header, "cold loop".into()));
            continue;
        }
        let la = noelle.loop_abstraction(fid, l.clone());
        if la.ivs.governing().is_none() {
            report
                .skipped
                .push((fname, l.header, "no governing IV".into()));
            continue;
        }
        let Some(segments) = sequential_segments(noelle.module(), fid, &la) else {
            report
                .skipped
                .push((fname, l.header, "unbracketably sequential".into()));
            continue;
        };
        // Fraction check: serializing most of the body is pointless.
        let seg_insts: usize = segments.iter().map(BTreeSet::len).sum();
        let total = la.pdg.num_internal().max(1);
        if seg_insts as f64 / total as f64 > opts.max_sequential_fraction {
            report
                .skipped
                .push((fname, l.header, "mostly sequential".into()));
            continue;
        }
        // Profitability: the cross-core signal latency is paid once per
        // iteration on the sequential chain; the parallel work per iteration
        // must outweigh it (AR provides the latency).
        if !segments.is_empty() {
            let f = noelle.module().func(fid);
            let body_cost: u64 = la
                .pdg
                .internal_nodes()
                .map(|i| approx_inst_cost(f.inst(i)))
                .sum();
            let seg_cost: u64 = segments
                .iter()
                .flat_map(|s| s.iter())
                .map(|&i| approx_inst_cost(f.inst(i)))
                .sum();
            let latency = noelle.architecture().max_latency();
            if body_cost < (seg_cost + latency) * 13 / 10 {
                report
                    .skipped
                    .push((fname, l.header, "sequential segment dominates".into()));
                continue;
            }
        }
        let task_name = format!("{fname}.helix.{}", l.header.0);
        let seg_base = seg_counter;
        seg_counter += segments.len() as i64;
        let segments_ref = &segments;
        match noelle.edit(|tx| {
            parallelize_with(
                tx.module_touching([fid]),
                fid,
                &la,
                opts.target.workers,
                &task_name,
                |m, task| {
                    distribute_cyclically(m, task)?;
                    bracket_segments(m, task, segments_ref, seg_base)
                },
            )
        }) {
            Ok(()) => {
                report.parallelized.push((fname, l.header));
                done.push(fid, l);
            }
            Err(e) => report.skipped.push((fname, l.header, e.to_string())),
        }
    }
    // Metadata-only edit: no function bodies change.
    noelle.edit(|tx| set_segment_base(tx.module_touching([]), seg_counter));
    report
}

fn next_segment_base(m: &Module) -> i64 {
    m.metadata
        .get("noelle.helix.segments")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn set_segment_base(m: &mut Module, v: i64) {
    m.metadata
        .insert("noelle.helix.segments".to_string(), v.to_string());
}

/// Insert the iteration counter and the wait/signal brackets into the task
/// clone.
fn bracket_segments(
    m: &mut Module,
    task: &TaskFunction,
    segments: &[BTreeSet<InstId>],
    seg_base: i64,
) -> Result<(), ParallelizeError> {
    if segments.is_empty() {
        return Ok(());
    }
    let wait = m.get_or_declare(SS_WAIT_INTRINSIC, vec![Type::I64, Type::I64], Type::Void);
    let signal = m.get_or_declare(SS_SIGNAL_INTRINSIC, vec![Type::I64], Type::Void);

    let l = task_loop(m, task.fid);
    let latch = l
        .single_latch()
        .ok_or_else(|| ParallelizeError::Shape("multiple latches".into()))?;
    let tf = m.func_mut(task.fid);

    // Global iteration counter: k = phi [entry: task_id] [latch: k + n_tasks].
    let k_phi = tf.insert_inst(
        l.header,
        0,
        Inst::Phi {
            ty: Type::I64,
            incomings: vec![(task.entry, Value::Arg(1))],
        },
    );
    let latch_pos = tf.block(latch).insts.len() - 1; // before the terminator
    let k_next = tf.insert_inst(
        latch,
        latch_pos,
        Inst::Bin {
            op: noelle_ir::inst::BinOp::Add,
            ty: Type::I64,
            lhs: Value::Inst(k_phi),
            rhs: Value::Arg(2),
        },
    );
    if let Inst::Phi { incomings, .. } = tf.inst_mut(k_phi) {
        incomings.push((latch, Value::Inst(k_next)));
    }

    // Bracket each segment around its (mapped) first/last instruction.
    for (si, seg) in segments.iter().enumerate() {
        let seg_id = seg_base + si as i64;
        let mut placed: Vec<(usize, usize, InstId)> = Vec::new();
        for &orig in seg {
            let Some(Value::Inst(clone)) = task.value_map.get(&Value::Inst(orig)).copied() else {
                continue;
            };
            let b = tf.parent_block(clone);
            let bi = tf
                .block_order()
                .iter()
                .position(|&x| x == b)
                .unwrap_or(usize::MAX);
            let pos = tf.position_in_block(clone).unwrap_or(0);
            placed.push((bi, pos, clone));
        }
        if placed.is_empty() {
            continue;
        }
        placed.sort();
        let (first, last) = (placed[0].2, placed[placed.len() - 1].2);
        // wait(seg, k) immediately before the first instruction...
        let fb = tf.parent_block(first);
        let fpos = tf.position_in_block(first).expect("attached");
        tf.insert_inst(
            fb,
            fpos,
            Inst::Call {
                callee: Callee::Direct(wait),
                args: vec![Value::const_i64(seg_id), Value::Inst(k_phi)],
                ret_ty: Type::Void,
            },
        );
        // ...and signal(seg) immediately after the last one.
        let lb = tf.parent_block(last);
        let lpos = tf.position_in_block(last).expect("attached");
        tf.insert_inst(
            lb,
            lpos + 1,
            Inst::Call {
                callee: Callee::Direct(signal),
                args: vec![Value::const_i64(seg_id)],
                ret_ty: Type::Void,
            },
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    /// A loop with a sequential recurrence through memory (running sum in a
    /// cell) *plus* plenty of parallel work per iteration — the HELIX sweet
    /// spot: the sequential segment is small relative to the body.
    const HELIX_PROGRAM: &str = r#"
module "helixdemo" {
declare i64* @malloc(i64 %n)
define i64 @kernel(i64* %a, i64* %acc, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %w1 = mul i64 %v, %v
  %w2 = div i64 %w1, i64 7
  %w3 = add i64 %w2, %v
  %w4 = div i64 %w3, i64 3
  %w5 = add i64 %w4, %w2
  %w6 = div i64 %w5, i64 5
  %w7 = add i64 %w6, %w3
  %w8 = div i64 %w7, i64 11
  %w9 = add i64 %w8, %w6
  %wa = mul i64 %w9, i64 13
  %wb = div i64 %wa, i64 9
  %wc = add i64 %wb, %w9
  %wd = div i64 %wc, i64 2
  %we = add i64 %wd, %wa
  %old = load i64, %acc
  %new = add i64 %old, %we
  store i64 %new, %acc
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %acc
  ret %r
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 4096)
  %acc = call i64* @malloc(i64 8)
  store i64 i64 0, %acc
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  %m7 = mul i64 %i, i64 7
  %x = and i64 %m7, i64 1023
  store i64 %x, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 512
  condbr %c, fill, done
done:
  %s = call i64 @kernel(%buf, %acc, i64 512)
  ret %s
}
}
"#;

    #[test]
    fn helix_parallelizes_loop_with_sequential_segment() {
        let m = parse_module(HELIX_PROGRAM).unwrap();
        let seq = run_module(&m, "main", &[], &RunConfig::default()).unwrap();

        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(
            &mut noelle,
            &HelixOptions {
                target: LoopTargetOpts {
                    min_hotness: 0.0,
                    ..LoopTargetOpts::default()
                },
                max_sequential_fraction: 0.7,
            },
        );
        assert!(
            report.parallelized.iter().any(|(f, _)| f == "kernel"),
            "kernel loop must HELIX-parallelize: {report:?}"
        );
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("transformed module verifies: {e}"));
        let par = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(par.ret_i64(), seq.ret_i64(), "semantics preserved");
        let speedup = seq.cycles as f64 / par.cycles as f64;
        assert!(speedup > 1.2, "speedup = {speedup:.3}");
    }

    #[test]
    fn fully_sequential_loop_skipped() {
        // Nothing but the recurrence: sequential fraction ~ 1.
        let src = r#"
module "seq" {
define i64 @main() {
entry:
  %acc = alloca i64, i64 1
  store i64 i64 1, %acc
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, i64 50
  condbr %c, body, exit
body:
  %v = load i64, %acc
  %v2 = mul i64 %v, i64 3
  %v3 = add i64 %v2, i64 1
  store i64 %v3, %acc
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %acc
  ret %r
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(
            &mut noelle,
            &HelixOptions {
                target: LoopTargetOpts {
                    min_hotness: 0.0,
                    ..LoopTargetOpts::default()
                },
                max_sequential_fraction: 0.3,
            },
        );
        assert_eq!(report.count(), 0, "{report:?}");
        assert!(report
            .skipped
            .iter()
            .any(|(_, _, why)| why == "mostly sequential"));
    }

    #[test]
    fn segment_grouping_is_computed() {
        let m = parse_module(HELIX_PROGRAM).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let fid = noelle.module().func_id_by_name("kernel").unwrap();
        let l = noelle.loops_of(fid)[0].clone();
        let la = noelle.loop_abstraction(fid, l);
        let segs = sequential_segments(noelle.module(), fid, &la).expect("bracketable");
        assert_eq!(segs.len(), 1, "one sequential segment (the acc recurrence)");
        assert!(segs[0].len() >= 2);
    }
}
