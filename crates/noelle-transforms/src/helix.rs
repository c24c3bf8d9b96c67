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
    distribute_cyclically, emit_dispatcher, mechanics_gate, outline, ParallelizeError,
    SS_SIGNAL_INTRINSIC, SS_WAIT_INTRINSIC,
};
use noelle_core::architecture::{static_cost, Architecture};
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::Abstraction;
use noelle_core::task::TaskFunction;
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;
use noelle_pdg::islands::islands_in;

/// The abstractions HELIX asks NOELLE for (its Table 4 row).
pub const ABSTRACTIONS: [Abstraction; 15] = [
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
];

/// Sequential segments may cover at most this fraction of the loop body;
/// beyond it they would serialize everything.
const MAX_SEQUENTIAL_FRACTION: f64 = 0.7;

/// HELIX's recipe for one loop: the sequential segments to bracket and
/// what one pass through them costs.
#[derive(Debug, Clone)]
pub struct Segments {
    /// The instructions of each segment, ascending.
    pub groups: Vec<Vec<InstId>>,
    /// Estimated cycles per iteration spent inside segments.
    pub cost: u64,
    /// The loop's one latch, where the iteration counter steps: there is
    /// one when there are segments to bracket.
    latch: Option<BlockId>,
}

/// The HELIX gate's working lists, kept across the loops one caller
/// judges: the problem SCCs, the links between them, and the islands'
/// union-find over the problem list.
#[derive(Default)]
pub struct HelixBuffers {
    problem: Vec<usize>,
    links: Vec<(usize, usize)>,
    /// By position in `problem`: its union-find parent, then its island.
    island: Vec<usize>,
}

/// Compute the sequential segments of a loop: connected groups of SCCs that
/// must execute in iteration order, with the one latch their brackets
/// need when there are any. Returns `None` when a segment cannot be safely
/// bracketed (its instructions may be skipped within an iteration).
fn sequential_segments(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    buf: &mut HelixBuffers,
) -> Option<(Vec<Vec<InstId>>, Option<BlockId>)> {
    let f = m.func(fid);
    let l = la.structure();

    // Problem SCCs: sequential ones, plus SCCs linked by a blocking edge
    // that does not run between two induction SCCs.
    let (problem, links, island) = (&mut buf.problem, &mut buf.links, &mut buf.island);
    problem.clear();
    links.clear();
    problem.extend(la.sequential_sccs());
    for e in la.blocking_edges() {
        let (Some(a), Some(b)) = (la.sccdag.scc_of(e.src), la.sccdag.scc_of(e.dst)) else {
            continue;
        };
        if la.sccdag.nodes()[a].is_induction && la.sccdag.nodes()[b].is_induction {
            continue;
        }
        problem.extend([a, b]);
        if a != b {
            links.push((a, b));
        }
    }
    if problem.is_empty() {
        return Some((Vec::new(), None));
    }

    // Group into segments: the islands of the problem SCCs under the links.
    problem.sort_unstable();
    problem.dedup();
    let n_islands = islands_in(problem, links, island);

    // Bracketing requires every segment instruction to execute exactly once
    // per iteration: its block must dominate the (single) latch.
    let latch = l.single_latch()?;
    let mut segments = Vec::with_capacity(n_islands);
    for g in 0..n_islands {
        let sccs = || (problem.iter().zip(island.iter())).filter(move |&(_, &i)| i == g);
        let len = sccs().map(|(&s, _)| la.sccdag.insts(s).len()).sum();
        let mut insts = Vec::with_capacity(len);
        for (&s, _) in sccs() {
            insts.extend_from_slice(la.sccdag.insts(s));
        }
        insts.sort_unstable();
        if insts
            .iter()
            .any(|&i| !la.dom.dominates(f.parent_block(i), latch))
        {
            return None;
        }
        segments.push(insts);
    }
    Some((segments, Some(latch)))
}

/// The instructions of `sccs`, ascending (an instruction is in one SCC).
fn sorted_insts(la: &LoopAbstraction, sccs: impl IntoIterator<Item = usize>) -> Vec<InstId> {
    let mut insts: Vec<InstId> = sccs
        .into_iter()
        .flat_map(|s| la.sccdag.insts(s).iter().copied())
        .collect();
    insts.sort_unstable();
    insts
}

/// HELIX takes a loop with a governing IV whose sequential segments can be
/// bracketed, leave enough of the body parallel, and are outweighed (with
/// the architecture's cross-core signal latency) by the parallel work.
pub fn gate(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    arch: &Architecture,
    buf: &mut HelixBuffers,
) -> Result<Segments, ParallelizeError> {
    if la.ivs.governing().is_none() {
        return Err(ParallelizeError::NoGoverningIv);
    }
    let refuse = |why, groups| Err(ParallelizeError::Segments { why, groups });
    let Some((groups, latch)) = sequential_segments(m, fid, la, buf) else {
        let sccs = la.sequential_sccs();
        return refuse(
            "unbracketably sequential",
            sccs.map(|s| sorted_insts(la, [s])).collect(),
        );
    };
    let seg_insts: usize = groups.iter().map(Vec::len).sum();
    let total = la.pdg.num_internal().max(1);
    if seg_insts as f64 / total as f64 > MAX_SEQUENTIAL_FRACTION {
        return refuse("mostly sequential", groups);
    }
    // The signal and its latency are paid once per iteration on the
    // sequential chain; the parallel work per iteration must outweigh it.
    let f = m.func(fid);
    let cost: u64 = groups
        .iter()
        .flatten()
        .map(|&i| static_cost(m, f.inst(i)))
        .sum();
    if !groups.is_empty() {
        let body_cost: u64 = la
            .pdg
            .internal_nodes()
            .map(|i| static_cost(m, f.inst(i)))
            .sum();
        if body_cost < (cost + arch.signal_cycles() + arch.max_latency()) * 13 / 10 {
            return refuse("sequential segment dominates", groups);
        }
    }
    // HELIX rides on the same outline + cyclic distribution + dispatcher as
    // DOALL, minus the dependence gate (that is the point of the brackets).
    mechanics_gate(m, fid, la, true)?;
    Ok(Segments {
        groups,
        cost,
        latch,
    })
}

/// Metadata key counting the segment ids handed out so far, so every
/// HELIX loop of a module waits and signals on ids of its own.
const SEGMENTS_KEY: &str = "noelle.helix.segments";

/// Outline the loop into `workers` tasks that split its iterations
/// cyclically and run each segment in iteration order.
pub fn emit(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    segments: &Segments,
    workers: usize,
) -> Result<(), ParallelizeError> {
    let name = format!("{}.helix.{}", m.func(fid).name, la.structure().header.0);
    let seg_base: i64 = m
        .metadata
        .get(SEGMENTS_KEY)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let task = outline(m, fid, la, name)?;
    distribute_cyclically(m, &task, la)?;
    bracket_segments(m, &task, segments, seg_base)?;
    emit_dispatcher(m, fid, la, &task, task.fid, workers, 0)?;
    let next = seg_base + segments.groups.len() as i64;
    m.metadata
        .insert(SEGMENTS_KEY.to_string(), next.to_string());
    Ok(())
}

/// Insert the iteration counter and the wait/signal brackets into the task
/// clone.
fn bracket_segments(
    m: &mut Module,
    task: &TaskFunction,
    segments: &Segments,
    seg_base: i64,
) -> Result<(), ParallelizeError> {
    let Some(latch) = segments.latch else {
        return Ok(()); // no segments
    };
    // A loop block: the gate took it off the loop.
    let Some(latch) = task.block(latch) else {
        return Err(ParallelizeError::Shape(
            "the segments' latch is not a loop block".into(),
        ));
    };
    let wait = m.get_or_declare(SS_WAIT_INTRINSIC, || {
        (vec![Type::I64, Type::I64], Type::Void)
    });
    let signal = m.get_or_declare(SS_SIGNAL_INTRINSIC, || (vec![Type::I64], Type::Void));
    let tf = m.func_mut(task.fid);

    // Global iteration counter: k = phi [entry: task_id] [latch: k + n_tasks].
    let k_phi = tf.insert_inst(
        task.structure.header,
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
    for (si, seg) in segments.groups.iter().enumerate() {
        let seg_id = seg_base + si as i64;
        let mut placed: Vec<(usize, usize, InstId)> = Vec::new();
        for &orig in seg {
            let Some(Value::Inst(clone)) = task.value(Value::Inst(orig)) else {
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
    use crate::common::{parallelize, LoopTargetOpts, Parallelizer};
    use noelle_core::noelle::{AliasTier, Noelle};
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
        let report = parallelize(
            &mut noelle,
            Parallelizer::Helix,
            &LoopTargetOpts {
                min_hotness: 0.0,
                ..LoopTargetOpts::default()
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
        // Nothing but the recurrence: the segment is the body.
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
        let fid = noelle.module().func_id_by_name("main").unwrap();
        let la = noelle.loop_abstraction(fid, noelle_ir::loops::LoopId(0));
        let arch = noelle.architecture();
        let refusal = gate(
            noelle.module(),
            fid,
            &la,
            &arch,
            &mut HelixBuffers::default(),
        )
        .unwrap_err();
        assert!(
            matches!(refusal, ParallelizeError::Segments { .. }),
            "{refusal}"
        );
        let report = parallelize(
            &mut noelle,
            Parallelizer::Helix,
            &LoopTargetOpts {
                min_hotness: 0.0,
                ..LoopTargetOpts::default()
            },
        );
        assert_eq!(report.count(), 0, "{report:?}");
        assert_eq!(report.skipped[0].2, refusal.to_string());
    }

    #[test]
    fn segment_grouping_is_computed() {
        let m = parse_module(HELIX_PROGRAM).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let fid = noelle.module().func_id_by_name("kernel").unwrap();
        let la = noelle.loop_abstraction(fid, noelle_ir::loops::LoopId(0));
        let buf = &mut HelixBuffers::default();
        let (segs, latch) =
            sequential_segments(noelle.module(), fid, &la, buf).expect("bracketable");
        assert_eq!(segs.len(), 1, "one sequential segment (the acc recurrence)");
        assert!(segs[0].len() >= 2);
        assert_eq!(latch, la.structure().single_latch(), "the brackets' latch");
    }
}
