//! DSWP: decoupled software pipelining.
//!
//! "DSWP parallelizes a loop by distributing its SCCs between cores.
//! Instances of a given SCC are executed by the same core to create a
//! unidirectional communication between cores."
//!
//! The aSCCDAG is partitioned (in topological order) into pipeline *stages*;
//! each stage becomes a task that runs a pruned clone of the loop. Values
//! crossing stage boundaries flow through `noelle.queue.*` inter-core
//! queues; a token queue between consecutive stages keeps iteration `k` of
//! stage `s+1` behind iteration `k` of stage `s`, which also orders
//! cross-stage memory accesses.

use crate::common::{
    emit_dispatcher, liveouts_gate, mechanics_gate, outline, ParallelizeError, QUEUE_POP_INTRINSIC,
    QUEUE_PUSH_INTRINSIC,
};
use noelle_core::architecture::{static_cost, Architecture};
use noelle_core::env::EnvironmentBuilder;
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::Abstraction;
use noelle_core::reduction::identity_for;
use noelle_core::task::TaskFunction;
use noelle_ir::inst::{BinOp, Callee, Inst, InstId, Terminator};
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;
use std::collections::BTreeMap;

/// The abstractions DSWP asks NOELLE for (its Table 4 row).
pub const ABSTRACTIONS: [Abstraction; 14] = [
    Abstraction::Pro,
    Abstraction::Fr,
    Abstraction::L,
    Abstraction::Env,
    Abstraction::Task,
    Abstraction::Lb,
    Abstraction::Iv,
    Abstraction::Ivs,
    Abstraction::Inv,
    Abstraction::Rd,
    Abstraction::ASccDag,
    Abstraction::Pdg,
    Abstraction::Ar,
    Abstraction::Ls,
];

/// DSWP's recipe for one loop: the SCC partition into pipeline stages and
/// the register values that cross stage boundaries.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Stage index of every *assignable* SCC.
    stage_of_scc: BTreeMap<usize, usize>,
    /// Instructions replicated in every stage (IVs, control, invariants),
    /// ascending, none twice.
    replicated: Vec<InstId>,
    /// Number of stages actually used.
    pub n_stages: usize,
    /// `(def, consumer stage)` of each cross-stage value queue, sorted.
    value_queues: Vec<(InstId, usize)>,
    /// The loop's one latch: a stage pushes its token at its end.
    latch: BlockId,
    /// The block that runs once per iteration from its top: the header's
    /// one in-loop successor, or the header of a one-block loop. A stage
    /// pops its token there.
    token_block: BlockId,
}

/// The DSWP gate's working lists, kept across the loops one caller judges:
/// the replicated set as it is closed and the closure's work list.
#[derive(Default)]
pub struct DswpBuffers {
    replicated: Vec<InstId>,
    work: Vec<InstId>,
}

/// DSWP takes a loop whose blocks all run once per iteration, whose SCCs
/// split into at least two stages with only forward register dependences
/// between them, and whose body outweighs the queue traffic on `arch`.
/// `want_stages` is an upper bound; the plan says how many are used.
pub fn gate(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    arch: &Architecture,
    want_stages: usize,
    buf: &mut DswpBuffers,
) -> Result<StagePlan, ParallelizeError> {
    let l = la.structure();
    if la.ivs.governing().is_none() {
        return Err(ParallelizeError::NoGoverningIv);
    }
    // Also the first thing `mechanics_gate` checks, below; asked here so a
    // loop refused on several counts keeps reporting this one first.
    liveouts_gate(la)?;
    let latch = l
        .single_latch()
        .ok_or_else(|| ParallelizeError::Shape("multiple latches".into()))?;
    // Every loop block must run exactly once per iteration.
    if l.blocks.iter().any(|&b| !la.dom.dominates(b, latch)) {
        return Err(ParallelizeError::Shape(
            "conditional control flow inside loop body".into(),
        ));
    }

    let f = m.func(fid);
    replicated_set(f, la, buf)?;
    let replicated = &buf.replicated;
    let owned = |s: usize| assignable(f, la, replicated, s);
    let n_owned = (0..la.sccdag.nodes().len()).filter(|&s| owned(s)).count();
    if n_owned < 2 {
        return Err(ParallelizeError::Stages("fewer than two pipeline stages"));
    }

    // Profitability: pipelining pays only when a stage's share of the body
    // exceeds the queue traffic it must perform each iteration. A light loop
    // body drowned in queue operations would *slow down* (the selection step
    // real DSWP implementations also perform).
    let body_cost: u64 = la
        .pdg
        .internal_nodes()
        .map(|i| static_cost(m, f.inst(i)))
        .sum();
    let pays_on = |n_stages: usize| {
        // Each stage pays ~2 queue operations plus, in the balanced steady
        // state, one inter-core latency per iteration because its pops
        // arrive just before the matching push.
        let est_stage =
            body_cost / n_stages as u64 + 2 * arch.queue_op_cycles() + arch.max_latency();
        if est_stage * 21 / 20 >= body_cost {
            return Err(ParallelizeError::Shape(
                "loop body too light for pipelining".into(),
            ));
        }
        Ok(())
    };
    // A body too light for the most stages the SCCs allow is too light for
    // any fewer, so the SCCs are ordered only for a loop that may pipeline,
    // and partitioned only for one that does.
    let most = want_stages.clamp(2, n_owned);
    pays_on(most)?;
    let order: Vec<usize> = la
        .sccdag
        .topo_order()
        .into_iter()
        .filter(|&s| owned(s))
        .collect();
    let n_stages = walk(la, &order, most, |_, _| {});
    pays_on(n_stages)?;
    let mut stage_of_scc = BTreeMap::new();
    walk(la, &order, most, |scc, stage| {
        stage_of_scc.insert(scc, stage);
    });
    let mut plan = StagePlan {
        stage_of_scc,
        replicated: replicated.clone(),
        n_stages,
        value_queues: Vec::new(),
        latch,
        token_block: l.header,
    };

    // Cross-stage register dependences: (def, consumer stage) pairs.
    let mut value_queues: Vec<(InstId, usize)> = Vec::new(); // (def, consumer stage)
    for e in la.pdg.edges() {
        if !e.attrs.is_data() || e.attrs.memory {
            continue;
        }
        if !la.pdg.is_internal(e.src) || !la.pdg.is_internal(e.dst) {
            continue;
        }
        let (Some(sa), Some(sb)) = (plan.stage_of(f, la, e.src), plan.stage_of(f, la, e.dst))
        else {
            continue;
        };
        if sa == sb {
            continue;
        }
        if sb < sa {
            return Err(ParallelizeError::Stages("backward cross-stage dependence"));
        }
        if !value_queues.contains(&(e.src, sb)) {
            value_queues.push((e.src, sb));
        }
    }
    value_queues.sort();
    // Queue operations must execute exactly once per iteration: forbid
    // communicated defs that live in the header (it runs one extra time).
    for &(d, _) in &value_queues {
        if f.parent_block(d) == l.header {
            return Err(ParallelizeError::Stages(
                "communicated value defined in the loop header",
            ));
        }
    }
    // The token pop lands in the header's unique in-loop successor.
    if l.header != latch {
        let mut in_loop = f
            .successors(l.header)
            .into_iter()
            .filter(|b| l.contains(*b));
        let (Some(body), None) = (in_loop.next(), in_loop.next()) else {
            return Err(ParallelizeError::Shape(
                "header with multiple in-loop successors".into(),
            ));
        };
        plan.token_block = body;
    }
    mechanics_gate(m, fid, la, false)?;
    plan.value_queues = value_queues;
    Ok(plan)
}

/// Outline one pruned clone of the loop per stage, connect them with
/// queues, and dispatch them through a trampoline.
pub fn emit(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    plan: &StagePlan,
) -> Result<(), ParallelizeError> {
    let header = la.structure().header.0;
    // The stage owning each loop instruction, read once off the original.
    let f = m.func(fid);
    let owners: Vec<(InstId, Option<usize>)> = la
        .pdg
        .internal_nodes()
        .map(|i| (i, plan.stage_of(f, la, i)))
        .collect();
    let fname = f.name.clone();
    let mut stages = Vec::with_capacity(plan.n_stages);
    for s in 0..plan.n_stages {
        let task = outline(m, fid, la, format!("{fname}.dswp.{header}.stage{s}"))?;
        prune_stage(m, la, &task, s, plan, &owners)?;
        stages.push(task);
    }
    // Trampoline: dispatch target that forwards to the stage of task_id.
    let tramp = build_trampoline(m, &format!("{fname}.dswp.{header}.tramp"), &stages);
    let n_queues = plan.n_queues();
    emit_dispatcher(m, fid, la, &stages[0], tramp, plan.n_stages, n_queues)
}

/// Pipeline shape summary for the planner's cost model: per-stage compute
/// costs, cross-stage queue traffic, and the replicated overhead each stage
/// carries — derived from the [`StagePlan`] the emitter consumes, so
/// predictions and behavior cannot drift apart.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Number of pipeline stages the plan actually uses.
    pub n_stages: usize,
    /// Estimated per-iteration cost of each stage (owned SCC instructions
    /// plus the replicated IV/control set every stage re-executes).
    pub stage_costs: Vec<u64>,
    /// Number of cross-stage value queues.
    pub value_queues: usize,
    /// Queue operations (value + token pushes and pops) each stage performs
    /// per iteration.
    pub queue_ops: Vec<u64>,
}

impl StagePlan {
    /// True if `i` is replicated in every stage.
    fn replicates(&self, i: InstId) -> bool {
        self.replicated.binary_search(&i).is_ok()
    }

    /// The stage that owns `i`: its SCC's, or `None` for what every stage
    /// runs (the replicated set and the terminators).
    fn stage_of(&self, f: &Function, la: &LoopAbstraction, i: InstId) -> Option<usize> {
        if self.replicates(i) || matches!(f.inst(i), Inst::Term(_)) {
            return None;
        }
        la.sccdag
            .scc_of(i)
            .and_then(|s| self.stage_of_scc.get(&s).copied())
    }

    /// The value queues `def` feeds, as `(queue index, consumer stage)`,
    /// stages ascending.
    fn queues_of(&self, def: InstId) -> impl Iterator<Item = (usize, usize)> + '_ {
        let first = self.value_queues.partition_point(|&(d, _)| d < def);
        self.value_queues[first..]
            .iter()
            .take_while(move |&&(d, _)| d == def)
            .zip(first..)
            .map(|(&(_, consumer), qi)| (qi, consumer))
    }

    /// Queues the pipeline runs on: one per cross-stage value and a token
    /// queue between consecutive stages.
    pub fn n_queues(&self) -> usize {
        self.value_queues.len() + self.n_stages - 1
    }

    /// Summarize the pipeline for the planner's cost model.
    pub fn summary(&self, m: &Module, fid: FuncId, la: &LoopAbstraction) -> StageSummary {
        let f = m.func(fid);
        let replicated_cost: u64 = self
            .replicated
            .iter()
            .map(|&i| static_cost(m, f.inst(i)))
            .sum();
        let mut stage_costs = vec![replicated_cost; self.n_stages];
        for (&scc, &s) in &self.stage_of_scc {
            for &i in la.sccdag.insts(scc) {
                if !self.replicates(i) {
                    stage_costs[s] += static_cost(m, f.inst(i));
                }
            }
        }
        let mut queue_ops = vec![0u64; self.n_stages];
        for &(d, consumer) in &self.value_queues {
            if let Some(s) = self.stage_of(f, la, d) {
                queue_ops[s] += 1; // push in the producer stage
            }
            queue_ops[consumer] += 1; // pop in the consumer stage
        }
        for (s, ops) in queue_ops.iter_mut().enumerate() {
            if s > 0 {
                *ops += 1; // token pop from the previous stage
            }
            if s + 1 < self.n_stages {
                *ops += 1; // token push to the next stage
            }
        }
        StageSummary {
            n_stages: self.n_stages,
            stage_costs,
            value_queues: self.value_queues.len(),
            queue_ops,
        }
    }
}

/// The instructions every stage replicates (IVs, control chains,
/// invariants), ascending, none twice, into `buf.replicated`; refused when
/// loop control reads or writes memory.
fn replicated_set(
    f: &Function,
    la: &LoopAbstraction,
    buf: &mut DswpBuffers,
) -> Result<(), ParallelizeError> {
    let (replicated, work) = (&mut buf.replicated, &mut buf.work);
    replicated.clear();
    work.clear();
    replicated.extend(la.invariants.iter());
    for node in la.sccdag.nodes() {
        if node.is_induction {
            replicated.extend_from_slice(la.sccdag.insts(node.id));
        }
    }
    replicated.sort_unstable();
    replicated.dedup();
    // Terminator operand closure over register dependences.
    let register_deps = |i: InstId| {
        let edges = la.pdg.edges_to(i);
        let register = edges.filter(|e| e.attrs.is_data() && !e.attrs.memory);
        register
            .map(|e| e.src)
            .filter(|&src| la.pdg.is_internal(src))
    };
    for i in la.pdg.internal_nodes() {
        if matches!(f.inst(i), Inst::Term(_)) {
            work.extend(register_deps(i));
        }
    }
    while let Some(n) = work.pop() {
        let Err(at) = replicated.binary_search(&n) else {
            continue;
        };
        replicated.insert(at, n);
        work.extend(register_deps(n));
    }
    for &i in replicated.iter() {
        if f.inst(i).may_read_memory() || f.inst(i).may_write_memory() {
            return Err(ParallelizeError::Stages("loop control depends on memory"));
        }
    }
    Ok(())
}

/// Can a stage own SCC `s`? Not an induction, and not only replicated
/// instructions and terminators.
fn assignable(f: &Function, la: &LoopAbstraction, replicated: &[InstId], s: usize) -> bool {
    !la.sccdag.nodes()[s].is_induction
        && !la
            .sccdag
            .insts(s)
            .iter()
            .all(|&i| replicated.binary_search(&i).is_ok() || matches!(f.inst(i), Inst::Term(_)))
}

/// Walk the assignable SCCs `order`, in topological order, into at most `n`
/// contiguous stages of about equal weight (instruction count); `place`
/// sees each SCC with its stage. Returns the number of stages used.
fn walk(
    la: &LoopAbstraction,
    order: &[usize],
    n: usize,
    mut place: impl FnMut(usize, usize),
) -> usize {
    let weight = |s: usize| la.sccdag.insts(s).len();
    let per_stage = order.iter().map(|&s| weight(s)).sum::<usize>().div_ceil(n);
    let (mut stage, mut acc) = (0usize, 0usize);
    for (k, &scc) in order.iter().enumerate() {
        place(scc, stage);
        acc += weight(scc);
        let remaining = order.len() - k - 1;
        if acc >= per_stage && stage + 1 < n && remaining >= n - stage - 1 {
            stage += 1;
            acc = 0;
        }
    }
    stage + 1
}

/// Prune a stage clone: keep this stage's SCCs plus the replicated set,
/// replace consumed foreign values with queue pops, push produced values,
/// insert the token chain, and patch dead live-out stores with identities.
/// `owners` is each loop instruction beside [`StagePlan::stage_of`].
fn prune_stage(
    m: &mut Module,
    la: &LoopAbstraction,
    task: &TaskFunction,
    stage: usize,
    plan: &StagePlan,
    owners: &[(InstId, Option<usize>)],
) -> Result<(), ParallelizeError> {
    // Both are loop blocks: the gate took them off the loop.
    let (Some(latch), Some(token_block)) = (task.block(plan.latch), task.block(plan.token_block))
    else {
        return Err(ParallelizeError::Shape(
            "the pipeline's latch or token block is not a loop block".into(),
        ));
    };
    let (n_value_queues, n_stages) = (plan.value_queues.len(), plan.n_stages);
    let pop_fn = m.get_or_declare(QUEUE_POP_INTRINSIC, || (vec![Type::I64], Type::I64));
    let push_fn = m.get_or_declare(QUEUE_PUSH_INTRINSIC, || {
        (vec![Type::I64, Type::I64], Type::Void)
    });

    // Load all queue ids in the entry block (before its terminator).
    let env_base_slot = la.env.num_slots(n_stages) as i64;
    let tf = m.func_mut(task.fid);
    let qids: Vec<Value> = (0..plan.n_queues() as i64)
        .map(|qi| {
            let slot = Value::const_i64(env_base_slot + qi);
            EnvironmentBuilder::load_slot(tf, task.entry, Value::Arg(0), slot, &Type::I64)
        })
        .collect();

    // Walk all original loop instructions. A foreign one no pop replaces
    // is deleted, and what its remaining uses read instead is noted.
    let mut dead: Vec<(InstId, Value)> = Vec::new(); // (clone, replacement)
    for &(orig, owner) in owners {
        let Some(Value::Inst(clone)) = task.value(Value::Inst(orig)) else {
            continue;
        };
        let mut queues = plan.queues_of(orig).peekable();
        match owner {
            // Replicated in every stage, or a terminator.
            None => {}
            // Producer side: push for each consumer stage.
            Some(s) if s == stage => {
                if queues.peek().is_none() {
                    continue;
                }
                let ty = tf.inst(clone).result_type();
                let b = tf.parent_block(clone);
                let pos = tf.position_in_block(clone).expect("attached") + 1;
                let (payload, npos) =
                    EnvironmentBuilder::to_slot_value(tf, b, pos, Value::Inst(clone), &ty);
                for (pos, (qi, _)) in (npos..).zip(queues) {
                    tf.insert_inst(
                        b,
                        pos,
                        Inst::Call {
                            callee: Callee::Direct(push_fn),
                            args: vec![qids[qi], payload],
                            ret_ty: Type::Void,
                        },
                    );
                }
            }
            // Foreign instruction: consumed here, it is replaced with a
            // pop at the same position; otherwise it is deleted.
            Some(_) => {
                let ty = tf.inst(clone).result_type();
                let Some((qi, _)) = queues.find(|&(_, consumer)| consumer == stage) else {
                    // What survives of its uses can only be the finish
                    // block's live-out stores of reductions other stages
                    // own: they store the reduction's identity.
                    let red = la.reduction_of(Value::Inst(orig));
                    let identity =
                        red.map_or_else(|| identity_for(BinOp::Add, &ty), |r| r.identity());
                    dead.push((clone, Value::Const(identity)));
                    continue;
                };
                let b = tf.parent_block(clone);
                let pos = tf.position_in_block(clone).expect("attached");
                let pop = tf.insert_inst(
                    b,
                    pos,
                    Inst::Call {
                        callee: Callee::Direct(pop_fn),
                        args: vec![qids[qi]],
                        ret_ty: Type::I64,
                    },
                );
                let (val, _) =
                    EnvironmentBuilder::from_slot_value(tf, b, pos + 1, Value::Inst(pop), &ty);
                tf.replace_all_uses(Value::Inst(clone), val);
                tf.remove_inst(clone);
            }
        }
    }

    // Token chain: pop from stage-1 at the start of the iteration's *body*
    // (which runs exactly once per iteration, unlike the header, which also
    // runs for the final, failing test), push to stage+1 at the end of the
    // latch (before the terminator).
    if stage > 0 {
        let q = qids[n_value_queues + stage - 1];
        let pos = tf.phis(token_block).len();
        tf.insert_inst(
            token_block,
            pos,
            Inst::Call {
                callee: Callee::Direct(pop_fn),
                args: vec![q],
                ret_ty: Type::I64,
            },
        );
    }
    if stage + 1 < n_stages {
        let q = qids[n_value_queues + stage];
        let pos = tf.block(latch).insts.len() - 1;
        tf.insert_inst(
            latch,
            pos,
            Inst::Call {
                callee: Callee::Direct(push_fn),
                args: vec![q, Value::const_i64(0)],
                ret_ty: Type::Void,
            },
        );
    }

    // Delete the dead foreign instructions, then point each remaining use
    // at its replacement in one walk of the clone.
    dead.sort_unstable_by_key(|&(clone, _)| clone);
    for &(clone, _) in &dead {
        tf.remove_inst(clone);
    }
    let replaced = |v: Value| {
        let Value::Inst(i) = v else { return v };
        dead.binary_search_by_key(&i, |&(clone, _)| clone)
            .map_or(v, |k| dead[k].1)
    };
    for id in tf.inst_ids() {
        tf.inst_mut(id).map_operands(replaced);
    }
    Ok(())
}

/// Build `void tramp(env, id, n)` that forwards to `stages[id]`.
fn build_trampoline(m: &mut Module, name: &str, stages: &[TaskFunction]) -> FuncId {
    let mut f = Function::new(
        name,
        vec![
            ("env".into(), Type::I64.ptr_to()),
            ("task_id".into(), Type::I64),
            ("n_tasks".into(), Type::I64),
        ],
        Type::Void,
    );
    let entry = f.add_block("entry");
    let mut case_blocks = Vec::new();
    for (s, stage) in stages.iter().enumerate() {
        let b = f.add_block(format!("stage{s}"));
        f.append_inst(
            b,
            Inst::Call {
                callee: Callee::Direct(stage.fid),
                args: vec![Value::Arg(0), Value::Arg(1), Value::Arg(2)],
                ret_ty: Type::Void,
            },
        );
        f.set_terminator(b, Terminator::Ret(None));
        case_blocks.push((s as i64, b));
    }
    let default = case_blocks[0].1;
    f.set_terminator(
        entry,
        Terminator::Switch {
            value: Value::Arg(1),
            default,
            cases: case_blocks,
        },
    );
    m.add_function(f)
}

#[cfg(test)]
mod tests {
    use crate::common::{parallelize, LoopTargetOpts, Parallelizer};
    use noelle_core::architecture::Architecture;
    use noelle_core::noelle::{AliasTier, Noelle};
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    /// A classic DSWP loop: load a[i] (stage 0) -> heavy transform (stage 1)
    /// -> accumulate (stage 1/2). The load feeds a long dependence chain,
    /// so pipelining it across cores overlaps memory and compute.
    const DSWP_PROGRAM: &str = r#"
module "dswpdemo" {
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
  %t1 = mul i64 %v, %v
  %u0 = div i64 %t1, i64 7
  %w0 = add i64 %u0, %v
  %u1 = div i64 %w0, i64 3
  %w1 = add i64 %u1, %v
  %u2 = div i64 %w1, i64 5
  %w2 = add i64 %u2, %v
  %u3 = div i64 %w2, i64 9
  %w3 = add i64 %u3, %v
  %u4 = div i64 %w3, i64 11
  %w4 = add i64 %u4, %v
  %u5 = div i64 %w4, i64 13
  %w5 = add i64 %u5, %v
  %u6 = div i64 %w5, i64 2
  %w6 = add i64 %u6, %v
  %u7 = div i64 %w6, i64 17
  %w7 = add i64 %u7, %v
  %u8 = div i64 %w7, i64 19
  %w8 = add i64 %u8, %v
  %u9 = div i64 %w8, i64 23
  %w9 = add i64 %u9, %v
  %u10 = div i64 %w9, i64 7
  %w10 = add i64 %u10, %v
  %u11 = div i64 %w10, i64 3
  %w11 = add i64 %u11, %v
  %u12 = div i64 %w11, i64 5
  %w12 = add i64 %u12, %v
  %u13 = div i64 %w12, i64 9
  %w13 = add i64 %u13, %v
  %u14 = div i64 %w13, i64 11
  %w14 = add i64 %u14, %v
  %u15 = div i64 %w14, i64 13
  %w15 = add i64 %u15, %v
  %u16 = div i64 %w15, i64 2
  %w16 = add i64 %u16, %v
  %u17 = div i64 %w16, i64 17
  %w17 = add i64 %u17, %v
  %u18 = div i64 %w17, i64 19
  %w18 = add i64 %u18, %v
  %u19 = div i64 %w18, i64 23
  %w19 = add i64 %u19, %v
  %s2 = add i64 %s, %w19
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 4096)
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  %x = mul i64 %i, i64 37
  %y = and i64 %x, i64 255
  store i64 %y, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 512
  condbr %c, fill, done
done:
  %s = call i64 @kernel(%buf, i64 512)
  ret %s
}
}
"#;

    /// [`DSWP_PROGRAM`] with the `%v .. %w19` chain computed in `f32`, so
    /// the values that cross a stage boundary are narrower than a queue slot.
    fn dswp_program_f32() -> String {
        let line = |l: &str| {
            if l.contains("= load i64, %p") {
                "  %vi = load i64, %p\n  %v = sitofp i64 %vi to f32".to_string()
            } else if l.contains("= div i64") {
                l.replace("div i64", "fdiv f32").replace(", i64 ", ", f32 ") + ".0"
            } else if l.contains("%s2 = add") {
                "  %wi = fptosi f32 %w19 to i64\n  %s2 = add i64 %s, %wi".to_string()
            } else if l.contains(", %v") {
                l.replace("mul i64", "fmul f32")
                    .replace("add i64", "fadd f32")
            } else {
                l.to_string()
            }
        };
        DSWP_PROGRAM
            .lines()
            .map(line)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn dswp_pipelines_and_preserves_semantics() {
        for (program, workers) in [(DSWP_PROGRAM.to_string(), 2), (dswp_program_f32(), 3)] {
            let m = parse_module(&program).unwrap();
            let seq = run_module(&m, "main", &[], &RunConfig::default()).unwrap();

            let mut noelle = Noelle::new(m, AliasTier::Full);
            let report = parallelize(
                &mut noelle,
                Parallelizer::Dswp,
                &LoopTargetOpts {
                    min_hotness: 0.0,
                    workers,
                },
            );
            assert!(
                report.parallelized.iter().any(|(f, _)| f == "kernel"),
                "kernel loop must pipeline: {report:?}"
            );
            let m2 = noelle.into_module();
            noelle_ir::verifier::verify_module(&m2)
                .unwrap_or_else(|e| panic!("transformed module verifies: {e}"));
            let par = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
            assert_eq!(par.ret_i64(), seq.ret_i64(), "semantics preserved");
            assert!(par.counters.get("queues").copied().unwrap_or(0) >= 1);
            assert!(par.counters.get("queue_ops").copied().unwrap_or(0) > 100);
            let speedup = seq.cycles as f64 / par.cycles as f64;
            assert!(speedup > 1.05, "pipelining must pay off: {speedup:.2}");
        }
    }

    /// The gate prices the machine the module names. Ten of
    /// [`DSWP_PROGRAM`]'s twenty divide/add pairs are too light to pipeline
    /// on the default machine and heavy enough on one whose queues are
    /// free: the loop, the recipe and the hop latency stay the same.
    #[test]
    fn the_gate_prices_the_embedded_architectures_queues() {
        let second_ten = |l: &str| {
            let def = l.trim_start().split(' ').next().unwrap_or("");
            def.len() == 4 && (def.starts_with("%u1") || def.starts_with("%w1"))
        };
        let light: String = DSWP_PROGRAM
            .lines()
            .filter(|l| !second_ten(l))
            .map(|l| l.replace("%w19", "%w9") + "\n")
            .collect();
        let pipelined = |arch: Option<Architecture>| {
            let mut m = parse_module(&light).unwrap();
            if let Some(arch) = arch {
                arch.embed(&mut m);
            }
            let mut noelle = Noelle::new(m, AliasTier::Full);
            let target = LoopTargetOpts {
                min_hotness: 0.0,
                workers: 2,
            };
            parallelize(&mut noelle, Parallelizer::Dswp, &target)
        };
        let refused = pipelined(None);
        assert_eq!(refused.count(), 0, "{refused:?}");
        assert!(
            refused
                .skipped
                .iter()
                .any(|(f, _, why)| f == "kernel" && why.contains("too light")),
            "{refused:?}"
        );
        let same = pipelined(Some(Architecture::default_machine()));
        assert_eq!(same.skipped, refused.skipped);
        let mut free_queues = Architecture::default_machine();
        free_queues.queue_op_cost = 0;
        let taken = pipelined(Some(free_queues));
        assert!(
            taken.parallelized.iter().any(|(f, _)| f == "kernel"),
            "{taken:?}"
        );
    }

    #[test]
    fn loops_without_pipeline_structure_are_skipped() {
        // A single tiny SCC: nothing to pipeline.
        let src = r#"
module "t" {
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [header: %i2]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 100
  condbr %c, header, exit
exit:
  ret %i2
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = parallelize(
            &mut noelle,
            Parallelizer::Dswp,
            &LoopTargetOpts {
                min_hotness: 0.0,
                workers: 2,
            },
        );
        assert_eq!(report.count(), 0, "{report:?}");
    }
}
