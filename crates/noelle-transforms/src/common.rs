//! Shared machinery for the parallelizing custom tools: the gate and emit
//! entry points, the three steps every emit composes ([`outline`], a
//! technique's rewrite such as [`distribute_cyclically`], and
//! [`emit_dispatcher`]), and loop-selection helpers. This is the
//! NOELLE-powered part that makes DOALL/HELIX/DSWP expressible in a few
//! hundred lines each (the Table 3 claim).

use crate::{doall, dswp, helix, perspective};
use noelle_core::architecture::{
    bin_cost, external_cost, Architecture, ALLOCA_CYCLES, BR_CYCLES, CALL_CYCLES, CONDBR_CYCLES,
    ICMP_CYCLES, RET_CYCLES, SWITCH_CYCLES,
};
use noelle_core::env::{Environment, EnvironmentBuilder};
use noelle_core::ivstepper::{offset_start, scale_step, IvsError};
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::loop_builder::{bypass_loop, ensure_preheader, LoopBuilderError};
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_core::task::{outline_loop_as_task, task_frame_cycles, TaskError, TaskFunction};
use noelle_ir::inst::{BinOp, IcmpPred, Inst, InstId, Terminator};
use noelle_ir::loops::{LoopForest, LoopId};
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::types::{FuncType, Type};
use noelle_ir::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

/// Name of the task-dispatch runtime intrinsic: runs `n_tasks` instances of
/// a task function against a shared environment and joins them.
pub const DISPATCH_INTRINSIC: &str = "noelle.task.dispatch";
/// Name of the queue-creation runtime intrinsic (DSWP).
pub const QUEUE_CREATE_INTRINSIC: &str = "noelle.queue.create";
/// Name of the queue-push runtime intrinsic (DSWP).
pub const QUEUE_PUSH_INTRINSIC: &str = "noelle.queue.push";
/// Name of the queue-pop runtime intrinsic (DSWP).
pub const QUEUE_POP_INTRINSIC: &str = "noelle.queue.pop";
/// Name of the sequential-segment wait intrinsic (HELIX).
pub const SS_WAIT_INTRINSIC: &str = "noelle.ss.wait";
/// Name of the sequential-segment signal intrinsic (HELIX).
pub const SS_SIGNAL_INTRINSIC: &str = "noelle.ss.signal";

/// Why a loop could not be parallelized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelizeError {
    /// The loop shape is unsupported (multiple exits, no pre-header...).
    /// Free-form: for reasons nobody needs to tell apart. A fixed reason is
    /// borrowed, so refusing with it allocates nothing.
    Shape(Cow<'static, str>),
    /// The loop has no governing induction variable.
    NoGoverningIv,
    /// Live-outs no reduction stands behind, in environment order: the
    /// dispatcher rebuilds nothing else.
    UnsupportedLiveOut(Vec<InstId>),
    /// Loop-carried dependences the technique cannot handle.
    CarriedDependences,
    /// HELIX: the sequential segments refuse the loop — they cannot be
    /// bracketed, cover most of the body, or outweigh the parallel work.
    Segments {
        /// Which of the three.
        why: &'static str,
        /// The instructions of each segment the gate found, ascending; of
        /// each sequential SCC when the segments cannot be bracketed.
        groups: Vec<Vec<InstId>>,
    },
    /// DSWP: the SCC structure admits no forward pipeline.
    Stages(&'static str),
}

impl std::fmt::Display for ParallelizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelizeError::Shape(s) => write!(f, "unsupported loop shape: {s}"),
            ParallelizeError::Segments { why: s, .. } | ParallelizeError::Stages(s) => {
                write!(f, "unsupported loop shape: {s}")
            }
            ParallelizeError::NoGoverningIv => write!(f, "no governing induction variable"),
            ParallelizeError::UnsupportedLiveOut(_) => write!(f, "unsupported live-out"),
            ParallelizeError::CarriedDependences => write!(f, "unhandled loop-carried dependences"),
        }
    }
}

impl std::error::Error for ParallelizeError {}

impl From<TaskError> for ParallelizeError {
    fn from(e: TaskError) -> ParallelizeError {
        ParallelizeError::Shape(e.to_string().into())
    }
}

impl From<IvsError> for ParallelizeError {
    fn from(e: IvsError) -> ParallelizeError {
        ParallelizeError::Shape(e.to_string().into())
    }
}

impl From<LoopBuilderError> for ParallelizeError {
    fn from(e: LoopBuilderError) -> ParallelizeError {
        ParallelizeError::Shape(e.to_string().into())
    }
}

/// What a parallelizing tool did to a module.
#[derive(Debug, Clone, Default)]
pub struct ParallelReport {
    /// `(function name, loop header)` of each parallelized loop.
    pub parallelized: Vec<(String, BlockId)>,
    /// Loops considered but skipped, with the reason.
    pub skipped: Vec<(String, BlockId, String)>,
}

impl ParallelReport {
    /// Number of loops parallelized.
    pub fn count(&self) -> usize {
        self.parallelized.len()
    }
}

/// Loop selection for [`parallelize`]: which loops a run may touch and how
/// many workers to deploy on each. The only options a parallelizer has.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopTargetOpts {
    /// Skip loops whose profiled hotness is below this fraction of total
    /// execution (ignored when the module carries no profiles).
    pub min_hotness: f64,
    /// Worker count: tasks for DOALL/HELIX, pipeline stages for DSWP.
    pub workers: usize,
}

impl Default for LoopTargetOpts {
    fn default() -> Self {
        LoopTargetOpts {
            min_hotness: 0.05,
            workers: 4,
        }
    }
}

/// Every loop of the module as `(function, its loop forest, loop id)`,
/// outermost first (an outer loop parallelized subsumes its children; LICM
/// walks the list backwards): the one walk of the manager's cached loop
/// forests every loop tool shares. A forest is shared, not copied, and
/// stays as it was found while the tool edits its function.
pub fn candidate_loops(noelle: &mut Noelle) -> Vec<(FuncId, Arc<LoopForest>, LoopId)> {
    let forest = noelle.program_loop_forest();
    let mut order = forest.innermost_first();
    order.reverse();
    order
        .into_iter()
        .map(|(fid, id)| (fid, Arc::clone(&forest.per_function[&fid]), id))
        .collect()
}

/// A parallelizing tool [`parallelize`] can run: the one technique enum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Parallelizer {
    /// [`doall`]: cyclic iteration distribution.
    Doall,
    /// [`helix`]: iteration distribution with ordered sequential segments.
    Helix,
    /// [`dswp`]: SCCs distributed over pipeline stages.
    Dswp,
    /// [`perspective`]: DOALL after privatizing a scratch cell.
    Perspective,
}

impl Parallelizer {
    /// The techniques the auditor issues a verdict for and the planner
    /// prices, in report order.
    pub const AUDITED: [Parallelizer; 3] =
        [Parallelizer::Doall, Parallelizer::Helix, Parallelizer::Dswp];

    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Parallelizer::Doall => "doall",
            Parallelizer::Helix => "helix",
            Parallelizer::Dswp => "dswp",
            Parallelizer::Perspective => "perspective",
        }
    }

    /// The abstractions the technique asks the manager for: its Table 4 row.
    pub fn abstractions(self) -> &'static [Abstraction] {
        match self {
            Parallelizer::Doall => &doall::ABSTRACTIONS,
            Parallelizer::Helix => &helix::ABSTRACTIONS,
            Parallelizer::Dswp => &dswp::ABSTRACTIONS,
            Parallelizer::Perspective => &perspective::ABSTRACTIONS,
        }
    }
}

/// What a technique's [`gate`] decided about one loop: exactly what its
/// emitter and the planner's cost model need, so neither derives it again.
#[derive(Debug, Clone)]
pub enum Recipe {
    /// DOALL needs nothing beyond the loop abstraction.
    Doall,
    /// HELIX: the sequential segments to bracket.
    Helix(helix::Segments),
    /// DSWP: the stage partition and the cross-stage value queues.
    Dswp(dswp::StagePlan),
    /// Perspective: the scratch `alloca` to privatize.
    Perspective(InstId),
}

/// The gates' working lists, kept by a caller that judges many loops (the
/// audit, the planner, a driver) so that a gate allocates only what its
/// verdict keeps. Empty between gates; sized by the largest loop so far.
#[derive(Default)]
pub struct GateBuffers {
    dswp: dswp::DswpBuffers,
    helix: helix::HelixBuffers,
}

/// Will `technique` take this loop, and how? Read-only, and the *only*
/// place the answer is computed: legality, profitability and the emit
/// mechanics ([`mechanics_gate`]) are all decided here, so `Ok(recipe)`
/// means [`emit`] succeeds. The driver, the auditor's verdicts and the
/// planner's prices are all this one call. `workers` is the task count
/// (DSWP: the wanted stage count).
pub fn gate(
    technique: Parallelizer,
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    arch: &Architecture,
    workers: usize,
    buf: &mut GateBuffers,
) -> Result<Recipe, ParallelizeError> {
    match technique {
        Parallelizer::Doall => doall::gate(m, fid, la).map(|()| Recipe::Doall),
        Parallelizer::Helix => helix::gate(m, fid, la, arch, &mut buf.helix).map(Recipe::Helix),
        Parallelizer::Dswp => {
            dswp::gate(m, fid, la, arch, workers, &mut buf.dswp).map(Recipe::Dswp)
        }
        Parallelizer::Perspective => perspective::gate(m, fid, la).map(Recipe::Perspective),
    }
}

/// Rewrite the loop as `recipe` says, for `workers` tasks.
pub fn emit(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    recipe: &Recipe,
    workers: usize,
) -> Result<(), ParallelizeError> {
    match recipe {
        Recipe::Doall => doall::emit(m, fid, la, workers),
        Recipe::Helix(segments) => helix::emit(m, fid, la, segments, workers),
        Recipe::Dswp(plan) => dswp::emit(m, fid, la, plan),
        Recipe::Perspective(cell) => perspective::emit(m, fid, la, *cell, workers),
    }
}

/// Cycles of the fixed code [`emit`] writes for a recipe, per invocation of
/// the loop, counted off the same inputs `emit` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedCost {
    /// In the dispatching function, whatever the task count: the
    /// environment's allocation and live-in stores, the queues' creation,
    /// the dispatch call and the branch on.
    pub parent: u64,
    /// In the dispatching function after the join, once per task: one trip
    /// of the `merge` loop — per reduction the slot index, the reload of
    /// the task's partial and its fold; then the task counter's step, test
    /// and branch. 0 when the loop has no live-outs (no `merge` block).
    pub merge: u64,
    /// In each task, around its share of the iterations: the frame
    /// ([`task_frame_cycles`]) plus what the technique adds — the
    /// re-stepped recurrences of a distributed loop, a stage's queue-id
    /// loads and its trampoline.
    pub task: u64,
}

impl FixedCost {
    /// The dispatching function's share when `n_tasks` tasks are merged.
    pub fn parent_for(&self, n_tasks: usize) -> u64 {
        self.parent + n_tasks as u64 * self.merge
    }
}

/// Price the fixed code of `recipe`.
pub fn fixed_cost(la: &LoopAbstraction, recipe: &Recipe) -> FixedCost {
    let n_queues = match recipe {
        Recipe::Dswp(plan) => plan.n_queues() as u64,
        _ => 0,
    };
    let slot = Environment::slot_cycles;
    let call = |name: &str| CALL_CYCLES + external_cost(name);
    let stores: u64 = la.env.live_ins.iter().map(|(_, ty)| slot(ty)).sum();
    let add = bin_cost(BinOp::Add);
    let folds: u64 = la
        .env
        .live_outs
        .iter()
        .map(|(v, ty)| add + slot(ty) + la.reduction_of(*v).map_or(0, |r| bin_cost(r.op)))
        .sum();
    let merge = if la.env.live_outs.is_empty() {
        0
    } else {
        folds + add + ICMP_CYCLES + CONDBR_CYCLES
    };
    let technique = match recipe {
        // `build_trampoline`'s switch, call and ret, and `prune_stage`'s
        // queue-id loads.
        Recipe::Dswp(_) => SWITCH_CYCLES + CALL_CYCLES + RET_CYCLES + n_queues * slot(&Type::I64),
        // `distribute_cyclically`: `offset_start` and `scale_step` per
        // affine recurrence (Perspective distributes the same way).
        _ => la.ivs.len() as u64 * (2 * bin_cost(BinOp::Mul) + bin_cost(BinOp::Add)),
    };
    FixedCost {
        parent: ALLOCA_CYCLES
            + stores
            + n_queues * (call(QUEUE_CREATE_INTRINSIC) + slot(&Type::I64))
            + call(DISPATCH_INTRINSIC)
            + BR_CYCLES,
        merge,
        task: task_frame_cycles(&la.env) + technique,
    }
}

/// Run one parallelizer over every loop of the module, outermost first:
/// skip what an already-parallelized parent subsumes and what the profile
/// says is cold, [`gate`] the rest, and [`emit`] each accepted loop in its
/// own edit transaction.
pub fn parallelize(
    noelle: &mut Noelle,
    technique: Parallelizer,
    target: &LoopTargetOpts,
) -> ParallelReport {
    for &a in technique.abstractions() {
        noelle.note(a);
    }
    // Read through `Noelle::machine`, which notes nothing: each technique's
    // own list above says whether it asks for AR.
    let arch = noelle.machine();
    // Nothing is colder than 0: an ungated run never looks at the profile.
    let profiles = (target.min_hotness > 0.0)
        .then(|| noelle.profiles())
        .filter(|p| !p.block_counts.is_empty());

    let mut report = ParallelReport::default();
    let mut buf = GateBuffers::default();
    // A loop nested in one parallelized so far is gone: its parent was
    // outlined into a task and bypassed.
    let mut done: Vec<(FuncId, Arc<LoopForest>, LoopId)> = Vec::new();
    for (fid, forest, id) in candidate_loops(noelle) {
        let l = forest.loop_info(id);
        let inside = |(df, dforest, did): &(FuncId, Arc<LoopForest>, LoopId)| {
            *df == fid && dforest.loop_info(*did).contains(l.header)
        };
        if done.iter().any(inside) {
            continue;
        }
        let fname = noelle.module().func(fid).name.clone();
        if profiles
            .as_ref()
            .is_some_and(|p| p.loop_hotness(noelle.module(), fid, l) < target.min_hotness)
        {
            report
                .skipped
                .push((fname, l.header, "cold loop".to_string()));
            continue;
        }
        let la = noelle.loop_abstraction_of(fid, &forest, id);
        let outcome = gate(
            technique,
            noelle.module(),
            fid,
            &la,
            &arch,
            target.workers,
            &mut buf,
        )
        .and_then(|recipe| {
            noelle.edit(|tx| emit(tx.module_touching([fid]), fid, &la, &recipe, target.workers))
        });
        match outcome {
            Ok(()) => {
                report.parallelized.push((fname, l.header));
                done.push((fid, Arc::clone(&forest), id));
            }
            Err(e) => report.skipped.push((fname, l.header, e.to_string())),
        }
    }
    report
}

/// The part of every [`gate`] that is about the emitter, not the loop's
/// dependences: the failure points outlining, the dispatcher and (for the
/// techniques that distribute iterations, `stepped`) the IV stepper would
/// otherwise only reach mid-rewrite.
pub fn mechanics_gate(
    m: &Module,
    fid: FuncId,
    la: &LoopAbstraction,
    stepped: bool,
) -> Result<(), ParallelizeError> {
    liveouts_gate(la)?;
    let l = la.structure();
    let f = m.func(fid);
    // Outlining and the dispatcher need one exit block.
    if l.num_exit_blocks() != 1 {
        return Err(ParallelizeError::Shape(
            "loop has multiple exit blocks".into(),
        ));
    }
    // The dispatcher needs a pre-header, existing or creatable.
    if l.preheader.is_none()
        && !f
            .block_order()
            .iter()
            .any(|&b| !l.contains(b) && f.successors(b).contains(&l.header))
    {
        return Err(ParallelizeError::Shape(
            "header has no out-of-loop predecessor".into(),
        ));
    }
    if !stepped {
        return Ok(());
    }
    // Cyclic distribution re-steps every affine recurrence (the task clone
    // is isomorphic to the loop, so the shapes seen here are the clone's).
    // The loop's IVs are its affine recurrences, one each.
    if la.ivs.is_empty() {
        return Err(ParallelizeError::NoGoverningIv);
    }
    for rec in la.ivs.ivs.iter().map(|iv| &iv.rec) {
        let steppable = matches!(f.inst(rec.phi), Inst::Phi { .. })
            && matches!(
                f.inst(rec.update),
                Inst::Bin { op: BinOp::Add | BinOp::Sub, lhs, rhs, .. }
                    if *lhs == Value::Inst(rec.phi) || *rhs == Value::Inst(rec.phi)
            );
        if !steppable {
            return Err(ParallelizeError::Shape(
                "induction update has unexpected shape".into(),
            ));
        }
    }
    Ok(())
}

/// The signature of task functions: `void (i64* env, i64 task_id, i64
/// n_tasks)`.
pub fn task_fn_ptr_type() -> Type {
    Type::Func(Arc::new(FuncType {
        params: vec![Type::I64.ptr_to(), Type::I64, Type::I64],
        ret: Type::Void,
    }))
    .ptr_to()
}

/// Pull the function signature out of a task-function-pointer type,
/// explaining exactly what is wrong when the shape is unexpected (fuzzed or
/// malformed modules reach this through the tools registry, so the message
/// must diagnose, not abort).
pub fn task_fn_signature(t: &Type) -> Result<&FuncType, String> {
    let Type::Ptr(inner) = t else {
        return Err(format!(
            "expected a task function pointer, found non-pointer type {t:?}"
        ));
    };
    let Type::Func(ft) = &**inner else {
        return Err(format!(
            "expected a pointer to a task function, found pointer to {inner:?}"
        ));
    };
    Ok(ft)
}

/// Declare (once) and return the `noelle.task.dispatch` intrinsic.
pub fn declare_dispatch(m: &mut Module) -> FuncId {
    m.get_or_declare(DISPATCH_INTRINSIC, || {
        let params = vec![task_fn_ptr_type(), Type::I64.ptr_to(), Type::I64];
        (params, Type::Void)
    })
}

/// Refuse a loop with a live-out no reduction stands behind (the dispatcher
/// rebuilds live-outs from reduction partials only), naming each one. A
/// live-out is an instruction the loop defines.
pub(crate) fn liveouts_gate(la: &LoopAbstraction) -> Result<(), ParallelizeError> {
    let unsupported =
        |&(v, _): &(Value, Type)| v.as_inst().filter(|_| la.reduction_of(v).is_none());
    let live_outs: Vec<InstId> = la.env.live_outs.iter().filter_map(unsupported).collect();
    if live_outs.is_empty() {
        return Ok(());
    }
    Err(ParallelizeError::UnsupportedLiveOut(live_outs))
}

/// Step 1, outline: clone the loop into a task function named `name`, each
/// cloned reduction accumulator starting from its operator's identity (a
/// task computes a partial value; the dispatcher folds them).
pub fn outline(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    name: String,
) -> Result<TaskFunction, ParallelizeError> {
    let task = outline_loop_as_task(m, fid, la.structure(), &la.env, name)?;
    let tf = m.func_mut(task.fid);
    for r in &la.reductions {
        let Some(Value::Inst(clone_phi)) = task.value(Value::Inst(r.phi)) else {
            continue;
        };
        if let Inst::Phi { incomings, .. } = tf.inst_mut(clone_phi) {
            for (b, v) in incomings.iter_mut() {
                if *b == task.entry {
                    *v = Value::Const(r.identity());
                }
            }
        }
    }
    Ok(task)
}

/// Step 2 of the techniques that distribute iterations: task `t` of `n`
/// starts every affine recurrence at `start + t*step` and strides by
/// `n*step` — pure IVS usage, on the loop's IVs (one per recurrence, the
/// governing one and those that follow suit) mapped into the clone.
pub fn distribute_cyclically(
    m: &mut Module,
    task: &TaskFunction,
    la: &LoopAbstraction,
) -> Result<(), ParallelizeError> {
    let tf = m.func_mut(task.fid);
    for iv in &la.ivs.ivs {
        let rec = task.clone_rec(&iv.rec);
        offset_start(tf, &task.structure, &rec, Value::Arg(1))?;
        scale_step(tf, &task.structure, &rec, Value::Arg(2))?;
    }
    Ok(())
}

/// Step 3, dispatch: emit the dispatcher of `target` (the task, or DSWP's
/// trampoline over its stage tasks) in the original function and make the
/// loop unreachable:
///
/// 1. a `dispatch` block allocates the environment, stores the live-ins and
///    creates `n_queues` inter-core queues, their ids in the slots after the
///    live-out section (DSWP's),
/// 2. calls `noelle.task.dispatch(target, env, n_tasks)`,
/// 3. when the loop has live-outs, branches to a `merge` block that loops
///    over the task ids, reloading each task's live-out slots and folding
///    them into the reductions, and
/// 4. bypasses the loop to the task's exit block, rewiring its phis and
///    the external uses.
pub fn emit_dispatcher(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    task: &TaskFunction,
    target: FuncId,
    n_tasks: usize,
    n_queues: usize,
) -> Result<(), ParallelizeError> {
    let dispatch_fn = declare_dispatch(m);
    let queue_create = m.get_or_declare(QUEUE_CREATE_INTRINSIC, || (vec![Type::I64], Type::I64));
    let (l, env, exit_block) = (la.structure(), &la.env, task.exit);

    let f = m.func_mut(fid);
    let pre = ensure_preheader(f, l)?;
    // The environment, a slot store per live-in, a call and a slot store
    // per queue, the dispatch call and the branch; the merge loop's counter
    // and branch, and a phi, a slot's index, its load and the fold per
    // live-out.
    let access = EnvironmentBuilder::MAX_SLOT_ACCESS_LEN;
    let dispatch_len = access * env.live_ins.len() + (1 + access) * n_queues + 3;
    let merge_len = 4 + (3 + access) * env.live_outs.len();
    f.reserve(2, dispatch_len + merge_len);
    let dispatch = f.add_block("dispatch");
    f.reserve_in(dispatch, dispatch_len);

    // 1. Environment allocation + live-in stores + queue creation.
    let env_ptr = EnvironmentBuilder::alloc(f, dispatch, env.num_slots(n_tasks) + n_queues);
    for (slot, (v, ty)) in env.live_ins.iter().enumerate() {
        EnvironmentBuilder::store_slot(f, dispatch, env_ptr, Value::const_i64(slot as i64), *v, ty);
    }
    for qi in 0..n_queues {
        let q = f.append_inst(
            dispatch,
            Inst::Call {
                callee: noelle_ir::inst::Callee::Direct(queue_create),
                args: vec![Value::const_i64(64)],
                ret_ty: Type::I64,
            },
        );
        EnvironmentBuilder::store_slot(
            f,
            dispatch,
            env_ptr,
            Value::const_i64((env.num_slots(n_tasks) + qi) as i64),
            Value::Inst(q),
            &Type::I64,
        );
    }

    // 2. The dispatch call.
    f.append_inst(
        dispatch,
        Inst::Call {
            callee: noelle_ir::inst::Callee::Direct(dispatch_fn),
            args: vec![
                Value::Func(target),
                env_ptr,
                Value::const_i64(n_tasks as i64),
            ],
            ret_ty: Type::Void,
        },
    );

    // 3. Live-out reconstruction: one `merge` block loops over the task ids
    //    and folds each task's partials, task 0 first, into accumulators
    //    seeded by the sequential initial values. The parent's code is the
    //    same whatever the task count.
    let mut combined: Vec<(Value, Value)> = Vec::new(); // (original, rebuilt)
    let tail = if env.live_outs.is_empty() {
        f.set_terminator(dispatch, Terminator::Br(exit_block));
        dispatch
    } else {
        let merge = f.add_block("merge");
        f.reserve_in(merge, merge_len);
        f.set_terminator(dispatch, Terminator::Br(merge));
        // Phis first: the task id and one accumulator per reduction, each
        // born with its back edge, whose value the trip computes below.
        let phi = |f: &mut Function, ty: &Type, init: Value| {
            let incomings = vec![(dispatch, init), (merge, init)];
            f.append_inst(
                merge,
                Inst::Phi {
                    ty: ty.clone(),
                    incomings,
                },
            )
        };
        let set_back = |f: &mut Function, phi: InstId, next: Value| {
            if let Inst::Phi { incomings, .. } = f.inst_mut(phi) {
                incomings[1].1 = next;
            }
        };
        let t_phi = phi(f, &Type::I64, Value::const_i64(0));
        let t = Value::Inst(t_phi);
        // The gate refused every live-out no reduction stands behind.
        let mut accs = Vec::with_capacity(env.live_outs.len());
        for (idx, (v, ty)) in env.live_outs.iter().enumerate() {
            if let Some(red) = la.reduction_of(*v) {
                accs.push((idx, v, ty, red.op, phi(f, ty, red.initial)));
            }
        }
        let bin = |f: &mut Function, op, ty: &Type, lhs, rhs| {
            let ty = ty.clone();
            Value::Inst(f.append_inst(merge, Inst::Bin { op, ty, lhs, rhs }))
        };
        for (idx, v, ty, op, acc) in accs {
            let first = Value::const_i64((env.live_out_base() + idx * n_tasks) as i64);
            let slot = bin(f, BinOp::Add, &Type::I64, t, first);
            let part = EnvironmentBuilder::load_slot(f, merge, env_ptr, slot, ty);
            let next = bin(f, op, ty, Value::Inst(acc), part);
            set_back(f, acc, next);
            combined.push((*v, next));
        }
        let t_next = bin(f, BinOp::Add, &Type::I64, t, Value::const_i64(1));
        set_back(f, t_phi, t_next);
        let more = f.append_inst(
            merge,
            Inst::Icmp {
                pred: IcmpPred::Slt,
                ty: Type::I64,
                lhs: t_next,
                rhs: Value::const_i64(n_tasks as i64),
            },
        );
        f.set_terminator(
            merge,
            Terminator::CondBr {
                cond: Value::Inst(more),
                then_bb: merge,
                else_bb: exit_block,
            },
        );
        merge
    };

    // 4. Bypass the loop. Exit phis take the rebuilt values.
    let exit_phis = f.block(exit_block).insts.iter().copied();
    let exit_phis = exit_phis.take_while(|&i| matches!(f.inst(i), Inst::Phi { .. }));
    let exit_phi_values: Vec<(InstId, Value)> = exit_phis
        .filter_map(|phi| {
            let incoming = match f.inst(phi) {
                Inst::Phi { incomings, .. } => incomings
                    .iter()
                    .find(|(b, _)| l.contains(*b))
                    .map(|(_, v)| *v),
                _ => None,
            }?;
            combined
                .iter()
                .find(|(orig, _)| *orig == incoming)
                .map(|(_, rebuilt)| (phi, *rebuilt))
        })
        .collect();
    bypass_loop(f, l, pre, exit_block, dispatch, tail, &exit_phi_values);

    // Remaining external uses of live-outs (outside the now-dead loop and
    // not through the exit phis) read the rebuilt values. Rewriting
    // operands moves no instruction, so the blocks are walked in place.
    if combined.is_empty() {
        return Ok(());
    }
    for bi in 0..f.block_order().len() {
        let b = f.block_order()[bi];
        if l.contains(b) || b == dispatch || b == tail {
            continue;
        }
        for k in 0..f.block(b).insts.len() {
            let id = f.block(b).insts[k];
            for (orig, rebuilt) in &combined {
                let (orig, rebuilt) = (*orig, *rebuilt);
                f.inst_mut(id)
                    .map_operands(|v| if v == orig { rebuilt } else { v });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_declared_once() {
        let mut m = Module::new("t");
        let a = declare_dispatch(&mut m);
        let b = declare_dispatch(&mut m);
        assert_eq!(a, b);
        assert_eq!(m.functions().len(), 1);
    }

    /// `fixed_cost` counts what `emit` writes: for each technique, the
    /// blocks the rewrite adds around the loop — the parent's `dispatch`
    /// and one trip of its `merge` loop per task, each task's `entry` and
    /// `finish`, a stage's trampoline — cost what it says, so the planner's
    /// prices cannot drift from the emitters.
    #[test]
    fn fixed_cost_is_what_emit_writes() {
        use noelle_core::architecture::{inst_cost, static_cost};
        use noelle_core::noelle::AliasTier;
        let src = r#"
module "t" {
define f64 @kernel(i64* %a, f32 %scale, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %j = phi i64 [entry: i64 5] [body: %j2]
  %s = phi f64 [entry: f64 0.0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %j
  %v = load i64, %p
  %d0 = div i64 %v, i64 7
  %d1 = div i64 %d0, i64 3
  %d2 = div i64 %d1, i64 5
  %d3 = div i64 %d2, i64 9
  %d4 = div i64 %d3, i64 11
  %d5 = div i64 %d4, i64 13
  %d6 = div i64 %d5, i64 2
  %d7 = div i64 %d6, i64 17
  %d8 = div i64 %d7, i64 19
  %d9 = div i64 %d8, i64 23
  %da = div i64 %d9, i64 7
  %db = div i64 %da, i64 3
  %dc = div i64 %db, i64 5
  %dd = div i64 %dc, i64 9
  %de = div i64 %dd, i64 11
  %df = div i64 %de, i64 13
  %f = sitofp i64 %df to f32
  %g = fmul f32 %f, %scale
  %h = fpext f32 %g to f64
  %s2 = fadd f64 %s, %h
  %i2 = add i64 %i, i64 1
  %j2 = add i64 %j, i64 2
  br header
exit:
  ret %s
}
}
"#;
        for (technique, workers) in [
            (Parallelizer::Doall, 1),
            (Parallelizer::Doall, 3),
            (Parallelizer::Doall, 12),
            (Parallelizer::Helix, 4),
            (Parallelizer::Helix, 12),
            (Parallelizer::Dswp, 2),
            (Parallelizer::Dswp, 3),
        ] {
            let m = noelle_ir::parser::parse_module(src).unwrap();
            let mut n = Noelle::new(m, AliasTier::Full);
            let fid = n.module().func_id_by_name("kernel").unwrap();
            let la = n.loop_abstraction(fid, LoopId(0));
            let arch = Architecture::default_machine();
            let recipe = gate(
                technique,
                n.module(),
                fid,
                &la,
                &arch,
                workers,
                &mut GateBuffers::default(),
            )
            .unwrap_or_else(|e| panic!("{technique:?}: {e}"));
            let predicted = fixed_cost(&la, &recipe);
            let n_tasks = match &recipe {
                Recipe::Dswp(plan) => plan.n_stages,
                _ => workers,
            };
            n.edit(|tx| emit(tx.module_touching([fid]), fid, &la, &recipe, workers))
                .unwrap();

            let m = n.module();
            let block_cost = |f: &noelle_ir::module::Function, name: &str| -> u64 {
                let b = f
                    .block_order()
                    .iter()
                    .find(|&&b| f.block(b).name == name)
                    .unwrap_or_else(|| panic!("@{} has no block {name}", f.name));
                f.block(*b)
                    .insts
                    .iter()
                    .map(|&i| static_cost(m, f.inst(i)))
                    .sum()
            };
            let parent = m.func(fid);
            assert_eq!(
                predicted.parent_for(n_tasks),
                block_cost(parent, "dispatch") + n_tasks as u64 * block_cost(parent, "merge"),
                "{technique:?} on {n_tasks} tasks: the parent's dispatch and merge trips"
            );
            let tasks: Vec<_> = m
                .functions()
                .iter()
                .filter(|f| f.name.starts_with("kernel.") && !f.name.ends_with(".tramp"))
                .collect();
            assert!(!tasks.is_empty());
            let trampoline = m.functions().iter().find(|f| f.name.ends_with(".tramp"));
            // One pass through the trampoline: its switch, one stage's call
            // (the stage itself is the task) and return.
            let hop = trampoline.map_or(0, |t| {
                let call_and_ret: u64 = t
                    .block(t.block_order()[1])
                    .insts
                    .iter()
                    .map(|&i| inst_cost(t.inst(i)))
                    .sum();
                block_cost(t, "entry") + call_and_ret
            });
            for task in tasks {
                assert_eq!(
                    predicted.task,
                    block_cost(task, "entry") + block_cost(task, "finish") + hop,
                    "{technique:?}: @{}",
                    task.name
                );
            }
        }
    }

    #[test]
    fn task_fn_ptr_type_shape() {
        let t = task_fn_ptr_type();
        let ft = task_fn_signature(&t).expect("task_fn_ptr_type produces a task fn pointer");
        assert_eq!(ft.params.len(), 3);
        assert_eq!(ft.ret, Type::Void);
    }

    #[test]
    fn task_fn_signature_diagnoses_bad_shapes() {
        let e = task_fn_signature(&Type::I64).unwrap_err();
        assert!(e.contains("non-pointer type"), "{e}");
        let e = task_fn_signature(&Type::I64.ptr_to()).unwrap_err();
        assert!(e.contains("pointer to"), "{e}");
    }
}
