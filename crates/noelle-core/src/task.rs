//! The Task (T) abstraction.
//!
//! "NOELLE offers the Task abstraction to describe a code region that runs
//! sequentially. [...] Nodes within an aSCCDAG are partitioned into tasks.
//! An Environment is created for each task. At runtime, tasks are submitted
//! to a thread-pool, which will run them in parallel across the cores."
//!
//! [`outline_loop_as_task`] materializes a task: it clones a loop into a new
//! function `void task(i64* env, i64 task_id, i64 n_tasks)` that loads its
//! live-ins from the environment, runs the (cloned) loop, and stores its
//! live-outs into per-task environment slots. The parallelizing custom tools
//! then specialize the clone (IV stepping for DOALL/HELIX, queue insertion
//! for DSWP) and hand it to the `noelle.task.dispatch` runtime intrinsic.

use crate::architecture::{bin_cost, BR_CYCLES, RET_CYCLES};
use crate::env::{Environment, EnvironmentBuilder};
use noelle_analysis::scev::AddRec;
use noelle_ir::inst::{BinOp, Inst, InstId, Terminator};
use noelle_ir::loops::{LoopId, LoopInfo};
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;

/// Errors raised while materializing a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// Task outlining currently requires a single exit block.
    MultipleExits,
    /// A value used inside the loop could not be remapped.
    UnmappedValue(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::MultipleExits => write!(f, "loop has multiple exit blocks"),
            TaskError::UnmappedValue(v) => write!(f, "cannot remap value {v}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// A materialized task: the outlined function plus the maps linking it back
/// to the original loop. Only a loop with one exit block is outlined, so
/// holding a task proves the loop has exactly one.
#[derive(Debug)]
pub struct TaskFunction {
    /// The task function (`void (i64* env, i64 task_id, i64 n_tasks)`).
    pub fid: FuncId,
    /// Entry block of the task (live-in loads happen here).
    pub entry: BlockId,
    /// Block that stores live-outs and returns.
    pub finish: BlockId,
    /// The cloned loop: the original's header, latches, blocks and exit
    /// edges mapped through `block_map`, pre-header `entry`, every exit
    /// edge to `finish`. The nesting fields describe it alone in the task.
    pub structure: LoopInfo,
    /// The original loop's one exit block, in the source function.
    pub exit: BlockId,
    /// Original value → clone value (covers live-ins and loop
    /// instructions), ascending by original: see [`TaskFunction::value`].
    value_map: Vec<(Value, Value)>,
    /// Original loop block → cloned block, ascending by original.
    block_map: Vec<(BlockId, BlockId)>,
}

/// The value `key` maps to in `map`, ascending by key.
fn lookup<K: Ord, V: Copy>(map: &[(K, V)], key: &K) -> Option<V> {
    let at = map.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
    Some(map[at].1)
}

impl TaskFunction {
    /// The clone of `v`, a live-in or an instruction of the original loop.
    pub fn value(&self, v: Value) -> Option<Value> {
        lookup(&self.value_map, &v)
    }

    /// The clone of block `b` of the original loop.
    pub fn block(&self, b: BlockId) -> Option<BlockId> {
        lookup(&self.block_map, &b)
    }

    /// The clone of a recurrence of the original loop: its constants,
    /// globals and functions are its own.
    pub fn clone_rec(&self, rec: &AddRec) -> AddRec {
        let value = |v: Value| self.value(v).unwrap_or(v);
        let inst = |i: InstId| value(Value::Inst(i)).as_inst().unwrap_or(i);
        AddRec {
            phi: inst(rec.phi),
            start: value(rec.start),
            step: value(rec.step),
            update: inst(rec.update),
            negated: rec.negated,
        }
    }
}

/// Clone loop `l` of `src_fid` into a fresh task function named `name`.
///
/// The produced function:
/// 1. loads every environment live-in in its entry block,
/// 2. runs a verbatim clone of the loop (same CFG shape), and
/// 3. on loop exit stores every live-out to `env[base + idx*n_tasks +
///    task_id]` and returns.
///
/// # Errors
/// Fails when the loop has more than one exit block, which the current
/// outliner does not support, or when an operand is neither a live-in nor
/// defined in the loop (the first such operand in instruction order).
pub fn outline_loop_as_task(
    m: &mut Module,
    src_fid: FuncId,
    l: &LoopInfo,
    env: &Environment,
    name: String,
) -> Result<TaskFunction, TaskError> {
    let mut exits = l.exit_edges.iter().map(|&(_, to)| to);
    let exit = exits.next().ok_or(TaskError::MultipleExits)?;
    if exits.any(|to| to != exit) {
        return Err(TaskError::MultipleExits);
    }
    let src = m.func(src_fid);
    // The header first, then the other loop blocks in order.
    let ordered_blocks =
        || std::iter::once(l.header).chain(l.blocks.iter().copied().filter(|&b| b != l.header));
    let loop_insts: usize = l.blocks.iter().map(|&b| src.block(b).insts.len()).sum();

    let mut task = Function::new(
        name,
        vec![
            ("env".into(), Type::I64.ptr_to()),
            ("task_id".into(), Type::I64),
            ("n_tasks".into(), Type::I64),
        ],
        Type::Void,
    );
    // A slot load or store per live-in and live-out, a live-out's index
    // three more, and each block's terminator.
    let access = EnvironmentBuilder::MAX_SLOT_ACCESS_LEN;
    let loads = access * env.live_ins.len() + 1;
    let stores = (access + 3) * env.live_outs.len() + 1;
    task.reserve(l.blocks.len() + 2, loop_insts + loads + stores);
    let entry = task.add_block("entry");
    task.reserve_in(entry, loads);

    // 1. Live-in loads.
    let mut value_map: Vec<(Value, Value)> = Vec::with_capacity(env.live_ins.len() + loop_insts);
    for (slot, (v, ty)) in env.live_ins.iter().enumerate() {
        let loaded = EnvironmentBuilder::load_slot(
            &mut task,
            entry,
            Value::Arg(0),
            Value::const_i64(slot as i64),
            ty,
        );
        value_map.push((*v, loaded));
    }

    // 2. Clone the loop blocks.
    let mut block_map: Vec<(BlockId, BlockId)> = Vec::with_capacity(l.blocks.len());
    for b in ordered_blocks() {
        let nb = task.add_block(src.block(b).name.clone());
        task.reserve_in(nb, src.block(b).insts.len());
        block_map.push((b, nb));
    }
    let header = block_map[0].1;
    let finish = task.add_block("finish");
    task.reserve_in(finish, stores);

    // Pass 1: clone instructions with original operands, in order: the
    // clones are one run of the task's arena.
    let cloned_from = task.inst_arena_len();
    for (b, nb) in ordered_blocks().zip(block_map.iter().map(|&(_, nb)| nb)) {
        for &id in &src.block(b).insts {
            let clone = task.append_inst(nb, src.inst(id).clone());
            value_map.push((Value::Inst(id), Value::Inst(clone)));
        }
    }
    let cloned = (cloned_from..task.inst_arena_len()).map(|i| InstId(i as u32));
    value_map.sort_unstable_by_key(|&(v, _)| v);
    block_map.sort_unstable_by_key(|&(b, _)| b);
    let mapped_block = |b: &BlockId| lookup(&block_map, b);

    // Pass 2: remap operands, blocks, and loop boundaries, in instruction
    // order.
    let map_value = |v: Value| -> Result<Value, TaskError> {
        match v {
            Value::Const(_) | Value::Global(_) | Value::Func(_) => Ok(v),
            other => lookup(&value_map, &other)
                .ok_or_else(|| TaskError::UnmappedValue(format!("{other:?}"))),
        }
    };
    let mut failed = None;
    let mut succs = Vec::new();
    for id in cloned {
        // Remap value operands.
        task.inst_mut(id).map_operands(|v| match map_value(v) {
            Ok(nv) => nv,
            Err(e) => {
                failed.get_or_insert(e);
                v
            }
        });
        // Remap block references.
        match task.inst_mut(id) {
            Inst::Phi { incomings, .. } => {
                for (b, _) in incomings.iter_mut() {
                    *b = mapped_block(b).unwrap_or(entry);
                }
            }
            Inst::Term(t) => {
                succs.clear();
                t.for_each_successor(|s| succs.push(s));
                for s in &succs {
                    let target = mapped_block(s).unwrap_or(finish);
                    t.replace_successor(*s, target);
                }
            }
            _ => {}
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }

    // Entry falls through to the cloned header.
    task.set_terminator(entry, Terminator::Br(header));

    // 3. Live-out stores: env[base + idx * n_tasks + task_id].
    let base = Value::const_i64(env.live_out_base() as i64);
    for (idx, (v, ty)) in env.live_outs.iter().enumerate() {
        let clone = map_value(*v)?;
        let mut bin = |op, lhs, rhs| {
            let ty = Type::I64;
            Value::Inst(task.append_inst(finish, Inst::Bin { op, ty, lhs, rhs }))
        };
        let scaled = bin(BinOp::Mul, Value::const_i64(idx as i64), Value::Arg(2));
        let own = bin(BinOp::Add, scaled, Value::Arg(1));
        let slot = bin(BinOp::Add, own, base);
        EnvironmentBuilder::store_slot(&mut task, finish, Value::Arg(0), slot, clone, ty);
    }
    task.set_terminator(finish, Terminator::Ret(None));

    // The clone's loop, read off the original's, whose latches and exiting
    // blocks are loop blocks.
    let mut latches: Vec<BlockId> = l.latches.iter().filter_map(mapped_block).collect();
    latches.sort_unstable();
    let mut exit_edges: Vec<(BlockId, BlockId)> = l
        .exit_edges
        .iter()
        .filter_map(|(b, _)| Some((mapped_block(b)?, finish)))
        .collect();
    exit_edges.sort_unstable();
    let mut blocks: Vec<BlockId> = block_map.iter().map(|&(_, nb)| nb).collect();
    blocks.sort_unstable();
    let structure = LoopInfo {
        id: LoopId(0),
        header,
        latches,
        blocks,
        preheader: Some(entry),
        exit_edges,
        parent: None,
        children: Vec::new(),
        depth: 1,
    };

    let fid = m.add_function(task);
    Ok(TaskFunction {
        fid,
        entry,
        finish,
        structure,
        exit,
        value_map,
        block_map,
    })
}

/// Cycles of the frame [`outline_loop_as_task`] puts around the cloned
/// loop, per task: the live-in loads and the branch of `entry`, the slot
/// arithmetic, the live-out stores and the `ret` of `finish`.
pub fn task_frame_cycles(env: &Environment) -> u64 {
    let slot_index = bin_cost(BinOp::Mul) + 2 * bin_cost(BinOp::Add);
    let loads: u64 = env
        .live_ins
        .iter()
        .map(|(_, ty)| Environment::slot_cycles(ty))
        .sum();
    let stores: u64 = env
        .live_outs
        .iter()
        .map(|(_, ty)| slot_index + Environment::slot_cycles(ty))
        .sum();
    loads + BR_CYCLES + stores + RET_CYCLES
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::IcmpPred;
    use noelle_ir::loops::LoopForest;

    fn sum_loop_module() -> (Module, FuncId, LoopInfo) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("a", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::I64,
        );
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let sum = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let sum2 = b.binop(BinOp::Add, Type::I64, sum, v);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(sum, body, sum2);
        b.switch_to(exit);
        b.ret(Some(sum));
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        (m, fid, l)
    }

    #[test]
    fn outlined_task_verifies() {
        let (mut m, fid, l) = sum_loop_module();
        let env = Environment::for_loop(&m, m.func(fid), &l);
        let task = outline_loop_as_task(&mut m, fid, &l, &env, "k_task".to_string()).unwrap();
        noelle_ir::verifier::verify_module(&m).expect("task verifies");
        let tf = m.func(task.fid);
        assert_eq!(tf.params.len(), 3);
        assert_eq!(tf.ret_ty, Type::Void);
        // The clone contains a loop with the same shape.
        let cfg = Cfg::new(tf);
        let dt = DomTree::new(tf, &cfg);
        let forest = LoopForest::new(tf, &cfg, &dt);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest.loops()[0].blocks.len(), l.blocks.len());
    }

    #[test]
    fn live_ins_loaded_live_outs_stored() {
        let (mut m, fid, l) = sum_loop_module();
        let env = Environment::for_loop(&m, m.func(fid), &l);
        assert_eq!(env.live_ins.len(), 2);
        assert_eq!(env.live_outs.len(), 1);
        let task = outline_loop_as_task(&mut m, fid, &l, &env, "k_task".to_string()).unwrap();
        let tf = m.func(task.fid);
        // Entry: 2 live-in loads (plus geps/casts) ending in a branch.
        let entry_loads = tf
            .block(task.entry)
            .insts
            .iter()
            .filter(|&&i| matches!(tf.inst(i), Inst::Load { .. }))
            .count();
        assert_eq!(entry_loads, 2);
        // Finish: one store for the live-out.
        let finish_stores = tf
            .block(task.finish)
            .insts
            .iter()
            .filter(|&&i| matches!(tf.inst(i), Inst::Store { .. }))
            .count();
        assert_eq!(finish_stores, 1);
    }

    #[test]
    fn multi_exit_loop_rejected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64), ("c", Type::I1)], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let e1 = b.block("e1");
        let e2 = b.block("e2");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c, body, e1);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.cond_br(b.arg(1), header, e2);
        b.add_incoming(i, body, i2);
        b.switch_to(e1);
        b.ret(None);
        b.switch_to(e2);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let env = Environment::for_loop(&m, m.func(fid), &l);
        assert_eq!(
            outline_loop_as_task(&mut m, fid, &l, &env, "t".to_string()).unwrap_err(),
            TaskError::MultipleExits
        );
    }
}
