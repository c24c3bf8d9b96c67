//! NL0001: static race detection for parallelized task code.
//!
//! The parallelizers (DOALL/HELIX/DSWP, through `common::emit`) emit
//! task functions that run concurrently under `noelle.task.dispatch`. Their
//! correctness contract is that every cross-task memory dependence is
//! mediated by one of the runtime protocols:
//!
//! * the **environment**: live-ins are read-only, live-outs go to slots
//!   indexed by the task id (disjoint per task);
//! * **strided iteration**: DOALL instances cover disjoint residue classes of
//!   the induction space, so same-base accesses indexed by the strided IV
//!   never collide across instances;
//! * **sequential segments** (HELIX): accesses bracketed by
//!   `noelle.ss.wait`/`noelle.ss.signal` on the same segment id are totally
//!   ordered across instances;
//! * **queues** (DSWP): stages exchange values and a per-iteration token
//!   through `noelle.queue.push`/`pop`, which orders the connected stages.
//!
//! This pass re-derives the task structure from the IR alone (dispatch sites,
//! trampolines, environment slot layout), enumerates may-conflicting access
//! pairs with the PDG machinery, and reports every pair it cannot prove
//! mediated as a race, with both instruction locations. On tool output the
//! expected report is empty; a nonempty report on hand-written "task-shaped"
//! code pinpoints the unprotected accesses.
//!
//! Known soundness assumptions (documented, deliberate): stack addresses of a
//! task instance do not escape to shared memory, and queue connectivity
//! between DSWP stages is taken as ordering the connected stage bodies (the
//! token-queue chain the partitioner emits does exactly this).

use crate::diag::{Finding, IrLoc, Severity};
use crate::framework::LintPass;
use noelle_analysis::alias::MemoryObject;
use noelle_analysis::dfe::{BitSet, DataFlowProblem, Direction, Meet};
use noelle_analysis::modref::{is_allocator, ModRefSummaries};
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_ir::inst::{BinOp, Callee, Inst, InstId, Terminator};
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::value::{Constant, Value};
use noelle_transforms::common::{
    DISPATCH_INTRINSIC, QUEUE_CREATE_INTRINSIC, QUEUE_POP_INTRINSIC, QUEUE_PUSH_INTRINSIC,
    SS_SIGNAL_INTRINSIC, SS_WAIT_INTRINSIC,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The race detector pass (code NL0001).
pub struct RaceDetector;

impl LintPass for RaceDetector {
    fn name(&self) -> &'static str {
        "races"
    }
    fn code(&self) -> &'static str {
        "NL0001"
    }
    fn description(&self) -> &'static str {
        "unmediated cross-task memory dependence in parallelized task code"
    }
    fn run(&self, n: &mut Noelle) -> Vec<Finding> {
        detect_races(n)
    }
}

// ---------------------------------------------------------------------------
// Task-group discovery
// ---------------------------------------------------------------------------

/// One `noelle.task.dispatch` site and the task functions it launches.
pub(crate) struct TaskGroup {
    /// Function containing the dispatch call.
    pub dispatcher: FuncId,
    /// The environment pointer passed to the dispatch.
    pub env: Value,
    /// Task bodies that actually execute user code. For DSWP this is the
    /// stage list behind the trampoline; otherwise the dispatched function.
    pub members: Vec<FuncId>,
    /// True when the dispatched function is a stage-selecting trampoline:
    /// each member then runs as exactly one instance.
    pub pipelined: bool,
}

/// Find every dispatch site in the module.
pub(crate) fn task_groups(m: &Module) -> Vec<TaskGroup> {
    // No dispatch intrinsic declared -> no dispatch site can exist. The
    // O(functions) name probe keeps whole-module passes (races, env-slots)
    // effectively free on modules without tasks — the common case for the
    // IDE's per-keystroke re-lint.
    if m.func_id_by_name(DISPATCH_INTRINSIC).is_none() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        for id in f.inst_ids() {
            let Inst::Call {
                callee: Callee::Direct(c),
                args,
                ..
            } = f.inst(id)
            else {
                continue;
            };
            if m.func(*c).name != DISPATCH_INTRINSIC {
                continue;
            }
            let root = match args.first() {
                Some(Value::Func(r)) => *r,
                _ => continue,
            };
            let env = match args.get(1) {
                Some(v) => *v,
                None => continue,
            };
            match trampoline_stages(m, root) {
                Some(members) => out.push(TaskGroup {
                    dispatcher: fid,
                    env,
                    members,
                    pipelined: true,
                }),
                None => out.push(TaskGroup {
                    dispatcher: fid,
                    env,
                    members: vec![root],
                    pipelined: false,
                }),
            }
        }
    }
    out
}

/// Recognize a DSWP trampoline structurally: it touches no memory itself —
/// every non-terminator instruction is a direct call forwarding
/// `(env, task_id, n_tasks)` — and the entry block switches on the task id.
/// Returns the stage functions in case-value order.
fn trampoline_stages(m: &Module, root: FuncId) -> Option<Vec<FuncId>> {
    let f = m.func(root);
    if f.is_declaration() {
        return None;
    }
    let forwarded = [Value::Arg(0), Value::Arg(1), Value::Arg(2)];
    let mut stage_of_block: BTreeMap<BlockId, FuncId> = BTreeMap::new();
    for id in f.inst_ids() {
        match f.inst(id) {
            Inst::Call {
                callee: Callee::Direct(c),
                args,
                ..
            } if args.as_slice() == forwarded && !m.func(*c).is_declaration() => {
                stage_of_block.insert(f.parent_block(id), *c);
            }
            Inst::Term(_) => {}
            _ => return None,
        }
    }
    if stage_of_block.is_empty() {
        return None;
    }
    let term = f.inst(f.terminator_id(f.entry())?);
    let Inst::Term(Terminator::Switch { value, cases, .. }) = term else {
        return None;
    };
    if *value != Value::Arg(1) {
        return None;
    }
    let mut sorted = cases.clone();
    sorted.sort_by_key(|&(v, _)| v);
    let mut stages = Vec::new();
    for (_, bb) in sorted {
        stages.push(*stage_of_block.get(&bb)?);
    }
    if stages.is_empty() {
        return None;
    }
    Some(stages)
}

// ---------------------------------------------------------------------------
// Environment slot layout
// ---------------------------------------------------------------------------

/// Strip a chain of casts off a value.
fn strip_casts(f: &Function, mut v: Value) -> Value {
    for _ in 0..8 {
        match v {
            Value::Inst(id) => match f.inst(id) {
                Inst::Cast { val, .. } => v = *val,
                _ => break,
            },
            _ => break,
        }
    }
    v
}

/// If `ptr` is `gep env, <const c>` (possibly through casts), return `c`.
pub(crate) fn env_slot_of_ptr(f: &Function, ptr: Value, env: Value) -> Option<i64> {
    let Value::Inst(id) = strip_casts(f, ptr) else {
        return None;
    };
    let Inst::Gep { base, indices, .. } = f.inst(id) else {
        return None;
    };
    if strip_casts(f, *base) != env {
        return None;
    }
    match indices.as_slice() {
        [Value::Const(c)] => c.as_int(),
        _ => None,
    }
}

/// The values the dispatcher stores into each constant environment slot
/// (live-ins and queue ids), with value-side casts stripped.
fn env_slot_stores(m: &Module, g: &TaskGroup) -> BTreeMap<i64, Value> {
    let f = m.func(g.dispatcher);
    let mut slots = BTreeMap::new();
    for id in f.inst_ids() {
        if let Inst::Store { val, ptr, .. } = f.inst(id) {
            if let Some(c) = env_slot_of_ptr(f, *ptr, g.env) {
                slots.insert(c, strip_casts(f, *val));
            }
        }
    }
    slots
}

/// If `v` is a task-side load of constant environment slot `c` —
/// `inttoptr(load(gep(Arg(0), c)))` — return `c`.
fn loaded_env_slot(f: &Function, v: Value) -> Option<i64> {
    let Value::Inst(id) = strip_casts(f, v) else {
        return None;
    };
    let Inst::Load { ptr, .. } = f.inst(id) else {
        return None;
    };
    env_slot_of_ptr(f, *ptr, Value::Arg(0))
}

// ---------------------------------------------------------------------------
// Base-object resolution with environment-slot substitution
// ---------------------------------------------------------------------------

/// Resolve the abstract objects a task-side pointer may address. Unlike the
/// purely intra-procedural `underlying_objects`, a load of a constant
/// environment slot is substituted with the value the dispatcher stored
/// there, and the chase continues in the dispatcher's context — recovering
/// the heap/stack/global identity of live-in pointers so that accesses to
/// provably distinct objects are never paired. `None` means "unknown".
fn resolve_objects(
    m: &Module,
    g: &TaskGroup,
    slots: &BTreeMap<i64, Value>,
    fid: FuncId,
    ptr: Value,
) -> Option<BTreeSet<MemoryObject>> {
    let mut out = BTreeSet::new();
    let mut visited = BTreeSet::new();
    if chase(
        m,
        g,
        slots,
        fid,
        ptr,
        fid != g.dispatcher,
        &mut out,
        &mut visited,
        0,
    ) {
        Some(out)
    } else {
        None
    }
}

/// The actual values flowing into argument `argno` of `fid` across every
/// call site in the module, with the calling function of each. `None` when
/// the function's address is taken (so call sites can't be enumerated) or it
/// is never called.
fn arg_sources(m: &Module, fid: FuncId, argno: usize) -> Option<Vec<(FuncId, Value)>> {
    let mut out = Vec::new();
    for f2id in m.func_ids() {
        let f2 = m.func(f2id);
        if f2.is_declaration() {
            continue;
        }
        for id in f2.inst_ids() {
            let inst = f2.inst(id);
            if let Inst::Call {
                callee: Callee::Direct(c),
                args,
                ..
            } = inst
            {
                if *c == fid {
                    out.push((f2id, *args.get(argno)?));
                    continue;
                }
            }
            if inst.uses(Value::Func(fid)) {
                return None;
            }
        }
    }
    if out.is_empty() {
        return None;
    }
    Some(out)
}

#[allow(clippy::too_many_arguments)]
fn chase(
    m: &Module,
    g: &TaskGroup,
    slots: &BTreeMap<i64, Value>,
    fid: FuncId,
    v: Value,
    task_side: bool,
    out: &mut BTreeSet<MemoryObject>,
    visited: &mut BTreeSet<(FuncId, u32, bool)>,
    depth: u32,
) -> bool {
    if depth > 24 {
        return false;
    }
    match v {
        Value::Global(gid) => {
            out.insert(MemoryObject::Global(gid));
            true
        }
        Value::Func(f) => {
            out.insert(MemoryObject::Function(f));
            true
        }
        // Null/undef address nothing.
        Value::Const(_) => true,
        // Task arguments are the env/task_id/n_tasks triple and never carry a
        // chased pointer; dispatcher-side arguments are resolved through the
        // call sites of the enclosing function.
        Value::Arg(i) if !task_side => {
            if !visited.insert((fid, i, true)) {
                return true;
            }
            match arg_sources(m, fid, i as usize) {
                Some(sources) => sources.into_iter().all(|(caller, actual)| {
                    chase(m, g, slots, caller, actual, false, out, visited, depth + 1)
                }),
                None => false,
            }
        }
        Value::Arg(_) => false,
        Value::Inst(id) => {
            if !visited.insert((fid, id.0, false)) {
                return true;
            }
            let f = m.func(fid);
            match f.inst(id) {
                Inst::Alloca { .. } => {
                    out.insert(MemoryObject::Alloca(fid, id));
                    true
                }
                Inst::Gep { base, .. } => {
                    chase(m, g, slots, fid, *base, task_side, out, visited, depth + 1)
                }
                Inst::Cast { val, .. } => {
                    chase(m, g, slots, fid, *val, task_side, out, visited, depth + 1)
                }
                Inst::Select { tval, fval, .. } => {
                    chase(m, g, slots, fid, *tval, task_side, out, visited, depth + 1)
                        && chase(m, g, slots, fid, *fval, task_side, out, visited, depth + 1)
                }
                Inst::Phi { incomings, .. } => incomings.iter().all(|&(_, iv)| {
                    chase(m, g, slots, fid, iv, task_side, out, visited, depth + 1)
                }),
                Inst::Call {
                    callee: Callee::Direct(c),
                    ..
                } if is_allocator(&m.func(*c).name) => {
                    out.insert(MemoryObject::Heap(fid, id));
                    true
                }
                Inst::Load { ptr, .. } if task_side => {
                    match env_slot_of_ptr(f, *ptr, Value::Arg(0)).and_then(|c| slots.get(&c)) {
                        Some(&stored) => chase(
                            m,
                            g,
                            slots,
                            g.dispatcher,
                            stored,
                            false,
                            out,
                            visited,
                            depth + 1,
                        ),
                        None => false,
                    }
                }
                _ => false,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strided-recurrence recognition
// ---------------------------------------------------------------------------

/// Induction variables of the cyclic-distribution form DOALL emits:
/// `iv = phi [entry: start + step*task_id] [latch: iv + step*n_tasks]`.
/// Every value in one class enumerates `{start + step*(task_id + k*n_tasks)}`
/// — a residue class of `step` disjoint across task instances.
struct StridedInfo {
    /// IV instruction (phi or its update) → class index.
    class_of: BTreeMap<InstId, usize>,
    /// Class index → `(start, step)` key values.
    keys: Vec<(Value, Value)>,
}

fn as_bin(f: &Function, v: Value, op: BinOp) -> Option<(Value, Value)> {
    let Value::Inst(id) = v else {
        return None;
    };
    match f.inst(id) {
        Inst::Bin {
            op: o, lhs, rhs, ..
        } if *o == op => Some((*lhs, *rhs)),
        _ => None,
    }
}

/// Match `v` as `step * Arg(arg)` (either operand order, or the bare
/// argument, i.e. step 1); returns the step.
fn step_times_arg(f: &Function, v: Value, arg: u32) -> Option<Value> {
    if v == Value::Arg(arg) {
        return Some(Value::const_i64(1));
    }
    let (a, b) = as_bin(f, v, BinOp::Mul)?;
    if b == Value::Arg(arg) {
        return Some(a);
    }
    if a == Value::Arg(arg) {
        return Some(b);
    }
    None
}

/// Match one phi as a strided recurrence; returns `(start, step, update)`.
fn strided_phi(f: &Function, phi: InstId) -> Option<(Value, Value, InstId)> {
    let Inst::Phi { incomings, .. } = f.inst(phi) else {
        return None;
    };
    if incomings.len() != 2 {
        return None;
    }
    let orders = [
        (incomings[0].1, incomings[1].1),
        (incomings[1].1, incomings[0].1),
    ];
    for (init_v, upd_v) in orders {
        // Initial value: start + step*task_id (or just step*task_id).
        let parsed = if let Some(step) = step_times_arg(f, init_v, 1) {
            Some((Value::const_i64(0), step))
        } else if let Some((a, b)) = as_bin(f, init_v, BinOp::Add) {
            step_times_arg(f, b, 1)
                .map(|step| (a, step))
                .or_else(|| step_times_arg(f, a, 1).map(|step| (b, step)))
        } else {
            None
        };
        let Some((start, step)) = parsed else {
            continue;
        };
        // Update: iv + step*n_tasks, with the same step.
        let Value::Inst(upd_id) = upd_v else { continue };
        let Some((ua, ub)) = as_bin(f, upd_v, BinOp::Add) else {
            continue;
        };
        let scaled = if ua == Value::Inst(phi) {
            ub
        } else if ub == Value::Inst(phi) {
            ua
        } else {
            continue;
        };
        let Some(step2) = step_times_arg(f, scaled, 2) else {
            continue;
        };
        if step2 != step {
            continue;
        }
        return Some((start, step, upd_id));
    }
    None
}

fn strided_classes(f: &Function) -> StridedInfo {
    let mut info = StridedInfo {
        class_of: BTreeMap::new(),
        keys: Vec::new(),
    };
    for id in f.inst_ids() {
        let Some((start, step, upd)) = strided_phi(f, id) else {
            continue;
        };
        let key = (start, step);
        let class = match info.keys.iter().position(|k| *k == key) {
            Some(c) => c,
            None => {
                info.keys.push(key);
                info.keys.len() - 1
            }
        };
        info.class_of.insert(id, class);
        info.class_of.insert(upd, class);
    }
    info
}

/// True when `v` computes the same value in every task instance: built only
/// from constants, globals, the shared environment pointer, the instance
/// count, and loads of constant (live-in) environment slots.
fn instance_invariant(f: &Function, v: Value, depth: u32) -> bool {
    if depth > 16 {
        return false;
    }
    match v {
        Value::Const(_) | Value::Global(_) | Value::Func(_) => true,
        Value::Arg(1) => false,
        Value::Arg(_) => true,
        Value::Inst(id) => match f.inst(id) {
            Inst::Load { ptr, .. } => env_slot_of_ptr(f, *ptr, Value::Arg(0)).is_some(),
            Inst::Cast { val, .. } => instance_invariant(f, *val, depth + 1),
            Inst::Gep { base, indices, .. } => {
                instance_invariant(f, *base, depth + 1)
                    && indices.iter().all(|&i| instance_invariant(f, i, depth + 1))
            }
            Inst::Bin { lhs, rhs, .. } => {
                instance_invariant(f, *lhs, depth + 1) && instance_invariant(f, *rhs, depth + 1)
            }
            _ => false,
        },
    }
}

// ---------------------------------------------------------------------------
// Sequential-segment open sets (HELIX)
// ---------------------------------------------------------------------------

/// Which segment ids are provably "open" (waited on, not yet signalled) at
/// each instruction — a forward must-analysis solved by the DFE.
struct SegProblem {
    n: usize,
    genb: HashMap<BlockId, BitSet>,
    killb: HashMap<BlockId, BitSet>,
}

impl DataFlowProblem for SegProblem {
    fn universe(&self) -> usize {
        self.n
    }
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Intersection
    }
    fn gen_of(&self, block: BlockId) -> BitSet {
        self.genb
            .get(&block)
            .cloned()
            .unwrap_or_else(|| BitSet::new(self.n))
    }
    fn kill_of(&self, block: BlockId) -> BitSet {
        self.killb
            .get(&block)
            .cloned()
            .unwrap_or_else(|| BitSet::new(self.n))
    }
}

/// If `id` is a wait/signal call, return `(segment id, is_wait)`.
fn seg_event(m: &Module, f: &Function, id: InstId) -> Option<(i64, bool)> {
    let Inst::Call {
        callee: Callee::Direct(c),
        args,
        ..
    } = f.inst(id)
    else {
        return None;
    };
    let name = &m.func(*c).name;
    let is_wait = name == SS_WAIT_INTRINSIC;
    if !is_wait && name != SS_SIGNAL_INTRINSIC {
        return None;
    }
    match args.first() {
        Some(Value::Const(Constant::Int(s, _))) => Some((*s, is_wait)),
        _ => None,
    }
}

/// Per-instruction open-segment sets for `fid` (empty map when the function
/// has no segment brackets).
fn segment_open_sets(n: &mut Noelle, fid: FuncId) -> HashMap<InstId, BTreeSet<i64>> {
    // First pass (immutable): find the segment universe and block gen/kill.
    let (segs, genb, killb) = {
        let m = n.module();
        let f = m.func(fid);
        let mut segs: Vec<i64> = Vec::new();
        for id in f.inst_ids() {
            if let Some((s, _)) = seg_event(m, f, id) {
                if !segs.contains(&s) {
                    segs.push(s);
                }
            }
        }
        segs.sort_unstable();
        if segs.is_empty() {
            return HashMap::new();
        }
        let idx = |s: i64| segs.iter().position(|&x| x == s).unwrap();
        let mut genb = HashMap::new();
        let mut killb = HashMap::new();
        for &b in f.block_order() {
            let mut gen = BitSet::new(segs.len());
            let mut kill = BitSet::new(segs.len());
            for &id in &f.block(b).insts {
                if let Some((s, is_wait)) = seg_event(m, f, id) {
                    let i = idx(s);
                    if is_wait {
                        gen.insert(i);
                        kill.remove(i);
                    } else {
                        kill.insert(i);
                        gen.remove(i);
                    }
                }
            }
            genb.insert(b, gen);
            killb.insert(b, kill);
        }
        (segs, genb, killb)
    };
    let prob = SegProblem {
        n: segs.len(),
        genb,
        killb,
    };
    let res = n.solve_dataflow(fid, &prob);
    // Second pass: refine block-entry facts to per-instruction sets.
    let m = n.module();
    let f = m.func(fid);
    let mut out = HashMap::new();
    for &b in f.block_order() {
        let mut open: BTreeSet<i64> = match res.inb.get(&b) {
            Some(bits) => segs
                .iter()
                .enumerate()
                .filter(|&(i, _)| bits.contains(i))
                .map(|(_, &s)| s)
                .collect(),
            None => BTreeSet::new(),
        };
        for &id in &f.block(b).insts {
            match seg_event(m, f, id) {
                Some((s, true)) => {
                    open.insert(s);
                }
                Some((s, false)) => {
                    open.remove(&s);
                }
                None => {
                    out.insert(id, open.clone());
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Access classification
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Shape {
    /// A runtime-protocol intrinsic (dispatch, queues, segments, allocators).
    Protocol,
    /// Read through the shared environment pointer (live-ins; read-only).
    EnvRead,
    /// Environment write whose slot index depends on the task id.
    EnvWritePerTask,
    /// Environment write to a task-id-independent slot — shared.
    EnvWriteShared,
    /// All addressed objects are private to this task function.
    Local,
    /// `gep base, iv` with an instance-invariant base and a strided IV.
    Strided { base: Value, class: usize },
    /// Anything else.
    Plain,
}

#[derive(Clone, Debug)]
struct Access {
    write: bool,
    shape: Shape,
    objs: Option<BTreeSet<MemoryObject>>,
    segs: BTreeSet<i64>,
}

/// True when every syntactic root of `ptr` is the environment argument.
fn env_rooted(f: &Function, ptr: Value, depth: u32) -> bool {
    if depth > 16 {
        return false;
    }
    match ptr {
        Value::Arg(0) => true,
        Value::Inst(id) => match f.inst(id) {
            Inst::Gep { base, .. } => env_rooted(f, *base, depth + 1),
            Inst::Cast { val, .. } => env_rooted(f, *val, depth + 1),
            _ => false,
        },
        _ => false,
    }
}

/// True when the operand closure of `v` contains the task-id argument.
fn depends_on_task_id(f: &Function, v: Value, visited: &mut BTreeSet<InstId>) -> bool {
    match v {
        Value::Arg(1) => true,
        Value::Inst(id) => {
            if !visited.insert(id) {
                return false;
            }
            let mut depends = false;
            f.inst(id).for_each_operand(|o| {
                depends = depends || depends_on_task_id(f, o, visited);
            });
            depends
        }
        _ => false,
    }
}

fn classify_ptr(
    m: &Module,
    g: &TaskGroup,
    slots: &BTreeMap<i64, Value>,
    fid: FuncId,
    ptr: Value,
    is_write: bool,
    strided: &StridedInfo,
) -> (Shape, Option<BTreeSet<MemoryObject>>) {
    let f = m.func(fid);
    if env_rooted(f, ptr, 0) {
        if !is_write {
            return (Shape::EnvRead, None);
        }
        // Per-task iff some gep index on the path depends on the task id.
        let per_task = {
            let p = strip_casts(f, ptr);
            match p {
                Value::Inst(id) => match f.inst(id) {
                    Inst::Gep { indices, .. } => indices.iter().any(|&i| {
                        let mut visited = BTreeSet::new();
                        depends_on_task_id(f, i, &mut visited)
                    }),
                    _ => false,
                },
                _ => false,
            }
        };
        return if per_task {
            (Shape::EnvWritePerTask, None)
        } else {
            (Shape::EnvWriteShared, None)
        };
    }
    let objs = resolve_objects(m, g, slots, fid, ptr);
    if let Some(set) = &objs {
        let local = !set.is_empty()
            && set.iter().all(|o| {
                matches!(o, MemoryObject::Alloca(of, _) | MemoryObject::Heap(of, _) if *of == fid)
            });
        if local {
            return (Shape::Local, objs);
        }
    }
    if let Value::Inst(id) = ptr {
        if let Inst::Gep { base, indices, .. } = f.inst(id) {
            if let [Value::Inst(ix)] = indices.as_slice() {
                if let Some(&class) = strided.class_of.get(ix) {
                    if instance_invariant(f, *base, 0) {
                        return (Shape::Strided { base: *base, class }, objs);
                    }
                }
            }
        }
    }
    (Shape::Plain, objs)
}

/// Names that are part of the task runtime protocol rather than user memory
/// traffic.
fn is_protocol_call(name: &str) -> bool {
    name == DISPATCH_INTRINSIC
        || name == QUEUE_CREATE_INTRINSIC
        || name == QUEUE_PUSH_INTRINSIC
        || name == QUEUE_POP_INTRINSIC
        || name == SS_WAIT_INTRINSIC
        || name == SS_SIGNAL_INTRINSIC
        || is_allocator(name)
}

fn build_accesses(
    m: &Module,
    mr: &ModRefSummaries,
    g: &TaskGroup,
    slots: &BTreeMap<i64, Value>,
    fid: FuncId,
    seg_open: &HashMap<InstId, BTreeSet<i64>>,
) -> BTreeMap<InstId, Access> {
    let f = m.func(fid);
    let strided = strided_classes(f);
    let mut out = BTreeMap::new();
    for id in f.inst_ids() {
        let segs = seg_open.get(&id).cloned().unwrap_or_default();
        match f.inst(id) {
            Inst::Load { ptr, .. } => {
                let (shape, objs) = classify_ptr(m, g, slots, fid, *ptr, false, &strided);
                out.insert(
                    id,
                    Access {
                        write: false,
                        shape,
                        objs,
                        segs,
                    },
                );
            }
            Inst::Store { ptr, .. } => {
                let (shape, objs) = classify_ptr(m, g, slots, fid, *ptr, true, &strided);
                out.insert(
                    id,
                    Access {
                        write: true,
                        shape,
                        objs,
                        segs,
                    },
                );
            }
            Inst::Call { callee, .. } => {
                let shape = match callee {
                    Callee::Direct(c) if is_protocol_call(&m.func(*c).name) => Shape::Protocol,
                    _ => Shape::Plain,
                };
                let write = if shape == Shape::Protocol {
                    true
                } else {
                    let r = mr.call_may_read(m, fid, id);
                    let w = mr.call_may_write(m, fid, id) || mr.call_has_side_effects(m, fid, id);
                    if !r && !w {
                        continue;
                    }
                    w
                };
                out.insert(
                    id,
                    Access {
                        write,
                        shape,
                        objs: None,
                        segs,
                    },
                );
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pair judgment
// ---------------------------------------------------------------------------

/// Decide whether an access pair that may run concurrently is provably
/// mediated. Returns `None` when safe, otherwise a short reason fragment.
fn pair_race(
    ax: &Access,
    ay: &Access,
    keys: &[(Value, Value)],
    queue_ordered: bool,
) -> Option<&'static str> {
    if !(ax.write || ay.write) {
        return None;
    }
    let shapes = [&ax.shape, &ay.shape];
    if shapes.iter().any(|s| **s == Shape::Protocol) {
        return None;
    }
    if shapes.iter().any(|s| **s == Shape::Local) {
        return None;
    }
    if shapes.iter().any(|s| **s == Shape::EnvRead) {
        return None;
    }
    if shapes.iter().any(|s| **s == Shape::EnvWritePerTask) {
        return None;
    }
    // A shared-slot environment write races every concurrent instance of
    // itself; report it here so the location is the write.
    if shapes.iter().any(|s| **s == Shape::EnvWriteShared) {
        return Some("a task-id-independent environment slot");
    }
    // Provably distinct objects never collide.
    if let (Some(a), Some(b)) = (&ax.objs, &ay.objs) {
        a.intersection(b).next()?;
    }
    // Same strided residue class over the same base: instances are disjoint
    // as long as the stride is a known nonzero constant.
    if let (
        Shape::Strided {
            base: b1,
            class: c1,
        },
        Shape::Strided {
            base: b2,
            class: c2,
        },
    ) = (&ax.shape, &ay.shape)
    {
        if b1 == b2 && c1 == c2 {
            if let Some((_, Value::Const(Constant::Int(s, _)))) = keys.get(*c1) {
                if *s != 0 {
                    return None;
                }
            }
        }
    }
    // Both accesses inside the same open sequential segment: totally ordered.
    if !ax.segs.is_disjoint(&ay.segs) {
        return None;
    }
    // Connected DSWP stages are ordered by the queue/token chain.
    if queue_ordered {
        return None;
    }
    Some("shared memory")
}

// ---------------------------------------------------------------------------
// The detector
// ---------------------------------------------------------------------------

/// Queue-id environment slots used by `fid` through the given intrinsic.
fn queue_slots(m: &Module, fid: FuncId, intrinsic: &str) -> BTreeSet<i64> {
    let f = m.func(fid);
    let mut out = BTreeSet::new();
    for id in f.inst_ids() {
        let Inst::Call {
            callee: Callee::Direct(c),
            args,
            ..
        } = f.inst(id)
        else {
            continue;
        };
        if m.func(*c).name != intrinsic {
            continue;
        }
        if let Some(&qid) = args.first() {
            if let Some(slot) = loaded_env_slot(f, qid) {
                out.insert(slot);
            }
        }
    }
    out
}

/// Run the race analysis over every dispatch site in the module.
pub fn detect_races(n: &mut Noelle) -> Vec<Finding> {
    n.note(Abstraction::Task);
    n.note(Abstraction::Env);
    let groups = task_groups(n.module());
    if groups.is_empty() {
        return Vec::new();
    }
    // Segment open sets need the DFE and cached CFGs; compute them before
    // the PDG builder borrows the manager.
    let mut seg_open: HashMap<FuncId, HashMap<InstId, BTreeSet<i64>>> = HashMap::new();
    for g in &groups {
        for &mfid in &g.members {
            if let std::collections::hash_map::Entry::Vacant(e) = seg_open.entry(mfid) {
                e.insert(segment_open_sets(n, mfid));
            }
        }
    }
    n.with_pdg(|m, b| {
        let mut findings = Vec::new();
        let mut seen: BTreeSet<((u32, u32), (u32, u32))> = BTreeSet::new();
        let empty = HashMap::new();
        for g in &groups {
            let slots = env_slot_stores(m, g);
            let mut acc: BTreeMap<FuncId, BTreeMap<InstId, Access>> = BTreeMap::new();
            let mut keys: BTreeMap<FuncId, Vec<(Value, Value)>> = BTreeMap::new();
            for &mfid in &g.members {
                let open = seg_open.get(&mfid).unwrap_or(&empty);
                acc.insert(mfid, build_accesses(m, b.modref(), g, &slots, mfid, open));
                keys.insert(mfid, strided_classes(m.func(mfid)).keys);
            }
            let mut report = |fa: FuncId, ia: InstId, fb: FuncId, ib: InstId, why: &str| {
                let mut pair = [(fa.0, ia.0), (fb.0, ib.0)];
                pair.sort_unstable();
                if !seen.insert((pair[0], pair[1])) {
                    return;
                }
                let la = IrLoc::of(m, fa, ia);
                let lb = IrLoc::of(m, fb, ib);
                let (first, second) = if (fa.0, ia.0) <= (fb.0, ib.0) {
                    (la, lb)
                } else {
                    (lb, la)
                };
                let message = if first == second {
                    format!(
                        "possible data race: concurrent task instances of this write touch {why} \
                         without environment, queue, or sequential-segment mediation"
                    )
                } else {
                    format!(
                        "possible data race: this access and {second} touch {why} without \
                         environment, queue, or sequential-segment mediation"
                    )
                };
                let related = if first == second {
                    vec![]
                } else {
                    vec![second]
                };
                findings.push(Finding {
                    code: "NL0001",
                    severity: Severity::Error,
                    loc: first,
                    message,
                    related,
                });
            };
            if g.pipelined {
                let push: Vec<BTreeSet<i64>> = g
                    .members
                    .iter()
                    .map(|&s| queue_slots(m, s, QUEUE_PUSH_INTRINSIC))
                    .collect();
                let pop: Vec<BTreeSet<i64>> = g
                    .members
                    .iter()
                    .map(|&s| queue_slots(m, s, QUEUE_POP_INTRINSIC))
                    .collect();
                let k = g.members.len();
                let mut reach = vec![vec![false; k]; k];
                for i in 0..k {
                    for j in 0..k {
                        reach[i][j] = i != j && push[i].intersection(&pop[j]).next().is_some();
                    }
                }
                for via in 0..k {
                    for i in 0..k {
                        for j in 0..k {
                            reach[i][j] = reach[i][j] || (reach[i][via] && reach[via][j]);
                        }
                    }
                }
                for (i, &fa) in g.members.iter().enumerate() {
                    for (j, &fb) in g.members.iter().enumerate().skip(i + 1) {
                        let ordered = reach[i][j] || reach[j][i];
                        for e in b.cross_function_memory_edges(fa, fb) {
                            let (ia, ib) = (e.src.1, e.dst.1);
                            let (Some(ax), Some(ay)) = (acc[&fa].get(&ia), acc[&fb].get(&ib))
                            else {
                                continue;
                            };
                            if let Some(why) = pair_race(ax, ay, &[], ordered) {
                                report(fa, ia, fb, ib, why);
                            }
                        }
                    }
                }
            } else {
                let mfid = g.members[0];
                let accesses = &acc[&mfid];
                let class_keys = &keys[&mfid];
                let pdg = b.function_pdg(mfid);
                let mut pairs: BTreeSet<(InstId, InstId)> = BTreeSet::new();
                for e in pdg.edges() {
                    if !(e.attrs.memory && e.attrs.is_data()) {
                        continue;
                    }
                    let (lo, hi) = if e.src <= e.dst {
                        (e.src, e.dst)
                    } else {
                        (e.dst, e.src)
                    };
                    pairs.insert((lo, hi));
                }
                // The function PDG has no self-edges, but a shared write
                // races the same write in a sibling instance.
                for (&id, a) in accesses {
                    if a.write {
                        pairs.insert((id, id));
                    }
                }
                for (ia, ib) in pairs {
                    let (Some(ax), Some(ay)) = (accesses.get(&ia), accesses.get(&ib)) else {
                        continue;
                    };
                    if let Some(why) = pair_race(ax, ay, class_keys, false) {
                        report(mfid, ia, mfid, ib, why);
                    }
                }
            }
        }
        findings
    })
}
