//! The discrete-event simulated machine and IR interpreter.
//!
//! Every *task* (the main program, and each task dispatched by a
//! parallelized loop) runs on a simulated core with its own virtual clock.
//! The scheduler always steps the runnable task with the smallest clock, so
//! cross-task interactions (queues, sequential segments, joins) observe a
//! consistent global virtual time, and the final makespan is the parallel
//! execution time the Figure 5 experiments report.

use crate::memory::{
    decode_func_ptr, encode_func_ptr, DepTracer, MemError, Memory, ObservedDep, RtVal,
    TypeConfusion,
};
use noelle_core::architecture::{external_cost, inst_cost, Architecture};
use noelle_core::profiler::Profiles;
use noelle_ir::inst::{Callee, Inst, InstId, Terminator};
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_ir::types::{FloatWidth, IntWidth, Type};
use noelle_ir::value::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// Memory access outside any allocation.
    MemoryFault(String),
    /// A `carat.guard` rejected an address.
    GuardFault(String),
    /// Call to an unknown external function.
    UnknownExternal(String),
    /// The configured step budget was exhausted (runaway loop).
    StepLimit,
    /// All tasks blocked with none runnable.
    Deadlock,
    /// Malformed program reached at runtime (missing function, bad indirect
    /// call target, `unreachable` executed...).
    Trap(String),
    /// A value had the wrong payload kind for the operation applied to it
    /// (e.g. a float where an integer was required). Reported as an error so
    /// differential testing can diagnose miscompiles instead of aborting.
    TypeConfusion(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::MemoryFault(s) => write!(f, "memory fault: {s}"),
            RtError::GuardFault(s) => write!(f, "guard fault: {s}"),
            RtError::UnknownExternal(s) => write!(f, "unknown external function '{s}'"),
            RtError::StepLimit => write!(f, "step limit exceeded"),
            RtError::Deadlock => write!(f, "deadlock: all tasks blocked"),
            RtError::Trap(s) => write!(f, "trap: {s}"),
            RtError::TypeConfusion(s) => write!(f, "type confusion: {s}"),
        }
    }
}

impl Error for RtError {}

impl From<TypeConfusion> for RtError {
    fn from(tc: TypeConfusion) -> RtError {
        RtError::TypeConfusion(tc.to_string())
    }
}

/// Configuration of a run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The simulated machine.
    pub arch: Architecture,
    /// Collect block/invocation profiles during the run.
    pub collect_profiles: bool,
    /// Maximum interpreted instructions across all tasks.
    pub max_steps: u64,
    /// Record runtime producer→consumer memory dependences (see
    /// [`DepTracer`]); they come back in [`RunResult::observed_deps`].
    pub trace_deps: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            arch: Architecture::default_machine(),
            collect_profiles: false,
            max_steps: 200_000_000,
            trace_deps: false,
        }
    }
}

/// Result of a completed run.
#[derive(Debug)]
pub struct RunResult {
    /// Return value of the entry function.
    pub ret: Option<RtVal>,
    /// Virtual cycles elapsed on the entry task (the makespan: dispatchers
    /// join their children before returning).
    pub cycles: u64,
    /// Total interpreted instructions across all tasks.
    pub dyn_insts: u64,
    /// Profiles collected (empty unless requested).
    pub profiles: Profiles,
    /// Text emitted through `print_i64`/`print_f64`, in virtual-time order.
    pub output: Vec<String>,
    /// Intrinsic counters: `"guards"`, `"callbacks"`, `"queue_ops"`,
    /// `"tasks"`, `"max_callback_gap"`, ... and where the dispatches'
    /// cycles went, summed over dispatches: `"dispatch.cycles"` from the
    /// dispatch to the end of its join, of which `"dispatch.spawn_cycles"`
    /// passed before the last task started and `"dispatch.join_cycles"`
    /// between the last child's end and the parent seeing it.
    pub counters: BTreeMap<String, u64>,
    /// Runtime-observed memory dependences, in canonical order (empty unless
    /// [`RunConfig::trace_deps`] was set).
    pub observed_deps: Vec<ObservedDep>,
    /// Digest of the globals region of final memory (differential-testing
    /// fingerprint; heap layout legitimately differs across transforms).
    pub globals_digest: u64,
}

impl RunResult {
    /// The return value as an integer, when present.
    pub fn ret_i64(&self) -> Option<i64> {
        match self.ret {
            Some(RtVal::I(v)) => Some(v),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    args: Vec<RtVal>,
    regs: HashMap<InstId, RtVal>,
    block: BlockId,
    prev_block: Option<BlockId>,
    inst_idx: usize,
    /// Instruction in the caller's frame that receives the return value.
    ret_to: Option<InstId>,
}

#[derive(Debug, Clone, PartialEq)]
enum TaskState {
    Runnable,
    BlockedPop(i64),
    BlockedPush(i64, i64),
    BlockedSeg(i64, i64),
    BlockedJoin(Vec<usize>),
    Done(Option<RtVal>),
}

#[derive(Debug)]
struct TaskCtx {
    core: usize,
    clock: u64,
    /// Sub-cycle remainder so fractional clock scaling accumulates exactly.
    clock_frac: f64,
    clock_scale: f64,
    frames: Vec<Frame>,
    state: TaskState,
    last_callback: Option<u64>,
}

#[derive(Debug, Default)]
struct QueueState {
    items: VecDeque<(i64, u64, usize)>, // value, ready time, producer core
    capacity: usize,
}

#[derive(Debug, Default)]
struct SegState {
    count: i64,
    last_time: u64,
    last_core: usize,
}

struct Machine<'m> {
    module: &'m Module,
    mem: Memory,
    tasks: Vec<TaskCtx>,
    queues: Vec<QueueState>,
    segments: HashMap<i64, SegState>,
    prv_states: HashMap<i64, u64>,
    config: RunConfig,
    profiles: Profiles,
    output: Vec<String>,
    counters: BTreeMap<String, u64>,
    steps: u64,
    tracer: Option<DepTracer>,
}

/// Execute `entry(args)` in `m` under `config`.
///
/// # Errors
/// Returns [`RtError`] on traps, deadlocks, unknown externals, or step-limit
/// exhaustion.
pub fn run_module(
    m: &Module,
    entry: &str,
    args: &[RtVal],
    config: &RunConfig,
) -> Result<RunResult, RtError> {
    let entry_fid = m
        .func_id_by_name(entry)
        .ok_or_else(|| RtError::Trap(format!("no function named '{entry}'")))?;
    if m.func(entry_fid).is_declaration() {
        return Err(RtError::Trap(format!("'{entry}' is a declaration")));
    }
    let mut machine = Machine {
        module: m,
        mem: Memory::new(m),
        tasks: Vec::new(),
        queues: Vec::new(),
        segments: HashMap::new(),
        prv_states: HashMap::new(),
        config: config.clone(),
        profiles: Profiles::default(),
        output: Vec::new(),
        counters: BTreeMap::new(),
        steps: 0,
        tracer: config.trace_deps.then(DepTracer::default),
    };
    machine.spawn_task(entry_fid, args.to_vec(), 0, 0);
    machine.run()?;
    let globals_digest = machine.mem.globals_digest();
    let observed_deps = machine
        .tracer
        .take()
        .map(DepTracer::into_observed)
        .unwrap_or_default();
    let main = &machine.tasks[0];
    let ret = match &main.state {
        TaskState::Done(v) => *v,
        other => return Err(RtError::Trap(format!("main task ended in state {other:?}"))),
    };
    Ok(RunResult {
        ret,
        cycles: main.clock,
        dyn_insts: machine.steps,
        profiles: machine.profiles,
        output: machine.output,
        counters: machine.counters,
        observed_deps,
        globals_digest,
    })
}

impl<'m> Machine<'m> {
    fn bump_counter(&mut self, key: &str, by: u64) {
        *self.counters.entry(key.to_string()).or_default() += by;
    }

    fn spawn_task(&mut self, func: FuncId, args: Vec<RtVal>, core: usize, clock: u64) -> usize {
        let f = self.module.func(func);
        let entry = f.entry();
        if self.config.collect_profiles {
            self.profiles.record_invocation(&f.name.clone());
            self.profiles.record_block(&f.name.clone(), entry, 1);
        }
        let tid = self.tasks.len();
        self.tasks.push(TaskCtx {
            core,
            clock,
            clock_frac: 0.0,
            clock_scale: 1.0,
            frames: vec![Frame {
                func,
                args,
                regs: HashMap::new(),
                block: entry,
                prev_block: None,
                inst_idx: 0,
                ret_to: None,
            }],
            state: TaskState::Runnable,
            last_callback: None,
        });
        tid
    }

    /// True if a blocked task can make progress now.
    fn is_ready(&self, tid: usize) -> bool {
        match &self.tasks[tid].state {
            TaskState::Runnable => true,
            TaskState::BlockedPop(q) => !self.queues[*q as usize].items.is_empty(),
            TaskState::BlockedPush(q, _) => {
                let qs = &self.queues[*q as usize];
                qs.items.len() < qs.capacity
            }
            TaskState::BlockedSeg(seg, iter) => {
                self.segments.get(seg).map(|s| s.count).unwrap_or(0) >= *iter
            }
            TaskState::BlockedJoin(kids) => kids
                .iter()
                .all(|&k| matches!(self.tasks[k].state, TaskState::Done(_))),
            TaskState::Done(_) => false,
        }
    }

    fn run(&mut self) -> Result<(), RtError> {
        loop {
            // Pick the ready task with the smallest clock.
            let mut best: Option<usize> = None;
            let mut all_done = true;
            for tid in 0..self.tasks.len() {
                if !matches!(self.tasks[tid].state, TaskState::Done(_)) {
                    all_done = false;
                }
                if self.is_ready(tid) {
                    best = match best {
                        None => Some(tid),
                        Some(b) if self.tasks[tid].clock < self.tasks[b].clock => Some(tid),
                        keep => keep,
                    };
                }
            }
            if all_done {
                return Ok(());
            }
            let Some(tid) = best else {
                return Err(RtError::Deadlock);
            };
            self.resume_if_blocked(tid);
            self.step(tid)?;
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return Err(RtError::StepLimit);
            }
        }
    }

    /// Complete a pending blocked operation whose condition is now true.
    fn resume_if_blocked(&mut self, tid: usize) {
        let state = self.tasks[tid].state.clone();
        match state {
            TaskState::BlockedPop(q) => {
                let (v, ready, producer) = self.queues[q as usize]
                    .items
                    .pop_front()
                    .expect("scheduler checked readiness");
                let arch = &self.config.arch;
                let t = &mut self.tasks[tid];
                t.clock = arch.arrival(t.clock, ready, producer, t.core) + arch.queue_op_cost;
                // Deliver: the pop call instruction is the previous one.
                let frame = t.frames.last_mut().expect("live frame");
                let call_inst = frame.pending_result_inst();
                frame.regs.insert(call_inst, RtVal::I(v));
                t.state = TaskState::Runnable;
            }
            TaskState::BlockedPush(q, v) => {
                let (core, clock) = {
                    let t = &self.tasks[tid];
                    (t.core, t.clock)
                };
                self.queues[q as usize].items.push_back((v, clock, core));
                let t = &mut self.tasks[tid];
                t.clock += self.config.arch.queue_op_cost;
                t.state = TaskState::Runnable;
            }
            TaskState::BlockedSeg(seg, _) => {
                let s = &self.segments[&seg];
                let t = &mut self.tasks[tid];
                t.clock = self
                    .config
                    .arch
                    .arrival(t.clock, s.last_time, s.last_core, t.core);
                t.state = TaskState::Runnable;
            }
            TaskState::BlockedJoin(kids) => {
                // The parent's clock has stood at the dispatch since.
                let (my_core, base) = (self.tasks[tid].core, self.tasks[tid].clock);
                let arch = &self.config.arch;
                let (mut end, mut last_child) = (base, base);
                for k in kids.iter().map(|&k| &self.tasks[k]) {
                    end = arch.arrival(end, k.clock, k.core, my_core);
                    last_child = last_child.max(k.clock);
                }
                let spawn = arch.spawn_clock(kids.len() - 1);
                self.bump_counter("dispatch.cycles", end - base);
                self.bump_counter("dispatch.spawn_cycles", spawn);
                self.bump_counter("dispatch.join_cycles", end - last_child);
                let t = &mut self.tasks[tid];
                t.clock = end;
                t.state = TaskState::Runnable;
            }
            _ => {}
        }
    }

    fn eval(&self, tid: usize, v: Value) -> RtVal {
        let frame = self.tasks[tid].frames.last().expect("live frame");
        match v {
            Value::Const(c) => RtVal::from_const(&c),
            Value::Arg(i) => frame.args[i as usize],
            Value::Inst(id) => *frame.regs.get(&id).unwrap_or(&RtVal::I(0)), // undef reads yield 0 deterministically
            Value::Global(g) => RtVal::I(self.mem.global_addr(g)),
            Value::Func(f) => RtVal::I(encode_func_ptr(f)),
        }
    }

    fn charge(&mut self, tid: usize, cycles: u64) {
        let t = &mut self.tasks[tid];
        let exact = cycles as f64 * t.clock_scale + t.clock_frac;
        let whole = exact.floor();
        t.clock_frac = exact - whole;
        t.clock += whole as u64;
    }

    /// Transfer control of `tid`'s top frame to `target`, running phi moves.
    fn branch_to(&mut self, tid: usize, target: BlockId) {
        let func = self.tasks[tid].frames.last().expect("frame").func;
        let f = self.module.func(func);
        if self.config.collect_profiles {
            let name = f.name.clone();
            self.profiles.record_block(&name, target, 1);
        }
        let cur = self.tasks[tid].frames.last().expect("frame").block;
        // Batch-evaluate phis (parallel-copy semantics).
        let phis = f.phis(target);
        let mut writes: Vec<(InstId, RtVal)> = Vec::new();
        for phi in phis {
            if let Inst::Phi { incomings, .. } = f.inst(phi) {
                if let Some((_, v)) = incomings.iter().find(|(b, _)| *b == cur) {
                    writes.push((phi, self.eval(tid, *v)));
                }
            }
        }
        let frame = self.tasks[tid].frames.last_mut().expect("frame");
        frame.prev_block = Some(frame.block);
        frame.block = target;
        frame.inst_idx = 0;
        for (phi, v) in writes {
            frame.regs.insert(phi, v);
        }
        // Skip the phi instructions; their effect is applied.
        let f = self.module.func(func);
        let nphis = f.phis(target).len();
        self.tasks[tid].frames.last_mut().expect("frame").inst_idx = nphis;
    }

    fn step(&mut self, tid: usize) -> Result<(), RtError> {
        let (func, block, idx) = {
            let frame = self.tasks[tid].frames.last().expect("live frame");
            (frame.func, frame.block, frame.inst_idx)
        };
        let f = self.module.func(func);
        let inst_id = *f
            .block(block)
            .insts
            .get(idx)
            .ok_or_else(|| RtError::Trap(format!("fell off block {block} in @{}", f.name)))?;
        let inst = f.inst(inst_id).clone();
        self.charge(tid, inst_cost(&inst));

        match inst {
            Inst::Alloca { ty, count } => {
                let n = self.eval(tid, count).try_i()?.max(0);
                let addr = self.mem.bump(ty.size_bytes() as i64 * n);
                self.write_reg(tid, inst_id, RtVal::I(addr));
                self.advance(tid);
            }
            Inst::Load { ty, ptr } => {
                let addr = self.eval(tid, ptr).try_i()?;
                let v = self
                    .mem
                    .read_scalar(addr, &ty)
                    .ok_or_else(|| RtError::MemoryFault(format!("load {ty} at {addr:#x}")))?;
                if let Some(tracer) = &mut self.tracer {
                    tracer.record_load(func, inst_id, addr, ty.size_bytes() as i64);
                }
                self.write_reg(tid, inst_id, v);
                self.advance(tid);
            }
            Inst::Store { val, ptr, ty } => {
                let addr = self.eval(tid, ptr).try_i()?;
                let v = self.eval(tid, val);
                self.mem.write_scalar(addr, &ty, v).map_err(|e| match e {
                    MemError::OutOfBounds => {
                        RtError::MemoryFault(format!("store {ty} at {addr:#x}"))
                    }
                    MemError::Type(tc) => RtError::from(tc),
                })?;
                if let Some(tracer) = &mut self.tracer {
                    tracer.record_store(func, inst_id, addr, ty.size_bytes() as i64);
                }
                self.advance(tid);
            }
            Inst::Gep {
                base,
                base_ty,
                indices,
            } => {
                let mut addr = self.eval(tid, base).try_i()?;
                let mut ty = base_ty;
                for (k, idx) in indices.iter().enumerate() {
                    let iv = self.eval(tid, *idx).try_i()?;
                    if k == 0 {
                        addr += iv * ty.size_bytes() as i64;
                    } else {
                        match &ty {
                            Type::Array(elem, _) => {
                                addr += iv * elem.size_bytes() as i64;
                                ty = (**elem).clone();
                            }
                            Type::Struct(_) => {
                                addr += ty
                                    .struct_field_offset(iv as usize)
                                    .ok_or_else(|| RtError::Trap("bad struct gep".into()))?
                                    as i64;
                                ty = ty
                                    .indexed(Some(iv as usize))
                                    .ok_or_else(|| RtError::Trap("bad struct gep".into()))?
                                    .clone();
                            }
                            other => {
                                addr += iv * other.size_bytes() as i64;
                            }
                        }
                    }
                }
                self.write_reg(tid, inst_id, RtVal::I(addr));
                self.advance(tid);
            }
            Inst::Bin { op, ty, lhs, rhs } => {
                let v = self.eval_bin(tid, op, &ty, lhs, rhs)?;
                self.write_reg(tid, inst_id, v);
                self.advance(tid);
            }
            Inst::Icmp { pred, lhs, rhs, .. } => {
                use noelle_ir::inst::IcmpPred as P;
                let a = self.eval(tid, lhs).try_i()?;
                let b = self.eval(tid, rhs).try_i()?;
                let r = match pred {
                    P::Eq => a == b,
                    P::Ne => a != b,
                    P::Slt => a < b,
                    P::Sle => a <= b,
                    P::Sgt => a > b,
                    P::Sge => a >= b,
                    P::Ult => (a as u64) < b as u64,
                    P::Ule => (a as u64) <= b as u64,
                    P::Ugt => (a as u64) > b as u64,
                    P::Uge => (a as u64) >= b as u64,
                };
                self.write_reg(tid, inst_id, RtVal::I(r as i64));
                self.advance(tid);
            }
            Inst::Fcmp { pred, lhs, rhs, .. } => {
                use noelle_ir::inst::FcmpPred as P;
                let a = self.eval(tid, lhs).try_f()?;
                let b = self.eval(tid, rhs).try_f()?;
                let r = match pred {
                    P::Oeq => a == b,
                    P::One => a != b,
                    P::Olt => a < b,
                    P::Ole => a <= b,
                    P::Ogt => a > b,
                    P::Oge => a >= b,
                };
                self.write_reg(tid, inst_id, RtVal::I(r as i64));
                self.advance(tid);
            }
            Inst::Cast { op, from, to, val } => {
                use noelle_ir::inst::CastOp as C;
                let v = self.eval(tid, val);
                let r = match op {
                    C::Zext => {
                        let bits = match &from {
                            Type::Int(w) => w.bits(),
                            _ => 64,
                        };
                        let mask = if bits >= 64 {
                            -1i64
                        } else {
                            (1i64 << bits) - 1
                        };
                        RtVal::I(v.try_i()? & mask)
                    }
                    C::Sext => RtVal::I(v.try_i()?),
                    C::Trunc => {
                        let w = match &to {
                            Type::Int(w) => *w,
                            _ => IntWidth::I64,
                        };
                        RtVal::I(w.truncate(v.try_i()?))
                    }
                    C::Bitcast => match (&from, &to) {
                        (Type::Float(FloatWidth::F64), Type::Int(IntWidth::I64)) => {
                            RtVal::I(v.try_f()?.to_bits() as i64)
                        }
                        (Type::Int(IntWidth::I64), Type::Float(FloatWidth::F64)) => {
                            RtVal::F(f64::from_bits(v.try_i()? as u64))
                        }
                        _ => v,
                    },
                    C::PtrToInt | C::IntToPtr => v,
                    C::SiToFp => RtVal::F(v.try_i()? as f64),
                    C::FpToSi => RtVal::I(v.try_f()? as i64),
                    C::FpExt => v,
                    C::FpTrunc => RtVal::F(v.try_f()? as f32 as f64),
                };
                self.write_reg(tid, inst_id, r);
                self.advance(tid);
            }
            Inst::Select {
                cond, tval, fval, ..
            } => {
                let c = self.eval(tid, cond).try_i()? != 0;
                let v = if c {
                    self.eval(tid, tval)
                } else {
                    self.eval(tid, fval)
                };
                self.write_reg(tid, inst_id, v);
                self.advance(tid);
            }
            Inst::Phi { .. } => {
                // Phi already applied by branch_to; simply advance (covers
                // the entry block which cannot have phis anyway).
                self.advance(tid);
            }
            Inst::Call {
                callee,
                args,
                ret_ty,
            } => {
                let target = match &callee {
                    Callee::Direct(fid) => *fid,
                    Callee::Indirect(fp) => {
                        let addr = self.eval(tid, *fp).try_i()?;
                        decode_func_ptr(addr).ok_or_else(|| {
                            RtError::Trap(format!("indirect call to non-function {addr:#x}"))
                        })?
                    }
                };
                let argv: Vec<RtVal> = args.iter().map(|&a| self.eval(tid, a)).collect();
                let callee_f = self.module.func(target);
                if callee_f.is_declaration() {
                    let name = callee_f.name.clone();
                    self.call_external(tid, inst_id, &name, &argv, &ret_ty)?;
                } else {
                    if self.config.collect_profiles {
                        let name = callee_f.name.clone();
                        let entry = callee_f.entry();
                        self.profiles.record_invocation(&name);
                        self.profiles.record_block(&name, entry, 1);
                    }
                    // Push the callee frame; the caller resumes after it.
                    let entry = callee_f.entry();
                    self.tasks[tid].frames.last_mut().expect("frame").inst_idx += 1;
                    self.tasks[tid].frames.push(Frame {
                        func: target,
                        args: argv,
                        regs: HashMap::new(),
                        block: entry,
                        prev_block: None,
                        inst_idx: 0,
                        ret_to: Some(inst_id),
                    });
                }
            }
            Inst::Term(t) => match t {
                Terminator::Ret(v) => {
                    let rv = v.map(|x| self.eval(tid, x));
                    let frame = self.tasks[tid].frames.pop().expect("frame");
                    if self.tasks[tid].frames.is_empty() {
                        self.tasks[tid].state = TaskState::Done(rv);
                    } else if let (Some(dst), Some(val)) = (frame.ret_to, rv) {
                        self.write_reg(tid, dst, val);
                    }
                }
                Terminator::Br(b) => self.branch_to(tid, b),
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.eval(tid, cond).try_i()? != 0;
                    if self.config.collect_profiles {
                        let name = self.module.func(func).name.clone();
                        self.profiles.record_branch(&name, block, c);
                    }
                    self.branch_to(tid, if c { then_bb } else { else_bb });
                }
                Terminator::Switch {
                    value,
                    default,
                    cases,
                } => {
                    let v = self.eval(tid, value).try_i()?;
                    let target = cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(default);
                    self.branch_to(tid, target);
                }
                Terminator::Unreachable => {
                    return Err(RtError::Trap(format!(
                        "unreachable executed in @{}",
                        self.module.func(func).name
                    )))
                }
            },
        }
        Ok(())
    }

    fn eval_bin(
        &mut self,
        tid: usize,
        op: noelle_ir::inst::BinOp,
        ty: &Type,
        lhs: Value,
        rhs: Value,
    ) -> Result<RtVal, RtError> {
        use noelle_ir::inst::BinOp as B;
        if op.is_float_op() {
            let a = self.eval(tid, lhs).try_f()?;
            let b = self.eval(tid, rhs).try_f()?;
            let r = match op {
                B::FAdd => a + b,
                B::FSub => a - b,
                B::FMul => a * b,
                B::FDiv => a / b,
                B::FMax => a.max(b),
                B::FMin => a.min(b),
                _ => unreachable!("is_float_op"),
            };
            return Ok(RtVal::F(if matches!(ty, Type::Float(FloatWidth::F32)) {
                r as f32 as f64
            } else {
                r
            }));
        }
        let a = self.eval(tid, lhs).try_i()?;
        let b = self.eval(tid, rhs).try_i()?;
        let w = match ty {
            Type::Int(w) => *w,
            _ => IntWidth::I64,
        };
        let r = match op {
            B::Add => a.wrapping_add(b),
            B::Sub => a.wrapping_sub(b),
            B::Mul => a.wrapping_mul(b),
            B::Div => {
                if b == 0 {
                    return Err(RtError::Trap("integer division by zero".into()));
                }
                a.wrapping_div(b)
            }
            B::Rem => {
                if b == 0 {
                    return Err(RtError::Trap("integer remainder by zero".into()));
                }
                a.wrapping_rem(b)
            }
            B::And => a & b,
            B::Or => a | b,
            B::Xor => a ^ b,
            B::Shl => a.wrapping_shl(b as u32 & 63),
            B::AShr => a.wrapping_shr(b as u32 & 63),
            B::LShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
            B::SMax => a.max(b),
            B::SMin => a.min(b),
            _ => unreachable!("int op"),
        };
        Ok(RtVal::I(w.truncate(r)))
    }

    fn write_reg(&mut self, tid: usize, inst: InstId, v: RtVal) {
        self.tasks[tid]
            .frames
            .last_mut()
            .expect("frame")
            .regs
            .insert(inst, v);
    }

    fn advance(&mut self, tid: usize) {
        self.tasks[tid].frames.last_mut().expect("frame").inst_idx += 1;
    }

    fn xorshift(&mut self, gen: i64) -> i64 {
        let s = self
            .prv_states
            .entry(gen)
            .or_insert(0x9E3779B97F4A7C15 ^ gen as u64);
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        (x >> 1) as i64
    }

    fn call_external(
        &mut self,
        tid: usize,
        inst_id: InstId,
        name: &str,
        args: &[RtVal],
        _ret_ty: &Type,
    ) -> Result<(), RtError> {
        self.charge(tid, external_cost(name));
        let arg_i = |i: usize| -> Result<i64, RtError> {
            match args.get(i) {
                Some(v) => v.try_i().map_err(RtError::from),
                None => Ok(0),
            }
        };
        let arg_f = |i: usize| -> Result<f64, RtError> {
            match args.get(i) {
                Some(v) => v.try_f().map_err(RtError::from),
                None => Ok(0.0),
            }
        };
        match name {
            "malloc" => {
                let p = self.mem.bump(arg_i(0)?);
                self.write_reg(tid, inst_id, RtVal::I(p));
            }
            "calloc" => {
                let p = self.mem.bump(arg_i(0)? * arg_i(1)?.max(1));
                self.write_reg(tid, inst_id, RtVal::I(p));
            }
            "free" => {}
            "print_i64" => {
                self.output.push(format!("{}", arg_i(0)?));
            }
            "print_f64" => {
                self.output.push(format!("{:.6}", arg_f(0)?));
            }
            "sqrt" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.sqrt())),
            "sin" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.sin())),
            "cos" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.cos())),
            "tan" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.tan())),
            "exp" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.exp())),
            "log" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.max(1e-300).ln())),
            "pow" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.powf(arg_f(1)?))),
            "fabs" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.abs())),
            "floor" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.floor())),
            "ceil" => self.write_reg(tid, inst_id, RtVal::F(arg_f(0)?.ceil())),
            // PRVG families: identical deterministic streams, different cost.
            "prv.mt.next" | "prv.lcg.next" | "prv.xs.next" => {
                let v = self.xorshift(arg_i(0)?);
                self.bump_counter("prv_calls", 1);
                self.write_reg(tid, inst_id, RtVal::I(v));
            }
            "carat.guard" => {
                self.bump_counter("guards", 1);
                let addr = arg_i(0)?;
                let len = arg_i(1)?.max(1);
                if !self.mem.in_bounds(addr, len) {
                    return Err(RtError::GuardFault(format!(
                        "guard rejected [{addr:#x}; {len})"
                    )));
                }
            }
            "coos.callback" => {
                self.bump_counter("callbacks", 1);
                let now = self.tasks[tid].clock;
                if let Some(prev) = self.tasks[tid].last_callback {
                    let gap = now.saturating_sub(prev);
                    let cur = self.counters.get("max_callback_gap").copied().unwrap_or(0);
                    if gap > cur {
                        self.counters.insert("max_callback_gap".to_string(), gap);
                    }
                }
                self.tasks[tid].last_callback = Some(now);
            }
            "clock.set" => {
                let pct = arg_i(0)?.clamp(50, 200) as f64;
                self.tasks[tid].clock_scale = pct / 100.0;
                self.bump_counter("clock_sets", 1);
            }
            "noelle.queue.create" => {
                let qid = self.queues.len() as i64;
                self.queues.push(QueueState {
                    items: VecDeque::new(),
                    capacity: arg_i(0)?.max(1) as usize,
                });
                self.bump_counter("queues", 1);
                self.write_reg(tid, inst_id, RtVal::I(qid));
            }
            "noelle.queue.push" => {
                self.bump_counter("queue_ops", 1);
                let q = arg_i(0)?;
                let v = arg_i(1)?;
                let qs = self
                    .queues
                    .get(q as usize)
                    .ok_or_else(|| RtError::Trap(format!("push to unknown queue {q}")))?;
                if qs.items.len() < qs.capacity {
                    let (core, clock) = (self.tasks[tid].core, self.tasks[tid].clock);
                    self.queues[q as usize].items.push_back((v, clock, core));
                    self.charge(tid, self.config.arch.queue_op_cost);
                } else {
                    self.tasks[tid].state = TaskState::BlockedPush(q, v);
                }
            }
            "noelle.queue.pop" => {
                self.bump_counter("queue_ops", 1);
                let q = arg_i(0)?;
                if self
                    .queues
                    .get(q as usize)
                    .ok_or_else(|| RtError::Trap(format!("pop from unknown queue {q}")))?
                    .items
                    .is_empty()
                {
                    self.tasks[tid].state = TaskState::BlockedPop(q);
                    // The result is delivered by resume_if_blocked; remember
                    // which instruction wants it via pending_result_inst.
                    self.tasks[tid]
                        .frames
                        .last_mut()
                        .expect("frame")
                        .set_pending_result(inst_id);
                } else {
                    let (v, ready, producer) = self.queues[q as usize]
                        .items
                        .pop_front()
                        .expect("non-empty");
                    let arch = &self.config.arch;
                    let t = &mut self.tasks[tid];
                    t.clock = arch.arrival(t.clock, ready, producer, t.core) + arch.queue_op_cost;
                    self.write_reg(tid, inst_id, RtVal::I(v));
                }
            }
            "noelle.ss.wait" => {
                let seg = arg_i(0)?;
                let iter = arg_i(1)?;
                let count = self.segments.entry(seg).or_default().count;
                if count >= iter {
                    if iter > 0 {
                        let s = &self.segments[&seg];
                        let t = &mut self.tasks[tid];
                        t.clock =
                            self.config
                                .arch
                                .arrival(t.clock, s.last_time, s.last_core, t.core);
                    }
                } else {
                    self.tasks[tid].state = TaskState::BlockedSeg(seg, iter);
                }
            }
            "noelle.ss.signal" => {
                let seg = arg_i(0)?;
                let (core, clock) = (self.tasks[tid].core, self.tasks[tid].clock);
                let s = self.segments.entry(seg).or_default();
                s.count += 1;
                s.last_time = clock;
                s.last_core = core;
            }
            "noelle.task.dispatch" => {
                // Sequential-segment state is per parallel region; the
                // dispatcher joins its children before returning, so a fresh
                // region must not observe stale signal counts.
                self.segments.clear();
                let fp = arg_i(0)?;
                let env = arg_i(1)?;
                let n = arg_i(2)?.max(1) as usize;
                let target = decode_func_ptr(fp)
                    .ok_or_else(|| RtError::Trap("dispatch of non-function".into()))?;
                self.bump_counter("tasks", n as u64);
                let base_clock = self.tasks[tid].clock;
                let mut kids = Vec::new();
                for i in 0..n {
                    let core = self.config.arch.task_core(i);
                    let clock = base_clock + self.config.arch.spawn_clock(i);
                    let kid = self.spawn_task(
                        target,
                        vec![RtVal::I(env), RtVal::I(i as i64), RtVal::I(n as i64)],
                        core,
                        clock,
                    );
                    kids.push(kid);
                }
                self.tasks[tid].state = TaskState::BlockedJoin(kids);
            }
            other => return Err(RtError::UnknownExternal(other.to_string())),
        }
        // Blocked intrinsics must re-run semantics on resume; everything else
        // completes now.
        if matches!(self.tasks[tid].state, TaskState::Runnable) {
            self.advance(tid);
        } else {
            // The call completes when unblocked; move past it so resumption
            // continues with the next instruction.
            self.advance(tid);
        }
        Ok(())
    }
}

impl Frame {
    fn set_pending_result(&mut self, inst: InstId) {
        self.regs.insert(PENDING_KEY, RtVal::I(inst.0 as i64));
    }

    fn pending_result_inst(&self) -> InstId {
        InstId(
            self.regs
                .get(&PENDING_KEY)
                .map(|v| match v {
                    RtVal::I(x) => *x as u32,
                    RtVal::F(_) => 0,
                })
                .unwrap_or(0),
        )
    }
}

/// Sentinel register key for pending blocked-pop results.
const PENDING_KEY: InstId = InstId(u32::MAX - 3);

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::parser::parse_module;

    fn run_src(src: &str) -> RunResult {
        let m = parse_module(src).expect("parses");
        noelle_ir::verifier::verify_module(&m).expect("verifies");
        run_module(&m, "main", &[], &RunConfig::default()).expect("runs")
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = run_src(
            r#"
module "t" {
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 10
  condbr %c, body, exit
body:
  %s2 = add i64 %s, %i
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#,
        );
        assert_eq!(r.ret_i64(), Some(45));
        assert!(r.cycles > 50);
        assert!(r.dyn_insts > 50);
    }

    #[test]
    fn memory_and_calls() {
        let r = run_src(
            r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @sumto(i64* %a, i64 %n) {
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
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 80)
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  store i64 %i, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 10
  condbr %c, fill, done
done:
  %s = call i64 @sumto(%buf, i64 10)
  ret %s
}
}
"#,
        );
        assert_eq!(r.ret_i64(), Some(45));
    }

    #[test]
    fn floats_and_externals() {
        let r = run_src(
            r#"
module "t" {
declare f64 @sqrt(f64 %x)
define i64 @main() {
entry:
  %x = call f64 @sqrt(f64 16.0)
  %y = fmul f64 %x, f64 2.5
  %i = fptosi f64 %y to i64
  ret %i
}
}
"#,
        );
        assert_eq!(r.ret_i64(), Some(10));
    }

    #[test]
    fn output_collection() {
        let r = run_src(
            r#"
module "t" {
declare void @print_i64(i64 %v)
define i64 @main() {
entry:
  call void @print_i64(i64 7)
  call void @print_i64(i64 8)
  ret i64 0
}
}
"#,
        );
        assert_eq!(r.output, vec!["7", "8"]);
    }

    #[test]
    fn null_load_faults() {
        let m = parse_module(
            r#"
module "t" {
define i64 @main() {
entry:
  %p = inttoptr i64 i64 0 to i64*
  %v = load i64, %p
  ret %v
}
}
"#,
        )
        .unwrap();
        let err = run_module(&m, "main", &[], &RunConfig::default()).unwrap_err();
        assert!(matches!(err, RtError::MemoryFault(_)));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let m = parse_module(
            r#"
module "t" {
define i64 @main() {
entry:
  br spin
spin:
  br spin
}
}
"#,
        )
        .unwrap();
        let cfg = RunConfig {
            max_steps: 1000,
            ..RunConfig::default()
        };
        assert_eq!(
            run_module(&m, "main", &[], &cfg).unwrap_err(),
            RtError::StepLimit
        );
    }

    #[test]
    fn profiles_collected() {
        let m = parse_module(
            r#"
module "t" {
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [header: %i2]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 5
  condbr %c, header, exit
exit:
  ret %i2
}
}
"#,
        )
        .unwrap();
        let cfg = RunConfig {
            collect_profiles: true,
            ..RunConfig::default()
        };
        let r = run_module(&m, "main", &[], &cfg).unwrap();
        assert_eq!(r.ret_i64(), Some(5));
        assert_eq!(r.profiles.invocations("main"), 1);
        assert_eq!(r.profiles.block_count("main", BlockId(1)), 5);
    }

    #[test]
    fn parallel_dispatch_runs_tasks_and_joins() {
        // Each task writes its id into env[id]; main sums the slots.
        let r = run_src(
            r#"
module "t" {
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {
entry:
  %p = gep i64, %env, %id
  store i64 %id, %p
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 4
  call void @noelle.task.dispatch(@task, %env, i64 4)
  br sum
sum:
  %i = phi i64 [entry: i64 0] [sum: %i2]
  %s = phi i64 [entry: i64 0] [sum: %s2]
  %p = gep i64, %env, %i
  %v = load i64, %p
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 4
  condbr %c, sum, done
done:
  ret %s2
}
}
"#,
        );
        assert_eq!(r.ret_i64(), Some(6)); // 0+1+2+3
        assert_eq!(r.counters.get("tasks"), Some(&4));
    }

    /// The one place the dispatch schedule is pinned to the architecture
    /// abstraction: what the planner prices with `spawn_clock` and the join
    /// latency is what a dispatch costs here.
    #[test]
    fn a_dispatch_ends_at_the_last_spawn_plus_the_work_plus_the_join_latency() {
        let arch = Architecture::default_machine();
        for n in 1..=6usize {
            let m = parse_module(&format!(
                r#"
module "t" {{
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {{
entry:
  %p = gep i64, %env, %id
  %x = mul i64 %id, i64 7
  %y = div i64 %x, i64 3
  store i64 %y, %p
  ret void
}}
define i64 @main() {{
entry:
  %env = alloca i64, i64 8
  call void @noelle.task.dispatch(@task, %env, i64 {n})
  ret i64 0
}}
}}
"#
            ))
            .unwrap();
            let cost_of = |name: &str| -> u64 {
                let f = m.func(m.func_id_by_name(name).unwrap());
                f.inst_ids().iter().map(|&i| inst_cost(f.inst(i))).sum()
            };
            let work = cost_of("task");
            let span = arch.spawn_clock(n - 1) + work + arch.core_latency(arch.task_core(n - 1), 0);
            let r = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
            assert_eq!(r.counters["tasks"], n as u64);
            assert_eq!(r.counters["dispatch.cycles"], span, "{n} tasks");
            assert_eq!(r.counters["dispatch.spawn_cycles"], arch.spawn_clock(n - 1));
            assert_eq!(
                r.counters["dispatch.join_cycles"],
                arch.core_latency(arch.task_core(n - 1), 0)
            );
            let dispatch = external_cost("noelle.task.dispatch");
            assert_eq!(r.cycles, cost_of("main") + dispatch + span, "{n} tasks");
        }
    }

    /// Queue operations and segment brackets cost their core what the
    /// architecture abstraction says they do.
    #[test]
    fn queue_and_signal_operations_cost_what_the_architecture_says() {
        let r = run_src(
            r#"
module "t" {
declare i64 @noelle.queue.create(i64 %cap)
declare void @noelle.queue.push(i64 %q, i64 %v)
declare i64 @noelle.queue.pop(i64 %q)
declare void @noelle.ss.wait(i64 %seg, i64 %iter)
declare void @noelle.ss.signal(i64 %seg)
define i64 @main() {
entry:
  %q = call i64 @noelle.queue.create(i64 4)
  call void @noelle.queue.push(%q, i64 41)
  %v = call i64 @noelle.queue.pop(%q)
  call void @noelle.ss.signal(i64 0)
  call void @noelle.ss.wait(i64 0, i64 1)
  ret %v
}
}
"#,
        );
        assert_eq!(r.ret_i64(), Some(41));
        let arch = Architecture::default_machine();
        let create = inst_cost(&Inst::Call {
            callee: Callee::Direct(FuncId(0)),
            args: Vec::new(),
            ret_ty: Type::I64,
        }) + external_cost("noelle.queue.create");
        let ret = inst_cost(&Inst::Term(Terminator::Ret(None)));
        assert_eq!(
            r.cycles,
            create + 2 * arch.queue_op_cycles() + 2 * arch.signal_cycles() + ret
        );
    }

    #[test]
    fn queues_transfer_values_with_latency() {
        // Producer pushes 5 values; consumer pops and sums.
        let r = run_src(
            r#"
module "t" {
declare i64 @noelle.queue.create(i64 %cap)
declare void @noelle.queue.push(i64 %q, i64 %v)
declare i64 @noelle.queue.pop(i64 %q)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @stage(i64* %env, i64 %id, i64 %n) {
entry:
  %qp = gep i64, %env, i64 0
  %q = load i64, %qp
  %isprod = icmp eq i64 %id, i64 0
  condbr %isprod, produce, consume
produce:
  br ploop
ploop:
  %i = phi i64 [produce: i64 0] [ploop: %i2]
  call void @noelle.queue.push(%q, %i)
  %i2 = add i64 %i, i64 1
  %pc = icmp slt i64 %i2, i64 5
  condbr %pc, ploop, pdone
pdone:
  ret void
consume:
  br cloop
cloop:
  %j = phi i64 [consume: i64 0] [cloop: %j2]
  %s = phi i64 [consume: i64 0] [cloop: %s2]
  %v = call i64 @noelle.queue.pop(%q)
  %s2 = add i64 %s, %v
  %j2 = add i64 %j, i64 1
  %cc = icmp slt i64 %j2, i64 5
  condbr %cc, cloop, cdone
cdone:
  %outp = gep i64, %env, i64 1
  store i64 %s2, %outp
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 2
  %q = call i64 @noelle.queue.create(i64 8)
  %qslot = gep i64, %env, i64 0
  store i64 %q, %qslot
  call void @noelle.task.dispatch(@stage, %env, i64 2)
  %outp = gep i64, %env, i64 1
  %out = load i64, %outp
  ret %out
}
}
"#,
        );
        assert_eq!(r.ret_i64(), Some(10)); // 0+1+2+3+4
        assert!(r.counters["queue_ops"] >= 10);
    }

    #[test]
    fn sequential_segments_enforce_iteration_order() {
        // Two tasks; each "iteration" appends its index via a sequential
        // segment. With ss.wait(seg, iter) gating, the appended order must be
        // 0,1,2,3 even though iterations are distributed cyclically.
        let r = run_src(
            r#"
module "t" {
declare void @noelle.ss.wait(i64 %seg, i64 %iter)
declare void @noelle.ss.signal(i64 %seg)
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {
entry:
  br loop
loop:
  %iter = phi i64 [entry: %id] [loop: %next]
  call void @noelle.ss.wait(i64 0, %iter)
  %slotp = gep i64, %env, i64 4
  %slot = load i64, %slotp
  %cell = gep i64, %env, %slot
  store i64 %iter, %cell
  %slot2 = add i64 %slot, i64 1
  store i64 %slot2, %slotp
  call void @noelle.ss.signal(i64 0)
  %next = add i64 %iter, %n
  %c = icmp slt i64 %next, i64 4
  condbr %c, loop, done
done:
  ret void
}
define i64 @main() {
entry:
  %env = alloca i64, i64 5
  call void @noelle.task.dispatch(@task, %env, i64 2)
  %p0 = gep i64, %env, i64 0
  %v0 = load i64, %p0
  %p1 = gep i64, %env, i64 1
  %v1 = load i64, %p1
  %p2 = gep i64, %env, i64 2
  %v2 = load i64, %p2
  %p3 = gep i64, %env, i64 3
  %v3 = load i64, %p3
  %a = mul i64 %v0, i64 1000
  %b = mul i64 %v1, i64 100
  %c = mul i64 %v2, i64 10
  %ab = add i64 %a, %b
  %cd = add i64 %c, %v3
  %r = add i64 %ab, %cd
  ret %r
}
}
"#,
        );
        // In-order execution writes 0,1,2,3 into consecutive cells.
        assert_eq!(r.ret_i64(), Some(123)); // 0*1000 + 1*100 + 2*10 + 3
    }

    #[test]
    fn parallel_speedup_visible_in_cycles() {
        // A compute-heavy task run on 1 vs 4 cores: makespan must shrink.
        let src_n = |n: u32| {
            format!(
                r#"
module "t" {{
declare void @noelle.task.dispatch(fn void(i64*, i64, i64)* %f, i64* %env, i64 %n)
define void @task(i64* %env, i64 %id, i64 %n) {{
entry:
  br loop
loop:
  %i = phi i64 [entry: %id] [loop: %i2]
  %x = phi i64 [entry: i64 0] [loop: %x2]
  %sq = mul i64 %i, %i
  %x2 = add i64 %x, %sq
  %i2 = add i64 %i, %n
  %c = icmp slt i64 %i2, i64 4000
  condbr %c, loop, done
done:
  %p = gep i64, %env, %id
  store i64 %x2, %p
  ret void
}}
define i64 @main() {{
entry:
  %env = alloca i64, i64 16
  call void @noelle.task.dispatch(@task, %env, i64 {n})
  ret i64 0
}}
}}
"#
            )
        };
        let m1 = parse_module(&src_n(1)).unwrap();
        let m4 = parse_module(&src_n(4)).unwrap();
        let r1 = run_module(&m1, "main", &[], &RunConfig::default()).unwrap();
        let r4 = run_module(&m4, "main", &[], &RunConfig::default()).unwrap();
        let speedup = r1.cycles as f64 / r4.cycles as f64;
        assert!(speedup > 2.5, "speedup = {speedup}");
    }

    #[test]
    fn type_confusion_reports_instead_of_aborting() {
        // An indirect call through a lying function-pointer type: @f returns
        // f64, but the call site claims i64 and adds the result. This passes
        // the verifier (indirect callees are unchecked) yet must surface as a
        // reported RtError, never a process abort.
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
        noelle_ir::verifier::verify_module(&m).expect("verifier accepts the lying cast");
        let err = run_module(&m, "main", &[], &RunConfig::default()).unwrap_err();
        assert!(matches!(err, RtError::TypeConfusion(_)), "got {err:?}");
        assert!(err.to_string().contains("found float"));
    }

    #[test]
    fn dep_tracer_observes_store_load_pairs() {
        let m = parse_module(
            r#"
module "t" {
define i64 @main() {
entry:
  %p = alloca i64, i64 1
  store i64 i64 41, %p
  %v = load i64, %p
  %r = add i64 %v, i64 1
  ret %r
}
}
"#,
        )
        .unwrap();
        let cfg = RunConfig {
            trace_deps: true,
            ..RunConfig::default()
        };
        let r = run_module(&m, "main", &[], &cfg).unwrap();
        assert_eq!(r.ret_i64(), Some(42));
        assert_eq!(r.observed_deps.len(), 1);
        let d = r.observed_deps[0];
        assert_eq!(d.func, m.func_id_by_name("main").unwrap());
        // Without tracing the list stays empty.
        let r2 = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        assert!(r2.observed_deps.is_empty());
        assert_eq!(r.globals_digest, r2.globals_digest);
    }

    #[test]
    fn guard_intrinsic_checks_bounds() {
        let m = parse_module(
            r#"
module "t" {
declare void @carat.guard(i64 %p, i64 %len)
define i64 @main() {
entry:
  %buf = alloca i64, i64 2
  %pi = ptrtoint i64* %buf to i64
  call void @carat.guard(%pi, i64 8)
  %bad = add i64 %pi, i64 1048576
  call void @carat.guard(%bad, i64 8)
  ret i64 0
}
}
"#,
        )
        .unwrap();
        let err = run_module(&m, "main", &[], &RunConfig::default()).unwrap_err();
        assert!(matches!(err, RtError::GuardFault(_)));
    }
}
