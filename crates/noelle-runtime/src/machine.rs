//! The discrete-event simulated machine and IR interpreter.
//!
//! Every *task* (the main program, and each task dispatched by a
//! parallelized loop) runs on a simulated core with its own virtual clock.
//! The scheduler always steps the runnable task with the smallest clock, so
//! cross-task interactions (queues, sequential segments, joins) observe a
//! consistent global virtual time, and the final makespan is the parallel
//! execution time the Figure 5 experiments report.
//!
//! A function is decoded once per run, on its first call, into a flat
//! [`Body`]: one [`Op`] per instruction, carrying its cost and its operands
//! resolved to a register slot, an argument or a value fixed for the run.
//! A frame's registers are a vector indexed by instruction arena index, so
//! a step hashes nothing and allocates nothing. The ready tasks sit in a
//! min-heap keyed on (clock, task id): ties go to the lower id.

use crate::memory::{
    decode_func_ptr, encode_func_ptr, DepTracer, MemError, Memory, ObservedDep, RtVal,
    TypeConfusion,
};
use noelle_core::architecture::{external_cost, inst_cost, Architecture};
use noelle_core::profiler::Profiles;
use noelle_ir::inst::{BinOp, Callee, CastOp, FcmpPred, IcmpPred, Inst, InstId, Terminator};
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::types::{FloatWidth, IntWidth, Type};
use noelle_ir::value::Value;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
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

// ---------------------------------------------------------------------------
// The decoded form of a function
// ---------------------------------------------------------------------------

/// An operand, resolved when its function is decoded.
#[derive(Clone, Copy, Debug)]
enum Opnd {
    /// The register of the instruction with this arena index.
    Reg(u32),
    /// A formal argument.
    Arg(u32),
    /// An integer fixed for the run: a constant, or a global's or a
    /// function's address.
    Int(i64),
    /// A float constant.
    Float(f64),
}

/// A run of entries in one of a [`Body`]'s side tables.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of<T>(table: &[T], start: usize) -> Span {
        Span {
            start: start as u32,
            len: (table.len() - start) as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A control-flow edge: where the target's first non-phi op is, and the
/// phi moves the edge makes.
#[derive(Clone, Copy, Debug)]
struct Edge {
    pc: u32,
    target: BlockId,
    moves: Span,
}

/// One phi move: the phi's register gets the value its incoming from the
/// edge's source block names.
#[derive(Clone, Copy, Debug)]
struct Move {
    dst: u32,
    src: Opnd,
}

/// A cast, with what its types decide worked out.
#[derive(Clone, Copy, Debug)]
enum Cast {
    /// `zext`: keep the source width's bits.
    Mask(i64),
    /// `sext`: the value is already sign-extended.
    Sext,
    /// `trunc` to this width.
    Trunc(IntWidth),
    /// `bitcast f64 to i64`.
    FloatBits,
    /// `bitcast i64 to f64`.
    BitsFloat,
    /// A cast that leaves the payload as it is.
    Same,
    SiToFp,
    FpToSi,
    FpTrunc,
}

/// An external function the machine implements, resolved from its name
/// once per run.
#[derive(Clone, Copy, Debug)]
enum Ext {
    Malloc,
    Calloc,
    Free,
    PrintI64,
    PrintF64,
    Math(fn(f64) -> f64),
    Pow,
    Prv,
    Guard,
    Callback,
    ClockSet,
    QueueCreate,
    QueuePush,
    QueuePop,
    SsWait,
    SsSignal,
    Dispatch,
    Unknown,
}

impl Ext {
    fn of(name: &str) -> Ext {
        match name {
            "malloc" => Ext::Malloc,
            "calloc" => Ext::Calloc,
            "free" => Ext::Free,
            "print_i64" => Ext::PrintI64,
            "print_f64" => Ext::PrintF64,
            "sqrt" => Ext::Math(f64::sqrt),
            "sin" => Ext::Math(f64::sin),
            "cos" => Ext::Math(f64::cos),
            "tan" => Ext::Math(f64::tan),
            "exp" => Ext::Math(f64::exp),
            "log" => Ext::Math(|x| x.max(1e-300).ln()),
            "pow" => Ext::Pow,
            "fabs" => Ext::Math(f64::abs),
            "floor" => Ext::Math(f64::floor),
            "ceil" => Ext::Math(f64::ceil),
            // PRVG families: identical deterministic streams, different cost.
            "prv.mt.next" | "prv.lcg.next" | "prv.xs.next" => Ext::Prv,
            "carat.guard" => Ext::Guard,
            "coos.callback" => Ext::Callback,
            "clock.set" => Ext::ClockSet,
            "noelle.queue.create" => Ext::QueueCreate,
            "noelle.queue.push" => Ext::QueuePush,
            "noelle.queue.pop" => Ext::QueuePop,
            "noelle.ss.wait" => Ext::SsWait,
            "noelle.ss.signal" => Ext::SsSignal,
            "noelle.task.dispatch" => Ext::Dispatch,
            _ => Ext::Unknown,
        }
    }
}

/// Why an op stops the run.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Unreachable,
    /// The block ends without a terminator.
    FellOff(BlockId),
    /// A branch names a block the function does not have.
    NoBlock(BlockId),
}

/// What one decoded instruction does.
#[derive(Clone, Copy, Debug)]
enum Kind<'m> {
    /// A phi that is not at its block's head, or one the entry block starts
    /// with: a branch applies the others.
    Nop,
    Alloca {
        size: i64,
        count: Opnd,
    },
    Load {
        ty: &'m Type,
        ptr: Opnd,
    },
    Store {
        ty: &'m Type,
        val: Opnd,
        ptr: Opnd,
    },
    /// A `gep` with one index: `base + index × scale`.
    Index {
        base: Opnd,
        index: Opnd,
        scale: i64,
    },
    Gep {
        base_ty: &'m Type,
        base: Opnd,
        indices: Span,
    },
    Int {
        op: BinOp,
        width: IntWidth,
        lhs: Opnd,
        rhs: Opnd,
    },
    Float {
        op: BinOp,
        f32: bool,
        lhs: Opnd,
        rhs: Opnd,
    },
    Icmp {
        pred: IcmpPred,
        lhs: Opnd,
        rhs: Opnd,
    },
    Fcmp {
        pred: FcmpPred,
        lhs: Opnd,
        rhs: Opnd,
    },
    Cast {
        cast: Cast,
        val: Opnd,
    },
    Select {
        cond: Opnd,
        tval: Opnd,
        fval: Opnd,
    },
    /// A direct call, or one through the function pointer `Opnd`.
    Call {
        callee: Result<FuncId, Opnd>,
        args: Span,
    },
    Ret(Option<Opnd>),
    Br(Edge),
    CondBr {
        cond: Opnd,
        then: Edge,
        els: Edge,
        block: BlockId,
    },
    Switch {
        value: Opnd,
        default: Edge,
        cases: Span,
    },
    Fault(Fault),
}

/// One decoded instruction.
#[derive(Clone, Copy, Debug)]
struct Op<'m> {
    /// The instruction's arena index: its register, and its id for the
    /// dependence tracer.
    id: u32,
    cost: u32,
    kind: Kind<'m>,
}

/// A function decoded for one run. The entry block's ops come first, so a
/// call starts at op 0; then every other block, in id order (a detached
/// block is still a branch target). Each block's ops are contiguous, and a
/// block with no terminator ends in a `FellOff` fault.
#[derive(Default)]
struct Body<'m> {
    ops: Vec<Op<'m>>,
    /// Call arguments and gep indices.
    operands: Vec<Opnd>,
    moves: Vec<Move>,
    cases: Vec<(i64, Edge)>,
}

/// The decoded bodies and resolved externals of one run.
struct Code<'m> {
    module: &'m Module,
    /// By `FuncId`; empty until the function's first call.
    bodies: Vec<Body<'m>>,
    /// By `FuncId`, for declarations; resolved at their first call.
    externs: Vec<Option<(Ext, u32)>>,
}

impl<'m> Code<'m> {
    fn new(module: &'m Module) -> Code<'m> {
        let n = module.functions().len();
        Code {
            module,
            bodies: (0..n).map(|_| Body::default()).collect(),
            externs: vec![None; n],
        }
    }

    /// What calling the declaration `f` does, and its cost.
    fn external(&mut self, f: FuncId) -> (Ext, u32) {
        *self.externs[f.index()].get_or_insert_with(|| {
            let name = &self.module.func(f).name;
            (Ext::of(name), external_cost(name) as u32)
        })
    }

    /// Decode the defined function `f` unless this run already has.
    fn ensure(&mut self, f: FuncId, mem: &Memory) {
        if self.bodies[f.index()].ops.is_empty() {
            self.bodies[f.index()] = Decoder::new(self.module.func(f), mem).decode();
        }
    }
}

struct Decoder<'c, 'm> {
    f: &'m Function,
    mem: &'c Memory,
    /// By block id: the pc of the block's first op and its leading phis.
    start: Vec<u32>,
    phis: Vec<u32>,
    body: Body<'m>,
}

impl<'c, 'm> Decoder<'c, 'm> {
    fn new(f: &'m Function, mem: &'c Memory) -> Decoder<'c, 'm> {
        Decoder {
            f,
            mem,
            start: Vec::new(),
            phis: Vec::new(),
            body: Body::default(),
        }
    }

    fn order(&self) -> impl Iterator<Item = BlockId> + 'm {
        let entry = self.f.entry();
        let rest = (0..self.f.num_blocks() as u32).map(BlockId);
        std::iter::once(entry).chain(rest.filter(move |&b| b != entry))
    }

    fn falls_off(&self, b: BlockId) -> bool {
        let last = self.f.block(b).insts.last();
        !matches!(last.map(|&i| self.f.inst(i)), Some(Inst::Term(_)))
    }

    fn decode(mut self) -> Body<'m> {
        let f = self.f;
        let n = f.num_blocks();
        (self.start, self.phis) = (vec![0; n], vec![0; n]);
        let mut pc = 0;
        for b in self.order() {
            let insts = &f.block(b).insts;
            self.start[b.index()] = pc as u32;
            self.phis[b.index()] = insts
                .iter()
                .take_while(|&&i| matches!(f.inst(i), Inst::Phi { .. }))
                .count() as u32;
            pc += insts.len() + usize::from(self.falls_off(b));
        }
        self.body.ops.reserve_exact(pc);
        for b in self.order() {
            for &id in &f.block(b).insts {
                let inst = f.inst(id);
                let kind = self.kind(b, inst);
                self.body.ops.push(Op {
                    id: id.0,
                    cost: inst_cost(inst) as u32,
                    kind,
                });
            }
            if self.falls_off(b) {
                self.body.ops.push(Op {
                    id: 0,
                    cost: 0,
                    kind: Kind::Fault(Fault::FellOff(b)),
                });
            }
        }
        self.body
    }

    fn opnd(&self, v: Value) -> Opnd {
        match v {
            Value::Inst(id) if id.index() < self.f.inst_arena_len() => Opnd::Reg(id.0),
            // An id past the arena is a register nothing ever writes.
            Value::Inst(_) => Opnd::Int(0),
            Value::Arg(i) => Opnd::Arg(i),
            Value::Const(c) => match RtVal::from_const(&c) {
                RtVal::I(v) => Opnd::Int(v),
                RtVal::F(v) => Opnd::Float(v),
            },
            Value::Global(g) => Opnd::Int(self.mem.global_addr(g)),
            Value::Func(f) => Opnd::Int(encode_func_ptr(f)),
        }
    }

    fn operands(&mut self, vs: &[Value]) -> Span {
        let start = self.body.operands.len();
        for &v in vs {
            let o = self.opnd(v);
            self.body.operands.push(o);
        }
        Span::of(&self.body.operands, start)
    }

    /// The edge `from → to`, or `None` when `to` is not a block of the
    /// function.
    fn edge(&mut self, from: BlockId, to: BlockId) -> Option<Edge> {
        let f = self.f;
        let phis = *self.phis.get(to.index())?;
        let start = self.body.moves.len();
        for &phi in &f.block(to).insts[..phis as usize] {
            if let Inst::Phi { incomings, .. } = f.inst(phi) {
                if let Some(&(_, v)) = incomings.iter().find(|(b, _)| *b == from) {
                    let src = self.opnd(v);
                    self.body.moves.push(Move { dst: phi.0, src });
                }
            }
        }
        Some(Edge {
            pc: self.start[to.index()] + phis,
            target: to,
            moves: Span::of(&self.body.moves, start),
        })
    }

    fn kind(&mut self, block: BlockId, inst: &'m Inst) -> Kind<'m> {
        match inst {
            Inst::Alloca { ty, count } => Kind::Alloca {
                size: ty.size_bytes() as i64,
                count: self.opnd(*count),
            },
            Inst::Load { ty, ptr } => Kind::Load {
                ty,
                ptr: self.opnd(*ptr),
            },
            Inst::Store { val, ptr, ty } => Kind::Store {
                ty,
                val: self.opnd(*val),
                ptr: self.opnd(*ptr),
            },
            Inst::Gep {
                base,
                base_ty,
                indices,
            } => match indices[..] {
                [index] => Kind::Index {
                    base: self.opnd(*base),
                    index: self.opnd(index),
                    scale: base_ty.size_bytes() as i64,
                },
                _ => Kind::Gep {
                    base_ty,
                    base: self.opnd(*base),
                    indices: self.operands(indices),
                },
            },
            Inst::Bin { op, ty, lhs, rhs } => {
                let (op, lhs, rhs) = (*op, self.opnd(*lhs), self.opnd(*rhs));
                if op.is_float_op() {
                    let f32 = matches!(ty, Type::Float(FloatWidth::F32));
                    Kind::Float { op, f32, lhs, rhs }
                } else {
                    let width = match ty {
                        Type::Int(w) => *w,
                        _ => IntWidth::I64,
                    };
                    Kind::Int {
                        op,
                        width,
                        lhs,
                        rhs,
                    }
                }
            }
            Inst::Icmp { pred, lhs, rhs, .. } => Kind::Icmp {
                pred: *pred,
                lhs: self.opnd(*lhs),
                rhs: self.opnd(*rhs),
            },
            Inst::Fcmp { pred, lhs, rhs, .. } => Kind::Fcmp {
                pred: *pred,
                lhs: self.opnd(*lhs),
                rhs: self.opnd(*rhs),
            },
            Inst::Cast { op, from, to, val } => Kind::Cast {
                cast: cast(*op, from, to),
                val: self.opnd(*val),
            },
            Inst::Select {
                cond, tval, fval, ..
            } => Kind::Select {
                cond: self.opnd(*cond),
                tval: self.opnd(*tval),
                fval: self.opnd(*fval),
            },
            Inst::Phi { .. } => Kind::Nop,
            Inst::Call { callee, args, .. } => Kind::Call {
                callee: match *callee {
                    Callee::Direct(f) => Ok(f),
                    Callee::Indirect(fp) => Err(self.opnd(fp)),
                },
                args: self.operands(args),
            },
            Inst::Term(t) => self.terminator(block, t),
        }
    }

    fn terminator(&mut self, block: BlockId, t: &'m Terminator) -> Kind<'m> {
        let missing = |b: BlockId| Kind::Fault(Fault::NoBlock(b));
        match t {
            Terminator::Ret(v) => Kind::Ret(v.map(|v| self.opnd(v))),
            Terminator::Br(b) => self.edge(block, *b).map_or(missing(*b), Kind::Br),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let Some(then) = self.edge(block, *then_bb) else {
                    return missing(*then_bb);
                };
                let Some(els) = self.edge(block, *else_bb) else {
                    return missing(*else_bb);
                };
                Kind::CondBr {
                    cond: self.opnd(*cond),
                    then,
                    els,
                    block,
                }
            }
            Terminator::Switch {
                value,
                default,
                cases,
            } => {
                let Some(default_edge) = self.edge(block, *default) else {
                    return missing(*default);
                };
                let mut decoded = Vec::with_capacity(cases.len());
                for &(c, b) in cases {
                    let Some(e) = self.edge(block, b) else {
                        return missing(b);
                    };
                    decoded.push((c, e));
                }
                let start = self.body.cases.len();
                self.body.cases.extend(decoded);
                Kind::Switch {
                    value: self.opnd(*value),
                    default: default_edge,
                    cases: Span::of(&self.body.cases, start),
                }
            }
            Terminator::Unreachable => Kind::Fault(Fault::Unreachable),
        }
    }
}

fn cast(op: CastOp, from: &Type, to: &Type) -> Cast {
    match op {
        CastOp::Zext => {
            let bits = match from {
                Type::Int(w) => w.bits(),
                _ => 64,
            };
            Cast::Mask(if bits >= 64 {
                -1i64
            } else {
                (1i64 << bits) - 1
            })
        }
        CastOp::Sext => Cast::Sext,
        CastOp::Trunc => Cast::Trunc(match to {
            Type::Int(w) => *w,
            _ => IntWidth::I64,
        }),
        CastOp::Bitcast => match (from, to) {
            (Type::Float(FloatWidth::F64), Type::Int(IntWidth::I64)) => Cast::FloatBits,
            (Type::Int(IntWidth::I64), Type::Float(FloatWidth::F64)) => Cast::BitsFloat,
            _ => Cast::Same,
        },
        CastOp::PtrToInt | CastOp::IntToPtr | CastOp::FpExt => Cast::Same,
        CastOp::SiToFp => Cast::SiToFp,
        CastOp::FpToSi => Cast::FpToSi,
        CastOp::FpTrunc => Cast::FpTrunc,
    }
}

impl Cast {
    fn apply(self, v: RtVal) -> Result<RtVal, TypeConfusion> {
        Ok(match self {
            Cast::Mask(mask) => RtVal::I(v.try_i()? & mask),
            Cast::Sext => RtVal::I(v.try_i()?),
            Cast::Trunc(w) => RtVal::I(w.truncate(v.try_i()?)),
            Cast::FloatBits => RtVal::I(v.try_f()?.to_bits() as i64),
            Cast::BitsFloat => RtVal::F(f64::from_bits(v.try_i()? as u64)),
            Cast::Same => v,
            Cast::SiToFp => RtVal::F(v.try_i()? as f64),
            Cast::FpToSi => RtVal::I(v.try_f()? as i64),
            Cast::FpTrunc => RtVal::F(v.try_f()? as f32 as f64),
        })
    }
}

/// `a op b` at width `w`: computed on the sign-extended payloads, then
/// truncated back to the width.
fn int_op(op: BinOp, w: IntWidth, a: i64, b: i64) -> Result<i64, RtError> {
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(RtError::Trap("integer division by zero".into()));
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(RtError::Trap("integer remainder by zero".into()));
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::AShr => a.wrapping_shr(b as u32 & 63),
        // A logical shift sees the operand's own bits, not its sign
        // extension: mask to the width first.
        BinOp::LShr => {
            let bits = (a as u64) & (u64::MAX >> (64 - w.bits()));
            bits.wrapping_shr(b as u32 & 63) as i64
        }
        BinOp::SMax => a.max(b),
        BinOp::SMin => a.min(b),
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMax | BinOp::FMin => {
            return Err(RtError::Trap(format!("{op:?} on integers")))
        }
    };
    Ok(w.truncate(r))
}

fn float_op(op: BinOp, f32: bool, a: f64, b: f64) -> Result<f64, RtError> {
    let r = match op {
        BinOp::FAdd => a + b,
        BinOp::FSub => a - b,
        BinOp::FMul => a * b,
        BinOp::FDiv => a / b,
        BinOp::FMax => a.max(b),
        BinOp::FMin => a.min(b),
        _ => return Err(RtError::Trap(format!("{op:?} on floats"))),
    };
    Ok(if f32 { r as f32 as f64 } else { r })
}

fn icmp(pred: IcmpPred, a: i64, b: i64) -> bool {
    use IcmpPred as P;
    match pred {
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
    }
}

fn fcmp(pred: FcmpPred, a: f64, b: f64) -> bool {
    use FcmpPred as P;
    match pred {
        P::Oeq => a == b,
        P::One => a != b,
        P::Olt => a < b,
        P::Ole => a <= b,
        P::Ogt => a > b,
        P::Oge => a >= b,
    }
}

// ---------------------------------------------------------------------------
// Tasks, counters and profiles
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Frame {
    func: FuncId,
    /// The next op of the function's body.
    pc: usize,
    /// By instruction arena index.
    regs: Vec<RtVal>,
    args: Vec<RtVal>,
    /// Register in the caller's frame that receives the return value.
    ret_to: Option<u32>,
    /// The `noelle.queue.pop` a blocked pop delivers its value to.
    pending: InstId,
}

impl Frame {
    #[inline]
    fn get(&self, o: Opnd) -> RtVal {
        match o {
            Opnd::Reg(r) => self.regs[r as usize],
            Opnd::Arg(i) => self.args[i as usize],
            Opnd::Int(v) => RtVal::I(v),
            Opnd::Float(v) => RtVal::F(v),
        }
    }

    #[inline]
    fn int(&self, o: Opnd) -> Result<i64, TypeConfusion> {
        self.get(o).try_i()
    }

    #[inline]
    fn float(&self, o: Opnd) -> Result<f64, TypeConfusion> {
        self.get(o).try_f()
    }

    /// Write `v` to register `r` and move to the next op.
    #[inline]
    fn set_next(&mut self, r: u32, v: RtVal) {
        self.regs[r as usize] = v;
        self.pc += 1;
    }

    /// Take `e`: apply its phi moves as one parallel copy, through `buf`.
    fn take(&mut self, body: &Body, e: Edge, buf: &mut Vec<(u32, RtVal)>) {
        match &body.moves[e.moves.range()] {
            [] => {}
            [m] => self.regs[m.dst as usize] = self.get(m.src),
            moves => {
                buf.clear();
                buf.extend(moves.iter().map(|m| (m.dst, self.get(m.src))));
                for &(dst, v) in buf.iter() {
                    self.regs[dst as usize] = v;
                }
            }
        }
        self.pc = e.pc as usize;
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    Runnable,
    BlockedPop(i64),
    BlockedPush(i64, i64),
    BlockedSeg(i64, i64),
    /// Waits for the `n` tasks from `first` on, which it dispatched.
    BlockedJoin {
        first: usize,
        n: usize,
    },
    Done(Option<RtVal>),
}

/// A task's virtual clock.
#[derive(Debug)]
struct Clock {
    now: u64,
    /// Sub-cycle remainder so fractional clock scaling accumulates exactly.
    frac: f64,
    scale: f64,
}

impl Clock {
    #[inline]
    fn charge(&mut self, cycles: u64) {
        if self.scale == 1.0 && self.frac == 0.0 {
            // What the scaled sum below gives at scale 1 with no remainder.
            self.now += cycles;
            return;
        }
        let exact = cycles as f64 * self.scale + self.frac;
        let whole = exact.floor();
        self.frac = exact - whole;
        self.now += whole as u64;
    }
}

#[derive(Debug)]
struct TaskCtx {
    core: usize,
    clock: Clock,
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

/// The intrinsic counters, by name. A counter has a key in
/// [`RunResult::counters`] once it is bumped, by 0 too.
#[derive(Clone, Copy)]
enum Counter {
    DispatchCycles,
    DispatchSpawnCycles,
    DispatchJoinCycles,
    PrvCalls,
    Guards,
    Callbacks,
    MaxCallbackGap,
    ClockSets,
    Queues,
    QueueOps,
    Tasks,
}

const COUNTER_NAMES: [&str; 11] = [
    "dispatch.cycles",
    "dispatch.spawn_cycles",
    "dispatch.join_cycles",
    "prv_calls",
    "guards",
    "callbacks",
    "max_callback_gap",
    "clock_sets",
    "queues",
    "queue_ops",
    "tasks",
];

/// One function's profile, kept by id for the run and keyed by name when
/// it ends. The tables grow to one past the highest block recorded.
#[derive(Clone, Default)]
struct FuncProfile {
    invocations: u64,
    blocks: Vec<u64>,
    branches: Vec<(u64, u64)>,
}

impl FuncProfile {
    fn block(&mut self, b: BlockId) {
        if self.blocks.len() <= b.index() {
            self.blocks.resize(b.index() + 1, 0);
        }
        self.blocks[b.index()] += 1;
    }

    fn branch(&mut self, b: BlockId, taken: bool) {
        if self.branches.len() <= b.index() {
            self.branches.resize(b.index() + 1, (0, 0));
        }
        let slot = &mut self.branches[b.index()];
        slot.1 += 1;
        slot.0 += u64::from(taken);
    }
}

/// Fold the per-function tables into [`Profiles`], by function name.
fn into_profiles(module: &Module, table: Vec<FuncProfile>) -> Profiles {
    fn add<T: Copy + Default>(into: &mut Vec<T>, from: &[T], plus: fn(T, T) -> T) {
        if into.len() < from.len() {
            into.resize(from.len(), T::default());
        }
        for (a, &b) in into.iter_mut().zip(from) {
            *a = plus(*a, b);
        }
    }
    let mut p = Profiles::default();
    for (f, fp) in module.functions().iter().zip(table) {
        if fp.invocations > 0 {
            *p.func_invocations.entry(f.name.clone()).or_default() += fp.invocations;
        }
        if !fp.blocks.is_empty() {
            let into = p.block_counts.entry(f.name.clone()).or_default();
            add(into, &fp.blocks, |a, b| a + b);
        }
        if !fp.branches.is_empty() {
            let into = p.branch_counts.entry(f.name.clone()).or_default();
            add(into, &fp.branches, |a, b| (a.0 + b.0, a.1 + b.1));
        }
    }
    p
}

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

/// Everything a run changes; the decoded code sits beside it in
/// [`Machine`], so a step can borrow its op while it changes the state.
struct State<'m> {
    module: &'m Module,
    mem: Memory,
    tasks: Vec<TaskCtx>,
    /// Runnable tasks, and blocked ones an event may have woken, by
    /// (clock, task id).
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Blocked tasks no event has woken since they were last found blocked.
    blocked: Vec<usize>,
    done: usize,
    queues: Vec<QueueState>,
    segments: BTreeMap<i64, SegState>,
    prv_states: BTreeMap<i64, u64>,
    arch: Architecture,
    max_steps: u64,
    /// By `FuncId`, when profiles are collected.
    profiles: Option<Vec<FuncProfile>>,
    output: Vec<String>,
    counters: [Option<u64>; COUNTER_NAMES.len()],
    steps: u64,
    tracer: Option<DepTracer>,
    /// Register and argument vectors of returned frames.
    pool: Vec<Vec<RtVal>>,
    phi_buf: Vec<(u32, RtVal)>,
    /// Arguments of the call being made.
    args: Vec<RtVal>,
}

struct Machine<'m> {
    code: Code<'m>,
    st: State<'m>,
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
        code: Code::new(m),
        st: State {
            module: m,
            mem: Memory::new(m),
            tasks: Vec::new(),
            ready: BinaryHeap::new(),
            blocked: Vec::new(),
            done: 0,
            queues: Vec::new(),
            segments: BTreeMap::new(),
            prv_states: BTreeMap::new(),
            arch: config.arch.clone(),
            max_steps: config.max_steps,
            profiles: config
                .collect_profiles
                .then(|| vec![FuncProfile::default(); m.functions().len()]),
            output: Vec::new(),
            counters: [None; COUNTER_NAMES.len()],
            steps: 0,
            tracer: config.trace_deps.then(DepTracer::default),
            pool: Vec::new(),
            phi_buf: Vec::new(),
            args: Vec::new(),
        },
    };
    machine.code.ensure(entry_fid, &machine.st.mem);
    machine.st.spawn_task(entry_fid, args.to_vec(), 0, 0);
    machine.run()?;
    let st = machine.st;
    let main = &st.tasks[0];
    let ret = match main.state {
        TaskState::Done(v) => v,
        other => return Err(RtError::Trap(format!("main task ended in state {other:?}"))),
    };
    let counters = COUNTER_NAMES
        .iter()
        .zip(st.counters)
        .filter_map(|(&name, v)| Some((String::from(name), v?)))
        .collect();
    Ok(RunResult {
        ret,
        cycles: main.clock.now,
        dyn_insts: st.steps,
        profiles: st
            .profiles
            .map(|table| into_profiles(m, table))
            .unwrap_or_default(),
        output: st.output,
        counters,
        observed_deps: st.tracer.map(DepTracer::into_observed).unwrap_or_default(),
        globals_digest: st.mem.globals_digest(),
    })
}

impl<'m> Machine<'m> {
    fn run(&mut self) -> Result<(), RtError> {
        let mut tid = self.st.next_ready().ok_or(RtError::Deadlock)?;
        loop {
            self.step(tid)?;
            let st = &mut self.st;
            st.steps += 1;
            if st.steps > st.max_steps {
                return Err(RtError::StepLimit);
            }
            let t = &st.tasks[tid];
            match t.state {
                TaskState::Runnable => {
                    // Keep stepping this task while it stays the first;
                    // else it takes the first's place on the heap, one sift
                    // where a push and a pop took two.
                    let key = (t.clock.now, tid);
                    let Some(mut first) = st.ready.peek_mut() else {
                        continue;
                    };
                    if first.0 >= key {
                        continue;
                    }
                    let Reverse((_, next)) = std::mem::replace(&mut *first, Reverse(key));
                    drop(first);
                    if st.is_ready(next) {
                        st.resume_if_blocked(next);
                        tid = next;
                        continue;
                    }
                    st.blocked.push(next);
                }
                TaskState::Done(_) => {
                    st.done += 1;
                    st.wake();
                }
                _ => st.park(tid),
            }
            tid = match st.next_ready() {
                Some(next) => next,
                None if st.done == st.tasks.len() => return Ok(()),
                None => return Err(RtError::Deadlock),
            };
        }
    }

    /// Run the next op of `tid`'s top frame.
    fn step(&mut self, tid: usize) -> Result<(), RtError> {
        let Machine { code, st } = self;
        let t = &mut st.tasks[tid];
        let Some(frame) = t.frames.last_mut() else {
            return Err(RtError::Trap(format!("task {tid} has no frame")));
        };
        let func = frame.func;
        let body = &code.bodies[func.index()];
        let op = &body.ops[frame.pc];
        let id = op.id;
        t.clock.charge(u64::from(op.cost));
        match op.kind {
            Kind::Nop => frame.pc += 1,
            Kind::Alloca { size, count } => {
                let n = frame.int(count)?.max(0);
                let addr = st.mem.bump(size * n);
                frame.set_next(id, RtVal::I(addr));
            }
            Kind::Load { ty, ptr } => {
                let addr = frame.int(ptr)?;
                let v = st
                    .mem
                    .read_scalar(addr, ty)
                    .ok_or_else(|| RtError::MemoryFault(format!("load {ty} at {addr:#x}")))?;
                if let Some(tracer) = &mut st.tracer {
                    tracer.record_load(func, InstId(id), addr, ty.size_bytes() as i64);
                }
                frame.set_next(id, v);
            }
            Kind::Store { ty, val, ptr } => {
                let addr = frame.int(ptr)?;
                let v = frame.get(val);
                st.mem.write_scalar(addr, ty, v).map_err(|e| match e {
                    MemError::OutOfBounds => {
                        RtError::MemoryFault(format!("store {ty} at {addr:#x}"))
                    }
                    MemError::Type(tc) => RtError::from(tc),
                })?;
                if let Some(tracer) = &mut st.tracer {
                    tracer.record_store(func, InstId(id), addr, ty.size_bytes() as i64);
                }
                frame.pc += 1;
            }
            Kind::Index { base, index, scale } => {
                let addr = frame.int(base)?;
                let iv = frame.int(index)?;
                frame.set_next(id, RtVal::I(addr + iv * scale));
            }
            Kind::Gep {
                base_ty,
                base,
                indices,
            } => {
                let mut addr = frame.int(base)?;
                let mut ty = base_ty;
                for (k, &idx) in body.operands[indices.range()].iter().enumerate() {
                    let iv = frame.int(idx)?;
                    if k == 0 {
                        addr += iv * ty.size_bytes() as i64;
                        continue;
                    }
                    match ty {
                        Type::Array(elem, _) => {
                            addr += iv * elem.size_bytes() as i64;
                            ty = elem;
                        }
                        Type::Struct(_) => {
                            let bad = || RtError::Trap("bad struct gep".into());
                            addr += ty.struct_field_offset(iv as usize).ok_or_else(bad)? as i64;
                            ty = ty.indexed(Some(iv as usize)).ok_or_else(bad)?;
                        }
                        other => addr += iv * other.size_bytes() as i64,
                    }
                }
                frame.set_next(id, RtVal::I(addr));
            }
            Kind::Int {
                op: int,
                width,
                lhs,
                rhs,
            } => {
                let a = frame.int(lhs)?;
                let b = frame.int(rhs)?;
                frame.set_next(id, RtVal::I(int_op(int, width, a, b)?));
            }
            Kind::Float {
                op: float,
                f32,
                lhs,
                rhs,
            } => {
                let a = frame.float(lhs)?;
                let b = frame.float(rhs)?;
                frame.set_next(id, RtVal::F(float_op(float, f32, a, b)?));
            }
            Kind::Icmp { pred, lhs, rhs } => {
                let a = frame.int(lhs)?;
                let b = frame.int(rhs)?;
                frame.set_next(id, RtVal::I(icmp(pred, a, b) as i64));
            }
            Kind::Fcmp { pred, lhs, rhs } => {
                let a = frame.float(lhs)?;
                let b = frame.float(rhs)?;
                frame.set_next(id, RtVal::I(fcmp(pred, a, b) as i64));
            }
            Kind::Cast { cast, val } => {
                let v = cast.apply(frame.get(val))?;
                frame.set_next(id, v);
            }
            Kind::Select { cond, tval, fval } => {
                let v = frame.get(if frame.int(cond)? != 0 { tval } else { fval });
                frame.set_next(id, v);
            }
            Kind::Call { callee, args } => {
                let target = match callee {
                    Ok(f) => f,
                    Err(fp) => {
                        let addr = frame.int(fp)?;
                        decode_func_ptr(addr).ok_or_else(|| {
                            RtError::Trap(format!("indirect call to non-function {addr:#x}"))
                        })?
                    }
                };
                st.args.clear();
                st.args
                    .extend(body.operands[args.range()].iter().map(|&a| frame.get(a)));
                st.call(code, tid, id, target)?;
            }
            Kind::Ret(v) => {
                let rv = v.map(|v| frame.get(v));
                let Some(done) = t.frames.pop() else {
                    return Err(RtError::Trap(format!("task {tid} has no frame")));
                };
                st.pool.extend([done.regs, done.args]);
                match (t.frames.last_mut(), done.ret_to, rv) {
                    (None, _, _) => t.state = TaskState::Done(rv),
                    (Some(caller), Some(dst), Some(val)) => caller.regs[dst as usize] = val,
                    _ => {}
                }
            }
            Kind::Br(e) => {
                if let Some(p) = &mut st.profiles {
                    p[func.index()].block(e.target);
                }
                frame.take(body, e, &mut st.phi_buf);
            }
            Kind::CondBr {
                cond,
                then,
                els,
                block,
            } => {
                let c = frame.int(cond)? != 0;
                let e = if c { then } else { els };
                if let Some(p) = &mut st.profiles {
                    let fp = &mut p[func.index()];
                    fp.branch(block, c);
                    fp.block(e.target);
                }
                frame.take(body, e, &mut st.phi_buf);
            }
            Kind::Switch {
                value,
                default,
                cases,
            } => {
                let v = frame.int(value)?;
                let e = body.cases[cases.range()]
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map_or(default, |&(_, e)| e);
                if let Some(p) = &mut st.profiles {
                    p[func.index()].block(e.target);
                }
                frame.take(body, e, &mut st.phi_buf);
            }
            Kind::Fault(fault) => {
                let name = &st.module.func(func).name;
                return Err(RtError::Trap(match fault {
                    Fault::Unreachable => format!("unreachable executed in @{name}"),
                    Fault::FellOff(b) => format!("fell off block {b} in @{name}"),
                    Fault::NoBlock(b) => format!("branch to missing block {b} in @{name}"),
                }));
            }
        }
        Ok(())
    }
}

impl<'m> State<'m> {
    fn count(&mut self, c: Counter, by: u64) {
        *self.counters[c as usize].get_or_insert(0) += by;
    }

    /// A frame for `func`, its registers taken from the pool.
    fn frame(&mut self, func: FuncId, args: Vec<RtVal>, ret_to: Option<u32>) -> Frame {
        let f = self.module.func(func);
        if let Some(p) = &mut self.profiles {
            let fp = &mut p[func.index()];
            fp.invocations += 1;
            fp.block(f.entry());
        }
        let mut regs = self.pool.pop().unwrap_or_default();
        regs.clear();
        // A register that was never written reads 0.
        regs.resize(f.inst_arena_len(), RtVal::I(0));
        Frame {
            func,
            pc: 0,
            regs,
            args,
            ret_to,
            pending: InstId(0),
        }
    }

    /// Call `target` with the arguments in `self.args`, its result going to
    /// register `dst`: push its frame, or run the external it declares.
    fn call(
        &mut self,
        code: &mut Code<'m>,
        tid: usize,
        dst: u32,
        target: FuncId,
    ) -> Result<(), RtError> {
        let Some(callee) = self.module.functions().get(target.index()) else {
            return Err(RtError::Trap(format!(
                "call to missing function #{}",
                target.0
            )));
        };
        if callee.is_declaration() {
            let (ext, cost) = code.external(target);
            let args = std::mem::take(&mut self.args);
            let result = self.external(tid, dst, target, ext, cost, &args);
            self.args = args;
            // A blocked call completes when it is unblocked; either way the
            // task resumes at the next op.
            if let Some(frame) = self.tasks[tid].frames.last_mut() {
                frame.pc += 1;
            }
            if let Some(task) = result? {
                code.ensure(task, &self.mem);
            }
            return Ok(());
        }
        let mut argv = self.pool.pop().unwrap_or_default();
        argv.clear();
        argv.extend_from_slice(&self.args);
        let frame = self.frame(target, argv, Some(dst));
        let caller = &mut self.tasks[tid].frames;
        if let Some(top) = caller.last_mut() {
            top.pc += 1;
        }
        caller.push(frame);
        code.ensure(target, &self.mem);
        Ok(())
    }

    fn spawn_task(&mut self, func: FuncId, args: Vec<RtVal>, core: usize, clock: u64) -> usize {
        let frame = self.frame(func, args, None);
        let tid = self.tasks.len();
        self.tasks.push(TaskCtx {
            core,
            clock: Clock {
                now: clock,
                frac: 0.0,
                scale: 1.0,
            },
            frames: vec![frame],
            state: TaskState::Runnable,
            last_callback: None,
        });
        self.ready.push(Reverse((clock, tid)));
        tid
    }

    /// True if a blocked task can make progress now.
    fn is_ready(&self, tid: usize) -> bool {
        match self.tasks[tid].state {
            TaskState::Runnable => true,
            TaskState::BlockedPop(q) => !self.queues[q as usize].items.is_empty(),
            TaskState::BlockedPush(q, _) => {
                let qs = &self.queues[q as usize];
                qs.items.len() < qs.capacity
            }
            TaskState::BlockedSeg(seg, iter) => {
                self.segments.get(&seg).map_or(0, |s| s.count) >= iter
            }
            TaskState::BlockedJoin { first, n } => self.tasks[first..first + n]
                .iter()
                .all(|k| matches!(k.state, TaskState::Done(_))),
            TaskState::Done(_) => false,
        }
    }

    /// File a task that just blocked: ready, or waiting for an event.
    fn park(&mut self, tid: usize) {
        if self.is_ready(tid) {
            self.ready.push(Reverse((self.tasks[tid].clock.now, tid)));
        } else {
            self.blocked.push(tid);
        }
    }

    /// After a queue operation, a signal or a task's end: put every blocked
    /// task that can now make progress on the ready heap.
    fn wake(&mut self) {
        let mut i = 0;
        while i < self.blocked.len() {
            let tid = self.blocked[i];
            if self.is_ready(tid) {
                self.blocked.swap_remove(i);
                self.ready.push(Reverse((self.tasks[tid].clock.now, tid)));
            } else {
                i += 1;
            }
        }
    }

    /// The ready task with the smallest (clock, id), its blocked operation
    /// completed. A woken task that another has since overtaken waits again.
    fn next_ready(&mut self) -> Option<usize> {
        while let Some(Reverse((_, tid))) = self.ready.pop() {
            if self.is_ready(tid) {
                self.resume_if_blocked(tid);
                return Some(tid);
            }
            self.blocked.push(tid);
        }
        None
    }

    /// Complete a pending blocked operation whose condition is now true.
    fn resume_if_blocked(&mut self, tid: usize) {
        match self.tasks[tid].state {
            TaskState::BlockedPop(q) => {
                let Some((v, ready, producer)) = self.queues[q as usize].items.pop_front() else {
                    return;
                };
                let arch = &self.arch;
                let t = &mut self.tasks[tid];
                t.clock.now =
                    arch.arrival(t.clock.now, ready, producer, t.core) + arch.queue_op_cost;
                if let Some(frame) = t.frames.last_mut() {
                    frame.regs[frame.pending.index()] = RtVal::I(v);
                }
                t.state = TaskState::Runnable;
                self.wake();
            }
            TaskState::BlockedPush(q, v) => {
                let t = &mut self.tasks[tid];
                self.queues[q as usize]
                    .items
                    .push_back((v, t.clock.now, t.core));
                t.clock.now += self.arch.queue_op_cost;
                t.state = TaskState::Runnable;
                self.wake();
            }
            TaskState::BlockedSeg(seg, _) => {
                let t = &mut self.tasks[tid];
                if let Some(s) = self.segments.get(&seg) {
                    t.clock.now = self
                        .arch
                        .arrival(t.clock.now, s.last_time, s.last_core, t.core);
                }
                t.state = TaskState::Runnable;
            }
            TaskState::BlockedJoin { first, n } => {
                // The parent's clock has stood at the dispatch since.
                let (my_core, base) = (self.tasks[tid].core, self.tasks[tid].clock.now);
                let arch = &self.arch;
                let (mut end, mut last_child) = (base, base);
                for k in &self.tasks[first..first + n] {
                    end = arch.arrival(end, k.clock.now, k.core, my_core);
                    last_child = last_child.max(k.clock.now);
                }
                let spawn = arch.spawn_clock(n - 1);
                self.count(Counter::DispatchCycles, end - base);
                self.count(Counter::DispatchSpawnCycles, spawn);
                self.count(Counter::DispatchJoinCycles, end - last_child);
                let t = &mut self.tasks[tid];
                t.clock.now = end;
                t.state = TaskState::Runnable;
            }
            TaskState::Runnable | TaskState::Done(_) => {}
        }
    }

    fn write_reg(&mut self, tid: usize, dst: u32, v: RtVal) {
        if let Some(frame) = self.tasks[tid].frames.last_mut() {
            frame.regs[dst as usize] = v;
        }
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

    /// Run `ext`, the external `callee` declares, at `cost` on `args`.
    /// Returns the function a dispatch started tasks in, which the caller
    /// decodes.
    fn external(
        &mut self,
        tid: usize,
        dst: u32,
        callee: FuncId,
        ext: Ext,
        cost: u32,
        args: &[RtVal],
    ) -> Result<Option<FuncId>, RtError> {
        self.tasks[tid].clock.charge(u64::from(cost));
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
        match ext {
            Ext::Malloc => {
                let p = self.mem.bump(arg_i(0)?);
                self.write_reg(tid, dst, RtVal::I(p));
            }
            Ext::Calloc => {
                let p = self.mem.bump(arg_i(0)? * arg_i(1)?.max(1));
                self.write_reg(tid, dst, RtVal::I(p));
            }
            Ext::Free => {}
            Ext::PrintI64 => self.output.push(arg_i(0)?.to_string()),
            Ext::PrintF64 => self.output.push(format!("{:.6}", arg_f(0)?)),
            Ext::Math(f) => self.write_reg(tid, dst, RtVal::F(f(arg_f(0)?))),
            Ext::Pow => self.write_reg(tid, dst, RtVal::F(arg_f(0)?.powf(arg_f(1)?))),
            Ext::Prv => {
                let v = self.xorshift(arg_i(0)?);
                self.count(Counter::PrvCalls, 1);
                self.write_reg(tid, dst, RtVal::I(v));
            }
            Ext::Guard => {
                self.count(Counter::Guards, 1);
                let addr = arg_i(0)?;
                let len = arg_i(1)?.max(1);
                if !self.mem.in_bounds(addr, len) {
                    return Err(RtError::GuardFault(format!(
                        "guard rejected [{addr:#x}; {len})"
                    )));
                }
            }
            Ext::Callback => {
                self.count(Counter::Callbacks, 1);
                let now = self.tasks[tid].clock.now;
                if let Some(prev) = self.tasks[tid].last_callback {
                    let gap = now.saturating_sub(prev);
                    let max = &mut self.counters[Counter::MaxCallbackGap as usize];
                    if gap > max.unwrap_or(0) {
                        *max = Some(gap);
                    }
                }
                self.tasks[tid].last_callback = Some(now);
            }
            Ext::ClockSet => {
                let pct = arg_i(0)?.clamp(50, 200) as f64;
                self.tasks[tid].clock.scale = pct / 100.0;
                self.count(Counter::ClockSets, 1);
            }
            Ext::QueueCreate => {
                let qid = self.queues.len() as i64;
                self.queues.push(QueueState {
                    items: VecDeque::new(),
                    capacity: arg_i(0)?.max(1) as usize,
                });
                self.count(Counter::Queues, 1);
                self.write_reg(tid, dst, RtVal::I(qid));
            }
            Ext::QueuePush => {
                self.count(Counter::QueueOps, 1);
                let q = arg_i(0)?;
                let v = arg_i(1)?;
                let qs = self
                    .queues
                    .get_mut(q as usize)
                    .ok_or_else(|| RtError::Trap(format!("push to unknown queue {q}")))?;
                if qs.items.len() < qs.capacity {
                    let t = &mut self.tasks[tid];
                    qs.items.push_back((v, t.clock.now, t.core));
                    t.clock.charge(self.arch.queue_op_cost);
                    self.wake();
                } else {
                    self.tasks[tid].state = TaskState::BlockedPush(q, v);
                }
            }
            Ext::QueuePop => {
                self.count(Counter::QueueOps, 1);
                let q = arg_i(0)?;
                let qs = self
                    .queues
                    .get_mut(q as usize)
                    .ok_or_else(|| RtError::Trap(format!("pop from unknown queue {q}")))?;
                let t = &mut self.tasks[tid];
                match qs.items.pop_front() {
                    None => {
                        // The value is delivered when the pop resumes.
                        t.state = TaskState::BlockedPop(q);
                        if let Some(frame) = t.frames.last_mut() {
                            frame.pending = InstId(dst);
                        }
                    }
                    Some((v, ready, producer)) => {
                        let arch = &self.arch;
                        t.clock.now =
                            arch.arrival(t.clock.now, ready, producer, t.core) + arch.queue_op_cost;
                        self.write_reg(tid, dst, RtVal::I(v));
                        self.wake();
                    }
                }
            }
            Ext::SsWait => {
                let seg = arg_i(0)?;
                let iter = arg_i(1)?;
                let s = self.segments.entry(seg).or_default();
                let t = &mut self.tasks[tid];
                if s.count >= iter {
                    if iter > 0 {
                        t.clock.now =
                            self.arch
                                .arrival(t.clock.now, s.last_time, s.last_core, t.core);
                    }
                } else {
                    t.state = TaskState::BlockedSeg(seg, iter);
                }
            }
            Ext::SsSignal => {
                let seg = arg_i(0)?;
                let t = &self.tasks[tid];
                let s = self.segments.entry(seg).or_default();
                s.count += 1;
                s.last_time = t.clock.now;
                s.last_core = t.core;
                self.wake();
            }
            Ext::Dispatch => {
                // Sequential-segment state is per parallel region; the
                // dispatcher joins its children before returning, so a fresh
                // region must not observe stale signal counts.
                self.segments.clear();
                let fp = arg_i(0)?;
                let env = arg_i(1)?;
                let n = arg_i(2)?.max(1) as usize;
                let target = decode_func_ptr(fp)
                    .filter(|f| {
                        let defined = self.module.functions().get(f.index());
                        defined.is_some_and(|f| !f.is_declaration())
                    })
                    .ok_or_else(|| RtError::Trap("dispatch of non-function".into()))?;
                self.count(Counter::Tasks, n as u64);
                let base_clock = self.tasks[tid].clock.now;
                let first = self.tasks.len();
                for i in 0..n {
                    let core = self.arch.task_core(i);
                    let clock = base_clock + self.arch.spawn_clock(i);
                    let mut argv = self.pool.pop().unwrap_or_default();
                    argv.clear();
                    argv.extend([RtVal::I(env), RtVal::I(i as i64), RtVal::I(n as i64)]);
                    self.spawn_task(target, argv, core, clock);
                }
                self.tasks[tid].state = TaskState::BlockedJoin { first, n };
                return Ok(Some(target));
            }
            Ext::Unknown => {
                return Err(RtError::UnknownExternal(
                    self.module.func(callee).name.clone(),
                ))
            }
        }
        Ok(None)
    }
}

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

    /// A logical shift right fills with zeros from the operand's own width:
    /// the sign extension the payload carries above it does not shift in.
    #[test]
    fn lshr_shifts_the_bits_of_its_width() {
        let rows = [
            ("i8", "-128", 64),
            ("i32", "-1", 2_147_483_647),
            ("i16", "-2", 32_767),
            ("i64", "-8", 9_223_372_036_854_775_804),
        ];
        for (ty, x, want) in rows {
            let r = run_src(&format!(
                r#"
module "t" {{
define i64 @main() {{
entry:
  %s = lshr {ty} {ty} {x}, {ty} 1
  %r = sext {ty} %s to i64
  ret %r
}}
}}
"#
            ));
            assert_eq!(r.ret_i64(), Some(want), "lshr {ty} {x}, 1");
        }
    }
}
