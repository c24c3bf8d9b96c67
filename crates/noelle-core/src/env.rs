//! The Environment (ENV) abstraction.
//!
//! "An array of pointers of variables. Variables within an Environment
//! represent the incoming and outgoing values from and to a set of
//! instructions." Parallelization techniques use environments to propagate
//! values explicitly between cores: live-ins are stored into the array by
//! the dispatcher and loaded by tasks; live-outs flow the other way.
//!
//! Every slot is 64 bits; values of other types are converted with explicit
//! casts by the [`EnvironmentBuilder`] helpers.

use crate::architecture::{CAST_CYCLES, GEP_CYCLES, MEM_CYCLES};
use crate::loop_abs::LoopBuffers;
use noelle_ir::inst::{CastOp, Inst, InstId};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::{BlockId, Function};
use noelle_ir::types::Type;
use noelle_ir::value::Value;

/// Live-in and live-out variables of a code region.
#[derive(Clone, Debug, Default)]
pub struct Environment {
    /// Values defined outside the region and used inside, in slot order.
    pub live_ins: Vec<(Value, Type)>,
    /// Values defined inside the region and used outside, in slot order.
    pub live_outs: Vec<(Value, Type)>,
}

impl Environment {
    /// Compute the environment of loop `l` in `f`: live-ins are the values
    /// defined outside the loop (arguments included) used by loop
    /// instructions; live-outs are loop-defined values used beyond the loop.
    pub fn for_loop(m: &noelle_ir::Module, f: &Function, l: &LoopInfo) -> Environment {
        Environment::for_loop_in(m, f, l, &mut LoopBuffers::default())
    }

    /// [`Environment::for_loop`] working in `buf`: the marks and the slots
    /// as found live there, and each list is built at its exact size.
    pub fn for_loop_in(
        m: &noelle_ir::Module,
        f: &Function,
        l: &LoopInfo,
        buf: &mut LoopBuffers,
    ) -> Environment {
        let LoopBuffers {
            in_loop,
            seen,
            slots,
            ..
        } = buf;
        // A mark per block of the loop, and a mark per value once it has a
        // slot: instructions by arena index, arguments after them.
        in_loop.clear();
        in_loop.resize(f.num_blocks(), false);
        for &b in &l.blocks {
            in_loop[b.index()] = true;
        }
        let defined_in_loop = |d: InstId| in_loop[f.parent_block(d).index()];
        let args = f.inst_arena_len();
        seen.clear();
        seen.resize(args + f.params.len(), false);
        slots.clear();
        for &b in f.block_order() {
            let inside = in_loop[b.index()];
            for &id in &f.block(b).insts {
                f.inst(id).for_each_operand(|op| {
                    let mark = match op {
                        // Operands defined outside are live-ins. Phi
                        // incomings from outside blocks count too.
                        Value::Arg(i) if inside => args + i as usize,
                        // Uses outside the loop of loop-defined values are
                        // live-outs.
                        Value::Inst(d) if inside != defined_in_loop(d) => d.index(),
                        _ => return, // constants/globals need no slot
                    };
                    if !std::mem::replace(&mut seen[mark], true) {
                        slots.push((inside, op, f.value_type(m, op)));
                    }
                });
            }
        }
        let section = |live_in: bool| {
            let of = || slots.iter().filter(move |s| s.0 == live_in);
            let mut out = Vec::with_capacity(of().count());
            out.extend(of().map(|(_, v, ty)| (*v, ty.clone())));
            out
        };
        Environment {
            live_ins: section(true),
            live_outs: section(false),
        }
    }

    /// Slot index of live-in `v`.
    pub fn live_in_slot(&self, v: Value) -> Option<usize> {
        self.live_ins.iter().position(|(x, _)| *x == v)
    }

    /// Index of live-out `v` within the live-out section.
    pub fn live_out_index(&self, v: Value) -> Option<usize> {
        self.live_outs.iter().position(|(x, _)| *x == v)
    }

    /// First slot of the live-out section.
    pub fn live_out_base(&self) -> usize {
        self.live_ins.len()
    }

    /// Total slots needed when live-outs are replicated per task.
    pub fn num_slots(&self, n_tasks: usize) -> usize {
        self.live_ins.len() + self.live_outs.len() * n_tasks
    }

    /// Cycles of the instructions [`EnvironmentBuilder::store_slot`] or
    /// [`EnvironmentBuilder::load_slot`] writes for a value of type `ty`:
    /// the slot's address, the access, and the casts between `ty` and the
    /// 64-bit slot.
    pub fn slot_cycles(ty: &Type) -> u64 {
        use noelle_ir::types::{FloatWidth, IntWidth};
        let casts = match ty {
            Type::Int(IntWidth::I64) => 0,
            Type::Float(FloatWidth::F32) => 2,
            _ => 1,
        };
        GEP_CYCLES + MEM_CYCLES + casts * CAST_CYCLES
    }
}

/// Helpers that materialize environment traffic in the IR: allocation,
/// slot stores, and slot loads — the paper's *Environment Builder*.
pub struct EnvironmentBuilder;

impl EnvironmentBuilder {
    /// The most instructions [`EnvironmentBuilder::store_slot`] or
    /// [`EnvironmentBuilder::load_slot`] writes for one slot: the slot's
    /// address, the access, and the two casts an `f32` takes. Emitters size
    /// the blocks they fill with it.
    pub const MAX_SLOT_ACCESS_LEN: usize = 4;

    /// Allocate an environment of `slots` 64-bit entries at the end of
    /// `block` (before its terminator, if any). Returns the `i64*` base.
    pub fn alloc(f: &mut Function, block: BlockId, slots: usize) -> Value {
        let pos = insert_pos(f, block);
        let id = f.insert_inst(
            block,
            pos,
            Inst::Alloca {
                ty: Type::I64,
                count: Value::const_i64(slots as i64),
            },
        );
        Value::Inst(id)
    }

    /// Convert `v` of type `ty` to the `i64` a slot (or a queue) carries,
    /// inserting casts at `pos` in `block`. Returns the converted value and
    /// the next insertion position.
    pub fn to_slot_value(
        f: &mut Function,
        block: BlockId,
        mut pos: usize,
        v: Value,
        ty: &Type,
    ) -> (Value, usize) {
        let cast = |f: &mut Function, pos: &mut usize, op, from: Type, to: Type, val| {
            let id = f.insert_inst(block, *pos, Inst::Cast { op, from, to, val });
            *pos += 1;
            Value::Inst(id)
        };
        let out = match ty {
            Type::Int(noelle_ir::types::IntWidth::I64) => v,
            Type::Int(_) => cast(f, &mut pos, CastOp::Sext, ty.clone(), Type::I64, v),
            Type::Float(noelle_ir::types::FloatWidth::F64) => {
                cast(f, &mut pos, CastOp::Bitcast, Type::F64, Type::I64, v)
            }
            Type::Float(_) => {
                let w = cast(f, &mut pos, CastOp::FpExt, Type::F32, Type::F64, v);
                cast(f, &mut pos, CastOp::Bitcast, Type::F64, Type::I64, w)
            }
            _ => cast(f, &mut pos, CastOp::PtrToInt, ty.clone(), Type::I64, v),
        };
        (out, pos)
    }

    /// Convert an `i64` slot value back to type `ty`: the inverse of
    /// [`EnvironmentBuilder::to_slot_value`].
    pub fn from_slot_value(
        f: &mut Function,
        block: BlockId,
        mut pos: usize,
        v: Value,
        ty: &Type,
    ) -> (Value, usize) {
        let cast = |f: &mut Function, pos: &mut usize, op, from: Type, to: Type, val| {
            let id = f.insert_inst(block, *pos, Inst::Cast { op, from, to, val });
            *pos += 1;
            Value::Inst(id)
        };
        let out = match ty {
            Type::Int(noelle_ir::types::IntWidth::I64) => v,
            Type::Int(_) => cast(f, &mut pos, CastOp::Trunc, Type::I64, ty.clone(), v),
            Type::Float(noelle_ir::types::FloatWidth::F64) => {
                cast(f, &mut pos, CastOp::Bitcast, Type::I64, Type::F64, v)
            }
            Type::Float(_) => {
                let w = cast(f, &mut pos, CastOp::Bitcast, Type::I64, Type::F64, v);
                cast(f, &mut pos, CastOp::FpTrunc, Type::F64, Type::F32, w)
            }
            _ => cast(f, &mut pos, CastOp::IntToPtr, Type::I64, ty.clone(), v),
        };
        (out, pos)
    }

    /// Store `v` (of type `ty`) into slot `slot` of `env`, appending the
    /// instructions at the end of `block` (before its terminator).
    pub fn store_slot(
        f: &mut Function,
        block: BlockId,
        env: Value,
        slot: Value,
        v: Value,
        ty: &Type,
    ) {
        let pos = insert_pos(f, block);
        let (raw, pos) = Self::to_slot_value(f, block, pos, v, ty);
        let gep = f.insert_inst(
            block,
            pos,
            Inst::Gep {
                base: env,
                base_ty: Type::I64,
                indices: vec![slot],
            },
        );
        f.insert_inst(
            block,
            pos + 1,
            Inst::Store {
                val: raw,
                ptr: Value::Inst(gep),
                ty: Type::I64,
            },
        );
    }

    /// Load slot `slot` of `env` as a value of type `ty`, appending at the
    /// end of `block` (before its terminator).
    pub fn load_slot(
        f: &mut Function,
        block: BlockId,
        env: Value,
        slot: Value,
        ty: &Type,
    ) -> Value {
        let pos = insert_pos(f, block);
        let gep = f.insert_inst(
            block,
            pos,
            Inst::Gep {
                base: env,
                base_ty: Type::I64,
                indices: vec![slot],
            },
        );
        let load = f.insert_inst(
            block,
            pos + 1,
            Inst::Load {
                ty: Type::I64,
                ptr: Value::Inst(gep),
            },
        );
        let (v, _) = Self::from_slot_value(f, block, pos + 2, Value::Inst(load), ty);
        v
    }
}

/// Insertion position at the end of `block`, before any terminator.
fn insert_pos(f: &Function, block: BlockId) -> usize {
    let insts = &f.block(block).insts;
    match insts.last() {
        Some(&last) if f.inst(last).is_terminator() => insts.len() - 1,
        _ => insts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::loops::LoopForest;
    use noelle_ir::module::Module;

    #[test]
    fn loop_environment_live_ins_and_outs() {
        // for (i=0; i<n; i++) sum += a[i]; return sum
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
        let l = &forest.loops()[0];
        let env = Environment::for_loop(&m, f, l);
        // Live-ins: a and n.
        assert_eq!(env.live_ins.len(), 2);
        assert!(env.live_in_slot(Value::Arg(0)).is_some());
        assert!(env.live_in_slot(Value::Arg(1)).is_some());
        // Live-out: sum (used by ret).
        assert_eq!(env.live_outs.len(), 1);
        assert_eq!(env.live_out_index(sum), Some(0));
        assert_eq!(env.live_out_base(), 2);
        assert_eq!(env.num_slots(4), 2 + 4);
    }

    #[test]
    fn env_builder_round_trips_types() {
        // Store + load each scalar type through an env slot; then verify.
        let types = [
            Type::I64,
            Type::F64,
            Type::I64.ptr_to(),
            Type::I32,
            Type::F32,
        ];
        let mut m = Module::new("t");
        let params = ["x", "y", "p", "s", "z"].into_iter().zip(types.clone());
        let mut b = FunctionBuilder::new("f", params.collect(), Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func_mut(fid);
        let entry = f.entry();
        let env = EnvironmentBuilder::alloc(f, entry, types.len());
        let mut longest = 0;
        for (i, ty) in types.iter().enumerate() {
            let slot = Value::const_i64(i as i64);
            let before = f.block(entry).insts.len();
            EnvironmentBuilder::store_slot(f, entry, env, slot, Value::Arg(i as u32), ty);
            let stored = f.block(entry).insts.len();
            let _v = EnvironmentBuilder::load_slot(f, entry, env, slot, ty);
            let loaded = f.block(entry).insts.len();
            longest = longest.max(stored - before).max(loaded - stored);
        }
        // The emitters reserve by this bound: it must hold, and be tight.
        assert_eq!(longest, EnvironmentBuilder::MAX_SLOT_ACCESS_LEN);
        noelle_ir::verifier::verify_module(&m).expect("casts type-check");
    }

    #[test]
    fn insert_pos_respects_terminator() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func_mut(fid);
        let entry = f.entry();
        let env = EnvironmentBuilder::alloc(f, entry, 1);
        // The alloca must precede the ret.
        let insts = &f.block(entry).insts;
        assert_eq!(insts.len(), 2);
        assert_eq!(Value::Inst(insts[0]), env);
        assert!(f.inst(insts[1]).is_terminator());
    }
}
