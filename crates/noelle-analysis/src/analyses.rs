//! Canned data-flow analyses built on the [DFE](crate::dfe).
//!
//! The paper notes NOELLE "provides a set of common data flow analyses that
//! rely on DFE"; these are the ones the custom tools consume: liveness (ENV,
//! scheduler) and reaching stores (CARAT, COOS).

use crate::dfe::{BitSet, DataFlowEngine, DataFlowProblem, Direction, Meet};
use noelle_ir::cfg::Cfg;
use noelle_ir::inst::{Inst, InstId};
use noelle_ir::module::{BlockId, Function};
use noelle_ir::value::Value;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// Live-variable analysis over SSA values (arguments and instruction
/// results).
///
/// Phi operands are conservatively treated as used at the head of the phi's
/// block, which slightly over-approximates liveness along the other incoming
/// edges — safe for every consumer in this code base (environment sizing and
/// scheduling legality).
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Values live on entry to each block.
    pub live_in: HashMap<BlockId, HashSet<Value>>,
    /// Values live on exit from each block.
    pub live_out: HashMap<BlockId, HashSet<Value>>,
}

struct LivenessProblem<'f> {
    f: &'f Function,
    index_of: HashMap<Value, usize>,
    n: usize,
}

impl LivenessProblem<'_> {
    fn gen_kill(&self, b: BlockId) -> (BitSet, BitSet) {
        // Walk the block backwards accumulating upward-exposed uses.
        let mut gen = BitSet::new(self.n);
        let mut kill = BitSet::new(self.n);
        for &id in self.f.block(b).insts.iter().rev() {
            if let Some(&di) = self.index_of.get(&Value::Inst(id)) {
                kill.insert(di);
                gen.remove(di);
            }
            self.f.inst(id).for_each_operand(|op| {
                if let Some(&ui) = self.index_of.get(&op) {
                    gen.insert(ui);
                }
            });
        }
        (gen, kill)
    }
}

impl DataFlowProblem for LivenessProblem<'_> {
    fn universe(&self) -> usize {
        self.n
    }
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn meet(&self) -> Meet {
        Meet::Union
    }
    fn gen_of(&self, b: BlockId) -> BitSet {
        self.gen_kill(b).0
    }
    fn kill_of(&self, b: BlockId) -> BitSet {
        self.gen_kill(b).1
    }
}

impl Liveness {
    /// Compute liveness for `f`.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        // Universe: arguments + value-producing instructions.
        let mut values: Vec<Value> = (0..f.params.len() as u32).map(Value::Arg).collect();
        for id in f.inst_iter() {
            if f.inst(id).has_result() {
                values.push(Value::Inst(id));
            }
        }
        let index_of: HashMap<Value, usize> =
            values.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let problem = LivenessProblem {
            f,
            index_of: index_of.clone(),
            n: values.len(),
        };
        let res = DataFlowEngine::new().solve(f, cfg, &problem);
        let to_set = |bits: &BitSet| -> HashSet<Value> { bits.iter().map(|i| values[i]).collect() };
        Liveness {
            live_in: res.inb.iter().map(|(&b, s)| (b, to_set(s))).collect(),
            live_out: res.outb.iter().map(|(&b, s)| (b, to_set(s))).collect(),
        }
    }

    /// True if `v` is live on entry to `b`.
    pub fn is_live_in(&self, b: BlockId, v: Value) -> bool {
        self.live_in
            .get(&b)
            .map(|s| s.contains(&v))
            .unwrap_or(false)
    }

    /// True if `v` is live on exit from `b`.
    pub fn is_live_out(&self, b: BlockId, v: Value) -> bool {
        self.live_out
            .get(&b)
            .map(|s| s.contains(&v))
            .unwrap_or(false)
    }
}

// ---------------------------------------------------------------------------
// Reaching stores
// ---------------------------------------------------------------------------

/// Forward "reaching stores" analysis: which store instructions may reach
/// each block entry without an intervening store to the *same* pointer value.
///
/// Kills are syntactic (identical pointer `Value`), which is sound: a store
/// kills at least itself.
#[derive(Clone, Debug)]
pub struct ReachingStores {
    /// Stores reaching each block entry.
    pub reach_in: HashMap<BlockId, HashSet<InstId>>,
    /// Stores reaching each block exit.
    pub reach_out: HashMap<BlockId, HashSet<InstId>>,
    stores: Vec<InstId>,
}

struct ReachingProblem<'f> {
    f: &'f Function,
    stores: Vec<InstId>,
    index_of: HashMap<InstId, usize>,
    by_ptr: HashMap<Value, Vec<usize>>,
}

impl DataFlowProblem for ReachingProblem<'_> {
    fn universe(&self) -> usize {
        self.stores.len()
    }
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Union
    }
    fn gen_of(&self, b: BlockId) -> BitSet {
        let mut gen = BitSet::new(self.stores.len());
        for &id in &self.f.block(b).insts {
            if let Inst::Store { ptr, .. } = self.f.inst(id) {
                // A later store to the same pointer kills earlier gens.
                if let Some(group) = self.by_ptr.get(ptr) {
                    for &g in group {
                        gen.remove(g);
                    }
                }
                gen.insert(self.index_of[&id]);
            }
        }
        gen
    }
    fn kill_of(&self, b: BlockId) -> BitSet {
        let mut kill = BitSet::new(self.stores.len());
        for &id in &self.f.block(b).insts {
            if let Inst::Store { ptr, .. } = self.f.inst(id) {
                if let Some(group) = self.by_ptr.get(ptr) {
                    for &g in group {
                        kill.insert(g);
                    }
                }
            }
        }
        kill
    }
}

impl ReachingStores {
    /// Compute reaching stores for `f`.
    pub fn compute(f: &Function, cfg: &Cfg) -> ReachingStores {
        let stores: Vec<InstId> = f
            .inst_iter()
            .filter(|&i| matches!(f.inst(i), Inst::Store { .. }))
            .collect();
        let index_of: HashMap<InstId, usize> =
            stores.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut by_ptr: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, &s) in stores.iter().enumerate() {
            if let Inst::Store { ptr, .. } = f.inst(s) {
                by_ptr.entry(*ptr).or_default().push(i);
            }
        }
        let problem = ReachingProblem {
            f,
            stores: stores.clone(),
            index_of,
            by_ptr,
        };
        let res = DataFlowEngine::new().solve(f, cfg, &problem);
        let to_set =
            |bits: &BitSet| -> HashSet<InstId> { bits.iter().map(|i| stores[i]).collect() };
        ReachingStores {
            reach_in: res.inb.iter().map(|(&b, s)| (b, to_set(s))).collect(),
            reach_out: res.outb.iter().map(|(&b, s)| (b, to_set(s))).collect(),
            stores,
        }
    }

    /// All store instructions of the function, in layout order.
    pub fn stores(&self) -> &[InstId] {
        &self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::types::Type;

    #[test]
    fn liveness_in_loop() {
        // n is live throughout the loop; i2 is live only across the back edge.
        let mut b = FunctionBuilder::new("f", vec![("n", Type::I64)], Type::I64);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        let n = Value::Arg(0);
        assert!(lv.is_live_in(header, n));
        assert!(lv.is_live_in(body, n)); // needed next iteration
        assert!(!lv.is_live_in(exit, n));
        assert!(lv.is_live_out(body, i2));
        assert!(lv.is_live_in(exit, i)); // returned
    }

    #[test]
    fn liveness_dead_value_not_live() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let dead = b.binop(
            BinOp::Add,
            Type::I64,
            Value::const_i64(1),
            Value::const_i64(2),
        );
        let live = b.binop(
            BinOp::Add,
            Type::I64,
            Value::const_i64(3),
            Value::const_i64(4),
        );
        b.ret(Some(live));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.is_live_out(entry, dead));
        // `live` is consumed by the terminator inside the same block, so it
        // is not live-out either.
        assert!(!lv.is_live_out(entry, live));
    }

    #[test]
    fn reaching_stores_killed_by_same_pointer() {
        // store 1 -> p; store 2 -> p; only the second reaches the exit block.
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        let next = b.block("next");
        b.switch_to(entry);
        let p = b.alloca(Type::I64);
        b.store(Type::I64, Value::const_i64(1), p);
        b.store(Type::I64, Value::const_i64(2), p);
        b.br(next);
        b.switch_to(next);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rs = ReachingStores::compute(&f, &cfg);
        assert_eq!(rs.stores().len(), 2);
        let reach = &rs.reach_in[&next];
        assert_eq!(reach.len(), 1);
        assert!(reach.contains(&rs.stores()[1]));
    }

    #[test]
    fn reaching_stores_merge_at_join() {
        // Two stores on different branches both reach the join.
        let mut b = FunctionBuilder::new("f", vec![("c", Type::I1)], Type::Void);
        let entry = b.entry_block();
        let l = b.block("l");
        let r = b.block("r");
        let j = b.block("j");
        b.switch_to(entry);
        let p = b.alloca(Type::I64);
        let q = b.alloca(Type::I64);
        b.cond_br(b.arg(0), l, r);
        b.switch_to(l);
        b.store(Type::I64, Value::const_i64(1), p);
        b.br(j);
        b.switch_to(r);
        b.store(Type::I64, Value::const_i64(2), q);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rs = ReachingStores::compute(&f, &cfg);
        assert_eq!(rs.reach_in[&j].len(), 2);
    }
}
