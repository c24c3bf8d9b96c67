//! Control-flow-graph utilities: predecessor and successor lists, reverse
//! postorder, reachability.

use crate::module::{BlockId, Function};
use std::collections::HashMap;

/// Per-block lists of blocks, flattened: block `b`'s list is
/// `blocks[off[b]..off[b + 1]]`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Adjacency {
    off: Vec<u32>,
    blocks: Vec<BlockId>,
}

impl Adjacency {
    /// The lists of `n` blocks from `(block index, member)` pairs; a list
    /// holds its members in the order the pairs name them.
    pub(crate) fn group(
        n: usize,
        pairs: impl Iterator<Item = (usize, BlockId)> + Clone,
    ) -> Adjacency {
        let mut lists = Adjacency::default();
        lists.regroup(n, pairs);
        lists
    }

    /// [`Adjacency::group`] in place, keeping the storage of the lists
    /// this value held before.
    pub(crate) fn regroup(
        &mut self,
        n: usize,
        pairs: impl Iterator<Item = (usize, BlockId)> + Clone,
    ) {
        // Counting sort: count into the slot above, prefix-sum into list
        // starts, fill with each start as the write cursor — which leaves it
        // at the list's end, the next list's start — and shift back.
        let off = &mut self.off;
        off.clear();
        off.resize(n + 1, 0);
        for (at, _) in pairs.clone() {
            off[at + 1] += 1;
        }
        for b in 0..n {
            off[b + 1] += off[b];
        }
        self.blocks.clear();
        self.blocks.resize(off[n] as usize, BlockId(0));
        for (at, member) in pairs {
            let cursor = &mut off[at];
            self.blocks[*cursor as usize] = member;
            *cursor += 1;
        }
        off.rotate_right(1);
        off[0] = 0;
    }

    /// The list of `b`; empty for a block the lists were not sized for.
    pub(crate) fn of(&self, b: BlockId) -> &[BlockId] {
        match (self.off.get(b.index()), self.off.get(b.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.blocks[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Predecessor/successor lists of a function's CFG, computed once.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Successors of each laid-out block, in terminator order.
    succs: Adjacency,
    /// Predecessors of each block, in layout order.
    preds: Adjacency,
    /// Blocks reachable from the entry, in reverse postorder.
    pub rpo: Vec<BlockId>,
    /// Per block index: reachable from the entry.
    reachable: Vec<bool>,
}

impl Cfg {
    /// Compute the CFG of `f`.
    ///
    /// # Panics
    /// Panics if `f` is a declaration.
    pub fn new(f: &Function) -> Cfg {
        assert!(!f.is_declaration(), "cannot build a CFG for a declaration");
        let n = f.num_blocks();
        // Every CFG edge: blocks in layout order, each one's successors in
        // terminator order.
        let mut edges: Vec<(BlockId, BlockId)> = Vec::with_capacity(2 * f.block_order().len());
        for &b in f.block_order() {
            if let Some(t) = f.terminator(b) {
                t.for_each_successor(|s| edges.push((b, s)));
            }
        }
        let succs = Adjacency::group(n, edges.iter().map(|&(b, s)| (b.index(), s)));
        let preds = Adjacency::group(n, edges.iter().map(|&(b, s)| (s.index(), b)));

        // Iterative DFS from the entry with an explicit stack of (block,
        // next-successor-index); reversed postorder.
        let mut rpo = Vec::with_capacity(f.block_order().len());
        let mut reachable = vec![false; n];
        let entry = f.entry();
        let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(f.block_order().len());
        stack.push((entry, 0));
        reachable[entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succs.of(b).get(*next) {
                *next += 1;
                if !std::mem::replace(&mut reachable[s.index()], true) {
                    stack.push((s, 0));
                }
            } else {
                rpo.push(b);
                stack.pop();
            }
        }
        rpo.reverse();
        Cfg {
            succs,
            preds,
            rpo,
            reachable,
        }
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.of(b)
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.of(b)
    }

    /// Blocks with no successors (function exits).
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        self.rpo
            .iter()
            .copied()
            .filter(|b| self.succs(*b).is_empty())
            .collect()
    }

    /// True if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable.get(b.index()).is_some_and(|&r| r)
    }

    /// Position of each block in the reverse postorder (for priority-ordered
    /// data-flow work lists).
    pub fn rpo_index(&self) -> HashMap<BlockId, usize> {
        self.rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;
    use crate::value::Value;

    /// Build a diamond CFG: entry -> (left | right) -> join.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("diamond", vec![("c", Type::I1)], Type::Void);
        let entry = b.entry_block();
        let left = b.block("left");
        let right = b.block("right");
        let join = b.block("join");
        b.switch_to(entry);
        b.cond_br(b.arg(0), left, right);
        b.switch_to(left);
        b.br(join);
        b.switch_to(right);
        b.br(join);
        b.switch_to(join);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn diamond_cfg_shape() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let entry = f.entry();
        assert_eq!(cfg.succs(entry).len(), 2);
        assert!(cfg.preds(entry).is_empty());
        let join = f.block_order()[3];
        assert_eq!(cfg.preds(join).len(), 2);
        assert_eq!(cfg.exit_blocks(), vec![join]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo[0], f.entry());
        assert_eq!(cfg.rpo.len(), 4);
        // RPO property: every block appears after at least one predecessor
        // (except the entry and loop headers; the diamond has no loops).
        let idx = cfg.rpo_index();
        for &b in &cfg.rpo {
            if b == f.entry() {
                continue;
            }
            assert!(cfg.preds(b).iter().any(|p| idx[p] < idx[&b]));
        }
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        let dead = b.block("dead");
        b.switch_to(entry);
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(entry));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo, [entry]);
    }

    #[test]
    fn self_loop_is_handled() {
        let mut b = FunctionBuilder::new("f", vec![("c", Type::I1)], Type::Void);
        let entry = b.entry_block();
        let looping = b.block("loop");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(looping);
        b.switch_to(looping);
        b.cond_br(b.arg(0), looping, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert!(cfg.preds(looping).contains(&looping));
        assert_eq!(cfg.rpo.len(), 3);
        let _ = Value::const_i64(0);
    }
}
