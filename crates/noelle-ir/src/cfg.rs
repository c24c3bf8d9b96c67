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
    /// Make these the lists of `n` blocks from `(block index, member)`
    /// pairs, keeping the storage they held before; a list holds its members
    /// in the order the pairs name them.
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

    /// Room for the lists of `n` blocks holding `members` in all.
    pub(crate) fn reserve(&mut self, n: usize, members: usize) {
        room(&mut self.off, n + 1);
        room(&mut self.blocks, members);
    }

    /// The list of `b`; empty for a block the lists were not sized for.
    pub(crate) fn of(&self, b: BlockId) -> &[BlockId] {
        match (self.off.get(b.index()), self.off.get(b.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.blocks[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Make `v` hold at least `n` elements without growing.
pub(crate) fn room<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

/// The working storage of the structure builds of a function body —
/// [`Cfg::rebuild`], [`crate::dom::DomTree::rebuild`] and
/// [`crate::loops::LoopForest::rebuild`] — kept between builds by a caller
/// that builds many (the manager, the verifier). Each build clears what it
/// uses before reading it and never shrinks it, so the set is bounded by the
/// largest body built, and a structure holds only what it keeps. Nothing one
/// build leaves here reaches the next.
#[derive(Debug, Default)]
pub struct StructureBuffers {
    /// Every CFG edge: blocks in layout order, each one's successors in
    /// terminator order; then one loop's exit edges.
    pub(crate) edges: Vec<(BlockId, BlockId)>,
    /// The CFG's depth-first walk: `(block, next successor)`.
    pub(crate) walk: Vec<(BlockId, usize)>,
    /// The CFG walk's postorder; the loop forest's body walk.
    pub(crate) blocks: Vec<BlockId>,
    /// The reverse postorder as node numbers, for the dominator build.
    pub(crate) rpo: Vec<u32>,
    /// The dominator build's reverse-postorder positions.
    pub(crate) rpo_pos: Vec<u32>,
    /// The dominator tree numbering's DFS stack.
    pub(crate) number: Vec<(u32, bool)>,
    /// The loop forest's back edges, `(header, latch)`.
    pub(crate) pairs: Vec<(BlockId, BlockId)>,
    /// The blocks of the loop being collected.
    pub(crate) members: Vec<BlockId>,
    /// Per block: in the loop being collected.
    pub(crate) marks: Vec<bool>,
}

/// Predecessor/successor lists of a function's CFG, computed once.
///
/// The default value is the CFG of no function: every block has no
/// predecessor and no successor, and none is reachable. [`Cfg::rebuild`]
/// makes a CFG the CFG of another function in the storage it holds.
#[derive(Clone, Debug, Default)]
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

impl StructureBuffers {
    /// Room for the builds of a body of `blocks` blocks and `edges` edges.
    pub(crate) fn reserve(&mut self, blocks: usize, edges: usize) {
        room(&mut self.edges, edges);
        room(&mut self.walk, blocks);
        room(&mut self.blocks, blocks);
        room(&mut self.rpo, blocks);
        room(&mut self.rpo_pos, blocks);
        room(&mut self.number, blocks);
    }
}

impl Cfg {
    /// Room for the CFG of a body of `blocks` blocks and `edges` edges.
    pub(crate) fn reserve(&mut self, blocks: usize, edges: usize) {
        self.succs.reserve(blocks, edges);
        self.preds.reserve(blocks, edges);
        room(&mut self.rpo, blocks);
        room(&mut self.reachable, blocks);
    }

    /// Compute the CFG of `f`.
    ///
    /// # Panics
    /// Panics if `f` is a declaration.
    pub fn new(f: &Function) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.rebuild(f, &mut StructureBuffers::default());
        cfg
    }

    /// Make this the CFG of `f`, reusing the storage it holds and working
    /// in `buf`. A fresh CFG built this way holds each list at its exact
    /// size.
    ///
    /// # Panics
    /// Panics if `f` is a declaration.
    pub fn rebuild(&mut self, f: &Function, buf: &mut StructureBuffers) {
        assert!(!f.is_declaration(), "cannot build a CFG for a declaration");
        let n = f.num_blocks();
        let edges = &mut buf.edges;
        edges.clear();
        for &b in f.block_order() {
            if let Some(t) = f.terminator(b) {
                t.for_each_successor(|s| edges.push((b, s)));
            }
        }
        self.succs
            .regroup(n, edges.iter().map(|&(b, s)| (b.index(), s)));
        self.preds
            .regroup(n, edges.iter().map(|&(b, s)| (s.index(), b)));

        // Iterative DFS from the entry with an explicit stack of (block,
        // next-successor-index); reversed postorder.
        let (succs, reachable) = (&self.succs, &mut self.reachable);
        reachable.clear();
        reachable.resize(n, false);
        let entry = f.entry();
        let (stack, post) = (&mut buf.walk, &mut buf.blocks);
        stack.clear();
        post.clear();
        stack.push((entry, 0));
        reachable[entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succs.of(b).get(*next) {
                *next += 1;
                if !std::mem::replace(&mut reachable[s.index()], true) {
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        self.rpo.clear();
        self.rpo.extend(post.iter().rev());
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
