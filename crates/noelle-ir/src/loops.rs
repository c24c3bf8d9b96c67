//! Natural-loop detection and the loop forest.
//!
//! This module provides the structural half of the paper's *loop structure*
//! (LS) abstraction: headers, pre-headers, latches, exits, body blocks, and
//! nesting. The semantic half (induction variables, invariants, dependence
//! graph) is layered on top in `noelle-core` as the paper's L abstraction.

use crate::cfg::{Cfg, StructureBuffers};
use crate::dom::DomTree;
use crate::module::{BlockId, Function};
use std::fmt;

/// Function-local identifier of a natural loop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Arena index of this loop.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// Structure of one natural loop.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// This loop's id within its forest.
    pub id: LoopId,
    /// The loop header (target of the back edges; dominates the body).
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, including the header, ascending.
    pub blocks: Vec<BlockId>,
    /// The unique out-of-loop predecessor of the header whose only successor
    /// is the header, if the CFG has one.
    pub preheader: Option<BlockId>,
    /// Edges leaving the loop: `(inside block, outside successor)`.
    pub exit_edges: Vec<(BlockId, BlockId)>,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth (top-level loops have depth 1).
    pub depth: u32,
}

impl LoopInfo {
    /// True if `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// Out-of-loop blocks targeted by exit edges, deduplicated.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self.exit_edges.iter().map(|&(_, t)| t).collect();
        out.sort();
        out.dedup();
        out
    }

    /// How many blocks [`LoopInfo::exit_blocks`] lists, counted in place.
    pub fn num_exit_blocks(&self) -> usize {
        let targets = || self.exit_edges.iter().map(|&(_, t)| t);
        targets()
            .enumerate()
            .filter(|&(i, t)| !targets().take(i).any(|u| u == t))
            .count()
    }

    /// In-loop blocks with an edge out of the loop, ascending, none twice.
    pub fn exiting_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        // The exit edges are sorted, so their sources are grouped.
        let sources = self.exit_edges.iter().map(|&(s, _)| s);
        sources
            .clone()
            .enumerate()
            .filter(move |&(i, s)| i == 0 || self.exit_edges[i - 1].0 != s)
            .map(|(_, s)| s)
    }

    /// True for do-while-shaped loops: every exit test happens at a latch, so
    /// the body runs at least once per entry and the test is at the bottom.
    /// LLVM's induction-variable analysis expects this shape (§4.3 of the
    /// paper); NOELLE's does not.
    pub fn is_do_while(&self) -> bool {
        self.exit_edges
            .iter()
            .all(|&(s, _)| self.latches.contains(&s))
    }

    /// True for while-shaped loops: the header tests the exit condition.
    pub fn is_while(&self) -> bool {
        !self.is_do_while()
    }

    /// True if the loop has no exit edges at all.
    pub fn is_endless(&self) -> bool {
        self.exit_edges.is_empty()
    }

    /// The single latch, if there is exactly one.
    pub fn single_latch(&self) -> Option<BlockId> {
        match self.latches.as_slice() {
            [l] => Some(*l),
            _ => None,
        }
    }
}

/// "Not in any loop" in [`LoopForest`]'s per-block table.
const NO_LOOP: u32 = u32::MAX;

/// The loop forest of a function: every natural loop plus nesting structure.
///
/// The default value is the forest of a function without loops.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    loops: Vec<LoopInfo>,
    top_level: Vec<LoopId>,
    /// Innermost loop containing each block, by block index; empty when
    /// there are no loops.
    block_map: Vec<u32>,
}

impl LoopForest {
    /// Detect all natural loops of `f`.
    ///
    /// Back edges are CFG edges `n -> h` where `h` dominates `n`; loops with
    /// the same header are merged (as in LLVM). Irreducible cycles (no
    /// dominating header) are not recognized as loops, matching LLVM 9.
    pub fn new(f: &Function, cfg: &Cfg, dt: &DomTree) -> LoopForest {
        let mut forest = LoopForest::default();
        forest.rebuild(f, cfg, dt, &mut StructureBuffers::default());
        forest
    }

    /// Make this the loop forest of `f`, whose CFG is `cfg` and dominator
    /// tree `dt`, working in `buf`: every list the forest keeps is built at
    /// its exact size.
    pub fn rebuild(&mut self, f: &Function, cfg: &Cfg, dt: &DomTree, buf: &mut StructureBuffers) {
        let n = f.num_blocks();
        // 1. Back edges as `(header, latch)`, sorted: grouped by header,
        //    headers and each one's latches ascending (a latch branching
        //    twice to its header is listed twice).
        let back = &mut buf.pairs;
        back.clear();
        for &b in &cfg.rpo {
            for &s in cfg.succs(b) {
                if dt.dominates(s, b) {
                    back.push((s, b));
                }
            }
        }
        back.sort_unstable();

        // 2. For each header, the loop body is everything that can reach a
        //    latch without passing through the header.
        let marks = &mut buf.marks;
        marks.clear();
        marks.resize(n, false);
        let (work, members, exits) = (&mut buf.blocks, &mut buf.members, &mut buf.edges);
        self.loops.clear();
        self.loops
            .reserve_exact(back.chunk_by(|a, b| a.0 == b.0).count());
        for group in back.chunk_by(|a, b| a.0 == b.0) {
            let header = group[0].0;
            let latches: Vec<BlockId> = group.iter().map(|&(_, l)| l).collect();
            marks[header.index()] = true;
            members.clear();
            members.push(header);
            work.clear();
            work.extend_from_slice(&latches);
            while let Some(b) = work.pop() {
                if !std::mem::replace(&mut marks[b.index()], true) {
                    members.push(b);
                    work.extend(cfg.preds(b).iter().filter(|&&p| cfg.is_reachable(p)));
                }
            }
            members.sort_unstable();
            let blocks = members.to_vec();

            // Exit edges, sorted.
            exits.clear();
            for &b in &blocks {
                for &s in cfg.succs(b) {
                    if !marks[s.index()] {
                        exits.push((b, s));
                    }
                }
            }
            exits.sort_unstable();

            // Preheader: unique out-of-loop predecessor of the header with a
            // single successor.
            let mut outside = cfg.preds(header).iter().filter(|p| !marks[p.index()]);
            let preheader = match (outside.next(), outside.next()) {
                (Some(&p), None) if cfg.succs(p).len() == 1 => Some(p),
                _ => None,
            };
            for &b in &blocks {
                marks[b.index()] = false;
            }

            let id = LoopId(self.loops.len() as u32);
            self.loops.push(LoopInfo {
                id,
                header,
                latches,
                blocks,
                preheader,
                exit_edges: exits.to_vec(),
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
        }
        let loops = &mut self.loops;

        // 3. Nesting: loop A is an ancestor of loop B iff A contains B's
        //    header (and A != B). The parent is the smallest such ancestor,
        //    the first of equal size.
        for i in 0..loops.len() {
            let (header, size) = (loops[i].header, loops[i].blocks.len());
            let mut best: Option<usize> = None;
            for (j, cand) in loops.iter().enumerate() {
                let len = cand.blocks.len();
                if j != i
                    && len > size
                    && cand.contains(header)
                    && best.is_none_or(|b| len < loops[b].blocks.len())
                {
                    best = Some(j);
                }
            }
            loops[i].parent = best.map(|p| LoopId(p as u32));
        }
        for p in 0..loops.len() {
            let parent = Some(LoopId(p as u32));
            let count = loops.iter().filter(|l| l.parent == parent).count();
            let mut children = Vec::with_capacity(count);
            children.extend(loops.iter().filter(|l| l.parent == parent).map(|l| l.id));
            loops[p].children = children;
        }

        // 4. Depths and top-level list.
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = depth;
        }
        let top = loops.iter().filter(|l| l.parent.is_none());
        self.top_level.clear();
        self.top_level.reserve_exact(top.clone().count());
        self.top_level.extend(top.map(|l| l.id));

        // 5. Innermost-loop table: natural loops are disjoint or nested,
        //    and a nested loop is the smaller, so each block's innermost
        //    loop is the smallest that holds it.
        self.block_map.clear();
        if !loops.is_empty() {
            self.block_map.resize(n, NO_LOOP);
        }
        for l in loops.iter() {
            for &b in &l.blocks {
                let slot = &mut self.block_map[b.index()];
                if *slot == NO_LOOP || loops[*slot as usize].blocks.len() > l.blocks.len() {
                    *slot = l.id.0;
                }
            }
        }
    }

    /// All loops, in header order.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Access one loop.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    /// Outermost loops.
    pub fn top_level(&self) -> &[LoopId] {
        &self.top_level
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<LoopId> {
        let id = *self.block_map.get(b.index())?;
        (id != NO_LOOP).then_some(LoopId(id))
    }

    /// True if `inner` is nested (transitively) inside `outer`.
    pub fn is_nested_in(&self, inner: LoopId, outer: LoopId) -> bool {
        let mut cur = self.loops[inner.index()].parent;
        while let Some(p) = cur {
            if p == outer {
                return true;
            }
            cur = self.loops[p.index()].parent;
        }
        false
    }

    /// Loops ordered innermost-first (children before parents), the order in
    /// which LICM-style transforms should process them.
    pub fn innermost_first(&self) -> Vec<LoopId> {
        let mut out: Vec<LoopId> = self.loops.iter().map(|l| l.id).collect();
        out.sort_by_key(|l| std::cmp::Reverse(self.loops[l.index()].depth));
        out
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::IcmpPred;
    use crate::types::Type;
    use crate::value::Value;

    fn forest_of(f: &Function) -> LoopForest {
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        LoopForest::new(f, &cfg, &dt)
    }

    /// while-shaped counted loop.
    fn while_loop() -> Function {
        let mut b = FunctionBuilder::new("w", vec![("n", Type::I64)], Type::Void);
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
        let i2 = b.binop(crate::inst::BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    /// do-while-shaped loop: entry -> body; body -> body | exit.
    fn do_while_loop() -> Function {
        let mut b = FunctionBuilder::new("dw", vec![("n", Type::I64)], Type::Void);
        let entry = b.entry_block();
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let i2 = b.binop(crate::inst::BinOp::Add, Type::I64, i, Value::const_i64(1));
        let c = b.icmp(IcmpPred::Slt, Type::I64, i2, b.arg(0));
        b.cond_br(c, body, exit);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn while_loop_structure() {
        let f = while_loop();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.blocks.len(), 2);
        assert_eq!(l.preheader, Some(BlockId(0)));
        assert_eq!(l.exit_blocks(), vec![BlockId(3)]);
        assert!(l.exiting_blocks().eq([BlockId(1)]));
        assert!(l.is_while());
        assert!(!l.is_do_while());
        assert!(!l.is_endless());
        assert_eq!(l.depth, 1);
        assert_eq!(l.single_latch(), Some(BlockId(2)));
    }

    #[test]
    fn do_while_loop_structure() {
        let f = do_while_loop();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops()[0];
        assert!(l.is_do_while());
        assert_eq!(l.blocks.len(), 1);
        assert_eq!(l.latches, vec![l.header]);
    }

    #[test]
    fn nested_loops() {
        // for i { for j { } }
        let mut b = FunctionBuilder::new("nest", vec![("n", Type::I64)], Type::Void);
        let entry = b.entry_block();
        let oh = b.block("outer_header");
        let ih_pre = b.block("inner_pre");
        let ih = b.block("inner_header");
        let ibody = b.block("inner_body");
        let olatch = b.block("outer_latch");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(oh);
        b.switch_to(oh);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c1 = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c1, ih_pre, exit);
        b.switch_to(ih_pre);
        b.br(ih);
        b.switch_to(ih);
        let j = b.phi(Type::I64, vec![(ih_pre, Value::const_i64(0))]);
        let c2 = b.icmp(IcmpPred::Slt, Type::I64, j, b.arg(0));
        b.cond_br(c2, ibody, olatch);
        b.switch_to(ibody);
        let j2 = b.binop(crate::inst::BinOp::Add, Type::I64, j, Value::const_i64(1));
        b.br(ih);
        b.add_incoming(j, ibody, j2);
        b.switch_to(olatch);
        let i2 = b.binop(crate::inst::BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(oh);
        b.add_incoming(i, olatch, i2);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest.top_level().len(), 1);
        let outer_id = forest.top_level()[0];
        let outer = forest.loop_info(outer_id);
        assert_eq!(outer.depth, 1);
        assert_eq!(outer.children.len(), 1);
        let inner = forest.loop_info(outer.children[0]);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(outer_id));
        assert!(forest.is_nested_in(inner.id, outer_id));
        assert!(!forest.is_nested_in(outer_id, inner.id));
        // Innermost map: inner header maps to the inner loop, outer latch to
        // the outer loop.
        assert_eq!(forest.innermost_containing(inner.header), Some(inner.id));
        assert_eq!(
            forest.innermost_containing(outer.latches[0]),
            Some(outer_id)
        );
        assert_eq!(forest.innermost_containing(BlockId(6)), None);
        // innermost_first puts the inner loop before the outer one.
        let order = forest.innermost_first();
        assert_eq!(order[0], inner.id);
        assert_eq!(order[1], outer_id);
    }

    #[test]
    fn endless_loop_detected() {
        let mut b = FunctionBuilder::new("spin", vec![], Type::Void);
        let entry = b.entry_block();
        let spin = b.block("spin");
        b.switch_to(entry);
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 1);
        assert!(forest.loops()[0].is_endless());
        // An endless loop is trivially do-while shaped (no header exit).
        assert!(forest.loops()[0].is_do_while());
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut b = FunctionBuilder::new("s", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let f = b.finish();
        assert!(forest_of(&f).is_empty());
    }
}
