//! Natural-loop detection and the loop forest.
//!
//! This module provides the structural half of the paper's *loop structure*
//! (LS) abstraction: headers, pre-headers, latches, exits, body blocks, and
//! nesting. The semantic half (induction variables, invariants, dependence
//! graph) is layered on top in `noelle-core` as the paper's L abstraction.

use crate::bytes::{ByteReader, ByteWriter, DecodeError};
use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::{BlockId, Function};
use std::collections::{BTreeSet, HashMap};
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
    /// All blocks of the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
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
        self.blocks.contains(&b)
    }

    /// Out-of-loop blocks targeted by exit edges, deduplicated.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self.exit_edges.iter().map(|&(_, t)| t).collect();
        out.sort();
        out.dedup();
        out
    }

    /// In-loop blocks with an edge out of the loop, deduplicated.
    pub fn exiting_blocks(&self) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self.exit_edges.iter().map(|&(s, _)| s).collect();
        out.sort();
        out.dedup();
        out
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

/// The loop forest of a function: every natural loop plus nesting structure.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<LoopInfo>,
    top_level: Vec<LoopId>,
    /// Innermost loop containing each block.
    block_map: HashMap<BlockId, LoopId>,
}

impl LoopForest {
    /// Detect all natural loops of `f`.
    ///
    /// Back edges are CFG edges `n -> h` where `h` dominates `n`; loops with
    /// the same header are merged (as in LLVM). Irreducible cycles (no
    /// dominating header) are not recognized as loops, matching LLVM 9.
    pub fn new(_f: &Function, cfg: &Cfg, dt: &DomTree) -> LoopForest {
        // 1. Collect back edges grouped by header.
        let mut latches_by_header: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for &b in &cfg.rpo {
            for &s in cfg.succs(b) {
                if dt.dominates(s, b) {
                    latches_by_header.entry(s).or_default().push(b);
                }
            }
        }

        // 2. For each header, the loop body is everything that can reach a
        //    latch without passing through the header.
        let mut headers: Vec<BlockId> = latches_by_header.keys().copied().collect();
        headers.sort();
        let mut loops: Vec<LoopInfo> = Vec::new();
        for header in headers {
            let latches = {
                let mut l = latches_by_header[&header].clone();
                l.sort();
                l
            };
            let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
            blocks.insert(header);
            let mut work: Vec<BlockId> = latches.clone();
            while let Some(b) = work.pop() {
                if !blocks.insert(b) {
                    continue;
                }
                for &p in cfg.preds(b) {
                    if cfg.is_reachable(p) {
                        work.push(p);
                    }
                }
            }

            // Exit edges.
            let mut exit_edges = Vec::new();
            for &b in &blocks {
                for &s in cfg.succs(b) {
                    if !blocks.contains(&s) {
                        exit_edges.push((b, s));
                    }
                }
            }
            exit_edges.sort();

            // Preheader: unique out-of-loop predecessor of the header with a
            // single successor.
            let outside_preds: Vec<BlockId> = cfg
                .preds(header)
                .iter()
                .copied()
                .filter(|p| !blocks.contains(p))
                .collect();
            let preheader = match outside_preds.as_slice() {
                [p] if cfg.succs(*p).len() == 1 => Some(*p),
                _ => None,
            };

            let id = LoopId(loops.len() as u32);
            loops.push(LoopInfo {
                id,
                header,
                latches,
                blocks,
                preheader,
                exit_edges,
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
        }

        // 3. Nesting: loop A is an ancestor of loop B iff A contains B's
        //    header (and A != B). The parent is the smallest such ancestor.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..loops.len()).collect();
            idx.sort_by_key(|&i| loops[i].blocks.len());
            idx
        };
        for &i in &order {
            let header = loops[i].header;
            let mut best: Option<usize> = None;
            for (j, cand) in loops.iter().enumerate() {
                if j != i
                    && cand.blocks.contains(&header)
                    && cand.blocks.len() > loops[i].blocks.len()
                {
                    match best {
                        None => best = Some(j),
                        Some(b) if cand.blocks.len() < loops[b].blocks.len() => best = Some(j),
                        _ => {}
                    }
                }
            }
            if let Some(p) = best {
                loops[i].parent = Some(LoopId(p as u32));
                let id = loops[i].id;
                loops[p].children.push(id);
            }
        }
        for l in loops.iter_mut() {
            l.children.sort();
        }

        // 4. Depths and top-level list.
        let mut top_level = Vec::new();
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = depth;
            if loops[i].parent.is_none() {
                top_level.push(loops[i].id);
            }
        }

        // 5. Innermost-loop map.
        let mut block_map: HashMap<BlockId, LoopId> = HashMap::new();
        let mut by_size: Vec<usize> = (0..loops.len()).collect();
        by_size.sort_by_key(|&i| std::cmp::Reverse(loops[i].blocks.len()));
        for &i in &by_size {
            for &b in &loops[i].blocks {
                block_map.insert(b, loops[i].id);
            }
        }

        LoopForest {
            loops,
            top_level,
            block_map,
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
        self.block_map.get(&b).copied()
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

    /// Stable binary encoding of the forest (see `noelle-ir::bytes`).
    ///
    /// Only the defining fields are written — header, latches, body blocks,
    /// preheader, exit edges, and parent, per loop in id order. Everything
    /// derived (children, depths, the top-level list, the innermost-block
    /// map) is reconstructed by [`LoopForest::decode`] with the same
    /// algorithm [`LoopForest::new`] uses, so a decoded forest is
    /// structurally identical to the one that was encoded and cannot carry
    /// inconsistent redundant state.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.varint(self.loops.len() as u64);
        for l in &self.loops {
            w.varint(u64::from(l.header.0));
            w.varint(l.latches.len() as u64);
            for b in &l.latches {
                w.varint(u64::from(b.0));
            }
            w.varint(l.blocks.len() as u64);
            for b in &l.blocks {
                w.varint(u64::from(b.0));
            }
            match l.preheader {
                Some(p) => {
                    w.u8(1);
                    w.varint(u64::from(p.0));
                }
                None => w.u8(0),
            }
            w.varint(l.exit_edges.len() as u64);
            for (a, b) in &l.exit_edges {
                w.varint(u64::from(a.0));
                w.varint(u64::from(b.0));
            }
            match l.parent {
                Some(p) => {
                    w.u8(1);
                    w.varint(u64::from(p.0));
                }
                None => w.u8(0),
            }
        }
        w.into_bytes()
    }

    /// Decode a forest encoded by [`LoopForest::encode`].
    ///
    /// # Errors
    /// Any truncated, overlong, or out-of-domain input is a [`DecodeError`].
    pub fn decode(bytes: &[u8]) -> Result<LoopForest, DecodeError> {
        let mut r = ByteReader::new(bytes);
        // Every count is bounded by the bytes left to honour it: a loop
        // takes at least six (header, three counts, two flags), a block
        // one, an exit edge two.
        let n = r.count(r.remaining() / 6, "forest: loop count")?;
        let block = |r: &mut ByteReader<'_>, ctx| -> Result<BlockId, DecodeError> {
            let v = r.varint(ctx)?;
            u32::try_from(v)
                .map(BlockId)
                .map_err(|_| DecodeError::new(ctx))
        };
        let mut loops: Vec<LoopInfo> = Vec::with_capacity(n);
        for i in 0..n {
            let header = block(&mut r, "forest: header")?;
            let latches = (0..r.count(r.remaining(), "forest: latch count")?)
                .map(|_| block(&mut r, "forest: latch"))
                .collect::<Result<Vec<_>, _>>()?;
            let blocks = (0..r.count(r.remaining(), "forest: block count")?)
                .map(|_| block(&mut r, "forest: block"))
                .collect::<Result<BTreeSet<_>, _>>()?;
            let preheader = match r.u8("forest: preheader flag")? {
                0 => None,
                1 => Some(block(&mut r, "forest: preheader")?),
                _ => return Err(DecodeError::new("forest: preheader flag")),
            };
            let exit_edges = (0..r.count(r.remaining() / 2, "forest: exit count")?)
                .map(|_| {
                    Ok((
                        block(&mut r, "forest: exit src")?,
                        block(&mut r, "forest: exit dst")?,
                    ))
                })
                .collect::<Result<Vec<_>, DecodeError>>()?;
            let parent = match r.u8("forest: parent flag")? {
                0 => None,
                1 => {
                    let p = r.count(n, "forest: parent id")?;
                    if p >= n || p == i {
                        return Err(DecodeError::new("forest: parent id"));
                    }
                    Some(LoopId(p as u32))
                }
                _ => return Err(DecodeError::new("forest: parent flag")),
            };
            loops.push(LoopInfo {
                id: LoopId(i as u32),
                header,
                latches,
                blocks,
                preheader,
                exit_edges,
                parent,
                children: Vec::new(),
                depth: 0,
            });
        }
        r.finish("forest: trailing bytes")?;
        // Re-derive children, depths, the top-level list, and the
        // innermost-block map exactly as construction does.
        for i in 0..loops.len() {
            if let Some(p) = loops[i].parent {
                let id = loops[i].id;
                loops[p.index()].children.push(id);
            }
        }
        let mut top_level = Vec::new();
        for i in 0..loops.len() {
            loops[i].children.sort();
            let mut depth = 1u32;
            let mut cur = loops[i].parent;
            let mut hops = 0usize;
            while let Some(p) = cur {
                depth += 1;
                hops += 1;
                if hops > loops.len() {
                    return Err(DecodeError::new("forest: parent cycle"));
                }
                cur = loops[p.index()].parent;
            }
            loops[i].depth = depth;
            if loops[i].parent.is_none() {
                top_level.push(loops[i].id);
            }
        }
        let mut block_map: HashMap<BlockId, LoopId> = HashMap::new();
        let mut by_size: Vec<usize> = (0..loops.len()).collect();
        by_size.sort_by_key(|&i| std::cmp::Reverse(loops[i].blocks.len()));
        for &i in &by_size {
            for &b in &loops[i].blocks {
                block_map.insert(b, loops[i].id);
            }
        }
        Ok(LoopForest {
            loops,
            top_level,
            block_map,
        })
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
        assert_eq!(l.exiting_blocks(), vec![BlockId(1)]);
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

    fn assert_forest_eq(a: &LoopForest, b: &LoopForest) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.top_level, b.top_level);
        assert_eq!(a.block_map, b.block_map);
        for (x, y) in a.loops.iter().zip(b.loops.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.header, y.header);
            assert_eq!(x.latches, y.latches);
            assert_eq!(x.blocks, y.blocks);
            assert_eq!(x.preheader, y.preheader);
            assert_eq!(x.exit_edges, y.exit_edges);
            assert_eq!(x.parent, y.parent);
            assert_eq!(x.children, y.children);
            assert_eq!(x.depth, y.depth);
        }
    }

    #[test]
    fn forest_codec_round_trips() {
        for f in [while_loop(), do_while_loop()] {
            let forest = forest_of(&f);
            let bytes = forest.encode();
            let back = LoopForest::decode(&bytes).expect("decode");
            assert_forest_eq(&forest, &back);
            // Re-encoding the decoded forest is byte-identical.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn forest_codec_rebuilds_nesting() {
        // A synthetic two-level forest: decode must re-derive children,
        // depths, the top-level list, and the innermost-block map.
        let outer = LoopInfo {
            id: LoopId(0),
            header: BlockId(1),
            latches: vec![BlockId(5)],
            blocks: BTreeSet::from([BlockId(1), BlockId(2), BlockId(3), BlockId(5)]),
            preheader: Some(BlockId(0)),
            exit_edges: vec![(BlockId(1), BlockId(6))],
            parent: None,
            children: vec![LoopId(1)],
            depth: 1,
        };
        let inner = LoopInfo {
            id: LoopId(1),
            header: BlockId(2),
            latches: vec![BlockId(3)],
            blocks: BTreeSet::from([BlockId(2), BlockId(3)]),
            preheader: None,
            exit_edges: vec![(BlockId(2), BlockId(5))],
            parent: Some(LoopId(0)),
            children: Vec::new(),
            depth: 2,
        };
        let mut block_map = HashMap::new();
        for b in [1u32, 5] {
            block_map.insert(BlockId(b), LoopId(0));
        }
        for b in [2u32, 3] {
            block_map.insert(BlockId(b), LoopId(1));
        }
        let forest = LoopForest {
            loops: vec![outer, inner],
            top_level: vec![LoopId(0)],
            block_map,
        };
        let back = LoopForest::decode(&forest.encode()).expect("decode");
        assert_forest_eq(&forest, &back);
    }

    #[test]
    fn forest_decode_rejects_malformed() {
        let forest = forest_of(&while_loop());
        let bytes = forest.encode();
        for cut in 0..bytes.len() {
            assert!(LoopForest::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut garbage = bytes.clone();
        garbage.push(0);
        assert!(LoopForest::decode(&garbage).is_err(), "trailing byte");
        // A parent id pointing at itself is out of domain.
        let mut w = ByteWriter::new();
        w.varint(1); // one loop
        w.varint(1); // header
        w.varint(0); // no latches
        w.varint(0); // no blocks
        w.u8(0); // no preheader
        w.varint(0); // no exits
        w.u8(1);
        w.varint(0); // parent = self
        assert!(LoopForest::decode(&w.into_bytes()).is_err());
    }
}
