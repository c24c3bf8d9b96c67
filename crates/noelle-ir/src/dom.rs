//! Dominator and post-dominator trees, dominance frontiers, and control
//! dependence.
//!
//! The paper notes (§2.2 "Other abstractions") that NOELLE re-implements
//! LLVM's dominator analysis so that *users* control the lifetime of the
//! analysis result instead of a function-pass manager invalidating it behind
//! their back. In Rust this falls out naturally: [`DomTree`] and
//! [`PostDomTree`] are plain owned values.

use crate::cfg::{Adjacency, Cfg, StructureBuffers};
use crate::module::{BlockId, Function};

/// "No node": an unreachable block's immediate dominator.
const NONE: u32 = u32::MAX;

/// Cooper–Harvey–Kennedy "engineered" iterative dominator algorithm over a
/// graph of `n` nodes given by its predecessors (`for_each_pred(b, visit)`
/// calls `visit` on each one of `b`) and a reverse postorder (`rpo[0]` must
/// be the start node). Leaves the immediate dominator of each node in
/// `idom`: the start node is its own, nodes outside `rpo` have [`NONE`].
/// `rpo_pos` is scratch; both keep their storage.
fn chk_idoms(
    rpo: &[u32],
    for_each_pred: impl Fn(u32, &mut dyn FnMut(u32)),
    n: usize,
    idom: &mut Vec<u32>,
    rpo_pos: &mut Vec<u32>,
) {
    rpo_pos.clear();
    rpo_pos.resize(n, NONE);
    for (i, &b) in rpo.iter().enumerate() {
        rpo_pos[b as usize] = i as u32;
    }
    idom.clear();
    idom.resize(n, NONE);
    let start = rpo[0];
    idom[start as usize] = start;

    let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
        while a != b {
            while rpo_pos[a as usize] > rpo_pos[b as usize] {
                a = idom[a as usize];
            }
            while rpo_pos[b as usize] > rpo_pos[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom = NONE;
            for_each_pred(b, &mut |p| {
                // Only predecessors that are in the graph and processed.
                if rpo_pos[p as usize] != NONE && idom[p as usize] != NONE {
                    new_idom = match new_idom {
                        NONE => p,
                        cur => intersect(idom, cur, p),
                    };
                }
            });
            if new_idom != NONE && idom[b as usize] != new_idom {
                idom[b as usize] = new_idom;
                changed = true;
            }
        }
    }
}

/// Shared representation for dominator-style trees: flat tables over node
/// indices (a block's arena index; the post-dominator tree adds one node).
#[derive(Clone, Debug, Default)]
struct TreeCore {
    /// Immediate dominator of each node; the root maps to itself, nodes
    /// outside the tree to [`NONE`].
    idom: Vec<u32>,
    /// Children of each node, ascending.
    children: Adjacency,
    /// DFS `(entry, exit)` numbering for O(1) dominance queries; `entry`
    /// is [`NONE`] for nodes outside the tree.
    dfs: Vec<(u32, u32)>,
}

impl TreeCore {
    /// Derive the children and the DFS numbering from `idom`, in place;
    /// `stack` is scratch.
    fn number(&mut self, root: u32, stack: &mut Vec<(u32, bool)>) {
        let idom = &self.idom;
        let n = idom.len();
        let in_tree = |b: usize| idom[b] != NONE && idom[b] != b as u32;
        // Naming the nodes in ascending order leaves every child list
        // ascending.
        self.children.regroup(
            n,
            (0..n)
                .filter(|&b| in_tree(b))
                .map(|b| (idom[b] as usize, BlockId(b as u32))),
        );
        self.dfs.clear();
        self.dfs.resize(n, (NONE, NONE));
        // Iterative DFS to number the tree.
        let mut counter = 0u32;
        stack.clear();
        stack.push((root, false));
        while let Some((b, done)) = stack.pop() {
            if done {
                self.dfs[b as usize].1 = counter;
                counter += 1;
                continue;
            }
            self.dfs[b as usize].0 = counter;
            counter += 1;
            stack.push((b, true));
            for c in self.children.of(BlockId(b)).iter().rev() {
                stack.push((c.0, false));
            }
        }
    }

    /// The immediate dominator of `b`, when `b` is in the tree and not its
    /// root.
    fn idom(&self, b: BlockId) -> Option<u32> {
        let d = *self.idom.get(b.index())?;
        (d != NONE && d != b.0).then_some(d)
    }

    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let interval = |x: BlockId| self.dfs.get(x.index()).filter(|d| d.0 != NONE);
        match (interval(a), interval(b)) {
            (Some(&(ai, ao)), Some(&(bi, bo))) => ai <= bi && bo <= ao,
            _ => false,
        }
    }
}

/// The dominator tree of a function's CFG.
///
/// The default value is the tree of no function: every query answers
/// `None` or `false`, and its root is block 0. [`DomTree::rebuild`] makes a
/// tree the tree of another function in the storage it holds.
#[derive(Clone, Debug)]
pub struct DomTree {
    core: TreeCore,
    root: BlockId,
}

impl Default for DomTree {
    fn default() -> DomTree {
        DomTree {
            core: TreeCore::default(),
            root: BlockId(0),
        }
    }
}

impl DomTree {
    /// Room for the tree of a body of `blocks` blocks.
    pub(crate) fn reserve(&mut self, blocks: usize) {
        let core = &mut self.core;
        crate::cfg::room(&mut core.idom, blocks);
        core.children.reserve(blocks, blocks);
        crate::cfg::room(&mut core.dfs, blocks);
    }

    /// Build the dominator tree from a CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> DomTree {
        let mut tree = DomTree::default();
        tree.rebuild(f, cfg, &mut StructureBuffers::default());
        tree
    }

    /// Make this the dominator tree of `f`, whose CFG is `cfg`, reusing the
    /// storage the tree holds and working in `buf`.
    pub fn rebuild(&mut self, f: &Function, cfg: &Cfg, buf: &mut StructureBuffers) {
        buf.rpo.clear();
        buf.rpo.extend(cfg.rpo.iter().map(|b| b.0));
        let preds = |b: u32, visit: &mut dyn FnMut(u32)| {
            cfg.preds(BlockId(b)).iter().for_each(|p| visit(p.0));
        };
        let core = &mut self.core;
        chk_idoms(
            &buf.rpo,
            preds,
            f.num_blocks(),
            &mut core.idom,
            &mut buf.rpo_pos,
        );
        core.number(f.entry().0, &mut buf.number);
        self.root = f.entry();
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.core.idom(b).map(BlockId)
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.core.dominates(a, b)
    }

    /// True if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.core.children.of(b)
    }

    /// The tree root (the entry block).
    pub fn root(&self) -> BlockId {
        self.root
    }
}

/// The post-dominator tree of a function's CFG.
///
/// A virtual exit node joins all exit blocks (and a representative of every
/// infinite loop, so functions with endless loops — which the COOS custom
/// tool must handle — still get a total post-dominance relation).
///
/// The default value is the tree of no function: every query answers
/// `None` or `false`. [`PostDomTree::rebuild`] makes a tree the tree of
/// another function in place, in the storage it already holds, so a tree
/// kept by a caller that builds many (the PDG build's buffers) allocates
/// only for a function larger than any before.
#[derive(Clone, Debug, Default)]
pub struct PostDomTree {
    core: TreeCore,
    /// Node index of the virtual exit, the tree's root: one past the blocks.
    virtual_exit: u32,
    /// The blocks directly attached to the virtual exit.
    virtual_exit_preds: Vec<BlockId>,
    /// The working storage of [`PostDomTree::rebuild`].
    scratch: PostDomScratch,
}

/// What [`PostDomTree::rebuild`] works in, kept between rebuilds.
#[derive(Clone, Debug, Default)]
struct PostDomScratch {
    /// Per block: can reach an exit; then, visited by the reverse walk.
    marks: Vec<bool>,
    /// Per block: attached to the virtual exit.
    tied: Vec<bool>,
    /// Blocks waiting in the backward walk from the exits.
    work: Vec<BlockId>,
    /// Reverse postorder of the reversed graph.
    post: Vec<u32>,
    /// The reverse walk's `(node, next successor)` stack.
    walk: Vec<(u32, usize)>,
    /// `chk_idoms`' reverse-postorder positions.
    rpo_pos: Vec<u32>,
    /// The tree numbering's DFS stack.
    number: Vec<(u32, bool)>,
}

impl PostDomTree {
    /// Build the post-dominator tree from a CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> PostDomTree {
        let mut tree = PostDomTree::default();
        tree.rebuild(f, cfg);
        tree
    }

    /// Make this the post-dominator tree of `f`, whose CFG is `cfg`,
    /// reusing the storage the tree holds.
    pub fn rebuild(&mut self, f: &Function, cfg: &Cfg) {
        let n = f.num_blocks();
        // Node numbering: 0..n for blocks, n for the virtual exit.
        let vexit = n as u32;
        let s = &mut self.scratch;
        let exits = &mut self.virtual_exit_preds;
        exits.clear();
        exits.extend(cfg.rpo.iter().filter(|&&b| cfg.succs(b).is_empty()));

        // Blocks that cannot reach an exit (infinite loops): walk backwards
        // from exits; anything reachable-from-entry but not in that set needs
        // a tether to the virtual exit.
        let can_exit = &mut s.marks;
        can_exit.clear();
        can_exit.resize(n, false);
        s.work.clear();
        s.work.extend_from_slice(exits);
        while let Some(b) = s.work.pop() {
            if !std::mem::replace(&mut can_exit[b.index()], true) {
                s.work.extend_from_slice(cfg.preds(b));
            }
        }
        // One tether per endless region is enough, but tethering each
        // non-exiting block is simpler and still sound (it only weakens
        // post-dominance inside the endless region).
        exits.extend(cfg.rpo.iter().filter(|b| !can_exit[b.index()]));
        s.tied.clear();
        s.tied.resize(n, false);
        for b in exits.iter() {
            s.tied[b.index()] = true;
        }

        // Reverse postorder of the reversed graph, starting at the virtual
        // exit, whose successors there are the blocks tied to it; a block's
        // are its reachable CFG predecessors.
        let exits: &[BlockId] = exits;
        let rsuccs = |node: u32| -> &[BlockId] {
            if node == vexit {
                exits
            } else {
                cfg.preds(BlockId(node))
            }
        };
        let visited = &mut s.marks; // the table, reused
        visited.fill(false);
        s.post.clear();
        s.walk.clear();
        s.walk.push((vexit, 0));
        while let Some(&mut (node, ref mut next)) = s.walk.last_mut() {
            if let Some(&b) = rsuccs(node).get(*next) {
                *next += 1;
                if cfg.is_reachable(b) && !std::mem::replace(&mut visited[b.index()], true) {
                    s.walk.push((b.0, 0));
                }
            } else {
                s.post.push(node);
                s.walk.pop();
            }
        }
        s.post.reverse();

        // Predecessors in the reversed graph: a block's CFG successors, and
        // the virtual exit for the blocks tied to it (the reversed direction
        // of the conceptual `exit -> vexit` edge).
        let tied = &s.tied;
        let rpreds = |b: u32, visit: &mut dyn FnMut(u32)| {
            if b != vexit {
                cfg.succs(BlockId(b)).iter().for_each(|s| visit(s.0));
                if tied[b as usize] {
                    visit(vexit);
                }
            }
        };
        chk_idoms(&s.post, rpreds, n + 1, &mut self.core.idom, &mut s.rpo_pos);
        self.core.number(vexit, &mut s.number);
        self.virtual_exit = vexit;
    }

    /// The immediate post-dominator of `b` (`None` if `b` is only
    /// post-dominated by the virtual exit).
    pub fn ipostdom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.core.idom(b)?;
        (d != self.virtual_exit).then_some(BlockId(d))
    }

    /// True if `a` post-dominates `b` (reflexive).
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        self.core.dominates(a, b)
    }

    /// Blocks attached directly to the virtual exit.
    pub fn virtual_exit_preds(&self) -> &[BlockId] {
        &self.virtual_exit_preds
    }

    /// Control dependences of a function (Ferrante–Ottenstein–Warren):
    /// `b` is control dependent on branch block `a` iff `a` has a successor
    /// `s` with `b` post-dominating `s`, and `b` does not strictly
    /// post-dominate `a`. Returns `(dependent, controlling block)` pairs,
    /// ascending by dependent and then by controller, none twice — the same
    /// on every call, so whatever is derived from them in order (the PDG's
    /// control edges) is reproducible.
    pub fn control_dependences(&self, cfg: &Cfg) -> Vec<(BlockId, BlockId)> {
        let mut pairs = Vec::new();
        self.control_dependences_into(cfg, &mut pairs);
        pairs
    }

    /// [`PostDomTree::control_dependences`] into `pairs`, which is cleared
    /// first and keeps its storage.
    pub fn control_dependences_into(&self, cfg: &Cfg, pairs: &mut Vec<(BlockId, BlockId)>) {
        pairs.clear();
        for &a in &cfg.rpo {
            let succs = cfg.succs(a);
            if succs.len() < 2 {
                continue;
            }
            for &s in succs {
                // Walk up the post-dominator tree from s to (exclusive) the
                // ipostdom of a; every node on that path is control dependent
                // on a.
                let stop = self.ipostdom(a);
                let mut cur = Some(s);
                while let Some(b) = cur {
                    if Some(b) == stop {
                        break;
                    }
                    pairs.push((b, a));
                    cur = self.ipostdom(b);
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;

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
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let [entry, left, right, join] = [0, 1, 2, 3].map(BlockId);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(left), Some(entry));
        assert_eq!(dt.idom(right), Some(entry));
        assert_eq!(dt.idom(join), Some(entry));
        assert!(dt.dominates(entry, join));
        assert!(!dt.dominates(left, join));
        assert!(dt.dominates(join, join));
        assert!(dt.strictly_dominates(entry, left));
        assert!(!dt.strictly_dominates(entry, entry));
    }

    #[test]
    fn diamond_postdominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let [entry, left, right, join] = [0, 1, 2, 3].map(BlockId);
        assert_eq!(pdt.ipostdom(entry), Some(join));
        assert_eq!(pdt.ipostdom(left), Some(join));
        assert_eq!(pdt.ipostdom(right), Some(join));
        assert_eq!(pdt.ipostdom(join), None);
        assert!(pdt.postdominates(join, entry));
        assert!(!pdt.postdominates(left, entry));
    }

    #[test]
    fn diamond_control_dependence() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let cd = pdt.control_dependences(&cfg);
        // Neither the entry nor the join is control dependent on anything.
        let [entry, left, right] = [0, 1, 2].map(BlockId);
        assert_eq!(cd, [(left, entry), (right, entry)]);
    }

    #[test]
    fn loop_control_dependence_includes_header_on_itself_region() {
        // entry -> header; header -> body | exit; body -> header
        let mut b = FunctionBuilder::new("f", vec![("c", Type::I1)], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        b.cond_br(b.arg(0), body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let cd = pdt.control_dependences(&cfg);
        // The body is control dependent on the header's branch, and so is the
        // header itself (via the back edge path).
        assert_eq!(cd, [(header, header), (body, header)]);
    }

    #[test]
    fn infinite_loop_gets_tethered() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        let spin = b.block("spin");
        b.switch_to(entry);
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        // No exit blocks at all; the virtual exit must still adopt the spin
        // block so the analysis terminates and yields a total relation.
        let pdt = PostDomTree::new(&f, &cfg);
        assert!(pdt.virtual_exit_preds().contains(&spin));
        // spin does not strictly post-dominate entry in any meaningful way,
        // but the queries must at least not panic.
        let _ = pdt.postdominates(spin, entry);
    }

    /// A tree rebuilt in place over functions of every size, larger and
    /// then smaller, answers what a fresh build of each does.
    #[test]
    fn a_rebuilt_tree_answers_as_a_fresh_one() {
        let mut spin = FunctionBuilder::new("spin", vec![], Type::Void);
        let (entry, body) = (spin.entry_block(), spin.block("spin"));
        spin.switch_to(entry);
        spin.br(body);
        spin.switch_to(body);
        spin.br(body);
        let funcs = [diamond(), nested_ifs(), spin.finish(), diamond()];
        let mut reused = PostDomTree::default();
        let mut pairs = vec![(BlockId(9), BlockId(9))];
        for f in &funcs {
            let cfg = Cfg::new(f);
            let fresh = PostDomTree::new(f, &cfg);
            reused.rebuild(f, &cfg);
            reused.control_dependences_into(&cfg, &mut pairs);
            assert_eq!(pairs, fresh.control_dependences(&cfg), "{}", f.name);
            assert_eq!(reused.virtual_exit_preds(), fresh.virtual_exit_preds());
            for a in f.block_order() {
                assert_eq!(reused.ipostdom(*a), fresh.ipostdom(*a), "{}", f.name);
                for b in f.block_order() {
                    let both = [&reused, &fresh].map(|t| t.postdominates(*a, *b));
                    assert_eq!(both[0], both[1], "{}: {a:?} {b:?}", f.name);
                }
            }
        }
        // Beyond the last function's blocks, nothing is left behind.
        assert_eq!(reused.ipostdom(BlockId(5)), None);
        assert!(!reused.postdominates(BlockId(5), BlockId(5)));
    }

    /// entry -> a | d ; a -> b | c ; b,c -> m ; m,d -> join
    fn nested_ifs() -> Function {
        let mut bd =
            FunctionBuilder::new("f", vec![("c1", Type::I1), ("c2", Type::I1)], Type::Void);
        let entry = bd.entry_block();
        let a = bd.block("a");
        let b = bd.block("b");
        let c = bd.block("c");
        let m = bd.block("m");
        let d = bd.block("d");
        let join = bd.block("join");
        bd.switch_to(entry);
        bd.cond_br(bd.arg(0), a, d);
        bd.switch_to(a);
        bd.cond_br(bd.arg(1), b, c);
        bd.switch_to(b);
        bd.br(m);
        bd.switch_to(c);
        bd.br(m);
        bd.switch_to(m);
        bd.br(join);
        bd.switch_to(d);
        bd.br(join);
        bd.switch_to(join);
        bd.ret(None);
        bd.finish()
    }

    #[test]
    fn nested_if_dominance() {
        let f = nested_ifs();
        let [entry, a, b, c, m, d, join] = [0, 1, 2, 3, 4, 5, 6].map(BlockId);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(dt.idom(m), Some(a));
        assert_eq!(dt.idom(join), Some(entry));
        assert!(dt.dominates(a, b) && dt.dominates(a, c) && dt.dominates(a, m));
        assert!(!dt.dominates(a, join));
        let pdt = PostDomTree::new(&f, &cfg);
        assert_eq!(pdt.ipostdom(a), Some(m));
        assert_eq!(pdt.ipostdom(m), Some(join));
        let cd = pdt.control_dependences(&cfg);
        // Ascending by dependent (block ids: a, b, c, m, d), then controller.
        assert_eq!(cd, [(a, entry), (b, a), (c, a), (m, entry), (d, entry)]);
    }
}
