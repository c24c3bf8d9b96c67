//! Dominator and post-dominator trees, dominance frontiers, and control
//! dependence.
//!
//! The paper notes (§2.2 "Other abstractions") that NOELLE re-implements
//! LLVM's dominator analysis so that *users* control the lifetime of the
//! analysis result instead of a function-pass manager invalidating it behind
//! their back. In Rust this falls out naturally: [`DomTree`] and
//! [`PostDomTree`] are plain owned values.

use crate::cfg::Cfg;
use crate::module::{BlockId, Function};
use std::collections::{HashMap, HashSet};

/// Cooper–Harvey–Kennedy "engineered" iterative dominator algorithm over a
/// graph given as predecessor lists and a reverse postorder (`rpo[0]` must be
/// the start node). Returns the immediate dominator of each node (the start
/// node is its own idom).
fn chk_idoms(rpo: &[usize], preds: &[Vec<usize>], n: usize) -> Vec<Option<usize>> {
    let mut rpo_pos = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_pos[b] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    let start = rpo[0];
    idom[start] = Some(start);

    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while rpo_pos[a] > rpo_pos[b] {
                a = idom[a].expect("processed node has idom");
            }
            while rpo_pos[b] > rpo_pos[a] {
                b = idom[b].expect("processed node has idom");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[b] {
                if rpo_pos[p] == usize::MAX || idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Shared representation for dominator-style trees over block ids.
#[derive(Clone, Debug)]
struct TreeCore {
    /// Immediate dominator of each node; the root maps to itself.
    idom: HashMap<BlockId, BlockId>,
    children: HashMap<BlockId, Vec<BlockId>>,
    /// DFS interval numbering for O(1) dominance queries.
    dfs_in: HashMap<BlockId, u32>,
    dfs_out: HashMap<BlockId, u32>,
    root: BlockId,
}

impl TreeCore {
    fn build(root: BlockId, idom: HashMap<BlockId, BlockId>) -> TreeCore {
        let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for (&b, &d) in &idom {
            if b != d {
                children.entry(d).or_default().push(b);
            }
        }
        for c in children.values_mut() {
            c.sort();
        }
        let mut dfs_in = HashMap::new();
        let mut dfs_out = HashMap::new();
        let mut counter = 0u32;
        // Iterative DFS to number the tree.
        let mut stack = vec![(root, false)];
        while let Some((b, done)) = stack.pop() {
            if done {
                dfs_out.insert(b, counter);
                counter += 1;
                continue;
            }
            dfs_in.insert(b, counter);
            counter += 1;
            stack.push((b, true));
            if let Some(cs) = children.get(&b) {
                for &c in cs.iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        TreeCore {
            idom,
            children,
            dfs_in,
            dfs_out,
            root,
        }
    }

    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        match (
            self.dfs_in.get(&a),
            self.dfs_out.get(&a),
            self.dfs_in.get(&b),
            self.dfs_out.get(&b),
        ) {
            (Some(ai), Some(ao), Some(bi), Some(bo)) => ai <= bi && bo <= ao,
            _ => false,
        }
    }
}

/// The dominator tree of a function's CFG.
#[derive(Clone, Debug)]
pub struct DomTree {
    core: TreeCore,
}

impl DomTree {
    /// Build the dominator tree from a CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.num_blocks();
        let rpo: Vec<usize> = cfg.rpo.iter().map(|b| b.index()).collect();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &b in &cfg.rpo {
            preds[b.index()] = cfg.preds(b).iter().map(|p| p.index()).collect();
        }
        let idoms = chk_idoms(&rpo, &preds, n);
        let mut map = HashMap::new();
        for &b in &cfg.rpo {
            if let Some(d) = idoms[b.index()] {
                map.insert(b, BlockId(d as u32));
            }
        }
        DomTree {
            core: TreeCore::build(f.entry(), map),
        }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = *self.core.idom.get(&b)?;
        (d != b).then_some(d)
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
        self.core.children.get(&b).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The tree root (the entry block).
    pub fn root(&self) -> BlockId {
        self.core.root
    }
}

/// The post-dominator tree of a function's CFG.
///
/// A virtual exit node joins all exit blocks (and a representative of every
/// infinite loop, so functions with endless loops — which the COOS custom
/// tool must handle — still get a total post-dominance relation).
#[derive(Clone, Debug)]
pub struct PostDomTree {
    core: TreeCore,
    /// The blocks directly attached to the virtual exit.
    virtual_exit_preds: Vec<BlockId>,
}

impl PostDomTree {
    /// Build the post-dominator tree from a CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> PostDomTree {
        let n = f.num_blocks();
        // Node numbering: 0..n for blocks, n for the virtual exit.
        let vexit = n;
        let mut exits: Vec<usize> = cfg.exit_blocks().iter().map(|b| b.index()).collect();

        // Blocks that cannot reach an exit (infinite loops): walk backwards
        // from exits; anything reachable-from-entry but not in that set needs
        // a tether to the virtual exit.
        let mut can_exit: HashSet<usize> = HashSet::new();
        let mut work: Vec<usize> = exits.clone();
        while let Some(b) = work.pop() {
            if !can_exit.insert(b) {
                continue;
            }
            for &p in cfg.preds(BlockId(b as u32)) {
                work.push(p.index());
            }
        }
        let mut tethered: Vec<usize> = cfg
            .rpo
            .iter()
            .map(|b| b.index())
            .filter(|b| !can_exit.contains(b))
            .collect();
        // One tether per endless region is enough, but tethering each
        // non-exiting block is simpler and still sound (it only weakens
        // post-dominance inside the endless region).
        exits.append(&mut tethered);

        // Reversed graph: preds of a node are its CFG successors; each exit
        // block additionally has the virtual exit as a predecessor (the
        // reversed direction of the conceptual `exit -> vexit` edge).
        let mut rpreds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for &b in &cfg.rpo {
            rpreds[b.index()] = cfg.succs(b).iter().map(|s| s.index()).collect();
        }
        for &e in &exits {
            rpreds[e].push(vexit);
        }

        // Reverse postorder of the reversed graph, starting at the virtual
        // exit. Successors in the reversed graph are CFG predecessors.
        let rsucc = |node: usize| -> Vec<usize> {
            if node == vexit {
                return vec![];
            }
            let mut out: Vec<usize> = cfg
                .preds(BlockId(node as u32))
                .iter()
                .filter(|p| cfg.is_reachable(**p))
                .map(|p| p.index())
                .collect();
            out.sort_unstable();
            out
        };
        let redges_from_vexit = exits.clone();
        let mut post = Vec::new();
        let mut visited = HashSet::new();
        visited.insert(vexit);
        let mut stack: Vec<(usize, usize)> = vec![(vexit, 0)];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs: Vec<usize> = if node == vexit {
                redges_from_vexit.clone()
            } else {
                rsucc(node)
            };
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if visited.insert(s) {
                    stack.push((s, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();

        let idoms = chk_idoms(&post, &rpreds, n + 1);
        let mut map = HashMap::new();
        for &b in &cfg.rpo {
            if let Some(d) = idoms[b.index()] {
                // "Post-dominated only by the virtual exit" is represented by
                // making the block a direct child of the sentinel root.
                if d == vexit {
                    map.insert(b, SENTINEL_ROOT);
                } else {
                    map.insert(b, BlockId(d as u32));
                }
            }
        }
        map.insert(SENTINEL_ROOT, SENTINEL_ROOT);
        PostDomTree {
            core: TreeCore::build(SENTINEL_ROOT, map),
            virtual_exit_preds: exits.into_iter().map(|b| BlockId(b as u32)).collect(),
        }
    }

    /// The immediate post-dominator of `b` (`None` if `b` is only
    /// post-dominated by the virtual exit).
    pub fn ipostdom(&self, b: BlockId) -> Option<BlockId> {
        let d = *self.core.idom.get(&b)?;
        (d != SENTINEL_ROOT && d != b).then_some(d)
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
    /// post-dominate `a`. Returns `dependent -> set of controlling blocks`.
    pub fn control_dependences(&self, cfg: &Cfg) -> HashMap<BlockId, HashSet<BlockId>> {
        let mut cd: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
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
                    cd.entry(b).or_default().insert(a);
                    cur = self.ipostdom(b);
                }
            }
        }
        cd
    }
}

/// Sentinel block id used as the virtual-exit root of the post-dominator
/// tree. No real function has 2^32 - 7 blocks.
const SENTINEL_ROOT: BlockId = BlockId(u32::MAX - 7);

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
        let [entry, left, right, join] = [0, 1, 2, 3].map(BlockId);
        assert!(cd[&left].contains(&entry));
        assert!(cd[&right].contains(&entry));
        assert!(!cd.contains_key(&join));
        assert!(!cd.contains_key(&entry));
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
        assert!(cd[&body].contains(&header));
        assert!(cd[&header].contains(&header));
        assert!(!cd.contains_key(&exit));
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

    #[test]
    fn nested_if_dominance() {
        // entry -> a | d ; a -> b | c ; b,c -> m ; m,d -> join
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
        let f = bd.finish();
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
        assert!(cd[&b].contains(&a));
        assert!(cd[&m].contains(&entry));
    }
}
