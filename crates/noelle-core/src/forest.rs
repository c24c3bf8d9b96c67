//! The Forest (FR) abstraction.
//!
//! "Forest of trees with the capability to adjust when a node is deleted to
//! keep the connections between the parent and the children of the deleted
//! node." NOELLE uses it for the program-wide loop nesting forest (LICM
//! walks it innermost-to-outermost; HELIX/DSWP/DOALL use it with profiles to
//! pick the most profitable loops).

use noelle_ir::loops::{LoopForest, LoopId, LoopInfo};
use noelle_ir::module::FuncId;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;
use std::sync::Arc;

/// A forest of trees over nodes of type `T` with delete-and-reconnect.
#[derive(Clone, Debug, Default)]
pub struct Forest<T: Ord + Copy + Eq + Hash> {
    parent: BTreeMap<T, Option<T>>,
    children: BTreeMap<T, BTreeSet<T>>,
}

impl<T: Ord + Copy + Eq + Hash> Forest<T> {
    /// An empty forest.
    pub fn new() -> Forest<T> {
        Forest {
            parent: BTreeMap::new(),
            children: BTreeMap::new(),
        }
    }

    /// Insert `node` under `parent` (`None` = tree root).
    pub fn insert(&mut self, node: T, parent: Option<T>) {
        self.parent.insert(node, parent);
        self.children.entry(node).or_default();
        if let Some(p) = parent {
            self.children.entry(p).or_default().insert(node);
        }
    }

    /// Delete `node`, reattaching its children to its parent — the defining
    /// capability of the abstraction.
    pub fn delete(&mut self, node: T) {
        let Some(parent) = self.parent.remove(&node) else {
            return;
        };
        let kids = self.children.remove(&node).unwrap_or_default();
        if let Some(p) = parent {
            if let Some(pc) = self.children.get_mut(&p) {
                pc.remove(&node);
                pc.extend(kids.iter().copied());
            }
        }
        for k in kids {
            self.parent.insert(k, parent);
        }
    }

    /// The parent of `node`, if any.
    pub fn parent(&self, node: T) -> Option<T> {
        self.parent.get(&node).copied().flatten()
    }

    /// The children of `node`.
    pub fn children(&self, node: T) -> impl Iterator<Item = T> + '_ {
        self.children.get(&node).into_iter().flatten().copied()
    }

    /// All roots (nodes without parents).
    pub fn roots(&self) -> impl Iterator<Item = T> + '_ {
        self.parent
            .iter()
            .filter(|(_, p)| p.is_none())
            .map(|(&n, _)| n)
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = T> + '_ {
        self.parent.keys().copied()
    }

    /// True if the forest tracks `node`.
    pub fn contains(&self, node: T) -> bool {
        self.parent.contains_key(&node)
    }

    /// Nodes in leaves-first order (every node appears before its parent) —
    /// the order LICM processes loops in.
    pub fn leaves_first(&self) -> Vec<T> {
        let mut out = Vec::new();
        let mut visited = BTreeSet::new();
        // Post-order from each root.
        let roots: Vec<T> = self.roots().collect();
        for root in roots {
            let mut stack = vec![(root, false)];
            while let Some((n, expanded)) = stack.pop() {
                if expanded {
                    out.push(n);
                    continue;
                }
                if !visited.insert(n) {
                    continue;
                }
                stack.push((n, true));
                for c in self.children(n) {
                    stack.push((c, false));
                }
            }
        }
        out
    }
}

/// A node of the program-wide loop forest.
pub type ProgramLoopRef = (FuncId, LoopId);

/// The program-wide loop forest plus the per-function [`LoopForest`]s it was
/// assembled from.
#[derive(Debug)]
pub struct ProgramLoopForest {
    /// Nesting forest over `(function, loop)` nodes.
    pub forest: Forest<ProgramLoopRef>,
    /// Per-function loop forests (for loop lookup).
    pub per_function: BTreeMap<FuncId, Arc<LoopForest>>,
}

impl ProgramLoopForest {
    /// Link the loops of already-detected per-function forests into one
    /// program-wide nesting forest.
    pub fn from_forests(
        forests: impl IntoIterator<Item = (FuncId, Arc<LoopForest>)>,
    ) -> ProgramLoopForest {
        let mut forest = Forest::new();
        let mut per_function = BTreeMap::new();
        for (fid, lf) in forests {
            for l in lf.loops() {
                forest.insert((fid, l.id), l.parent.map(|p| (fid, p)));
            }
            per_function.insert(fid, lf);
        }
        ProgramLoopForest {
            forest,
            per_function,
        }
    }

    /// Resolve a forest node to its [`LoopInfo`].
    pub fn loop_info(&self, node: ProgramLoopRef) -> &LoopInfo {
        self.per_function[&node.0].loop_info(node.1)
    }

    /// All loops, innermost first (the LICM processing order).
    pub fn innermost_first(&self) -> Vec<ProgramLoopRef> {
        self.forest.leaves_first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_reconnects_children() {
        let mut f: Forest<u32> = Forest::new();
        f.insert(1, None);
        f.insert(2, Some(1));
        f.insert(3, Some(2));
        f.insert(4, Some(2));
        f.delete(2);
        assert_eq!(f.parent(3), Some(1));
        assert_eq!(f.parent(4), Some(1));
        assert_eq!(f.children(1).collect::<Vec<_>>(), vec![3, 4]);
        assert!(!f.contains(2));
    }

    #[test]
    fn delete_root_promotes_children_to_roots() {
        let mut f: Forest<u32> = Forest::new();
        f.insert(1, None);
        f.insert(2, Some(1));
        f.insert(3, Some(1));
        f.delete(1);
        let roots: Vec<u32> = f.roots().collect();
        assert_eq!(roots, vec![2, 3]);
    }

    #[test]
    fn leaves_first_order() {
        let mut f: Forest<u32> = Forest::new();
        f.insert(1, None);
        f.insert(2, Some(1));
        f.insert(3, Some(2));
        let order = f.leaves_first();
        let pos = |x: u32| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(3) < pos(2));
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn program_forest_spans_functions() {
        use noelle_ir::builder::FunctionBuilder;
        use noelle_ir::cfg::Cfg;
        use noelle_ir::dom::DomTree;
        use noelle_ir::inst::{BinOp, IcmpPred};
        use noelle_ir::module::Module;
        use noelle_ir::types::Type;
        use noelle_ir::value::Value;
        let mut m = Module::new("t");
        for name in ["f", "g"] {
            let mut b = FunctionBuilder::new(name, vec![("n", Type::I64)], Type::Void);
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
            b.ret(None);
            m.add_function(b.finish());
        }
        let plf = ProgramLoopForest::from_forests(m.func_ids().map(|fid| {
            let f = m.func(fid);
            let cfg = Cfg::new(f);
            let dt = DomTree::new(f, &cfg);
            (fid, Arc::new(LoopForest::new(f, &cfg, &dt)))
        }));
        assert_eq!(plf.forest.nodes().count(), 2);
        assert_eq!(plf.innermost_first().len(), 2);
        for node in plf.forest.nodes() {
            let li = plf.loop_info(node);
            assert!(li.is_while());
        }
    }
}
