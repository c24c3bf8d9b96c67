//! The complete program call graph (CG abstraction).
//!
//! "NOELLE's call graph differentiates with LLVM's one by being complete: the
//! latter does not compute an indirect call's possible callees. By being
//! complete, NOELLE's call graph enables custom tools to assume that the
//! call graph's lack of an edge means a function cannot invoke another."
//!
//! Indirect callees come from the Andersen points-to solution. When a
//! function pointer cannot be resolved (its points-to set is unknown), the
//! call site is recorded as *unresolved* and marks its caller, so tools like
//! the dead-function eliminator can stay conservative.

use crate::islands::islands_of;
use noelle_analysis::alias::{AndersenAlias, MemoryObject};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, Module};
use std::collections::{BTreeMap, BTreeSet};

/// One caller→callee edge, with its call-site sub-edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling function.
    pub caller: FuncId,
    /// Called function.
    pub callee: FuncId,
    /// True when the relation is proven to hold on every execution reaching
    /// the site (direct calls); false for may-edges from indirect-call
    /// resolution.
    pub is_must: bool,
    /// The call instructions (sub-edges) through which `caller` invokes
    /// `callee`.
    pub sites: Vec<InstId>,
}

/// The complete call graph of a module.
#[derive(Clone, Debug)]
pub struct CallGraph {
    edges: Vec<CallEdge>,
    by_caller: BTreeMap<FuncId, Vec<usize>>,
    by_callee: BTreeMap<FuncId, Vec<usize>>,
    /// Call sites whose callees could not be resolved.
    unresolved_sites: Vec<(FuncId, InstId)>,
    num_funcs: usize,
}

impl CallGraph {
    /// Build the complete call graph of `m`, resolving indirect calls with
    /// the points-to solution `andersen` (the PDG-powered resolution of the
    /// paper).
    pub fn build(m: &Module, andersen: &AndersenAlias) -> CallGraph {
        let mut acc: BTreeMap<(FuncId, FuncId, bool), Vec<InstId>> = BTreeMap::new();
        let mut unresolved_sites = Vec::new();
        for fid in m.func_ids() {
            let f = m.func(fid);
            for id in f.inst_iter() {
                match f.inst(id) {
                    Inst::Call {
                        callee: Callee::Direct(cid),
                        ..
                    } => acc.entry((fid, *cid, true)).or_default().push(id),
                    Inst::Call {
                        callee: Callee::Indirect(fp),
                        ..
                    } => {
                        let mut resolved = andersen.indirect_callees(fid, id);
                        let mut pts = andersen.points_to(fid, *fp).peekable();
                        let unknown =
                            pts.peek().is_none() || pts.any(|o| o == MemoryObject::Unknown);
                        if unknown {
                            unresolved_sites.push((fid, id));
                        }
                        resolved.sort();
                        for cid in resolved {
                            acc.entry((fid, cid, false)).or_default().push(id);
                        }
                    }
                    _ => {}
                }
            }
        }
        let edges: Vec<CallEdge> = acc
            .into_iter()
            .map(|((caller, callee, is_must), sites)| CallEdge {
                caller,
                callee,
                is_must,
                sites,
            })
            .collect();
        let mut by_caller: BTreeMap<FuncId, Vec<usize>> = BTreeMap::new();
        let mut by_callee: BTreeMap<FuncId, Vec<usize>> = BTreeMap::new();
        for (i, e) in edges.iter().enumerate() {
            by_caller.entry(e.caller).or_default().push(i);
            by_callee.entry(e.callee).or_default().push(i);
        }
        CallGraph {
            edges,
            by_caller,
            by_callee,
            unresolved_sites,
            num_funcs: m.functions().len(),
        }
    }

    /// All edges.
    pub fn edges(&self) -> &[CallEdge] {
        &self.edges
    }

    /// Edges out of `caller`.
    pub fn callees_of(&self, caller: FuncId) -> impl Iterator<Item = &CallEdge> + '_ {
        self.by_caller
            .get(&caller)
            .into_iter()
            .flatten()
            .map(move |&i| &self.edges[i])
    }

    /// Edges into `callee`.
    pub fn callers_of(&self, callee: FuncId) -> impl Iterator<Item = &CallEdge> + '_ {
        self.by_callee
            .get(&callee)
            .into_iter()
            .flatten()
            .map(move |&i| &self.edges[i])
    }

    /// Call sites whose callee set is unknown (escaped function pointers).
    pub fn unresolved_sites(&self) -> &[(FuncId, InstId)] {
        &self.unresolved_sites
    }

    /// Functions transitively reachable from `roots` following call edges.
    /// If the module contains unresolved call sites, every address-taken
    /// function reachable in `m` is added conservatively by the caller —
    /// this method itself only follows known edges.
    pub fn reachable_from(&self, roots: &[FuncId]) -> BTreeSet<FuncId> {
        let mut seen: BTreeSet<FuncId> = roots.iter().copied().collect();
        let mut work: Vec<FuncId> = roots.to_vec();
        while let Some(f) = work.pop() {
            for e in self.callees_of(f) {
                if seen.insert(e.callee) {
                    work.push(e.callee);
                }
            }
        }
        seen
    }

    /// The disconnected islands of the call graph (sets of functions with no
    /// call edges between the sets) — the CG/ISL capability of the paper.
    pub fn islands(&self) -> Vec<BTreeSet<FuncId>> {
        let nodes: Vec<FuncId> = (0..self.num_funcs as u32).map(FuncId).collect();
        let edges: Vec<(FuncId, FuncId)> =
            self.edges.iter().map(|e| (e.caller, e.callee)).collect();
        islands_of(&nodes, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::types::{FuncType, Type};
    use noelle_ir::value::Value;
    use std::sync::Arc;

    fn empty_fn(m: &mut Module, name: &str) -> FuncId {
        let mut b = FunctionBuilder::new(name, vec![], Type::Void);
        let e = b.entry_block();
        b.switch_to(e);
        b.ret(None);
        m.add_function(b.finish())
    }

    #[test]
    fn direct_edges_are_must_with_sites() {
        let mut m = Module::new("t");
        let leaf = empty_fn(&mut m, "leaf");
        let mut b = FunctionBuilder::new("root", vec![], Type::Void);
        let e = b.entry_block();
        b.switch_to(e);
        b.call(leaf, vec![], Type::Void);
        b.call(leaf, vec![], Type::Void);
        b.ret(None);
        let root = m.add_function(b.finish());
        let andersen = AndersenAlias::new(&m);
        let cg = CallGraph::build(&m, &andersen);
        let edges: Vec<_> = cg.callees_of(root).collect();
        assert_eq!(edges.len(), 1);
        assert!(edges[0].is_must);
        assert_eq!(edges[0].sites.len(), 2); // two sub-edges, one per site
        assert_eq!(cg.callers_of(leaf).count(), 1);
        assert!(cg.unresolved_sites().is_empty());
    }

    #[test]
    fn indirect_edges_resolved_as_may() {
        let mut m = Module::new("t");
        let f1 = empty_fn(&mut m, "f1");
        let f2 = empty_fn(&mut m, "f2");
        let _f3 = empty_fn(&mut m, "f3");
        let fty = Type::Func(Arc::new(FuncType {
            params: vec![],
            ret: Type::Void,
        }));
        let mut b = FunctionBuilder::new("root", vec![("c", Type::I1)], Type::Void);
        let e = b.entry_block();
        b.switch_to(e);
        let fp = b.select(fty.ptr_to(), b.arg(0), Value::Func(f1), Value::Func(f2));
        b.call_indirect(fp, vec![], Type::Void);
        b.ret(None);
        let root = m.add_function(b.finish());
        let andersen = AndersenAlias::new(&m);
        let cg = CallGraph::build(&m, &andersen);
        let callees: BTreeSet<FuncId> = cg.callees_of(root).map(|e| e.callee).collect();
        assert_eq!(callees, BTreeSet::from([f1, f2]));
        assert!(cg.callees_of(root).all(|e| !e.is_must));
        // f3 has no edge: completeness lets tools conclude it is never
        // invoked by root.
        assert!(!callees.contains(&_f3));
        // Reachability from root covers f1 and f2 only.
        let reach = cg.reachable_from(&[root]);
        assert!(reach.contains(&f1) && reach.contains(&f2) && !reach.contains(&_f3));
    }

    #[test]
    fn islands_partition_the_graph() {
        let mut m = Module::new("t");
        let a = empty_fn(&mut m, "a");
        let mut b = FunctionBuilder::new("b", vec![], Type::Void);
        let e = b.entry_block();
        b.switch_to(e);
        b.call(a, vec![], Type::Void);
        b.ret(None);
        let bf = m.add_function(b.finish());
        let c = empty_fn(&mut m, "c"); // disconnected
        let andersen = AndersenAlias::new(&m);
        let cg = CallGraph::build(&m, &andersen);
        let islands = cg.islands();
        assert_eq!(islands.len(), 2);
        assert!(islands.iter().any(|i| i.contains(&a) && i.contains(&bf)));
        assert!(islands.iter().any(|i| i.len() == 1 && i.contains(&c)));
    }
}
