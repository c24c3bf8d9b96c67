//! The SCCDAG and its augmented form (aSCCDAG).
//!
//! "Advanced code transformations like parallelization techniques can be
//! implemented as different strategies to schedule instances of the nodes
//! that compose the SCCDAG of a loop" — HELIX distributes *instances* of an
//! SCC across cores, DSWP distributes *SCCs* across cores. The augmented
//! SCCDAG classifies each SCC as [`SccKind::Independent`],
//! [`SccKind::Sequential`], or [`SccKind::Reducible`].

use crate::depgraph::DepGraph;
use crate::pdg::BuildBuffers;
use noelle_analysis::scev::AddRec;
use noelle_ir::inst::{BinOp, Inst, InstId};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::Function;

/// Classification of an SCC of a loop dependence graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SccKind {
    /// No loop-carried dependence among the SCC's dynamic instances: the
    /// instances of different iterations can run in parallel.
    Independent,
    /// Loop-carried dependences force the instances to run in order.
    Sequential,
    /// Loop-carried dependences exist but implement a reduction that can be
    /// parallelized by cloning the accumulator.
    Reducible,
}

/// One SCC of the aSCCDAG. Its instructions are [`SccDag::insts`]`(id)`.
#[derive(Clone, Debug)]
pub struct SccNode {
    /// Dense id of this SCC within its DAG.
    pub id: usize,
    /// Classification.
    pub kind: SccKind,
    /// For reducible SCCs: the reduction operator.
    pub reduction_op: Option<BinOp>,
    /// For reducible SCCs: the accumulator phi.
    pub reduction_phi: Option<InstId>,
    /// True when the SCC is an induction-variable recurrence (a header phi
    /// plus its affine update). Parallelizers handle these specially (each
    /// core computes its own IV), so they never become sequential segments.
    pub is_induction: bool,
}

/// The augmented SCCDAG of a loop, in the loop's own slot space: the
/// loop's instructions ascending, the SCC of each, every SCC's members as
/// one range of a single array, and the DAG edges as a sorted list. Nothing
/// is keyed by instruction and nothing is allocated per SCC.
#[derive(Clone, Debug)]
pub struct SccDag {
    nodes: Vec<SccNode>,
    /// The members of every SCC, grouped by SCC in emission order, each
    /// group ascending.
    members: Vec<InstId>,
    /// SCC `s` owns `members[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// The loop's instructions (the graph's internal nodes), ascending.
    internal: Vec<InstId>,
    /// SCC of `internal[k]`.
    comp: Vec<u32>,
    /// DAG edges `(src, dst)` with `dst` depending on `src`: ascending, none
    /// twice.
    edges: Vec<(usize, usize)>,
}

/// What [`classify`] needs to know of an SCC's edges, gathered for every
/// SCC in one pass over the loop graph.
#[derive(Clone, Copy, Default)]
pub(crate) struct SccFacts {
    /// A loop-carried data edge joins two of its members.
    carried: bool,
    /// One of those goes through memory.
    carried_memory: bool,
    /// A register value of one of its members feeds another SCC of the loop.
    leaks: bool,
}

/// The working storage of Tarjan's walk and of the classification after
/// it, kept between builds in [`BuildBuffers`]: what [`SccDag::new_in`]
/// needs and does not keep.
#[derive(Default)]
pub(crate) struct SccScratch {
    /// CSR successor lists in dense node indices.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// `(index, lowlink)` of each node.
    num: Vec<(u32, u32)>,
    /// Tarjan's stack.
    stack: Vec<u32>,
    /// The iterative DFS: `(node, next successor position)`.
    call_stack: Vec<(u32, u32)>,
    /// What the loop graph's edges say of each SCC.
    facts: Vec<SccFacts>,
    /// The inter-SCC edges, before they are copied out at their count.
    edges: Vec<(usize, usize)>,
}

impl SccDag {
    /// Build the aSCCDAG of loop `l` from its loop dependence graph
    /// (`loop_pdg_with` of [`crate::pdg::PdgBuilder`]) and the loop's affine
    /// recurrences (`noelle_analysis::scev::affine_recurrences`).
    pub fn new(f: &Function, l: &LoopInfo, g: &DepGraph<InstId>, recs: &[AddRec]) -> SccDag {
        SccDag::new_in(f, l, g, recs, &mut BuildBuffers::default())
    }

    /// [`SccDag::new`] working in `buf`, which a caller building many
    /// loops' abstractions keeps: Tarjan's state and the per-SCC facts
    /// live there, and the DAG keeps only its own arrays.
    pub fn new_in(
        f: &Function,
        l: &LoopInfo,
        g: &DepGraph<InstId>,
        recs: &[AddRec],
        buf: &mut BuildBuffers,
    ) -> SccDag {
        let mut internal = Vec::with_capacity(g.num_internal());
        internal.extend(g.internal_nodes());
        let scratch = &mut buf.scc;
        let (members, offsets, comp) = tarjan(&internal, g, scratch);
        let n = offsets.len() - 1;
        let scc_of = |x: InstId| internal.binary_search(&x).ok().map(|k| comp[k] as usize);
        let edges = &mut scratch.edges;
        edges.clear();
        let facts = &mut scratch.facts;
        facts.clear();
        facts.resize(n, SccFacts::default());
        for e in g.edges() {
            let (Some(a), Some(b)) = (scc_of(e.src), scc_of(e.dst)) else {
                continue;
            };
            let register = e.attrs.is_data() && !e.attrs.memory;
            if a != b {
                edges.push((a, b));
                facts[a].leaks |= register;
            } else if e.attrs.loop_carried && e.attrs.is_data() {
                facts[a].carried = true;
                facts[a].carried_memory |= e.attrs.memory;
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let edges = edges.to_vec();
        let is_rec = |x: &InstId| recs.iter().any(|r| r.phi == *x || r.update == *x);
        let nodes = (0..n)
            .map(|s| {
                let insts = &members[offsets[s] as usize..offsets[s + 1] as usize];
                let (kind, reduction_op, reduction_phi) = classify(f, l, insts, facts[s]);
                // A governing-IV SCC also pulls in the exit compare and the
                // loop branch through control-dependence edges; those still
                // count as an induction SCC (each core recomputes them).
                let is_induction = insts.iter().any(is_rec)
                    && insts.iter().all(|x| {
                        is_rec(x) || matches!(f.inst(*x), Inst::Icmp { .. } | Inst::Term(_))
                    });
                SccNode {
                    id: s,
                    kind,
                    reduction_op,
                    reduction_phi,
                    is_induction,
                }
            })
            .collect();
        SccDag {
            nodes,
            members,
            offsets,
            internal,
            comp,
            edges,
        }
    }

    /// All SCC nodes, in topological-friendly discovery order.
    pub fn nodes(&self) -> &[SccNode] {
        &self.nodes
    }

    /// The instructions of SCC `s`, ascending.
    pub fn insts(&self, s: usize) -> &[InstId] {
        &self.members[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Inter-SCC dependence edges, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// SCC containing instruction `i`, if it is part of the loop.
    pub fn scc_of(&self, i: InstId) -> Option<usize> {
        let k = self.internal.binary_search(&i).ok()?;
        Some(self.comp[k] as usize)
    }

    /// SCCs with no incoming inter-SCC edges.
    pub fn roots(&self) -> Vec<usize> {
        let mut fed = vec![false; self.nodes.len()];
        for &(_, d) in &self.edges {
            fed[d] = true;
        }
        (0..self.nodes.len()).filter(|&s| !fed[s]).collect()
    }

    /// Topological order of the SCC DAG.
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for &(_, d) in &self.edges {
            indeg[d] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(x) = queue.pop() {
            out.push(x);
            // The edges are sorted, so `x`'s are one run.
            let first = self.edges.partition_point(|&(s, _)| s < x);
            for &(_, d) in self.edges[first..].iter().take_while(|&&(s, _)| s == x) {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(d);
                }
            }
        }
        out
    }

    /// The sequential SCCs (the ones HELIX turns into sequential segments).
    pub fn sequential_sccs(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.kind == SccKind::Sequential)
            .map(|n| n.id)
            .collect()
    }

    /// True if every SCC is Independent or Reducible (DOALL after reduction
    /// handling).
    pub fn is_fully_parallelizable(&self) -> bool {
        self.nodes.iter().all(|n| n.kind != SccKind::Sequential)
    }
}

/// Tarjan's algorithm over the internal nodes of `g` (iterative), in flat
/// arrays: `(members, offsets, comp)` — every SCC's nodes as one ascending
/// run of `members` (SCC `s` is `offsets[s]..offsets[s + 1]`), in emission
/// order, and the SCC of `nodes[k]` as `comp[k]`.
///
/// Works entirely on dense `0..n` indices: `nodes` is sorted (the graph's
/// internal nodes are), so node→index is a binary search. Successor lists
/// are packed once up front into a CSR array, sorted and deduplicated, so
/// roots and successors are visited in ascending order. A visited node is on
/// the Tarjan stack exactly until its SCC is emitted, which is when it gets
/// a `comp` — no separate on-stack flag. Everything but the result lives in
/// `scratch`.
fn tarjan(
    nodes: &[InstId],
    g: &DepGraph<InstId>,
    scratch: &mut SccScratch,
) -> (Vec<InstId>, Vec<u32>, Vec<u32>) {
    let n = nodes.len();
    // CSR successor packing. InstId sorting and dense-index sorting agree
    // because `nodes` is sorted and the mapping is monotone.
    let SccScratch {
        succ_off,
        succ,
        num,
        stack,
        call_stack,
        ..
    } = scratch;
    succ_off.clear();
    succ.clear();
    succ_off.push(0u32);
    for &node in nodes {
        let start = succ.len();
        succ.extend(
            g.edges_from(node)
                .filter_map(|e| nodes.binary_search(&e.dst).ok())
                .map(|w| w as u32),
        );
        succ[start..].sort_unstable();
        let mut kept = start;
        for r in start..succ.len() {
            if kept == start || succ[r] != succ[kept - 1] {
                succ[kept] = succ[r];
                kept += 1;
            }
        }
        succ.truncate(kept);
        succ_off.push(succ.len() as u32);
    }
    let (succ, succ_off) = (&*succ, &*succ_off);
    let succs_of = |v: usize| -> &[u32] { &succ[succ_off[v] as usize..succ_off[v + 1] as usize] };

    const NONE: u32 = u32::MAX;
    // (index, lowlink) of each node; `index` is NONE until visited.
    num.clear();
    num.resize(n, (NONE, 0u32));
    let mut comp = vec![NONE; n];
    let mut counter = 0u32;
    stack.clear();
    let mut members: Vec<InstId> = Vec::with_capacity(n);
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    // Iterative DFS: (node, next successor position).
    call_stack.clear();

    for root in 0..n {
        if num[root].0 != NONE {
            continue;
        }
        num[root] = (counter, counter);
        counter += 1;
        stack.push(root as u32);
        call_stack.push((root as u32, 0));

        while let Some(&mut (node, ref mut pos)) = call_stack.last_mut() {
            let v = node as usize;
            let succs = succs_of(v);
            if (*pos as usize) < succs.len() {
                let w = succs[*pos as usize] as usize;
                *pos += 1;
                if num[w].0 == NONE {
                    num[w] = (counter, counter);
                    counter += 1;
                    stack.push(w as u32);
                    call_stack.push((w as u32, 0));
                } else if comp[w] == NONE {
                    // Visited and not yet emitted: on the stack.
                    num[v].1 = num[v].1.min(num[w].0);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    let p = parent as usize;
                    num[p].1 = num[p].1.min(num[v].1);
                }
                if num[v].1 == num[v].0 {
                    let scc = (offsets.len() - 1) as u32;
                    let start = members.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow") as usize;
                        comp[w] = scc;
                        members.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    members[start..].sort_unstable();
                    offsets.push(members.len() as u32);
                }
            }
        }
    }
    (members, offsets, comp)
}

/// Classify an SCC per the paper's aSCCDAG definition, from its members and
/// what the loop graph's edges say of it.
fn classify(
    f: &Function,
    l: &LoopInfo,
    insts: &[InstId],
    facts: SccFacts,
) -> (SccKind, Option<BinOp>, Option<InstId>) {
    // Loop-carried data dependences internal to the SCC?
    if !facts.carried {
        return (SccKind::Independent, None, None);
    }
    // Reduction pattern: the SCC is {phi, op} (possibly with casts) where op
    // is commutative+associative and the phi lives in the header. Memory
    // dependences disqualify.
    if facts.carried_memory {
        return (SccKind::Sequential, None, None);
    }
    let mut phi = None;
    let mut op = None;
    let mut clean = true;
    for &i in insts {
        match f.inst(i) {
            Inst::Phi { .. } if f.parent_block(i) == l.header => {
                if phi.replace(i).is_some() {
                    clean = false; // more than one header phi entangled
                }
            }
            Inst::Bin { op: o, .. } if o.is_reduction_op() => {
                match op {
                    None => op = Some(*o),
                    Some(prev) if prev == *o => {}
                    _ => clean = false, // mixed operators
                }
            }
            _ => clean = false,
        }
    }
    // The accumulated value must not be observed mid-loop by instructions
    // outside the SCC (other than after the loop): a register use of the
    // phi or the op by another SCC of the loop breaks the reduction.
    if let (true, Some(phi), Some(op), false) = (clean, phi, op, facts.leaks) {
        return (SccKind::Reducible, Some(op), Some(phi));
    }
    (SccKind::Sequential, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdg::PdgBuilder;
    use noelle_analysis::alias::BasicAlias;
    use noelle_analysis::scev::affine_recurrences;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::IcmpPred;
    use noelle_ir::loops::LoopForest;
    use noelle_ir::module::{FuncId, Module};
    use noelle_ir::types::Type;
    use noelle_ir::value::Value;

    fn build_reduction() -> (Module, FuncId, LoopInfo) {
        reduction_loop(false)
    }

    /// `sum += a[i]`, with `sum * 3` computed in the body when `observed`.
    fn reduction_loop(observed: bool) -> (Module, FuncId, LoopInfo) {
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
        if observed {
            b.binop(BinOp::Mul, Type::I64, sum2, Value::const_i64(3));
        }
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
        let l = forest.loops()[0].clone();
        (m, fid, l)
    }

    #[test]
    fn reduction_scc_is_reducible() {
        let (m, fid, l) = build_reduction();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        let f = m.func(fid);
        let dag = SccDag::new(f, &l, &g, &affine_recurrences(f, &l));
        let reducible: Vec<_> = dag
            .nodes()
            .iter()
            .filter(|n| n.kind == SccKind::Reducible)
            .collect();
        assert_eq!(reducible.len(), 1);
        assert_eq!(reducible[0].reduction_op, Some(BinOp::Add));
        assert!(reducible[0].reduction_phi.is_some());
        // The induction variable SCC is sequential (carried, not a plain
        // reduction observed only at exit? The IV phi/add *is* a reduction
        // shape by this classification).
        assert!(dag.nodes().len() >= 2);
    }

    #[test]
    fn loads_form_independent_sccs() {
        let (m, fid, l) = build_reduction();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        let f = m.func(fid);
        let dag = SccDag::new(f, &l, &g, &affine_recurrences(f, &l));
        // The a[i] load (no carried deps) sits in an Independent SCC.
        let load_scc = dag
            .nodes()
            .iter()
            .find(|n| {
                dag.insts(n.id)
                    .iter()
                    .any(|&i| matches!(f.inst(i), Inst::Load { .. }))
            })
            .expect("load SCC");
        assert_eq!(load_scc.kind, SccKind::Independent);
    }

    #[test]
    fn dag_edges_respect_dependences() {
        let (m, fid, l) = build_reduction();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        let f = m.func(fid);
        let dag = SccDag::new(f, &l, &g, &affine_recurrences(f, &l));
        // The reduction SCC depends on the load SCC (sum2 = sum + v).
        let load_scc = dag
            .nodes()
            .iter()
            .position(|n| {
                dag.insts(n.id)
                    .iter()
                    .any(|&i| matches!(f.inst(i), Inst::Load { .. }))
            })
            .unwrap();
        let red_scc = dag
            .nodes()
            .iter()
            .position(|n| n.kind == SccKind::Reducible)
            .unwrap();
        assert!(dag.edges().any(|(s, d)| s == load_scc && d == red_scc));
        // Topological order lists the load SCC before the reduction SCC.
        let topo = dag.topo_order();
        let pos = |x: usize| topo.iter().position(|&y| y == x).unwrap();
        assert!(pos(load_scc) < pos(red_scc));
        assert_eq!(topo.len(), dag.nodes().len());
    }

    #[test]
    fn a_reduction_observed_inside_the_loop_is_sequential() {
        // for (i...) { sum += a[i]; t = sum * 3; }: another SCC reads the
        // running sum every iteration, so it cannot be split into per-core
        // partials.
        let (m, fid, l) = reduction_loop(true);
        let basic = BasicAlias::new(&m);
        let g = PdgBuilder::new(&m, &basic).loop_pdg(fid, &l);
        let f = m.func(fid);
        let dag = SccDag::new(f, &l, &g, &affine_recurrences(f, &l));
        let sum = f.phis(l.header)[1];
        let s = dag.scc_of(sum).unwrap();
        assert_eq!(dag.insts(s).len(), 2, "the accumulator phi and its update");
        assert_eq!(dag.nodes()[s].kind, SccKind::Sequential);
        assert!(dag.nodes().iter().all(|n| n.kind != SccKind::Reducible));
    }

    #[test]
    fn sequential_scc_from_memory_recurrence() {
        // for (i...) { t = *p; *p = t + 1; } with p loop-invariant: the
        // load/store pair forms a carried memory SCC -> Sequential.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("p", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::Void,
        );
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let t = b.load(Type::I64, b.arg(0));
        let t2 = b.binop(BinOp::Add, Type::I64, t, Value::const_i64(1));
        b.store(Type::I64, t2, b.arg(0));
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        let dag = SccDag::new(f, &l, &g, &affine_recurrences(f, &l));
        let seq = dag.sequential_sccs();
        assert!(!seq.is_empty());
        assert!(!dag.is_fully_parallelizable());
        // The sequential SCC contains both the load and the store.
        let insts = dag.insts(seq[0]);
        assert!(insts
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Load { .. })));
        assert!(insts
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Store { .. })));
    }
}
