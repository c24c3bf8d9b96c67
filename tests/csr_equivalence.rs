//! The dependence graph's index against a linear scan of its edge list.
//!
//! A `DepGraph` is a node table, an ordered edge list and a CSR index over
//! that list. Everything the index answers can also be read off
//! `g.edges()` and the internal node set by scanning, and this test does
//! exactly that: per node, the in and out adjacency must be the edge list
//! filtered by endpoint, in order; the externals must be the endpoints that
//! are not internal; boundaries, neighbour sets and memory-pair membership
//! likewise; a carved sub-graph must equal `from_edges` over the touching
//! edges; and a graph decoded from its own encoding must answer all of it
//! the same way, down to the loop's aSCCDAG and the wire JSON. Checked on
//! every function and loop graph of the bundled corpus and of a 500-seed
//! fuzz-generator campaign.
//!
//! A function graph is built closed: its node table is read off the layout
//! index, and one pass over the edges resolves endpoints through the
//! arena-index table and counts degrees, one more places the ids. It must
//! equal what `DepGraph::from_edges` builds over the same instructions and
//! edge list with plain `u32` nodes, which searches the node table instead
//! — node table, edge order and both adjacencies — on every function of the
//! corpus, `pdg_stress`, `scale_module(256, 1)` and the fuzz campaign; and
//! an operand naming an instruction that no block lists must stop the
//! counting pass, so that the build keeps that instruction as an external
//! node.
//!
//! The same scan judges what the partition decoder makes of hostile bytes:
//! byte-mutated encodings of the corpus graphs must come back as `Err` or
//! as a graph that is consistent with itself — never a panic (ROADMAP item
//! 6).
//!
//! The aSCCDAG is built in the loop's slot space (flat members, one pass
//! over the edges for the DAG and every SCC's classification). Its oracle
//! here is the construction it replaced, kept verbatim as test code: Tarjan
//! into a `Vec` per SCC, an instruction-to-SCC map, a set of DAG edges and
//! a classifier that scans the whole edge list per SCC. On every loop the
//! two must agree on members and emission order, kinds, reductions,
//! induction flags, DAG edges, roots and topological order; Algorithm 2's
//! invariants and the loop environment must equal the recursive, map-based
//! walks they replaced.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use noelle::analysis::scev::{affine_recurrences, AddRec};
use noelle::core::env::Environment;
use noelle::core::invariants::invariants_noelle;
use noelle::core::wire;
use noelle::ir::builder::FunctionBuilder;
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::inst::{BinOp, Inst, InstId};
use noelle::ir::loops::{LoopForest, LoopInfo};
use noelle::ir::module::{Function, Module};
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle::pdg::depgraph::{DepEdge, DepGraph};
use noelle::pdg::pdg::{PdgBuilder, ProgramPdg};
use noelle::pdg::sccdag::{SccDag, SccKind};
use noelle::workloads::{all, pdg_stress, scale_module};
use noelle_analysis::alias::{AliasAnalysis, AliasStack, AndersenAlias, BasicAlias};
use noelle_fuzz::generator::{generate, GenConfig, SplitMix64};
use noelle_store::artifact::{decode_partition, encode_partition};

type Edge = DepEdge<InstId>;

/// Assert that `g` has exactly the nodes its edge list and the set
/// `internal` call for — the externals are the endpoints not internal — and
/// that every query answers what a scan of the edge list says it should.
fn assert_index_matches_scan(name: &str, g: &DepGraph<InstId>, internal: &BTreeSet<InstId>) {
    let endpoints = g.edges().iter().flat_map(|e| [e.src, e.dst]);
    let external: BTreeSet<InstId> = endpoints.filter(|n| !internal.contains(n)).collect();
    assert_eq!(
        &g.internal_nodes().collect::<BTreeSet<_>>(),
        internal,
        "{name}: internal nodes"
    );
    assert_eq!(
        g.external_nodes().collect::<BTreeSet<_>>(),
        external,
        "{name}: external nodes"
    );
    assert_queries_match_scan(name, g);
}

/// Assert that every query of `g` answers what a scan of `g.edges()` over
/// `g`'s own node lists says it should.
fn assert_queries_match_scan(name: &str, g: &DepGraph<InstId>) {
    let ascending = |nodes: &[InstId]| nodes.windows(2).all(|w| w[0] < w[1]);
    let internal: Vec<InstId> = g.internal_nodes().collect();
    let external: Vec<InstId> = g.external_nodes().collect();
    assert!(ascending(&internal), "{name}: internal nodes not ascending");
    assert!(ascending(&external), "{name}: external nodes not ascending");
    assert_eq!(g.num_internal(), internal.len(), "{name}: num_internal");
    let internal: BTreeSet<InstId> = internal.into_iter().collect();
    let external: BTreeSet<InstId> = external.into_iter().collect();
    assert!(
        internal.is_disjoint(&external),
        "{name}: node lists overlap"
    );

    let mut out: BTreeMap<InstId, Vec<&Edge>> = BTreeMap::new();
    let mut into: BTreeMap<InstId, Vec<&Edge>> = BTreeMap::new();
    let mut memory_pairs: BTreeSet<(InstId, InstId)> = BTreeSet::new();
    for e in g.edges() {
        for n in [e.src, e.dst] {
            assert!(
                internal.contains(&n) || external.contains(&n),
                "{name}: endpoint {n:?} is not a node"
            );
        }
        out.entry(e.src).or_default().push(e);
        into.entry(e.dst).or_default().push(e);
        if e.attrs.memory {
            memory_pairs.insert((e.src.min(e.dst), e.src.max(e.dst)));
        }
    }

    let crossing = |pick: fn(&Edge) -> (InstId, InstId)| -> BTreeSet<InstId> {
        g.edges()
            .iter()
            .map(pick)
            .filter(|(ext, int)| external.contains(ext) && internal.contains(int))
            .map(|(ext, _)| ext)
            .collect()
    };
    assert_eq!(
        g.incoming_externals(),
        crossing(|e| (e.src, e.dst)),
        "{name}: incoming externals"
    );
    assert_eq!(
        g.outgoing_externals(),
        crossing(|e| (e.dst, e.src)),
        "{name}: outgoing externals"
    );

    let none = Vec::new();
    for n in internal.iter().chain(&external).copied() {
        assert_eq!(g.is_internal(n), internal.contains(&n), "{name}: {n:?}");
        let from = out.get(&n).unwrap_or(&none);
        let to = into.get(&n).unwrap_or(&none);
        assert_eq!(
            &g.edges_from(n).collect::<Vec<_>>(),
            from,
            "{name}: edges_from({n:?})"
        );
        assert_eq!(
            &g.edges_to(n).collect::<Vec<_>>(),
            to,
            "{name}: edges_to({n:?})"
        );
        assert_eq!(
            g.dependents_of(n),
            from.iter().map(|e| e.dst).collect(),
            "{name}: dependents_of({n:?})"
        );
        assert_eq!(
            g.dependences_of(n),
            to.iter().map(|e| e.src).collect(),
            "{name}: dependences_of({n:?})"
        );
    }
    for e in g.edges() {
        let connected = memory_pairs.contains(&(e.src.min(e.dst), e.src.max(e.dst)));
        assert_eq!(g.has_memory_dep_between(e.src, e.dst), connected, "{name}");
        assert_eq!(g.has_memory_dep_between(e.dst, e.src), connected, "{name}");
    }
}

/// Assert that `g` survives its own encoding: the decoded graph has the
/// same nodes and edge list, passes the scan check, and re-encodes to the
/// same bytes. Returns the decoded graph.
fn round_trip(name: &str, g: &DepGraph<InstId>, internal: &BTreeSet<InstId>) -> DepGraph<InstId> {
    let bytes = encode_partition(g);
    let decoded = decode_partition(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(decoded.edges(), g.edges(), "{name}: decoded edge list");
    assert_index_matches_scan(&format!("{name} (decoded)"), &decoded, internal);
    assert_eq!(encode_partition(&decoded), bytes, "{name}: re-encoding");
    decoded
}

/// The positions in `all` of `edges`, each an element of `all`.
fn edge_ids<'a, N: 'a>(
    all: &'a [DepEdge<N>],
    edges: impl Iterator<Item = &'a DepEdge<N>>,
) -> Vec<usize> {
    let base = all.as_ptr() as usize;
    edges
        .map(|e| (e as *const DepEdge<N> as usize - base) / std::mem::size_of::<DepEdge<N>>())
        .collect()
}

/// Assert that `g`, a function graph over the instructions `insts`, is the
/// graph that `from_edges` builds over them and `g`'s own edge list with
/// plain `u32` nodes — the path that searches the node table, not the one
/// that reads slots off an arena-index table: the same node lists, the same
/// edge list and both adjacencies, edge id for edge id.
fn assert_function_build_matches_search(
    name: &str,
    g: &DepGraph<InstId>,
    insts: &BTreeSet<InstId>,
) {
    let n = |id: InstId| id.0;
    let edges = g.edges().iter().map(|e| DepEdge {
        src: n(e.src),
        dst: n(e.dst),
        attrs: e.attrs,
    });
    let searched = DepGraph::from_edges(insts.iter().map(|&id| n(id)), edges.collect());
    assert!(
        g.internal_nodes().map(n).eq(searched.internal_nodes()),
        "{name}: internal nodes differ from the searched build"
    );
    assert!(
        g.external_nodes().map(n).eq(searched.external_nodes()),
        "{name}: external nodes differ from the searched build"
    );
    let same_edge =
        |a: &Edge, b: &DepEdge<u32>| n(a.src) == b.src && n(a.dst) == b.dst && a.attrs == b.attrs;
    assert!(
        g.edges().len() == searched.edges().len()
            && g.edges()
                .iter()
                .zip(searched.edges())
                .all(|(a, b)| same_edge(a, b)),
        "{name}: edge list differs from the searched build"
    );
    for node in g.internal_nodes().chain(g.external_nodes()) {
        assert_eq!(
            edge_ids(g.edges(), g.edges_from(node)),
            edge_ids(searched.edges(), searched.edges_from(n(node))),
            "{name}: out-edges of {node:?}"
        );
        assert_eq!(
            edge_ids(g.edges(), g.edges_to(node)),
            edge_ids(searched.edges(), searched.edges_to(n(node))),
            "{name}: in-edges of {node:?}"
        );
    }
}

/// Check every function graph of `m`, each loop's carve, loop graph and
/// aSCCDAG, and the whole-program wire JSON.
fn check_module(name: &str, m: &Module) {
    let basic = BasicAlias::new(m);
    let andersen = AndersenAlias::new(m);
    let tiers = [&basic as &dyn AliasAnalysis, &andersen];
    let stack = AliasStack::new(&tiers);
    let builder = PdgBuilder::new(m, &stack);
    let mut decoded_program: HashMap<_, _> = HashMap::new();

    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        let label = format!("{name}/{}", f.name);
        let g = builder.function_pdg(fid);
        let insts: BTreeSet<InstId> = f.inst_ids().into_iter().collect();
        assert_index_matches_scan(&label, &g, &insts);
        assert_function_build_matches_search(&label, &g, &insts);
        let decoded = round_trip(&label, &g, &insts);

        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        for l in LoopForest::new(f, &cfg, &dt).loops() {
            let label = format!("{label}/loop {:?}", l.header);
            let keep: BTreeSet<InstId> = insts
                .iter()
                .copied()
                .filter(|&id| l.contains(f.parent_block(id)))
                .collect();

            // The carve is `from_edges` over the touching edges, in order.
            let carved = g.subgraph(&keep);
            let touching: Vec<Edge> = g
                .edges()
                .iter()
                .filter(|e| keep.contains(&e.src) || keep.contains(&e.dst))
                .copied()
                .collect();
            assert_eq!(carved.edges(), touching, "{label}: carved edge list");
            assert_index_matches_scan(&format!("{label} (carved)"), &carved, &keep);
            assert_eq!(
                encode_partition(&carved),
                encode_partition(&DepGraph::from_edges(keep.iter().copied(), touching)),
                "{label}: carve is not from_edges over the touching edges"
            );

            // The loop graph, from the built and from the decoded function
            // graph, and what the aSCCDAG's Tarjan pass makes of each.
            let recs = affine_recurrences(f, l);
            let loop_graph = builder.loop_pdg_with(fid, l, &g, &recs);
            assert_index_matches_scan(&label, &loop_graph, &keep);
            assert_eq!(
                builder.loop_pdg_with(fid, l, &decoded, &recs).edges(),
                loop_graph.edges(),
                "{label}: loop graph from the decoded function graph"
            );
            let a = SccDag::new(f, l, &loop_graph, &recs);
            let b = SccDag::new(f, l, &round_trip(&label, &loop_graph, &keep), &recs);
            assert_eq!(
                format!("{:?}", a.nodes()),
                format!("{:?}", b.nodes()),
                "{label}: aSCCDAG nodes"
            );
            for s in 0..a.nodes().len() {
                assert_eq!(a.insts(s), b.insts(s), "{label}: aSCCDAG members");
            }
            assert_eq!(
                a.edges().collect::<BTreeSet<_>>(),
                b.edges().collect::<BTreeSet<_>>(),
                "{label}: aSCCDAG edges"
            );
            assert_eq!(a.topo_order(), b.topo_order(), "{label}: aSCCDAG order");

            // The flat aSCCDAG and the loop walks against the constructions
            // they replaced.
            assert_sccdag_matches_reference(
                &label,
                &a,
                &ReferenceDag::new(f, l, &loop_graph, &recs),
            );
            assert!(
                invariants_noelle(f, l, &loop_graph)
                    .iter()
                    .eq(reference_invariants(f, l, &loop_graph)),
                "{label}: invariants"
            );
            let env = Environment::for_loop(m, f, l);
            let (live_ins, live_outs) = reference_environment(m, f, l);
            assert_eq!(env.live_ins, live_ins, "{label}: live-ins");
            assert_eq!(env.live_outs, live_outs, "{label}: live-outs");
        }
        decoded_program.insert(fid, Arc::new(decoded));
    }

    // Wire JSON must be byte-identical — the server serves these bytes.
    let decoded_program = ProgramPdg {
        per_function: decoded_program,
    };
    let built = wire::pdg_to_json(m, &builder.program_pdg()).to_string_compact();
    let decoded = wire::pdg_to_json(m, &decoded_program).to_string_compact();
    assert_eq!(built, decoded, "{name}: wire JSON of the decoded program");
}

#[test]
fn index_matches_linear_scan_across_all_workloads() {
    let mut workloads = all();
    workloads.push(pdg_stress());
    assert!(workloads.len() >= 42, "corpus shrank: {}", workloads.len());
    for w in &workloads {
        check_module(w.name, &w.build());
    }
}

#[test]
fn index_matches_linear_scan_across_500_fuzz_seeds() {
    // Small random modules exercise shapes (phis, indirect calls, irregular
    // control flow) the curated corpus doesn't, and the whole check is cheap
    // enough per seed to sweep a real campaign's worth.
    let cfg = GenConfig {
        max_kernels: 2,
        size_budget: 80,
        min_n: 4,
        max_n: 16,
    };
    for seed in 0..500u64 {
        let m = generate(seed, &cfg);
        check_module(&format!("seed{seed}"), &m);
    }
}

#[test]
fn the_function_build_matches_the_searched_build_on_a_scale_module() {
    let m = scale_module(256, 1);
    let basic = BasicAlias::new(&m);
    let andersen = AndersenAlias::new(&m);
    let tiers = [&basic as &dyn AliasAnalysis, &andersen];
    let stack = AliasStack::new(&tiers);
    let builder = PdgBuilder::new(&m, &stack);
    let mut checked = 0;
    for fid in m.func_ids().filter(|&fid| !m.func(fid).is_declaration()) {
        let f = m.func(fid);
        let insts: BTreeSet<InstId> = f.inst_ids().into_iter().collect();
        let g = builder.function_pdg(fid);
        assert_eq!(
            g.external_nodes().count(),
            0,
            "{}: an external node",
            f.name
        );
        assert_function_build_matches_search(&f.name, &g, &insts);
        checked += 1;
    }
    assert!(checked >= 256, "{checked} functions");
}

#[test]
fn an_operand_naming_a_detached_instruction_keeps_it_as_an_external_node() {
    // `%live` reads `%dead`, which is then taken out of its block: the
    // arena keeps it, the layout gives it no place.
    let mut b = FunctionBuilder::new("f", vec![("x", Type::I64)], Type::I64);
    let entry = b.entry_block();
    b.switch_to(entry);
    let dead = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
    let live = b.binop(BinOp::Mul, Type::I64, dead, Value::const_i64(2));
    b.ret(Some(live));
    let mut f = b.finish();
    let (dead, live) = (
        dead.as_inst().expect("an instruction"),
        live.as_inst().expect("an instruction"),
    );
    f.remove_inst(dead);
    let mut m = Module::new("detached");
    let fid = m.add_function(f);
    let basic = BasicAlias::new(&m);
    let g = PdgBuilder::new(&m, &basic).function_pdg(fid);
    let insts: BTreeSet<InstId> = m.func(fid).inst_ids().into_iter().collect();
    assert!(!insts.contains(&dead));
    assert_eq!(g.external_nodes().collect::<Vec<_>>(), [dead]);
    assert!(g.edges_from(dead).any(|e| e.dst == live && !e.attrs.memory));
    assert_index_matches_scan("detached", &g, &insts);
    assert_function_build_matches_search("detached", &g, &insts);
}

/// The encoded function graph and loop graphs of every function of `m`.
fn encoded_partitions(m: &Module) -> Vec<Vec<u8>> {
    let basic = BasicAlias::new(m);
    let builder = PdgBuilder::new(m, &basic);
    let mut out = Vec::new();
    for fid in m.func_ids().filter(|&fid| !m.func(fid).is_declaration()) {
        let f = m.func(fid);
        let g = builder.function_pdg(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        for l in LoopForest::new(f, &cfg, &dt).loops() {
            let recs = affine_recurrences(f, l);
            out.push(encode_partition(&builder.loop_pdg_with(fid, l, &g, &recs)));
        }
        out.push(encode_partition(&g));
    }
    out
}

/// One SCC of [`ReferenceDag`].
#[derive(Debug)]
struct ReferenceScc {
    insts: BTreeSet<InstId>,
    kind: SccKind,
    reduction_op: Option<BinOp>,
    reduction_phi: Option<InstId>,
    is_induction: bool,
}

/// The aSCCDAG construction the flat one replaced, kept as the oracle.
struct ReferenceDag {
    nodes: Vec<ReferenceScc>,
    edges: BTreeSet<(usize, usize)>,
}

impl ReferenceDag {
    fn new(f: &Function, l: &LoopInfo, g: &DepGraph<InstId>, recs: &[AddRec]) -> ReferenceDag {
        let internal: Vec<InstId> = g.internal_nodes().collect();
        let sccs = reference_tarjan(&internal, g);
        let mut scc_of = HashMap::new();
        for (i, scc) in sccs.iter().enumerate() {
            for &n in scc {
                scc_of.insert(n, i);
            }
        }
        let mut edges = BTreeSet::new();
        for e in g.edges() {
            if let (Some(&a), Some(&b)) = (scc_of.get(&e.src), scc_of.get(&e.dst)) {
                if a != b {
                    edges.insert((a, b));
                }
            }
        }
        let iv_insts: BTreeSet<InstId> = recs.iter().flat_map(|r| [r.phi, r.update]).collect();
        let mut nodes = Vec::new();
        for scc in &sccs {
            let insts: BTreeSet<InstId> = scc.iter().copied().collect();
            let (kind, reduction_op, reduction_phi) = reference_classify(f, l, g, &insts);
            let is_induction = insts.iter().any(|x| iv_insts.contains(x))
                && insts.iter().all(|x| {
                    iv_insts.contains(x) || matches!(f.inst(*x), Inst::Icmp { .. } | Inst::Term(_))
                });
            nodes.push(ReferenceScc {
                insts,
                kind,
                reduction_op,
                reduction_phi,
                is_induction,
            });
        }
        ReferenceDag { nodes, edges }
    }

    fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| !self.edges.iter().any(|&(_, d)| d == n))
            .collect()
    }

    fn topo_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for &(_, d) in &self.edges {
            indeg[d] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(x) = queue.pop() {
            out.push(x);
            for &(s, d) in &self.edges {
                if s == x {
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        queue.push(d);
                    }
                }
            }
        }
        out
    }
}

/// Tarjan's algorithm as the map-based aSCCDAG ran it: one `Vec` per SCC,
/// sorted, in emission order.
fn reference_tarjan(nodes: &[InstId], g: &DepGraph<InstId>) -> Vec<Vec<InstId>> {
    let n = nodes.len();
    let idx = |x: InstId| nodes.binary_search(&x).expect("internal");
    let succs: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&node| {
            let mut out: Vec<usize> = g
                .edges_from(node)
                .filter(|e| g.is_internal(e.dst))
                .map(|e| idx(e.dst))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut counter = 0;
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = counter;
        lowlink[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        call_stack.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            if *pos < succs[v].len() {
                let w = succs[v][*pos];
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = counter;
                    lowlink[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(p, _)) = call_stack.last() {
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// The per-SCC classifier the flat aSCCDAG replaced: two scans of the
/// whole edge list per SCC.
fn reference_classify(
    f: &Function,
    l: &LoopInfo,
    g: &DepGraph<InstId>,
    insts: &BTreeSet<InstId>,
) -> (SccKind, Option<BinOp>, Option<InstId>) {
    let carried: Vec<_> = g
        .edges()
        .iter()
        .filter(|e| {
            e.attrs.loop_carried
                && e.attrs.is_data()
                && insts.contains(&e.src)
                && insts.contains(&e.dst)
        })
        .collect();
    if carried.is_empty() {
        return (SccKind::Independent, None, None);
    }
    if carried.iter().any(|e| e.attrs.memory) {
        return (SccKind::Sequential, None, None);
    }
    let mut phi = None;
    let mut op = None;
    let mut clean = true;
    for &i in insts {
        match f.inst(i) {
            Inst::Phi { .. } if f.parent_block(i) == l.header => {
                if phi.replace(i).is_some() {
                    clean = false;
                }
            }
            Inst::Bin { op: o, .. } if o.is_reduction_op() => match op {
                None => op = Some(*o),
                Some(prev) if prev == *o => {}
                _ => clean = false,
            },
            _ => clean = false,
        }
    }
    if let (true, Some(phi), Some(op)) = (clean, phi, op) {
        let observed_inside = g.edges().iter().any(|e| {
            insts.contains(&e.src)
                && !insts.contains(&e.dst)
                && g.is_internal(e.dst)
                && e.attrs.is_data()
                && !e.attrs.memory
        });
        if !observed_inside {
            return (SccKind::Reducible, Some(op), Some(phi));
        }
    }
    (SccKind::Sequential, None, None)
}

fn assert_sccdag_matches_reference(label: &str, dag: &SccDag, reference: &ReferenceDag) {
    assert_eq!(
        dag.nodes().len(),
        reference.nodes.len(),
        "{label}: SCC count"
    );
    for (node, want) in dag.nodes().iter().zip(&reference.nodes) {
        let s = node.id;
        assert!(
            dag.insts(s).iter().eq(&want.insts),
            "{label}: SCC {s} members"
        );
        assert_eq!(node.kind, want.kind, "{label}: SCC {s} kind");
        assert_eq!(node.reduction_op, want.reduction_op, "{label}: SCC {s} op");
        assert_eq!(
            node.reduction_phi, want.reduction_phi,
            "{label}: SCC {s} phi"
        );
        assert_eq!(
            node.is_induction, want.is_induction,
            "{label}: SCC {s} induction"
        );
        for &i in dag.insts(s) {
            assert_eq!(dag.scc_of(i), Some(s), "{label}: scc_of({i:?})");
        }
    }
    assert!(
        dag.edges().eq(reference.edges.iter().copied()),
        "{label}: DAG edges"
    );
    assert_eq!(dag.roots(), reference.roots(), "{label}: roots");
    assert_eq!(
        dag.topo_order(),
        reference.topo_order(),
        "{label}: topological order"
    );
}

/// Algorithm 2 as the recursive, map-memoized walk it was.
fn reference_invariants(f: &Function, l: &LoopInfo, dg: &DepGraph<InstId>) -> Vec<InstId> {
    fn invariant(
        f: &Function,
        l: &LoopInfo,
        dg: &DepGraph<InstId>,
        id: InstId,
        stack: &mut Vec<InstId>,
        memo: &mut HashMap<InstId, bool>,
    ) -> bool {
        if stack.contains(&id) {
            return false;
        }
        if let Some(&r) = memo.get(&id) {
            return r;
        }
        let eligible = match f.inst(id) {
            Inst::Phi { .. } | Inst::Term(_) | Inst::Alloca { .. } | Inst::Store { .. } => false,
            Inst::Call { .. } => !dg
                .edges_to(id)
                .chain(dg.edges_from(id))
                .any(|e| e.attrs.memory && e.src == e.dst),
            _ => true,
        };
        if !eligible {
            memo.insert(id, false);
            return false;
        }
        stack.push(id);
        let mut result = true;
        for e in dg.edges_to(id) {
            if !e.attrs.is_data() {
                continue;
            }
            let j = e.src;
            if j == id || l.contains(f.parent_block(j)) && !invariant(f, l, dg, j, stack, memo) {
                result = false;
                break;
            }
        }
        stack.pop();
        memo.insert(id, result);
        result
    }
    let mut memo = HashMap::new();
    let mut out: Vec<InstId> = f
        .inst_ids()
        .into_iter()
        .filter(|&id| l.contains(f.parent_block(id)))
        .filter(|&id| invariant(f, l, dg, id, &mut Vec::new(), &mut memo))
        .collect();
    out.sort();
    out
}

/// Live-ins or live-outs, in slot order.
type Slots = Vec<(Value, Type)>;

/// The loop environment as the whole-function, set-deduplicated walk it was.
fn reference_environment(m: &Module, f: &Function, l: &LoopInfo) -> (Slots, Slots) {
    let (mut live_ins, mut live_outs) = (Vec::new(), Vec::new());
    let (mut seen_in, mut seen_out) = (BTreeSet::new(), BTreeSet::new());
    let in_loop = |id: InstId| l.contains(f.parent_block(id));
    for id in f.inst_ids() {
        let mut operands = Vec::new();
        f.inst(id).for_each_operand(|op| operands.push(op));
        for op in operands {
            if in_loop(id) {
                let is_livein = match op {
                    Value::Arg(_) => true,
                    Value::Inst(d) => !in_loop(d),
                    _ => false,
                };
                if is_livein && seen_in.insert(op) {
                    live_ins.push((op, f.value_type(m, op)));
                }
            } else if matches!(op, Value::Inst(d) if in_loop(d)) && seen_out.insert(op) {
                live_outs.push((op, f.value_type(m, op)));
            }
        }
    }
    (live_ins, live_outs)
}

/// One to three random byte-level edits of `bytes`: flip a bit, overwrite
/// a byte with another of the payload's own (so mutants stay near the
/// format), insert or delete a byte, truncate, or splice in a varint far
/// larger than any count or node the input could honour.
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    const HUGE: [u8; 5] = [0xff, 0xff, 0xff, 0xff, 0x0f];
    let mut out = bytes.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() as u64) as usize;
        match rng.below(6) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = *rng.pick(bytes),
            2 => out.insert(at, rng.below(256) as u8),
            3 => drop(out.remove(at)),
            4 => out.truncate(at.max(1)),
            _ => drop(out.splice(at..at, HUGE)),
        }
        if out.is_empty() {
            out.push(0);
        }
    }
    out
}

/// 500 byte-level mutants of each workload's encoded partitions: the
/// decoder refuses one, or returns a graph like any other.
#[test]
fn byte_mutated_partitions_never_panic_the_decoder() {
    const MUTANTS_PER_WORKLOAD: usize = 500;
    let mut rng = SplitMix64::new(0x4e4f_454c_4c45);
    let (mut mutants, mut rejected) = (0, 0);
    for w in all().into_iter().chain(std::iter::once(pdg_stress())) {
        let (name, payloads) = (w.name, encoded_partitions(&w.build()));
        for _ in 0..MUTANTS_PER_WORKLOAD {
            let payload: &Vec<u8> = rng.pick(&payloads);
            mutants += 1;
            let Ok(g) = decode_partition(&mutate(payload, &mut rng)) else {
                rejected += 1;
                continue;
            };
            assert_queries_match_scan(name, &g);
            let again = encode_partition(&g);
            let back = decode_partition(&again).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back.edges(), g.edges(), "{name}");
            assert_eq!(encode_partition(&back), again, "{name}");
        }
    }
    assert!(mutants >= 20_000, "{mutants} mutants");
    let accepted = mutants - rejected;
    eprintln!("{mutants} mutants: {rejected} rejected, {accepted} accepted");
    // The smoke must exercise both outcomes, or it shows nothing.
    assert!(
        rejected > mutants / 4 && accepted > mutants / 50,
        "{rejected} of {mutants} rejected"
    );
}
