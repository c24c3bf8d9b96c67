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
//! The same scan judges what the partition decoder makes of hostile bytes:
//! byte-mutated encodings of the corpus graphs must come back as `Err` or
//! as a graph that is consistent with itself — never a panic (ROADMAP item
//! 6).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use noelle::core::wire;
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::inst::InstId;
use noelle::ir::loops::LoopForest;
use noelle::ir::module::Module;
use noelle::pdg::depgraph::{DepEdge, DepGraph};
use noelle::pdg::pdg::{PdgBuilder, ProgramPdg};
use noelle::pdg::sccdag::SccDag;
use noelle::workloads::{all, pdg_stress};
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

/// Check every function graph of `m`, each loop's carve, loop graph and
/// aSCCDAG, and the whole-program wire JSON.
fn check_module(name: &str, m: &Module) {
    let basic = BasicAlias::new(m);
    let andersen = AndersenAlias::new(m);
    let stack = AliasStack::new(vec![&basic as &dyn AliasAnalysis, &andersen]);
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
            let loop_graph = builder.loop_pdg_with(fid, l, &g);
            assert_index_matches_scan(&label, &loop_graph, &keep);
            assert_eq!(
                builder.loop_pdg_with(fid, l, &decoded).edges(),
                loop_graph.edges(),
                "{label}: loop graph from the decoded function graph"
            );
            let a = SccDag::new(f, l, &loop_graph);
            let b = SccDag::new(f, l, &round_trip(&label, &loop_graph, &keep));
            assert_eq!(
                format!("{:?}", a.nodes()),
                format!("{:?}", b.nodes()),
                "{label}: aSCCDAG nodes"
            );
            assert_eq!(
                a.edges().collect::<BTreeSet<_>>(),
                b.edges().collect::<BTreeSet<_>>(),
                "{label}: aSCCDAG edges"
            );
            assert_eq!(a.topo_order(), b.topo_order(), "{label}: aSCCDAG order");
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
            out.push(encode_partition(&builder.loop_pdg_with(fid, l, &g)));
        }
        out.push(encode_partition(&g));
    }
    out
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
