//! Layout equivalence: the frozen CSR `DepGraph` form must be
//! observationally identical to the adjacency-map form it replaced.
//!
//! `PdgBuilder::function_pdg` constructs graphs directly in frozen CSR
//! form. The reference here replays the same nodes and edge stream through
//! `DepGraph::new()` + `add_internal`/`add_edge` and never freezes it, so it
//! answers from the adjacency maps. These tests pin that the two forms
//! agree on everything a client can observe — node sets, the ordered edge
//! stream, per-node in/out adjacency, external boundaries, every loop graph
//! and its aSCCDAG, and the wire JSON — across the whole bundled corpus and
//! a 500-seed fuzz-generator campaign.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use noelle::core::wire;
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::inst::InstId;
use noelle::ir::loops::LoopForest;
use noelle::ir::module::Module;
use noelle::pdg::depgraph::DepGraph;
use noelle::pdg::pdg::{PdgBuilder, ProgramPdg};
use noelle::pdg::sccdag::SccDag;
use noelle::workloads::{all, pdg_stress};
use noelle_analysis::alias::{AliasAnalysis, AliasStack, AndersenAlias, BasicAlias};
use noelle_fuzz::generator::{generate, GenConfig};

/// Assert every observable surface of `frozen` matches `mapped`.
fn assert_graphs_equivalent(name: &str, frozen: &DepGraph<InstId>, mapped: &DepGraph<InstId>) {
    assert!(frozen.is_frozen(), "{name}: production graph must be CSR");
    assert!(
        !mapped.is_frozen(),
        "{name}: reference graph must stay maps"
    );

    assert_eq!(
        frozen.internal_nodes().collect::<BTreeSet<_>>(),
        mapped.internal_nodes().collect::<BTreeSet<_>>(),
        "{name}: internal node sets diverged"
    );
    assert_eq!(
        frozen.external_nodes().collect::<BTreeSet<_>>(),
        mapped.external_nodes().collect::<BTreeSet<_>>(),
        "{name}: external node sets diverged"
    );
    // The ordered edge stream is what wire encodings and `EdgeId`s key on:
    // it must be identical, not merely set-equal.
    assert_eq!(
        frozen.edges(),
        mapped.edges(),
        "{name}: ordered edge streams diverged"
    );
    assert_eq!(
        frozen.incoming_externals(),
        mapped.incoming_externals(),
        "{name}: incoming externals diverged"
    );
    assert_eq!(
        frozen.outgoing_externals(),
        mapped.outgoing_externals(),
        "{name}: outgoing externals diverged"
    );
    for n in frozen
        .internal_nodes()
        .chain(frozen.external_nodes())
        .collect::<Vec<_>>()
    {
        assert_eq!(
            frozen.edges_from(n).collect::<Vec<_>>(),
            mapped.edges_from(n).collect::<Vec<_>>(),
            "{name}: edges_from({n:?}) diverged"
        );
        assert_eq!(
            frozen.edges_to(n).collect::<Vec<_>>(),
            mapped.edges_to(n).collect::<Vec<_>>(),
            "{name}: edges_to({n:?}) diverged"
        );
        assert_eq!(
            frozen.dependences_of(n),
            mapped.dependences_of(n),
            "{name}: dependences_of({n:?}) diverged"
        );
        assert_eq!(
            frozen.dependents_of(n),
            mapped.dependents_of(n),
            "{name}: dependents_of({n:?}) diverged"
        );
    }
}

/// The adjacency-map form of `g`: the same nodes and edges, in the same
/// order, through the incremental interface, left unfrozen.
fn adjacency_map_form(g: &DepGraph<InstId>) -> DepGraph<InstId> {
    let mut mapped = DepGraph::new();
    for n in g.internal_nodes() {
        mapped.add_internal(n);
    }
    for e in g.edges() {
        mapped.add_edge(e.src, e.dst, e.attrs);
    }
    mapped
}

/// Compare both layouts over every function of `m`, including each loop's
/// graph and aSCCDAG and the whole-program wire JSON.
fn check_module(name: &str, m: &Module) {
    let basic = BasicAlias::new(m);
    let andersen = AndersenAlias::new(m);
    let stack = AliasStack::new(vec![&basic as &dyn AliasAnalysis, &andersen]);
    let builder = PdgBuilder::new(m, &stack);
    let mut mapped_program: HashMap<_, _> = HashMap::new();

    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        let frozen = builder.function_pdg(fid);
        let mapped = adjacency_map_form(&frozen);
        let label = format!("{name}/{}", f.name);
        assert_graphs_equivalent(&label, &frozen, &mapped);

        // The aSCCDAG Tarjan pass consumes the graph through the same
        // adjacency interface; it must see the same condensation.
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        for l in LoopForest::new(f, &cfg, &dt).loops() {
            let frozen_loop = builder.loop_pdg_with(fid, l, &frozen);
            let mapped_loop = builder.loop_pdg_with(fid, l, &mapped);
            assert_eq!(
                frozen_loop.edges(),
                mapped_loop.edges(),
                "{label}: loop graphs diverged on loop header {:?}",
                l.header
            );
            let a = SccDag::new(f, l, &frozen_loop);
            let b = SccDag::new(f, l, &mapped_loop);
            assert_eq!(
                format!("{:?}", a.nodes()),
                format!("{:?}", b.nodes()),
                "{label}: aSCCDAG nodes diverged on loop header {:?}",
                l.header
            );
            assert_eq!(
                a.edges().collect::<BTreeSet<_>>(),
                b.edges().collect::<BTreeSet<_>>(),
                "{label}: aSCCDAG edges diverged on loop header {:?}",
                l.header
            );
            assert_eq!(
                a.topo_order(),
                b.topo_order(),
                "{label}: aSCCDAG topo order diverged on loop header {:?}",
                l.header
            );
        }
        mapped_program.insert(fid, Arc::new(mapped));
    }

    // Wire JSON must be byte-identical — the server serves these bytes.
    let mapped_program = ProgramPdg {
        per_function: mapped_program,
    };
    let fast = wire::pdg_to_json(m, &builder.program_pdg()).to_string_compact();
    let mapped = wire::pdg_to_json(m, &mapped_program).to_string_compact();
    assert_eq!(fast, mapped, "{name}: wire JSON diverged between layouts");
}

#[test]
fn csr_matches_adjacency_map_across_all_workloads() {
    let mut workloads = all();
    workloads.push(pdg_stress());
    assert!(workloads.len() >= 42, "corpus shrank: {}", workloads.len());
    for w in &workloads {
        check_module(w.name, &w.build());
    }
}

#[test]
fn csr_matches_adjacency_map_across_500_fuzz_seeds() {
    // Generator smoke on the new layout: small random modules exercise
    // shapes (phis, indirect calls, irregular control flow) the curated
    // corpus doesn't. Full structural equivalence is cheap enough per seed
    // to sweep a real campaign's worth.
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
