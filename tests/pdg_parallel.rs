//! The PDG pipeline's acceptance tests: the bucketed/parallel build is
//! edge-for-edge identical to the sequential all-pairs oracle on every
//! bundled workload, loop-carried refinement is iteration-aware on nested
//! loops, the demand-driven manager drops stale graphs when the module is
//! mutated, every graph reproduces the recorded golden, and the function
//! graph is the only memo of alias verdicts — a build asks each question
//! once and a loop graph asks none — and the manager's reused build buffers
//! carry nothing from one build to the next.

use noelle::analysis::alias::{
    AliasAnalysis, AliasResult, AliasStack, AndersenAlias, BaseObjects, BasicAlias,
};
use noelle::analysis::scev::affine_recurrences;
use noelle::core::loop_builder;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::core::wire;
use noelle::ir::builder::FunctionBuilder;
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::inst::{BinOp, IcmpPred, Inst, InstId};
use noelle::ir::loops::{LoopForest, LoopInfo};
use noelle::ir::module::{FuncId, Module};
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle::pdg::depgraph::{DataDepKind, DepGraph, DepKind};
use noelle::pdg::pdg::PdgBuilder;
use noelle::pdg::sccdag::SccDag;
use noelle::transforms::{parallelize, LoopTargetOpts, Parallelizer};
use noelle::workloads::{all, pdg_stress, scale_module};
use noelle_fuzz::generator::{generate, GenConfig};
use noelle_plan::{apply_plan, plan_module, PlanOptions};
use noelle_store::artifact::{decode_partition, encode_partition};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Flatten a graph into a comparable (sorted) edge multiset.
fn edge_set(g: &DepGraph<InstId>) -> Vec<(InstId, InstId, String)> {
    let mut v: Vec<_> = g
        .edges()
        .iter()
        .map(|e| (e.src, e.dst, format!("{:?}", e.attrs)))
        .collect();
    v.sort();
    v
}

#[test]
fn parallel_bucketed_pdg_matches_sequential_oracle_on_every_workload() {
    let mut workloads = all();
    workloads.push(pdg_stress());
    for w in &workloads {
        let m = w.build();
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let builder = PdgBuilder::new(&m, &stack);
        let fast = builder.program_pdg();
        let defined: Vec<FuncId> = m
            .func_ids()
            .filter(|&fid| !m.func(fid).is_declaration())
            .collect();
        assert_eq!(
            fast.per_function.len(),
            defined.len(),
            "{}: function count",
            w.name
        );
        for fid in defined {
            assert_eq!(
                edge_set(&fast.per_function[&fid]),
                edge_set(&builder.function_pdg_allpairs(fid)),
                "{}: function {fid:?} diverges from the all-pairs oracle",
                w.name
            );
        }
    }
}

/// Every node's adjacency queries answer what a scan of the edge list says,
/// in edge-list order, and the internal nodes are exactly `internal`.
fn assert_adjacency_matches_scan(label: &str, g: &DepGraph<InstId>, internal: &BTreeSet<InstId>) {
    assert_eq!(
        &g.internal_nodes().collect::<BTreeSet<_>>(),
        internal,
        "{label}: internal nodes"
    );
    let endpoints = g.edges().iter().flat_map(|e| [e.src, e.dst]);
    assert_eq!(
        g.external_nodes().collect::<BTreeSet<_>>(),
        endpoints.filter(|n| !internal.contains(n)).collect(),
        "{label}: external nodes"
    );
    for n in g.internal_nodes().chain(g.external_nodes()) {
        let from: Vec<_> = g.edges().iter().filter(|e| e.src == n).collect();
        let to: Vec<_> = g.edges().iter().filter(|e| e.dst == n).collect();
        assert_eq!(
            g.edges_from(n).collect::<Vec<_>>(),
            from,
            "{label}: from {n}"
        );
        assert_eq!(g.edges_to(n).collect::<Vec<_>>(), to, "{label}: to {n}");
    }
}

/// The golden corpus only holds freshly built modules: no arena holes, and
/// `InstId` order is layout order. After `apply_plan` and a DSWP sweep
/// neither holds — pipeline stages dropped instructions (arena holes),
/// dispatch code was appended out of layout order, task functions are new —
/// and the dense tables the build
/// keys by arena index must not care: every function graph equals the
/// all-pairs reference edge for edge *in order*, every loop graph survives
/// the partition codec byte for byte, and adjacency answers what a scan of
/// the edge list says.
#[test]
fn transformed_functions_build_the_same_graphs_as_the_allpairs_oracle() {
    let mut workloads = all();
    workloads.push(pdg_stress());
    let (mut functions, mut loops, mut with_holes, mut out_of_order) = (0, 0, 0, 0);
    for w in &workloads {
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        apply_plan(&mut n, &plan);
        // The planner never picks DSWP, the one emitter that detaches
        // instructions (a stage drops the clones other stages own).
        let every_loop = LoopTargetOpts {
            min_hotness: 0.0,
            workers: 2,
        };
        parallelize(&mut n, Parallelizer::Dswp, &every_loop);
        let m = n.into_module();
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let builder = PdgBuilder::new(&m, &stack);
        for fid in m.func_ids().filter(|&fid| !m.func(fid).is_declaration()) {
            let f = m.func(fid);
            let label = format!("{}/{}", w.name, f.name);
            let g = builder.function_pdg(fid);
            functions += 1;
            assert_eq!(
                encode_partition(&g),
                encode_partition(&builder.function_pdg_allpairs(fid)),
                "{label}: diverges from the all-pairs oracle"
            );
            let layout = f.inst_ids();
            out_of_order += usize::from(!layout.windows(2).all(|w| w[0] < w[1]));
            if layout.len() < f.inst_arena_len() {
                with_holes += 1;
                assert_adjacency_matches_scan(&label, &g, &layout.iter().copied().collect());
            }
            let cfg = Cfg::new(f);
            let dt = DomTree::new(f, &cfg);
            for l in LoopForest::new(f, &cfg, &dt).loops() {
                let recs = affine_recurrences(f, l);
                let bytes = encode_partition(&builder.loop_pdg_with(fid, l, &g, &recs));
                let decoded = decode_partition(&bytes).expect("loop graph decodes");
                loops += 1;
                assert_eq!(
                    encode_partition(&decoded),
                    bytes,
                    "{label}: loop graph does not round-trip"
                );
            }
        }
    }
    // The corpus must hold what the test is about, or it shows nothing.
    assert!(
        functions >= 300 && loops >= 100 && with_holes >= 1 && out_of_order >= 50,
        "{functions} functions, {loops} loops, {with_holes} with detached instructions, \
         {out_of_order} laid out against id order"
    );
}

/// `for i { for j { a[j] += 1 } }`: the store/load pair on `a[j]` is
/// iteration-local for the inner loop (j addresses a fresh element every
/// iteration) but loop-carried for the outer loop (j restarts, so iteration
/// i+1 rereads what iteration i wrote).
fn nested_update() -> (Module, FuncId) {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(
        "k",
        vec![("a", Type::I64.ptr_to()), ("n", Type::I64)],
        Type::I64,
    );
    let entry = b.entry_block();
    let oh = b.block("outer_header");
    let ih = b.block("inner_header");
    let ib = b.block("inner_body");
    let ol = b.block("outer_latch");
    let exit = b.block("exit");
    b.switch_to(entry);
    b.br(oh);
    b.switch_to(oh);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let ci = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
    b.cond_br(ci, ih, exit);
    b.switch_to(ih);
    let j = b.phi(Type::I64, vec![(oh, Value::const_i64(0))]);
    let cj = b.icmp(IcmpPred::Slt, Type::I64, j, b.arg(1));
    b.cond_br(cj, ib, ol);
    b.switch_to(ib);
    let p = b.index_ptr(Type::I64, b.arg(0), j);
    let v = b.load(Type::I64, p);
    let v2 = b.binop(BinOp::Add, Type::I64, v, Value::const_i64(1));
    b.store(Type::I64, v2, p);
    let j2 = b.binop(BinOp::Add, Type::I64, j, Value::const_i64(1));
    b.br(ih);
    b.add_incoming(j, ib, j2);
    b.switch_to(ol);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(oh);
    b.add_incoming(i, ol, i2);
    b.switch_to(exit);
    b.ret(Some(Value::const_i64(0)));
    let fid = m.add_function(b.finish());
    (m, fid)
}

fn mem_insts(m: &Module, fid: FuncId) -> (InstId, InstId) {
    let f = m.func(fid);
    let load = f
        .inst_ids()
        .into_iter()
        .find(|&id| matches!(f.inst(id), Inst::Load { .. }))
        .unwrap();
    let store = f
        .inst_ids()
        .into_iter()
        .find(|&id| matches!(f.inst(id), Inst::Store { .. }))
        .unwrap();
    (load, store)
}

#[test]
fn nested_loop_memory_refinement_is_iteration_aware() {
    let (m, fid) = nested_update();
    noelle::ir::verifier::verify_module(&m).expect("verifies");
    let (load, store) = mem_insts(&m, fid);
    let f = m.func(fid);
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let forest = LoopForest::new(f, &cfg, &dt);
    let outer = forest
        .loops()
        .iter()
        .find(|l| l.depth == 1)
        .expect("outer loop")
        .clone();
    let inner = forest
        .loops()
        .iter()
        .find(|l| l.depth == 2)
        .expect("inner loop")
        .clone();
    assert!(outer.blocks.len() > inner.blocks.len());

    let basic = BasicAlias::new(&m);
    let builder = PdgBuilder::new(&m, &basic);

    // Inner loop: a[j] is a fresh element every iteration, so the only
    // memory dependence between the load and the store is intra-iteration.
    let gi = builder.loop_pdg(fid, &inner);
    let carried_mem: Vec<_> = gi
        .edges()
        .iter()
        .filter(|e| e.attrs.memory && e.attrs.loop_carried)
        .collect();
    assert!(
        carried_mem.is_empty(),
        "inner loop must have no carried memory deps: {carried_mem:?}"
    );
    assert!(
        gi.edges().iter().any(|e| e.src == load
            && e.dst == store
            && e.attrs.memory
            && e.attrs.distance == Some(0)),
        "intra-iteration load->store dependence expected"
    );

    // Outer loop: j restarts at 0 each outer iteration, so the same pair is
    // loop-carried (RAW from the store back around to the load) and the
    // store conflicts with itself across iterations (WAW).
    let go = builder.loop_pdg(fid, &outer);
    assert!(
        go.edges().iter().any(|e| e.src == store
            && e.dst == load
            && e.attrs.memory
            && e.attrs.loop_carried
            && e.attrs.kind == DepKind::Data(DataDepKind::Raw)),
        "outer loop must carry the store->load RAW dependence"
    );
    assert!(
        go.edges().iter().any(|e| e.src == store
            && e.dst == store
            && e.attrs.memory
            && e.attrs.loop_carried
            && e.attrs.kind == DepKind::Data(DataDepKind::Waw)),
        "outer loop must carry the store's self-WAW"
    );
}

/// A single loop whose body loads and stores a scratch cell: mutating the
/// function through `LoopBuilder` must invalidate the manager's cached PDG.
fn scratch_loop() -> (Module, FuncId) {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("k", vec![("n", Type::I64)], Type::I64);
    let entry = b.entry_block();
    let header = b.block("header");
    let body = b.block("body");
    let exit = b.block("exit");
    b.switch_to(entry);
    let cell = b.alloca(Type::I64);
    b.store(Type::I64, Value::const_i64(1), cell);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let v = b.load(Type::I64, cell);
    let v2 = b.binop(BinOp::Add, Type::I64, v, i);
    b.store(Type::I64, v2, cell);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(header);
    b.add_incoming(i, body, i2);
    b.switch_to(exit);
    b.ret(Some(Value::const_i64(0)));
    let fid = m.add_function(b.finish());
    (m, fid)
}

#[test]
fn manager_drops_stale_pdg_after_loop_builder_mutation() {
    let (m, fid) = scratch_loop();
    noelle::ir::verifier::verify_module(&m).expect("verifies");
    let f = m.func(fid);
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let l: LoopInfo = LoopForest::new(f, &cfg, &dt).loops()[0].clone();
    let cond_term = f.terminator_id(l.header).expect("header terminator");
    let load = f
        .inst_ids()
        .into_iter()
        .find(|&id| matches!(f.inst(id), Inst::Load { .. }))
        .unwrap();

    let mut n = Noelle::new(m, AliasTier::Full);
    let p1 = n.pdg();
    let g1 = &p1.per_function[&fid];
    assert!(
        g1.edges()
            .iter()
            .any(|e| e.src == cond_term && e.dst == load && e.attrs.is_control()),
        "load in the conditional body is control-dependent on the header branch"
    );

    // Hoist the load out of the loop: it no longer executes under the loop
    // condition, so the control dependence above is stale.
    n.edit(|tx| loop_builder::hoist_to_preheader(tx.func_mut(fid), &l, load).expect("hoists"));
    noelle::ir::verifier::verify_module(n.module()).expect("still verifies");

    let p2 = n.pdg();
    assert!(
        !Arc::ptr_eq(&p1, &p2),
        "mutation must invalidate the cached PDG handle"
    );
    let g2 = &p2.per_function[&fid];
    assert!(
        !g2.edges()
            .iter()
            .any(|e| e.src == cond_term && e.dst == load && e.attrs.is_control()),
        "stale control dependence must be gone after re-request"
    );
    // The old handle still describes the pre-mutation program (Arc snapshot).
    assert!(g1
        .edges()
        .iter()
        .any(|e| e.src == cond_term && e.dst == load && e.attrs.is_control()));
}

fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bundled workloads, `pdg_stress`, `scale_module(256)` and fuzz seeds
/// 0..500 — the corpus `tests/corpus/pdg/edges_golden.json` was recorded on.
fn golden_corpus() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = all()
        .into_iter()
        .chain(std::iter::once(pdg_stress()))
        .map(|w| (w.name.to_string(), w.build()))
        .collect();
    out.push(("scale_module(256)".to_string(), scale_module(256, 1)));
    let cfg = GenConfig::default();
    out.extend((0..500).map(|seed| (format!("fuzz_{seed}"), generate(seed, &cfg))));
    out
}

/// `tests/corpus/pdg/edges_golden.json` was recorded before the loop graph
/// read its memory dependences from the function graph, while
/// `loop_pdg_with` still re-asked the alias stack for every pair. Per
/// module it holds the FNV-64 of the whole-program wire JSON and one FNV-64
/// folded over every loop graph's stable encoding (node sets, then the
/// ordered edge stream with every attribute). Whatever builds PDGs must
/// reproduce it bit for bit.
#[test]
fn pdg_edges_reproduce_the_recorded_golden() {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut doc = String::from("[\n");
    for (i, (name, m)) in golden_corpus().iter().enumerate() {
        let basic = BasicAlias::new(m);
        let andersen = AndersenAlias::new(m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let builder = PdgBuilder::new(m, &stack);
        let pdg = builder.program_pdg();
        let json = wire::pdg_to_json(m, &pdg).to_string_compact();
        let (mut loops, mut loop_edges, mut loop_hash) = (0usize, 0usize, FNV_OFFSET);
        for fid in m.func_ids() {
            let f = m.func(fid);
            if f.is_declaration() {
                continue;
            }
            let cfg = Cfg::new(f);
            let dt = DomTree::new(f, &cfg);
            for l in LoopForest::new(f, &cfg, &dt).loops() {
                let recs = affine_recurrences(f, l);
                let g = builder.loop_pdg_with(fid, l, &pdg.per_function[&fid], &recs);
                loops += 1;
                loop_edges += g.edges().len();
                loop_hash = fnv64(loop_hash, &encode_partition(&g));
            }
        }
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&format!(
            "  {{\"name\": \"{name}\", \"edges\": {}, \"pdg\": \"{:016x}\", \"loops\": {loops}, \"loop_edges\": {loop_edges}, \"loop_pdgs\": \"{loop_hash:016x}\"}}",
            pdg.num_edges(),
            fnv64(FNV_OFFSET, json.as_bytes()),
        ));
    }
    doc.push_str("\n]\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/pdg/edges_golden.json"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if doc != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/edges_golden.actual.json");
        std::fs::write(actual, &doc).expect("writes the actual document");
        let line = doc
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .find(|(a, g)| a != g)
            .map_or("<length differs>", |(a, _)| a);
        panic!(
            "PDG edges diverge from {path} (actual written to {actual}); first difference: {line}"
        );
    }
}

/// An alias analysis that records every question it is asked.
struct CountingAlias<'a> {
    inner: &'a dyn AliasAnalysis,
    alias_calls: Mutex<Vec<(Value, Value)>>,
    base_calls: Mutex<Vec<Value>>,
}

impl CountingAlias<'_> {
    /// The questions asked since the last call: `alias` pairs in canonical
    /// `(min, max)` order, and `base_objects` pointers.
    fn take(&self) -> (Vec<(Value, Value)>, Vec<Value>) {
        (
            std::mem::take(&mut self.alias_calls.lock().unwrap()),
            std::mem::take(&mut self.base_calls.lock().unwrap()),
        )
    }
}

impl AliasAnalysis for CountingAlias<'_> {
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult {
        self.alias_calls.lock().unwrap().push((a.min(b), a.max(b)));
        self.inner.alias(fid, a, b)
    }

    fn base_objects(&self, fid: FuncId, ptr: Value, out: &mut BaseObjects) -> bool {
        self.base_calls.lock().unwrap().push(ptr);
        self.inner.base_objects(fid, ptr, out)
    }

    fn name(&self) -> &'static str {
        "counting-aa"
    }
}

fn assert_no_repeats<T: Ord + std::fmt::Debug>(label: &str, mut asked: Vec<T>) {
    asked.sort();
    if let Some(w) = asked.windows(2).find(|w| w[0] == w[1]) {
        panic!("{label}: asked twice about {:?}", w[0]);
    }
}

/// What lets the function graph stand in for an alias-query cache: one
/// `function_pdg` asks about each distinct pointer and each distinct
/// unordered pointer pair at most once and still finds every edge of the
/// all-pairs oracle, and `loop_pdg_with` asks nothing at all — whether the
/// function graph it reads was just built or came back from the store's
/// partition codec.
#[test]
fn function_pdg_asks_each_alias_question_once_and_loop_pdg_asks_none() {
    let (mut functions, mut loops, mut questions) = (0, 0, 0);
    for (name, m) in golden_corpus() {
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let counting = CountingAlias {
            inner: &stack,
            alias_calls: Mutex::default(),
            base_calls: Mutex::default(),
        };
        let builder = PdgBuilder::new(&m, &counting);
        for fid in m.func_ids() {
            let f = m.func(fid);
            if f.is_declaration() {
                continue;
            }
            let label = format!("{name}/{}", f.name);
            let g = builder.function_pdg(fid);
            let (alias_calls, base_calls) = counting.take();
            functions += 1;
            questions += alias_calls.len() + base_calls.len();
            assert_no_repeats(&format!("{label}: alias"), alias_calls);
            assert_no_repeats(&format!("{label}: base_objects"), base_calls);
            assert_eq!(
                edge_set(&g),
                edge_set(&builder.function_pdg_allpairs(fid)),
                "{label}: diverges from the all-pairs oracle"
            );
            counting.take();

            let decoded = decode_partition(&encode_partition(&g)).expect("partition decodes");
            let cfg = Cfg::new(f);
            let dt = DomTree::new(f, &cfg);
            for l in LoopForest::new(f, &cfg, &dt).loops() {
                let recs = affine_recurrences(f, l);
                let in_memory = builder.loop_pdg_with(fid, l, &g, &recs);
                let from_store = builder.loop_pdg_with(fid, l, &decoded, &recs);
                loops += 1;
                assert_eq!(
                    counting.take(),
                    (vec![], vec![]),
                    "{label}: loop_pdg_with consulted the alias stack"
                );
                assert_eq!(
                    encode_partition(&in_memory),
                    encode_partition(&from_store),
                    "{label}: loop graph differs when carved from a store-decoded partition"
                );
            }
        }
    }
    // The contract must have been exercised, or it shows nothing.
    assert!(
        functions >= 1000 && loops >= 1000 && questions >= 5_000,
        "{functions} functions, {loops} loops, {questions} questions"
    );
}

/// The builder asks `alias` once per unordered pointer pair, in whichever
/// order the pair canonicalizes to, so the answer must not depend on the
/// argument order — on either tier or the stack.
#[test]
fn alias_answers_are_symmetric() {
    let cfg = GenConfig::default();
    let modules = all()
        .into_iter()
        .chain(std::iter::once(pdg_stress()))
        .map(|w| (w.name.to_string(), w.build()))
        .chain((0..200).map(|seed| (format!("fuzz_{seed}"), generate(seed, &cfg))));
    let mut pairs = 0usize;
    for (name, m) in modules {
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        for fid in m.func_ids() {
            let f = m.func(fid);
            // Every pointer the function mentions: results and operands.
            let ptrs: BTreeSet<Value> = f
                .inst_ids()
                .into_iter()
                .flat_map(|id| {
                    let mut vs = vec![Value::Inst(id)];
                    f.inst(id).for_each_operand(|v| vs.push(v));
                    vs
                })
                .filter(|&v| f.value_type(&m, v).is_ptr())
                .collect();
            for &p in &ptrs {
                for &q in ptrs.range(p..) {
                    pairs += 1;
                    for aa in [&basic as &dyn AliasAnalysis, &andersen, &stack] {
                        assert_eq!(
                            aa.alias(fid, p, q),
                            aa.alias(fid, q, p),
                            "{name}/{}: {} is asymmetric on ({p:?}, {q:?})",
                            f.name,
                            aa.name()
                        );
                    }
                }
            }
        }
    }
    assert!(pairs >= 5_000, "{pairs} pointer pairs");
}

/// Every partition and loop abstraction of `n`'s module, built by the
/// manager in its one set of buffers — the loops' functions largest first,
/// so every later build is smaller than one before it, then the partitions
/// no loop asked for — checked against builds in fresh buffers: each graph
/// byte for byte, each partition edge for edge against the all-pairs
/// oracle, each loop's SCCs member for member. Returns how many graphs and
/// loops it checked.
fn check_manager_builds(label: &str, n: &mut Noelle) -> (usize, usize) {
    let m = n.module();
    let mut order: Vec<FuncId> = m
        .func_ids()
        .filter(|&fid| !m.func(fid).is_declaration())
        .collect();
    order.sort_by_key(|&fid| std::cmp::Reverse(m.func(fid).num_insts()));
    let mut built = Vec::new();
    for fid in order {
        for l in n.loop_forest(fid).loops() {
            built.push(n.loop_abstraction(fid, l.id));
        }
    }
    let pdg = n.pdg();
    let m = n.module();
    let basic = BasicAlias::new(m);
    let andersen = AndersenAlias::new(m);
    let tiers = [&basic as &dyn AliasAnalysis, &andersen];
    let stack = AliasStack::new(&tiers);
    let builder = PdgBuilder::new(m, &stack);
    let mut fresh = BTreeMap::new();
    for (&fid, g) in &pdg.per_function {
        let name = &m.func(fid).name;
        let alone = builder.function_pdg(fid);
        assert_eq!(
            encode_partition(g),
            encode_partition(&alone),
            "{label}/{name}: the manager's partition differs from a fresh build"
        );
        assert_eq!(
            g.edges(),
            builder.function_pdg_allpairs(fid).edges(),
            "{label}/{name}: the manager's partition differs from the all-pairs oracle"
        );
        fresh.insert(fid, alone);
    }
    for la in &built {
        let f = m.func(la.fid);
        let what = format!("{label}/{} loop at {:?}", f.name, la.structure().header);
        let recs = affine_recurrences(f, la.structure());
        let alone = builder.loop_pdg_with(la.fid, la.structure(), &fresh[&la.fid], &recs);
        assert_eq!(
            encode_partition(&la.pdg),
            encode_partition(&alone),
            "{what}: the loop graph differs from a fresh build"
        );
        let dag = SccDag::new(f, la.structure(), &alone, &recs);
        assert_eq!(la.sccdag.nodes().len(), dag.nodes().len(), "{what}");
        for (ours, theirs) in la.sccdag.nodes().iter().zip(dag.nodes()) {
            assert_eq!(la.sccdag.insts(ours.id), dag.insts(theirs.id), "{what}");
            assert_eq!(ours.kind, theirs.kind, "{what}");
        }
    }
    (pdg.per_function.len(), built.len())
}

/// The manager builds every partition and loop abstraction in one reused
/// set of buffers, and nothing one build leaves there may reach the next:
/// on the suite, `pdg_stress` and `scale_module(256, 1)`, and again after
/// an edit shrinks each module's largest function (its stores removed,
/// which also leaves holes in its instruction arena), every graph is the
/// one fresh buffers build.
#[test]
fn reused_build_buffers_carry_nothing_from_one_build_to_the_next() {
    let mut modules: Vec<(String, Module)> = all()
        .into_iter()
        .chain([pdg_stress()])
        .map(|w| (w.name.to_string(), w.build()))
        .collect();
    modules.push(("scale_module(256, 1)".to_string(), scale_module(256, 1)));
    let (mut graphs, mut loops, mut shrunk) = (0, 0, 0);
    for (name, m) in modules {
        let mut n = Noelle::new(m, AliasTier::Full);
        let largest = n
            .module()
            .func_ids()
            .max_by_key(|&fid| n.module().func(fid).num_insts())
            .expect("a function");
        let (g, l) = check_manager_builds(&format!("{name} (cold)"), &mut n);
        n.edit(|tx| {
            let f = tx.func_mut(largest);
            let stores = f
                .inst_ids()
                .into_iter()
                .filter(|&id| matches!(f.inst(id), Inst::Store { .. }));
            for id in stores.collect::<Vec<_>>() {
                f.remove_inst(id);
                shrunk += 1;
            }
        });
        let (g2, l2) = check_manager_builds(&format!("{name} (after the edit)"), &mut n);
        (graphs, loops) = (graphs + g + g2, loops + l + l2);
    }
    // The corpus must hold what the test is about, or it shows nothing.
    assert!(
        graphs >= 900 && loops >= 500 && shrunk >= 100,
        "{graphs} graphs, {loops} loops, {shrunk} stores removed"
    );
}
