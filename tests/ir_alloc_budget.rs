//! Allocation budgets of the IR text layer and the dependence graph,
//! counted exactly.
//!
//! Alone in its test binary because it installs a counting global
//! allocator: parsing may allocate what the module has to own (operand
//! lists, boxed pointee types, a name for an instruction whose name the
//! printer did not make up), a module's bodies at their exact size, and
//! nothing per token or per `%v<i>`; printing
//! streams into one buffer; a loop graph is a handful of
//! flat arrays, not a map entry per node, and a function graph is built
//! through a handful more, not a map entry per pointer or pair; the store's
//! decoders and the daemon's frame reader reserve nothing a forged count
//! asks for, nor a JSON parse more tape than one step past what it has
//! validated; an IDE body edit allocates for the functions it re-audits, not
//! for the module, and a pull renders the stored findings without copying
//! them; a parsed reply decodes no more than is read, a reader printing
//! three members of a pull decodes one object, and a clone copies nothing;
//! a function's structures are the arrays they keep, built in one set of
//! buffers that the verifier's walk keeps too; a loop abstraction is
//! a handful of flat arrays per loop, and a technique's gate reads the
//! function's dominator tree instead of building one, and DSWP's no set of
//! the loop's instructions, nor a partition for a loop too light to
//! pipeline; the audit allocates for what it finds, not per dependence
//! pair, facet or alias object; the plan report is one buffer of text read
//! back as one document, a constant number of blocks whatever the loop
//! count; and a dropped document gives back every byte it held, its
//! function names included. The counts do not
//! depend on the host, so the bounds are tight. Blocks and bytes are
//! counted on the thread that asks, so what the test harness allocates on
//! its own threads stays out of a count; live bytes are counted for the
//! whole process, so the tests take turns ([`alone`]).

use noelle::analysis::scev::affine_recurrences;
use noelle::core::architecture::Architecture;
use noelle::core::json::Json;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::DomTree;
use noelle::ir::inst::{Inst, InstData};
use noelle::ir::loops::LoopForest;
use noelle::ir::module::{FuncId, Module};
use noelle::ir::parser::{parse_function_text, parse_module, parse_module_spanned};
use noelle::ir::printer::print_module;
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle::ir::verifier::verify_module;
use noelle::pdg::pdg::PdgBuilder;
use noelle::transforms::common::{gate, GateBuffers};
use noelle::transforms::{ParallelizeError, Parallelizer};
use noelle::workloads::scale_module;
use noelle_analysis::alias::{
    AliasAnalysis, AliasResult, AliasStack, AndersenAlias, BaseObjects, BasicAlias,
};
use noelle_analysis::modref::ModRefSummaries;
use noelle_ide::{Change, DocSession};
use noelle_lint::audit::AUDIT_WORKERS;
use noelle_lint::run_audit;
use noelle_plan::{apply_plan, plan_from_audit, plan_module, PlanOptions};
use noelle_server::protocol::{read_frame_text, MAX_FRAME_BYTES};
use noelle_store::artifact::decode_partition;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

struct Counting;

/// Bytes allocated and not yet freed; wraps, so read it as a difference.
static LIVE: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// What this thread allocated, requested and gave back: what the test
    /// harness does on a thread of its own does not count, and no crate
    /// under test spawns one.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

/// Add `n` to this thread's `counter`; nothing once the thread is torn down.
fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>, n: usize) {
    let _ = counter.try_with(|c| c.set(c.get() + n));
}

/// Blocks the current thread has given back so far.
fn frees() -> usize {
    FREES.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS, 1);
        bump(&BYTES, layout.size());
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS, 1);
        bump(&BYTES, new_size);
        LIVE.fetch_add(new_size.wrapping_sub(layout.size()), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for as long as it runs: the counters are global.
fn alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What `f` allocates on this thread: blocks, reallocations included.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Like [`allocations`], with the bytes requested beside the count.
fn allocations_and_bytes<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = BYTES.with(Cell::get);
    let (out, n) = allocations(f);
    (out, n, BYTES.with(Cell::get) - before)
}

#[test]
fn parse_and_print_stay_within_their_allocation_budget() {
    let _turn = alone();
    let text = print_module(&scale_module(256, 1));
    let (module, parse, parse_bytes) =
        allocations_and_bytes(|| parse_module(&text).expect("parses"));
    let insts = module.total_insts();
    let (printed, print) = allocations(|| print_module(&module));
    assert_eq!(printed, text);
    let (_copy, _, clone_bytes) = allocations_and_bytes(|| module.clone());
    eprintln!(
        "{insts} instructions: parse {parse} allocations and {parse_bytes} bytes, \
         print {print}, a clone {clone_bytes} bytes"
    );
    // 4 918 for 21 803 instructions (0.23 each): the printer's `%v<i>` at
    // arena index `i` reads back leaving no name behind, each body's
    // instructions are one allocation and each block's list one more, at
    // its exact length, and a module parse builds no spans. With each
    // block's list grown by doubling and a span per body it was 6 069;
    // with each body's arena grown by doubling too, 7 024; with a `String`
    // per `%v<i>` as well, 23 318 (1.07 each).
    assert!(parse <= 4_918, "parse: {parse} allocations for {insts}");
    assert!(
        size_of::<InstData>() <= 88,
        "{} bytes",
        size_of::<InstData>()
    );
    assert!(
        print * 10 <= insts,
        "print: {print} allocations for {insts}"
    );
    // A module parse builds every body in one arena and moves it out at its
    // exact size, as a clone allocates it: 1.17 times a clone's bytes (1.27
    // with each block's list grown by doubling). Each body's arena grown by
    // doubling, and a hashed entry per `%v<i>`, made it 3.16.
    assert!(
        2 * parse_bytes <= 3 * clone_bytes,
        "parse: {parse_bytes} bytes, a clone {clone_bytes}"
    );
    // One body on its own, the IDE's per-edit parse: the largest kernel
    // (the last of those with 257 instructions) is built in place, its
    // block lists at their exact length: 24 allocations and 102 264 bytes.
    // With the lists grown by doubling it took 31 and 105 316; while every
    // `%v<i>` was hashed, 34 and 111 292.
    let (_, spans) = parse_module_spanned(&text).expect("parses");
    let span = spans
        .iter()
        .max_by_key(|sp| module.func_by_name(&sp.name).map_or(0, |f| f.num_insts()))
        .expect("a defined function");
    let lines: Vec<&str> = text.lines().collect();
    let snippet = lines[span.start_line - 1..span.end_line].join("\n");
    let (body, one, one_bytes) =
        allocations_and_bytes(|| parse_function_text(&module, &snippet).expect("parses"));
    eprintln!(
        "@{} ({} instructions) alone: {one} allocations, {one_bytes} bytes",
        span.name,
        body.num_insts()
    );
    assert_eq!(body.num_insts(), 257, "the kernel the bound was taken on");
    assert!(
        one <= 24 && one_bytes <= 102_264,
        "one body: {one} allocations, {one_bytes} bytes"
    );
}

/// The verifier rebuilds one CFG, dominator tree and layout index in place
/// for every function, and allocates nothing per instruction: a pointer
/// check compares the operand's pointee with the type the instruction
/// spells instead of building a `T*`, and the phi checks sort into two
/// reused buffers.
#[test]
fn verifying_a_module_allocates_per_function_not_per_instruction() {
    let _turn = alone();
    let module = scale_module(256, 1);
    let insts = module.total_insts();
    let (verdict, verify) = allocations(|| verify_module(&module));
    assert!(verdict.is_ok());
    eprintln!("{insts} instructions: verify {verify} allocations");
    // The one CFG, dominator tree, layout index and buffer set the walk
    // rebuilds for every function, grown to the largest: 22. Building them
    // fresh for each function took 4 118 (0.19 per instruction).
    assert!(verify <= 22, "verify: {verify} allocations for {insts}");
}

/// A function's structures — its CFG, dominator tree and loop forest —
/// are built in the manager's one set of buffers, each at its exact size:
/// the build frees nothing, and allocates the structures' own arrays, a
/// handful per function and per loop, and nothing else.
#[test]
fn a_functions_structures_allocate_only_what_they_keep() {
    let _turn = alone();
    let mut n = Noelle::new(scale_module(256, 1), AliasTier::Full);
    let m = n.module();
    let fids: Vec<FuncId> = m
        .func_ids()
        .filter(|&fid| !m.func(fid).is_declaration())
        .collect();
    let before = frees();
    let (loops, count) = allocations(|| {
        let built = fids.iter().map(|&fid| n.structures(fid).forest.len());
        built.sum::<usize>()
    });
    let frees = frees() - before;
    let funcs = fids.len();
    eprintln!("{funcs} functions, {loops} loops: {count} allocations, {frees} frees");
    assert!(loops > 100, "{loops} loops");
    // What a function keeps is at most fifteen arrays — the CFG's two
    // adjacency lists of two arrays each, its reverse postorder and
    // reachability; the dominator tree's parents, children (two) and
    // numbering; the forest's loops, top level and block table; the two
    // shared handles — and four per loop: latches, blocks, exit edges and
    // children. 3 745 allocations and no free. Through a fresh set of
    // temporaries per build it was 6 122 allocations and 2 386 frees (9.3
    // per function): a CFG's edge list and walk, the dominator build's
    // reverse postorder, positions and stack, and the forest's latch map,
    // work lists and orders.
    assert!(
        count <= 15 * funcs + 4 * loops,
        "{count} allocations for {funcs} functions and {loops} loops"
    );
    assert_eq!(frees, 0, "a structure build freed {frees} blocks");
}

/// `%v<n>` resolves through a table indexed by `n` only below the table's
/// bound; a far number is hashed like any other name and reserves nothing.
#[test]
fn a_far_numbered_name_reserves_nothing() {
    let _turn = alone();
    let text = "module \"n\" {\ndefine i64 @f(i64 %p) {\nentry:\n  \
                %v4000000 = add i64 %p, i64 1\n  ret %v4000000\n}\n\n}\n";
    let (module, _, bytes) = allocations_and_bytes(|| parse_module(text).expect("parses"));
    assert_eq!(print_module(&module), text);
    assert!(bytes <= 64 << 10, "{bytes} bytes for one instruction");
}

#[test]
fn a_loop_graph_costs_a_bounded_number_of_blocks() {
    let _turn = alone();
    let m = scale_module(256, 1);
    let basic = BasicAlias::new(&m);
    let andersen = AndersenAlias::new(&m);
    let tiers = [&basic as &dyn AliasAnalysis, &andersen];
    let stack = AliasStack::new(&tiers);
    let builder = PdgBuilder::new(&m, &stack);
    let (mut blocks, mut insts) = (0, 0);
    for fid in m.func_ids().filter(|&fid| !m.func(fid).is_declaration()) {
        let f = m.func(fid);
        let g = builder.function_pdg(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        for l in LoopForest::new(f, &cfg, &dt).loops() {
            let (loop_graph, n) =
                allocations(|| builder.loop_pdg_with(fid, l, &g, &affine_recurrences(f, l)));
            blocks += n;
            insts += loop_graph.num_internal();
        }
    }
    eprintln!("{insts} loop instructions: {blocks} allocations for their loop graphs");
    assert!(insts > 2000, "{insts} loop instructions");
    // An adjacency map entry per node would not fit. 1.69 per loop
    // instruction through a fresh set of buffers each, where the edge list
    // grows in a buffer and is copied out at its size (1.60 when it grew in
    // place; 1.94 before the dense tables).
    assert!(
        blocks <= 2 * insts,
        "loop graphs: {blocks} allocations for {insts} instructions"
    );
}

#[test]
fn a_function_graph_costs_a_bounded_number_of_blocks_and_bytes() {
    let _turn = alone();
    // The manager with what a partition reads built beforehand: points-to,
    // the mod/ref summaries and every function's structures, whose CFG a
    // partition build takes instead of building its own.
    let mut n = Noelle::new(scale_module(256, 1), AliasTier::Full);
    n.points_to();
    n.modref_summaries();
    let fids: Vec<FuncId> = n.module().func_ids().collect();
    for &fid in &fids {
        if !n.module().func(fid).is_declaration() {
            n.structures(fid);
        }
    }
    let (pdg, blocks, requested) = allocations_and_bytes(|| n.pdg());
    let graphs = pdg.per_function.values();
    let kept: usize = graphs.clone().map(|g| g.approx_heap_bytes()).sum();
    let insts: usize = graphs.clone().map(|g| g.num_internal()).sum();
    let edges: usize = graphs.map(|g| g.edges().len()).sum();
    eprintln!(
        "{insts} instructions, {edges} edges: {blocks} allocations, {requested} bytes requested \
         for {kept} bytes of function graphs"
    );
    assert!(insts > 20_000, "{insts} instructions");
    // Nothing is allocated per instruction, per access pair or per edge,
    // and nothing per function but the graph's own tables and its `Arc`:
    // every temporary — the layout index, accesses, pointers, groups,
    // buckets, pairs, conflicts, the post-dominator tree, the control
    // dependences and the node slot table — lives in the manager's buffers,
    // which grow to the largest function and stay, and the basic tier's
    // type rule builds no pointer type. 1 355 allocations (0.06 per
    // instruction) and 1 854 252 bytes, 1.06x the graphs, with one offsets
    // and one ids array per graph; 1 874 (0.09) and 1 857 993 bytes with
    // four index arrays, a second walk over the operands and a pointer
    // table sorted from every access. With a slot table per graph and a
    // `T*` built per typed alias query it was 2 334 and 1.07x the graphs of
    // 32-byte edges. Before that, it built through a fresh builder per
    // function, with a CFG, a post-dominator tree and a set of temporaries
    // of each build's own:
    // 10 698 (0.49) and 4 691 798 bytes (1.75x); with a fresh
    // set per tier per base-object query it was 19 471 (0.89); with maps
    // keyed by values and pairs, a position scan per instruction and a
    // doubling edge list, 54 991 (2.52) and 3.5x graphs a fifth larger.
    assert!(
        100 * blocks <= 11 * insts,
        "function graphs: {blocks} allocations for {insts} instructions"
    );
    assert!(
        100 * requested <= 110 * kept,
        "function graphs: {requested} bytes requested for {kept} kept"
    );
}

/// A fresh manager pays for its first `pdg()` everything the partitions
/// read — points-to, mod/ref, each function's structures — and the growth
/// of its build buffers, which one manager pays once and a compile of many
/// small modules pays per module. Its blocks may not exceed what the build
/// cost through four index arrays per graph, a second walk over the
/// operands and a pointer table sorted from every access. The function
/// build gathers its register edges in the buffer the loop graphs gather
/// their edges in, so the first `pdg()` grows what the loops would have:
/// the bytes are bounded over the `pdg()` and every loop abstraction after
/// it, against that build, and over the `pdg()` alone, against this one.
#[test]
fn a_fresh_managers_first_pdg_on_a_small_module_costs_no_more_than_before() {
    let _turn = alone();
    // Small modules of different shapes (float sums, indirect calls, a
    // sequential chain, a min reduction): the blocks of the first `pdg()`
    // and the bytes of it and of the loop abstractions as the build through
    // four index arrays took them, then the bytes of the `pdg()` alone as
    // the build into final arrays takes them. That build takes 197 blocks
    // and 33 781 bytes with the loops, 225 and 28 048, 225 and 46 081, 183
    // and 24 267. With four index arrays, before its register edges went to
    // the shared buffer, the `pdg()` alone took 18 271, 18 072, 24 619 and
    // 15 898 bytes.
    let bounds = [
        ("blackscholes", 206, 33_829, 19_735),
        ("ferret", 239, 28_336, 18_440),
        ("xz", 235, 46_273, 27_835),
        ("dijkstra", 193, 24_491, 16_362),
    ];
    for (name, most_blocks, most_bytes, most_pdg_bytes) in bounds {
        let w = noelle::workloads::by_name(name).expect("a suite workload");
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let (pdg, blocks, pdg_bytes) = allocations_and_bytes(|| n.pdg());
        let m = n.module();
        let fids: Vec<FuncId> = m
            .func_ids()
            .filter(|&f| !m.func(f).is_declaration())
            .collect();
        let (_, _, loop_bytes) = allocations_and_bytes(|| {
            for &fid in &fids {
                for l in n.loop_forest(fid).loops() {
                    black_box(n.loop_abstraction(fid, l.id));
                }
            }
        });
        let bytes = pdg_bytes + loop_bytes;
        eprintln!(
            "{name}: {} edges in {blocks} allocations and {pdg_bytes} bytes; \
             {bytes} bytes with the loops",
            pdg.num_edges()
        );
        assert!(
            blocks <= most_blocks && bytes <= most_bytes,
            "{name}: {blocks} allocations and {bytes} bytes, against {most_blocks} and {most_bytes}"
        );
        assert!(
            pdg_bytes <= most_pdg_bytes,
            "{name}: the first pdg() alone took {pdg_bytes} bytes, against {most_pdg_bytes}"
        );
    }
}

/// Every load and store pointer of `m`, with its function.
fn access_pointers(m: &Module) -> Vec<(FuncId, Value)> {
    let mut out = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        for id in f.inst_ids() {
            if let Inst::Load { ptr, .. } | Inst::Store { ptr, .. } = f.inst(id) {
                out.push((fid, *ptr));
            }
        }
    }
    out
}

#[test]
fn a_base_object_query_allocates_nothing_once_its_buffer_is_warm() {
    let _turn = alone();
    let m = scale_module(256, 1);
    let basic = BasicAlias::new(&m);
    let andersen = AndersenAlias::new(&m);
    let tiers = [&basic as &dyn AliasAnalysis, &andersen];
    let stack = AliasStack::new(&tiers);
    let ptrs = access_pointers(&m);
    assert!(ptrs.len() > 4000, "{} pointers", ptrs.len());
    for aa in [&basic as &dyn AliasAnalysis, &andersen, &stack] {
        let mut out = BaseObjects::new();
        let mut ask = || {
            let bounded = ptrs
                .iter()
                .filter(|&&(fid, p)| aa.base_objects(fid, p, &mut out));
            bounded.count()
        };
        // The stack swaps its buffers between roles, so two passes show
        // each buffer every answer it will be asked to hold.
        let bounded = ask();
        assert_eq!(ask(), bounded);
        let (again, n) = allocations(&mut ask);
        assert_eq!(again, bounded);
        assert!(bounded > 0, "{}: nothing bounded", aa.name());
        eprintln!(
            "{}: {bounded} of {} pointers bounded",
            aa.name(),
            ptrs.len()
        );
        assert_eq!(n, 0, "{}: {n} allocations for warm queries", aa.name());
    }
    // The points-to tier answers `alias` off its rows as well, cold.
    let pairs = ptrs.windows(2).filter(|w| w[0].0 == w[1].0);
    let (no, n) = allocations(|| {
        let verdicts = pairs.map(|w| andersen.alias(w[0].0, w[0].1, w[1].1));
        verdicts.filter(|&v| v == AliasResult::No).count()
    });
    assert!(no > 0);
    assert_eq!(n, 0, "{n} allocations for points-to alias queries");
}

#[test]
fn count_bombs_are_rejected_before_anything_is_reserved() {
    let _turn = alone();
    // At most nine bytes claiming 2^28 of something, at each of the
    // partition decoder's counts: internal nodes, external nodes, edges.
    const HUGE: [u8; 5] = [0x80, 0x80, 0x80, 0x80, 0x01];
    let prefixes: [&[u8]; 4] = [&[], &[0], &[0, 0], &[1, 7, 0]];
    for prefix in prefixes {
        let bomb = [prefix, &HUGE].concat();
        let (rejected, _, reserved) = allocations_and_bytes(|| decode_partition(&bomb).is_err());
        assert!(rejected, "{bomb:?} decodes");
        assert!(reserved < 4096, "{bomb:?}: {reserved} bytes allocated");
    }
}

#[test]
fn a_frame_header_reserves_no_more_than_a_step_ahead_of_the_bytes_that_arrive() {
    let _turn = alone();
    // A header claiming the largest frame there is, then 16 bytes, then EOF.
    let mut wire = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&[b' '; 16]);
    let (read, blocks, reserved) = allocations_and_bytes(|| read_frame_text(&mut &wire[..]));
    let refused = read.expect_err("16 bytes are not a 64 MiB frame");
    assert_eq!(refused.kind(), io::ErrorKind::UnexpectedEof);
    eprintln!("a 64 MiB header and 16 bytes: {blocks} allocations, {reserved} bytes");
    // One 1 MiB step. Reserving what the header claimed took all 64 MiB.
    assert!(reserved <= 1 << 20, "{reserved} bytes allocated");
}

/// The blocks a parsed value owns: one per non-empty string and key, and
/// one per non-empty array and object.
fn owned_blocks(v: &Json) -> usize {
    match v {
        Json::Str(s) => usize::from(!s.is_empty()),
        Json::Array(items) => {
            usize::from(!items.is_empty()) + items.iter().map(owned_blocks).sum::<usize>()
        }
        Json::Object(map) => {
            let members = map
                .iter()
                .map(|(k, v)| usize::from(!k.is_empty()) + owned_blocks(v));
            usize::from(!map.is_empty()) + members.sum::<usize>()
        }
        _ => 0,
    }
}

#[test]
fn a_parsed_pull_is_one_block_per_string_and_container_and_a_clone_copies_nothing() {
    let _turn = alone();
    let text = print_module(&scale_module(256, 3));
    let pull = DocSession::open("scale", &text, AliasTier::Basic).diagnostics_text();
    let (parsed, parse, bytes) =
        allocations_and_bytes(|| Json::parse(&pull).expect("a pull is JSON"));
    let blocks = owned_blocks(&parsed);
    eprintln!(
        "{} bytes of pull: {parse} allocations for {blocks} blocks, {bytes} bytes",
        pull.len()
    );
    // 3 for 15 436 blocks and 448 672 bytes (2.1 per byte of text): the
    // text, its tape and the document; no object is decoded before it is
    // read. Decoding every block at the parse took 15 453 and 824 792
    // bytes, and with a map node per object and arrays doubling as they
    // grew 15 545 and 1 607 160 bytes (7.5).
    assert!(
        parse <= blocks + 64,
        "parse: {parse} allocations for {blocks} blocks"
    );
    assert!(
        bytes <= 4 * pull.len(),
        "parse: {bytes} bytes for {} of text",
        pull.len()
    );
    // Every container of a pull is under an object, which a clone shares.
    let (copy, cloned) = allocations(|| parsed.clone());
    assert_eq!(cloned, 0, "a clone of the pull allocated");
    assert_eq!(copy, parsed);
    let ((), empty) = allocations(|| {
        black_box(Json::object([]));
        black_box(Json::parse("{}"));
    });
    assert_eq!(empty, 0, "an empty object allocated");
}

#[test]
fn a_pull_read_for_three_members_costs_the_members_on_the_path() {
    let _turn = alone();
    let text = print_module(&scale_module(256, 3));
    let pull = DocSession::open("scale", &text, AliasTier::Basic).diagnostics_text();
    let (printed, allocated) = allocations(|| {
        let parsed = Json::parse(&pull).expect("a pull is JSON");
        ["audit", "plan", "report"].map(|key| {
            let member = parsed.get(key).expect("a pull member");
            member.to_string_compact()
        })
    });
    eprintln!("{} bytes of pull: {allocated} allocations", pull.len());
    // The text, its tape and the document that shares them, the top
    // object's block, its seven keys and one string, and the three printed
    // members, each a verbatim copy of its slice of the text: 15.
    assert!(allocated <= 16, "{allocated} allocations");
    for (key, printed) in ["audit", "plan", "report"].iter().zip(&printed) {
        let served = format!("\"{key}\":{printed}");
        assert!(pull.contains(&served), "{key} is not the served slice");
    }
}

#[test]
fn a_parse_reserves_tape_only_a_step_ahead_of_what_it_has_validated() {
    let _turn = alone();
    // The largest frame there is, all brackets after an error at byte 1.
    let mut frame = String::from("[x");
    frame.push_str(&"[".repeat(MAX_FRAME_BYTES - frame.len()));
    let (parsed, blocks, reserved) = allocations_and_bytes(|| Json::try_parse(&frame));
    let refused = parsed.expect_err("`[x` is not JSON");
    assert_eq!(refused.offset, 1);
    eprintln!(
        "{} bytes of brackets: {blocks} allocations, {reserved} bytes",
        frame.len()
    );
    // One 1 MiB step. Reserving a tape entry per bracket took 4 GiB.
    assert!(
        reserved < (1 << 20) + (64 << 10),
        "{reserved} bytes allocated"
    );
    drop(frame);

    // A valid document whose brackets are all inside one string: the text,
    // the string and one step of tape.
    let inner = "[".repeat(8 << 20);
    let frame = format!("[\"{inner}\"]");
    let (parsed, _, reserved) = allocations_and_bytes(|| Json::parse(&frame));
    assert_eq!(parsed, Some(Json::Array(vec![Json::Str(inner)])));
    assert!(
        reserved < 2 * frame.len() + (1 << 20) + (64 << 10),
        "{reserved} bytes allocated for {} of text",
        frame.len()
    );
}

/// Allocations of the `update` that follows inserting one `gep` of the
/// first argument at the top of `k0`, the first time and the second: the
/// first update after the cold solve grows the solver's work lists, the
/// second finds them.
fn leaf_edit_update_allocations(n_funcs: usize) -> [usize; 2] {
    let mut m = scale_module(n_funcs, 3);
    let mut a = AndersenAlias::new(&m);
    let k0 = m.func_id_by_name("k0").expect("first kernel");
    let touched = BTreeSet::from([k0]);
    let mut counts = [0; 2];
    for count in &mut counts {
        let f = m.func_mut(k0);
        let entry = f.entry();
        f.insert_inst(
            entry,
            0,
            Inst::Gep {
                base: Value::Arg(0),
                base_ty: Type::I64,
                indices: vec![Value::const_i64(1)],
            },
        );
        let (update, n) = allocations(|| a.update(&m, &touched));
        assert_eq!((update.regenerated, update.reset), (1, 0));
        *count = n;
    }
    counts
}

#[test]
fn a_points_to_update_allocates_for_the_edit_not_the_module() {
    let _turn = alone();
    let ([small0, small], [large0, large]) = (
        leaf_edit_update_allocations(64),
        leaf_edit_update_allocations(256),
    );
    eprintln!(
        "leaf edit: {small0} then {small} allocations at 64 functions, \
         {large0} then {large} at 256"
    );
    // The first update after the cold solve: 8, the new flat tables, the
    // edit's var and the solver's work lists it grows; the second: 5, the
    // work lists kept from the first. 9 each when each update grew its own
    // lists. Before updates kept the rows, every row was emptied and
    // re-derived: 636 and 2 228.
    assert!(
        large0 <= small0 + 8 && large <= small + 8,
        "{small0}/{small} at 64 functions, {large0}/{large} at 256"
    );
    assert!(
        small0 <= 8,
        "{small0} allocations for the first added constraint"
    );
    assert!(small <= 5, "{small} allocations for one added constraint");
}

#[test]
fn a_cold_points_to_solve_stays_within_the_parents_allocations() {
    let _turn = alone();
    let m = scale_module(256, 3);
    let (_solved, cold) = allocations(|| AndersenAlias::new(&m));
    eprintln!("cold solve of scale_module(256, 3): {cold} allocations");
    // 231: a cold solve enters every block from the constraint table
    // instead of staging a copy of it (242 with the copy); a points-to row
    // whose window is one word keeps it inline, so
    // only the rows wider than a word own a block. With a block per row it
    // took 2 141 (bound 2 301, read off the solver before its transient
    // graph and SCC sweep).
    assert!(cold <= 231, "{cold} allocations");
}

/// Allocations of a one-operand body edit in `k0` of an open
/// `scale_module(n_funcs, 3)` document, and of the pull that follows it.
/// The document is warm: its cold audit built the manager's call index and
/// an earlier edit put the line there.
fn body_edit_and_pull_allocations(n_funcs: usize) -> (usize, usize) {
    let text = print_module(&scale_module(n_funcs, 3));
    let mut doc = DocSession::open("scale", &text, AliasTier::Basic);
    let k0 = doc.spans().iter().find(|sp| sp.name == "k0");
    let line = k0.expect("first kernel").start_line + 2; // define, entry:, <here>
    let edit = |doc: &mut DocSession, end_line, operand: u32| {
        let lines = vec![format!("  %bt = add i64 i64 1, i64 {operand}")];
        let change = Change::Splice {
            start_line: line,
            end_line,
            lines,
        };
        let out = doc.change(doc.version() + 1, change).expect("in range");
        assert!(out.incremental && out.changed_functions.contains(&"k0".to_string()));
    };
    edit(&mut doc, line, 1);
    let ((), edited) = allocations(|| edit(&mut doc, line + 1, 2));
    let (_payload, pulled) = allocations(|| doc.diagnostics_text());
    (edited, pulled)
}

#[test]
fn a_body_edit_allocates_for_the_edit_and_a_pull_copies_no_finding() {
    let _turn = alone();
    let (small, small_pull) = body_edit_and_pull_allocations(64);
    let (large, large_pull) = body_edit_and_pull_allocations(256);
    eprintln!("body edit: {small} allocations at 64 functions, {large} at 256");
    eprintln!("pull: {small_pull} allocations at 64 functions, {large_pull} at 256");
    // Both edits re-audit `k0` and the group function that calls it, read
    // off the manager's call index (until PR 24 the touch damaged the group
    // function too, and its 32 callees joined the closure: 9 688 and 9 932
    // allocations with the index, more before it).
    assert!(
        large <= small + 64 && large < 2_000,
        "a body edit grows with the module: {small} -> {large} allocations"
    );
    // A pull concatenates what each record rendered when it was derived:
    // the payload's few buffers, the list of records and the small members
    // around them, whatever the document's size. As a tree it took 17 303
    // allocations at 256 functions (20 780 before findings were rendered by
    // reference).
    assert!(
        large_pull <= small_pull + 8 && large_pull < 100,
        "a pull grows with the document: {small_pull} -> {large_pull} allocations"
    );
}

/// Opens `scale_module(64, 3)` as a document with every kernel and group
/// function renamed for `round`, edits a kernel's body, and drops it.
fn open_edit_and_drop(template: &str, round: usize) {
    let prefix = format!("@round{round:05}_");
    let text = template
        .replace("@k", &format!("{prefix}k"))
        .replace("@group", &format!("{prefix}group"));
    let mut doc = DocSession::open("names", &text, AliasTier::Basic);
    let k0 = format!("round{round:05}_k0");
    let span = doc.spans().iter().find(|sp| sp.name == k0);
    let line = span.expect("first kernel").start_line + 2; // define, entry:, <here>
    let change = Change::Splice {
        start_line: line,
        end_line: line,
        lines: vec!["  %bt = add i64 i64 1, i64 2".to_string()],
    };
    let out = doc.change(doc.version() + 1, change).expect("in range");
    assert!(out.incremental && out.changed_functions.contains(&k0));
}

#[test]
fn a_dropped_document_gives_back_its_function_names() {
    let _turn = alone();
    let template = print_module(&scale_module(64, 3));
    // The first round builds whatever the process builds once.
    open_edit_and_drop(&template, 0);
    let baseline = LIVE.load(Relaxed);
    const ROUNDS: usize = 20;
    for round in 1..=ROUNDS {
        open_edit_and_drop(&template, round);
    }
    let grown = LIVE.load(Relaxed).wrapping_sub(baseline) as isize;
    eprintln!("live bytes after {ROUNDS} documents of fresh names: {grown:+}");
    // 20 rounds name 1 260 functions. The process-global interner this
    // replaced kept each of them: 91 032 bytes by now. The test harness's
    // own threads may hold a few bytes more than at the baseline.
    assert!(
        grown <= 4096,
        "{grown} bytes outlive {ROUNDS} dropped documents"
    );
}

/// The planner prices every clean technique at every worker count of its
/// budget; the arg-max is arithmetic and the recipes are the audit's, so
/// doing that allocates the plan's own rows and little else.
#[test]
fn planning_allocates_no_more_than_pricing_one_worker_count_did() {
    let _turn = alone();
    let mut n = Noelle::new(scale_module(256, 3), AliasTier::Full);
    let audit = run_audit(&mut n);
    let (plan, planning) = allocations(|| plan_from_audit(&mut n, &audit, &PlanOptions::default()));
    eprintln!(
        "{} loops planned from an audit in {planning} allocations",
        plan.loops.len()
    );
    assert!(plan.loops.len() > 100, "{} loops", plan.loops.len());
    // Read with the planner gating nothing it was handed: it allocated
    // 2 751 when it gated every clean technique again for its recipe.
    assert!(planning <= 1185, "{planning} allocations");
}

#[test]
fn a_loop_abstraction_costs_a_few_allocations_per_loop_instruction() {
    let _turn = alone();
    let mut n = Noelle::new(scale_module(256, 1), AliasTier::Full);
    let _ = n.pdg(); // every partition and the mod/ref summaries, built
    let fids: Vec<_> = n.module().func_ids().collect();
    let (mut blocks, mut insts, mut loops) = (0, 0, 0);
    for fid in fids {
        if n.module().func(fid).is_declaration() {
            continue;
        }
        for l in n.loop_forest(fid).loops() {
            let (la, count) = allocations(|| n.loop_abstraction(fid, l.id));
            blocks += count;
            insts += la.pdg.num_internal();
            loops += 1;
        }
    }
    eprintln!("{loops} loops, {insts} loop instructions: {blocks} allocations");
    assert!(insts > 2000, "{insts} loop instructions");
    // 3 464 for 2 183 loop instructions (1.59 each): every view's whole-
    // function marks, the recurrences, the IV, invariant and handled
    // lists and the aSCCDAG's edges come out of the manager's buffers, the
    // arrays kept are sized once, and the structure is the forest's, not a
    // clone. 5 652 (2.59) with those per loop; with the loop graph's marks,
    // conflicts, touching edge ids and body order and Tarjan's state per
    // loop too: 8 263 (3.79).
    // A map and a set per SCC, a whole-function instruction list per view,
    // a memo map with a stack per instruction and a `Vec` per operand list
    // took 22 507 (10.31).
    assert!(
        100 * blocks <= 159 * insts,
        "loop abstractions: {blocks} allocations for {insts} instructions"
    );
}

/// Allocations of gating every loop of `scale_module(256, 1)` with
/// `technique`, through one set of buffers as the audit keeps one, and the
/// number of loops gated.
fn gating_allocations(technique: Parallelizer) -> (usize, usize) {
    let mut n = Noelle::new(scale_module(256, 1), AliasTier::Full);
    let arch = Architecture::default_machine();
    let mut gates = GateBuffers::default();
    let fids: Vec<_> = n.module().func_ids().collect();
    let (mut blocks, mut insts, mut loops) = (0, 0, 0);
    for fid in fids {
        if n.module().func(fid).is_declaration() {
            continue;
        }
        for l in n.loop_forest(fid).loops() {
            let la = n.loop_abstraction(fid, l.id);
            let m = n.module();
            let (verdict, count) =
                allocations(|| gate(technique, m, fid, &la, &arch, AUDIT_WORKERS, &mut gates));
            drop(verdict);
            blocks += count;
            insts += la.pdg.num_internal();
            loops += 1;
        }
    }
    eprintln!(
        "{loops} loops, {insts} loop instructions: {blocks} allocations to gate {}",
        technique.as_str()
    );
    assert!(insts > 2000, "{insts} loop instructions");
    (blocks, loops)
}

#[test]
fn the_dswp_gate_allocates_no_set_per_loop() {
    let _turn = alone();
    let (blocks, loops) = gating_allocations(Parallelizer::Dswp);
    // 3 for 158 loops: the replicated set and its work list are the
    // buffers', grown to the largest loop, and a light body is refused
    // before it partitions. A set and a work list per call took 316 (2
    // each); partitioning first, 1 405 (8.9); a `BTreeSet` of the loop's
    // instructions and another for the replicated set, 2 315 (14.7).
    assert!(
        blocks <= loops / 8,
        "the DSWP gate: {blocks} allocations for {loops} loops"
    );
}

#[test]
fn the_helix_gate_allocates_no_list_per_loop() {
    let _turn = alone();
    let (blocks, loops) = gating_allocations(Parallelizer::Helix);
    // 107 for 158 loops: the problem SCCs, their links and the islands'
    // union-find are the buffers'; what is left is the segments a verdict
    // keeps, one exact list each. A problem list, a link list, an index
    // map, a set per island and a list of them per call took 468.
    assert!(
        blocks <= 3 * loops / 4,
        "the HELIX gate: {blocks} allocations for {loops} loops"
    );
}

/// `@doall` sums an array; `@carried` accumulates into `*p`, a memory
/// recurrence that leaves HELIX sequential segments to bracket and DSWP a
/// body whose blocks it must check. Each loop has a pre-header, and each
/// function `pad` straight-line blocks after its loop.
fn padded_kernels(pad: usize) -> String {
    let tail: String = (0..pad)
        .map(|k| format!("pad{k}:\n  br pad{}\n", k + 1))
        .collect();
    let kernel = |name: &str, body: &str, ret: &str| {
        format!(
            "define i64 @{name}(i64* %p, i64* %a, i64 %n) {{\nentry:\n  br header\nheader:\n  \
             %i = phi i64 [entry: i64 0] [body: %i2]\n  %s = phi i64 [entry: i64 0] [body: %s2]\n  \
             %c = icmp slt i64 %i, %n\n  condbr %c, body, exit\nbody:\n  %q = gep i64, %a, %i\n  \
             %v = load i64, %q\n{body}  %i2 = add i64 %i, i64 1\n  br header\nexit:\n  br pad0\n\
             {tail}pad{pad}:\n  ret {ret}\n}}\n"
        )
    };
    format!(
        "module \"pad\" {{\n{}{}}}\n",
        kernel("doall", "  %s2 = add i64 %s, %v\n", "%s"),
        kernel(
            "carried",
            "  %t = load i64, %p\n  %u = add i64 %t, %v\n  store i64 %u, %p\n  %s2 = add i64 %s, i64 0\n",
            "i64 0"
        )
    )
}

/// Bytes each audited technique's gate allocates on each kernel of
/// [`padded_kernels`]`(pad)`.
fn gate_bytes(pad: usize) -> Vec<(String, usize)> {
    let m = parse_module(&padded_kernels(pad)).expect("parses");
    let mut n = Noelle::new(m, AliasTier::Full);
    let arch = Architecture::default_machine();
    let mut out = Vec::new();
    for name in ["doall", "carried"] {
        let fid = n.module().func_id_by_name(name).expect("kernel");
        let l = n.loop_forest(fid).loops()[0].id;
        let la = n.loop_abstraction(fid, l);
        for technique in Parallelizer::AUDITED {
            let m = n.module();
            let gates = &mut GateBuffers::default();
            let (_, _, bytes) =
                allocations_and_bytes(|| gate(technique, m, fid, &la, &arch, AUDIT_WORKERS, gates));
            out.push((format!("{name}/{}", technique.as_str()), bytes));
        }
    }
    out
}

#[test]
fn a_gate_allocates_nothing_for_the_blocks_outside_its_loop() {
    let _turn = alone();
    let (small, large) = (gate_bytes(0), gate_bytes(4096));
    for ((what, near), (_, far)) in small.iter().zip(&large) {
        eprintln!("{what}: {near} bytes with no blocks after the loop, {far} with 4096");
        // A dominator tree of its own costs a gate tens of bytes per block
        // of the function: 4096 blocks would add well over 100 000.
        assert!(
            *far <= near + 64,
            "{what}: {near} -> {far} bytes as the function grew by 4096 blocks"
        );
    }
}

/// A manager over `scale_module(256, 3)` with everything the audit reads
/// built beforehand, as a cold analysis builds it: the points-to rows, the
/// mod/ref summaries, every partition and every loop forest.
fn analyzed_scale_module() -> Noelle {
    let mut n = Noelle::new(scale_module(256, 3), AliasTier::Full);
    let _ = n.points_to();
    let _ = n.modref_summaries();
    let _ = n.pdg();
    let fids: Vec<_> = n.module().func_ids().collect();
    for fid in fids {
        if !n.module().func(fid).is_declaration() {
            n.loop_forest(fid);
        }
    }
    n
}

/// The audit allocates for what it finds — a loop's abstraction, its
/// verdicts and the text of its blockers — and nothing per fact besides:
/// one set of scratch buffers serves every loop, dependence pairs are
/// grouped by a sort, and a refusal over carried dependences takes the
/// blockers classified for it instead of a copy.
#[test]
fn an_audited_loop_allocates_for_its_findings() {
    let _turn = alone();
    let mut n = analyzed_scale_module();
    let (audit, count) = allocations(|| run_audit(&mut n));
    let (loops, blockers) = (audit.loops.len(), audit.num_blockers());
    eprintln!("{loops} loops, {blockers} blockers audited in {count} allocations");
    assert!(loops > 100, "{loops} loops");
    // 5 859 for 164 loops (35.7 each): the gates' working lists and the
    // machine model are kept across loops. 6 688 (40.8) with a machine
    // built per audit and the gates' lists per call; the loop
    // abstractions borrow their structure and build in the manager's
    // buffers, and the gates allocate no exit list. 10 150 (61.9) with a cloned structure and a fresh set
    // of temporaries per loop, 5 865 of them the loop abstractions;
    // 10 810 (65.9) while the audit derived HELIX's segments
    // again for each segment refusal. With a map of edge lists per loop, a
    // set per pair's facets, a set of rendered objects per blocker, the
    // carried blockers cloned into the refusal and every function's name
    // cloned, it was 13 911 (84.8).
    assert!(
        count <= 36 * loops,
        "the audit: {count} allocations for {loops} loops"
    );
}

/// The plan report is written into one buffer and read back as one parsed
/// document, whose compact output copies the text: a fixed handful of
/// blocks, however many loops it lists.
#[test]
fn the_plan_report_is_written_in_a_constant_number_of_allocations() {
    let _turn = alone();
    let mut counts = Vec::new();
    for funcs in [64, 256] {
        let mut n = Noelle::new(scale_module(funcs, 3), AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        let (report, count) = allocations(|| plan.to_json().to_string_compact());
        eprintln!(
            "{} loops: a {}-byte report in {count} allocations",
            plan.loops.len(),
            report.len()
        );
        counts.push(count);
    }
    // 5 at 39 loops and at 164: the text, the parsed document, its copy of
    // the text and its tape, and the compact output. Building a tree
    // first took 1 466 and 6 093.
    assert!(counts.iter().all(|&c| c <= 5), "{counts:?}");
}

/// DSWP's two cheap refusals and its light-body test come before the
/// weight-balanced partition: a loop too light to pipeline costs no stage
/// map, and its replicated set and work list are the gate buffers'.
#[test]
fn dswp_refuses_a_light_loop_without_building_a_partition() {
    let _turn = alone();
    let mut n = analyzed_scale_module();
    let arch = Architecture::default_machine();
    let mut gates = GateBuffers::default();
    let fids: Vec<_> = n.module().func_ids().collect();
    let (mut blocks, mut light) = (0, 0);
    for fid in fids {
        if n.module().func(fid).is_declaration() {
            continue;
        }
        for l in n.loop_forest(fid).loops() {
            let la = n.loop_abstraction(fid, l.id);
            let m = n.module();
            let (verdict, count) = allocations(|| {
                gate(
                    Parallelizer::Dswp,
                    m,
                    fid,
                    &la,
                    &arch,
                    AUDIT_WORKERS,
                    &mut gates,
                )
            });
            if matches!(verdict, Err(ParallelizeError::Shape(why)) if why.contains("too light")) {
                blocks += count;
                light += 1;
            }
        }
    }
    eprintln!("{light} loops refused as too light in {blocks} allocations");
    assert!(light > 100, "{light} loops refused as too light");
    // 3 for 164 loops, through one set of gate buffers; 328 (2 each) with
    // the replicated set and its work list per call. Partitioning first,
    // with the refusal's text in a `String` of its own, took 1 442 (8.8).
    assert!(blocks <= 8, "{blocks} allocations for {light} light loops");
}

/// The manager reads the machine model once and shares it: a second ask
/// costs nothing, and the default machine is its four tables and name.
#[test]
fn the_machine_model_is_read_once_and_built_in_four_blocks() {
    let _turn = alone();
    let (machine, built) = allocations(Architecture::default_machine);
    eprintln!("the default machine: {built} allocations");
    assert_eq!(machine.num_cores, Architecture::DEFAULT_CORES);
    // The name, the node map and the two flat tables; 28 with a row per
    // core in each table.
    assert!(built <= 4, "{built} allocations");
    let mut n = Noelle::new(scale_module(4, 1), AliasTier::Full);
    let first = n.architecture();
    let (again, count) = allocations(|| n.architecture());
    assert!(std::sync::Arc::ptr_eq(&first, &again), "one model, shared");
    assert_eq!(count, 0, "{count} allocations to ask again");
}

/// Mod/ref summaries are one byte per function: computing them allocates
/// the table and nothing else, however many rounds the fixed point takes.
/// Three maps keyed by function, each grown by doubling, took 24 blocks on
/// the same module.
#[test]
fn mod_ref_summaries_are_one_table() {
    let _turn = alone();
    let m = scale_module(256, 1);
    let (summaries, count, bytes) = allocations_and_bytes(|| ModRefSummaries::compute(&m));
    eprintln!("mod/ref: {count} allocations, {bytes} bytes");
    assert_eq!(count, 1, "{count} allocations");
    assert_eq!(bytes, m.functions().len(), "{bytes} bytes");
    assert!(m
        .func_ids()
        .all(|f| summaries.may_read(f) || !summaries.may_write(f) || summaries.has_io(f)));
}

/// What `apply_plan` allocates and frees per loop it parallelizes, over
/// the suite: the emitted code and the repaired analyses, not a machine
/// model per re-gate nor the commit's and the emitters' working lists.
#[test]
fn applying_a_plan_allocates_for_the_loops_it_parallelizes() {
    let _turn = alone();
    let (mut blocks, mut freed, mut loops) = (0, 0, 0);
    for w in noelle::workloads::all() {
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        let before = frees();
        let (report, count) = allocations(|| apply_plan(&mut n, &plan));
        freed += frees() - before;
        blocks += count;
        loops += report.parallelized.len();
    }
    eprintln!("{loops} loops parallelized in {blocks} allocations and {freed} frees");
    assert!(loops > 80, "{loops} loops");
    // 8 807 allocations and 3 949 frees for 90 loops (98 and 44 each). A
    // machine model built per re-gate, the solver's work lists per commit,
    // hashed maps in the outliner and lists grown a push at a time took
    // 12 902 and 7 067 (143 and 79).
    assert!(
        blocks <= 100 * loops,
        "{blocks} allocations for {loops} loops"
    );
    assert!(freed <= 45 * loops, "{freed} frees for {loops} loops");
}
