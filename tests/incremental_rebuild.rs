//! Incremental invalidation equivalence: transforms edit the module
//! through `Noelle::edit`, so the warm manager repairs only the damaged
//! per-function PDG partitions. These tests pin the engine's contract:
//!
//! 1. For every transform and every bundled workload, the incrementally
//!    repaired PDG, loop forest, and per-loop aSCCDAG must be
//!    **byte-identical on the wire** to a from-scratch `Noelle::new`
//!    build of the same (transformed) module.
//! 2. Editing one function must **not rebuild** the others: untouched
//!    partitions are reused by `Arc` handle, and the per-function cache
//!    counters record hits, not misses.
//! 3. The points-to solution the manager maintains across commits — only
//!    the touched functions' constraints regenerated — must equal a
//!    from-scratch solve after **every** commit — of the transforms, which
//!    add pointer flow, and of edit scripts that take it away — and a commit
//!    must cost what its edit costs, counted in regenerated functions and
//!    reset rows, not seconds. The direct-call index the manager repairs in
//!    the same commits must equal a scan of the module after each.

use std::collections::BTreeSet;
use std::sync::Arc;

use noelle::analysis::modref::ModRefSummaries;
use noelle::core::architecture::Architecture;
use noelle::core::json::Json;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::core::wire;
use noelle::ir::inst::{BinOp, Callee, Inst};
use noelle::ir::module::{FuncId, Function};
use noelle::ir::parser::parse_module;
use noelle::ir::printer::print_module;
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle::ir::Module;
use noelle::pdg::pdg::ProgramPdg;
use noelle::transforms as tools;
use noelle::workloads::{all, pdg_stress, scale_module, Workload};
use noelle_fuzz::generator::{generate, GenConfig};
use noelle_fuzz::oracle::{edit_script_divergence, points_to_divergence};
use noelle_ide::{Change, DocSession};
use noelle_plan::{apply_plan, plan_module, ModulePlan, PlanOptions};

fn workloads() -> Vec<Workload> {
    let mut ws = all();
    ws.push(pdg_stress());
    ws
}

/// One deterministic string covering the PDG, every function's loop
/// forest, and every loop's aSCCDAG — the abstractions the server serves.
fn encode_all(n: &mut Noelle) -> String {
    let pdg = n.pdg();
    let mut s = wire::pdg_to_json(n.module(), &pdg).to_string_compact();
    let fids: Vec<_> = n
        .module()
        .func_ids()
        .filter(|fid| !n.module().func(*fid).is_declaration())
        .collect();
    for fid in fids {
        let name = n.module().func(fid).name.clone();
        for l in n.loop_forest(fid).loops() {
            s.push('\n');
            s.push_str(&name);
            s.push(' ');
            s.push_str(&wire::loop_to_json(l).to_string_compact());
            let la = n.loop_abstraction(fid, l.id);
            s.push(' ');
            s.push_str(&wire::sccdag_to_json(&la.sccdag).to_string_compact());
        }
    }
    s
}

/// Warm the manager, apply the transform (which edits through
/// `Noelle::edit`), and demand the repaired abstractions match a
/// from-scratch build byte for byte.
fn check_incremental_identity(name: &str, apply: impl Fn(&mut Noelle)) {
    for w in workloads() {
        let mut warm = Noelle::new(w.build(), AliasTier::Full);
        let _ = warm.pdg(); // build once, so the edit repairs instead of rebuilding
        apply(&mut warm);
        assert_eq!(
            points_to_divergence(&warm),
            None,
            "{name} on {}: the maintained points-to solution drifted",
            w.name
        );
        let incremental = encode_all(&mut warm);
        let mut fresh = Noelle::new(warm.module().clone(), AliasTier::Full);
        let scratch = encode_all(&mut fresh);
        assert_eq!(
            incremental, scratch,
            "{name} on {}: incrementally repaired abstractions differ from a from-scratch build",
            w.name
        );
    }
}

#[test]
fn licm_repairs_match_fresh_build() {
    check_incremental_identity("licm", |n| {
        tools::licm::run(n);
    });
}

#[test]
fn dead_repairs_match_fresh_build() {
    check_incremental_identity("dead", |n| {
        tools::dead::run(n, "main");
    });
}

#[test]
fn doall_repairs_match_fresh_build() {
    check_incremental_identity("doall", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Doall,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
    });
}

#[test]
fn dswp_repairs_match_fresh_build() {
    check_incremental_identity("dswp", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Dswp,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 2,
            },
        );
    });
}

#[test]
fn helix_repairs_match_fresh_build() {
    check_incremental_identity("helix", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Helix,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
    });
}

/// One planned loop per `apply_plan` call is one body-changing commit per
/// call, so checking between calls checks after every commit.
fn one_loop_plans(plan: &ModulePlan) -> impl Iterator<Item = ModulePlan> + '_ {
    plan.loops
        .iter()
        .filter(|l| l.chosen.is_some())
        .map(|l| ModulePlan {
            workers: plan.workers,
            profiled: plan.profiled,
            loops: vec![l.clone()],
        })
}

/// Every direct call edge of the module as the manager's index has it,
/// asked from both ends, against the edges read off the instructions.
fn assert_call_index_matches_a_scan(n: &Noelle, context: &str) {
    let m = n.module();
    let mut scanned = BTreeSet::new();
    for caller in m.func_ids() {
        let f = m.func(caller);
        for id in f.inst_ids() {
            if let Inst::Call {
                callee: Callee::Direct(callee),
                ..
            } = f.inst(id)
            {
                scanned.insert((caller, *callee));
            }
        }
    }
    let calls = n.direct_calls();
    let callees = |f| calls.callees_of(f).map(move |c| (f, c));
    let callers = |f| calls.callers_of(f).map(move |c| (c, f));
    let by_caller: BTreeSet<_> = m.func_ids().flat_map(callees).collect();
    let by_callee: BTreeSet<_> = m.func_ids().flat_map(callers).collect();
    assert_eq!(by_caller, scanned, "{context}: callees_of");
    assert_eq!(by_callee, scanned, "{context}: callers_of");
    for f in m.func_ids() {
        assert!(calls.callers_of(f).is_sorted(), "{context}: ascending");
        assert!(calls.callees_of(f).is_sorted(), "{context}: ascending");
    }
}

#[test]
fn points_to_stays_exact_after_every_plan_commit() {
    for w in workloads() {
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        // The plan's audit asked for the call index, so every commit below
        // repairs the one built here.
        let plan = plan_module(&mut n, &PlanOptions::default());
        for step in one_loop_plans(&plan) {
            apply_plan(&mut n, &step);
            let l = &step.loops[0];
            let context = format!(
                "{}: after transforming the loop at {} of @{}",
                w.name, l.header, l.function
            );
            assert_eq!(points_to_divergence(&n), None, "{context}");
            assert_call_index_matches_a_scan(&n, &context);
        }
    }
}

const POINTER_SOUP: &str = r#"
module "soup" {
global @ga : i64 = i64 0
global @gb : i64 = i64 0
define i64* @id(i64* %p) {
entry:
  ret %p
}
define i64* @pick(i64* %p, i64* %q, i1 %c) {
entry:
  %r = select i64* %c, %p, %q
  ret %r
}
define i64* @geta(i64* %p) {
entry:
  ret @ga
}
define i64* @getb(i64* %p) {
entry:
  %q = call i64* @id(%p)
  ret @gb
}
define void @publish(i64** %cell, i64* %x) {
entry:
  store i64* %x, %cell
  ret void
}
define i64* @fetch(i64** %cell) {
entry:
  %p = load i64*, %cell
  ret %p
}
define void @install(fn i64* (i64*)** %tab, i1 %c) {
entry:
  %f = select fn i64* (i64*)* %c, @geta, @id
  store fn i64* (i64*)* %f, %tab
  ret void
}
define i64* @dispatch(fn i64* (i64*)** %tab, i64* %x) {
entry:
  %fp = load fn i64* (i64*)*, %tab
  %r = call i64* %fp(%x)
  ret %r
}
define i64 @walk(i64* %a, i64* %b, i64 %n) {
entry:
  br head
head:
  %p = phi i64* [entry: %a] [body: %q]
  %i = phi i64 [entry: i64 0] [body: %j]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %q = phi i64* [head: %p]
  %t = call i64* @pick(%q, %b, %c)
  %j = add i64 %i, i64 1
  br head
exit:
  %v = load i64, %p
  ret %v
}
define i64 @main(i1 %c) {
entry:
  %x = alloca i64, i64 1
  %y = alloca i64, i64 1
  %cell = alloca i64*, i64 1
  %cell2 = alloca i64*, i64 1
  %tab = alloca fn i64* (i64*)*, i64 1
  %h = call i64* @malloc(i64 8)
  call void @publish(%cell, %x)
  call void @publish(%cell2, %y)
  %p = call i64* @fetch(%cell)
  %q = call i64* @fetch(%cell2)
  %r = call i64* @pick(%p, %q, %c)
  call void @install(%tab, %c)
  store fn i64* (i64*)* @getb, %tab
  %d = call i64* @dispatch(%tab, %r)
  call void @publish(%cell, %d)
  call void @publish(%cell2, %h)
  call void @mystery(%cell2)
  %e = call i64* @dispatch(%tab, %h)
  %w = call i64 @walk(%p, %e, i64 4)
  ret %w
}
declare i64* @malloc(i64 %n)
declare void @mystery(i64** %p)
}
"#;

/// Deletion is where an incremental points-to solver goes wrong, and the
/// transforms only ever add pointer flow: run the fuzz oracle's destructive
/// edit script — stores and calls deleted, pointer arguments, returned
/// pointers and indirect callees re-pointed — over each module as the
/// planner's transforms left it, checking against a from-scratch solve
/// after every commit.
#[test]
fn points_to_stays_exact_through_destructive_edit_scripts() {
    let generated = (0..50).map(|seed| generate(seed, &GenConfig::default()));
    // The corpus moves integers through arrays; this one moves pointers
    // through cells, call chains, a function-pointer table and a phi cycle,
    // so that there are derived edges and bindings for a deletion to reach.
    let soup = parse_module(POINTER_SOUP).expect("parses");
    let soups = std::iter::repeat_with(|| soup.clone()).take(64);
    let modules = workloads().into_iter().map(|w| w.build());
    let modules = modules.chain(generated).chain(soups);
    let (mut commits, mut resets) = (0, 0);
    for (seed, m) in modules.enumerate() {
        let name = m.name.clone();
        let mut n = Noelle::new(m, AliasTier::Full);
        let plan = plan_module(&mut n, &PlanOptions::default());
        apply_plan(&mut n, &plan);
        let before = n.func_cache_counters();
        let diverged = edit_script_divergence(&mut n, seed as u64, 24);
        assert_eq!(diverged, None, "{name} (script seed {seed})");
        let after = n.func_cache_counters();
        commits += after.andersen_regen_funcs - before.andersen_regen_funcs;
        resets += after.andersen_reset_rows - before.andersen_reset_rows;
    }
    // The scripts found pointer flow to delete, and deleting it reached
    // rows: this is not a sweep of no-ops.
    eprintln!("{commits} script commits reset {resets} rows");
    assert!(commits > 500, "{commits} script commits");
    assert!(resets > commits, "{resets} rows reset by {commits} commits");
}

#[test]
fn a_commit_regenerates_what_it_touched_not_the_module() {
    // The scale module's kernels are too light to earn a dispatch on the
    // default machine; on one that spawns a task for 20 cycles they do,
    // and the planner prices the machine the module names.
    let mut m = scale_module(256, 7);
    let mut cheap_spawn = Architecture::default_machine();
    cheap_spawn.dispatch_overhead = 20;
    cheap_spawn.embed(&mut m);
    let mut n = Noelle::new(m, AliasTier::Full);
    let funcs = n.module().functions().len() as u64;
    let plan = plan_module(&mut n, &PlanOptions::default());
    let planned = plan.planned() as u64;
    assert!(planned > 32, "the scale module should plan many loops");

    // One body edit of one function regenerates one function.
    let k0 = n.module().func_id_by_name("k0").expect("first kernel");
    let before = n.func_cache_counters();
    n.edit(|tx| {
        let f = tx.func_mut(k0);
        let entry = f.entry();
        f.insert_inst(
            entry,
            0,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Value::const_i64(1),
                rhs: Value::const_i64(2),
            },
        );
    });
    let after = n.func_cache_counters();
    assert_eq!(after.andersen_regen_funcs - before.andersen_regen_funcs, 1);
    assert_eq!(after.andersen_reuses, before.andersen_reuses);
    // ... and, taking no constraint away, leaves every row in place.
    let reset = after.andersen_reset_rows - before.andersen_reset_rows;
    assert_eq!(reset, 0, "rows reset by a one-instruction edit");

    // A whole plan regenerates the sum of what its commits touched: the
    // transformed function per loop, and each function a commit appended
    // (a task per loop, the runtime declarations once).
    let (funcs_before, before) = (n.module().functions().len(), n.func_cache_counters());
    let report = apply_plan(&mut n, &plan);
    let after = n.func_cache_counters();
    let done = report.parallelized.len() as u64;
    let appended = (n.module().functions().len() - funcs_before) as u64;
    let regenerated = after.andersen_regen_funcs - before.andersen_regen_funcs;
    assert_eq!(after.andersen_reuses, before.andersen_reuses);
    assert_eq!(regenerated, done + appended);
    assert!(
        done > 32,
        "most planned loops transform: {done} of {planned}"
    );
    assert!(
        (2 * done..=3 * done + 4).contains(&regenerated),
        "{regenerated} functions regenerated for {done} loops"
    );
    assert!(
        regenerated < done * funcs / 16,
        "{regenerated} regenerated is on the order of {done} loops x {funcs} functions"
    );
    // The transforms add pointer flow and take none away, so their
    // commits grow the rows they reach. A commit that deleted some would
    // empty and re-derive every row: what each commit cost before the
    // solver kept its rows, and what this pins the plan's commits out of.
    let reset = after.andersen_reset_rows - before.andersen_reset_rows;
    assert_eq!(reset, 0, "rows reset by the plan's {done} commits");
}

#[test]
fn a_loop_request_repairs_its_own_partition_only() {
    let mut n = Noelle::new(scale_module(64, 3), AliasTier::Full);
    let _ = n.pdg();
    let k0 = n.module().func_id_by_name("k0").expect("first kernel");
    let k1 = n.module().func_id_by_name("k1").expect("second kernel");
    // A body edit of two kernels damages both and nobody else: neither
    // summary and neither interface moved, so the group function that calls
    // them reads what it read before.
    let ((), damage) = n.edit_with_damage(|tx| {
        let m = tx.module_touching([k0, k1]);
        insert_dead_add(m, k0);
        insert_dead_add(m, k1);
    });
    assert_eq!(damage, BTreeSet::from([k0, k1]));
    let damaged = damage.len() as u64;

    // One loop of one damaged function costs that function's partition.
    let l = n.loop_forest(k0).loops()[0].id;
    let before = n.func_cache_counters().pdg_misses;
    let _ = n.loop_abstraction(k0, l);
    let asked = n.func_cache_counters().pdg_misses;
    assert_eq!(asked - before, 1, "of {damaged} damaged partitions");

    // The whole graph then costs the rest, and is what a fresh manager
    // builds.
    let repaired = n.pdg();
    assert_eq!(n.func_cache_counters().pdg_misses - asked, damaged - 1);
    assert_same_pdg_as_fresh(&mut n, &repaired);

    // `k0`'s first I/O call moves its summary, which its callers do read:
    // now the group function is damaged too, and only its callers beyond.
    let group = n.direct_calls().callers_of(k0).next().expect("k0's group");
    assert!(!n.modref_summaries().has_io(k0), "the kernels are quiet");
    let ((), damage) = n.edit_with_damage(|tx| {
        let m = tx.module_touching([k0]);
        let print = m.get_or_declare("print_i64", || (vec![Type::I64], Type::Void));
        let entry = m.func(k0).entry();
        let call = Inst::Call {
            callee: Callee::Direct(print),
            args: vec![Value::const_i64(7)],
            ret_ty: Type::Void,
        };
        m.func_mut(k0).insert_inst(entry, 0, call);
    });
    assert!(n.modref_summaries().has_io(k0));
    assert!(
        damage.contains(&k0) && damage.contains(&group) && !damage.contains(&k1),
        "damage set: {damage:?}"
    );
    let repaired = n.pdg();
    assert_same_pdg_as_fresh(&mut n, &repaired);
}

/// `n`'s repaired whole-program graph is, to the byte, what a fresh manager
/// builds over the same module.
fn assert_same_pdg_as_fresh(n: &mut Noelle, repaired: &ProgramPdg) {
    let mut fresh = Noelle::new(n.module().clone(), n.tier());
    let scratch = fresh.pdg();
    assert_eq!(
        wire::pdg_to_json(n.module(), repaired).to_string_compact(),
        wire::pdg_to_json(fresh.module(), &scratch).to_string_compact(),
    );
}

/// A dead `add` at the top of `f`: a body edit no caller can observe.
fn insert_dead_add(m: &mut Module, f: FuncId) {
    let entry = m.func(f).entry();
    let dead_add = Inst::Bin {
        op: BinOp::Add,
        ty: Type::I64,
        lhs: Value::const_i64(1),
        rhs: Value::const_i64(2),
    };
    m.func_mut(f).insert_inst(entry, 0, dead_add);
}

/// Make `f` do the first thing its summary says it does not — write (a
/// store to a fresh slot), read (a load from one), or I/O (a print) — so
/// that one mod/ref bit flips. False when the summary already says all
/// three.
fn flip_a_summary_bit(m: &mut Module, f: FuncId, summary: &ModRefSummaries) -> bool {
    let entry = m.func(f).entry();
    let slot = Inst::Alloca {
        ty: Type::I64,
        count: Value::const_i64(1),
    };
    if !summary.may_write(f) || !summary.may_read(f) {
        let slot = Value::Inst(m.func_mut(f).insert_inst(entry, 0, slot));
        let access = if !summary.may_write(f) {
            Inst::Store {
                val: Value::const_i64(1),
                ptr: slot,
                ty: Type::I64,
            }
        } else {
            Inst::Load {
                ptr: slot,
                ty: Type::I64,
            }
        };
        m.func_mut(f).insert_inst(entry, 1, access);
    } else if !summary.has_io(f) {
        let print = m.get_or_declare("print_i64", || (vec![Type::I64], Type::Void));
        let call = Inst::Call {
            callee: Callee::Direct(print),
            args: vec![Value::const_i64(7)],
            ret_ty: Type::Void,
        };
        m.func_mut(f).insert_inst(entry, 0, call);
    } else {
        return false;
    }
    true
}

/// Change what a call site reads of `f` and nothing else: the width of its
/// first integer parameter, or one more parameter when it has none. The
/// callers are left as they are (they no longer verify; nothing here runs
/// them).
fn change_the_signature(m: &mut Module, f: FuncId) {
    let params = &mut m.func_mut(f).params;
    match params.iter_mut().find(|(_, ty)| ty.is_int()) {
        Some((_, ty)) => {
            *ty = if *ty == Type::I64 {
                Type::I32
            } else {
                Type::I64
            }
        }
        None => params.push(("extra".to_string(), Type::I64)),
    }
}

/// Take `f`'s body away: the declaration a call site then sees has the same
/// name and signature, and a summary only its name decides.
fn make_a_declaration(m: &mut Module, f: FuncId) {
    let old = m.func(f);
    let bare = Function::new(old.name.clone(), old.params.clone(), old.ret_ty.clone());
    *m.func_mut(f) = bare;
}

/// One edit of `f`, made in the manager's module through a transaction and
/// in the document through its text, each then held against the
/// from-scratch answer: a fresh manager's graph, a cold open's diagnostics.
/// Returns what the edit returned, the manager's damage set, and how many
/// functions the document re-linted.
fn edit_both<R>(
    (n, doc): (&mut Noelle, &mut DocSession),
    f: FuncId,
    context: &str,
    edit: impl FnOnce(&mut Module) -> R,
) -> (R, BTreeSet<FuncId>, usize) {
    let (r, damage) = n.edit_with_damage(|tx| edit(tx.module_touching([f])));
    let repaired = n.pdg();
    assert_same_pdg_as_fresh(n, &repaired);
    let text = print_module(n.module());
    let out = doc.change(doc.version() + 1, Change::Full(text));
    let out = out.expect("the version advances");
    assert!(out.syntax_error.is_none(), "{context}");
    let cold = DocSession::open(doc.name(), &doc.text(), doc.tier());
    assert!(
        diagnostics_sans_version(doc) == diagnostics_sans_version(&cold),
        "{context}: the document's diagnostics are not a cold open's"
    );
    (r, damage, out.relinted)
}

/// A document's whole pull, less the one member that counts its edits.
fn diagnostics_sans_version(doc: &DocSession) -> Json {
    let Json::Object(fields) = doc.diagnostics_json() else {
        panic!("a payload is an object");
    };
    let rest = fields.iter().filter(|(k, _)| k.as_str() != "version");
    Json::object(rest.map(|(k, v)| (k.clone(), v.clone())))
}

/// The damage rule's two directions, for every called function of the
/// corpus and a sample of a scale module's — every seventh from the last,
/// which takes in a group function and nine kernels of both groups; each
/// costs four cold opens of the document. An edit no caller can observe (a
/// body edit that moves no summary bit) damages the function alone, one a
/// caller can
/// observe (a flipped bit, a changed signature, a body gone) damages every
/// direct caller — and whichever it was, the repaired graph is a fresh
/// manager's and the document's diagnostics are a cold open's, to the byte.
#[test]
fn a_caller_is_damaged_exactly_when_it_can_observe_the_edit() {
    let mut modules: Vec<(String, Module, usize)> = workloads()
        .iter()
        .map(|w| (w.name.to_string(), w.build(), 1))
        .collect();
    modules.push(("scale".to_string(), scale_module(64, 3), 7));
    let (mut unobserved, mut observed) = (0, 0);
    for (name, m, stride) in &modules {
        let text = print_module(m);
        let calls = Noelle::new(m.clone(), AliasTier::Full);
        let calls = calls.direct_calls();
        let callers_of =
            |f| -> BTreeSet<FuncId> { calls.callers_of(f).filter(|&c| c != f).collect() };
        let called = m
            .func_ids()
            .filter(|&f| !m.func(f).is_declaration() && !callers_of(f).is_empty());
        let called: Vec<FuncId> = called.collect();
        for &f in called.iter().rev().step_by(*stride) {
            let callers = callers_of(f);
            let context = |what: &str| format!("{name}: @{}: {what}", m.func(f).name);
            let mut n = Noelle::new(m.clone(), AliasTier::Full);
            let _ = n.pdg();
            let mut doc = DocSession::open(name.as_str(), &text, AliasTier::Basic);

            let context_a = context("a dead add");
            let ((), damage, relinted) =
                edit_both((&mut n, &mut doc), f, &context_a, |m| insert_dead_add(m, f));
            assert_eq!(damage, BTreeSet::from([f]), "{context_a}");
            assert_eq!(relinted, 1, "{context_a}: the document's damage");
            unobserved += 1;

            let context_b = context("a summary bit");
            let summary = n.modref_summaries();
            let (flipped, damage, _) = edit_both((&mut n, &mut doc), f, &context_b, |m| {
                flip_a_summary_bit(m, f, &summary)
            });
            if flipped {
                assert!(damage.is_superset(&callers), "{context_b}: {damage:?}");
                observed += 1;
            }

            let context_c = context("a signature");
            let ((), damage, relinted) = edit_both((&mut n, &mut doc), f, &context_c, |m| {
                change_the_signature(m, f)
            });
            assert!(damage.is_superset(&callers), "{context_c}: {damage:?}");
            assert!(
                relinted > callers.len(),
                "{context_c}: the document's damage"
            );
            observed += 1;

            let context_d = context("a declaration");
            let ((), damage, _) = edit_both((&mut n, &mut doc), f, &context_d, |m| {
                make_a_declaration(m, f)
            });
            assert!(damage.is_superset(&callers), "{context_d}: {damage:?}");
            observed += 1;
        }
    }
    eprintln!("{unobserved} edits no caller observes, {observed} it does");
    assert!(
        unobserved >= 90 && observed >= 270,
        "{unobserved} edits no caller observes, {observed} it does"
    );
}

#[test]
fn program_loop_forest_is_assembled_from_the_cache() {
    let mut n = Noelle::new(scale_module(64, 3), AliasTier::Full);
    let fids: Vec<_> = n
        .module()
        .func_ids()
        .filter(|&fid| !n.module().func(fid).is_declaration())
        .collect();
    for &fid in &fids {
        let _ = n.loop_forest(fid);
    }
    let warm = n.func_cache_counters();
    assert_eq!(warm.struct_misses, fids.len() as u64);
    let forest = n.program_loop_forest();
    assert_eq!(forest.per_function.len(), fids.len());
    assert_eq!(
        n.func_cache_counters().struct_misses,
        warm.struct_misses,
        "a warm manager detects no loop twice"
    );
}

#[test]
fn untouched_functions_are_not_rebuilt() {
    // Edit exactly one function of the many-function stress workload and
    // prove the rest were reused: their partitions are the same `Arc`
    // allocations, and the counters record one miss (the edited function)
    // against a pile of hits.
    let w = pdg_stress();
    let mut n = Noelle::new(w.build(), AliasTier::Full);
    let p1 = n.pdg();
    let total_funcs = p1.per_function.len();
    assert!(
        total_funcs > 4,
        "stress workload should have many functions"
    );

    let before = n.func_cache_counters();
    let fid = n
        .module()
        .func_id_by_name("main")
        .expect("stress workload has main");
    n.edit(|tx| insert_dead_add(tx.module_touching([fid]), fid));
    let p2 = n.pdg();
    let after = n.func_cache_counters();

    // `main` calls every kernel, so its callees' summaries are unchanged
    // and only `main` itself is damaged.
    let mut reused = 0usize;
    for (other, g) in &p1.per_function {
        if *other == fid {
            continue;
        }
        assert!(
            Arc::ptr_eq(g, &p2.per_function[other]),
            "untouched function {other:?} was rebuilt"
        );
        reused += 1;
    }
    assert_eq!(reused, total_funcs - 1);
    assert_eq!(
        p1.per_function[&fid].edges(),
        p2.per_function[&fid].edges(),
        "a dead add must not move edges"
    );
    assert_eq!(
        after.pdg_misses - before.pdg_misses,
        1,
        "exactly the edited function should be re-analyzed"
    );
    assert_eq!(
        after.pdg_hits - before.pdg_hits,
        (total_funcs - 1) as u64,
        "every untouched function should be a cache hit"
    );
    assert!(after.invalidations > before.invalidations);
}
