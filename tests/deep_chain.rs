//! A dependence chain as deep as the input is long must not abort the
//! process.
//!
//! Algorithm 2 (loop invariants) walks each instruction's dependences
//! before deciding it. When a loop uses the last value of a long in-loop
//! chain from a block laid out *before* the chain's block, the walk starts
//! at the end of the chain and goes all the way down it. Written as a
//! recursion, that took one call frame per link, and a chain of 50 000
//! `add`s overflowed the main thread's stack: the process aborted, and in
//! the daemon an abort ends every session. The walk keeps its stack on the
//! heap now. These tests generate the chains — no megabyte of checked-in
//! text — and analyze them where the stack is the default 2 MiB a spawned
//! thread (a test, a daemon worker) gets.

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::builder::FunctionBuilder;
use noelle::ir::inst::{BinOp, IcmpPred};
use noelle::ir::module::Module;
use noelle::ir::printer::print_module;
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle_ide::DocSession;
use noelle_lint::run_audit;
use noelle_plan::{plan_from_audit, PlanOptions};

/// `kernel(a, n)`: a loop whose `chain` block computes `x = a + 1 + 1 + …`
/// (`links` adds) and whose `use` block, laid out before `chain` but run
/// after it, folds `x + 7` into the returned sum. The chain and `x + 7` are
/// invariant; the walk from `x + 7` meets the whole chain first.
fn chain_module(links: usize) -> Module {
    let mut b = FunctionBuilder::new(
        "kernel",
        vec![("a", Type::I64), ("n", Type::I64)],
        Type::I64,
    );
    let entry = b.entry_block();
    let header = b.block("header");
    let uses = b.block("use");
    let chain = b.block("chain");
    let exit = b.block("exit");
    b.switch_to(entry);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let s = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
    b.cond_br(c, chain, exit);
    b.switch_to(chain);
    let mut x = b.arg(0);
    for _ in 0..links {
        x = b.binop(BinOp::Add, Type::I64, x, Value::const_i64(1));
    }
    b.br(uses);
    b.switch_to(uses);
    let y = b.binop(BinOp::Add, Type::I64, x, Value::const_i64(7));
    let s2 = b.binop(BinOp::Add, Type::I64, s, y);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(header);
    b.add_incoming(i, uses, i2);
    b.add_incoming(s, uses, s2);
    b.switch_to(exit);
    b.ret(Some(s));
    let mut m = Module::new("chain");
    m.add_function(b.finish());
    m
}

#[test]
fn a_deep_dependence_chain_is_audited_and_planned_on_a_small_stack() {
    const LINKS: usize = 200_000;
    let m = chain_module(LINKS);
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let (invariants, loops_planned) = worker
        .spawn(move || {
            let mut n = Noelle::new(m, AliasTier::Full);
            let audit = run_audit(&mut n);
            let plan = plan_from_audit(&mut n, &audit, &PlanOptions::default());
            let [laud] = audit.loops.as_slice() else {
                panic!("{} loops audited", audit.loops.len());
            };
            (laud.abstraction.invariants.len(), plan.loops.len())
        })
        .expect("spawns")
        .join()
        .expect("the audit and plan finish on a 2 MiB stack");
    // Every link and `x + 7`; not the IV, the sum or the compare.
    assert_eq!(invariants, LINKS + 1);
    assert_eq!(loops_planned, 1, "one loop, one plan row");
}

#[test]
fn a_document_with_a_deep_dependence_chain_opens() {
    const LINKS: usize = 50_000;
    let text = print_module(&chain_module(LINKS));
    // Test threads run on the 2 MiB a daemon's connection thread gets.
    let doc = DocSession::open("chain", &text, AliasTier::Basic);
    assert!(doc.syntax_error().is_none());
    let payload = doc.diagnostics_text();
    assert!(
        payload.contains("\"syntax\""),
        "{}",
        &payload[..200.min(payload.len())]
    );
}
