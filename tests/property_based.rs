//! Property-based tests over the core data structures and invariants:
//! randomly generated straight-line/branchy programs must round-trip
//! through the printer/parser, verify, and execute deterministically; the
//! dominator and dependence structures must satisfy their defining
//! properties on arbitrary CFGs.
//!
//! The generator is a deterministic xorshift PRNG (the registry is offline,
//! so no proptest) — every failure reproduces from its case index.

use noelle::ir::builder::FunctionBuilder;
use noelle::ir::cfg::Cfg;
use noelle::ir::dom::{DomTree, PostDomTree};
use noelle::ir::inst::{BinOp, IcmpPred};
use noelle::ir::types::Type;
use noelle::ir::value::Value;
use noelle::ir::Module;
use noelle::runtime::{run_module, RunConfig};

const CASES: u64 = 64;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A tiny random program: a chain of arithmetic on an argument, optional
/// diamonds, and a counted loop with a random body mix.
#[derive(Debug, Clone)]
struct ProgSpec {
    ops: Vec<(u8, i64)>,
    trip: i64,
    diamond_on_bit: bool,
}

fn gen_spec(rng: &mut Rng) -> ProgSpec {
    let n_ops = rng.range(1, 12) as usize;
    let ops = (0..n_ops)
        .map(|_| (rng.range(0, 5) as u8, rng.range(1, 50)))
        .collect();
    ProgSpec {
        ops,
        trip: rng.range(1, 40),
        diamond_on_bit: rng.bool(),
    }
}

fn build(spec: &ProgSpec) -> Module {
    let mut m = Module::new("prop");
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let entry = b.entry_block();
    let header = b.block("header");
    let body = b.block("body");
    let exit = b.block("exit");
    b.switch_to(entry);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let acc = b.phi(Type::I64, vec![(entry, Value::const_i64(1))]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, Value::const_i64(spec.trip));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let mut x = acc;
    for &(op, k) in &spec.ops {
        let kv = Value::const_i64(k);
        x = match op {
            0 => b.binop(BinOp::Add, Type::I64, x, kv),
            1 => b.binop(BinOp::Mul, Type::I64, x, kv),
            2 => b.binop(BinOp::Xor, Type::I64, x, kv),
            3 => b.binop(BinOp::And, Type::I64, x, Value::const_i64(k | 0xFF)),
            _ => b.binop(BinOp::Div, Type::I64, x, kv),
        };
    }
    let acc2 = if spec.diamond_on_bit {
        // Diamond: pick between two updates based on the low bit.
        let bit = b.binop(BinOp::And, Type::I64, x, Value::const_i64(1));
        let cond = b.icmp(IcmpPred::Eq, Type::I64, bit, Value::const_i64(0));
        let even = b.block("even");
        let odd = b.block("odd");
        let join = b.block("join");
        b.cond_br(cond, even, odd);
        b.switch_to(even);
        let xe = b.binop(BinOp::Add, Type::I64, x, Value::const_i64(3));
        b.br(join);
        b.switch_to(odd);
        let xo = b.binop(BinOp::Mul, Type::I64, x, Value::const_i64(2));
        b.br(join);
        b.switch_to(join);
        let merged = b.phi(Type::I64, vec![(even, xe), (odd, xo)]);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, b.func().block_order()[6], i2);
        b.add_incoming(acc, b.func().block_order()[6], merged);
        merged
    } else {
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(acc, body, x);
        x
    };
    let _ = acc2;
    b.switch_to(exit);
    b.ret(Some(acc));
    m.add_function(b.finish());
    m
}

/// Run `check` over the deterministic case corpus, reporting the failing
/// case index and spec on panic.
fn for_each_case(check: impl Fn(&ProgSpec)) {
    for case in 0..CASES {
        let spec = gen_spec(&mut Rng::new(case));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&spec)));
        if let Err(e) = result {
            eprintln!("failing case {case}: {spec:?}");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn generated_programs_verify_and_round_trip() {
    for_each_case(|spec| {
        let m = build(spec);
        noelle::ir::verifier::verify_module(&m).expect("generated program verifies");
        // Printer/parser round trip preserves the program exactly.
        let text = noelle::ir::printer::print_module(&m);
        let m2 = noelle::ir::parser::parse_module(&text).expect("reparses");
        assert_eq!(noelle::ir::printer::print_module(&m2), text);
        // Execution is deterministic and identical across the round trip.
        let r1 = run_module(&m, "main", &[], &RunConfig::default()).expect("runs");
        let r2 = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
        assert_eq!(r1.ret_i64(), r2.ret_i64());
        assert_eq!(r1.cycles, r2.cycles);
    });
}

#[test]
fn dominance_properties_hold() {
    for_each_case(|spec| {
        let m = build(spec);
        let f = m.func_by_name("main").unwrap();
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let pdt = PostDomTree::new(f, &cfg);
        let entry = f.entry();
        for &x in &cfg.rpo {
            // The entry dominates every reachable block; dominance is
            // reflexive; the idom strictly dominates its node.
            assert!(dt.dominates(entry, x));
            assert!(dt.dominates(x, x));
            if let Some(d) = dt.idom(x) {
                assert!(dt.strictly_dominates(d, x));
            }
            // Every dominator of x also dominates x's idom chain upward.
            if let Some(d) = dt.idom(x) {
                for &y in &cfg.rpo {
                    if dt.strictly_dominates(y, x) {
                        assert!(dt.dominates(y, d) || y == d);
                    }
                }
            }
            // Post-dominance mirrors: every block post-dominates itself.
            assert!(pdt.postdominates(x, x));
        }
    });
}

#[test]
fn licm_preserves_random_program_semantics() {
    for_each_case(|spec| {
        use noelle::core::noelle::{AliasTier, Noelle};
        let m = build(spec);
        let before = run_module(&m, "main", &[], &RunConfig::default()).expect("runs");
        let mut n = Noelle::new(m, AliasTier::Full);
        noelle::transforms::licm::run(&mut n);
        let m2 = n.into_module();
        noelle::ir::verifier::verify_module(&m2).expect("verifies after LICM");
        let after = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
        assert_eq!(before.ret_i64(), after.ret_i64());
    });
}

#[test]
fn sccdag_partitions_loop_instructions() {
    for_each_case(|spec| {
        use noelle_analysis::alias::BasicAlias;
        use noelle_pdg::pdg::PdgBuilder;
        use noelle_pdg::sccdag::SccDag;
        let m = build(spec);
        let fid = m.func_ids().next().unwrap();
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = noelle::ir::loops::LoopForest::new(f, &cfg, &dt);
        for l in forest.loops() {
            let basic = BasicAlias::new(&m);
            let builder = PdgBuilder::new(&m, &basic);
            let g = builder.loop_pdg(fid, l);
            let recs = noelle_analysis::scev::affine_recurrences(f, l);
            let dag = SccDag::new(f, l, &g, &recs);
            // Every internal instruction is in exactly one SCC, and the SCC
            // DAG's topological order covers every node exactly once.
            let covered: usize = dag.nodes().iter().map(|n| dag.insts(n.id).len()).sum();
            assert_eq!(covered, g.num_internal());
            let topo = dag.topo_order();
            assert_eq!(topo.len(), dag.nodes().len());
            for i in g.internal_nodes() {
                assert!(dag.scc_of(i).is_some());
            }
        }
    });
}
