//! Deterministic, seed-driven random IR program generator.
//!
//! Every module this emits is verifier-clean and trap-free by construction:
//! array indices are bounded by the loop trip count or masked, divisors are
//! positive constants, and integer arithmetic wraps in the interpreter. The
//! shapes mix the workload corpus's idioms — counted while loops, do-while
//! loops, reductions, loop-carried recurrences, stencils, histograms
//! (GEP/load/store aliasing), scratch buffers, nested loops, and indirect
//! calls — so the differential oracle exercises the same loop structures the
//! transforms were written for, plus the hostile corners between them.
//!
//! Every counted loop is built by the corpus's own skeleton,
//! `noelle_workloads::kernels::counted_loop` (or its `sum_loop` form), and
//! the stencil *is* `kernels::add_stencil`. The histogram differs from the
//! corpus's on purpose (8 bins, global or `alloca`, zeroed and summed by
//! labelled loops of its own); `tests/corpus/ir/text_golden.json` pins both.

use noelle_ir::builder::FunctionBuilder;
use noelle_ir::inst::{BinOp, CastOp, IcmpPred};
use noelle_ir::module::{FuncId, Global, GlobalInit, Module};
use noelle_ir::types::{FuncType, Type};
use noelle_ir::value::Value;
use noelle_workloads::kernels::{self, counted_loop, kernel_params, sum_loop};
use std::sync::Arc;

/// SplitMix64: tiny, fast, and deterministic across platforms — the whole
/// campaign's reproducibility hangs off this.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (n = 0 behaves as n = 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform value in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1).max(1) as u64) as i64
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Pick one element.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum kernels per module (at least one is always emitted).
    pub max_kernels: usize,
    /// Stop adding kernels once the module holds this many instructions.
    pub size_budget: usize,
    /// Smallest array length / trip count: at least 1, since the do-while
    /// shape runs one trip, reading `a[0]`, before it tests `n`. (The `& 7`
    /// masks index 8-slot buffers, not the n-long arrays.)
    pub min_n: i64,
    /// Largest array length / trip count.
    pub max_n: i64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_kernels: 3,
            size_budget: 160,
            min_n: 8,
            max_n: 40,
        }
    }
}

/// The loop shapes the generator mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Map,
    Reduce,
    Recurrence,
    Stencil,
    Hist,
    Scratch,
    Nested,
    Indirect,
    DoWhile,
    FloatMix,
}

const SHAPES: [Shape; 10] = [
    Shape::Map,
    Shape::Reduce,
    Shape::Recurrence,
    Shape::Stencil,
    Shape::Hist,
    Shape::Scratch,
    Shape::Nested,
    Shape::Indirect,
    Shape::DoWhile,
    Shape::FloatMix,
];

/// Safe divisors for Div/Rem (never zero, never -1).
const DIVISORS: [i64; 4] = [3, 5, 7, 11];

/// Generate the module for `seed`. Same seed + config → byte-identical
/// module, always.
pub fn generate(seed: u64, cfg: &GenConfig) -> Module {
    let mut rng = SplitMix64::new(seed);
    let mut m = Module::new(format!("fuzz_{seed}"));
    let print_i64 = m.get_or_declare("print_i64", || (vec![Type::I64], Type::Void));

    let want = 1 + rng.below(cfg.max_kernels.max(1) as u64) as usize;
    let mut kernels: Vec<FuncId> = Vec::new();
    for k in 0..want {
        if m.total_insts() > cfg.size_budget {
            break;
        }
        let shape = *rng.pick(&SHAPES);
        kernels.push(emit_kernel(&mut m, &mut rng, k, shape, print_i64));
    }
    emit_main(&mut m, &mut rng, &kernels, cfg, print_i64);
    m
}

/// A pre-drawn integer op (kept trap-free: divisions only ever see the safe
/// constant divisors).
#[derive(Clone, Copy, Debug)]
enum OpChoice {
    AddOther,
    SubOther,
    XorOther,
    MulC(i64),
    AndC(i64),
    OrC(i64),
    DivC(i64),
    RemC(i64),
}

fn draw_op(rng: &mut SplitMix64) -> OpChoice {
    match rng.below(8) {
        0 => OpChoice::AddOther,
        1 => OpChoice::SubOther,
        2 => OpChoice::MulC(rng.range(2, 9)),
        3 => OpChoice::XorOther,
        4 => OpChoice::AndC(rng.range(1, 0xFFFF)),
        5 => OpChoice::OrC(rng.range(0, 255)),
        6 => OpChoice::DivC(*rng.pick(&DIVISORS)),
        _ => OpChoice::RemC(*rng.pick(&DIVISORS)),
    }
}

fn apply_op(b: &mut FunctionBuilder, choice: OpChoice, x: Value, other: Value) -> Value {
    match choice {
        OpChoice::AddOther => b.binop(BinOp::Add, Type::I64, x, other),
        OpChoice::SubOther => b.binop(BinOp::Sub, Type::I64, x, other),
        OpChoice::XorOther => b.binop(BinOp::Xor, Type::I64, x, other),
        OpChoice::MulC(c) => b.binop(BinOp::Mul, Type::I64, x, Value::const_i64(c)),
        OpChoice::AndC(c) => b.binop(BinOp::And, Type::I64, x, Value::const_i64(c)),
        OpChoice::OrC(c) => b.binop(BinOp::Or, Type::I64, x, Value::const_i64(c)),
        OpChoice::DivC(c) => b.binop(BinOp::Div, Type::I64, x, Value::const_i64(c)),
        OpChoice::RemC(c) => b.binop(BinOp::Rem, Type::I64, x, Value::const_i64(c)),
    }
}

fn emit_kernel(
    m: &mut Module,
    rng: &mut SplitMix64,
    k: usize,
    shape: Shape,
    print_i64: FuncId,
) -> FuncId {
    match shape {
        Shape::Map => emit_map(m, rng, k, print_i64),
        Shape::Reduce => emit_reduce(m, rng, k),
        Shape::Recurrence => emit_recurrence(m, rng, k),
        Shape::Stencil => kernels::add_stencil(m, &format!("k{k}_stencil")),
        Shape::Hist => emit_hist(m, rng, k),
        Shape::Scratch => emit_scratch(m, rng, k),
        Shape::Nested => emit_nested(m, rng, k),
        Shape::Indirect => emit_indirect(m, rng, k),
        Shape::DoWhile => emit_dowhile(m, rng, k),
        Shape::FloatMix => emit_floatmix(m, rng, k),
    }
}

/// `a[i] = f(a[i])` map with an invariant chain (LICM fodder) and an Add
/// reduction of the written values.
fn emit_map(m: &mut Module, rng: &mut SplitMix64, k: usize, print_i64: FuncId) -> FuncId {
    let mut b = FunctionBuilder::new(&format!("k{k}_map"), kernel_params(), Type::I64);
    let do_print = rng.chance(10);
    let n_ops = 1 + rng.below(3);
    let inv_c = rng.range(2, 13);
    let choices: Vec<OpChoice> = (0..n_ops).map(|_| draw_op(rng)).collect();
    sum_loop(&mut b, |b, i| {
        let inv1 = b.binop(BinOp::Mul, Type::I64, b.arg(2), Value::const_i64(inv_c));
        let inv2 = b.binop(BinOp::Add, Type::I64, inv1, Value::const_i64(3));
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let mut x = v;
        for &choice in &choices {
            x = apply_op(b, choice, x, inv2);
        }
        b.store(Type::I64, x, p);
        if do_print {
            b.call(print_i64, vec![x], Type::Void);
        }
        x
    });
    m.add_function(b.finish())
}

/// Reduction with a randomly chosen operator (Add / Xor / SMin / SMax).
fn emit_reduce(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let (op, init) = *rng.pick(&[
        (BinOp::Add, 0i64),
        (BinOp::Xor, 0),
        (BinOp::SMin, i64::MAX),
        (BinOp::SMax, i64::MIN),
    ]);
    let mut b = FunctionBuilder::new(&format!("k{k}_reduce"), kernel_params(), Type::I64);
    let n = b.arg(2);
    let init = Value::const_i64(init);
    let acc = counted_loop(&mut b, 0, n, Type::I64, init, |b, i, acc| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        b.binop(op, Type::I64, acc, v)
    });
    b.ret(Some(acc));
    m.add_function(b.finish())
}

/// Register loop-carried recurrence `acc = acc * c1 + a[i]`, optionally
/// written through to `b[i]` (a memory flow the PDG must carry).
fn emit_recurrence(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let c1 = rng.range(2, 7);
    let store_through = rng.chance(50);
    let mut b = FunctionBuilder::new(&format!("k{k}_rec"), kernel_params(), Type::I64);
    let n = b.arg(2);
    let acc = counted_loop(&mut b, 0, n, Type::I64, Value::const_i64(1), |b, i, acc| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let scaled = b.binop(BinOp::Mul, Type::I64, acc, Value::const_i64(c1));
        let acc2 = b.binop(BinOp::Add, Type::I64, scaled, v);
        if store_through {
            let q = b.index_ptr(Type::I64, b.arg(1), i);
            b.store(Type::I64, acc2, q);
        }
        acc2
    });
    let masked = b.binop(BinOp::And, Type::I64, acc, Value::const_i64(0xFFFF_FFFF));
    b.ret(Some(masked));
    m.add_function(b.finish())
}

/// Histogram over 8 bins: `bins[a[i] & 7] += 1`, bins either a local scratch
/// buffer or a zero-initialized global array (GEP aliasing with loop-carried
/// memory dependences — DOALL must refuse, and the PDG must cover the
/// observed store→load chains).
fn emit_hist(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let use_global = rng.chance(50);
    let gid = use_global.then(|| {
        m.add_global(Global {
            name: format!("bins{k}"),
            ty: Type::I64.array_of(8),
            init: GlobalInit::Zero,
            is_const: false,
        })
    });
    let mut b = FunctionBuilder::new(&format!("k{k}_hist"), kernel_params(), Type::I64);
    let entry = b.entry_block();
    b.switch_to(entry);
    let bins = match gid {
        Some(g) => b.gep(
            Type::I64.array_of(8),
            Value::Global(g),
            vec![Value::const_i64(0), Value::const_i64(0)],
        ),
        None => b.alloca_n(Type::I64, Value::const_i64(8)),
    };
    // Zero the bins so locals and (re-run) globals behave identically.
    let zheader = b.block("zero_header");
    let zbody = b.block("zero_body");
    let count = b.block("count");
    b.br(zheader);
    b.switch_to(zheader);
    let zi = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let zc = b.icmp(IcmpPred::Slt, Type::I64, zi, Value::const_i64(8));
    b.cond_br(zc, zbody, count);
    b.switch_to(zbody);
    let zp = b.index_ptr(Type::I64, bins, zi);
    b.store(Type::I64, Value::const_i64(0), zp);
    let zi2 = b.binop(BinOp::Add, Type::I64, zi, Value::const_i64(1));
    b.br(zheader);
    b.add_incoming(zi, zbody, zi2);
    // Count loop.
    let cheader = b.block("count_header");
    let cbody = b.block("count_body");
    let sum = b.block("sum");
    b.switch_to(count);
    b.br(cheader);
    b.switch_to(cheader);
    let i = b.phi(Type::I64, vec![(count, Value::const_i64(0))]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(2));
    b.cond_br(c, cbody, sum);
    b.switch_to(cbody);
    let p = b.index_ptr(Type::I64, b.arg(0), i);
    let v = b.load(Type::I64, p);
    let bin = b.binop(BinOp::And, Type::I64, v, Value::const_i64(7));
    let bp = b.index_ptr(Type::I64, bins, bin);
    let old = b.load(Type::I64, bp);
    let new = b.binop(BinOp::Add, Type::I64, old, Value::const_i64(1));
    b.store(Type::I64, new, bp);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(cheader);
    b.add_incoming(i, cbody, i2);
    // Weighted-sum loop over the bins.
    let sheader = b.block("sum_header");
    let sbody = b.block("sum_body");
    let exit = b.block("exit");
    b.switch_to(sum);
    b.br(sheader);
    b.switch_to(sheader);
    let si = b.phi(Type::I64, vec![(sum, Value::const_i64(0))]);
    let sacc = b.phi(Type::I64, vec![(sum, Value::const_i64(0))]);
    let sc = b.icmp(IcmpPred::Slt, Type::I64, si, Value::const_i64(8));
    b.cond_br(sc, sbody, exit);
    b.switch_to(sbody);
    let sp = b.index_ptr(Type::I64, bins, si);
    let sv = b.load(Type::I64, sp);
    let w = b.binop(BinOp::Add, Type::I64, si, Value::const_i64(1));
    let wv = b.binop(BinOp::Mul, Type::I64, sv, w);
    let sacc2 = b.binop(BinOp::Add, Type::I64, sacc, wv);
    let si2 = b.binop(BinOp::Add, Type::I64, si, Value::const_i64(1));
    b.br(sheader);
    b.add_incoming(si, sbody, si2);
    b.add_incoming(sacc, sbody, sacc2);
    b.switch_to(exit);
    b.ret(Some(sacc));
    m.add_function(b.finish())
}

/// Scratch-buffer round trip: write `f(a[i])` into `tmp[i & 7]`, read it
/// straight back (an intra-iteration RAW through memory).
fn emit_scratch(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let mul = rng.range(2, 9);
    let mut b = FunctionBuilder::new(&format!("k{k}_scratch"), kernel_params(), Type::I64);
    let tmp = b.alloca_n(Type::I64, Value::const_i64(8));
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let x = b.binop(BinOp::Mul, Type::I64, v, Value::const_i64(mul));
        let slot = b.binop(BinOp::And, Type::I64, i, Value::const_i64(7));
        let tp = b.index_ptr(Type::I64, tmp, slot);
        b.store(Type::I64, x, tp);
        let back = b.load(Type::I64, tp);
        b.binop(BinOp::Xor, Type::I64, back, i)
    });
    m.add_function(b.finish())
}

/// Nested loops: the outer runs over `n`, the inner a fixed 4-trip register
/// chain seeded by `a[i]`.
fn emit_nested(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let c1 = rng.range(1, 7);
    let mut b = FunctionBuilder::new(&format!("k{k}_nested"), kernel_params(), Type::I64);
    let entry = b.entry_block();
    let oheader = b.block("outer_header");
    let obody = b.block("outer_body");
    let iheader = b.block("inner_header");
    let ibody = b.block("inner_body");
    let olatch = b.block("outer_latch");
    let exit = b.block("exit");
    b.switch_to(entry);
    b.br(oheader);
    b.switch_to(oheader);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let acc = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(2));
    b.cond_br(c, obody, exit);
    b.switch_to(obody);
    let p = b.index_ptr(Type::I64, b.arg(0), i);
    let v = b.load(Type::I64, p);
    b.br(iheader);
    b.switch_to(iheader);
    let j = b.phi(Type::I64, vec![(obody, Value::const_i64(0))]);
    let x = b.phi(Type::I64, vec![(obody, v)]);
    let jc = b.icmp(IcmpPred::Slt, Type::I64, j, Value::const_i64(4));
    b.cond_br(jc, ibody, olatch);
    b.switch_to(ibody);
    let x1 = b.binop(BinOp::Mul, Type::I64, x, Value::const_i64(3));
    let x2 = b.binop(BinOp::Add, Type::I64, x1, Value::const_i64(c1));
    let j2 = b.binop(BinOp::Add, Type::I64, j, Value::const_i64(1));
    b.br(iheader);
    b.add_incoming(j, ibody, j2);
    b.add_incoming(x, ibody, x2);
    b.switch_to(olatch);
    let xm = b.binop(BinOp::And, Type::I64, x, Value::const_i64(0xFFFF));
    let acc2 = b.binop(BinOp::Add, Type::I64, acc, xm);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(oheader);
    b.add_incoming(i, olatch, i2);
    b.add_incoming(acc, olatch, acc2);
    b.switch_to(exit);
    b.ret(Some(acc));
    m.add_function(b.finish())
}

/// Indirect calls: two leaf functions with different op chains, selected per
/// element by parity through a function-pointer `select`.
fn emit_indirect(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let leaf_ty = Type::Func(Arc::new(FuncType {
        params: vec![Type::I64],
        ret: Type::I64,
    }))
    .ptr_to();
    let ca = rng.range(2, 9);
    let cb = rng.range(1, 255);
    let mut la = FunctionBuilder::new(&format!("k{k}_leaf_a"), vec![("x", Type::I64)], Type::I64);
    let xa = la.binop(BinOp::Mul, Type::I64, la.arg(0), Value::const_i64(ca));
    let xa2 = la.binop(BinOp::Add, Type::I64, xa, Value::const_i64(1));
    la.ret(Some(xa2));
    let leaf_a = m.add_function(la.finish());
    let mut lb = FunctionBuilder::new(&format!("k{k}_leaf_b"), vec![("x", Type::I64)], Type::I64);
    let xb = lb.binop(BinOp::Xor, Type::I64, lb.arg(0), Value::const_i64(cb));
    lb.ret(Some(xb));
    let leaf_b = m.add_function(lb.finish());

    let mut b = FunctionBuilder::new(&format!("k{k}_indirect"), kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let parity = b.binop(BinOp::And, Type::I64, v, Value::const_i64(1));
        let parity = b.icmp(IcmpPred::Ne, Type::I64, parity, Value::const_i64(0));
        let fp = b.select(
            leaf_ty.clone(),
            parity,
            Value::Func(leaf_a),
            Value::Func(leaf_b),
        );
        let r = b.call_indirect(fp, vec![v], Type::I64);
        b.binop(BinOp::And, Type::I64, r, Value::const_i64(0xFFFF))
    });
    m.add_function(b.finish())
}

/// Bottom-tested do-while loop: one trip whatever `n`, so `min_n` ≥ 1.
fn emit_dowhile(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let c1 = rng.range(1, 9);
    let mut b = FunctionBuilder::new(&format!("k{k}_dowhile"), kernel_params(), Type::I64);
    let entry = b.entry_block();
    let body = b.block("body");
    let exit = b.block("exit");
    b.switch_to(entry);
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let acc = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let p = b.index_ptr(Type::I64, b.arg(0), i);
    let v = b.load(Type::I64, p);
    let vc = b.binop(BinOp::Add, Type::I64, v, Value::const_i64(c1));
    let acc2 = b.binop(BinOp::Add, Type::I64, acc, vc);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    let c = b.icmp(IcmpPred::Slt, Type::I64, i2, b.arg(2));
    b.cond_br(c, body, exit);
    b.add_incoming(i, body, i2);
    b.add_incoming(acc, body, acc2);
    b.switch_to(exit);
    b.ret(Some(acc2));
    m.add_function(b.finish())
}

/// Float pipeline: int→float, FMul/FAdd chain, division by a constant, and
/// back — bit-for-bit output comparison catches any reassociation.
fn emit_floatmix(m: &mut Module, rng: &mut SplitMix64, k: usize) -> FuncId {
    let use_sqrt = rng.chance(50);
    let scale = rng.range(2, 5) as f64 / 2.0;
    let sqrt = use_sqrt.then(|| m.get_or_declare("sqrt", || (vec![Type::F64], Type::F64)));
    let mut b = FunctionBuilder::new(&format!("k{k}_float"), kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let fv = b.cast(CastOp::SiToFp, Type::I64, Type::F64, v);
        let fx = b.binop(BinOp::FMul, Type::F64, fv, Value::const_f64(scale));
        let fy = b.binop(BinOp::FAdd, Type::F64, fx, Value::const_f64(0.25));
        let fz = b.binop(BinOp::FDiv, Type::F64, fy, Value::const_f64(2.0));
        let out = match sqrt {
            Some(s) => {
                let sq = b.binop(BinOp::FMul, Type::F64, fz, fz);
                let sq1 = b.binop(BinOp::FAdd, Type::F64, sq, Value::const_f64(1.0));
                b.call(s, vec![sq1], Type::F64)
            }
            None => fz,
        };
        let r = b.cast(CastOp::FpToSi, Type::F64, Type::I64, out);
        b.binop(BinOp::And, Type::I64, r, Value::const_i64(0xFFFF))
    });
    m.add_function(b.finish())
}

/// `main`: fill the shared arrays with seed-derived constants, run every
/// kernel, print each result, and return a masked checksum.
fn emit_main(
    m: &mut Module,
    rng: &mut SplitMix64,
    kernels: &[FuncId],
    cfg: &GenConfig,
    print_i64: FuncId,
) {
    let n = rng.range(cfg.min_n, cfg.max_n);
    let c1 = rng.range(1, 97);
    let c2 = rng.range(0, 1023);
    let c3 = rng.range(1, 511);
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let entry = b.entry_block();
    let fill = b.block("fill");
    let run = b.block("run");
    b.switch_to(entry);
    let a = b.alloca_n(Type::I64, Value::const_i64(n));
    let arr_b = b.alloca_n(Type::I64, Value::const_i64(n));
    b.br(fill);
    b.switch_to(fill);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let va = b.binop(BinOp::Mul, Type::I64, i, Value::const_i64(c1));
    let va2 = b.binop(BinOp::Add, Type::I64, va, Value::const_i64(c2));
    let va3 = b.binop(BinOp::And, Type::I64, va2, Value::const_i64(0x3FF));
    let pa = b.index_ptr(Type::I64, a, i);
    b.store(Type::I64, va3, pa);
    let vb = b.binop(BinOp::Xor, Type::I64, i, Value::const_i64(c3));
    let vb2 = b.binop(BinOp::And, Type::I64, vb, Value::const_i64(0x3FF));
    let pb = b.index_ptr(Type::I64, arr_b, i);
    b.store(Type::I64, vb2, pb);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    let c = b.icmp(IcmpPred::Slt, Type::I64, i2, Value::const_i64(n));
    b.cond_br(c, fill, run);
    b.add_incoming(i, fill, i2);
    b.switch_to(run);
    let mut checksum = Value::const_i64(0);
    for &kf in kernels {
        let r = b.call(kf, vec![a, arr_b, Value::const_i64(n)], Type::I64);
        b.call(print_i64, vec![r], Type::Void);
        let mixed = b.binop(BinOp::Mul, Type::I64, checksum, Value::const_i64(31));
        checksum = b.binop(BinOp::Add, Type::I64, mixed, r);
    }
    let out = b.binop(
        BinOp::And,
        Type::I64,
        checksum,
        Value::const_i64(0x7FFF_FFFF),
    );
    b.ret(Some(out));
    m.add_function(b.finish());
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::printer::print_module;
    use noelle_ir::verifier::verify_module;
    use noelle_runtime::machine::{run_module, RunConfig};

    #[test]
    fn prng_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn generated_modules_verify_and_run() {
        let cfg = GenConfig::default();
        for seed in 0..60 {
            let m = generate(seed, &cfg);
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed} fails verify: {e:?}"));
            let r = run_module(&m, "main", &[], &RunConfig::default())
                .unwrap_or_else(|e| panic!("seed {seed} fails to run: {e}"));
            assert!(r.ret_i64().is_some(), "seed {seed} returned no integer");
        }
    }

    #[test]
    fn generation_is_byte_deterministic() {
        let cfg = GenConfig::default();
        for seed in [0u64, 7, 123, 9999] {
            let a = print_module(&generate(seed, &cfg));
            let b = print_module(&generate(seed, &cfg));
            assert_eq!(a, b, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn seeds_cover_multiple_shapes() {
        let cfg = GenConfig::default();
        let mut names = std::collections::BTreeSet::new();
        for seed in 0..80 {
            let m = generate(seed, &cfg);
            for f in m.functions() {
                if let Some(tag) = f.name.split('_').nth(1) {
                    names.insert(tag.to_string());
                }
            }
        }
        assert!(
            names.len() >= 8,
            "expected shape diversity, got only {names:?}"
        );
    }

    #[test]
    fn size_budget_bounds_module_growth() {
        let cfg = GenConfig {
            max_kernels: 8,
            size_budget: 60,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let m = generate(seed, &cfg);
            // One kernel may exceed the budget before the check fires; the
            // bound is budget + one kernel + main, comfortably under 4x.
            assert!(
                m.total_insts() < 4 * cfg.size_budget,
                "seed {seed}: {} insts",
                m.total_insts()
            );
        }
    }
}
