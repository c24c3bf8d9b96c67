//! Kernel-shape builders: the loop/memory/call patterns that make up the
//! synthetic benchmark corpus. Each builder appends one kernel function to a
//! module and returns its id; `main` composes them.
//!
//! Every counted loop here, in `scale_module` and in the fuzzer's generator
//! is built by [`counted_loop`], most through its [`sum_loop`] form. Only
//! loops with labels of their own (`main`'s fill loop and mix tail) are
//! written out by hand.

use noelle_ir::builder::FunctionBuilder;
use noelle_ir::inst::{BinOp, CastOp, IcmpPred};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;

/// Signature shared by array kernels: `i64 kernel(i64* a, i64* b, i64 n)`.
/// Public so generative tooling (the fuzzer) emits the same shapes the
/// workload corpus does.
pub fn kernel_params() -> Vec<(&'static str, Type)> {
    vec![
        ("a", Type::I64.ptr_to()),
        ("b", Type::I64.ptr_to()),
        ("n", Type::I64),
    ]
}

/// The trip bound of a [`kernel_params`] kernel: its `n`.
const N: Value = Value::Arg(2);

/// The one counted-loop skeleton: `for (i = start; i < bound; i++) acc =
/// step(b, i, acc)`, built from the current block with an i64 counter and an
/// accumulator of type `acc_ty` that starts at `init`. Leaves the builder in
/// the exit block and returns the accumulator's header phi, its value after
/// the loop. The printer numbers values in creation order, so that order is
/// fixed: the counter phi, the accumulator phi, the compare, the step's
/// instructions, the increment. Public so the fuzzer's generator builds its
/// loops with it too.
pub fn counted_loop(
    b: &mut FunctionBuilder,
    start: i64,
    bound: Value,
    acc_ty: Type,
    init: Value,
    step: impl FnOnce(&mut FunctionBuilder, Value, Value) -> Value,
) -> Value {
    let pre = b.current_block();
    let header = b.block("header");
    let body = b.block("body");
    let exit = b.block("exit");
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, vec![(pre, Value::const_i64(start))]);
    let acc = b.phi(acc_ty, vec![(pre, init)]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, bound);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let acc2 = step(b, i, acc);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(header);
    b.add_incoming(i, body, i2);
    b.add_incoming(acc, body, acc2);
    b.switch_to(exit);
    acc
}

/// The common kernel: `acc += contrib(b, i)` for `i` in `[0, n)` from an i64
/// zero, then `ret acc`. Built from the current block.
pub fn sum_loop(
    b: &mut FunctionBuilder,
    contrib: impl FnOnce(&mut FunctionBuilder, Value) -> Value,
) {
    let acc = counted_loop(b, 0, N, Type::I64, Value::const_i64(0), |b, i, acc| {
        let c = contrib(b, i);
        b.binop(BinOp::Add, Type::I64, acc, c)
    });
    b.ret(Some(acc));
}

/// DOALL map over `a`: `a[i] = f(a[i])` with a configurable op chain; the
/// kernel returns the sum of the written values (a reduction).
pub fn add_map(m: &mut Module, name: &str, heavy: bool) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        // Invariant chain: k1 depends only on the argument; k2 chains off
        // k1 (Algorithm 2 catches the chain, Algorithm 1 only k1).
        let k1 = b.binop(BinOp::Mul, Type::I64, b.arg(2), Value::const_i64(5));
        let k2 = b.binop(BinOp::Add, Type::I64, k1, Value::const_i64(3));
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let mut x = b.binop(BinOp::Mul, Type::I64, v, Value::const_i64(3));
        x = b.binop(BinOp::Add, Type::I64, x, k2);
        if heavy {
            x = b.binop(BinOp::Div, Type::I64, x, Value::const_i64(5));
            x = b.binop(BinOp::Mul, Type::I64, x, x);
            x = b.binop(BinOp::Div, Type::I64, x, Value::const_i64(11));
            x = b.binop(BinOp::Xor, Type::I64, x, v);
            x = b.binop(BinOp::And, Type::I64, x, Value::const_i64(0xFFFF));
        }
        b.store(Type::I64, x, p);
        x
    });
    m.add_function(b.finish())
}

/// Reduction sum over `a` with optional extra per-element work.
pub fn add_sum(m: &mut Module, name: &str, heavy: bool) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        if heavy {
            let k1 = b.binop(BinOp::Or, Type::I64, b.arg(2), Value::const_i64(1));
            let k2 = b.binop(BinOp::Add, Type::I64, k1, Value::const_i64(12));
            let s = b.binop(BinOp::Mul, Type::I64, v, v);
            let t = b.binop(BinOp::Div, Type::I64, s, k2);
            b.binop(BinOp::Add, Type::I64, t, v)
        } else {
            v
        }
    });
    m.add_function(b.finish())
}

/// Min-reduction (streamcluster/dijkstra shape).
pub fn add_min(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let init = Value::const_i64(i64::MAX);
    let best = counted_loop(&mut b, 0, N, Type::I64, init, |b, i, best| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let d = b.binop(BinOp::Mul, Type::I64, v, Value::const_i64(17));
        let dist = b.binop(BinOp::Xor, Type::I64, d, Value::const_i64(0x55));
        b.binop(BinOp::SMin, Type::I64, best, dist)
    });
    b.ret(Some(best));
    m.add_function(b.finish())
}

/// Floating-point reduction with library math (blackscholes shape).
pub fn add_fsum(m: &mut Module, name: &str) -> FuncId {
    let sqrt = m.get_or_declare("sqrt", || (vec![Type::F64], Type::F64));
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let init = Value::const_f64(0.0);
    let acc = counted_loop(&mut b, 0, N, Type::F64, init, |b, i, acc| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let fk1 = b.cast(CastOp::SiToFp, Type::I64, Type::F64, b.arg(2));
        let fk2 = b.binop(BinOp::FMul, Type::F64, fk1, Value::const_f64(0.001));
        let fk3 = b.binop(BinOp::FAdd, Type::F64, fk2, Value::const_f64(1.0));
        let x = b.cast(CastOp::SiToFp, Type::I64, Type::F64, v);
        let x1 = b.binop(BinOp::FMul, Type::F64, x, fk3);
        let x2 = b.binop(BinOp::FAdd, Type::F64, x1, Value::const_f64(1.0));
        let r = b.call(sqrt, vec![x2], Type::F64);
        let r2 = b.binop(BinOp::FDiv, Type::F64, r, Value::const_f64(1.5));
        b.binop(BinOp::FAdd, Type::F64, acc, r2)
    });
    let out = b.cast(CastOp::FpToSi, Type::F64, Type::I64, acc);
    b.ret(Some(out));
    m.add_function(b.finish())
}

/// Stencil: `b[i] = a[i-1] + a[i] + a[i+1]` for `i in 1..n-1` (fluidanimate
/// shape; DOALL with a points-to-powered PDG since `a` and `b` are distinct
/// allocations).
pub fn add_stencil(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let n1 = b.binop(BinOp::Sub, Type::I64, N, Value::const_i64(1));
    let acc = counted_loop(
        &mut b,
        1,
        n1,
        Type::I64,
        Value::const_i64(0),
        |b, i, acc| {
            let im1 = b.binop(BinOp::Sub, Type::I64, i, Value::const_i64(1));
            let ip1 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
            let p0 = b.index_ptr(Type::I64, b.arg(0), im1);
            let p1 = b.index_ptr(Type::I64, b.arg(0), i);
            let p2 = b.index_ptr(Type::I64, b.arg(0), ip1);
            let v0 = b.load(Type::I64, p0);
            let v1 = b.load(Type::I64, p1);
            let v2 = b.load(Type::I64, p2);
            let s01 = b.binop(BinOp::Add, Type::I64, v0, v1);
            let s = b.binop(BinOp::Add, Type::I64, s01, v2);
            let q = b.index_ptr(Type::I64, b.arg(1), i);
            b.store(Type::I64, s, q);
            b.binop(BinOp::Add, Type::I64, acc, s)
        },
    );
    b.ret(Some(acc));
    m.add_function(b.finish())
}

/// Bit-mixing sequential chain (crc32/sha shape): the accumulator update
/// mixes shifts and xors, so the recurrence is NOT a reduction — the loop
/// stays sequential for every parallelizer, matching the paper's crc
/// observation.
pub fn add_seq_chain(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let crc = counted_loop(
        &mut b,
        0,
        N,
        Type::I64,
        Value::const_i64(-1),
        |b, i, crc| {
            let p = b.index_ptr(Type::I64, b.arg(0), i);
            let v = b.load(Type::I64, p);
            let sh = b.binop(BinOp::Shl, Type::I64, crc, Value::const_i64(1));
            let x = b.binop(BinOp::Xor, Type::I64, sh, v);
            b.binop(BinOp::And, Type::I64, x, Value::const_i64(0xFFFF_FFFF))
        },
    );
    b.ret(Some(crc));
    m.add_function(b.finish())
}

/// Heavy bit-mixing sequential chain (the SPEC-like programs' dominant
/// phase): ~8 dependent mixing rounds per element, all chained through the
/// accumulator, so no parallelizer can touch it and it dwarfs the parallel
/// fraction (the paper's explanation for SPEC's 1-5% ceilings).
pub fn add_seq_chain_heavy(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let acc = counted_loop(
        &mut b,
        0,
        N,
        Type::I64,
        Value::const_i64(-1),
        |b, i, acc| {
            let p = b.index_ptr(Type::I64, b.arg(0), i);
            let v = b.load(Type::I64, p);
            let mut x = b.binop(BinOp::Xor, Type::I64, acc, v);
            for d in [7i64, 11, 5, 13, 3, 17, 9, 23] {
                let sh = b.binop(BinOp::Shl, Type::I64, x, Value::const_i64(1));
                let dv = b.binop(BinOp::Div, Type::I64, sh, Value::const_i64(d));
                x = b.binop(BinOp::Xor, Type::I64, dv, v);
            }
            b.binop(BinOp::And, Type::I64, x, Value::const_i64(0xFFFF_FFFF))
        },
    );
    b.ret(Some(acc));
    m.add_function(b.finish())
}

/// Histogram: `b[a[i] & 15] += 1` — the data-dependent store index defeats
/// per-iteration disambiguation; HELIX can still bracket the bin update.
pub fn add_hist(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let bin = b.binop(BinOp::And, Type::I64, v, Value::const_i64(15));
        let q = b.index_ptr(Type::I64, b.arg(1), bin);
        let old = b.load(Type::I64, q);
        let new = b.binop(BinOp::Add, Type::I64, old, Value::const_i64(1));
        b.store(Type::I64, new, q);
        new
    });
    m.add_function(b.finish())
}

/// Write-before-read scratch cell per iteration (Perspective's
/// privatization pattern).
pub fn add_scratch(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    // Pre-create the scratch cell in the entry block.
    let tmp = b.alloca(Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let sq = b.binop(BinOp::Mul, Type::I64, v, v);
        b.store(Type::I64, sq, tmp);
        let t = b.load(Type::I64, tmp);
        b.binop(BinOp::Add, Type::I64, t, v)
    });
    m.add_function(b.finish())
}

/// Bucketing stress kernel: `banks` disjoint scratch cells, each
/// read-modify-written `touches` times. The shape where all-pairs dependence
/// testing pays ~(banks·touches)² alias queries while base-object bucketing
/// proves the banks disjoint from one `base_objects` query per access.
pub fn add_bank_scratch(m: &mut Module, name: &str, banks: usize, touches: usize) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let entry = b.entry_block();
    b.switch_to(entry);
    let cells: Vec<Value> = (0..banks)
        .map(|k| {
            let c = b.alloca(Type::I64);
            b.store(Type::I64, Value::const_i64(k as i64 + 1), c);
            c
        })
        .collect();
    for t in 0..touches {
        for &c in &cells {
            let v = b.load(Type::I64, c);
            let v2 = b.binop(
                BinOp::Mul,
                Type::I64,
                v,
                Value::const_i64((t % 5) as i64 + 3),
            );
            let v3 = b.binop(BinOp::Xor, Type::I64, v2, Value::const_i64(0x2D));
            b.store(Type::I64, v3, c);
        }
    }
    let mut sum = Value::const_i64(0);
    for &c in &cells {
        let v = b.load(Type::I64, c);
        sum = b.binop(BinOp::Add, Type::I64, sum, v);
    }
    b.ret(Some(sum));
    m.add_function(b.finish())
}

/// Monte-Carlo draws from a PRVG (bodytrack/swaptions shape, PRVJ fodder).
pub fn add_monte(m: &mut Module, name: &str) -> FuncId {
    let prv = m.get_or_declare("prv.mt.next", || (vec![Type::I64], Type::I64));
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, _i| {
        let r = b.call(prv, vec![Value::const_i64(0)], Type::I64);
        b.binop(BinOp::And, Type::I64, r, Value::const_i64(1023))
    });
    m.add_function(b.finish())
}

/// Constant-on-the-left compares (x264/stringsearch shape, TIME fodder).
pub fn add_branchy(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let th = b.binop(BinOp::Div, Type::I64, b.arg(2), Value::const_i64(2));
        let th2 = b.binop(BinOp::Add, Type::I64, th, Value::const_i64(5));
        let c0 = b.icmp(IcmpPred::Slt, Type::I64, v, th2);
        let c1 = b.icmp(IcmpPred::Sgt, Type::I64, Value::const_i64(100), v);
        let c2 = b.icmp(IcmpPred::Slt, Type::I64, Value::const_i64(10), v);
        let _ = c0;
        let w1 = b.select(Type::I64, c1, Value::const_i64(2), Value::const_i64(5));
        let w2 = b.select(Type::I64, c2, w1, Value::const_i64(1));
        b.binop(BinOp::Mul, Type::I64, w2, Value::const_i64(3))
    });
    m.add_function(b.finish())
}

/// Loop whose body calls a defined leaf function (qsort/COOS shape).
pub fn add_call_work(m: &mut Module, name: &str) -> FuncId {
    let leaf = {
        let mut lb =
            FunctionBuilder::new(&format!("{name}.leaf"), vec![("x", Type::I64)], Type::I64);
        let e = lb.entry_block();
        lb.switch_to(e);
        let a = lb.binop(BinOp::Mul, Type::I64, lb.arg(0), lb.arg(0));
        let bq = lb.binop(BinOp::Div, Type::I64, a, Value::const_i64(7));
        let r = lb.binop(BinOp::Add, Type::I64, bq, lb.arg(0));
        lb.ret(Some(r));
        m.add_function(lb.finish())
    };
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        b.call(leaf, vec![v], Type::I64)
    });
    m.add_function(b.finish())
}

/// Indirect dispatch through a function pointer chosen at run time (ferret
/// shape; exercises the complete call graph).
pub fn add_indirect(m: &mut Module, name: &str) -> FuncId {
    let mk_leaf = |m: &mut Module, nm: String, c: i64| -> FuncId {
        let mut lb = FunctionBuilder::new(&nm, vec![("x", Type::I64)], Type::I64);
        let e = lb.entry_block();
        lb.switch_to(e);
        let r = lb.binop(BinOp::Add, Type::I64, lb.arg(0), Value::const_i64(c));
        lb.ret(Some(r));
        m.add_function(lb.finish())
    };
    let f1 = mk_leaf(m, format!("{name}.t1"), 3);
    let f2 = mk_leaf(m, format!("{name}.t2"), 11);
    let fty = Type::Func(std::sync::Arc::new(noelle_ir::types::FuncType {
        params: vec![Type::I64],
        ret: Type::I64,
    }))
    .ptr_to();
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    let c = b.icmp(IcmpPred::Sgt, Type::I64, b.arg(2), Value::const_i64(100));
    let fp = b.select(fty, c, Value::Func(f1), Value::Func(f2));
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        b.call_indirect(fp, vec![v], Type::I64)
    });
    m.add_function(b.finish())
}

/// Deep per-element dependence chain (raytrace/imagick shading shape):
/// enough work per iteration that decoupled pipelining pays for its queues.
pub fn add_pipe(m: &mut Module, name: &str) -> FuncId {
    let mut b = FunctionBuilder::new(name, kernel_params(), Type::I64);
    sum_loop(&mut b, |b, i| {
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let mut x = b.binop(BinOp::Mul, Type::I64, v, v);
        for d in [
            7i64, 3, 5, 9, 11, 13, 2, 17, 19, 23, 4, 7, 3, 5, 9, 11, 13, 2, 17, 19, 23, 4,
        ] {
            x = b.binop(BinOp::Div, Type::I64, x, Value::const_i64(d));
            x = b.binop(BinOp::Add, Type::I64, x, v);
        }
        x
    });
    m.add_function(b.finish())
}

/// Dead helper functions (never called): §4.5 fodder. `weight` scales their
/// size.
pub fn add_dead_functions(m: &mut Module, count: usize, weight: usize) {
    for k in 0..count {
        let mut b = FunctionBuilder::new(
            &format!("unused.helper{k}"),
            vec![("x", Type::I64)],
            Type::I64,
        );
        let e = b.entry_block();
        b.switch_to(e);
        let mut v = b.arg(0);
        for j in 0..weight {
            v = b.binop(BinOp::Mul, Type::I64, v, Value::const_i64(j as i64 + 3));
            v = b.binop(BinOp::Xor, Type::I64, v, Value::const_i64(0x5A5A));
        }
        b.ret(Some(v));
        m.add_function(b.finish());
    }
}

/// Build `main`: allocate and fill two arrays of `n` i64s, call each kernel
/// in order, and return a checksum of their results.
pub fn add_main(m: &mut Module, kernels: &[FuncId], n: i64, passes: usize, do_while_tail: bool) {
    let malloc = m.get_or_declare("malloc", || (vec![Type::I64], Type::I64.ptr_to()));
    let kernel_sigs: Vec<FuncId> = kernels.to_vec();
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let entry = b.entry_block();
    b.switch_to(entry);
    let a = b.call(malloc, vec![Value::const_i64(n * 8)], Type::I64.ptr_to());
    let bb = b.call(malloc, vec![Value::const_i64(n * 8)], Type::I64.ptr_to());
    // While-shaped fill loop (test in the header): realistic Clang output,
    // and the shape LLVM-style IV detection cannot govern (§4.3).
    let fill_h = b.block("fill_header");
    let fill_b = b.block("fill_body");
    let run = b.block("run");
    b.br(fill_h);
    b.switch_to(fill_h);
    let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
    let c = b.icmp(IcmpPred::Slt, Type::I64, i, Value::const_i64(n));
    b.cond_br(c, fill_b, run);
    b.switch_to(fill_b);
    let x = b.binop(BinOp::Mul, Type::I64, i, Value::const_i64(37));
    let y = b.binop(BinOp::And, Type::I64, x, Value::const_i64(255));
    let p = b.index_ptr(Type::I64, a, i);
    b.store(Type::I64, y, p);
    let q = b.index_ptr(Type::I64, bb, i);
    b.store(Type::I64, Value::const_i64(0), q);
    let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
    b.br(fill_h);
    b.add_incoming(i, fill_b, i2);
    b.switch_to(run);
    let mut sum = Value::const_i64(0);
    for _ in 0..passes.max(1) {
        for &k in &kernel_sigs {
            let r = b.call(k, vec![a, bb, Value::const_i64(n)], Type::I64);
            let masked = b.binop(BinOp::And, Type::I64, r, Value::const_i64(0xFFFF_FFFF));
            sum = b.binop(BinOp::Add, Type::I64, sum, masked);
        }
    }
    if do_while_tail {
        // A small bottom-tested (do-while) mixing loop: the shape LLVM's IV
        // analysis *can* govern — the paper found a few such loops (11 of
        // 385) in its suites, so a slice of the corpus carries one too.
        let run_end = b.current_block();
        let mix = b.block("mix");
        let out = b.block("out");
        b.br(mix);
        b.switch_to(mix);
        let j = b.phi(Type::I64, vec![(run_end, Value::const_i64(0))]);
        let h = b.phi(Type::I64, vec![(run_end, sum)]);
        let h1 = b.binop(BinOp::Mul, Type::I64, h, Value::const_i64(31));
        let h2 = b.binop(BinOp::Add, Type::I64, h1, j);
        let h3 = b.binop(BinOp::And, Type::I64, h2, Value::const_i64(0xFFFF_FFFF));
        let j2 = b.binop(BinOp::Add, Type::I64, j, Value::const_i64(1));
        let c = b.icmp(IcmpPred::Slt, Type::I64, j2, Value::const_i64(16));
        b.cond_br(c, mix, out);
        b.add_incoming(j, mix, j2);
        b.add_incoming(h, mix, h3);
        b.switch_to(out);
        b.ret(Some(h3));
    } else {
        b.ret(Some(sum));
    }
    m.add_function(b.finish());
}
