//! The verifier's error messages against a recorded mutant table.
//!
//! Each mutant feeds a pointer operand from one source into one sink that
//! wants an `i64*` (or, for `condbr` and `switch`, an `i1` or an integer),
//! and a few phis break the incoming-block rules. The sources are an alloca,
//! a gep into an array, into a struct (an in-range and an out-of-range
//! field), a load of a pointer, an argument, a global, `null`, `undef` and a
//! function address. `tests/corpus/ir/verifier_mutants.txt` holds every
//! message the verifier gave for each, in order; the verifier must give the
//! same ones whatever way it works out a value's type.

use noelle::ir::builder::FunctionBuilder;
use noelle::ir::module::{Global, GlobalInit, Module};
use noelle::ir::types::{IntWidth, Type};
use noelle::ir::value::{Constant, Value};
use noelle::ir::verifier::verify_module;
use std::sync::Arc;

const SOURCES: [&str; 10] = [
    "alloca",
    "gep-array",
    "gep-struct",
    "gep-struct-out-of-range",
    "load",
    "argument",
    "global",
    "null",
    "undef",
    "function",
];

const SINKS: [&str; 8] = [
    "load", "store", "gep", "phi", "call", "ret", "condbr", "switch",
];

/// The phi mutants: incomings that miss a predecessor, name one twice,
/// name a block that is no predecessor, or come from an unreachable one.
const PHIS: [&str; 4] = [
    "phi-missing-predecessor",
    "phi-duplicate-incoming",
    "phi-extra-incoming",
    "phi-unreachable-predecessor",
];

fn i32_const(v: i64) -> Value {
    Value::Const(Constant::Int(v, IntWidth::I32))
}

/// A module whose `@f` moves `source` into `sink`.
fn mutant(source: &str, sink: &str) -> Module {
    let mut m = Module::new("mutant");
    let g = m.add_global(Global {
        name: "g".into(),
        ty: Type::I64,
        init: GlobalInit::Zero,
        is_const: false,
    });
    let takes_ptr = m.declare_function("take", vec![Type::I64.ptr_to()], Type::Void);
    let addressed = m.declare_function("h", vec![Type::I64, Type::F64], Type::I64);
    let ret_ty = if sink == "ret" {
        Type::I64.ptr_to()
    } else {
        Type::Void
    };
    let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], ret_ty);
    let entry = b.entry_block();
    b.switch_to(entry);
    let pair = Type::Struct(Arc::new(vec![Type::I64, Type::F64]));
    let array = Type::I64.array_of(4);
    let src = match source {
        "alloca" => b.alloca(Type::I64),
        "gep-array" => {
            let a = b.alloca(array.clone());
            b.gep(array, a, vec![Value::const_i64(0), Value::const_i64(2)])
        }
        "gep-struct" => {
            let s = b.alloca(pair.clone());
            b.gep(pair, s, vec![Value::const_i64(0), i32_const(1)])
        }
        "gep-struct-out-of-range" => {
            let s = b.alloca(pair.clone());
            b.gep(pair, s, vec![Value::const_i64(0), i32_const(5)])
        }
        "load" => {
            let slot = b.alloca(Type::I64.ptr_to());
            b.load(Type::I64.ptr_to(), slot)
        }
        "argument" => b.arg(0),
        "global" => Value::Global(g),
        "null" => Value::Const(Constant::Null),
        "undef" => Value::Const(Constant::Undef),
        "function" => Value::Func(addressed),
        other => panic!("unknown source {other}"),
    };
    match sink {
        "load" => {
            b.load(Type::I64, src);
        }
        "store" => b.store(Type::I64, Value::const_i64(0), src),
        "gep" => {
            b.gep(Type::I64, src, vec![Value::const_i64(1)]);
        }
        "phi" => {
            let next = b.block("next");
            b.br(next);
            b.switch_to(next);
            b.phi(Type::I64.ptr_to(), vec![(entry, src)]);
        }
        "call" => {
            b.call(takes_ptr, vec![src], Type::Void);
        }
        "ret" => {
            b.ret(Some(src));
            return finish(m, b);
        }
        "condbr" => {
            let (t, e) = (b.block("t"), b.block("e"));
            b.cond_br(src, t, e);
            b.switch_to(t);
            b.ret(None);
            b.switch_to(e);
        }
        "switch" => {
            let (d, c) = (b.block("d"), b.block("c"));
            b.switch(src, d, vec![(1, c)]);
            b.switch_to(c);
            b.ret(None);
            b.switch_to(d);
        }
        other => panic!("unknown sink {other}"),
    }
    b.ret(None);
    finish(m, b)
}

fn finish(mut m: Module, b: FunctionBuilder) -> Module {
    m.add_function(b.finish());
    m
}

/// A module whose `@f` joins two predecessors with a broken phi.
fn phi_mutant(kind: &str) -> Module {
    let m = Module::new("mutant");
    let mut b = FunctionBuilder::new("f", vec![("c", Type::I1)], Type::I64);
    let entry = b.entry_block();
    let (left, right, join, dead) = (
        b.block("left"),
        b.block("right"),
        b.block("join"),
        b.block("dead"),
    );
    b.switch_to(entry);
    b.cond_br(b.arg(0), left, right);
    b.switch_to(left);
    b.br(join);
    b.switch_to(right);
    b.br(join);
    b.switch_to(dead);
    b.br(join);
    b.switch_to(join);
    let (one, two) = (Value::const_i64(1), Value::const_i64(2));
    let incomings = match kind {
        "phi-missing-predecessor" => vec![(left, one)],
        "phi-duplicate-incoming" => vec![(left, one), (right, two), (left, two)],
        "phi-extra-incoming" => vec![(left, one), (right, two), (entry, one)],
        "phi-unreachable-predecessor" => vec![(left, one), (right, two)],
        other => panic!("unknown phi mutant {other}"),
    };
    let v = b.phi(Type::I64, incomings);
    b.ret(Some(v));
    finish(m, b)
}

/// Every mutant's name and its verifier messages, one per line.
fn table() -> String {
    let mut out = String::new();
    let mutants = SOURCES
        .iter()
        .flat_map(|&src| {
            SINKS
                .iter()
                .map(move |&sink| (format!("{src} -> {sink}"), mutant(src, sink)))
        })
        .chain(
            PHIS.iter()
                .map(|&kind| (kind.to_string(), phi_mutant(kind))),
        );
    for (name, m) in mutants {
        match verify_module(&m) {
            Ok(()) => out.push_str(&format!("{name}: ok\n")),
            Err(e) => {
                for msg in e.errors {
                    out.push_str(&format!("{name}: {msg}\n"));
                }
            }
        }
    }
    out
}

#[test]
fn every_verifier_message_is_the_recorded_one() {
    let doc = table();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/ir/verifier_mutants.txt"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    if doc != golden {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/verifier_mutants.actual.txt");
        std::fs::write(actual, &doc).expect("writes the actual table");
        let line = doc
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("")))
            .find(|(a, g)| a != g)
            .map_or("<length differs>", |(a, _)| a);
        panic!("verifier messages diverge from {path} (actual written to {actual}); first difference: {line}");
    }
}
