//! Seeded inputs. The seed changes *which* input a run gets, never *how
//! much work* it is: run-to-run spread must measure the host, not the draw.

use crate::measure::SplitMix64;
use noelle_ir::builder::FunctionBuilder;
use noelle_ir::inst::BinOp;
use noelle_ir::module::{FuncId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;
use noelle_workloads::kernels;

/// Kernels per group caller, as in `noelle_workloads::scale_module`.
pub const GROUP: usize = 32;

/// The eight kernel shapes `scale_module` draws from, by index.
pub const SHAPES: usize = 8;

fn add_shape(m: &mut Module, name: &str, shape: usize) -> FuncId {
    match shape {
        0 => kernels::add_map(m, name, false),
        1 => kernels::add_sum(m, name, false),
        2 => kernels::add_bank_scratch(m, name, 16, 3),
        3 => kernels::add_stencil(m, name),
        4 => kernels::add_bank_scratch(m, name, 8, 4),
        5 => kernels::add_hist(m, name),
        6 => kernels::add_scratch(m, name),
        _ => kernels::add_bank_scratch(m, name, 12, 3),
    }
}

/// Defined functions in a module of `groups` groups: the kernels, one
/// caller per group, and `main`.
pub const fn funcs_in(groups: usize) -> usize {
    groups * (GROUP + 1) + 1
}

/// A compilation-scale module of `groups` groups of `GROUP` kernels:
/// `noelle_workloads::scale_module`'s shapes and call hierarchy (kernels
/// `k<i>` under `group<j>` callers under `main`), except that every group
/// holds each shape `GROUP / SHAPES` times, in an order shuffled by `seed`.
///
/// `scale_module` itself draws each kernel's shape independently, so two
/// seeds differ by several percent in instruction count (the shapes range
/// from 13 to 60+ instructions) — more than the bounds this benchmark
/// gates on. Dealing every group the same hand makes every seed the same
/// amount of work in a different order, for a whole-module pass and for an
/// edit whose repair reaches one kernel's group. Returns the module and
/// each kernel's shape.
pub fn bench_module(groups: usize, seed: u64) -> (Module, Vec<usize>) {
    let mut rng = SplitMix64(seed);
    let mut shapes = Vec::with_capacity(groups * GROUP);
    for _ in 0..groups {
        let mut hand: Vec<usize> = (0..GROUP).map(|i| i % SHAPES).collect();
        rng.shuffle(&mut hand);
        shapes.extend(hand);
    }

    let mut m = Module::new("scale");
    let fids: Vec<FuncId> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| add_shape(&mut m, &format!("k{i}"), s))
        .collect();
    let mut callers = Vec::with_capacity(groups);
    for (gi, chunk) in fids.chunks(GROUP).enumerate() {
        let mut b =
            FunctionBuilder::new(&format!("group{gi}"), kernels::kernel_params(), Type::I64);
        let e = b.entry_block();
        b.switch_to(e);
        let (a, bb, n) = (b.arg(0), b.arg(1), b.arg(2));
        let mut sum = Value::const_i64(0);
        for &fid in chunk {
            let r = b.call(fid, vec![a, bb, n], Type::I64);
            sum = b.binop(BinOp::Add, Type::I64, sum, r);
        }
        b.ret(Some(sum));
        callers.push(m.add_function(b.finish()));
    }
    kernels::add_main(&mut m, &callers, 64, 1, false);
    (m, shapes)
}

/// The 42 paper workloads (the 41-benchmark corpus plus `pdg_stress`) in a
/// seeded order.
pub fn suite(seed: u64) -> Vec<noelle_workloads::Workload> {
    let mut ws = noelle_workloads::all();
    ws.push(noelle_workloads::pdg_stress());
    SplitMix64(seed).shuffle(&mut ws);
    ws
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insts(m: &Module) -> usize {
        m.func_ids().map(|f| m.func(f).inst_ids().len()).sum()
    }

    #[test]
    fn every_seed_is_the_same_amount_of_work() {
        let (a, sa) = bench_module(4, 1);
        let (b, sb) = bench_module(4, 2);
        assert_ne!(sa, sb, "seeds order the shapes differently");
        let defined = |m: &Module| m.functions().iter().filter(|f| !f.is_declaration()).count();
        assert_eq!(defined(&a), funcs_in(4));
        assert_eq!(defined(&b), funcs_in(4));
        assert_eq!(insts(&a), insts(&b));
        for hand in sa.chunks(GROUP).chain(sb.chunks(GROUP)) {
            for shape in 0..SHAPES {
                let held = hand.iter().filter(|&&s| s == shape).count();
                assert_eq!(held, GROUP / SHAPES, "every group holds the same hand");
            }
        }
        let (a2, _) = bench_module(4, 1);
        assert_eq!(
            noelle_ir::printer::print_module(&a),
            noelle_ir::printer::print_module(&a2),
            "same seed, same module"
        );
    }

    #[test]
    fn suite_is_the_42_workloads_in_seeded_order() {
        let a: Vec<_> = suite(1).iter().map(|w| w.name).collect();
        let b: Vec<_> = suite(2).iter().map(|w| w.name).collect();
        assert_eq!(a.len(), 42);
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }
}
