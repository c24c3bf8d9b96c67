//! Time-Squeezer: optimize compare instructions for timing-speculative
//! micro-architectures.
//!
//! "The compiler needs to decide when to swap the compare operands (and
//! modify its uses), how to change the schedule of instructions, and where
//! to inject instructions that modify the clock period of the underlying
//! architecture. This custom tool uses DFE, L, and FR to decide where to
//! inject clock-changing instructions. It then uses SCD to optimize the
//! instruction sequence [...]. Finally, it uses ISL and PDG to analyze the
//! compare instructions and their dependences."
//!
//! Model: the simulated timing-speculative core can run with a shorter clock
//! period when every compare in a region is in *canonical* form (variable on
//! the left, constant on the right — the comparator's critical path is
//! shortest then). The tool canonicalizes compares by swapping operands and
//! predicates, analyzes the compare-dependence islands, and injects
//! `clock.set(92)` at the entry of fully-canonical functions.

use noelle_core::noelle::{Abstraction, Noelle};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::FuncId;
use noelle_ir::types::Type;
use noelle_ir::value::Value;
use noelle_pdg::islands::islands_of;

/// What Time-Squeezer did.
#[derive(Debug, Clone, Default)]
pub struct TimeReport {
    /// Compares whose operands were swapped into canonical form.
    pub swapped: usize,
    /// Compares already canonical.
    pub already_canonical: usize,
    /// Functions whose compares are all canonical and that received a
    /// `clock.set` injection.
    pub clocked_functions: usize,
    /// Compare-dependence islands analyzed.
    pub islands: usize,
}

/// Run Time-Squeezer.
pub fn run(noelle: &mut Noelle) -> TimeReport {
    for a in [
        Abstraction::Dfe,
        Abstraction::L,
        Abstraction::Fr,
        Abstraction::Scd,
        Abstraction::Isl,
        Abstraction::Pdg,
        Abstraction::Lb,
        Abstraction::Ls,
    ] {
        noelle.note(a);
    }
    let mut report = TimeReport::default();
    // One cheap handle to the cached whole-program PDG: the compare swaps
    // below don't change dependences, and the Arc stays valid across the
    // module mutations even though the manager invalidates its own cache.
    let pdg = noelle.pdg();
    let fids: Vec<FuncId> = noelle.module().func_ids().collect();
    for fid in fids {
        if noelle.module().func(fid).is_declaration() {
            continue;
        }
        // Analyze compare islands through the PDG (compares connected by
        // shared data dependences form one island and must agree on the
        // clock period).
        let f = noelle.module().func(fid);
        let compares: Vec<InstId> = f
            .inst_ids()
            .into_iter()
            .filter(|&i| matches!(f.inst(i), Inst::Icmp { .. }))
            .collect();
        let mut edges = Vec::new();
        if let Some(g) = pdg.per_function.get(&fid) {
            for &a in &compares {
                for &bb in &compares {
                    if a < bb {
                        let linked = g
                            .dependences_of(a)
                            .intersection(&g.dependences_of(bb))
                            .next()
                            .is_some();
                        if linked {
                            edges.push((a, bb));
                        }
                    }
                }
            }
        }
        report.islands += islands_of(&compares, &edges).len();

        noelle.edit(|tx| {
            let m = tx.module_touching([fid]);
            let mut function_swapped = 0usize;
            for id in compares {
                let f = m.func_mut(fid);
                if let Inst::Icmp { pred, lhs, rhs, .. } = f.inst(id).clone() {
                    let lhs_const = lhs.is_const();
                    let rhs_const = rhs.is_const();
                    match (lhs_const, rhs_const) {
                        (true, false) => {
                            // Swap into canonical var-vs-const form.
                            if let Inst::Icmp {
                                pred: p,
                                lhs: l,
                                rhs: r,
                                ..
                            } = f.inst_mut(id)
                            {
                                *p = pred.swapped();
                                std::mem::swap(l, r);
                            }
                            f.set_inst_metadata(id, "time.optimized", "1");
                            function_swapped += 1;
                            report.swapped += 1;
                        }
                        _ => {
                            f.set_inst_metadata(id, "time.optimized", "1");
                            report.already_canonical += 1;
                        }
                    }
                }
            }
            // After canonicalization every compare is canonical, so any
            // compare-bearing function can run with a tightened clock.
            if function_swapped > 0 || has_compares(m, fid) {
                // Every compare in the function is canonical now: the region can
                // run with a tightened clock.
                let clock = m.get_or_declare("clock.set", || (vec![Type::I64], Type::Void));
                let f = m.func_mut(fid);
                let entry = f.entry();
                f.insert_inst(
                    entry,
                    0,
                    Inst::Call {
                        callee: Callee::Direct(clock),
                        args: vec![Value::const_i64(92)],
                        ret_ty: Type::Void,
                    },
                );
                report.clocked_functions += 1;
            }
        });
    }
    report
}

fn has_compares(m: &noelle_ir::Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    f.inst_ids()
        .into_iter()
        .any(|i| matches!(f.inst(i), Inst::Icmp { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::inst::IcmpPred;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    const PROGRAM: &str = r#"
module "timedemo" {
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp sgt i64 i64 400, %i
  condbr %c, body, exit
body:
  %big = icmp slt i64 i64 100, %i
  %bump = select i64 %big, i64 3, i64 1
  %s2 = add i64 %s, %bump
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;

    #[test]
    fn swaps_const_lhs_compares_and_tightens_clock() {
        let m = parse_module(PROGRAM).unwrap();
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.swapped, 2, "{report:?}");
        assert_eq!(report.clocked_functions, 1);
        assert!(report.islands >= 1);

        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2).expect("verifies");
        // Compare orientation preserved the predicate semantics.
        let f = m2.func_by_name("main").unwrap();
        let swapped: Vec<_> = f
            .inst_ids()
            .into_iter()
            .filter_map(|i| match f.inst(i) {
                Inst::Icmp { pred, rhs, .. } if rhs.is_const() => Some(*pred),
                _ => None,
            })
            .collect();
        assert!(swapped.contains(&IcmpPred::Slt)); // 400 > i became i < 400
        assert!(swapped.contains(&IcmpPred::Sgt)); // 100 < i became i > 100

        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(after.ret_i64(), before.ret_i64(), "semantics preserved");
        assert!(
            after.cycles < before.cycles,
            "tightened clock must save cycles: {} -> {}",
            before.cycles,
            after.cycles
        );
        assert_eq!(after.counters.get("clock_sets"), Some(&1));
    }

    #[test]
    fn canonical_program_only_gets_clock() {
        let src = r#"
module "t" {
define i64 @main() {
entry:
  %c = icmp slt i64 i64 1, i64 2
  %r = select i64 %c, i64 1, i64 0
  ret %r
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.swapped, 0);
        assert_eq!(report.clocked_functions, 1);
    }
}
