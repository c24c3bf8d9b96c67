//! COOS: compiler-based timing — replace hardware timer interrupts with
//! compiler-injected calls to OS routines.
//!
//! "This compiler uses DFE and PRO to implement its specialized data flow
//! analyses. It also uses L, FR, and LB to handle potentially-infinite
//! loops. Finally, it uses CG to improve the accuracy of its time analyses."
//!
//! Callback sites: every function entry, plus every loop latch — the latch
//! placement is what bounds the callback gap even for endless loops. The
//! call-graph refinement skips latch injection when the loop body already
//! calls a function that is guaranteed to emit callbacks.

use noelle_core::noelle::{Abstraction, Noelle};
use noelle_ir::inst::{Callee, Inst};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::types::Type;
use std::collections::BTreeSet;

/// What COOS injected.
#[derive(Debug, Clone, Default)]
pub struct CoosReport {
    /// Callbacks injected at function entries.
    pub entry_sites: usize,
    /// Callbacks injected at loop latches.
    pub latch_sites: usize,
    /// Latches skipped because a callee already guarantees callbacks.
    pub covered_by_callee: usize,
}

/// Functions guaranteed to execute a callback on every invocation: their
/// entry block contains a `coos.callback` call (after this pass: every
/// defined function).
fn guaranteed_callback(m: &Module, fid: FuncId, treated: &BTreeSet<FuncId>) -> bool {
    treated.contains(&fid) && !m.func(fid).is_declaration()
}

/// Run COOS over the module.
pub fn run(noelle: &mut Noelle) -> CoosReport {
    for a in [
        Abstraction::Dfe,
        Abstraction::Pro,
        Abstraction::Cg,
        Abstraction::L,
        Abstraction::Fr,
        Abstraction::Lb,
        Abstraction::Ls,
    ] {
        noelle.note(a);
    }
    let mut report = CoosReport::default();
    let fids: Vec<FuncId> = noelle.module().func_ids().collect();
    let defined: BTreeSet<FuncId> = fids
        .iter()
        .copied()
        .filter(|&f| !noelle.module().func(f).is_declaration())
        .collect();

    for fid in fids {
        if noelle.module().func(fid).is_declaration() {
            continue;
        }
        let loops = noelle.loop_forest(fid);
        noelle.edit(|tx| {
            let m = tx.module_touching([fid]);
            let cb = m.get_or_declare("coos.callback", || (vec![], Type::Void));
            // Entry callback.
            {
                let f = m.func_mut(fid);
                let entry = f.entry();
                f.insert_inst(
                    entry,
                    0,
                    Inst::Call {
                        callee: Callee::Direct(cb),
                        args: vec![],
                        ret_ty: Type::Void,
                    },
                );
                report.entry_sites += 1;
            }
            // Latch callbacks (bounding gaps across iterations, including
            // endless loops).
            for l in loops.loops() {
                // CG refinement: a direct call inside the loop to a defined
                // function means that function's entry callback already fires
                // every iteration that executes the call — only skip when the
                // call is on every iteration path (its block dominates the
                // latch). Keep the analysis simple: require the call in a block
                // of the loop and a single-latch loop dominated by it.
                let f = m.func(fid);
                let covered = l.single_latch().is_some_and(|latch| {
                    let cfg = noelle_ir::cfg::Cfg::new(f);
                    let dt = noelle_ir::dom::DomTree::new(f, &cfg);
                    l.blocks.iter().any(|&b| {
                        dt.dominates(b, latch)
                            && f.block(b).insts.iter().any(|&i| {
                                matches!(
                                    f.inst(i),
                                    Inst::Call {
                                        callee: Callee::Direct(c),
                                        ..
                                    } if guaranteed_callback(m, *c, &defined)
                                )
                            })
                    })
                });
                if covered {
                    report.covered_by_callee += 1;
                    continue;
                }
                let f = m.func_mut(fid);
                for &latch in &l.latches {
                    let pos = f.block(latch).insts.len().saturating_sub(1);
                    f.insert_inst(
                        latch,
                        pos,
                        Inst::Call {
                            callee: Callee::Direct(cb),
                            args: vec![],
                            ret_ty: Type::Void,
                        },
                    );
                    report.latch_sites += 1;
                }
            }
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    const PROGRAM: &str = r#"
module "coosdemo" {
define i64 @work(i64 %x) {
entry:
  %y = mul i64 %x, %x
  ret %y
}
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 300
  condbr %c, body, exit
body:
  %w = call i64 @work(%i)
  %d1 = div i64 %w, i64 3
  %d2 = div i64 %d1, i64 2
  %s2 = add i64 %s, %d2
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;

    #[test]
    fn callbacks_bound_the_gap() {
        let m = parse_module(PROGRAM).unwrap();
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(before.counters.get("callbacks"), None);

        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.entry_sites, 2);
        // The loop calls @work (which now has an entry callback), and that
        // call dominates the latch: latch injection is skipped.
        assert_eq!(report.covered_by_callee, 1, "{report:?}");
        assert_eq!(report.latch_sites, 0);

        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2).expect("verifies");
        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(after.ret_i64(), before.ret_i64());
        let n = after.counters.get("callbacks").copied().unwrap_or(0);
        assert!(n >= 300, "expected a callback per iteration, got {n}");
        // Gap bound: no stretch of execution longer than ~one iteration's
        // cycles passes without a callback.
        let max_gap = after.counters.get("max_callback_gap").copied().unwrap_or(0);
        assert!(max_gap > 0 && max_gap < 400, "max gap = {max_gap}");
    }

    #[test]
    fn latch_injection_when_no_callee_covers() {
        let src = r#"
module "t" {
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [header: %i2]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 50
  condbr %c, header, exit
exit:
  ret %i2
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.latch_sites, 1, "{report:?}");
        let m2 = noelle.into_module();
        let r = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert!(r.counters.get("callbacks").copied().unwrap_or(0) >= 50);
    }
}
