//! CARAT: compiler- and runtime-based address translation — inject guards
//! before memory instructions whose validity cannot be proven at compile
//! time, then optimize the guards away where possible.
//!
//! "CARAT relies on the PDG, the aSCCDAG, and INV to identify the memory
//! instructions that need guarding. Then, it uses DFE and PRO to avoid
//! redundant guards of the same memory location. CARAT also uses L, LB, and
//! IV to merge guards. Finally, SCD is used to place the guards in the
//! code."

use noelle_analysis::alias::{underlying_objects, MemoryObject};
use noelle_core::loop_builder::ensure_preheader;
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::inst::{Callee, CastOp, Inst, InstId};
use noelle_ir::loops::LoopForest;
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::Value;

/// What CARAT did.
#[derive(Debug, Clone, Default)]
pub struct CaratReport {
    /// Guards inserted at access sites.
    pub guarded: usize,
    /// Accesses proven valid statically (no guard needed).
    pub proven: usize,
    /// Guards skipped because a dominating guard covers the same pointer.
    pub redundant: usize,
    /// Guards hoisted to loop pre-headers (loop-invariant pointers).
    pub hoisted: usize,
}

/// Is the access through `ptr` provably in-bounds at compile time? True for
/// direct whole-object addresses of known allocations and constant-index
/// geps that stay inside the object.
fn statically_valid(m: &Module, fid: FuncId, ptr: Value) -> bool {
    let f = m.func(fid);
    // Whole-object addresses.
    let objs = underlying_objects(m, fid, ptr);
    let all_known = !objs.is_empty()
        && objs
            .iter()
            .all(|o| matches!(o, MemoryObject::Alloca(_, _) | MemoryObject::Global(_)));
    if !all_known {
        return false;
    }
    match ptr {
        Value::Global(_) => true,
        Value::Inst(id) => match f.inst(id) {
            Inst::Alloca { .. } => true,
            Inst::Gep {
                base,
                base_ty,
                indices,
            } => {
                // Constant indices within the base object's constant bounds.
                let within = indices.iter().skip(1).all(|i| i.is_const());
                let first_const = match indices.first() {
                    Some(Value::Const(noelle_ir::value::Constant::Int(v, _))) => Some(*v),
                    _ => None,
                };
                let Some(first) = first_const else {
                    return false;
                };
                if !within {
                    return false;
                }
                // The base must be a whole known object of a size that
                // covers the constant offset.
                match base {
                    Value::Global(g) => {
                        let size = m.global(*g).ty.size_bytes() as i64;
                        first * base_ty.size_bytes() as i64 >= 0
                            && (first + 1) * base_ty.size_bytes() as i64 <= size
                    }
                    Value::Inst(b) => match f.inst(*b) {
                        Inst::Alloca { ty, count } => {
                            let n = match count {
                                Value::Const(noelle_ir::value::Constant::Int(v, _)) => *v,
                                _ => return false,
                            };
                            let size = ty.size_bytes() as i64 * n;
                            first * base_ty.size_bytes() as i64 >= 0
                                && (first + 1) * base_ty.size_bytes() as i64 <= size
                        }
                        _ => false,
                    },
                    _ => false,
                }
            }
            _ => false,
        },
        _ => false,
    }
}

/// Run CARAT over the module.
pub fn run(noelle: &mut Noelle) -> CaratReport {
    for a in [
        Abstraction::Pdg,
        Abstraction::ASccDag,
        Abstraction::Inv,
        Abstraction::Dfe,
        Abstraction::Pro,
        Abstraction::L,
        Abstraction::Lb,
        Abstraction::Iv,
        Abstraction::Scd,
        Abstraction::Ls,
    ] {
        noelle.note(a);
    }
    let mut report = CaratReport::default();
    let fids: Vec<FuncId> = noelle.module().func_ids().collect();
    for fid in fids {
        if noelle.module().func(fid).is_declaration() {
            continue;
        }
        // Loop invariance info for hoisting decisions (header -> set).
        let loops = noelle.loop_forest(fid);
        let mut invariants = Vec::with_capacity(loops.len());
        for l in loops.loops() {
            let la = noelle.loop_abstraction(fid, l.id);
            invariants.push((l, la.invariants));
        }
        noelle.edit(|tx| guard_function(tx.module_touching([fid]), fid, &invariants, &mut report));
    }
    report
}

fn guard_function(
    m: &mut Module,
    fid: FuncId,
    loop_invariants: &[(
        &noelle_ir::loops::LoopInfo,
        noelle_core::invariants::InvariantSet,
    )],
    report: &mut CaratReport,
) {
    let guard_fn = m.get_or_declare("carat.guard", || (vec![Type::I64, Type::I64], Type::Void));

    // Gather access sites first (mutation invalidates positions).
    let f = m.func(fid);
    let accesses: Vec<(InstId, Value, u64)> = f
        .inst_ids()
        .into_iter()
        .filter_map(|id| match f.inst(id) {
            Inst::Load { ptr, ty } => Some((id, *ptr, ty.size_bytes())),
            Inst::Store { ptr, ty, .. } => Some((id, *ptr, ty.size_bytes())),
            _ => None,
        })
        .collect();

    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let forest = LoopForest::new(f, &cfg, &dt);

    // Guards already emitted for a pointer value: (ptr, block, position).
    let mut placed: Vec<(Value, BlockId, usize)> = Vec::new();
    // Process in dominance-friendly layout order.
    for (id, ptr, size) in accesses {
        if statically_valid(m, fid, ptr) {
            report.proven += 1;
            continue;
        }
        let f = m.func(fid);
        let b = f.parent_block(id);
        let pos = f.position_in_block(id).unwrap_or(0);
        // Redundancy: an earlier guard on the same pointer that dominates
        // this access covers it (same address, still mapped).
        let dominated = placed.iter().any(|&(gp, gb, gpos)| {
            gp == ptr && (dt.strictly_dominates(gb, b) || (gb == b && gpos <= pos))
        });
        if dominated {
            report.redundant += 1;
            continue;
        }
        // Merge: loop-invariant pointer in a loop -> guard once in the
        // pre-header instead of every iteration.
        let hoist_target = forest
            .innermost_containing(b)
            .map(|lid| forest.loop_info(lid))
            .and_then(|li| {
                let inv = loop_invariants
                    .iter()
                    .find(|(l, _)| l.header == li.header)
                    .map(|(_, inv)| inv)?;
                inv.is_invariant_value(m.func(fid), li, ptr)
                    .then(|| li.clone())
            });
        let (gb, gpos) = match hoist_target {
            Some(li) => {
                let pre = ensure_preheader(m.func_mut(fid), &li).unwrap_or(b);
                if pre != b {
                    report.hoisted += 1;
                }
                let f = m.func(fid);
                let end = f.block(pre).insts.len().saturating_sub(1);
                (pre, end)
            }
            None => (b, pos),
        };
        // Emit: addr = ptrtoint ptr; call carat.guard(addr, size).
        let pty = m.func(fid).value_type(m, ptr);
        let f = m.func_mut(fid);
        let addr = f.insert_inst(
            gb,
            gpos,
            Inst::Cast {
                op: CastOp::PtrToInt,
                from: pty,
                to: Type::I64,
                val: ptr,
            },
        );
        f.insert_inst(
            gb,
            gpos + 1,
            Inst::Call {
                callee: Callee::Direct(guard_fn),
                args: vec![Value::Inst(addr), Value::const_i64(size as i64)],
                ret_ty: Type::Void,
            },
        );
        placed.push((ptr, gb, gpos));
        report.guarded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    const PROGRAM: &str = r#"
module "caratdemo" {
declare i64* @malloc(i64 %n)
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 800)
  %cell = alloca i64, i64 1
  store i64 i64 0, %cell
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, i64 100
  condbr %c, body, exit
body:
  %p = gep i64, %buf, %i
  store i64 %i, %p
  %v = load i64, %cell
  %v2 = add i64 %v, %i
  store i64 %v2, %cell
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %cell
  ret %r
}
}
"#;

    #[test]
    fn guards_dynamic_accesses_and_proves_static_ones() {
        let m = parse_module(PROGRAM).unwrap();
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        // The heap access p=buf+i needs a guard; the alloca cell accesses
        // are statically valid.
        assert!(report.guarded >= 1, "{report:?}");
        assert!(report.proven >= 3, "{report:?}");
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("verifies after CARAT: {e}"));
        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(after.ret_i64(), before.ret_i64());
        assert!(after.counters.get("guards").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn invariant_pointer_guard_hoisted_out_of_loop() {
        let src = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 8)
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 1000
  condbr %c, body, exit
body:
  %v = load i64, %buf
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.hoisted, 1, "{report:?}");
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2).expect("verifies");
        let r = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        // Hoisted guard executes once, not 1000 times.
        assert_eq!(r.counters.get("guards"), Some(&1));
    }

    #[test]
    fn dominating_guard_makes_later_one_redundant() {
        let src = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 8)
  store i64 i64 5, %buf
  %v = load i64, %buf
  ret %v
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.guarded, 1, "{report:?}");
        assert_eq!(report.redundant, 1, "{report:?}");
    }
}
