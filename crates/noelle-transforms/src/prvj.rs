//! PRVJeeves: select the pseudo-random value generators of a program.
//!
//! "It uses the PDG, CG, and DFE to identify the allocations and uses of the
//! PRVGs. Then, PRVJeeves uses PRO to prune the design space (e.g., PRVGs
//! not used frequently are left unmodified)."
//!
//! Model: programs draw from generator *families* (`prv.mt.next` —
//! Mersenne-Twister-class, slow/high-quality default; `prv.lcg.next`;
//! `prv.xs.next` — xorshift, fastest). All families produce the identical
//! deterministic stream in the simulator, so swapping is semantics
//! preserving; the win is cost (40 vs 8 vs 5 cycles per draw). PRVJeeves
//! retargets the *hot* generators (per PRO) to the fast family, leaving
//! cold ones on the conservative default, and uses the PDG/CG to retarget
//! every use of a generator consistently.

use noelle_core::noelle::{Abstraction, Noelle};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::FuncId;
use noelle_ir::types::Type;
use noelle_ir::value::{Constant, Value};
use std::collections::BTreeSet;

/// What PRVJeeves did.
#[derive(Debug, Clone, Default)]
pub struct PrvjReport {
    /// Call sites retargeted to the fast family.
    pub replaced: usize,
    /// Call sites left on the conservative default.
    pub kept: usize,
    /// Distinct generator ids retargeted.
    pub generators: usize,
}

/// Minimum executions of a call site's block for its generator to be
/// considered hot. When no profiles are embedded, every generator is
/// retargeted.
const HOT_THRESHOLD: u64 = 100;

/// Run PRVJeeves.
pub fn run(noelle: &mut Noelle) -> PrvjReport {
    for a in [
        Abstraction::Pdg,
        Abstraction::Cg,
        Abstraction::Dfe,
        Abstraction::Pro,
        Abstraction::L,
        Abstraction::Lb,
        Abstraction::Inv,
        Abstraction::Iv,
        Abstraction::Scd,
        Abstraction::Ls,
    ] {
        noelle.note(a);
    }
    let mut report = PrvjReport::default();
    let profiles = noelle.profiles();
    let have_profiles = !profiles.block_counts.is_empty();

    // 1. Find every draw site of the conservative family and its generator
    //    id (the first argument; constant ids identify distinct PRVGs).
    let m = noelle.module();
    let Some(mt) = m.func_id_by_name("prv.mt.next") else {
        return report; // program draws no random values
    };
    let mut sites: Vec<(FuncId, InstId, Option<i64>, u64)> = Vec::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        for id in f.inst_ids() {
            if let Inst::Call {
                callee: Callee::Direct(c),
                args,
                ..
            } = f.inst(id)
            {
                if *c == mt {
                    let gen_id = match args.first() {
                        Some(Value::Const(Constant::Int(v, _))) => Some(*v),
                        _ => None,
                    };
                    let count = profiles.block_count(&f.name, f.parent_block(id));
                    sites.push((fid, id, gen_id, count));
                }
            }
        }
    }

    // 2. A generator is hot if any of its draw sites is hot. Retarget all
    //    sites of a hot generator together (consistency across uses).
    let hot_gens: BTreeSet<Option<i64>> = sites
        .iter()
        .filter(|(_, _, _, count)| !have_profiles || *count >= HOT_THRESHOLD)
        .map(|(_, _, g, _)| *g)
        .collect();

    let site_fids: Vec<FuncId> = sites.iter().map(|(fid, ..)| *fid).collect();
    let mut touched_gens: BTreeSet<Option<i64>> = BTreeSet::new();
    noelle.edit(|tx| {
        let m = tx.module_touching(site_fids);
        let fast = m.get_or_declare("prv.xs.next", || (vec![Type::I64], Type::I64));
        for (fid, id, gen_id, _) in sites {
            if hot_gens.contains(&gen_id) {
                if let Inst::Call { callee, .. } = m.func_mut(fid).inst_mut(id) {
                    *callee = Callee::Direct(fast);
                }
                report.replaced += 1;
                touched_gens.insert(gen_id);
            } else {
                report.kept += 1;
            }
        }
    });
    report.generators = touched_gens.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    const PROGRAM: &str = r#"
module "prvjdemo" {
declare i64 @prv.mt.next(i64 %gen)
define i64 @main() {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 500
  condbr %c, body, exit
body:
  %r = call i64 @prv.mt.next(i64 0)
  %masked = and i64 %r, i64 255
  %s2 = add i64 %s, %masked
  %i2 = add i64 %i, i64 1
  br header
exit:
  %cold = call i64 @prv.mt.next(i64 1)
  %coldm = and i64 %cold, i64 7
  %out = add i64 %s, %coldm
  ret %out
}
}
"#;

    fn profiled(src: &str) -> noelle_ir::Module {
        let mut m = parse_module(src).unwrap();
        let cfg = RunConfig {
            collect_profiles: true,
            ..RunConfig::default()
        };
        let r = run_module(&m, "main", &[], &cfg).unwrap();
        r.profiles.embed(&mut m);
        m
    }

    #[test]
    fn hot_generator_swapped_cold_kept_output_identical() {
        let m = profiled(PROGRAM);
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.replaced, 1, "{report:?}");
        assert_eq!(report.kept, 1, "{report:?}");
        assert_eq!(report.generators, 1);
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2).expect("verifies");
        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        // Identical stream -> identical result; fewer cycles.
        assert_eq!(after.ret_i64(), before.ret_i64());
        assert!(
            after.cycles < before.cycles,
            "PRVG swap must save cycles: {} -> {}",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn without_profiles_everything_is_retargeted() {
        let m = parse_module(PROGRAM).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.replaced, 2);
        assert_eq!(report.kept, 0);
    }

    #[test]
    fn programs_without_prvgs_untouched() {
        let src = r#"
module "t" {
define i64 @main() {
entry:
  ret i64 7
}
}
"#;
        let m = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.replaced + report.kept, 0);
    }
}
