//! The Reduction (RD) abstraction: identification of reducible variables of
//! a loop and support for parallelizing them by accumulator cloning
//! (`s += work(d)` becomes per-task partial sums combined after the join).

use noelle_ir::inst::{BinOp, Inst, InstId};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::Function;
use noelle_ir::types::Type;
use noelle_ir::value::{Constant, Value};
use noelle_pdg::sccdag::{SccDag, SccKind};

/// A reducible variable of a loop.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The accumulator phi in the loop header.
    pub phi: InstId,
    /// The commutative/associative operator.
    pub op: BinOp,
    /// The accumulator's type.
    pub ty: Type,
    /// The initial value flowing into the phi from outside the loop.
    pub initial: Value,
}

impl Reduction {
    /// The identity constant for this reduction at its type.
    pub fn identity(&self) -> Constant {
        identity_for(self.op, &self.ty)
    }
}

/// Identity element of `op` at type `ty`.
pub fn identity_for(op: BinOp, ty: &Type) -> Constant {
    use noelle_ir::types::{FloatWidth, IntWidth};
    match ty {
        Type::Float(w) => {
            let v = match op {
                BinOp::FAdd => 0.0,
                BinOp::FMul => 1.0,
                BinOp::FMax => f64::NEG_INFINITY,
                BinOp::FMin => f64::INFINITY,
                _ => 0.0,
            };
            match w {
                FloatWidth::F64 => Constant::f64(v),
                FloatWidth::F32 => Constant::f32(v as f32),
            }
        }
        Type::Int(w) => {
            let v = match op {
                BinOp::Add | BinOp::Or | BinOp::Xor => 0,
                BinOp::Mul => 1,
                BinOp::And => -1,
                BinOp::SMax => match w {
                    IntWidth::I64 => i64::MIN,
                    IntWidth::I32 => i32::MIN as i64,
                    IntWidth::I16 => i16::MIN as i64,
                    IntWidth::I8 => i8::MIN as i64,
                    IntWidth::I1 => 0,
                },
                BinOp::SMin => match w {
                    IntWidth::I64 => i64::MAX,
                    IntWidth::I32 => i32::MAX as i64,
                    IntWidth::I16 => i16::MAX as i64,
                    IntWidth::I8 => i8::MAX as i64,
                    IntWidth::I1 => 1,
                },
                _ => 0,
            };
            Constant::Int(v, *w)
        }
        _ => Constant::Int(0, IntWidth::I64),
    }
}

/// Identify the reducible variables of `l` from its aSCCDAG: every
/// [`SccKind::Reducible`] node yields one [`Reduction`].
pub fn reductions(f: &Function, l: &LoopInfo, dag: &SccDag) -> Vec<Reduction> {
    let mut out = Vec::new();
    for node in dag.nodes() {
        if node.kind != SccKind::Reducible {
            continue;
        }
        let (Some(phi), Some(op)) = (node.reduction_phi, node.reduction_op) else {
            continue;
        };
        let Inst::Phi { ty, incomings } = f.inst(phi) else {
            continue;
        };
        let initial = incomings
            .iter()
            .find(|(b, _)| !l.contains(*b))
            .map(|(_, v)| *v)
            .unwrap_or(Value::Const(identity_for(op, ty)));
        out.push(Reduction {
            phi,
            op,
            ty: ty.clone(),
            initial,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_analysis::alias::BasicAlias;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::cfg::Cfg;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::IcmpPred;
    use noelle_ir::loops::LoopForest;
    use noelle_ir::module::Module;
    use noelle_pdg::pdg::PdgBuilder;

    #[test]
    fn identities() {
        assert_eq!(
            identity_for(BinOp::Add, &Type::I64),
            Constant::Int(0, noelle_ir::types::IntWidth::I64)
        );
        assert_eq!(
            identity_for(BinOp::Mul, &Type::I32),
            Constant::Int(1, noelle_ir::types::IntWidth::I32)
        );
        assert_eq!(identity_for(BinOp::FAdd, &Type::F64), Constant::f64(0.0));
        assert_eq!(
            identity_for(BinOp::SMax, &Type::I64),
            Constant::Int(i64::MIN, noelle_ir::types::IntWidth::I64)
        );
        assert_eq!(
            identity_for(BinOp::FMin, &Type::F64),
            Constant::f64(f64::INFINITY)
        );
    }

    #[test]
    fn finds_max_reduction() {
        // for (i...) best = max(best, a[i])
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("a", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::I64,
        );
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let best = b.phi(Type::I64, vec![(entry, Value::const_i64(i64::MIN))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let best2 = b.binop(BinOp::SMax, Type::I64, best, v);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(best, body, best2);
        b.switch_to(exit);
        b.ret(Some(best));
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        let recs = noelle_analysis::scev::affine_recurrences(f, &l);
        let dag = SccDag::new(f, &l, &g, &recs);
        let rds = reductions(f, &l, &dag);
        assert_eq!(rds.len(), 1);
        assert_eq!(rds[0].op, BinOp::SMax);
        assert_eq!(rds[0].phi, best.as_inst().unwrap());
        assert_eq!(rds[0].initial, Value::const_i64(i64::MIN));
        assert_eq!(
            rds[0].identity(),
            Constant::Int(i64::MIN, noelle_ir::types::IntWidth::I64)
        );
    }
}
