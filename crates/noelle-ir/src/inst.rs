//! Instructions: the nodes of the IR and, later, of the PDG.

use crate::module::{BlockId, FuncId};
use crate::types::{Type, TypeView};
use crate::value::Value;
use std::fmt;

/// Function-local identifier of an instruction (index into the function's
/// instruction arena).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// Arena index of this instruction.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Integer and floating-point binary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Signed integer division.
    Div,
    /// Signed integer remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic (sign-preserving) shift right.
    AShr,
    /// Logical shift right.
    LShr,
    /// Signed maximum.
    SMax,
    /// Signed minimum.
    SMin,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
    /// Floating-point maximum.
    FMax,
    /// Floating-point minimum.
    FMin,
}

impl BinOp {
    /// True for the floating-point operations.
    pub fn is_float_op(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMax | BinOp::FMin
        )
    }

    /// True if the operation is commutative and associative, i.e. usable as a
    /// reduction operator by the RD abstraction (the paper treats FP
    /// reductions as reducible, accepting reassociation).
    pub fn is_reduction_op(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::SMax
                | BinOp::SMin
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::FMax
                | BinOp::FMin
        )
    }

    /// The identity element of a reduction operator, if it has one.
    pub fn reduction_identity(self) -> Option<crate::value::Constant> {
        use crate::value::Constant;
        match self {
            BinOp::Add => Some(Constant::Int(0, crate::types::IntWidth::I64)),
            BinOp::Mul => Some(Constant::Int(1, crate::types::IntWidth::I64)),
            BinOp::And => Some(Constant::Int(-1, crate::types::IntWidth::I64)),
            BinOp::Or | BinOp::Xor => Some(Constant::Int(0, crate::types::IntWidth::I64)),
            BinOp::SMax => Some(Constant::Int(i64::MIN, crate::types::IntWidth::I64)),
            BinOp::SMin => Some(Constant::Int(i64::MAX, crate::types::IntWidth::I64)),
            BinOp::FAdd => Some(Constant::f64(0.0)),
            BinOp::FMul => Some(Constant::f64(1.0)),
            BinOp::FMax => Some(Constant::f64(f64::NEG_INFINITY)),
            BinOp::FMin => Some(Constant::f64(f64::INFINITY)),
            _ => None,
        }
    }

    /// Textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::LShr => "lshr",
            BinOp::SMax => "smax",
            BinOp::SMin => "smin",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FMax => "fmax",
            BinOp::FMin => "fmin",
        }
    }

    /// The operation whose [`BinOp::mnemonic`] is `word`.
    pub fn from_mnemonic(word: &str) -> Option<BinOp> {
        Some(match word {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "ashr" => BinOp::AShr,
            "lshr" => BinOp::LShr,
            "smax" => BinOp::SMax,
            "smin" => BinOp::SMin,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            "fmax" => BinOp::FMax,
            "fmin" => BinOp::FMin,
            _ => return None,
        })
    }

    /// All binary operations.
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::AShr,
            BinOp::LShr,
            BinOp::SMax,
            BinOp::SMin,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
            BinOp::FMax,
            BinOp::FMin,
        ]
    }
}

/// Integer comparison predicates (signed and unsigned).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum IcmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl IcmpPred {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
        }
    }

    /// The predicate whose [`IcmpPred::mnemonic`] is `word`.
    pub fn from_mnemonic(word: &str) -> Option<IcmpPred> {
        Some(match word {
            "eq" => IcmpPred::Eq,
            "ne" => IcmpPred::Ne,
            "slt" => IcmpPred::Slt,
            "sle" => IcmpPred::Sle,
            "sgt" => IcmpPred::Sgt,
            "sge" => IcmpPred::Sge,
            "ult" => IcmpPred::Ult,
            "ule" => IcmpPred::Ule,
            "ugt" => IcmpPred::Ugt,
            "uge" => IcmpPred::Uge,
            _ => return None,
        })
    }

    /// The predicate with operands swapped (`a < b` becomes `b > a`).
    ///
    /// Used by the Time-Squeezer custom tool, which rewrites compare
    /// instructions for timing-speculative micro-architectures.
    pub fn swapped(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Eq,
            IcmpPred::Ne => IcmpPred::Ne,
            IcmpPred::Slt => IcmpPred::Sgt,
            IcmpPred::Sle => IcmpPred::Sge,
            IcmpPred::Sgt => IcmpPred::Slt,
            IcmpPred::Sge => IcmpPred::Sle,
            IcmpPred::Ult => IcmpPred::Ugt,
            IcmpPred::Ule => IcmpPred::Uge,
            IcmpPred::Ugt => IcmpPred::Ult,
            IcmpPred::Uge => IcmpPred::Ule,
        }
    }
}

/// Ordered floating-point comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum FcmpPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FcmpPred {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FcmpPred::Oeq => "oeq",
            FcmpPred::One => "one",
            FcmpPred::Olt => "olt",
            FcmpPred::Ole => "ole",
            FcmpPred::Ogt => "ogt",
            FcmpPred::Oge => "oge",
        }
    }

    /// The predicate whose [`FcmpPred::mnemonic`] is `word`.
    pub fn from_mnemonic(word: &str) -> Option<FcmpPred> {
        Some(match word {
            "oeq" => FcmpPred::Oeq,
            "one" => FcmpPred::One,
            "olt" => FcmpPred::Olt,
            "ole" => FcmpPred::Ole,
            "ogt" => FcmpPred::Ogt,
            "oge" => FcmpPred::Oge,
            _ => return None,
        })
    }
}

/// Conversion operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum CastOp {
    Zext,
    Sext,
    Trunc,
    Bitcast,
    PtrToInt,
    IntToPtr,
    SiToFp,
    FpToSi,
    FpExt,
    FpTrunc,
}

impl CastOp {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::Trunc => "trunc",
            CastOp::Bitcast => "bitcast",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
            CastOp::SiToFp => "sitofp",
            CastOp::FpToSi => "fptosi",
            CastOp::FpExt => "fpext",
            CastOp::FpTrunc => "fptrunc",
        }
    }

    /// The operation whose [`CastOp::mnemonic`] is `word`.
    pub fn from_mnemonic(word: &str) -> Option<CastOp> {
        Some(match word {
            "zext" => CastOp::Zext,
            "sext" => CastOp::Sext,
            "trunc" => CastOp::Trunc,
            "bitcast" => CastOp::Bitcast,
            "ptrtoint" => CastOp::PtrToInt,
            "inttoptr" => CastOp::IntToPtr,
            "sitofp" => CastOp::SiToFp,
            "fptosi" => CastOp::FpToSi,
            "fpext" => CastOp::FpExt,
            "fptrunc" => CastOp::FpTrunc,
            _ => return None,
        })
    }
}

/// The target of a call.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    /// Call to a known function.
    Direct(FuncId),
    /// Call through a function-pointer value. The complete call graph (CG
    /// abstraction) resolves the possible callees of these using the PDG.
    Indirect(Value),
}

/// Block terminators.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Return from the function, with an optional value.
    Ret(Option<Value>),
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on an `i1` value.
    CondBr {
        /// Branch condition.
        cond: Value,
        /// Successor when the condition is true.
        then_bb: BlockId,
        /// Successor when the condition is false.
        else_bb: BlockId,
    },
    /// Multi-way branch on an integer value.
    Switch {
        /// Scrutinee.
        value: Value,
        /// Successor when no case matches.
        default: BlockId,
        /// `(case constant, successor)` pairs.
        cases: Vec<(i64, BlockId)>,
    },
    /// Control never reaches here.
    Unreachable,
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_successor(|b| out.push(b));
        out
    }

    /// Visit every successor block in order, without materializing a `Vec`.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Ret(_) | Terminator::Unreachable => {}
            Terminator::Br(b) => f(*b),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Terminator::Switch { default, cases, .. } => {
                f(*default);
                for (_, b) in cases {
                    f(*b);
                }
            }
        }
    }

    /// Replace every successor equal to `from` with `to`.
    pub fn replace_successor(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Ret(_) | Terminator::Unreachable => {}
            Terminator::Br(b) => {
                if *b == from {
                    *b = to;
                }
            }
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                if *then_bb == from {
                    *then_bb = to;
                }
                if *else_bb == from {
                    *else_bb = to;
                }
            }
            Terminator::Switch { default, cases, .. } => {
                if *default == from {
                    *default = to;
                }
                for (_, b) in cases {
                    if *b == from {
                        *b = to;
                    }
                }
            }
        }
    }
}

/// An instruction.
///
/// Terminators are instructions too (as in LLVM): they appear as the final
/// instruction of each block and participate in the PDG as sources of control
/// dependences.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// Stack allocation of `count` elements of `ty`; yields `ty*`.
    Alloca {
        /// Element type allocated.
        ty: Type,
        /// Number of elements (usually constant 1).
        count: Value,
    },
    /// Load a scalar of type `ty` from `ptr`.
    Load {
        /// Loaded type.
        ty: Type,
        /// Address operand (type `ty*`).
        ptr: Value,
    },
    /// Store scalar `val` of type `ty` to `ptr`.
    Store {
        /// Stored value.
        val: Value,
        /// Address operand (type `ty*`).
        ptr: Value,
        /// Stored type.
        ty: Type,
    },
    /// Address arithmetic, LLVM `getelementptr` style: the first index scales
    /// by `size_of(base_ty)`, later indices step into arrays/structs.
    Gep {
        /// Base address (type `base_ty*`).
        base: Value,
        /// Pointee type of the base address.
        base_ty: Type,
        /// Indices; struct indices must be integer constants.
        indices: Vec<Value>,
    },
    /// Binary arithmetic/logic.
    Bin {
        /// Operation.
        op: BinOp,
        /// Operand (and result) type.
        ty: Type,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Integer comparison; yields `i1`.
    Icmp {
        /// Predicate.
        pred: IcmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Floating-point comparison; yields `i1`.
    Fcmp {
        /// Predicate.
        pred: FcmpPred,
        /// Operand type.
        ty: Type,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Type conversion.
    Cast {
        /// Conversion operation.
        op: CastOp,
        /// Source type.
        from: Type,
        /// Destination type.
        to: Type,
        /// Converted value.
        val: Value,
    },
    /// Ternary select on an `i1` condition.
    Select {
        /// Result type.
        ty: Type,
        /// Condition.
        cond: Value,
        /// Value when true.
        tval: Value,
        /// Value when false.
        fval: Value,
    },
    /// SSA phi node.
    Phi {
        /// Result type.
        ty: Type,
        /// `(predecessor block, incoming value)` pairs.
        incomings: Vec<(BlockId, Value)>,
    },
    /// Function call.
    Call {
        /// Called function or function pointer.
        callee: Callee,
        /// Actual arguments.
        args: Vec<Value>,
        /// Return type.
        ret_ty: Type,
    },
    /// Block terminator.
    Term(Terminator),
}

impl Inst {
    /// The type of the value this instruction produces (`Void` if none).
    pub fn result_type(&self) -> Type {
        self.result_view().to_type()
    }

    /// [`Inst::result_type`], borrowed from the instruction's own types.
    pub(crate) fn result_view(&self) -> TypeView<'_> {
        match self {
            Inst::Alloca { ty, .. } => TypeView::PtrTo(ty),
            Inst::Gep {
                base_ty, indices, ..
            } => TypeView::PtrTo(gep_pointee(base_ty, indices)),
            Inst::Load { ty, .. }
            | Inst::Bin { ty, .. }
            | Inst::Select { ty, .. }
            | Inst::Phi { ty, .. }
            | Inst::Cast { to: ty, .. }
            | Inst::Call { ret_ty: ty, .. } => TypeView::Is(ty),
            Inst::Icmp { .. } | Inst::Fcmp { .. } => TypeView::Is(&Type::I1),
            Inst::Store { .. } | Inst::Term(_) => TypeView::Is(&Type::Void),
        }
    }

    /// True when the instruction produces a value, i.e. its
    /// [`Inst::result_type`] is not `void`; only such an instruction has a
    /// name in the text.
    pub fn has_result(&self) -> bool {
        match self {
            Inst::Store { .. } | Inst::Term(_) => false,
            Inst::Alloca { .. } | Inst::Gep { .. } | Inst::Icmp { .. } | Inst::Fcmp { .. } => true,
            Inst::Load { ty, .. }
            | Inst::Bin { ty, .. }
            | Inst::Select { ty, .. }
            | Inst::Phi { ty, .. }
            | Inst::Cast { to: ty, .. }
            | Inst::Call { ret_ty: ty, .. } => *ty != Type::Void,
        }
    }

    /// Visit every value operand, in a fixed order: the one way to walk an
    /// instruction's operands. A caller that needs them as a list collects
    /// one.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Alloca { count, .. } => f(*count),
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { val, ptr, .. } => {
                f(*val);
                f(*ptr);
            }
            Inst::Gep { base, indices, .. } => {
                f(*base);
                for i in indices {
                    f(*i);
                }
            }
            Inst::Bin { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Cast { val, .. } => f(*val),
            Inst::Select {
                cond, tval, fval, ..
            } => {
                f(*cond);
                f(*tval);
                f(*fval);
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    f(*v);
                }
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    f(*v);
                }
                for a in args {
                    f(*a);
                }
            }
            Inst::Term(t) => match t {
                Terminator::Ret(Some(v)) => f(*v),
                Terminator::Ret(None) | Terminator::Br(_) | Terminator::Unreachable => {}
                Terminator::CondBr { cond, .. } => f(*cond),
                Terminator::Switch { value, .. } => f(*value),
            },
        }
    }

    /// True if `v` is one of the instruction's operands.
    pub fn uses(&self, v: Value) -> bool {
        let mut found = false;
        self.for_each_operand(|op| found |= op == v);
        found
    }

    /// Apply `f` to every value operand in place (replace-all-uses support).
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Inst::Alloca { count, .. } => *count = f(*count),
            Inst::Load { ptr, .. } => *ptr = f(*ptr),
            Inst::Store { val, ptr, .. } => {
                *val = f(*val);
                *ptr = f(*ptr);
            }
            Inst::Gep { base, indices, .. } => {
                *base = f(*base);
                for i in indices {
                    *i = f(*i);
                }
            }
            Inst::Bin { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { val, .. } => *val = f(*val),
            Inst::Select {
                cond, tval, fval, ..
            } => {
                *cond = f(*cond);
                *tval = f(*tval);
                *fval = f(*fval);
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    *v = f(*v);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Term(t) => match t {
                Terminator::Ret(Some(v)) => *v = f(*v),
                Terminator::Ret(None) | Terminator::Br(_) | Terminator::Unreachable => {}
                Terminator::CondBr { cond, .. } => *cond = f(*cond),
                Terminator::Switch { value, .. } => *value = f(*value),
            },
        }
    }

    /// True if this instruction is a terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Term(_))
    }

    /// True if this instruction may read from memory.
    pub fn may_read_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Call { .. })
    }

    /// True if this instruction may write to memory.
    pub fn may_write_memory(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
    }

    /// True if the instruction has side effects beyond producing its value
    /// (memory writes, calls, control flow).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::Call { .. } | Inst::Term(_) | Inst::Alloca { .. }
        )
    }
}

/// Result *pointee* type of a GEP with the given base pointee type and
/// indices (the returned type is what the resulting pointer points to).
pub fn gep_result_type(base_ty: &Type, indices: &[Value]) -> Type {
    gep_pointee(base_ty, indices).clone()
}

/// [`gep_result_type`], borrowed: the indices are walked by reference.
fn gep_pointee<'a>(base_ty: &'a Type, indices: &[Value]) -> &'a Type {
    let mut ty = base_ty;
    // The first index only scales the base pointer; it does not change type.
    for idx in indices.iter().skip(1) {
        ty = match ty {
            Type::Array(elem, _) => elem,
            Type::Struct(fields) => {
                let i = match idx {
                    Value::Const(crate::value::Constant::Int(v, _)) => *v as usize,
                    _ => 0,
                };
                fields.get(i).unwrap_or(&Type::Void)
            }
            other => other,
        };
    }
    ty
}

/// An instruction with its book-keeping: the parent block. An own SSA name,
/// which few instructions have, lives beside the arena
/// ([`Function::inst_name`](crate::Function::inst_name)).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstData {
    /// The instruction itself.
    pub inst: Inst,
    /// Parent block (maintained by [`Function`](crate::Function)).
    pub block: BlockId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Constant;

    #[test]
    fn terminator_successors() {
        let b0 = BlockId(0);
        let b1 = BlockId(1);
        let b2 = BlockId(2);
        assert!(Terminator::Ret(None).successors().is_empty());
        assert_eq!(Terminator::Br(b1).successors(), vec![b1]);
        let cb = Terminator::CondBr {
            cond: Value::const_bool(true),
            then_bb: b1,
            else_bb: b2,
        };
        assert_eq!(cb.successors(), vec![b1, b2]);
        let sw = Terminator::Switch {
            value: Value::const_i64(0),
            default: b0,
            cases: vec![(1, b1), (2, b2)],
        };
        assert_eq!(sw.successors(), vec![b0, b1, b2]);
    }

    #[test]
    fn replace_successor_rewrites_all_matches() {
        let mut t = Terminator::CondBr {
            cond: Value::const_bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(1),
        };
        t.replace_successor(BlockId(1), BlockId(5));
        assert_eq!(t.successors(), vec![BlockId(5), BlockId(5)]);
    }

    #[test]
    fn result_types() {
        let alloca = Inst::Alloca {
            ty: Type::I64,
            count: Value::const_i64(1),
        };
        assert_eq!(alloca.result_type(), Type::I64.ptr_to());
        let icmp = Inst::Icmp {
            pred: IcmpPred::Slt,
            ty: Type::I64,
            lhs: Value::const_i64(0),
            rhs: Value::const_i64(1),
        };
        assert_eq!(icmp.result_type(), Type::I1);
        let store = Inst::Store {
            val: Value::const_i64(0),
            ptr: Value::Arg(0),
            ty: Type::I64,
        };
        assert_eq!(store.result_type(), Type::Void);
        assert!(alloca.has_result() && icmp.has_result() && !store.has_result());
        let void_call = Inst::Call {
            callee: Callee::Indirect(Value::Arg(0)),
            args: vec![],
            ret_ty: Type::Void,
        };
        assert!(!void_call.has_result());
    }

    #[test]
    fn gep_result_types() {
        // gep [10 x i32]* with indices [0, i] -> i32*
        let arr = Type::I32.array_of(10);
        let ty = gep_result_type(&arr, &[Value::const_i64(0), Value::const_i64(3)]);
        assert_eq!(ty, Type::I32);
        // single-index gep does not change type
        let ty = gep_result_type(&Type::I32, &[Value::const_i64(5)]);
        assert_eq!(ty, Type::I32);
        // struct navigation
        let st = Type::Struct(std::sync::Arc::new(vec![Type::I32, Type::F64]));
        let ty = gep_result_type(
            &st,
            &[
                Value::const_i64(0),
                Value::Const(Constant::Int(1, crate::types::IntWidth::I32)),
            ],
        );
        assert_eq!(ty, Type::F64);
    }

    #[test]
    fn operand_mapping_round_trip() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: Value::Arg(0),
            rhs: Value::Arg(1),
        };
        i.map_operands(|v| match v {
            Value::Arg(0) => Value::const_i64(7),
            other => other,
        });
        let mut operands = Vec::new();
        i.for_each_operand(|v| operands.push(v));
        assert_eq!(operands, vec![Value::const_i64(7), Value::Arg(1)]);
        assert!(i.uses(Value::Arg(1)) && !i.uses(Value::Arg(0)));
    }

    #[test]
    fn reduction_ops_have_identities() {
        for op in BinOp::all() {
            assert_eq!(op.is_reduction_op(), op.reduction_identity().is_some());
        }
    }

    const ICMP_PREDS: [IcmpPred; 10] = [
        IcmpPred::Eq,
        IcmpPred::Ne,
        IcmpPred::Slt,
        IcmpPred::Sle,
        IcmpPred::Sgt,
        IcmpPred::Sge,
        IcmpPred::Ult,
        IcmpPred::Ule,
        IcmpPred::Ugt,
        IcmpPred::Uge,
    ];

    #[test]
    fn icmp_swap_is_involutive() {
        for p in ICMP_PREDS {
            assert_eq!(p.swapped().swapped(), p);
        }
    }

    #[test]
    fn every_mnemonic_reads_back_as_its_variant() {
        for &op in BinOp::all() {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        for p in ICMP_PREDS {
            assert_eq!(IcmpPred::from_mnemonic(p.mnemonic()), Some(p));
        }
        use FcmpPred::*;
        for p in [Oeq, One, Olt, Ole, Ogt, Oge] {
            assert_eq!(FcmpPred::from_mnemonic(p.mnemonic()), Some(p));
        }
        use CastOp::*;
        for op in [
            Zext, Sext, Trunc, Bitcast, PtrToInt, IntToPtr, SiToFp, FpToSi, FpExt, FpTrunc,
        ] {
            assert_eq!(CastOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("icmp"), None);
        assert_eq!(CastOp::from_mnemonic("add"), None);
    }

    #[test]
    fn memory_effect_predicates() {
        let load = Inst::Load {
            ty: Type::I64,
            ptr: Value::Arg(0),
        };
        assert!(load.may_read_memory());
        assert!(!load.may_write_memory());
        let store = Inst::Store {
            val: Value::const_i64(0),
            ptr: Value::Arg(0),
            ty: Type::I64,
        };
        assert!(store.may_write_memory());
        assert!(!store.may_read_memory());
        let call = Inst::Call {
            callee: Callee::Indirect(Value::Arg(1)),
            args: vec![],
            ret_ty: Type::Void,
        };
        assert!(call.may_read_memory() && call.may_write_memory());
    }
}
