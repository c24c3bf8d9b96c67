//! SSA values and constants.

use crate::inst::InstId;
use crate::module::{FuncId, GlobalId};
use crate::types::{FloatWidth, IntWidth, Type};
use std::fmt;

/// A compile-time constant.
///
/// Floats are stored by their bit pattern so that `Constant` can implement
/// `Eq` and `Hash` (needed by the dependence-graph keys in `noelle-pdg`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Constant {
    /// Integer constant of a given width (stored sign-extended).
    Int(i64, IntWidth),
    /// Floating-point constant of a given width, stored as raw bits.
    Float(u64, FloatWidth),
    /// The null pointer.
    Null,
    /// An undefined value of any type.
    Undef,
}

impl Constant {
    /// A boolean (`i1`) constant.
    pub fn bool(v: bool) -> Constant {
        Constant::Int(v as i64, IntWidth::I1)
    }

    /// An `f64` constant from a Rust `f64`.
    pub fn f64(v: f64) -> Constant {
        Constant::Float(v.to_bits(), FloatWidth::F64)
    }

    /// An `f32` constant from a Rust `f32`.
    pub fn f32(v: f32) -> Constant {
        Constant::Float((v as f64).to_bits(), FloatWidth::F32)
    }

    /// The float payload as `f64`, if this is a float constant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Constant::Float(bits, _) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Constant::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The natural type of this constant, if it determines one.
    ///
    /// `Null` and `Undef` are typed by context, so they return `None`.
    pub fn ty(&self) -> Option<Type> {
        self.ty_ref().cloned()
    }

    /// [`Constant::ty`], borrowed: the type of a width builds nothing.
    pub(crate) fn ty_ref(&self) -> Option<&'static Type> {
        Some(match self {
            Constant::Int(_, IntWidth::I1) => &Type::I1,
            Constant::Int(_, IntWidth::I8) => &Type::I8,
            Constant::Int(_, IntWidth::I16) => &Type::I16,
            Constant::Int(_, IntWidth::I32) => &Type::I32,
            Constant::Int(_, IntWidth::I64) => &Type::I64,
            Constant::Float(_, FloatWidth::F32) => &Type::F32,
            Constant::Float(_, FloatWidth::F64) => &Type::F64,
            Constant::Null | Constant::Undef => return None,
        })
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(v, w) => write!(f, "{w} {v}"),
            Constant::Float(bits, w) => write!(f, "{w} {:?}", f64::from_bits(*bits)),
            Constant::Null => write!(f, "null"),
            Constant::Undef => write!(f, "undef"),
        }
    }
}

/// An SSA value: the operand of an instruction.
///
/// `Value` is a small `Copy` handle; instruction results and arguments are
/// indices into the owning [`Function`](crate::Function).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Value {
    /// The result of an instruction in the same function.
    Inst(InstId),
    /// The `i`-th formal argument of the enclosing function.
    Arg(u32),
    /// A compile-time constant.
    Const(Constant),
    /// The address of a module-level global.
    Global(GlobalId),
    /// The address of a function (for indirect calls / function pointers).
    Func(FuncId),
}

impl Value {
    /// Convenience constructor for an `i64` constant value.
    pub fn const_i64(v: i64) -> Value {
        Value::Const(Constant::Int(v, IntWidth::I64))
    }

    /// Convenience constructor for an `i1` constant value.
    pub fn const_bool(v: bool) -> Value {
        Value::Const(Constant::bool(v))
    }

    /// Convenience constructor for an `f64` constant value.
    pub fn const_f64(v: f64) -> Value {
        Value::Const(Constant::f64(v))
    }

    /// The instruction id, if this value is an instruction result.
    pub fn as_inst(&self) -> Option<InstId> {
        match self {
            Value::Inst(id) => Some(*id),
            _ => None,
        }
    }

    /// True if this value is a compile-time constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// True if this value is defined outside any function body (constants,
    /// globals, function references).
    pub fn is_toplevel(&self) -> bool {
        matches!(self, Value::Const(_) | Value::Global(_) | Value::Func(_))
    }
}

impl From<Constant> for Value {
    fn from(c: Constant) -> Value {
        Value::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_constructors() {
        assert_eq!(Constant::bool(true), Constant::Int(1, IntWidth::I1));
        assert_eq!(Constant::f64(1.5).as_f64(), Some(1.5));
        assert_eq!(Constant::Int(7, IntWidth::I32).as_int(), Some(7));
        assert_eq!(Constant::Null.as_int(), None);
        assert_eq!(Constant::f64(2.0).ty(), Some(Type::F64));
        assert_eq!(Constant::Undef.ty(), None);
    }

    #[test]
    fn value_predicates() {
        assert!(Value::const_i64(1).is_const());
        assert!(Value::const_i64(1).is_toplevel());
        assert!(!Value::Arg(0).is_toplevel());
        assert_eq!(Value::Inst(InstId(3)).as_inst(), Some(InstId(3)));
        assert_eq!(Value::Arg(0).as_inst(), None);
    }

    #[test]
    fn float_constants_hashable_and_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Constant::f64(0.5));
        assert!(set.contains(&Constant::f64(0.5)));
        assert!(!set.contains(&Constant::f64(0.25)));
    }
}
