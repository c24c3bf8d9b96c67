//! The IR type system.
//!
//! Types are structural and cheap to clone. Pointers are typed (as in LLVM 9,
//! which the paper builds on) because the alias analyses in `noelle-analysis`
//! use pointee types for their TBAA-style rules.

use std::fmt;
use std::sync::Arc;

/// Bit width of an integer type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum IntWidth {
    /// 1-bit integer, the boolean type produced by comparisons.
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
}

impl IntWidth {
    /// Number of bits of the width.
    pub fn bits(self) -> u32 {
        match self {
            IntWidth::I1 => 1,
            IntWidth::I8 => 8,
            IntWidth::I16 => 16,
            IntWidth::I32 => 32,
            IntWidth::I64 => 64,
        }
    }

    /// Number of bytes this width occupies in the interpreter's memory model.
    pub fn bytes(self) -> u64 {
        match self {
            IntWidth::I1 | IntWidth::I8 => 1,
            IntWidth::I16 => 2,
            IntWidth::I32 => 4,
            IntWidth::I64 => 8,
        }
    }

    /// Wrap a raw value to the two's-complement range of this width.
    pub fn truncate(self, v: i64) -> i64 {
        match self {
            IntWidth::I1 => v & 1,
            IntWidth::I8 => v as i8 as i64,
            IntWidth::I16 => v as i16 as i64,
            IntWidth::I32 => v as i32 as i64,
            IntWidth::I64 => v,
        }
    }
}

impl fmt::Display for IntWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits())
    }
}

/// Bit width of a floating-point type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FloatWidth {
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl FloatWidth {
    /// Number of bytes this width occupies.
    pub fn bytes(self) -> u64 {
        match self {
            FloatWidth::F32 => 4,
            FloatWidth::F64 => 8,
        }
    }
}

impl fmt::Display for FloatWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloatWidth::F32 => write!(f, "f32"),
            FloatWidth::F64 => write!(f, "f64"),
        }
    }
}

/// The type of a function: parameter types plus return type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FuncType {
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Return type; [`Type::Void`] for procedures.
    pub ret: Type,
}

/// A structural IR type.
///
/// `Type` implements the common traits eagerly and is cheap to clone (compound
/// types share their element types behind `Arc`/`Box`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// The empty type, only valid as a function return type.
    Void,
    /// Integer type of a given width.
    Int(IntWidth),
    /// Floating-point type of a given width.
    Float(FloatWidth),
    /// Typed pointer: `i64*` points to an `i64`.
    Ptr(Box<Type>),
    /// Fixed-size array `[n x elem]`.
    Array(Box<Type>, u64),
    /// Anonymous structural struct `{ t0, t1, ... }`.
    Struct(Arc<Vec<Type>>),
    /// Function type, used as the pointee of function pointers.
    Func(Arc<FuncType>),
}

impl Type {
    /// Shorthand for `Type::Int(IntWidth::I1)`.
    pub const I1: Type = Type::Int(IntWidth::I1);
    /// Shorthand for `Type::Int(IntWidth::I8)`.
    pub const I8: Type = Type::Int(IntWidth::I8);
    /// Shorthand for `Type::Int(IntWidth::I16)`.
    pub const I16: Type = Type::Int(IntWidth::I16);
    /// Shorthand for `Type::Int(IntWidth::I32)`.
    pub const I32: Type = Type::Int(IntWidth::I32);
    /// Shorthand for `Type::Int(IntWidth::I64)`.
    pub const I64: Type = Type::Int(IntWidth::I64);
    /// Shorthand for `Type::Float(FloatWidth::F32)`.
    pub const F32: Type = Type::Float(FloatWidth::F32);
    /// Shorthand for `Type::Float(FloatWidth::F64)`.
    pub const F64: Type = Type::Float(FloatWidth::F64);

    /// A pointer to `self`.
    pub fn ptr_to(&self) -> Type {
        Type::Ptr(Box::new(self.clone()))
    }

    /// An array of `n` copies of `self`.
    pub fn array_of(&self, n: u64) -> Type {
        Type::Array(Box::new(self.clone()), n)
    }

    /// True for integer types.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Int(_))
    }

    /// True for floating-point types.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float(_))
    }

    /// True for pointer types.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// True for any type a value can have (everything but `Void`).
    pub fn is_value_type(&self) -> bool {
        !matches!(self, Type::Void)
    }

    /// True for types that can be stored to / loaded from memory directly.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Int(_) | Type::Float(_) | Type::Ptr(_))
    }

    /// The pointee type if `self` is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// Size in bytes in the interpreter's memory model.
    ///
    /// Pointers are 8 bytes. Structs are laid out without padding (every
    /// scalar in this IR is naturally aligned at byte granularity, which keeps
    /// `getelementptr` arithmetic simple and deterministic).
    pub fn size_bytes(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Int(w) => w.bytes(),
            Type::Float(w) => w.bytes(),
            Type::Ptr(_) | Type::Func(_) => 8,
            Type::Array(elem, n) => elem.size_bytes() * n,
            Type::Struct(fields) => fields.iter().map(Type::size_bytes).sum(),
        }
    }

    /// Byte offset of struct field `idx`, if `self` is a struct with that field.
    pub fn struct_field_offset(&self, idx: usize) -> Option<u64> {
        match self {
            Type::Struct(fields) if idx <= fields.len() => {
                Some(fields[..idx].iter().map(Type::size_bytes).sum())
            }
            _ => None,
        }
    }

    /// The type obtained by indexing into this aggregate (array element or
    /// struct field type).
    pub fn indexed(&self, idx: Option<usize>) -> Option<&Type> {
        match (self, idx) {
            (Type::Array(elem, _), _) => Some(elem),
            (Type::Struct(fields), Some(i)) => fields.get(i),
            _ => None,
        }
    }
}

/// A value's type, borrowed from where the IR already spells it: asking
/// "what is this value's type" builds no `T*` for an alloca, a gep, a
/// global or an untyped constant, nor a `fn` type for a function's
/// address — its signature is read where the function spells it.
#[derive(Debug)]
pub enum TypeView<'a> {
    /// The value has this type.
    Is(&'a Type),
    /// The value is a pointer to this type.
    PtrTo(&'a Type),
    /// The value is the address of a function with these parameters and
    /// this return type: `fn ret(params)*`.
    FuncPtr(&'a [(String, Type)], &'a Type),
}

/// Is `ft` the signature `params` → `ret`?
fn signature_is(ft: &FuncType, params: &[(String, Type)], ret: &Type) -> bool {
    ft.ret == *ret
        && ft.params.len() == params.len()
        && ft.params.iter().zip(params).all(|(a, (_, b))| a == b)
}

impl TypeView<'_> {
    /// The type as an owned value.
    pub fn to_type(&self) -> Type {
        match self {
            TypeView::Is(t) => (*t).clone(),
            TypeView::PtrTo(t) => t.ptr_to(),
            TypeView::FuncPtr(params, ret) => Type::Func(Arc::new(FuncType {
                params: params.iter().map(|(_, t)| t.clone()).collect(),
                ret: (*ret).clone(),
            }))
            .ptr_to(),
        }
    }

    /// The pointee type if the value is a pointer the IR spells; `None`
    /// for a function's address, whose `fn` type it does not
    /// ([`TypeView::pointee_is`] answers for every pointer).
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            TypeView::Is(t) => t.pointee(),
            TypeView::PtrTo(t) => Some(t),
            TypeView::FuncPtr(..) => None,
        }
    }

    /// True when the value is a pointer to `ty`.
    pub fn pointee_is(&self, ty: &Type) -> bool {
        match self {
            TypeView::FuncPtr(params, ret) => {
                matches!(ty, Type::Func(ft) if signature_is(ft, params, ret))
            }
            view => view.pointee() == Some(ty),
        }
    }

    /// True when the value's type is `ty`.
    pub fn is(&self, ty: &Type) -> bool {
        match self {
            TypeView::Is(t) => *t == ty,
            TypeView::PtrTo(t) => ty.pointee() == Some(t),
            TypeView::FuncPtr(..) => ty.pointee().is_some_and(|p| self.pointee_is(p)),
        }
    }

    /// True for integer types.
    pub fn is_int(&self) -> bool {
        matches!(self, TypeView::Is(Type::Int(_)))
    }
}

impl fmt::Display for TypeView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeView::Is(t) => write!(f, "{t}"),
            TypeView::PtrTo(t) => write!(f, "{t}*"),
            TypeView::FuncPtr(params, ret) => {
                write_fn_sig(f, ret, params.iter().map(|(_, t)| t))?;
                write!(f, "*")
            }
        }
    }
}

/// Write the function type `fn ret(p0, p1, ...)`.
fn write_fn_sig<'t>(
    f: &mut fmt::Formatter<'_>,
    ret: &Type,
    params: impl Iterator<Item = &'t Type>,
) -> fmt::Result {
    write!(f, "fn {ret}(")?;
    for (i, t) in params.enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{t}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int(w) => write!(f, "{w}"),
            Type::Float(w) => write!(f, "{w}"),
            Type::Ptr(p) => write!(f, "{p}*"),
            Type::Array(elem, n) => write!(f, "[{n} x {elem}]"),
            Type::Struct(fields) => {
                write!(f, "{{")?;
                for (i, t) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
            Type::Func(ft) => write_fn_sig(f, &ft.ret, ft.params.iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Type::I1.size_bytes(), 1);
        assert_eq!(Type::I8.size_bytes(), 1);
        assert_eq!(Type::I16.size_bytes(), 2);
        assert_eq!(Type::I32.size_bytes(), 4);
        assert_eq!(Type::I64.size_bytes(), 8);
        assert_eq!(Type::F32.size_bytes(), 4);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::I64.ptr_to().size_bytes(), 8);
    }

    #[test]
    fn aggregate_sizes_and_offsets() {
        let s = Type::Struct(Arc::new(vec![Type::I32, Type::F64, Type::I8]));
        assert_eq!(s.size_bytes(), 13);
        assert_eq!(s.struct_field_offset(0), Some(0));
        assert_eq!(s.struct_field_offset(1), Some(4));
        assert_eq!(s.struct_field_offset(2), Some(12));
        assert_eq!(s.struct_field_offset(3), Some(13));
        assert_eq!(s.struct_field_offset(4), None);

        let a = Type::I32.array_of(10);
        assert_eq!(a.size_bytes(), 40);
        assert_eq!(a.indexed(None), Some(&Type::I32));
    }

    #[test]
    fn truncate_wraps_to_width() {
        assert_eq!(IntWidth::I8.truncate(300), 300i64 as i8 as i64);
        assert_eq!(IntWidth::I1.truncate(3), 1);
        assert_eq!(IntWidth::I32.truncate(i64::MAX), -1);
        assert_eq!(IntWidth::I64.truncate(i64::MIN), i64::MIN);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.ptr_to().to_string(), "f64*");
        assert_eq!(Type::I8.array_of(4).to_string(), "[4 x i8]");
        let s = Type::Struct(Arc::new(vec![Type::I32, Type::I32]));
        assert_eq!(s.to_string(), "{i32, i32}");
    }

    #[test]
    fn predicates() {
        assert!(Type::I32.is_int());
        assert!(!Type::I32.is_float());
        assert!(Type::F32.is_float());
        assert!(Type::I32.ptr_to().is_ptr());
        assert!(Type::I32.is_scalar());
        assert!(!Type::I32.array_of(2).is_scalar());
        assert!(!Type::Void.is_value_type());
        assert_eq!(Type::I32.ptr_to().pointee(), Some(&Type::I32));
        assert_eq!(Type::I32.pointee(), None);
    }
}
