//! Alias analyses.
//!
//! The paper's PDG is powered by a stack of alias analyses: LLVM's own basic
//! rules plus the external SCAF and SVF frameworks. This module provides the
//! equivalent two tiers:
//!
//! - [`BasicAlias`] — the "vanilla LLVM" tier: underlying-object rules
//!   (distinct allocations don't alias), constant-offset `gep` disambiguation,
//!   and strict-aliasing (TBAA-like) type rules;
//! - [`AndersenAlias`] — the "state-of-the-art" tier: a whole-program,
//!   flow-insensitive, inclusion-based (Andersen-style) points-to analysis
//!   with heap cloning by allocation site, escape handling through external
//!   calls, and iterative resolution of indirect-call targets.
//!
//! Figure 3 of the paper compares the fraction of memory dependences each
//! tier disproves; `noelle-bench` reproduces that comparison with these two
//! implementations.

use crate::bitset::BitSet;
use noelle_ir::bytes::{ByteReader, ByteWriter, DecodeError};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, GlobalId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::{Constant, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Outcome of an alias query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasResult {
    /// The two pointers never address overlapping memory.
    No,
    /// The two pointers may address overlapping memory.
    May,
    /// The two pointers always address exactly the same memory.
    Must,
}

/// One function's canonicalized points-to rows, as produced by
/// [`AndersenAlias::rows_by_function`]: for each pointer value (keyed
/// `(0, inst_id)` for instruction results, `(1, arg_index)` for arguments),
/// the bounded set of abstract objects it may address.
pub type PointsToRows = BTreeMap<(u8, u32), BTreeSet<MemoryObject>>;

/// An abstract memory object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum MemoryObject {
    /// A module-level global.
    Global(GlobalId),
    /// A stack allocation, identified by its `alloca`.
    Alloca(FuncId, InstId),
    /// A heap allocation, identified by its allocation call site.
    Heap(FuncId, InstId),
    /// A function (for function-pointer resolution).
    Function(FuncId),
    /// Memory we cannot model (externally provided, integer-cast pointers).
    Unknown,
}

impl MemoryObject {
    fn encode(&self, w: &mut ByteWriter) {
        match *self {
            MemoryObject::Global(g) => {
                w.u8(0);
                w.varint(u64::from(g.0));
            }
            MemoryObject::Alloca(f, i) => {
                w.u8(1);
                w.varint(u64::from(f.0));
                w.varint(u64::from(i.0));
            }
            MemoryObject::Heap(f, i) => {
                w.u8(2);
                w.varint(u64::from(f.0));
                w.varint(u64::from(i.0));
            }
            MemoryObject::Function(f) => {
                w.u8(3);
                w.varint(u64::from(f.0));
            }
            MemoryObject::Unknown => w.u8(4),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<MemoryObject, DecodeError> {
        let id32 = |r: &mut ByteReader<'_>, ctx| {
            let v = r.varint(ctx)?;
            u32::try_from(v).map_err(|_| DecodeError::new(ctx))
        };
        match r.u8("memory-object: tag")? {
            0 => Ok(MemoryObject::Global(GlobalId(id32(
                r,
                "memory-object: global",
            )?))),
            1 => Ok(MemoryObject::Alloca(
                FuncId(id32(r, "memory-object: alloca func")?),
                InstId(id32(r, "memory-object: alloca inst")?),
            )),
            2 => Ok(MemoryObject::Heap(
                FuncId(id32(r, "memory-object: heap func")?),
                InstId(id32(r, "memory-object: heap inst")?),
            )),
            3 => Ok(MemoryObject::Function(FuncId(id32(
                r,
                "memory-object: function",
            )?))),
            4 => Ok(MemoryObject::Unknown),
            _ => Err(DecodeError::new("memory-object: tag")),
        }
    }
}

/// Stable binary encoding of one function's [`PointsToRows`]. Rows are
/// written in `BTreeMap`/`BTreeSet` order, so equal rows always produce
/// identical bytes — the property the store's round-trip oracle asserts.
pub fn encode_rows(rows: &PointsToRows) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.varint(rows.len() as u64);
    for (&(space, idx), set) in rows {
        w.u8(space);
        w.varint(u64::from(idx));
        w.varint(set.len() as u64);
        for o in set {
            o.encode(&mut w);
        }
    }
    w.into_bytes()
}

/// Decode rows encoded by [`encode_rows`]. Total: malformed input surfaces
/// as a [`DecodeError`], never a panic, and the store treats it as a miss.
///
/// # Errors
/// Truncated input, trailing bytes, out-of-domain tags, non-canonical key
/// or set ordering, and duplicate keys are all rejected.
pub fn decode_rows(bytes: &[u8]) -> Result<PointsToRows, DecodeError> {
    const MAX: usize = 1 << 28;
    let mut r = ByteReader::new(bytes);
    let n = r.count(MAX, "points-to rows: row count")?;
    let mut rows = PointsToRows::new();
    for _ in 0..n {
        let space = r.u8("points-to rows: key space")?;
        if space > 1 {
            return Err(DecodeError::new("points-to rows: key space"));
        }
        let idx = r.varint("points-to rows: key index")?;
        let idx = u32::try_from(idx).map_err(|_| DecodeError::new("points-to rows: key index"))?;
        let key = (space, idx);
        if rows.last_key_value().is_some_and(|(k, _)| *k >= key) {
            return Err(DecodeError::new("points-to rows: key order"));
        }
        let m = r.count(MAX, "points-to rows: set size")?;
        let mut set = BTreeSet::new();
        for _ in 0..m {
            let o = MemoryObject::decode(&mut r)?;
            if set.last().is_some_and(|p| *p >= o) {
                return Err(DecodeError::new("points-to rows: object order"));
            }
            set.insert(o);
        }
        rows.insert(key, set);
    }
    r.finish("points-to rows: trailing bytes")?;
    Ok(rows)
}

/// Interface shared by all alias analyses: answer whether two pointer values
/// of function `fid` may address the same memory.
///
/// `Sync` is a supertrait so `&dyn AliasAnalysis` can be shared across
/// threads; every analysis here is immutable after construction.
pub trait AliasAnalysis: Sync {
    /// Query aliasing of pointers `a` and `b`, both values of function `fid`.
    /// The answer must not depend on the argument order: the PDG builder asks
    /// once per unordered pair.
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult;

    /// The set of abstract objects pointer `ptr` may address, or `None` when
    /// the analysis cannot bound it. The contract consumed by the PDG's
    /// base-object bucketing: whenever `base_objects` returns disjoint
    /// non-`None` sets for two pointers, `alias` on that pair returns
    /// [`AliasResult::No`] — so the pair can be skipped without querying.
    fn base_objects(&self, fid: FuncId, ptr: Value) -> Option<BTreeSet<MemoryObject>> {
        let _ = (fid, ptr);
        None
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Underlying objects
// ---------------------------------------------------------------------------

/// The syntactic base(s) of a pointer value, chased through `gep`s, pointer
/// casts, `select`s and `phi`s (bounded depth). `None` in the returned set
/// means "unknown base".
/// True when the address of alloca `id` escapes the direct load/store
/// idiom in `f`: used as a stored *value*, a call argument, a `gep` base,
/// a cast source, or any other position besides the pointer operand of a
/// load or store. Non-escaping allocas have an exactly known access set,
/// which flow-sensitive clients (dead-store detection, scalar promotion)
/// require before trusting block-local reasoning.
pub fn alloca_address_taken(f: &noelle_ir::module::Function, id: InstId) -> bool {
    let a = Value::Inst(id);
    for other in f.inst_ids() {
        let uses_a = match f.inst(other) {
            // The pointer operand of a load (its only operand) is the
            // non-escaping use.
            Inst::Load { .. } => false,
            Inst::Store { val, .. } => *val == a,
            _ => f.inst(other).operands().contains(&a),
        };
        if uses_a {
            return true;
        }
    }
    false
}

pub fn underlying_objects(m: &Module, fid: FuncId, v: Value) -> BTreeSet<Option<MemoryObject>> {
    underlying_objects_vec(m, fid, v).into_iter().collect()
}

/// Small-vec form of [`underlying_objects`]: the same base set as a sorted,
/// deduplicated `Vec`. This is what the hot query paths use — a `Vec` of a
/// few elements beats a `BTreeSet` allocation per query; consumers that need
/// a set (the `base_objects` trait boundary, external callers) canonicalize
/// once at their own boundary.
pub fn underlying_objects_vec(m: &Module, fid: FuncId, v: Value) -> Vec<Option<MemoryObject>> {
    let mut out = Vec::new();
    let mut visited = Vec::new();
    collect_bases(m, fid, v, &mut out, &mut visited, 32);
    out.sort_unstable();
    out.dedup();
    out
}

fn collect_bases(
    m: &Module,
    fid: FuncId,
    v: Value,
    out: &mut Vec<Option<MemoryObject>>,
    visited: &mut Vec<Value>,
    fuel: u32,
) {
    // The walk is fuel-bounded, so the visited list stays small and a linear
    // scan beats hashing.
    if fuel == 0 || visited.contains(&v) {
        out.push(None);
        return;
    }
    visited.push(v);
    let f = m.func(fid);
    match v {
        Value::Global(g) => {
            out.push(Some(MemoryObject::Global(g)));
        }
        Value::Func(callee) => {
            out.push(Some(MemoryObject::Function(callee)));
        }
        Value::Const(_) => {
            // Null / undef / integer constants: no object.
        }
        Value::Arg(_) => {
            out.push(None);
        }
        Value::Inst(id) => match f.inst(id) {
            Inst::Alloca { .. } => {
                out.push(Some(MemoryObject::Alloca(fid, id)));
            }
            Inst::Gep { base, .. } => collect_bases(m, fid, *base, out, visited, fuel - 1),
            Inst::Cast {
                op: noelle_ir::inst::CastOp::Bitcast,
                val,
                ..
            } => collect_bases(m, fid, *val, out, visited, fuel - 1),
            Inst::Cast { .. } => {
                out.push(None);
            }
            Inst::Select { tval, fval, .. } => {
                collect_bases(m, fid, *tval, out, visited, fuel - 1);
                collect_bases(m, fid, *fval, out, visited, fuel - 1);
            }
            Inst::Phi { incomings, .. } => {
                for (_, iv) in incomings {
                    collect_bases(m, fid, *iv, out, visited, fuel - 1);
                }
            }
            Inst::Call { callee, .. } => {
                if let Callee::Direct(cid) = callee {
                    if crate::modref::is_allocator_sym(m.func(*cid).name_sym()) {
                        out.push(Some(MemoryObject::Heap(fid, id)));
                        return;
                    }
                }
                out.push(None);
            }
            _ => {
                out.push(None);
            }
        },
    }
}

/// True when two sorted, deduplicated slices share no element.
fn sorted_disjoint<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Basic (LLVM-tier) alias analysis
// ---------------------------------------------------------------------------

/// The "vanilla LLVM" alias tier. Stateless apart from a borrowed module.
pub struct BasicAlias<'m> {
    module: &'m Module,
}

impl<'m> BasicAlias<'m> {
    /// Create the basic tier over `module`.
    pub fn new(module: &'m Module) -> BasicAlias<'m> {
        BasicAlias { module }
    }

    /// Byte offset of a gep whose indices are all constants, with its base.
    fn const_gep_offset(&self, fid: FuncId, v: Value) -> Option<(Value, i64)> {
        let f = self.module.func(fid);
        let id = v.as_inst()?;
        if let Inst::Gep {
            base,
            base_ty,
            indices,
        } = f.inst(id)
        {
            let mut offset: i64 = 0;
            let mut ty = base_ty.clone();
            for (k, idx) in indices.iter().enumerate() {
                let c = match idx {
                    Value::Const(Constant::Int(c, _)) => *c,
                    _ => return None,
                };
                if k == 0 {
                    offset += c * ty.size_bytes() as i64;
                } else {
                    match &ty {
                        Type::Array(elem, _) => {
                            offset += c * elem.size_bytes() as i64;
                            ty = (**elem).clone();
                        }
                        Type::Struct(_) => {
                            offset += ty.struct_field_offset(c as usize)? as i64;
                            ty = ty.indexed(Some(c as usize))?.clone();
                        }
                        other => {
                            offset += c * other.size_bytes() as i64;
                        }
                    }
                }
            }
            Some((*base, offset))
        } else {
            None
        }
    }

    fn pointee_scalar_kind(&self, fid: FuncId, v: Value) -> Option<Type> {
        let f = self.module.func(fid);
        match f.value_type(self.module, v) {
            Type::Ptr(p) if p.is_scalar() => Some(*p),
            _ => None,
        }
    }
}

impl AliasAnalysis for BasicAlias<'_> {
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult {
        if a == b {
            return AliasResult::Must;
        }
        // Null pointers address nothing.
        if matches!(a, Value::Const(Constant::Null)) || matches!(b, Value::Const(Constant::Null)) {
            return AliasResult::No;
        }

        // Constant-offset geps off the same base.
        let ga = self.const_gep_offset(fid, a);
        let gb = self.const_gep_offset(fid, b);
        match (&ga, &gb) {
            (Some((ba, oa)), Some((bb, ob))) if ba == bb => {
                // Access sizes: the pointee of each pointer.
                let f = self.module.func(fid);
                let sa = f
                    .value_type(self.module, a)
                    .pointee()
                    .map(Type::size_bytes)
                    .unwrap_or(1) as i64;
                let sb = f
                    .value_type(self.module, b)
                    .pointee()
                    .map(Type::size_bytes)
                    .unwrap_or(1) as i64;
                if oa == ob {
                    return AliasResult::Must;
                }
                if oa + sa <= *ob || ob + sb <= *oa {
                    return AliasResult::No;
                }
                return AliasResult::May;
            }
            (Some((ba, _)), None) if *ba == b => return AliasResult::May,
            (None, Some((bb, _))) if *bb == a => return AliasResult::May,
            _ => {}
        }

        // Underlying-object rules. The sorted-vec form avoids a `BTreeSet`
        // allocation per query; `None` sorts first, so "contains unknown" is
        // a first-element check.
        let oa = underlying_objects_vec(self.module, fid, a);
        let ob = underlying_objects_vec(self.module, fid, b);
        let a_known = oa.first().is_some_and(Option::is_some);
        let b_known = ob.first().is_some_and(Option::is_some);
        if a_known && b_known {
            if sorted_disjoint(&oa, &ob) {
                return AliasResult::No;
            }
        } else if a_known || b_known {
            // One side is a set of identified function-local objects, the
            // other is unknown (e.g. an incoming argument). A fresh alloca
            // cannot be addressed by a pointer that existed before it (LLVM's
            // non-escaping-alloca rule); globals, by contrast, can.
            let (known, _unknown) = if a_known { (&oa, &ob) } else { (&ob, &oa) };
            if known.iter().all(|o| {
                matches!(
                    o,
                    Some(MemoryObject::Alloca(_, _)) | Some(MemoryObject::Heap(_, _))
                )
            }) {
                let escaped = known.iter().any(|o| match o {
                    Some(MemoryObject::Alloca(f2, i)) | Some(MemoryObject::Heap(f2, i)) => {
                        object_escapes(self.module, *f2, *i)
                    }
                    _ => true,
                });
                if !escaped {
                    return AliasResult::No;
                }
            }
        }

        // Strict-aliasing (TBAA-lite): distinct scalar pointee types do not
        // alias.
        if let (Some(ta), Some(tb)) = (
            self.pointee_scalar_kind(fid, a),
            self.pointee_scalar_kind(fid, b),
        ) {
            if ta != tb {
                return AliasResult::No;
            }
        }

        AliasResult::May
    }

    fn base_objects(&self, fid: FuncId, ptr: Value) -> Option<BTreeSet<MemoryObject>> {
        // Sound for bucketing because the underlying-object rule in `alias`
        // answers `No` on any pair of fully-known disjoint base sets, and the
        // earlier const-gep rules only produce `Must`/`May` for pointers
        // sharing a base (hence sharing base objects). The set is
        // canonicalized from the sorted-vec form only here, at the trait
        // boundary (the PDG builder asks once per distinct pointer).
        let objs = underlying_objects_vec(self.module, fid, ptr);
        if !objs.first().is_some_and(Option::is_some) {
            return None;
        }
        Some(objs.into_iter().flatten().collect())
    }

    fn name(&self) -> &'static str {
        "basic-aa"
    }
}

/// True if the address of allocation `id` (an alloca or allocation call in
/// `fid`) may escape: stored to memory, passed to a call, returned, or cast
/// to an integer.
pub fn object_escapes(m: &Module, fid: FuncId, id: InstId) -> bool {
    let f = m.func(fid);
    // Worklist over the values derived from the allocation.
    let mut derived: HashSet<InstId> = HashSet::new();
    derived.insert(id);
    let uses = f.compute_uses();
    let mut work = vec![id];
    while let Some(cur) = work.pop() {
        for &u in uses.get(&cur).map(Vec::as_slice).unwrap_or(&[]) {
            match f.inst(u) {
                Inst::Gep { .. }
                | Inst::Cast {
                    op: noelle_ir::inst::CastOp::Bitcast,
                    ..
                }
                | Inst::Select { .. }
                | Inst::Phi { .. } => {
                    if derived.insert(u) {
                        work.push(u);
                    }
                }
                Inst::Load { .. } => {}
                Inst::Store { val, .. } => {
                    // Escapes if the *pointer itself* is stored somewhere.
                    if val.as_inst().map(|i| derived.contains(&i)).unwrap_or(false) {
                        return true;
                    }
                }
                Inst::Icmp { .. } | Inst::Fcmp { .. } => {}
                Inst::Call { .. } => return true,
                Inst::Cast { .. } => return true, // ptrtoint etc.
                Inst::Term(t) => {
                    if matches!(t, noelle_ir::inst::Terminator::Ret(Some(_))) {
                        return true;
                    }
                }
                _ => return true,
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Andersen-style inclusion-based points-to analysis
// ---------------------------------------------------------------------------

/// "No var": an instruction, argument or return value nothing interned.
const NO_VAR: u32 = u32::MAX;
/// The permanently-empty var shared by every integer-constant operand.
const CONST_VAR: u32 = 0;
/// Synthetic source var whose points-to set is exactly `{Unknown}`.
const UNKNOWN_SRC: u32 = 1;
/// Var holding the contents of [`MemoryObject::Unknown`] (itself).
const UNKNOWN_CONTENT: u32 = 2;
/// Object id of [`MemoryObject::Unknown`].
const UNKNOWN_OBJ: usize = 0;

/// External-callee classification, recorded per function so call-site
/// generation never re-examines a name string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ExternClass {
    /// Defined in the module.
    Defined,
    /// Known allocation routine.
    Alloc,
    /// External with escaping pointer arguments.
    Opaque,
    /// External that neither allocates nor captures pointers.
    Inert,
}

/// Everything constraint generation reads of a function *other than the one
/// whose body it is walking*: what a call site needs to bind arguments and
/// the return value. A cached constraint block stays valid across an edit
/// exactly as long as the signatures of the functions it mentions do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Signature {
    class: ExternClass,
    ret_ptr: bool,
    n_params: u32,
    /// Bit `i` is set when parameter `i` is pointer-typed.
    ptr_params: u64,
}

impl Signature {
    /// Parameters beyond this many do not fit `ptr_params`.
    const MAX_EXACT_PARAMS: u32 = 64;

    fn of(f: &noelle_ir::module::Function) -> Signature {
        let class = if !f.is_declaration() {
            ExternClass::Defined
        } else if crate::modref::is_allocator_sym(f.name_sym()) {
            ExternClass::Alloc
        } else if crate::modref::external_effects_sym(f.name_sym()).opaque_pointers {
            ExternClass::Opaque
        } else {
            ExternClass::Inert
        };
        let mut ptr_params = 0u64;
        for (i, (_, ty)) in f
            .params
            .iter()
            .enumerate()
            .take(Self::MAX_EXACT_PARAMS as usize)
        {
            if ty.is_ptr() {
                ptr_params |= 1 << i;
            }
        }
        Signature {
            class,
            ret_ptr: f.ret_ty.is_ptr(),
            n_params: f.params.len() as u32,
            ptr_params,
        }
    }

    /// True when `self` provably describes the same signature as `new`. A
    /// signature too wide for the bit mask never compares equal, which
    /// costs such a function's edits a full regeneration and nothing else.
    fn same_as(&self, new: &Signature) -> bool {
        self == new && new.n_params <= Self::MAX_EXACT_PARAMS
    }
}

/// One entry of a function's constraint block. Var and object operands are
/// the solver's dense ids, which stay fixed for as long as the block is
/// retained, so re-solving replays a block without a single hash probe.
#[derive(Clone, Copy, Debug)]
enum Constraint {
    /// `pts(var) ∋ obj`.
    Seed { var: u32, obj: u32 },
    /// `pts(to) ⊇ pts(from)`.
    Copy { from: u32, to: u32 },
    /// `dst = load ptr`: `pts(dst) ⊇ content(o)` for every `o ∈ pts(ptr)`.
    Load { ptr: u32, dst: u32 },
    /// `store src, ptr`: `content(o) ⊇ pts(src)` for every `o ∈ pts(ptr)`.
    Store { ptr: u32, src: u32 },
    /// The block mentions this argument var, so queries may observe it.
    ArgLive(u32),
    /// The block calls this function directly or takes its address, so it
    /// is not a root.
    Ref(FuncId),
    /// An indirect call site of the block's function, resolved while solving.
    Site(InstId),
}

/// A `(start, end)` pair of a [`Block`] as an index range.
fn span(r: (u32, u32)) -> std::ops::Range<usize> {
    r.0 as usize..r.1 as usize
}

/// Where one function's share of the flat tables lives.
#[derive(Clone, Copy, Debug, Default)]
struct Block {
    /// `constraints[cons.0..cons.1]` is this function's block.
    cons: (u32, u32),
    /// `local_vars[locals.0 + inst.index()]` is the var of that
    /// instruction's result (`locals.1` is the end of the table).
    locals: (u32, u32),
}

/// What [`AndersenAlias::update`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AndersenUpdate {
    /// Functions whose constraint blocks were regenerated (the touched and
    /// appended ones, or every function when a signature moved).
    pub regenerated: usize,
    /// Functions *outside* the touched set whose query-observable rows
    /// differ from the previous solution's, ascending.
    pub changed: Vec<FuncId>,
}

/// Whole-program Andersen points-to analysis and the alias interface on top.
///
/// The analysis keeps the constraint system it solved, split into one
/// *block* per function and stored flat (one constraint array, one
/// instruction-var table, per-function ranges into both). A block is a pure
/// function of its function's body and of the [`Signature`]s of the
/// functions that body mentions, so after an edit
/// [`AndersenAlias::update`] regenerates only the touched functions'
/// blocks, replays every other block verbatim, and propagates once over the
/// whole system. [`AndersenAlias::new`] is the same code with every
/// function "touched".
///
/// Points-to rows are sparse bitsets over object ids ([`BitSet`]); the
/// solver is a worklist over the copy-edge constraint graph, sharded by SCC
/// (see [`Solver::copy_fixpoint`]). The inclusion system has a unique least
/// fixpoint, so neither the sharded/parallel schedule nor the order blocks
/// were generated in can show in the rows.
pub struct AndersenAlias {
    /// Points-to row of every var, by var id.
    pts: Vec<BitSet>,
    /// By var id, for argument vars only: some constraint of the current
    /// system mentions the var. An argument nothing mentions is untracked
    /// ("may point anywhere"), exactly as if it had no var.
    live: Vec<bool>,
    objects: Vec<MemoryObject>,
    obj_ids: HashMap<MemoryObject, usize>,
    /// Var holding the contents of each object, by object id.
    content_of: Vec<u32>,
    /// Resolved callees of each indirect call site.
    indirect_targets: HashMap<(FuncId, InstId), BTreeSet<FuncId>>,
    /// Instruction vars minted *while solving* (results of resolved
    /// indirect calls). They depend on the solution, so they live outside
    /// the retained tables and are rebuilt by every solve.
    solve_locals: HashMap<(FuncId, InstId), u32>,
    /// Shared synthetic vars for address-constant operands. These vars only
    /// ever grow *out*-edges (load/store lists, copy edges to call results),
    /// so their rows stay exactly the seeded singleton — one var per global
    /// or function is equivalent to a fresh var per use.
    global_addr_vars: HashMap<GlobalId, u32>,
    func_addr_vars: HashMap<FuncId, u32>,
    /// Var ids released by regenerated blocks, reused before growing `pts`.
    free_vars: Vec<u32>,
    /// Globals whose objects exist (a prefix of the module's).
    globals_seen: usize,
    /// Per function: the signature its callers' blocks were generated
    /// against.
    sigs: Vec<Signature>,
    /// Per function: var of its first argument. Argument `i` is
    /// `arg_base + i`, the return value `arg_base + n_params`.
    arg_base: Vec<u32>,
    blocks: Vec<Block>,
    constraints: Vec<Constraint>,
    local_vars: Vec<u32>,
}

/// The previous solution's share of what [`AndersenAlias::update`] needs to
/// tell which functions' rows moved.
struct Previous {
    pts: Vec<BitSet>,
    live: Vec<bool>,
    blocks: Vec<Block>,
    local_vars: Vec<u32>,
    solve_locals: HashMap<(FuncId, InstId), u32>,
}

/// One solve: generation of the stale blocks, then the transient constraint
/// graph the retained system is replayed into and propagated over.
struct Solver<'a> {
    m: &'a Module,
    a: &'a mut AndersenAlias,
    succs: Vec<Vec<u32>>,  // copy edges: pts(to) ⊇ pts(from)
    loads: Vec<Vec<u32>>,  // loads[p] = dst vars of `dst = load p`
    stores: Vec<Vec<u32>>, // stores[p] = src vars of `store src, p`
    /// Copy edges materialized from load/store constraints so far. Block
    /// constraints never name a content var and materialized edges always
    /// do, so the two kinds cannot collide and only this kind is tracked.
    edge_seen: HashSet<(u32, u32)>,
    indirect_sites: Vec<(FuncId, InstId)>,
    resolved: HashMap<(FuncId, InstId), BTreeSet<FuncId>>,
    /// The function whose block is being generated; `None` while solving,
    /// when constraints go straight into the graph instead.
    generating: Option<FuncId>,
    /// Start of that function's table in `local_vars`.
    gen_locals: usize,
    /// Its arguments already marked live by this block.
    arg_seen: Vec<bool>,
}

/// Run the worklist of one SCC shard to its local fixpoint. `rows` holds the
/// shard's points-to rows (extracted from the global table); predecessors
/// outside the shard come earlier in the condensation's topological order,
/// already settled, and are read through `settled`. `shard` is sorted, so in-shard
/// membership is a binary search.
fn solve_shard(
    shard: &[u32],
    rows: &mut [BitSet],
    pred_off: &[u32],
    pred_dat: &[u32],
    succs: &[Vec<u32>],
    settled: &[BitSet],
) {
    let preds_of = |v: usize| &pred_dat[pred_off[v] as usize..pred_off[v + 1] as usize];
    let k = shard.len();
    if k == 1 {
        // Singleton SCC: every predecessor is settled (self-edges are never
        // created), so one union pass reaches the fixpoint — no worklist,
        // no queue allocation. The overwhelmingly common case.
        let v = shard[0] as usize;
        let row = &mut rows[0];
        for &p in preds_of(v) {
            row.union_with(&settled[p as usize]);
        }
        return;
    }
    let mut in_q = vec![true; k];
    let mut queue: std::collections::VecDeque<u32> = (0..k as u32).collect();
    while let Some(li) = queue.pop_front() {
        let li = li as usize;
        in_q[li] = false;
        let v = shard[li] as usize;
        // Take the row out so in-shard predecessor rows stay borrowable.
        let mut row = std::mem::take(&mut rows[li]);
        let mut changed = false;
        for &p in preds_of(v) {
            if p as usize == v {
                continue;
            }
            let src = match shard.binary_search(&p) {
                Ok(pj) => &rows[pj],
                Err(_) => &settled[p as usize],
            };
            changed |= row.union_with(src);
        }
        rows[li] = row;
        if changed {
            for &s in &succs[v] {
                if let Ok(sj) = shard.binary_search(&s) {
                    if !in_q[sj] {
                        in_q[sj] = true;
                        queue.push_back(sj as u32);
                    }
                }
            }
        }
    }
}

/// Flattened SCC partition of the copy graph: SCC `i`'s members are
/// `members[off[i]..off[i+1]]`, sorted ascending. Emission order is
/// reverse topological (successors before predecessors). Two flat arrays
/// instead of a `Vec` per SCC: almost every SCC is a singleton, and the
/// partition is rebuilt every fixpoint round.
struct SccSet {
    off: Vec<u32>,
    members: Vec<u32>,
}

impl SccSet {
    fn len(&self) -> usize {
        self.off.len() - 1
    }

    fn scc(&self, i: usize) -> &[u32] {
        &self.members[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Tarjan's SCCs of the copy graph, flattened.
fn copy_sccs(succs: &[Vec<u32>]) -> SccSet {
    let n = succs.len();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut counter = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    let mut out = SccSet {
        off: vec![0u32],
        members: Vec::with_capacity(n),
    };
    let mut call_stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = counter;
        lowlink[root] = counter;
        counter += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        call_stack.push((root as u32, 0));
        while let Some(&mut (node, ref mut pos)) = call_stack.last_mut() {
            let v = node as usize;
            if (*pos as usize) < succs[v].len() {
                let w = succs[v][*pos as usize] as usize;
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = counter;
                    lowlink[w] = counter;
                    counter += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    call_stack.push((w as u32, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    let p = parent as usize;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let start = out.members.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        out.members.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    out.members[start..].sort_unstable();
                    out.off.push(out.members.len() as u32);
                }
            }
        }
    }
    out
}

impl<'a> Solver<'a> {
    fn new(m: &'a Module, a: &'a mut AndersenAlias) -> Solver<'a> {
        Solver {
            m,
            a,
            succs: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            edge_seen: HashSet::new(),
            indirect_sites: Vec::new(),
            resolved: HashMap::new(),
            generating: None,
            gen_locals: 0,
            arg_seen: Vec::new(),
        }
    }

    /// A var with an empty row: a released id when there is one, a new one
    /// otherwise. While solving, the graph grows in step.
    fn alloc_var(&mut self) -> u32 {
        if let Some(v) = self.a.free_vars.pop() {
            return v;
        }
        let v = self.a.alloc_var();
        if self.generating.is_none() {
            self.grow_graph();
        }
        v
    }

    /// Give every var its (empty) adjacency lists.
    fn grow_graph(&mut self) {
        let n = self.a.pts.len();
        self.succs.resize_with(n, Vec::new);
        self.loads.resize_with(n, Vec::new);
        self.stores.resize_with(n, Vec::new);
    }

    /// Record a generated constraint: into the block under generation, or
    /// straight into the graph when the solve itself produced it.
    fn emit(&mut self, c: Constraint) {
        if self.generating.is_some() {
            self.a.constraints.push(c);
        } else {
            self.apply(c);
        }
    }

    /// Replay one constraint into the transient graph.
    fn apply(&mut self, c: Constraint) {
        match c {
            Constraint::Seed { var, obj } => {
                self.a.pts[var as usize].insert(obj as usize);
            }
            Constraint::Copy { from, to } => {
                if from != to {
                    self.succs[from as usize].push(to);
                }
            }
            Constraint::Load { ptr, dst } => self.loads[ptr as usize].push(dst),
            Constraint::Store { ptr, src } => self.stores[ptr as usize].push(src),
            Constraint::ArgLive(v) => self.a.live[v as usize] = true,
            // Both are read off the blocks by `load_blocks`; call bindings
            // produced while solving change neither.
            Constraint::Ref(_) | Constraint::Site(_) => {}
        }
    }

    /// Var of the result of instruction `id` of `fid`.
    fn local_var(&mut self, fid: FuncId, id: InstId) -> u32 {
        if let Some(gen) = self.generating {
            debug_assert_eq!(gen, fid, "a block only names its own instructions");
            let slot = self.gen_locals + id.index();
            if self.a.local_vars[slot] == NO_VAR {
                self.a.local_vars[slot] = self.alloc_var();
            }
            return self.a.local_vars[slot];
        }
        let v = self.a.local_var(fid, id);
        if v != NO_VAR {
            return v;
        }
        let v = self.alloc_var();
        self.a.solve_locals.insert((fid, id), v);
        v
    }

    /// Var of argument `i` of `fid`, marking it live.
    fn arg_var(&mut self, fid: FuncId, i: u32) -> u32 {
        let Some(v) = self.a.arg_var(fid, i) else {
            // An operand naming a parameter the function does not have can
            // hold no address; like an integer constant, it is empty.
            return CONST_VAR;
        };
        let own = self.generating == Some(fid);
        if !(own && std::mem::replace(&mut self.arg_seen[i as usize], true)) {
            self.emit(Constraint::ArgLive(v));
        }
        v
    }

    fn object(&mut self, o: MemoryObject) -> u32 {
        self.a.object(o) as u32
    }

    /// Make `dst ⊇ value` for an operand value of function `fid`.
    fn flow_value_into(&mut self, fid: FuncId, v: Value, dst: u32) {
        match v {
            Value::Inst(id) => {
                let from = self.local_var(fid, id);
                self.emit(Constraint::Copy { from, to: dst });
            }
            Value::Arg(i) => {
                let from = self.arg_var(fid, i);
                self.emit(Constraint::Copy { from, to: dst });
            }
            Value::Global(g) => {
                let obj = self.object(MemoryObject::Global(g));
                self.emit(Constraint::Seed { var: dst, obj });
            }
            Value::Func(f2) => {
                let obj = self.object(MemoryObject::Function(f2));
                self.emit(Constraint::Seed { var: dst, obj });
            }
            Value::Const(_) => {}
        }
    }

    /// Regenerate the constraint block and instruction-var table of `fid`
    /// at the end of the flat tables.
    fn gen_function(&mut self, fid: FuncId) {
        let m: &'a Module = self.m;
        let f = m.func(fid);
        let cons_start = self.a.constraints.len();
        let locals_start = self.a.local_vars.len();
        if !f.is_declaration() {
            self.a
                .local_vars
                .resize(locals_start + f.inst_arena_len(), NO_VAR);
            self.generating = Some(fid);
            self.gen_locals = locals_start;
            self.arg_seen.clear();
            self.arg_seen.resize(f.params.len(), false);
            for &b in f.block_order() {
                for &id in &f.block(b).insts {
                    self.gen_inst(fid, id);
                }
            }
            self.generating = None;
        }
        self.a.blocks[fid.index()] = Block {
            cons: (cons_start as u32, self.a.constraints.len() as u32),
            locals: (locals_start as u32, self.a.local_vars.len() as u32),
        };
    }

    fn gen_inst(&mut self, fid: FuncId, id: InstId) {
        // Borrow the instruction through `'a` so it is matched in place
        // while `&mut self` constraint methods run — the alternative,
        // cloning each instruction, allocates for every phi/call in the
        // module and dominates generation on large inputs.
        let m: &'a Module = self.m;
        let f = m.func(fid);
        let inst = f.inst(id);
        // Root functions — never called within the module and never
        // address-taken (e.g. `main`) — receive their pointer arguments from
        // outside the analyzed program; every mention of a function here
        // takes it off that list.
        inst.for_each_operand(|op| {
            if let Value::Func(cid) = op {
                self.emit(Constraint::Ref(cid));
            }
        });
        match inst {
            Inst::Alloca { .. } => {
                let obj = self.object(MemoryObject::Alloca(fid, id));
                let var = self.local_var(fid, id);
                self.emit(Constraint::Seed { var, obj });
            }
            Inst::Gep { base, .. } => {
                // Field-insensitive: a gep is a copy of its base.
                let dst = self.local_var(fid, id);
                self.flow_value_into(fid, *base, dst);
            }
            // Values that cannot hold an address generate no constraints at
            // all: no var, no row, no copy edge. A pointer smuggled through
            // an integer already degrades to `Unknown` at the `IntToPtr`
            // reintroduction point, so skipping integer-typed flows loses no
            // precision — while int-heavy kernels stop paying rows and edges
            // for every scalar load, store, and phi (the bulk of the
            // constraint system on numeric code).
            Inst::Cast { op, val, to, .. } => {
                if !to.is_ptr() {
                    return;
                }
                let dst = self.local_var(fid, id);
                match op {
                    noelle_ir::inst::CastOp::Bitcast => self.flow_value_into(fid, *val, dst),
                    noelle_ir::inst::CastOp::IntToPtr => {
                        let obj = UNKNOWN_OBJ as u32;
                        self.emit(Constraint::Seed { var: dst, obj });
                    }
                    _ => {}
                }
            }
            Inst::Select { ty, tval, fval, .. } => {
                if !ty.is_ptr() {
                    return;
                }
                let dst = self.local_var(fid, id);
                self.flow_value_into(fid, *tval, dst);
                self.flow_value_into(fid, *fval, dst);
            }
            Inst::Phi { ty, incomings } => {
                if !ty.is_ptr() {
                    return;
                }
                let dst = self.local_var(fid, id);
                for &(_, v) in incomings {
                    self.flow_value_into(fid, v, dst);
                }
            }
            Inst::Load { ty, ptr } => {
                if !ty.is_ptr() {
                    return;
                }
                let dst = self.local_var(fid, id);
                let ptr = self.value_var(fid, *ptr);
                self.emit(Constraint::Load { ptr, dst });
            }
            Inst::Store { val, ptr, ty } => {
                if !ty.is_ptr() {
                    return;
                }
                // Route the stored value through a dedicated var so constants
                // and args are handled uniformly.
                let src = self.local_var(fid, id);
                self.flow_value_into(fid, *val, src);
                let ptr = self.value_var(fid, *ptr);
                self.emit(Constraint::Store { ptr, src });
            }
            Inst::Call { callee, args, .. } => match callee {
                Callee::Direct(cid) => {
                    self.emit(Constraint::Ref(*cid));
                    self.gen_direct_call(fid, id, *cid, args);
                }
                Callee::Indirect(fp) => {
                    self.value_var(fid, *fp);
                    self.emit(Constraint::Site(id));
                }
            },
            // `Ret(f) ⊇ returned values` belongs to `f`'s own block: call
            // sites copy out of `Ret(f)` knowing only `f`'s signature, which
            // is what lets their blocks outlive edits to `f`'s body.
            Inst::Term(noelle_ir::inst::Terminator::Ret(Some(v))) if f.ret_ty.is_ptr() => {
                let rv = self.a.ret_var(fid);
                self.flow_value_into(fid, *v, rv);
            }
            _ => {}
        }
    }

    /// Var holding the points-to set of an operand value (materializing a
    /// synthetic var for address constants).
    fn value_var(&mut self, fid: FuncId, v: Value) -> u32 {
        match v {
            Value::Inst(id) => self.local_var(fid, id),
            Value::Arg(i) => self.arg_var(fid, i),
            Value::Global(g) => {
                // An address constant's var never gains an in-edge (use
                // sites only append to its load/store lists or copy *out*
                // of it), so its row stays the seeded `{Global(g)}` for the
                // whole solve and one var can serve every use of `@g`.
                if let Some(&dst) = self.a.global_addr_vars.get(&g) {
                    return dst;
                }
                let dst = self.alloc_var();
                let o = self.a.object(MemoryObject::Global(g));
                self.a.pts[dst as usize].insert(o);
                self.a.global_addr_vars.insert(g, dst);
                dst
            }
            Value::Func(f2) => {
                if let Some(&dst) = self.a.func_addr_vars.get(&f2) {
                    return dst;
                }
                let dst = self.alloc_var();
                let o = self.a.object(MemoryObject::Function(f2));
                self.a.pts[dst as usize].insert(o);
                self.a.func_addr_vars.insert(f2, dst);
                dst
            }
            // Integer constants carry no address: every one shares the
            // permanently-empty var.
            Value::Const(_) => CONST_VAR,
        }
    }

    /// Bind the call `id` of `fid` to callee `cid`, reading nothing of the
    /// callee but its recorded [`Signature`].
    fn gen_direct_call(&mut self, fid: FuncId, id: InstId, cid: FuncId, args: &[Value]) {
        let sig = self.a.sigs[cid.index()];
        if sig.class != ExternClass::Defined {
            let dst = self.local_var(fid, id);
            match sig.class {
                ExternClass::Alloc => {
                    let obj = self.object(MemoryObject::Heap(fid, id));
                    self.emit(Constraint::Seed { var: dst, obj });
                }
                ExternClass::Opaque => {
                    // Unknown external: pointer args escape; the result may be
                    // anything reachable from them or fresh unknown memory.
                    let obj = UNKNOWN_OBJ as u32;
                    self.emit(Constraint::Seed { var: dst, obj });
                    for &a in args {
                        let av = self.value_var(fid, a);
                        self.emit(Constraint::Store {
                            ptr: av,
                            src: UNKNOWN_SRC,
                        });
                        self.emit(Constraint::Copy { from: av, to: dst });
                    }
                }
                ExternClass::Inert | ExternClass::Defined => {}
            }
            return;
        }
        // Non-pointer params can still smuggle pointers via casts; ignored
        // (matches field-insensitive precision).
        let params = &self.m.func(cid).params;
        for (i, &a) in args.iter().enumerate().take(params.len()) {
            if params[i].1.is_ptr() {
                let pv = self.arg_var(cid, i as u32);
                self.flow_value_into(fid, a, pv);
            }
        }
        // Return-value flow only matters when the callee can return an
        // address (same type gate as `gen_inst`: int returns carry none).
        if sig.ret_ptr {
            let from = self.a.ret_var(cid);
            let to = self.local_var(fid, id);
            self.emit(Constraint::Copy { from, to });
        }
    }

    /// Replay every retained block into an empty graph and seed what is not
    /// part of any block: the synthetic sources, and `Unknown` for the
    /// pointer arguments of root functions (which receive them from outside
    /// the analyzed program; arguments of referenced functions are bound at
    /// their call sites instead).
    fn load_blocks(&mut self) {
        self.grow_graph();
        self.a.pts[UNKNOWN_CONTENT as usize].insert(UNKNOWN_OBJ);
        self.a.pts[UNKNOWN_SRC as usize].insert(UNKNOWN_OBJ);
        let mut referenced = vec![false; self.a.blocks.len()];
        for i in 0..self.a.blocks.len() {
            let fid = FuncId(i as u32);
            for k in span(self.a.blocks[i].cons) {
                match self.a.constraints[k] {
                    Constraint::Ref(cid) => referenced[cid.index()] = true,
                    Constraint::Site(id) => self.indirect_sites.push((fid, id)),
                    c => self.apply(c),
                }
            }
        }
        for (i, referenced) in referenced.into_iter().enumerate() {
            let sig = self.a.sigs[i];
            if referenced || sig.class != ExternClass::Defined {
                continue;
            }
            for (k, (_, ty)) in self.m.functions()[i].params.iter().enumerate() {
                if ty.is_ptr() {
                    let v = self.a.arg_base[i] as usize + k;
                    self.a.pts[v].insert(UNKNOWN_OBJ);
                    self.a.live[v] = true;
                }
            }
        }
    }

    /// Eagerly materialize the content var of every object created so far,
    /// so propagation never allocates vars. Called once per `solve` round;
    /// `resolve_indirect` can mint new objects, covered by the next round.
    fn prepare(&mut self) {
        while self.a.content_of.len() < self.a.objects.len() {
            let c = self.alloc_var();
            self.a.content_of.push(c);
        }
    }

    /// Solve the current constraint system to its least fixpoint:
    /// alternate copy-edge closure with load/store edge materialization
    /// until no new edge appears.
    fn solve(&mut self) {
        self.prepare();
        loop {
            self.copy_fixpoint();
            if !self.materialize() {
                break;
            }
        }
    }

    /// Close the points-to rows under the current copy edges.
    ///
    /// The copy graph is condensed into SCCs (Tarjan, reverse-topological
    /// emission) and the condensation is swept once in topological order:
    /// every predecessor of an SCC is settled before the SCC runs, so one
    /// sweep reaches the exact — and unique — least fixpoint for the
    /// current edge set.
    fn copy_fixpoint(&mut self) {
        let n = self.a.pts.len();
        if n == 0 {
            return;
        }
        let sccs = copy_sccs(&self.succs);
        // Pull-direction adjacency, packed CSR (counting sort) — rebuilt
        // each round, so no per-node Vec allocations.
        let nedges: usize = self.succs.iter().map(Vec::len).sum();
        let mut pred_off = vec![0u32; n + 1];
        for ss in &self.succs {
            for &s in ss {
                pred_off[s as usize + 1] += 1;
            }
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut pred_dat = vec![0u32; nedges];
        let mut cur = pred_off.clone();
        for (v, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                pred_dat[cur[s as usize] as usize] = v as u32;
                cur[s as usize] += 1;
            }
        }
        let pts = &mut self.a.pts;
        // The rows of the SCC being solved, taken out of the table so the
        // worklist may mutate them while reading the settled rows through
        // a shared borrow of the table. One buffer for the whole sweep.
        let mut rows: Vec<BitSet> = Vec::new();
        for i in (0..sccs.len()).rev() {
            let shard = sccs.scc(i);
            rows.extend(shard.iter().map(|&v| std::mem::take(&mut pts[v as usize])));
            solve_shard(shard, &mut rows, &pred_off, &pred_dat, &self.succs, pts);
            for (&v, row) in shard.iter().zip(rows.drain(..)) {
                pts[v as usize] = row;
            }
        }
    }

    /// Materialize copy edges for the complex (load/store) constraints
    /// against the current rows: `dst ⊇ content(o)` for every `dst = load p`
    /// with `o ∈ pts(p)`, and `content(o) ⊇ src` for every `store src, p`.
    /// Returns true if any new edge appeared.
    fn materialize(&mut self) -> bool {
        let mut pending: Vec<(u32, u32)> = Vec::new();
        for v in 0..self.a.pts.len() {
            if self.loads[v].is_empty() && self.stores[v].is_empty() {
                continue;
            }
            for o in self.a.pts[v].iter() {
                let c = self.a.content_of[o];
                for &dst in &self.loads[v] {
                    pending.push((c, dst));
                }
                for &src in &self.stores[v] {
                    pending.push((src, c));
                }
            }
        }
        let mut changed = false;
        for (from, to) in pending {
            if from != to && self.edge_seen.insert((from, to)) {
                self.succs[from as usize].push(to);
                changed = true;
            }
        }
        changed
    }

    /// Resolve indirect calls against the current solution; returns true if
    /// new call edges were added.
    fn resolve_indirect(&mut self) -> bool {
        let m: &'a Module = self.m;
        let mut changed = false;
        for k in 0..self.indirect_sites.len() {
            let (fid, id) = self.indirect_sites[k];
            let Inst::Call {
                callee: Callee::Indirect(fp),
                args,
                ..
            } = m.func(fid).inst(id)
            else {
                continue;
            };
            let pvar = self.value_var(fid, *fp);
            let targets: Vec<FuncId> = self.a.pts[pvar as usize]
                .iter()
                .filter_map(|o| match self.a.objects[o] {
                    MemoryObject::Function(cid) => Some(cid),
                    _ => None,
                })
                .collect();
            for cid in targets {
                if self.resolved.entry((fid, id)).or_default().insert(cid) {
                    changed = true;
                    self.gen_direct_call(fid, id, cid, args);
                }
            }
        }
        changed
    }
}

/// Equality of two query-observable rows over one object table.
fn same_rows(a: Option<&BitSet>, b: Option<&BitSet>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.same_set(b),
        _ => false,
    }
}

impl AndersenAlias {
    /// Run the whole-program points-to analysis over `m`: an
    /// [`AndersenAlias::update`] from the empty system, to which every
    /// function of `m` is new.
    pub fn new(m: &Module) -> AndersenAlias {
        let mut a = AndersenAlias {
            // `CONST_VAR`, `UNKNOWN_SRC`, `UNKNOWN_CONTENT`.
            pts: vec![BitSet::new(); 3],
            live: vec![false; 3],
            // `UNKNOWN_OBJ`.
            objects: vec![MemoryObject::Unknown],
            obj_ids: HashMap::from([(MemoryObject::Unknown, UNKNOWN_OBJ)]),
            content_of: vec![UNKNOWN_CONTENT],
            indirect_targets: HashMap::new(),
            solve_locals: HashMap::new(),
            global_addr_vars: HashMap::new(),
            func_addr_vars: HashMap::new(),
            free_vars: Vec::new(),
            globals_seen: 0,
            sigs: Vec::new(),
            arg_base: Vec::new(),
            blocks: Vec::new(),
            constraints: Vec::new(),
            local_vars: Vec::new(),
        };
        a.update(m, &BTreeSet::new());
        a
    }

    fn alloc_var(&mut self) -> u32 {
        let v = self.pts.len() as u32;
        self.pts.push(BitSet::new());
        self.live.push(false);
        v
    }

    fn object(&mut self, o: MemoryObject) -> usize {
        if let Some(&i) = self.obj_ids.get(&o) {
            return i;
        }
        let i = self.objects.len();
        self.objects.push(o);
        self.obj_ids.insert(o, i);
        i
    }

    /// Var of instruction `id` of `fid`, or [`NO_VAR`].
    fn local_var(&self, fid: FuncId, id: InstId) -> u32 {
        let from_table = self.blocks.get(fid.index()).and_then(|b| {
            let slot = b.locals.0 as usize + id.index();
            (slot < b.locals.1 as usize).then(|| self.local_vars[slot])
        });
        match from_table {
            Some(v) if v != NO_VAR => v,
            _ => self.solve_locals.get(&(fid, id)).copied().unwrap_or(NO_VAR),
        }
    }

    /// Var of argument `i` of `fid`, if the function has that parameter.
    fn arg_var(&self, fid: FuncId, i: u32) -> Option<u32> {
        let sig = self.sigs.get(fid.index())?;
        (i < sig.n_params).then(|| self.arg_base[fid.index()] + i)
    }

    fn ret_var(&self, fid: FuncId) -> u32 {
        self.arg_base[fid.index()] + self.sigs[fid.index()].n_params
    }

    /// Bring the solution up to date with `m` after an edit that changed
    /// at most the bodies of `touched` and appended functions past the ones
    /// already known. Globals may have been appended too; nothing may have
    /// been removed.
    ///
    /// Only the touched and appended functions' constraint blocks are
    /// regenerated; all others are replayed as retained. A retained block
    /// reads other functions through their [`Signature`]s alone, so if a
    /// touched function's signature moved, every block is regenerated. The
    /// solve is a full propagation from empty rows either way: exact
    /// whatever the edit deleted.
    pub fn update(&mut self, m: &Module, touched: &BTreeSet<FuncId>) -> AndersenUpdate {
        let known = self.sigs.len();
        let n = m.functions().len();
        assert!(known <= n, "functions cannot be removed from a module");
        let mut all = false;
        for &fid in touched.iter().filter(|f| f.index() < known) {
            let sig = Signature::of(m.func(fid));
            let old = std::mem::replace(&mut self.sigs[fid.index()], sig);
            all |= !old.same_as(&sig);
            if old.n_params != sig.n_params {
                // The old argument vars are leaked, not recycled: a changed
                // parameter count is as rare as the full regeneration it
                // forces.
                self.arg_base[fid.index()] = self.alloc_args(sig.n_params);
            }
        }
        for f in &m.functions()[known..] {
            let sig = Signature::of(f);
            self.sigs.push(sig);
            let base = self.alloc_args(sig.n_params);
            self.arg_base.push(base);
        }
        for gid in m.global_ids().skip(self.globals_seen) {
            self.object(MemoryObject::Global(gid));
        }
        self.globals_seen = m.globals().len();

        // Set the previous solution aside and start every row empty, but
        // for the address constants, whose rows no block seeds.
        let nvars = self.pts.len();
        let prev = Previous {
            pts: std::mem::replace(&mut self.pts, vec![BitSet::new(); nvars]),
            live: std::mem::replace(&mut self.live, vec![false; nvars]),
            blocks: std::mem::replace(&mut self.blocks, vec![Block::default(); n]),
            local_vars: std::mem::take(&mut self.local_vars),
            solve_locals: std::mem::take(&mut self.solve_locals),
        };
        let prev_constraints = std::mem::take(&mut self.constraints);
        self.free_vars.extend(prev.solve_locals.values());
        for (&g, &v) in &self.global_addr_vars {
            self.pts[v as usize].insert(self.obj_ids[&MemoryObject::Global(g)]);
        }
        for (&f, &v) in &self.func_addr_vars {
            self.pts[v as usize].insert(self.obj_ids[&MemoryObject::Function(f)]);
        }

        // Rebuild the flat tables in function order: stale blocks are
        // regenerated, the others copied over as they are. The tables'
        // sizes are known to within the edit, so reserve them once.
        let stale = |i: usize| i >= known || all || touched.contains(&FuncId(i as u32));
        let fresh_slots: usize = (0..n)
            .filter(|&i| stale(i))
            .map(|i| m.functions()[i].inst_arena_len())
            .sum();
        self.local_vars.reserve(prev.local_vars.len() + fresh_slots);
        self.constraints
            .reserve(prev_constraints.len() + fresh_slots / 2);
        let mut regenerated = 0;
        let mut s = Solver::new(m, self);
        for i in 0..n {
            let fid = FuncId(i as u32);
            if !stale(i) {
                let b = prev.blocks[i];
                let cons = s.a.constraints.len() as u32;
                let locals = s.a.local_vars.len() as u32;
                s.a.constraints
                    .extend_from_slice(&prev_constraints[span(b.cons)]);
                s.a.local_vars
                    .extend_from_slice(&prev.local_vars[span(b.locals)]);
                s.a.blocks[i] = Block {
                    cons: (cons, cons + (b.cons.1 - b.cons.0)),
                    locals: (locals, locals + (b.locals.1 - b.locals.0)),
                };
                continue;
            }
            if i < known {
                let old = &prev.local_vars[span(prev.blocks[i].locals)];
                s.a.free_vars
                    .extend(old.iter().copied().filter(|&v| v != NO_VAR));
            }
            s.gen_function(fid);
            regenerated += 1;
        }
        // The old blocks are all copied or superseded: release them before
        // the solve builds its graph.
        drop(prev_constraints);

        s.load_blocks();
        loop {
            s.solve();
            if !s.resolve_indirect() {
                break;
            }
        }
        self.indirect_targets = std::mem::take(&mut s.resolved);

        // Touched functions are the caller's to damage whatever their rows
        // did; of the rest, report the ones whose rows moved.
        let mut changed: BTreeSet<FuncId> = (0..known)
            .map(|i| FuncId(i as u32))
            .filter(|fid| !touched.contains(fid) && self.rows_moved(&prev, *fid))
            .collect();
        // Results of resolved indirect calls: keyed, not tabled, and rare.
        let untabled = prev.solve_locals.keys().chain(self.solve_locals.keys());
        for key in untabled.filter(|key| !touched.contains(&key.0)) {
            let var = |vars: &HashMap<_, u32>| vars.get(key).copied().unwrap_or(NO_VAR);
            if !same_rows(
                self.bounded_row(&prev.pts, var(&prev.solve_locals)),
                self.bounded_row(&self.pts, var(&self.solve_locals)),
            ) {
                changed.insert(key.0);
            }
        }
        AndersenUpdate {
            regenerated,
            changed: changed.into_iter().collect(),
        }
    }

    /// A fresh run of `n_params + 1` consecutive vars: the arguments, then
    /// the return value.
    fn alloc_args(&mut self, n_params: u32) -> u32 {
        let base = self.pts.len() as u32;
        for _ in 0..=n_params {
            self.alloc_var();
        }
        base
    }

    /// The row queries observe for var `v`, or `None` when they cannot tell
    /// it from "may address anything": no var, an empty row, or a row
    /// containing [`MemoryObject::Unknown`].
    fn bounded_row<'r>(&self, pts: &'r [BitSet], v: u32) -> Option<&'r BitSet> {
        let row = pts.get(v as usize)?;
        (!row.is_empty() && !row.contains(UNKNOWN_OBJ)).then_some(row)
    }

    /// Do the tabled query-observable rows of `fid` (a function both
    /// solutions know) differ between `prev` and `self`? Compared position
    /// by position in solver space — both solutions share one object table,
    /// so two bounded rows are equal exactly when their bitsets are.
    fn rows_moved(&self, prev: &Previous, fid: FuncId) -> bool {
        let i = fid.index();
        let old_t = &prev.local_vars[span(prev.blocks[i].locals)];
        let new_t = &self.local_vars[span(self.blocks[i].locals)];
        if old_t.len() != new_t.len() {
            return true;
        }
        let locals_same = old_t.iter().zip(new_t).all(|(&o, &n)| {
            same_rows(
                self.bounded_row(&prev.pts, o),
                self.bounded_row(&self.pts, n),
            )
        });
        let live_row = |pts, live: &[bool], v: u32| {
            live.get(v as usize)
                .is_some_and(|&l| l)
                .then(|| self.bounded_row(pts, v))
                .flatten()
        };
        let base = self.arg_base[i];
        !locals_same
            || (0..self.sigs[i].n_params).any(|k| {
                !same_rows(
                    live_row(&prev.pts, &prev.live, base + k),
                    live_row(&self.pts, &self.live, base + k),
                )
            })
    }

    /// Approximate heap footprint of the points-to state, in bytes: bitset
    /// rows, the object tables, and the retained constraint system.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pts.iter().map(BitSet::heap_bytes).sum::<usize>()
            + self.pts.capacity() * size_of::<BitSet>()
            + self.live.capacity()
            + self.objects.capacity() * size_of::<MemoryObject>()
            + self.obj_ids.len() * (size_of::<MemoryObject>() + size_of::<usize>() + 16)
            + self.content_of.capacity() * size_of::<u32>()
            + self.constraints.capacity() * size_of::<Constraint>()
            + self.local_vars.capacity() * size_of::<u32>()
            + self.blocks.capacity() * size_of::<Block>()
            + self.sigs.capacity() * size_of::<Signature>()
            + self.arg_base.capacity() * size_of::<u32>()
    }

    /// Points-to set of a pointer value in function `fid`.
    pub fn points_to(&self, fid: FuncId, v: Value) -> BTreeSet<MemoryObject> {
        match v {
            Value::Inst(id) => self.var_pts(self.local_var(fid, id)),
            Value::Arg(i) => self.var_pts(self.live_arg_var(fid, i)),
            Value::Global(g) => BTreeSet::from([MemoryObject::Global(g)]),
            Value::Func(f2) => BTreeSet::from([MemoryObject::Function(f2)]),
            Value::Const(_) => BTreeSet::new(),
        }
    }

    /// Var of argument `i` of `fid` if anything mentions it, else [`NO_VAR`].
    fn live_arg_var(&self, fid: FuncId, i: u32) -> u32 {
        self.arg_var(fid, i)
            .filter(|&v| self.live[v as usize])
            .unwrap_or(NO_VAR)
    }

    fn var_pts(&self, v: u32) -> BTreeSet<MemoryObject> {
        match self.pts.get(v as usize) {
            Some(row) => row.iter().map(|o| self.objects[o]).collect(),
            None => BTreeSet::from([MemoryObject::Unknown]),
        }
    }

    /// The query-observable points-to rows of every function, keyed by
    /// function: for each instruction-produced or argument pointer value,
    /// the set of abstract objects it may address.
    ///
    /// Rows that answer [`AliasAnalysis::alias`] and
    /// [`AliasAnalysis::base_objects`] identically are canonicalized away:
    /// an empty set, a set containing [`MemoryObject::Unknown`], and an
    /// untracked variable all behave as "may address anything", so none of
    /// them appears in the map. Two solves whose rows compare equal for a
    /// function therefore answer every alias query on that function
    /// identically — the comparison [`AndersenAlias::update`] makes in
    /// solver space to report which functions an edit's re-solve moved.
    pub fn rows_by_function(&self) -> HashMap<FuncId, PointsToRows> {
        let mut out: HashMap<FuncId, PointsToRows> = HashMap::new();
        let mut put = |fid: FuncId, key: (u8, u32), v: u32| {
            if let Some(row) = self.bounded_row(&self.pts, v) {
                let set = row.iter().map(|o| self.objects[o]).collect();
                out.entry(fid).or_default().insert(key, set);
            }
        };
        for (i, b) in self.blocks.iter().enumerate() {
            let fid = FuncId(i as u32);
            let table = &self.local_vars[span(b.locals)];
            for (idx, &v) in table.iter().enumerate() {
                put(fid, (0, idx as u32), v);
            }
            for k in 0..self.sigs[i].n_params {
                put(fid, (1, k), self.live_arg_var(fid, k));
            }
        }
        for (&(fid, id), &v) in &self.solve_locals {
            put(fid, (0, id.0), v);
        }
        out
    }

    /// Possible callees of the indirect call `id` in `fid`, as resolved by
    /// the points-to solution. Used by the complete call graph abstraction.
    pub fn indirect_callees(&self, fid: FuncId, id: InstId) -> Vec<FuncId> {
        self.indirect_targets
            .get(&(fid, id))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }
}

impl AliasAnalysis for AndersenAlias {
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult {
        if a == b {
            return AliasResult::Must;
        }
        if matches!(a, Value::Const(Constant::Null)) || matches!(b, Value::Const(Constant::Null)) {
            return AliasResult::No;
        }
        let pa = self.points_to(fid, a);
        let pb = self.points_to(fid, b);
        if pa.is_empty() || pb.is_empty() {
            return AliasResult::May;
        }
        if pa.contains(&MemoryObject::Unknown) || pb.contains(&MemoryObject::Unknown) {
            return AliasResult::May;
        }
        if pa.intersection(&pb).next().is_none() {
            return AliasResult::No;
        }
        AliasResult::May
    }

    fn base_objects(&self, fid: FuncId, ptr: Value) -> Option<BTreeSet<MemoryObject>> {
        // Sound for bucketing: `alias` answers `No` exactly when both
        // points-to sets are non-empty, Unknown-free, and disjoint.
        let pts = self.points_to(fid, ptr);
        if pts.is_empty() || pts.contains(&MemoryObject::Unknown) {
            return None;
        }
        Some(pts)
    }

    fn name(&self) -> &'static str {
        "andersen-aa"
    }
}

/// A stack of alias analyses queried most-precise-last: the first tier to
/// answer `No` or `Must` wins; otherwise the next tier is consulted. This is
/// how NOELLE composes LLVM's analyses with SCAF and SVF.
pub struct AliasStack<'a> {
    tiers: Vec<&'a dyn AliasAnalysis>,
}

impl<'a> AliasStack<'a> {
    /// Build a stack from ordered tiers.
    pub fn new(tiers: Vec<&'a dyn AliasAnalysis>) -> AliasStack<'a> {
        AliasStack { tiers }
    }
}

impl AliasAnalysis for AliasStack<'_> {
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult {
        for t in &self.tiers {
            match t.alias(fid, a, b) {
                AliasResult::May => continue,
                decisive => return decisive,
            }
        }
        // Cross-tier rule: each tier's base set over-approximates the
        // concrete objects its pointer can address, so the tightest sets may
        // come from different tiers and still prove disjointness. This also
        // makes the stack honor the `base_objects` bucketing contract.
        if let (Some(sa), Some(sb)) = (self.base_objects(fid, a), self.base_objects(fid, b)) {
            if sa.intersection(&sb).next().is_none() {
                return AliasResult::No;
            }
        }
        AliasResult::May
    }

    fn base_objects(&self, fid: FuncId, ptr: Value) -> Option<BTreeSet<MemoryObject>> {
        // The tightest (smallest) known set among the tiers.
        self.tiers
            .iter()
            .filter_map(|t| t.base_objects(fid, ptr))
            .min_by_key(BTreeSet::len)
    }

    fn name(&self) -> &'static str {
        "alias-stack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::module::{Global, GlobalInit};
    use noelle_ir::parser::parse_module;
    use noelle_ir::types::Type;

    fn module_with(f: noelle_ir::module::Function) -> (Module, FuncId) {
        let mut m = Module::new("t");
        let id = m.add_function(f);
        (m, id)
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let p = b.alloca(Type::I64);
        let q = b.alloca(Type::I64);
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let aa = BasicAlias::new(&m);
        assert_eq!(aa.alias(fid, p, q), AliasResult::No);
        assert_eq!(aa.alias(fid, p, p), AliasResult::Must);
        let andersen = AndersenAlias::new(&m);
        assert_eq!(andersen.alias(fid, p, q), AliasResult::No);
    }

    #[test]
    fn alloca_does_not_alias_incoming_arg() {
        let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let q = b.alloca(Type::I64);
        b.store(Type::I64, Value::const_i64(0), q);
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let aa = BasicAlias::new(&m);
        assert_eq!(aa.alias(fid, q, Value::Arg(0)), AliasResult::No);
    }

    #[test]
    fn escaped_alloca_may_alias_arg() {
        // The alloca's address is passed to an external call, so it escapes.
        let mut m = Module::new("t");
        let ext = m.declare_function("capture", vec![Type::I64.ptr_to()], Type::Void);
        let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let q = b.alloca(Type::I64);
        b.call(ext, vec![q], Type::Void);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let aa = BasicAlias::new(&m);
        assert_eq!(aa.alias(fid, q, Value::Arg(0)), AliasResult::May);
    }

    #[test]
    fn gep_constant_offsets_disambiguate() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let arr = b.alloca(Type::I64.array_of(10));
        let p0 = b.gep(
            Type::I64.array_of(10),
            arr,
            vec![Value::const_i64(0), Value::const_i64(0)],
        );
        let p1 = b.gep(
            Type::I64.array_of(10),
            arr,
            vec![Value::const_i64(0), Value::const_i64(1)],
        );
        let p0b = b.gep(
            Type::I64.array_of(10),
            arr,
            vec![Value::const_i64(0), Value::const_i64(0)],
        );
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let aa = BasicAlias::new(&m);
        assert_eq!(aa.alias(fid, p0, p1), AliasResult::No);
        assert_eq!(aa.alias(fid, p0, p0b), AliasResult::Must);
    }

    #[test]
    fn tbaa_separates_scalar_types() {
        // Two argument pointers with different pointee types.
        let mut b = FunctionBuilder::new(
            "f",
            vec![("p", Type::I64.ptr_to()), ("q", Type::F64.ptr_to())],
            Type::Void,
        );
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let aa = BasicAlias::new(&m);
        assert_eq!(aa.alias(fid, Value::Arg(0), Value::Arg(1)), AliasResult::No);
        // Same pointee type: may alias.
        let mut b = FunctionBuilder::new(
            "g",
            vec![("p", Type::I64.ptr_to()), ("q", Type::I64.ptr_to())],
            Type::Void,
        );
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let mut m2 = Module::new("t2");
        let gid = m2.add_function(b.finish());
        let aa2 = BasicAlias::new(&m2);
        assert_eq!(
            aa2.alias(gid, Value::Arg(0), Value::Arg(1)),
            AliasResult::May
        );
    }

    #[test]
    fn null_never_aliases() {
        let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let aa = BasicAlias::new(&m);
        assert_eq!(
            aa.alias(fid, Value::Arg(0), Value::Const(Constant::Null)),
            AliasResult::No
        );
    }

    #[test]
    fn andersen_tracks_pointer_stored_in_memory() {
        // p = alloca i64; cell = alloca i64*; store p -> cell; q = load cell
        // q must may-alias p, and must not alias an unrelated alloca r.
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let p = b.alloca(Type::I64);
        let cell = b.alloca(Type::I64.ptr_to());
        b.store(Type::I64.ptr_to(), p, cell);
        let q = b.load(Type::I64.ptr_to(), cell);
        let r = b.alloca(Type::I64);
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let andersen = AndersenAlias::new(&m);
        assert_eq!(andersen.alias(fid, q, p), AliasResult::May);
        assert_eq!(andersen.alias(fid, q, r), AliasResult::No);
    }

    #[test]
    fn andersen_interprocedural_flow() {
        // id(p) returns its argument; q = id(a) aliases a, not b.
        let mut m = Module::new("t");
        let mut idb =
            FunctionBuilder::new("id", vec![("p", Type::I64.ptr_to())], Type::I64.ptr_to());
        let e = idb.entry_block();
        idb.switch_to(e);
        idb.ret(Some(Value::Arg(0)));
        let idf = m.add_function(idb.finish());

        let mut b = FunctionBuilder::new("caller", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let a = b.alloca(Type::I64);
        let bb = b.alloca(Type::I64);
        let q = b.call(idf, vec![a], Type::I64.ptr_to());
        b.ret(None);
        let fid = m.add_function(b.finish());
        let andersen = AndersenAlias::new(&m);
        assert_eq!(andersen.alias(fid, q, a), AliasResult::May);
        assert_eq!(andersen.alias(fid, q, bb), AliasResult::No);
    }

    #[test]
    fn andersen_resolves_indirect_callees() {
        // fp = select c, @f1, @f2; call fp() — callees = {f1, f2}.
        let mut m = Module::new("t");
        let mut f1 = FunctionBuilder::new("f1", vec![], Type::Void);
        let e = f1.entry_block();
        f1.switch_to(e);
        f1.ret(None);
        let f1 = m.add_function(f1.finish());
        let mut f2 = FunctionBuilder::new("f2", vec![], Type::Void);
        let e = f2.entry_block();
        f2.switch_to(e);
        f2.ret(None);
        let f2 = m.add_function(f2.finish());
        let mut f3 = FunctionBuilder::new("f3", vec![], Type::Void);
        let e = f3.entry_block();
        f3.switch_to(e);
        f3.ret(None);
        let _f3 = m.add_function(f3.finish());

        let fty = Type::Func(std::sync::Arc::new(noelle_ir::types::FuncType {
            params: vec![],
            ret: Type::Void,
        }));
        let mut b = FunctionBuilder::new("caller", vec![("c", Type::I1)], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let fp = b.select(fty.ptr_to(), b.arg(0), Value::Func(f1), Value::Func(f2));
        let call = b.call_indirect(fp, vec![], Type::Void);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let andersen = AndersenAlias::new(&m);
        let callees = andersen.indirect_callees(fid, call.as_inst().unwrap());
        assert_eq!(callees, vec![f1, f2]);
    }

    #[test]
    fn malloc_results_are_distinct_objects() {
        let mut m = Module::new("t");
        let malloc = m.declare_function("malloc", vec![Type::I64], Type::I64.ptr_to());
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let p = b.call(malloc, vec![Value::const_i64(8)], Type::I64.ptr_to());
        let q = b.call(malloc, vec![Value::const_i64(8)], Type::I64.ptr_to());
        b.ret(None);
        let fid = m.add_function(b.finish());
        let andersen = AndersenAlias::new(&m);
        assert_eq!(andersen.alias(fid, p, q), AliasResult::No);
        let basic = BasicAlias::new(&m);
        assert_eq!(basic.alias(fid, p, q), AliasResult::No);
    }

    #[test]
    fn globals_distinct_and_stack_composes() {
        let mut m = Module::new("t");
        let g1 = m.add_global(Global {
            name: "g1".into(),
            ty: Type::I64,
            init: GlobalInit::Zero,
            is_const: false,
        });
        let g2 = m.add_global(Global {
            name: "g2".into(),
            ty: Type::I64,
            init: GlobalInit::Zero,
            is_const: false,
        });
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let stack = AliasStack::new(vec![&basic, &andersen]);
        assert_eq!(
            stack.alias(fid, Value::Global(g1), Value::Global(g2)),
            AliasResult::No
        );
        assert_eq!(
            stack.alias(fid, Value::Global(g1), Value::Global(g1)),
            AliasResult::Must
        );
    }

    #[test]
    fn base_objects_honor_bucketing_contract() {
        let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let p = b.alloca(Type::I64);
        let q = b.alloca(Type::I64);
        b.ret(None);
        let (m, fid) = module_with(b.finish());
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let stack = AliasStack::new(vec![&basic as &dyn AliasAnalysis, &andersen]);
        for aa in [&basic as &dyn AliasAnalysis, &andersen, &stack] {
            let sp = aa.base_objects(fid, p).expect("alloca base is known");
            let sq = aa.base_objects(fid, q).expect("alloca base is known");
            // Disjoint known sets must imply a `No` answer.
            assert!(sp.intersection(&sq).next().is_none());
            assert_eq!(aa.alias(fid, p, q), AliasResult::No, "{}", aa.name());
        }
        // An incoming argument has no bounded base set under the basic tier.
        assert_eq!(basic.base_objects(fid, Value::Arg(0)), None);
    }

    #[test]
    fn unknown_external_pointer_is_conservative() {
        let mut m = Module::new("t");
        let ext = m.declare_function("mystery", vec![], Type::I64.ptr_to());
        let mut b = FunctionBuilder::new("f", vec![("p", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let q = b.call(ext, vec![], Type::I64.ptr_to());
        b.ret(None);
        let fid = m.add_function(b.finish());
        let andersen = AndersenAlias::new(&m);
        assert_eq!(andersen.alias(fid, q, Value::Arg(0)), AliasResult::May);
    }

    /// Solve `before`, edit it into `after` (same functions in the same
    /// order, possibly more at the end) declaring `touched`, and demand
    /// that the updated solution is the one a from-scratch solve of `after`
    /// finds — and that the update reported exactly the untouched functions
    /// whose rows differ between the two from-scratch solves.
    fn update_matches_fresh(before: &str, after: &str, touched: &[&str]) -> AndersenUpdate {
        let (a, b) = (parse_module(before).unwrap(), parse_module(after).unwrap());
        let touched: BTreeSet<FuncId> = touched
            .iter()
            .map(|name| b.func_id_by_name(name).expect("touched function exists"))
            .collect();
        let mut kept = AndersenAlias::new(&a);
        let old_rows = kept.rows_by_function();
        let update = kept.update(&b, &touched);
        let fresh = AndersenAlias::new(&b);
        let fresh_rows = fresh.rows_by_function();
        assert_eq!(kept.rows_by_function(), fresh_rows);
        for fid in b.func_ids() {
            for id in b.func(fid).inst_ids() {
                assert_eq!(
                    kept.indirect_callees(fid, id),
                    fresh.indirect_callees(fid, id)
                );
                // Raw sets too: an untracked value and an empty row answer
                // alias queries alike but render differently.
                let v = Value::Inst(id);
                assert_eq!(kept.points_to(fid, v), fresh.points_to(fid, v));
            }
            for i in 0..b.func(fid).params.len() as u32 {
                let v = Value::Arg(i);
                assert_eq!(kept.points_to(fid, v), fresh.points_to(fid, v));
            }
        }
        let moved: Vec<FuncId> = a
            .func_ids()
            .filter(|fid| !touched.contains(fid) && old_rows.get(fid) != fresh_rows.get(fid))
            .collect();
        assert_eq!(update.changed, moved);
        update
    }

    #[test]
    fn update_after_a_body_edit_regenerates_one_block() {
        // `pick` returns its first argument, then its second: the untouched
        // caller's call result moves from {a} to {b}.
        let module = |ret: &str| {
            format!(
                r#"
module "m" {{
define i64* @pick(i64* %p, i64* %q) {{
entry:
  ret {ret}
}}
define i64 @user() {{
entry:
  %a = alloca i64, i64 1
  %b = alloca i64, i64 1
  %r = call i64* @pick(%a, %b)
  %v = load i64, %r
  ret %v
}}
define i64 @bystander(i64* %x) {{
entry:
  %v = load i64, %x
  ret %v
}}
}}
"#
            )
        };
        let u = update_matches_fresh(&module("%p"), &module("%q"), &["pick"]);
        assert_eq!(u.regenerated, 1);
        assert_eq!(u.changed.len(), 1, "only @user's rows move: {u:?}");
    }

    #[test]
    fn update_after_a_deleted_call_makes_the_callee_a_root() {
        // With the call gone nothing binds `leaf`'s argument any more: it
        // arrives from outside the program and may point anywhere.
        let module = |call: &str| {
            format!(
                r#"
module "m" {{
define i64 @leaf(i64* %p) {{
entry:
  %q = gep i64, %p, i64 1
  %v = load i64, %q
  ret %v
}}
define i64 @main() {{
entry:
  %a = alloca i64, i64 4
  {call}
  ret i64 0
}}
}}
"#
            )
        };
        let u = update_matches_fresh(
            &module("%r = call i64 @leaf(%a)"),
            &module("%r = add i64 i64 1, i64 2"),
            &["main"],
        );
        assert_eq!(u.regenerated, 1);
        let m = parse_module(&module("")).unwrap();
        assert_eq!(u.changed, vec![m.func_id_by_name("leaf").unwrap()]);
    }

    #[test]
    fn update_after_a_function_becomes_address_taken() {
        // `cb` starts as a root (argument unknown); once `main` stores its
        // address it is referenced, and only call sites bind the argument.
        let module = |store: &str| {
            format!(
                r#"
module "m" {{
define i64 @cb(i64* %p) {{
entry:
  %q = gep i64, %p, i64 0
  %v = load i64, %q
  ret %v
}}
define i64 @main() {{
entry:
  %cell = alloca fn i64 (i64*)*, i64 1
  {store}
  ret i64 0
}}
}}
"#
            )
        };
        let u = update_matches_fresh(
            &module(""),
            &module("store fn i64 (i64*)* @cb, %cell"),
            &["main"],
        );
        assert_eq!(u.regenerated, 1);
    }

    #[test]
    fn update_after_a_signature_change_regenerates_every_block() {
        // `sink` gains a pointer parameter. `user`'s retained block was
        // generated against the old signature, so nothing is reused.
        let module = |params: &str, args: &str| {
            format!(
                r#"
module "m" {{
define void @sink({params}) {{
entry:
  ret void
}}
define void @main() {{
entry:
  %a = alloca i64, i64 1
  %b = alloca i64, i64 1
  call void @sink({args})
  ret void
}}
define void @user() {{
entry:
  %c = alloca i64, i64 1
  call void @sink(%c)
  ret void
}}
}}
"#
            )
        };
        let u = update_matches_fresh(
            &module("i64* %p", "%a"),
            &module("i64* %p, i64* %q", "%a, %b"),
            &["sink", "main"],
        );
        assert_eq!(u.regenerated, 3);
    }

    #[test]
    fn update_after_an_appended_declaration() {
        // What the parallelizers do: outline a task, declare the dispatch
        // intrinsic, and pass it the task's address and the environment.
        let before = r#"
module "m" {
define i64 @main() {
entry:
  %env = alloca i64, i64 4
  %v = load i64, %env
  ret %v
}
define i64 @other(i64* %p) {
entry:
  %v = load i64, %p
  ret %v
}
}
"#;
        let after = r#"
module "m" {
define i64 @main() {
entry:
  %env = alloca i64, i64 4
  call void @noelle.task.dispatch(@main.task, %env, i64 4)
  %v = load i64, %env
  ret %v
}
define i64 @other(i64* %p) {
entry:
  %v = load i64, %p
  ret %v
}
define void @main.task(i64* %e, i64 %id, i64 %n) {
entry:
  %slot = gep i64, %e, %id
  store i64 %n, %slot
  ret void
}
declare void @noelle.task.dispatch(fn void (i64*, i64, i64)* %task, i64* %env, i64 %n)
}
"#;
        let u = update_matches_fresh(before, after, &["main"]);
        assert_eq!(u.regenerated, 3, "main, the task and the declaration");
        assert!(u.changed.is_empty());
    }

    #[test]
    fn update_re_resolves_indirect_calls() {
        // The function pointer narrows from {f1, f2} to {f1}: the call's
        // result (a var minted while solving) must narrow with it.
        let module = |fval: &str| {
            format!(
                r#"
module "m" {{
global @g1 : i64 = i64 0
global @g2 : i64 = i64 0
define i64* @f1() {{
entry:
  ret @g1
}}
define i64* @f2() {{
entry:
  ret @g2
}}
define i64 @main(i1 %c) {{
entry:
  %fp = select fn i64* ()* %c, @f1, {fval}
  %r = call i64* %fp()
  %v = load i64, %r
  ret %v
}}
}}
"#
            )
        };
        let u = update_matches_fresh(&module("@f2"), &module("@f1"), &["main"]);
        assert_eq!(u.regenerated, 1);
    }

    #[test]
    fn update_reports_untouched_callers_of_a_retargeted_pointer() {
        // The indirect call sits in an untouched function; which function
        // it reaches is decided by a store elsewhere. Its result's row
        // exists only as long as the solve resolves the call, and must be
        // reported when it moves.
        let module = |target: &str| {
            format!(
                r#"
module "m" {{
global @g1 : i64 = i64 0
global @g2 : i64 = i64 0
define i64* @f1() {{
entry:
  ret @g1
}}
define i64* @f2() {{
entry:
  ret @g2
}}
define void @init(fn i64* ()** %cell) {{
entry:
  store fn i64* ()* {target}, %cell
  ret void
}}
define i64 @caller(fn i64* ()** %cell) {{
entry:
  %fp = load fn i64* ()*, %cell
  %r = call i64* %fp()
  %v = load i64, %r
  ret %v
}}
define i64 @main() {{
entry:
  %cell = alloca fn i64* ()*, i64 1
  call void @init(%cell)
  %v = call i64 @caller(%cell)
  ret %v
}}
}}
"#
            )
        };
        let u = update_matches_fresh(&module("@f1"), &module("@f2"), &["init"]);
        assert_eq!(u.regenerated, 1);
        let m = parse_module(&module("@f1")).unwrap();
        assert_eq!(u.changed, vec![m.func_id_by_name("caller").unwrap()]);
        // Retargeted at nothing, the call resolves nowhere and the row goes.
        let u = update_matches_fresh(&module("@f1"), &module("null"), &["init"]);
        assert_eq!(u.changed, vec![m.func_id_by_name("caller").unwrap()]);
    }

    #[test]
    fn rows_codec_round_trips() {
        let mut rows = PointsToRows::new();
        rows.insert(
            (0, 3),
            BTreeSet::from([
                MemoryObject::Global(GlobalId(1)),
                MemoryObject::Alloca(FuncId(0), InstId(7)),
            ]),
        );
        rows.insert(
            (0, 9),
            BTreeSet::from([MemoryObject::Heap(FuncId(2), InstId(4))]),
        );
        rows.insert(
            (1, 0),
            BTreeSet::from([MemoryObject::Function(FuncId(5)), MemoryObject::Unknown]),
        );
        let bytes = encode_rows(&rows);
        let decoded = decode_rows(&bytes).unwrap();
        assert_eq!(decoded, rows);
        assert_eq!(encode_rows(&decoded), bytes);
        // Empty rows round-trip too.
        let empty = PointsToRows::new();
        assert_eq!(decode_rows(&encode_rows(&empty)).unwrap(), empty);
    }

    #[test]
    fn rows_codec_rejects_malformed() {
        let mut rows = PointsToRows::new();
        rows.insert((0, 1), BTreeSet::from([MemoryObject::Global(GlobalId(0))]));
        rows.insert((1, 2), BTreeSet::from([MemoryObject::Unknown]));
        let bytes = encode_rows(&rows);
        for cut in 0..bytes.len() {
            assert!(decode_rows(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_rows(&long).is_err());
        // Out-of-domain key space and object tag.
        let mut w = ByteWriter::new();
        w.varint(1);
        w.u8(2); // key space must be 0 or 1
        w.varint(0);
        w.varint(0);
        assert!(decode_rows(&w.into_bytes()).is_err());
        let mut w = ByteWriter::new();
        w.varint(1);
        w.u8(0);
        w.varint(0);
        w.varint(1);
        w.u8(9); // bad object tag
        assert!(decode_rows(&w.into_bytes()).is_err());
        // Non-canonical key order (duplicate key) rejected, so equal rows
        // have exactly one encoding.
        let mut w = ByteWriter::new();
        w.varint(2);
        for _ in 0..2 {
            w.u8(0);
            w.varint(5);
            w.varint(1);
            w.u8(4);
        }
        assert!(decode_rows(&w.into_bytes()).is_err());
    }

    #[test]
    fn live_rows_encode_deterministically() {
        let m = parse_module(
            r#"
module "rows" {
global @g : i64 = i64 0
define i64 @f(i64* %p) {
entry:
  %a = alloca i64, i64 1
  store i64 i64 1, %p
  store i64 i64 2, %a
  %v = load i64, @g
  ret %v
}
}
"#,
        )
        .unwrap();
        let andersen = AndersenAlias::new(&m);
        for rows in AndersenAlias::new(&m).rows_by_function().values() {
            let bytes = encode_rows(rows);
            assert_eq!(&decode_rows(&bytes).unwrap(), rows);
        }
        // Two independent solves of the same module encode identically.
        let a = andersen.rows_by_function();
        let b = AndersenAlias::new(&m).rows_by_function();
        for (fid, rows) in &a {
            assert_eq!(encode_rows(rows), encode_rows(&b[fid]));
        }
    }
}
