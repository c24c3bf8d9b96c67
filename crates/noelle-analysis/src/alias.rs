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
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, GlobalId, Module};
use noelle_ir::types::Type;
use noelle_ir::value::{Constant, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

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
    fn as_function(&self) -> Option<FuncId> {
        match *self {
            MemoryObject::Function(f) => Some(f),
            _ => None,
        }
    }
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

    /// [`AliasAnalysis::alias`] working in `scratch`'s buffers instead of
    /// its own: the same answer, for callers that ask many questions.
    fn alias_in(&self, fid: FuncId, a: Value, b: Value, scratch: &mut BaseObjects) -> AliasResult {
        let _ = scratch;
        self.alias(fid, a, b)
    }

    /// The abstract objects pointer `ptr` may address: `true` with them in
    /// `out` ([`BaseObjects::objects`]), or `false` when the analysis cannot
    /// bound them. The contract consumed by the PDG's base-object bucketing:
    /// whenever `base_objects` answers disjoint sets for two pointers,
    /// `alias` on that pair returns [`AliasResult::No`] — so the pair can be
    /// skipped without querying.
    ///
    /// Every buffer a query works in is `out`'s, so a caller asking about
    /// many pointers through one `out` pays for the buffers once.
    fn base_objects(&self, fid: FuncId, ptr: Value, out: &mut BaseObjects) -> bool {
        let _ = (fid, ptr, out);
        false
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The caller's buffers for [`AliasAnalysis::base_objects`] and
/// [`AliasAnalysis::alias_in`]: the answer of the last base-object query
/// and the scratch the tiers fill on the way to it. They keep their
/// capacity across queries.
#[derive(Debug, Default)]
pub struct BaseObjects {
    /// The last answer, sorted and deduplicated.
    objs: Vec<MemoryObject>,
    /// Answers held while another fills `objs` ([`BaseObjects::hold`]),
    /// and the spare buffers they leave when given back.
    held: Vec<Vec<MemoryObject>>,
    /// The values the basic tier's walk visited.
    visited: Vec<Value>,
}

impl BaseObjects {
    /// Empty buffers.
    pub fn new() -> BaseObjects {
        BaseObjects::default()
    }

    /// The objects of the last query that answered `true`, sorted and
    /// deduplicated.
    pub fn objects(&self) -> &[MemoryObject] {
        &self.objs
    }

    /// Make `objs` the answer: what a tier does before it returns `true`.
    fn set(&mut self, objs: impl IntoIterator<Item = MemoryObject>) {
        self.objs.clear();
        self.objs.extend(objs);
        self.objs.sort_unstable();
        self.objs.dedup();
    }

    /// Take the answer out, leaving a spare buffer in its place: how a
    /// query that compares two answers keeps the first while the second
    /// fills `objs`.
    fn hold(&mut self) -> Vec<MemoryObject> {
        let spare = self.held.pop().unwrap_or_default();
        std::mem::replace(&mut self.objs, spare)
    }

    /// Give back a buffer [`BaseObjects::hold`] took.
    fn release(&mut self, buf: Vec<MemoryObject>) {
        self.held.push(buf);
    }
}

// ---------------------------------------------------------------------------
// Underlying objects
// ---------------------------------------------------------------------------

/// True when the address of alloca `id` escapes the direct load/store
/// idiom in `f`: used as a stored *value*, a call argument, a `gep` base,
/// a cast source, or any other position besides the pointer operand of a
/// load or store. Non-escaping allocas have an exactly known access set,
/// which flow-sensitive clients (dead-store detection, scalar promotion)
/// require before trusting block-local reasoning.
pub fn alloca_address_taken(f: &noelle_ir::module::Function, id: InstId) -> bool {
    let a = Value::Inst(id);
    for other in f.inst_iter() {
        let uses_a = match f.inst(other) {
            // The pointer operand of a load (its only operand) is the
            // non-escaping use.
            Inst::Load { .. } => false,
            Inst::Store { val, .. } => *val == a,
            _ => f.inst(other).uses(a),
        };
        if uses_a {
            return true;
        }
    }
    false
}

/// The syntactic base(s) of a pointer value, chased through `gep`s, pointer
/// casts, `select`s and `phi`s (bounded depth), sorted and deduplicated.
/// [`MemoryObject::Unknown`] stands for a base the walk cannot name; it
/// sorts last, so "contains unknown" is a last-element check.
pub fn underlying_objects(m: &Module, fid: FuncId, v: Value) -> Vec<MemoryObject> {
    let mut out = BaseObjects::new();
    walk_bases(m, fid, v, &mut out);
    out.objs
}

/// [`underlying_objects`] into `out`'s answer.
fn walk_bases(m: &Module, fid: FuncId, v: Value, out: &mut BaseObjects) {
    out.objs.clear();
    out.visited.clear();
    collect_bases(m, fid, v, &mut out.objs, &mut out.visited, 32);
    out.objs.sort_unstable();
    out.objs.dedup();
}

/// True when a sorted base set names every base: non-empty, and without
/// [`MemoryObject::Unknown`].
fn all_known(objs: &[MemoryObject]) -> bool {
    objs.last().is_some_and(|&o| o != MemoryObject::Unknown)
}

fn collect_bases(
    m: &Module,
    fid: FuncId,
    v: Value,
    out: &mut Vec<MemoryObject>,
    visited: &mut Vec<Value>,
    fuel: u32,
) {
    // The walk is fuel-bounded, so the visited list stays small and a linear
    // scan beats hashing.
    if fuel == 0 || visited.contains(&v) {
        out.push(MemoryObject::Unknown);
        return;
    }
    visited.push(v);
    let f = m.func(fid);
    match v {
        Value::Global(g) => {
            out.push(MemoryObject::Global(g));
        }
        Value::Func(callee) => {
            out.push(MemoryObject::Function(callee));
        }
        Value::Const(_) => {
            // Null / undef / integer constants: no object.
        }
        Value::Arg(_) => {
            out.push(MemoryObject::Unknown);
        }
        Value::Inst(id) => match f.inst(id) {
            Inst::Alloca { .. } => {
                out.push(MemoryObject::Alloca(fid, id));
            }
            Inst::Gep { base, .. } => collect_bases(m, fid, *base, out, visited, fuel - 1),
            Inst::Cast {
                op: noelle_ir::inst::CastOp::Bitcast,
                val,
                ..
            } => collect_bases(m, fid, *val, out, visited, fuel - 1),
            Inst::Cast { .. } => {
                out.push(MemoryObject::Unknown);
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
                    if crate::modref::is_allocator(&m.func(*cid).name) {
                        out.push(MemoryObject::Heap(fid, id));
                        return;
                    }
                }
                out.push(MemoryObject::Unknown);
            }
            _ => {
                out.push(MemoryObject::Unknown);
            }
        },
    }
}

/// True when two sorted, deduplicated slices share no element.
pub fn sorted_disjoint<T: Ord>(a: &[T], b: &[T]) -> bool {
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

    /// The underlying-object rules over two pointers' sorted base sets.
    fn disjoint_bases(&self, oa: &[MemoryObject], ob: &[MemoryObject]) -> bool {
        let (a_known, b_known) = (all_known(oa), all_known(ob));
        if a_known && b_known {
            return sorted_disjoint(oa, ob);
        }
        if !a_known && !b_known {
            return false;
        }
        // One side is a set of identified function-local objects, the other
        // is unknown (e.g. an incoming argument). A fresh alloca cannot be
        // addressed by a pointer that existed before it (LLVM's
        // non-escaping-alloca rule); globals, by contrast, can.
        let known = if a_known { oa } else { ob };
        known.iter().all(|o| match *o {
            MemoryObject::Alloca(f2, i) | MemoryObject::Heap(f2, i) => {
                !object_escapes(self.module, f2, i)
            }
            _ => false,
        })
    }
}

impl AliasAnalysis for BasicAlias<'_> {
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult {
        self.alias_in(fid, a, b, &mut BaseObjects::new())
    }

    fn alias_in(&self, fid: FuncId, a: Value, b: Value, scratch: &mut BaseObjects) -> AliasResult {
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
                let size = |v| {
                    let view = f.type_view(self.module, v);
                    view.pointee().map_or(1, Type::size_bytes) as i64
                };
                let (sa, sb) = (size(a), size(b));
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

        // Underlying-object rules, `a`'s bases held while `b`'s are walked.
        walk_bases(self.module, fid, a, scratch);
        let oa = scratch.hold();
        walk_bases(self.module, fid, b, scratch);
        let disjoint = self.disjoint_bases(&oa, scratch.objects());
        scratch.release(oa);
        if disjoint {
            return AliasResult::No;
        }

        // Strict-aliasing (TBAA-lite): distinct scalar pointee types do not
        // alias.
        let f = self.module.func(fid);
        let (ta, tb) = (f.type_view(self.module, a), f.type_view(self.module, b));
        if let (Some(pa), Some(pb)) = (ta.pointee(), tb.pointee()) {
            if pa.is_scalar() && pb.is_scalar() && pa != pb {
                return AliasResult::No;
            }
        }

        AliasResult::May
    }

    fn base_objects(&self, fid: FuncId, ptr: Value, out: &mut BaseObjects) -> bool {
        // Sound for bucketing because the underlying-object rule in `alias`
        // answers `No` on any pair of fully-known disjoint base sets, and the
        // earlier const-gep rules only produce `Must`/`May` for pointers
        // sharing a base (hence sharing base objects).
        walk_bases(self.module, fid, ptr, out);
        all_known(&out.objs)
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
/// Owner of a var no function's queries observe: return values, object
/// contents, the synthetic vars.
const NO_OWNER: u32 = u32::MAX;
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
        } else if crate::modref::is_allocator(&f.name) {
            ExternClass::Alloc
        } else if crate::modref::external_effects(&f.name).opaque_pointers {
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
/// the solver's dense ids. A regenerated block keeps the var of every
/// instruction slot it still uses, so an edit that left a constraint alone
/// regenerates it bit for bit and [`Solver::diff_block`] finds it unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
    /// An indirect call of the block's function through the pointer `fp`,
    /// bound to a callee for every function `pts(fp)` comes to hold.
    Site { fp: u32, inst: InstId },
    /// The two halves of a fingerprint of an indirect call and its argument
    /// list. A site's bindings are generated from the call's arguments, not
    /// from its `Site`, so this is what makes a call whose arguments moved
    /// differ from its old self. It constrains nothing.
    Actuals(u32, u32),
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

/// What hangs off a var that something dereferences or calls through, and
/// how far the solver has acted on it.
#[derive(Default)]
struct Deref {
    /// `(false, dst)` for every `dst = load v`, `(true, src)` for every
    /// `store src, v`.
    uses: Vec<(bool, u32)>,
    /// Indirect call sites whose callee operand is `v`.
    sites: Vec<(FuncId, InstId)>,
    /// The part of `pts(v)` acted on: for every object in it, the copy edge
    /// each use above stands for ([`derived`]) is in the graph and each
    /// site is bound to it if it is a function. Equal to `pts(v)` whenever
    /// the solver is at rest.
    done: BitSet,
}

/// The copy edge a load or store through a pointer to an object with
/// content var `content` stands for: `content → dst`, or `src → content`.
fn derived((is_store, var): (bool, u32), content: u32) -> (u32, u32) {
    if is_store {
        (var, content)
    } else {
        (content, var)
    }
}

/// What the solver keeps per var beside its row.
#[derive(Clone, Copy)]
struct Var {
    /// The function whose queries observe the var — its instruction and
    /// argument vars — or [`NO_OWNER`].
    owner: u32,
    /// Is the var observable? An instruction var is; an argument var once a
    /// constraint mentions it or its function is a root. An argument nothing
    /// mentions is untracked ("may point anywhere"), as if it had no var.
    live: bool,
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
    /// Rows emptied and re-derived: every non-empty row when the edit took
    /// a constraint away, none when it only added some.
    pub reset: usize,
}

/// Whole-program Andersen points-to analysis and the alias interface on top.
///
/// The analysis keeps the constraint system it solved and the solution,
/// and [`AndersenAlias::update`] moves both by what an edit changed:
///
/// - **Blocks.** One constraint block per function, stored flat (one
///   constraint array, one instruction-var table, per-function ranges into
///   both). A block is a pure function of its function's body and of the
///   [`Signature`]s of the functions that body mentions, so only the touched
///   functions' blocks are regenerated, and only the constraints a block's
///   new version has and its old one had not are applied.
/// - **Graph.** What the blocks describe, kept sparse — most vars have no
///   edge at all: copy successors as an ordered set of pairs, and per
///   dereferenced var its loads, stores and indirect call sites ([`Deref`])
///   with how much of its row the edges and call bindings *derived* from
///   it cover.
/// - **Rows.** Sparse bitsets over object ids ([`BitSet`]), in place across
///   updates. The system is monotone, so added constraints only grow rows
///   and one worklist carries them to the new least fixpoint. A constraint
///   taken *away* is the one thing rows cannot follow — which objects a row
///   held only because of it is not recorded — so such an edit empties
///   every row and the graph and adds every retained block again, through
///   the same worklist.
///
/// [`AndersenAlias::new`] is an update from the empty system. The inclusion
/// system has a unique least fixpoint, so neither the worklist's order nor
/// the sequence of edits that led to a system can show in the rows.
pub struct AndersenAlias {
    /// Points-to row of every var, by var id.
    pts: Vec<BitSet>,
    /// Who observes each var, by var id.
    vars: Vec<Var>,
    objects: Vec<MemoryObject>,
    obj_ids: HashMap<MemoryObject, usize>,
    /// Var holding the contents of each object, by object id: [`NO_VAR`]
    /// until something is loaded from or stored to the object through a
    /// pointer.
    content_of: Vec<u32>,
    /// Copy edges `(from, to)`, the blocks' and the derived ones alike.
    succ: BTreeSet<(u32, u32)>,
    /// Vars with a load, store or indirect call hanging off them.
    deref: HashMap<u32, Deref>,
    /// The callees every indirect call site of the current system is bound
    /// to.
    bindings: HashMap<(FuncId, InstId), BTreeSet<FuncId>>,
    /// Instruction vars minted *while binding* (results and arguments of
    /// resolved indirect calls that no block constraint names). They depend
    /// on the solution, so they live outside the retained tables.
    solve_locals: HashMap<(FuncId, InstId), u32>,
    /// Shared synthetic vars for address-constant operands, by object id.
    /// These vars only ever grow *out*-edges (load/store lists, copy edges
    /// to call results), so their rows stay exactly the seeded singleton —
    /// one var per global or function is equivalent to a fresh var per use.
    addr_vars: HashMap<usize, u32>,
    /// Var ids released by earlier updates: empty rows, no edges.
    free_vars: Vec<u32>,
    /// Globals whose objects exist (a prefix of the module's).
    globals_seen: usize,
    /// Per function: the signature its callers' blocks were generated
    /// against.
    sigs: Vec<Signature>,
    /// Per function: var of its first argument. Argument `i` is
    /// `arg_base + i`, the return value `arg_base + n_params`.
    arg_base: Vec<u32>,
    /// Per function: does a `Ref` name it? A defined function nothing
    /// references is a root.
    referenced: Vec<bool>,
    blocks: Vec<Block>,
    constraints: Vec<Constraint>,
    local_vars: Vec<u32>,
    /// The worklist state of the last update, empty, for the next.
    buffers: SolverBuffers,
}

/// The working storage of an update that outlives none: kept by the
/// analysis between updates and empty between them, so an edit's update
/// reuses what the last one grew. The worklist and its marks a pass over
/// the whole system sized (the cold solve, a start-over) are given back.
#[derive(Default)]
struct SolverBuffers {
    /// The arguments of the function under generation already marked live
    /// by its block.
    arg_seen: Vec<bool>,
    /// Constraints the new blocks have and the old ones had not.
    added: Vec<(FuncId, Constraint)>,
    /// One bit per var, grown on demand: is it on the worklist?
    queued: Vec<u64>,
    queue: VecDeque<u32>,
    /// Vars no block names any more; reusable once the update is over. A
    /// constraint on one was a deletion, so either it had none or the rows
    /// started over: it is empty and has no edge.
    released: Vec<u32>,
    /// The `solve_locals` of before the rows started over. A site bound
    /// again to what it was bound to takes its vars back, so that its rows
    /// compare with what they were; the rest are released.
    unbound: HashMap<(FuncId, InstId), u32>,
    scratch: Vec<u32>,
    /// The objects a visited var's row gained.
    fresh: Vec<usize>,
    /// A regenerated block's old and new version, sorted.
    old_block: Vec<Constraint>,
    new_block: Vec<Constraint>,
}

/// One update: generation of the stale blocks, then the worklist state that
/// lives only until the fixpoint is reached.
struct Solver<'a> {
    m: &'a Module,
    a: &'a mut AndersenAlias,
    touched: &'a BTreeSet<FuncId>,
    /// Functions the previous solution knew.
    known: usize,
    /// The function whose block is being generated or, once the blocks
    /// are, whose call site is being bound.
    func: FuncId,
    /// A block is being generated: constraints go into the table. While a
    /// site is being bound they go straight into the graph.
    generating: bool,
    /// Start of that function's table in `local_vars`.
    gen_locals: usize,
    /// Its previous table, whose vars the new one takes over slot by slot.
    gen_old: &'a [u32],
    /// The edit took something away: the rows start over.
    retracted: bool,
    /// Non-empty rows that emptied.
    reset: usize,
    /// Row and liveness, as the update found them, of every var of an
    /// untouched function whose row or liveness it changed.
    before: HashMap<u32, (BitSet, bool)>,
    /// The analysis's kept buffers, lent for the update.
    buf: SolverBuffers,
}

impl<'a> Solver<'a> {
    /// Record a generated constraint: into the block under generation, or,
    /// while a call site is being bound, straight into the graph.
    fn emit(&mut self, c: Constraint) {
        if self.generating {
            self.a.constraints.push(c);
        } else {
            self.add(self.func, c);
        }
    }

    /// Var of the result of instruction `id` of `fid`.
    fn local_var(&mut self, fid: FuncId, id: InstId) -> u32 {
        debug_assert_eq!(self.func, fid, "a function names its own instructions");
        if self.generating {
            let slot = self.gen_locals + id.index();
            if self.a.local_vars[slot] == NO_VAR {
                // The slot's var of before, be it one only a call binding
                // had minted.
                let old = self.gen_old.get(id.index()).filter(|&&v| v != NO_VAR);
                let old = old
                    .copied()
                    .or_else(|| self.a.solve_locals.remove(&(fid, id)));
                self.a.local_vars[slot] = old.unwrap_or_else(|| self.a.take_var(fid.0));
            }
            return self.a.local_vars[slot];
        }
        let v = self.a.local_var(fid, id);
        if v != NO_VAR {
            return v;
        }
        // Minted for the binding, and shared with the function's others.
        let v = self.buf.unbound.remove(&(fid, id));
        let v = v.unwrap_or_else(|| self.a.take_var(fid.0));
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
        let own = self.generating && self.func == fid;
        if !(own && std::mem::replace(&mut self.buf.arg_seen[i as usize], true)) {
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
    /// at the end of the flat tables. An instruction slot the previous
    /// table `old` had a var for keeps that var if the new block asks for
    /// the slot; the vars it does not ask for are released.
    fn gen_function(&mut self, fid: FuncId, old: &'a [u32]) {
        let m: &'a Module = self.m;
        let f = m.func(fid);
        let cons_start = self.a.constraints.len();
        let locals_start = self.a.local_vars.len();
        if !f.is_declaration() {
            self.a
                .local_vars
                .resize(locals_start + f.inst_arena_len(), NO_VAR);
            (self.func, self.generating) = (fid, true);
            self.gen_locals = locals_start;
            self.gen_old = old;
            self.buf.arg_seen.clear();
            self.buf.arg_seen.resize(f.params.len(), false);
            for &b in f.block_order() {
                for &id in &f.block(b).insts {
                    self.gen_inst(fid, id);
                }
            }
            self.generating = false;
        }
        let new = &self.a.local_vars[locals_start..];
        for (slot, &v) in old.iter().enumerate() {
            if v != NO_VAR && new.get(slot) != Some(&v) {
                self.buf.released.push(v);
            }
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
                    let fp = self.value_var(fid, *fp);
                    self.emit(Constraint::Site { fp, inst: id });
                    let mut h = DefaultHasher::new();
                    (id, args).hash(&mut h);
                    let h = h.finish();
                    self.emit(Constraint::Actuals(h as u32, (h >> 32) as u32));
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
            // An address constant's var never gains an in-edge (use sites
            // only append to its load/store lists or copy *out* of it), so
            // its row stays the seeded `{Global(g)}` for good and one var
            // can serve every use of `@g`.
            Value::Global(g) => self.a.address_var(MemoryObject::Global(g)),
            Value::Func(f2) => self.a.address_var(MemoryObject::Function(f2)),
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

    /// Set the old and new version of `fid`'s block against each other, as
    /// multisets: what only the new one holds is added; anything only the
    /// old one holds is what the edit retracted.
    fn diff_block(&mut self, fid: FuncId, old: &[Constraint]) {
        let cons = span(self.a.blocks[fid.index()].cons);
        if self.retracted || *old == self.a.constraints[cons.clone()] {
            return;
        }
        if old.is_empty() {
            for k in cons {
                self.stage(fid, self.a.constraints[k]);
            }
            return;
        }
        let (mut olds, mut news) = (
            std::mem::take(&mut self.buf.old_block),
            std::mem::take(&mut self.buf.new_block),
        );
        olds.extend_from_slice(old);
        news.extend_from_slice(&self.a.constraints[cons]);
        olds.sort_unstable();
        news.sort_unstable();
        let mut old = olds.drain(..).peekable();
        for &c in &news {
            while old.next_if(|o| *o < c).is_some() {
                self.retracted = true;
            }
            if old.next_if_eq(&c).is_none() {
                self.stage(fid, c);
            }
        }
        self.retracted |= old.next().is_some();
        drop(old);
        news.clear();
        (self.buf.old_block, self.buf.new_block) = (olds, news);
    }

    /// A constraint the new version of `fid`'s block adds. The first
    /// reference to a root takes the `Unknown` out of its arguments, which
    /// is a retraction.
    fn stage(&mut self, fid: FuncId, c: Constraint) {
        if let Constraint::Ref(cid) = c {
            let i = cid.index();
            let defined = self.a.sigs[i].class == ExternClass::Defined;
            self.retracted |= i < self.known && defined && !self.a.referenced[i];
        }
        self.buf.added.push((fid, c));
    }

    /// Is `v` a var whose movement the update reports: one that a function
    /// the previous solution knew, and the edit did not touch, observes?
    fn watched(&self, v: u32) -> bool {
        let f = self.a.vars[v as usize].owner;
        (f as usize) < self.known && !self.touched.contains(&FuncId(f))
    }

    /// Remember `v`'s row and liveness as the update found them. Called
    /// before the first change to either.
    fn capture(&mut self, v: u32) {
        if self.watched(v) && !self.before.contains_key(&v) {
            let row = self.a.pts[v as usize].clone();
            self.before.insert(v, (row, self.a.vars[v as usize].live));
        }
    }

    fn enqueue(&mut self, v: u32) {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if self.buf.queued.len() <= word {
            self.buf.queued.resize(self.a.pts.len().div_ceil(64), 0);
        }
        if self.buf.queued[word] & bit == 0 {
            self.buf.queued[word] |= bit;
            self.buf.queue.push_back(v);
        }
    }

    /// `pts(to) ⊇ src`, queueing `to` if that grew it.
    fn absorb(&mut self, to: u32, src: &BitSet) {
        if !src.is_subset(&self.a.pts[to as usize]) {
            self.capture(to);
            self.a.pts[to as usize].union_with(src);
            self.enqueue(to);
        }
    }

    /// Something mentions the argument var `v`: queries observe it.
    fn mention(&mut self, v: u32) {
        if !self.a.vars[v as usize].live {
            self.capture(v);
            self.a.vars[v as usize].live = true;
        }
    }

    fn add_copy(&mut self, from: u32, to: u32) {
        if from != to && self.a.succ.insert((from, to)) {
            let row = std::mem::take(&mut self.a.pts[from as usize]);
            self.absorb(to, &row);
            self.a.pts[from as usize] = row;
        }
    }

    /// Enter one constraint of `fid` into the graph and let the rows
    /// follow.
    fn add(&mut self, fid: FuncId, c: Constraint) {
        match c {
            Constraint::Seed { var, obj } => {
                if !self.a.pts[var as usize].contains(obj as usize) {
                    self.capture(var);
                    self.a.pts[var as usize].insert(obj as usize);
                    self.enqueue(var);
                }
            }
            Constraint::Copy { from, to } => self.add_copy(from, to),
            Constraint::Load { ptr, dst: var } | Constraint::Store { ptr, src: var } => {
                let using = (matches!(c, Constraint::Store { .. }), var);
                let d = self.a.deref.entry(ptr).or_default();
                d.uses.push(using);
                // The new use stands for a copy edge per object served so
                // far. Adding those edges touches rows and content vars,
                // never a `Deref`, so the served set is lent out meanwhile.
                let done = std::mem::take(&mut d.done);
                for o in done.iter() {
                    let (from, to) = derived(using, self.a.content(o));
                    self.add_copy(from, to);
                }
                self.a.deref.entry(ptr).or_default().done = done;
                self.serve(ptr);
            }
            Constraint::Site { fp, inst } => {
                let site = (fid, inst);
                let d = self.a.deref.entry(fp).or_default();
                d.sites.push(site);
                let callees: Vec<FuncId> = (d.done.iter())
                    .filter_map(|o| self.a.objects[o].as_function())
                    .collect();
                self.a.bindings.insert(site, BTreeSet::new());
                for cid in callees {
                    self.bind(site, cid);
                }
                self.serve(fp);
            }
            Constraint::ArgLive(v) => self.mention(v),
            Constraint::Ref(cid) => self.a.referenced[cid.index()] = true,
            Constraint::Actuals(..) => {}
        }
    }

    /// Something new hangs off `ptr`: visit it if its row is ahead of what
    /// has been served.
    fn serve(&mut self, ptr: u32) {
        if !self.a.pts[ptr as usize].is_subset(&self.a.deref[&ptr].done) {
            self.enqueue(ptr);
        }
    }

    /// Bind the call `site` to one more callee its pointer came to hold.
    fn bind(&mut self, site: (FuncId, InstId), cid: FuncId) {
        let bound = self.a.bindings.get_mut(&site);
        if !bound.expect("a site has its binding").insert(cid) {
            return;
        }
        let m: &'a Module = self.m;
        let Inst::Call {
            callee: Callee::Indirect(_),
            args,
            ..
        } = m.func(site.0).inst(site.1)
        else {
            unreachable!("a site is an indirect call");
        };
        self.func = site.0;
        self.gen_direct_call(site.0, site.1, cid, args);
    }

    /// Make the pointer arguments of the root functions from `first` on
    /// hold `Unknown`: they arrive from outside the analyzed program.
    fn settle_roots(&mut self, first: usize) {
        let m: &'a Module = self.m;
        for i in first..self.a.sigs.len() {
            if self.a.sigs[i].class != ExternClass::Defined || self.a.referenced[i] {
                continue;
            }
            let fid = FuncId(i as u32);
            for (var, (_, ty)) in (self.a.arg_base[i]..).zip(&m.func(fid).params) {
                if ty.is_ptr() {
                    let obj = UNKNOWN_OBJ as u32;
                    self.mention(var);
                    self.add(fid, Constraint::Seed { var, obj });
                }
            }
        }
    }

    /// The edit took a constraint away, and which objects a row held only
    /// because of it is not recorded. Start over from what is retained:
    /// no graph, no rows but the address constants', and every block an
    /// addition (which the update enters from the tables).
    fn start_over(&mut self) {
        self.a.succ.clear();
        self.a.deref.clear();
        self.a.bindings.clear();
        std::mem::swap(&mut self.buf.unbound, &mut self.a.solve_locals);
        self.a.referenced.fill(false);
        for v in 0..self.a.pts.len() {
            let row = std::mem::take(&mut self.a.pts[v]);
            if !row.is_empty() {
                self.reset += 1;
                if self.watched(v as u32) {
                    self.before.insert(v as u32, (row, self.a.vars[v].live));
                }
            }
        }
        let a = &mut *self.a;
        for (&base, sig) in a.arg_base.iter().zip(&a.sigs) {
            for arg in &mut a.vars[base as usize..(base + sig.n_params) as usize] {
                arg.live = false;
            }
        }
        a.pts[UNKNOWN_SRC as usize].insert(UNKNOWN_OBJ);
        a.pts[UNKNOWN_CONTENT as usize].insert(UNKNOWN_OBJ);
        for (&o, &v) in &a.addr_vars {
            a.pts[v as usize].insert(o);
        }
        self.buf.added.clear();
    }

    /// One step of the worklist: serve what hangs off `v` for the objects
    /// its row gained, then push the row along `v`'s copy edges.
    fn visit(&mut self, v: u32) {
        self.buf.queued[v as usize / 64] &= !(1u64 << (v % 64));
        let row = &self.a.pts[v as usize];
        let behind = |d: &&mut Deref| !row.is_subset(&d.done);
        if let Some(d) = self.a.deref.get_mut(&v).filter(behind) {
            let mut fresh = std::mem::take(&mut self.buf.fresh);
            fresh.extend(row.iter().filter(|&o| !d.done.contains(o)));
            d.done.union_with(row);
            // The uses and sites are lent out while they are served. A
            // binding can hang new ones off `v`; those are served as they
            // are added, and go back after the ones served here.
            let (uses, sites) = (std::mem::take(&mut d.uses), std::mem::take(&mut d.sites));
            for &o in &fresh {
                for &using in &uses {
                    let (from, to) = derived(using, self.a.content(o));
                    self.add_copy(from, to);
                }
                if let Some(cid) = self.a.objects[o].as_function() {
                    for &site in &sites {
                        self.bind(site, cid);
                    }
                }
            }
            fresh.clear();
            self.buf.fresh = fresh;
            let d = self.a.deref.entry(v).or_default();
            let later = (
                std::mem::replace(&mut d.uses, uses),
                std::mem::replace(&mut d.sites, sites),
            );
            d.uses.extend(later.0);
            d.sites.extend(later.1);
        }
        let row = std::mem::take(&mut self.a.pts[v as usize]);
        let mut succs = std::mem::take(&mut self.buf.scratch);
        succs.extend(self.a.succ.range((v, 0)..=(v, u32::MAX)).map(|e| e.1));
        for s in succs.drain(..) {
            self.absorb(s, &row);
        }
        self.buf.scratch = succs;
        self.a.pts[v as usize] = row;
    }

    /// The fixpoint is reached: drop the vars nothing uses any more, and
    /// say which untouched functions see different rows.
    fn finish(mut self, regenerated: usize) -> AndersenUpdate {
        self.buf
            .released
            .extend(self.buf.unbound.drain().map(|(_, v)| v));
        let a = &mut *self.a;
        let mut changed = BTreeSet::new();
        for (&v, (row, was_live)) in &self.before {
            let then = was_live.then(|| bounded(row)).flatten();
            let now = a.vars[v as usize].live.then(|| bounded(&a.pts[v as usize]));
            if !same_rows(then, now.flatten()) {
                changed.insert(FuncId(a.vars[v as usize].owner));
            }
        }
        for &v in &self.buf.released {
            debug_assert!(a.pts[v as usize].is_empty(), "no block names it");
            a.vars[v as usize].owner = NO_OWNER;
        }
        a.free_vars.append(&mut self.buf.released);
        if self.retracted {
            // Sized by a pass over the whole system: an edit's update needs
            // a fraction of them.
            (self.buf.queued, self.buf.queue) = (Vec::new(), VecDeque::new());
        }
        self.buf.arg_seen.clear();
        debug_assert!(self.buf.added.is_empty() && self.buf.queue.is_empty());
        debug_assert!(
            self.buf.queued.iter().all(|&w| w == 0),
            "the worklist ran dry"
        );
        a.buffers = self.buf;
        AndersenUpdate {
            regenerated,
            changed: changed.into_iter().collect(),
            reset: self.reset,
        }
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

/// The row as queries observe it, or `None` when they cannot tell it from
/// "may address anything": an empty row, or one containing
/// [`MemoryObject::Unknown`].
fn bounded(row: &BitSet) -> Option<&BitSet> {
    (!row.is_empty() && !row.contains(UNKNOWN_OBJ)).then_some(row)
}

/// A non-empty points-to set as the solution holds it: a var's row, or the
/// one object of a value no row stands for.
enum Pts<'a> {
    Row(&'a BitSet),
    One(MemoryObject),
}

impl AndersenAlias {
    /// Run the whole-program points-to analysis over `m`: an
    /// [`AndersenAlias::update`] from the empty system, to which every
    /// function of `m` is new and every constraint an addition.
    pub fn new(m: &Module) -> AndersenAlias {
        let mut a = AndersenAlias {
            pts: Vec::new(),
            vars: Vec::new(),
            objects: vec![MemoryObject::Unknown],
            obj_ids: HashMap::from([(MemoryObject::Unknown, UNKNOWN_OBJ)]),
            content_of: vec![UNKNOWN_CONTENT],
            succ: BTreeSet::new(),
            deref: HashMap::new(),
            bindings: HashMap::new(),
            solve_locals: HashMap::new(),
            addr_vars: HashMap::new(),
            free_vars: Vec::new(),
            globals_seen: 0,
            sigs: Vec::new(),
            arg_base: Vec::new(),
            referenced: Vec::new(),
            blocks: Vec::new(),
            constraints: Vec::new(),
            local_vars: Vec::new(),
            buffers: SolverBuffers::default(),
        };
        assert_eq!(a.take_var(NO_OWNER), CONST_VAR);
        for v in [UNKNOWN_SRC, UNKNOWN_CONTENT] {
            assert_eq!(a.take_var(NO_OWNER), v);
            a.pts[v as usize].insert(UNKNOWN_OBJ);
        }
        a.update(m, &BTreeSet::new());
        // The per-var tables are the largest arrays the analysis retains:
        // give back what doubling over-reserved, less headroom for edits.
        let room = a.pts.len() + a.pts.len() / 4;
        a.pts.shrink_to(room);
        a.vars.shrink_to(room);
        a
    }

    /// `n` new vars with empty rows and no edges, observed by `owner`'s
    /// queries if `live`; the id of the first.
    fn push_vars(&mut self, n: u32, owner: u32, live: bool) -> u32 {
        let base = self.pts.len();
        let end = base + n as usize;
        assert!(end < NO_VAR as usize, "var ids are 32 bits");
        self.pts.resize(end, BitSet::new());
        self.vars.resize(end, Var { owner, live });
        base as u32
    }

    /// A var with an empty row and no edges, observed by `owner`'s queries
    /// as an instruction var when it has one: a released id when there is
    /// one, a new one otherwise.
    fn take_var(&mut self, owner: u32) -> u32 {
        let live = owner != NO_OWNER;
        let Some(v) = self.free_vars.pop() else {
            return self.push_vars(1, owner, live);
        };
        self.vars[v as usize] = Var { owner, live };
        v
    }

    /// The var that holds exactly the address of `o`, for good.
    fn address_var(&mut self, o: MemoryObject) -> u32 {
        let o = self.object(o);
        if let Some(&v) = self.addr_vars.get(&o) {
            return v;
        }
        let v = self.take_var(NO_OWNER);
        self.pts[v as usize].insert(o);
        self.addr_vars.insert(o, v);
        v
    }

    fn object(&mut self, o: MemoryObject) -> usize {
        if let Some(&i) = self.obj_ids.get(&o) {
            return i;
        }
        let i = self.objects.len();
        self.objects.push(o);
        self.obj_ids.insert(o, i);
        self.content_of.push(NO_VAR);
        i
    }

    /// Var holding the contents of object `o`, made on first use.
    fn content(&mut self, o: usize) -> u32 {
        if self.content_of[o] == NO_VAR {
            self.content_of[o] = self.take_var(NO_OWNER);
        }
        self.content_of[o]
    }

    /// Var of instruction `id` of `fid` — the one its block has for it, or
    /// else the one a call binding minted — or [`NO_VAR`].
    fn local_var(&self, fid: FuncId, id: InstId) -> u32 {
        let tabled = self.blocks.get(fid.index()).and_then(|b| {
            let slot = b.locals.0 as usize + id.index();
            (slot < b.locals.1 as usize).then(|| self.local_vars[slot])
        });
        match tabled.unwrap_or(NO_VAR) {
            NO_VAR => *self.solve_locals.get(&(fid, id)).unwrap_or(&NO_VAR),
            v => v,
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
    /// regenerated (every block, if a touched function's [`Signature`]
    /// moved: a block reads other functions through their signatures
    /// alone) and set against their old versions. An edit that only added
    /// constraints — what the parallelizers' commits do — costs those
    /// constraints: they enter the retained graph and one worklist grows
    /// the retained rows to the new least fixpoint. An edit that took a
    /// constraint away, gave a root its first caller or moved a signature
    /// empties the graph and the rows and adds every retained block again
    /// through that worklist: the cost of a cold solve less the
    /// generation, and exact whatever the edit deleted.
    pub fn update(&mut self, m: &Module, touched: &BTreeSet<FuncId>) -> AndersenUpdate {
        let known = self.sigs.len();
        let n = m.functions().len();
        assert!(known <= n, "functions cannot be removed from a module");
        for gid in m.global_ids().skip(self.globals_seen) {
            self.object(MemoryObject::Global(gid));
        }
        self.globals_seen = m.globals().len();

        let prev_blocks = std::mem::replace(&mut self.blocks, vec![Block::default(); n]);
        let prev_locals = std::mem::take(&mut self.local_vars);
        let prev_cons = std::mem::take(&mut self.constraints);
        let buf = std::mem::take(&mut self.buffers);
        let mut s = Solver {
            m,
            a: self,
            touched,
            known,
            func: FuncId(0),
            generating: false,
            gen_locals: 0,
            gen_old: &[],
            retracted: false,
            reset: 0,
            // The rows it captures are the update's result, sized by how
            // far the edit reached; nothing of them is kept.
            before: HashMap::new(),
            buf,
        };
        // A signature moved: every block is stale, and what the old ones
        // put on that function's arguments is retracted.
        let mut all = false;
        for &fid in touched.iter().filter(|f| f.index() < known) {
            let sig = Signature::of(m.func(fid));
            let old = std::mem::replace(&mut s.a.sigs[fid.index()], sig);
            all |= !old.same_as(&sig);
            if old.n_params != sig.n_params {
                // The old argument vars are leaked, not recycled: a changed
                // parameter count is as rare as the full regeneration it
                // forces.
                s.a.arg_base[fid.index()] = s.a.alloc_args(fid, sig.n_params);
            }
        }
        // A cold solve starts over from nothing.
        s.retracted = all || known == 0;
        for (f, fid) in m.functions()[known..]
            .iter()
            .zip((known as u32..).map(FuncId))
        {
            let sig = Signature::of(f);
            s.a.sigs.push(sig);
            let base = s.a.alloc_args(fid, sig.n_params);
            s.a.arg_base.push(base);
            s.a.referenced.push(false);
        }

        // Rebuild the flat tables in function order: stale blocks are
        // regenerated and set against their old version, the others copied
        // over as they are. The tables' sizes are known to within the edit,
        // so reserve them once.
        let stale = |i: usize| i >= known || all || touched.contains(&FuncId(i as u32));
        let fresh_slots: usize = (0..n)
            .filter(|&i| stale(i))
            .map(|i| m.functions()[i].inst_arena_len())
            .sum();
        s.a.local_vars.reserve(prev_locals.len() + fresh_slots);
        s.a.constraints.reserve(prev_cons.len() + fresh_slots / 2);
        let mut regenerated = 0;
        for i in 0..n {
            let fid = FuncId(i as u32);
            let old = prev_blocks.get(i).copied().unwrap_or_default();
            if !stale(i) {
                let cons = s.a.constraints.len() as u32;
                let locals = s.a.local_vars.len() as u32;
                s.a.constraints
                    .extend_from_slice(&prev_cons[span(old.cons)]);
                s.a.local_vars
                    .extend_from_slice(&prev_locals[span(old.locals)]);
                s.a.blocks[i] = Block {
                    cons: (cons, cons + (old.cons.1 - old.cons.0)),
                    locals: (locals, locals + (old.locals.1 - old.locals.0)),
                };
                continue;
            }
            s.gen_function(fid, &prev_locals[span(old.locals)]);
            s.diff_block(fid, &prev_cons[span(old.cons)]);
            regenerated += 1;
        }
        drop(prev_cons);
        // The reservation guessed a constraint for every other new
        // instruction; integer code has far fewer, and the table is kept.
        let used = s.a.constraints.len();
        s.a.constraints.shrink_to(used + used / 8);

        if s.retracted {
            s.start_over();
            // Every block is an addition: entered from the tables, in
            // function order, which nothing below changes.
            for i in 0..s.a.blocks.len() {
                for k in span(s.a.blocks[i].cons) {
                    let c = s.a.constraints[k];
                    s.add(FuncId(i as u32), c);
                }
            }
        } else {
            let mut added = std::mem::take(&mut s.buf.added);
            for (fid, c) in added.drain(..) {
                s.add(fid, c);
            }
            s.buf.added = added;
        }
        s.settle_roots(if s.retracted { 0 } else { known });
        while let Some(v) = s.buf.queue.pop_front() {
            s.visit(v);
        }
        s.finish(regenerated)
    }

    /// A fresh run of `n_params + 1` consecutive vars: the arguments of
    /// `fid`, which nothing mentions yet, then the return value.
    fn alloc_args(&mut self, fid: FuncId, n_params: u32) -> u32 {
        let base = self.push_vars(n_params, fid.0, false);
        self.push_vars(1, NO_OWNER, false);
        base
    }

    /// Approximate heap footprint of the points-to state, in bytes: bitset
    /// rows and the per-var table, the object tables, the retained
    /// constraint blocks and the graph they describe.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        // A bucket is an entry and a control byte; seven in eight fill.
        fn map<K, V>(m: &HashMap<K, V>) -> usize {
            m.capacity() * (size_of::<(K, V)>() + 1) * 8 / 7
        }
        let rows = self.pts.iter().chain(self.deref.values().map(|d| &d.done));
        let hung = self.deref.values().map(|d| vec(&d.uses) + vec(&d.sites));
        // B-tree nodes hold up to eleven entries and run about two thirds
        // full.
        let tree = |len: usize, entry: usize| len * (entry * 3 / 2 + 2);
        let bound = self.bindings.values().map(|b| tree(b.len(), 4));
        rows.map(BitSet::heap_bytes).sum::<usize>()
            + hung.chain(bound).sum::<usize>()
            + tree(self.succ.len(), 8)
            + vec(&self.pts)
            + vec(&self.vars)
            + vec(&self.objects)
            + vec(&self.content_of)
            + vec(&self.free_vars)
            + vec(&self.sigs)
            + vec(&self.arg_base)
            + vec(&self.referenced)
            + vec(&self.blocks)
            + vec(&self.constraints)
            + vec(&self.local_vars)
            + map(&self.obj_ids)
            + map(&self.deref)
            + map(&self.bindings)
            + map(&self.solve_locals)
            + map(&self.addr_vars)
    }

    /// Points-to set of a pointer value in function `fid`, read off the
    /// solution: each object once, in no particular order.
    pub fn points_to(&self, fid: FuncId, v: Value) -> impl Iterator<Item = MemoryObject> + '_ {
        let (row, one) = match self.pts_of(fid, v) {
            Some(Pts::Row(row)) => (Some(row), None),
            Some(Pts::One(o)) => (None, Some(o)),
            None => (None, None),
        };
        let objs = row.into_iter().flat_map(BitSet::iter);
        objs.map(|o| self.objects[o]).chain(one)
    }

    /// Where the points-to set of `v` lives, or `None` when it is empty (a
    /// constant).
    fn pts_of(&self, fid: FuncId, v: Value) -> Option<Pts<'_>> {
        let var = match v {
            Value::Inst(id) => self.local_var(fid, id),
            Value::Arg(i) => self.live_arg_var(fid, i),
            Value::Global(g) => return Some(Pts::One(MemoryObject::Global(g))),
            Value::Func(f2) => return Some(Pts::One(MemoryObject::Function(f2))),
            Value::Const(_) => return None,
        };
        // A value the solution has no var for may address anything.
        Some(match self.pts.get(var as usize) {
            Some(row) => Pts::Row(row),
            None => Pts::One(MemoryObject::Unknown),
        })
    }

    /// The points-to set of `v` as queries read it, or `None` when they
    /// cannot bound it: empty, or holding [`MemoryObject::Unknown`].
    fn bounded_pts(&self, fid: FuncId, v: Value) -> Option<Pts<'_>> {
        match self.pts_of(fid, v)? {
            Pts::Row(row) => bounded(row).map(Pts::Row),
            Pts::One(MemoryObject::Unknown) => None,
            one => Some(one),
        }
    }

    /// Var of argument `i` of `fid` if anything mentions it, else [`NO_VAR`].
    fn live_arg_var(&self, fid: FuncId, i: u32) -> u32 {
        self.arg_var(fid, i)
            .filter(|&v| self.vars[v as usize].live)
            .unwrap_or(NO_VAR)
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
            if let Some(row) = self.pts.get(v as usize).and_then(bounded) {
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
        let bound = self.bindings.get(&(fid, id));
        bound.map_or_else(Vec::new, |b| b.iter().copied().collect())
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
        let (Some(pa), Some(pb)) = (self.bounded_pts(fid, a), self.bounded_pts(fid, b)) else {
            return AliasResult::May;
        };
        // Object ids number the objects one to one, so rows meet exactly
        // when their object sets do.
        let overlap = match (pa, pb) {
            (Pts::Row(x), Pts::Row(y)) => x.intersects(y),
            (Pts::Row(row), Pts::One(o)) | (Pts::One(o), Pts::Row(row)) => {
                self.obj_ids.get(&o).is_some_and(|&i| row.contains(i))
            }
            (Pts::One(x), Pts::One(y)) => x == y,
        };
        if overlap {
            AliasResult::May
        } else {
            AliasResult::No
        }
    }

    fn base_objects(&self, fid: FuncId, ptr: Value, out: &mut BaseObjects) -> bool {
        // Sound for bucketing: `alias` answers `No` exactly when both
        // points-to sets are non-empty, Unknown-free, and disjoint.
        match self.bounded_pts(fid, ptr) {
            Some(Pts::Row(row)) => out.set(row.iter().map(|o| self.objects[o])),
            Some(Pts::One(o)) => out.set([o]),
            None => return false,
        }
        true
    }

    fn name(&self) -> &'static str {
        "andersen-aa"
    }
}

/// A stack of alias analyses queried most-precise-last: the first tier to
/// answer `No` or `Must` wins; otherwise the next tier is consulted. This is
/// how NOELLE composes LLVM's analyses with SCAF and SVF.
pub struct AliasStack<'a> {
    tiers: &'a [&'a dyn AliasAnalysis],
}

impl<'a> AliasStack<'a> {
    /// Build a stack from ordered tiers, borrowed: building one allocates
    /// nothing.
    pub fn new(tiers: &'a [&'a dyn AliasAnalysis]) -> AliasStack<'a> {
        AliasStack { tiers }
    }
}

impl AliasAnalysis for AliasStack<'_> {
    fn alias(&self, fid: FuncId, a: Value, b: Value) -> AliasResult {
        self.alias_in(fid, a, b, &mut BaseObjects::new())
    }

    fn alias_in(&self, fid: FuncId, a: Value, b: Value, scratch: &mut BaseObjects) -> AliasResult {
        for t in self.tiers {
            match t.alias_in(fid, a, b, scratch) {
                AliasResult::May => continue,
                decisive => return decisive,
            }
        }
        // Cross-tier rule: each tier's base set over-approximates the
        // concrete objects its pointer can address, so the tightest sets may
        // come from different tiers and still prove disjointness. This also
        // makes the stack honor the `base_objects` bucketing contract.
        if !self.base_objects(fid, a, scratch) {
            return AliasResult::May;
        }
        let sa = scratch.hold();
        let disjoint =
            self.base_objects(fid, b, scratch) && sorted_disjoint(&sa, scratch.objects());
        scratch.release(sa);
        if disjoint {
            AliasResult::No
        } else {
            AliasResult::May
        }
    }

    fn base_objects(&self, fid: FuncId, ptr: Value, out: &mut BaseObjects) -> bool {
        // The tightest (smallest) bounded set among the tiers, the first on
        // a tie. It is held while the later tiers fill `out`.
        let mut best = out.hold();
        let mut found = false;
        for t in self.tiers {
            if t.base_objects(fid, ptr, out) && (!found || out.objs.len() < best.len()) {
                std::mem::swap(&mut out.objs, &mut best);
                found = true;
            }
        }
        std::mem::swap(&mut out.objs, &mut best);
        out.release(best);
        found
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

    /// `v`'s points-to set as a set.
    fn pts(a: &AndersenAlias, fid: FuncId, v: Value) -> BTreeSet<MemoryObject> {
        a.points_to(fid, v).collect()
    }

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
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
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
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let (mut sp, mut sq) = (BaseObjects::new(), BaseObjects::new());
        for aa in [&basic as &dyn AliasAnalysis, &andersen, &stack] {
            assert!(aa.base_objects(fid, p, &mut sp), "alloca base is known");
            assert!(aa.base_objects(fid, q, &mut sq), "alloca base is known");
            // Disjoint known sets must imply a `No` answer.
            assert!(sorted_disjoint(sp.objects(), sq.objects()));
            assert_eq!(aa.alias(fid, p, q), AliasResult::No, "{}", aa.name());
        }
        // An incoming argument has no bounded base set under the basic tier.
        assert!(!basic.base_objects(fid, Value::Arg(0), &mut sp));
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
        updates_match_fresh(before, &[(after, touched)]).remove(0)
    }

    /// [`update_matches_fresh`] after every step of a sequence of edits
    /// carried by one maintained solution.
    fn updates_match_fresh(before: &str, edits: &[(&str, &[&str])]) -> Vec<AndersenUpdate> {
        let mut a = parse_module(before).unwrap();
        let mut kept = AndersenAlias::new(&a);
        let mut updates = Vec::new();
        for &(after, touched) in edits {
            let b = parse_module(after).unwrap();
            let touched: BTreeSet<FuncId> = touched
                .iter()
                .map(|name| b.func_id_by_name(name).expect("touched function exists"))
                .collect();
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
                    // Raw sets too: an untracked value and an empty row
                    // answer alias queries alike but render differently.
                    let v = Value::Inst(id);
                    assert_eq!(pts(&kept, fid, v), pts(&fresh, fid, v));
                }
                for i in 0..b.func(fid).params.len() as u32 {
                    let v = Value::Arg(i);
                    assert_eq!(pts(&kept, fid, v), pts(&fresh, fid, v));
                }
            }
            let moved: Vec<FuncId> = a
                .func_ids()
                .filter(|fid| !touched.contains(fid) && old_rows.get(fid) != fresh_rows.get(fid))
                .collect();
            assert_eq!(update.changed, moved);
            updates.push(update);
            a = b;
        }
        updates
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

    /// `f` publishes a pointer through a cell (or not), two readers load the
    /// cell, and `main` wires them up.
    fn cell_module(f_body: &str, g2_body: &str) -> String {
        format!(
            r#"
module "m" {{
define void @f(i64** %cell, i64* %x) {{
entry:
  {f_body}
  ret void
}}
define i64 @g1(i64** %cell) {{
entry:
  %p = load i64*, %cell
  %v = load i64, %p
  ret %v
}}
define i64 @g2(i64** %cell) {{
entry:
  {g2_body}
  ret i64 0
}}
define i64 @main() {{
entry:
  %cell = alloca i64*, i64 1
  %x = alloca i64, i64 1
  call void @f(%cell, %x)
  %a = call i64 @g1(%cell)
  %b = call i64 @g2(%cell)
  ret %a
}}
}}
"#
        )
    }

    #[test]
    fn update_after_a_removed_store_empties_the_loads_of_that_cell() {
        // The only store of a pointer into the cell goes: the untouched
        // readers' loads lose the pointee.
        let load = "%p = load i64*, %cell";
        let u = update_matches_fresh(
            &cell_module("store i64* %x, %cell", load),
            &cell_module("", load),
            &["f"],
        );
        let m = parse_module(&cell_module("", load)).unwrap();
        let readers = ["g1", "g2"].map(|g| m.func_id_by_name(g).unwrap());
        assert_eq!(u.changed, readers);
        assert!(u.reset > 0);
    }

    #[test]
    fn update_after_one_of_two_loads_of_a_cell_goes_leaves_the_other() {
        // Both readers' loads hang off the same content var; retracting one
        // must not disturb the other, whose function is not reported.
        let store = "store i64* %x, %cell";
        let u = update_matches_fresh(
            &cell_module(store, "%p = load i64*, %cell"),
            &cell_module(store, ""),
            &["g2"],
        );
        assert_eq!(u.changed, vec![]);

        // The counted case: two opaque calls each make `Unknown` flow into
        // the cell through the *same* materialised edge. One goes and the
        // edge stays; both go and the readers' rows become bounded.
        let module = |h1: &str, h2: &str| {
            format!(
                r#"
module "m" {{
define void @h1(i64** %cell) {{
entry:
  {h1}
  ret void
}}
define void @h2(i64** %cell) {{
entry:
  {h2}
  ret void
}}
define i64 @g(i64** %cell) {{
entry:
  %p = load i64*, %cell
  %v = load i64, %p
  ret %v
}}
define i64 @main() {{
entry:
  %cell = alloca i64*, i64 1
  %x = alloca i64, i64 1
  store i64* %x, %cell
  call void @h1(%cell)
  call void @h2(%cell)
  %v = call i64 @g(%cell)
  ret %v
}}
declare void @mystery(i64** %p)
}}
"#
            )
        };
        let call = "call void @mystery(%cell)";
        let us = updates_match_fresh(
            &module(call, call),
            &[(&module("", call), &["h1"]), (&module("", ""), &["h2"])],
        );
        let m = parse_module(&module("", "")).unwrap();
        assert_eq!(us[0].changed, vec![]);
        assert_eq!(us[1].changed, vec![m.func_id_by_name("g").unwrap()]);
    }

    #[test]
    fn update_empties_a_copy_cycle_that_lost_its_only_support() {
        // `%p` and `%q` feed each other around the loop; `%a` enters the
        // cycle from outside. Once `%b` enters instead, `%a` must leave
        // both rows, though each still has a predecessor that holds it —
        // what reference counting gets wrong.
        let module = |seed: &str| {
            format!(
                r#"
module "m" {{
define i64 @walk(i64 %n) {{
entry:
  %a = alloca i64, i64 1
  %b = alloca i64, i64 1
  br head
head:
  %p = phi i64* [entry: {seed}] [body: %q]
  %i = phi i64 [entry: i64 0] [body: %j]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %q = phi i64* [head: %p]
  %j = add i64 %i, i64 1
  br head
exit:
  %v = load i64, %p
  ret %v
}}
define i64 @main() {{
entry:
  %v = call i64 @walk(i64 4)
  ret %v
}}
}}
"#
            )
        };
        let u = update_matches_fresh(&module("%a"), &module("%b"), &["walk"]);
        assert_eq!((u.regenerated, u.changed), (1, vec![]));
        let m = parse_module(&module("%b")).unwrap();
        let walk = m.func_id_by_name("walk").unwrap();
        let mut kept = AndersenAlias::new(&parse_module(&module("%a")).unwrap());
        kept.update(&m, &BTreeSet::from([walk]));
        let named = |name: &str| {
            let f = m.func(walk);
            let mut ids = f.inst_ids().into_iter();
            let id = ids.find(|&id| f.inst_name(id) == Some(name));
            id.expect("named instruction")
        };
        let only_b = BTreeSet::from([MemoryObject::Alloca(walk, named("b"))]);
        for v in ["p", "q"] {
            assert_eq!(pts(&kept, walk, Value::Inst(named(v))), only_b);
        }
    }

    #[test]
    fn update_keeps_an_argument_live_until_its_last_mention_goes() {
        // `leaf` never reads its parameter and its address is taken, so
        // only the callers' bindings make the argument observable.
        let module = |c1: &str, c2: &str| {
            format!(
                r#"
module "m" {{
define i64 @leaf(i64* %p) {{
entry:
  ret i64 0
}}
define i64 @c1() {{
entry:
  %a = alloca i64, i64 1
  {c1}
  ret i64 0
}}
define i64 @c2() {{
entry:
  %b = alloca i64, i64 1
  {c2}
  ret i64 0
}}
define i64 @main() {{
entry:
  %cell = alloca fn i64 (i64*)*, i64 1
  store fn i64 (i64*)* @leaf, %cell
  %x = call i64 @c1()
  %y = call i64 @c2()
  ret %x
}}
}}
"#
            )
        };
        let (call_a, call_b) = ("%r = call i64 @leaf(%a)", "%r = call i64 @leaf(%b)");
        let m = parse_module(&module("", "")).unwrap();
        let leaf = m.func_id_by_name("leaf").unwrap();
        let us = updates_match_fresh(
            &module(call_a, call_b),
            &[(&module("", call_b), &["c1"]), (&module("", ""), &["c2"])],
        );
        // {a, b} -> {b}, then -> untracked: the row moves both times.
        assert_eq!(us[0].changed, vec![leaf]);
        assert_eq!(us[1].changed, vec![leaf]);
        let mut kept = AndersenAlias::new(&parse_module(&module(call_a, call_b)).unwrap());
        let b = parse_module(&module("", call_b)).unwrap();
        kept.update(&b, &BTreeSet::from([b.func_id_by_name("c1").unwrap()]));
        assert_eq!(pts(&kept, leaf, Value::Arg(0)).len(), 1);
        kept.update(&m, &BTreeSet::from([m.func_id_by_name("c2").unwrap()]));
        let unknown = BTreeSet::from([MemoryObject::Unknown]);
        assert_eq!(pts(&kept, leaf, Value::Arg(0)), unknown);
    }

    #[test]
    fn update_rebinds_an_indirect_call_whose_cell_was_re_pointed() {
        // A third function decides which of `a` and `b` the untouched
        // caller reaches: the old callee's argument row shrinks, the new
        // one's grows, the call's result is re-derived.
        let module = |target: &str| {
            format!(
                r#"
module "m" {{
global @ga : i64 = i64 0
global @gb : i64 = i64 0
define i64* @a(i64* %p) {{
entry:
  ret @ga
}}
define i64* @b(i64* %p) {{
entry:
  ret @gb
}}
define void @init(fn i64* (i64*)** %cell) {{
entry:
  store fn i64* (i64*)* {target}, %cell
  ret void
}}
define i64 @caller(fn i64* (i64*)** %cell) {{
entry:
  %x = alloca i64, i64 1
  %fp = load fn i64* (i64*)*, %cell
  %r = call i64* %fp(%x)
  %v = load i64, %r
  ret %v
}}
define i64 @main() {{
entry:
  %cell = alloca fn i64* (i64*)*, i64 1
  %both = alloca fn i64* (i64*)*, i64 1
  store fn i64* (i64*)* @a, %both
  store fn i64* (i64*)* @b, %both
  call void @init(%cell)
  %v = call i64 @caller(%cell)
  ret %v
}}
}}
"#
            )
        };
        let u = update_matches_fresh(&module("@a"), &module("@b"), &["init"]);
        let m = parse_module(&module("@b")).unwrap();
        let moved = ["a", "b", "caller"].map(|f| m.func_id_by_name(f).unwrap());
        assert_eq!((u.regenerated, u.changed), (1, moved.to_vec()));
        // And back, on the same maintained solution, then to neither.
        let us = updates_match_fresh(
            &module("@a"),
            &[
                (&module("@b"), &["init"]),
                (&module("@a"), &["init"]),
                (&module("null"), &["init"]),
            ],
        );
        assert_eq!(us[1].changed, moved.to_vec());
        assert_eq!(us[2].changed, [moved[0], moved[2]]);
    }

    #[test]
    fn update_of_an_identical_block_resets_nothing() {
        let load = "%p = load i64*, %cell";
        let text = cell_module("store i64* %x, %cell", load);
        let u = update_matches_fresh(&text, &text, &["f", "g1", "main"]);
        assert_eq!((u.regenerated, u.changed, u.reset), (3, vec![], 0));
    }

    #[test]
    fn update_beside_an_indirect_call_keeps_its_bindings() {
        // `caller` reaches `a` through a cell. Edits that leave the call
        // alone only add: the site stays bound and no row starts over,
        // even when the block comes to name the call's result, whose var
        // the binding had minted. An edit to the call's arguments does not.
        let module = |arg: &str, extra: &str| {
            format!(
                r#"
module "m" {{
global @g : i64 = i64 0
define i64* @a(i64* %p) {{
entry:
  ret %p
}}
define i64 @caller(fn i64* (i64*)** %cell, i64 %n) {{
entry:
  %x = alloca i64, i64 1
  %y = alloca i64, i64 1
  %fp = load fn i64* (i64*)*, %cell
  %r = call i64* %fp({arg})
  {extra}
  ret %n
}}
define i64 @main() {{
entry:
  %cell = alloca fn i64* (i64*)*, i64 1
  store fn i64* (i64*)* @a, %cell
  %v = call i64 @caller(%cell, i64 1)
  ret %v
}}
}}
"#
            )
        };
        let us = updates_match_fresh(
            &module("%x", ""),
            &[
                (&module("%x", "%m = add i64 %n, i64 1"), &["caller"]),
                (&module("%x", "%q = gep i64, %r, i64 1"), &["caller"]),
                (&module("%y", "%q = gep i64, %r, i64 1"), &["caller"]),
            ],
        );
        let m = parse_module(&module("%y", "")).unwrap();
        let a = m.func_id_by_name("a").unwrap();
        assert_eq!((&us[0].changed, us[0].reset), (&vec![], 0));
        assert_eq!((&us[1].changed, us[1].reset), (&vec![], 0));
        assert_eq!(us[2].changed, vec![a]);
        assert!(us[2].reset > 0);
    }
}
