//! Modules, functions, blocks, and globals.

use crate::inst::{Inst, InstData, InstId, Terminator};
use crate::types::{FuncType, Type, TypeView};
use crate::value::{Constant, Value};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

/// Module-level identifier of a function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Arena index of this function.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

/// Function-local identifier of a basic block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Arena index of this block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Module-level identifier of a global variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Arena index of this global.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Initializer of a global variable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum GlobalInit {
    /// Zero-initialized storage.
    Zero,
    /// A single scalar constant.
    Scalar(Constant),
    /// An array of scalar constants (for `[n x T]` globals).
    Array(Vec<Constant>),
}

/// A module-level global variable. Its [`Value::Global`] is a pointer to the
/// storage of type `ty`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Value type of the storage (the global's address has type `ty*`).
    pub ty: Type,
    /// Initializer.
    pub init: GlobalInit,
    /// True if the global may be written at run time (used by alias analysis
    /// to treat read-only globals as loop invariant).
    pub is_const: bool,
}

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct BasicBlock {
    /// Label of the block for printing.
    pub name: String,
    /// Instructions in execution order; the last one must be a terminator
    /// once the function is complete.
    pub insts: Vec<InstId>,
}

/// A function: parameters, return type, and a CFG of basic blocks.
///
/// Instructions live in an arena indexed by [`InstId`]; blocks hold ordered
/// lists of instruction ids. Declarations (externally-defined functions such
/// as `malloc` or the NOELLE runtime intrinsics) have no blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Formal parameters: `(name, type)`.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret_ty: Type,
    pub(crate) blocks: Vec<BasicBlock>,
    /// Block layout (printing and iteration order); `layout[0]` is the entry.
    pub(crate) layout: Vec<BlockId>,
    pub(crate) insts: Vec<InstData>,
    /// Own SSA names of the instructions that have one; the printer makes
    /// up `v<id>` for the rest. Empty, and so unallocated, for built code
    /// and for parsed text that spells only the printer's numbering.
    pub(crate) inst_names: BTreeMap<InstId, String>,
    /// Function-level metadata (profiles, NOELLE annotations).
    pub metadata: BTreeMap<String, String>,
    /// Per-instruction metadata.
    pub inst_metadata: HashMap<InstId, BTreeMap<String, String>>,
}

impl Function {
    /// Create an empty function (a declaration until blocks are added).
    pub fn new(name: impl Into<String>, params: Vec<(String, Type)>, ret_ty: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: Vec::new(),
            layout: Vec::new(),
            insts: Vec::new(),
            inst_names: BTreeMap::new(),
            metadata: BTreeMap::new(),
            inst_metadata: HashMap::new(),
        }
    }

    /// True if the function has no body.
    pub fn is_declaration(&self) -> bool {
        self.layout.is_empty()
    }

    /// The function's type.
    pub fn func_type(&self) -> FuncType {
        FuncType {
            params: self.params.iter().map(|(_, t)| t.clone()).collect(),
            ret: self.ret_ty.clone(),
        }
    }

    /// The entry block.
    ///
    /// # Panics
    /// Panics if the function is a declaration.
    pub fn entry(&self) -> BlockId {
        self.layout[0]
    }

    /// Append a new empty block named `name`.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            name: name.into(),
            insts: Vec::new(),
        });
        self.layout.push(id);
        id
    }

    /// Room for `blocks` more blocks and `insts` more instructions, so that
    /// code of a known size is built without growing a table as it goes.
    pub fn reserve(&mut self, blocks: usize, insts: usize) {
        self.blocks.reserve(blocks);
        self.layout.reserve(blocks);
        self.insts.reserve(insts);
    }

    /// Room for `insts` more instructions in `block`'s list.
    pub fn reserve_in(&mut self, block: BlockId, insts: usize) {
        self.blocks[block.index()].insts.reserve_exact(insts);
    }

    /// Blocks in layout order.
    pub fn block_order(&self) -> &[BlockId] {
        &self.layout
    }

    /// Access a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Number of blocks ever created (including detached ones).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Access an instruction.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()].inst
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()].inst
    }

    /// The block containing `id`.
    pub fn parent_block(&self, id: InstId) -> BlockId {
        self.insts[id.index()].block
    }

    /// Append `inst` to `block`, returning its id.
    pub fn append_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { inst, block });
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// Append `inst` to the arena as part of `block`, leaving the block's
    /// list to [`Function::close_blocks`].
    pub(crate) fn push_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { inst, block });
        id
    }

    /// Fill every block's list from the arena at its exact length. Each
    /// block's instructions must be one run of the arena, the runs in block
    /// order: what the parser appends, since a block's instructions follow
    /// its label and no label repeats.
    pub(crate) fn close_blocks(&mut self) {
        let mut start = 0;
        for (b, block) in self.blocks.iter_mut().enumerate() {
            let run = self.insts[start..]
                .iter()
                .take_while(|d| d.block.index() == b)
                .count();
            block.insts = (start..start + run).map(|i| InstId(i as u32)).collect();
            start += run;
        }
        debug_assert_eq!(start, self.insts.len(), "a block's run is split");
    }

    /// Insert `inst` into `block` at position `pos` (index into the block's
    /// instruction list), returning its id.
    ///
    /// # Panics
    /// Panics if `pos > block.insts.len()`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { inst, block });
        self.blocks[block.index()].insts.insert(pos, id);
        id
    }

    /// Remove `id` from its block (the arena slot is retired, not reused).
    pub fn remove_inst(&mut self, id: InstId) {
        let block = self.insts[id.index()].block;
        self.blocks[block.index()].insts.retain(|&i| i != id);
        self.inst_metadata.remove(&id);
    }

    /// Detach `id` from its current block and append it to `to`.
    pub fn move_inst_to_block_end(&mut self, id: InstId, to: BlockId) {
        let from = self.insts[id.index()].block;
        self.blocks[from.index()].insts.retain(|&i| i != id);
        self.blocks[to.index()].insts.push(id);
        self.insts[id.index()].block = to;
    }

    /// Detach `id` and insert it into `to` at position `pos`.
    pub fn move_inst(&mut self, id: InstId, to: BlockId, pos: usize) {
        let from = self.insts[id.index()].block;
        self.blocks[from.index()].insts.retain(|&i| i != id);
        self.blocks[to.index()].insts.insert(pos, id);
        self.insts[id.index()].block = to;
    }

    /// Position of `id` within its block, if attached.
    pub fn position_in_block(&self, id: InstId) -> Option<usize> {
        let block = self.insts[id.index()].block;
        self.blocks[block.index()]
            .insts
            .iter()
            .position(|&i| i == id)
    }

    /// The terminator of `block`, if present.
    pub fn terminator(&self, block: BlockId) -> Option<&Terminator> {
        let last = *self.blocks[block.index()].insts.last()?;
        match self.inst(last) {
            Inst::Term(t) => Some(t),
            _ => None,
        }
    }

    /// The terminator instruction id of `block`, if present.
    pub fn terminator_id(&self, block: BlockId) -> Option<InstId> {
        let last = *self.blocks[block.index()].insts.last()?;
        match self.inst(last) {
            Inst::Term(_) => Some(last),
            _ => None,
        }
    }

    /// Replace the terminator of `block` (appending one if missing).
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        if let Some(id) = self.terminator_id(block) {
            self.insts[id.index()].inst = Inst::Term(term);
        } else {
            self.append_inst(block, Inst::Term(term));
        }
    }

    /// Successor blocks of `block`.
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        self.terminator(block)
            .map(|t| t.successors())
            .unwrap_or_default()
    }

    /// All attached instruction ids in layout order.
    pub fn inst_ids(&self) -> Vec<InstId> {
        let mut ids = Vec::with_capacity(self.num_insts());
        for b in &self.layout {
            ids.extend_from_slice(&self.blocks[b.index()].insts);
        }
        ids
    }

    /// All attached instruction ids in layout order, walked in place: what
    /// [`Function::inst_ids`] collects, for a reader that only iterates.
    pub fn inst_iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.layout
            .iter()
            .flat_map(|b| self.blocks[b.index()].insts.iter().copied())
    }

    /// Size of the instruction arena: every [`InstId`] this function ever
    /// handed out (attached or since removed) indexes below it, so dense
    /// per-function side tables can be sized without scanning the body.
    pub fn inst_arena_len(&self) -> usize {
        self.insts.len()
    }

    /// Number of attached instructions.
    pub fn num_insts(&self) -> usize {
        self.layout
            .iter()
            .map(|b| self.blocks[b.index()].insts.len())
            .sum()
    }

    /// The phi instructions at the head of `block`.
    pub fn phis(&self, block: BlockId) -> Vec<InstId> {
        self.blocks[block.index()]
            .insts
            .iter()
            .copied()
            .take_while(|&i| matches!(self.inst(i), Inst::Phi { .. }))
            .collect()
    }

    /// Users of each instruction: map from defining instruction to the
    /// instructions that use its result.
    pub fn compute_uses(&self) -> HashMap<InstId, Vec<InstId>> {
        let mut uses: HashMap<InstId, Vec<InstId>> = HashMap::new();
        for id in self.inst_ids() {
            self.inst(id).for_each_operand(|op| {
                if let Value::Inst(def) = op {
                    uses.entry(def).or_default().push(id);
                }
            });
        }
        uses
    }

    /// Replace every use of `from` with `to` across the whole body.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for id in self.inst_ids() {
            self.insts[id.index()]
                .inst
                .map_operands(|v| if v == from { to } else { v });
        }
    }

    /// Set the printed SSA name of an instruction.
    pub fn set_inst_name(&mut self, id: InstId, name: impl Into<String>) {
        self.inst_names.insert(id, name.into());
    }

    /// The instruction's own SSA name, if it was given one.
    pub fn inst_name(&self, id: InstId) -> Option<&str> {
        self.inst_names.get(&id).map(String::as_str)
    }

    /// Attach metadata `key = value` to instruction `id`.
    pub fn set_inst_metadata(
        &mut self,
        id: InstId,
        key: impl Into<String>,
        value: impl Into<String>,
    ) {
        self.inst_metadata
            .entry(id)
            .or_default()
            .insert(key.into(), value.into());
    }

    /// Metadata value attached to instruction `id` for `key`.
    pub fn inst_metadata(&self, id: InstId, key: &str) -> Option<&str> {
        self.inst_metadata
            .get(&id)
            .and_then(|m| m.get(key))
            .map(String::as_str)
    }

    /// Two 64-bit fingerprints from one pass over the function, `(body,
    /// content)`. The *body* hash covers what code analyses can observe:
    /// name, signature, block structure and layout, every instruction and
    /// its own name — no metadata, so a metadata-only edit leaves it
    /// unchanged and whatever reads nothing but bodies may keep its cache.
    /// The *content* hash is the body hash continued over all metadata:
    /// everything the function's text says, what content addressing keys
    /// on. Both are SipHash over the full input, so a collision that also
    /// survives the damage rule is vanishingly unlikely. Whether a function
    /// changed at all is `==`, which compares the same fields exactly.
    pub fn fingerprints(&self) -> (u64, u64) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.params.hash(&mut h);
        self.ret_ty.hash(&mut h);
        self.layout.hash(&mut h);
        self.blocks.hash(&mut h);
        self.insts.hash(&mut h);
        self.inst_names.hash(&mut h);
        let body = h.finish();
        self.metadata.hash(&mut h);
        // `inst_metadata` is a HashMap; hash it in a stable order.
        let mut keys: Vec<InstId> = self.inst_metadata.keys().copied().collect();
        keys.sort_unstable();
        for id in keys {
            id.hash(&mut h);
            self.inst_metadata[&id].hash(&mut h);
        }
        (body, h.finish())
    }

    /// A 64-bit fingerprint of what a *call site* can read of this function
    /// without looking inside it: name, parameter types, return type, and
    /// whether there is a body at all. A body edit leaves it unchanged, so
    /// whatever a caller derived from it (argument flow, allocator and
    /// known-external recognition by name) stands.
    pub fn interface_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.params.len().hash(&mut h);
        for (_, ty) in &self.params {
            ty.hash(&mut h);
        }
        self.ret_ty.hash(&mut h);
        self.is_declaration().hash(&mut h);
        h.finish()
    }

    /// The type of `v` in the context of this function and `module`.
    pub fn value_type(&self, module: &Module, v: Value) -> Type {
        self.type_view(module, v).to_type()
    }

    /// [`Function::value_type`], borrowed from where the IR spells it, a
    /// function's address included.
    pub fn type_view<'a>(&'a self, module: &'a Module, v: Value) -> TypeView<'a> {
        match v {
            Value::Inst(id) => self.inst(id).result_view(),
            Value::Arg(i) => TypeView::Is(&self.params[i as usize].1),
            Value::Const(c) => c.ty_ref().map_or(TypeView::PtrTo(&Type::I64), TypeView::Is),
            Value::Global(g) => TypeView::PtrTo(&module.global(g).ty),
            Value::Func(f) => {
                let f = module.func(f);
                TypeView::FuncPtr(&f.params, &f.ret_ty)
            }
        }
    }
}

/// A whole-program module: functions, globals, and embedded metadata.
///
/// `noelle-whole-IR` links translation units into a single `Module` so that
/// whole-program analyses (PDG, call graph) can see all the code, exactly as
/// the paper's tool does for LLVM bitcode.
#[derive(Clone, PartialEq, Debug)]
pub struct Module {
    /// Module name (usually the program name).
    pub name: String,
    pub(crate) functions: Vec<Function>,
    pub(crate) globals: Vec<Global>,
    /// Module-level metadata (embedded profiles, PDG, compilation options).
    pub metadata: BTreeMap<String, String>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
            metadata: BTreeMap::new(),
        }
    }

    /// Add a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Declare an external function (no body).
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Type>,
        ret_ty: Type,
    ) -> FuncId {
        let params = params
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("a{i}"), t))
            .collect();
        self.add_function(Function::new(name, params, ret_ty))
    }

    /// Declare `name` if not already present; return its id either way.
    /// The parameter and return types are built only for a declaration.
    pub fn get_or_declare(
        &mut self,
        name: &str,
        signature: impl FnOnce() -> (Vec<Type>, Type),
    ) -> FuncId {
        if let Some(id) = self.func_id_by_name(name) {
            return id;
        }
        let (params, ret_ty) = signature();
        self.declare_function(name, params, ret_ty)
    }

    /// Add a global variable, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Access a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Access a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId)
    }

    /// All global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> + '_ {
        (0..self.globals.len() as u32).map(GlobalId)
    }

    /// Functions in definition order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Globals in definition order.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// Look up a function id by symbol name.
    pub fn func_id_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Look up a function by symbol name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Look up a global id by symbol name.
    pub fn global_id_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Total number of attached instructions across all functions (the
    /// "binary size" proxy used by the dead-function-elimination evaluation).
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(Function::num_insts).sum()
    }

    /// A 64-bit fingerprint of the module's globals (names, types,
    /// initializers, constness) and module-level metadata. Companion to
    /// [`Function::fingerprints`] for whole-module analyses whose inputs
    /// are "every function body plus the globals".
    pub fn globals_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.globals.hash(&mut h);
        self.metadata.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Terminator};

    fn simple_func() -> Function {
        let mut f = Function::new("f", vec![("x".into(), Type::I64)], Type::I64);
        let entry = f.add_block("entry");
        let add = f.append_inst(
            entry,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Value::Arg(0),
                rhs: Value::const_i64(1),
            },
        );
        f.set_terminator(entry, Terminator::Ret(Some(Value::Inst(add))));
        f
    }

    #[test]
    fn function_construction() {
        let f = simple_func();
        assert!(!f.is_declaration());
        assert_eq!(f.num_insts(), 2);
        assert_eq!(f.entry(), BlockId(0));
        assert!(matches!(
            f.terminator(f.entry()),
            Some(Terminator::Ret(Some(_)))
        ));
    }

    #[test]
    fn uses_and_rauw() {
        let mut f = simple_func();
        let add = f.block(f.entry()).insts[0];
        let uses = f.compute_uses();
        assert_eq!(uses[&add].len(), 1);
        f.replace_all_uses(Value::Inst(add), Value::const_i64(9));
        assert!(matches!(
            f.terminator(f.entry()),
            Some(Terminator::Ret(Some(Value::Const(_))))
        ));
    }

    #[test]
    fn remove_and_move_inst() {
        let mut f = simple_func();
        let entry = f.entry();
        let other = f.add_block("other");
        let add = f.block(entry).insts[0];
        f.move_inst_to_block_end(add, other);
        assert_eq!(f.parent_block(add), other);
        assert_eq!(f.block(entry).insts.len(), 1); // only the ret remains
        f.remove_inst(add);
        assert!(f.block(other).insts.is_empty());
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new("m");
        let f = m.add_function(simple_func());
        assert_eq!(m.func_id_by_name("f"), Some(f));
        assert_eq!(m.func_id_by_name("g"), None);
        let malloc = m.get_or_declare("malloc", || (vec![Type::I64], Type::I8.ptr_to()));
        assert_eq!(
            m.get_or_declare("malloc", || (vec![Type::I64], Type::I8.ptr_to())),
            malloc
        );
        assert!(m.func(malloc).is_declaration());
        assert_eq!(m.total_insts(), 2);
    }

    #[test]
    fn value_types_resolve() {
        let mut m = Module::new("m");
        let g = m.add_global(Global {
            name: "g".into(),
            ty: Type::I64,
            init: GlobalInit::Zero,
            is_const: false,
        });
        let fid = m.add_function(simple_func());
        let f = m.func(fid);
        assert_eq!(f.value_type(&m, Value::Arg(0)), Type::I64);
        assert_eq!(f.value_type(&m, Value::Global(g)), Type::I64.ptr_to());
        assert_eq!(f.value_type(&m, Value::const_f64(1.0)), Type::F64);
    }

    #[test]
    fn inst_metadata_round_trip() {
        let mut f = simple_func();
        let add = f.block(f.entry()).insts[0];
        f.set_inst_metadata(add, "noelle.id", "42");
        assert_eq!(f.inst_metadata(add, "noelle.id"), Some("42"));
        assert_eq!(f.inst_metadata(add, "missing"), None);
        f.remove_inst(add);
        assert_eq!(f.inst_metadata(add, "noelle.id"), None);
    }
}
