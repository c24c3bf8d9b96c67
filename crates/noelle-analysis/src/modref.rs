//! Mod/ref information for call instructions.
//!
//! Used by the PDG builder to decide whether a call can depend on a memory
//! access, and by the invariant analysis (Algorithm 1 in the paper queries
//! `getModRefBehavior` on calls).
//!
//! The summaries are one dense table: a byte per function, indexed by
//! [`FuncId`], holding a read, a write and an I/O bit. Both fixed points
//! (whole-module and scoped) index it instead of hashing, and a call's
//! three answers come from one load. A function without a summary (past
//! the table's end, or a gap a scoped recomputation left) holds a byte
//! with every bit set: it reads as "may do anything", and differs from
//! every summary a function can have, so a summary that appears counts as
//! moved.

use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, Function, Module};

/// Memory behaviour of a known external (declared) function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExternalEffect {
    /// Reads caller-visible memory.
    pub reads_memory: bool,
    /// Writes caller-visible memory.
    pub writes_memory: bool,
    /// Returns freshly allocated memory.
    pub allocates: bool,
    /// Pointer arguments escape / returned pointers are unanalyzable.
    pub opaque_pointers: bool,
    /// Has non-memory side effects (I/O, OS interaction) and must not be
    /// removed or reordered even if memory-transparent.
    pub io: bool,
}

impl ExternalEffect {
    const PURE: ExternalEffect = ExternalEffect {
        reads_memory: false,
        writes_memory: false,
        allocates: false,
        opaque_pointers: false,
        io: false,
    };
}

/// True if `name` is a known allocation routine.
pub fn is_allocator(name: &str) -> bool {
    matches!(name, "malloc" | "calloc" | "noelle.alloc")
}

/// Effects of a known external function. Unknown names get a fully
/// conservative summary.
pub fn external_effects(name: &str) -> ExternalEffect {
    match name {
        // Math: pure.
        "sqrt" | "sin" | "cos" | "tan" | "exp" | "log" | "pow" | "fabs" | "floor" | "ceil" => {
            ExternalEffect::PURE
        }
        // Allocation: returns fresh memory, does not touch existing memory.
        _ if is_allocator(name) => ExternalEffect {
            allocates: true,
            ..ExternalEffect::PURE
        },
        "free" => ExternalEffect {
            writes_memory: true,
            ..ExternalEffect::PURE
        },
        // Output routines: I/O side effects, read the printed buffer if any,
        // but do not write user-visible memory.
        "print_i64" | "print_f64" | "puts" | "noelle.print" => ExternalEffect {
            reads_memory: true,
            io: true,
            ..ExternalEffect::PURE
        },
        // Pseudo-random value generators (PRVJeeves models these): internal
        // state only; modelled as I/O so calls stay ordered relative to each
        // other but do not create memory dependences with loads/stores.
        n if n.starts_with("prv.") => ExternalEffect {
            io: true,
            ..ExternalEffect::PURE
        },
        // Timing / OS callback intrinsics injected by COOS and TIME.
        n if n.starts_with("coos.") || n.starts_with("clock.") => ExternalEffect {
            io: true,
            ..ExternalEffect::PURE
        },
        // CARAT guard intrinsics: read the guarded address, never write.
        n if n.starts_with("carat.") => ExternalEffect {
            reads_memory: true,
            io: true,
            ..ExternalEffect::PURE
        },
        // NOELLE parallel runtime: moves values through queues/environments.
        n if n.starts_with("noelle.") => ExternalEffect {
            reads_memory: true,
            writes_memory: true,
            opaque_pointers: true,
            io: true,
            ..ExternalEffect::PURE
        },
        _ => ExternalEffect {
            reads_memory: true,
            writes_memory: true,
            allocates: false,
            opaque_pointers: true,
            io: true,
        },
    }
}

// A summary's bits.
const READS: u8 = 1;
const WRITES: u8 = 2;
const IO: u8 = 4;
/// What a function without a summary may do: anything.
const UNKNOWN: u8 = u8::MAX;

/// A function's summary before its body is looked at: a declaration's
/// known effects, nothing for a body.
fn base(f: &Function) -> u8 {
    if !f.is_declaration() {
        return 0;
    }
    let e = external_effects(&f.name);
    let bit = |on: bool, bit: u8| if on { bit } else { 0 };
    bit(e.reads_memory, READS) | bit(e.writes_memory, WRITES) | bit(e.io, IO)
}

/// Raises the summary of every defined function among `fids` to its
/// body's effects under `table`, until nothing moves.
fn solve(m: &Module, fids: impl Iterator<Item = FuncId> + Clone, table: &mut [u8]) {
    let mut changed = true;
    while changed {
        changed = false;
        for fid in fids.clone() {
            let f = m.func(fid);
            if f.is_declaration() {
                continue;
            }
            let mut bits = table[fid.index()];
            for id in f.inst_iter() {
                match f.inst(id) {
                    Inst::Load { .. } => bits |= READS,
                    Inst::Store { .. } => bits |= WRITES,
                    Inst::Call { callee, .. } => {
                        bits |= match callee {
                            Callee::Direct(cid) => table.get(cid.index()).map_or(UNKNOWN, |&b| b),
                            Callee::Indirect(_) => UNKNOWN,
                        } & (READS | WRITES | IO)
                    }
                    _ => {}
                }
            }
            if bits != table[fid.index()] {
                table[fid.index()] = bits;
                changed = true;
            }
        }
    }
}

/// The working lists of [`ModRefSummaries::recompute_scoped`], kept by its
/// caller so that a recomputation allocates nothing once they have grown.
#[derive(Default)]
pub struct ModRefBuffers {
    before: Vec<u8>,
    moved: Vec<FuncId>,
}

/// Bottom-up memory summaries for every function of a module.
#[derive(Clone, Debug)]
pub struct ModRefSummaries {
    /// A summary's bits per function, indexed by `FuncId`.
    table: Vec<u8>,
}

impl ModRefSummaries {
    /// Compute summaries by fixed point over the (direct) call structure;
    /// indirect calls are conservatively assumed to read, write, and perform
    /// I/O.
    pub fn compute(m: &Module) -> ModRefSummaries {
        let mut table: Vec<u8> = m.functions().iter().map(base).collect();
        solve(m, (0..table.len() as u32).map(FuncId), &mut table);
        ModRefSummaries { table }
    }

    /// Recompute the summaries of `affected` functions (ascending) in
    /// place, leaving every other entry untouched.
    ///
    /// Sound exactly when `affected` is closed under "transitive direct
    /// caller of an edited function": summaries flow callee -> caller, so a
    /// function outside that closure cannot call into it (it would be a
    /// transitive caller itself) and its summary is already at the global
    /// fixed point. The restricted fixed point then converges to the same
    /// solution [`ModRefSummaries::compute`] would produce from scratch —
    /// including non-monotone edits (a deleted store clears bits), because
    /// the affected entries are reset to their base before iterating.
    ///
    /// Returns the affected functions whose summary came out different
    /// (or that had none before), ascending. Both that list and the
    /// summaries as they were live in `buf`, which the caller keeps across
    /// recomputations.
    pub fn recompute_scoped<'b>(
        &mut self,
        m: &Module,
        affected: &[FuncId],
        buf: &'b mut ModRefBuffers,
    ) -> &'b [FuncId] {
        buf.before.clear();
        buf.before
            .extend(affected.iter().map(|&fid| self.bits(fid)));
        if let Some(last) = affected.iter().map(|fid| fid.index()).max() {
            if last >= self.table.len() {
                self.table.resize(last + 1, UNKNOWN);
            }
        }
        for &fid in affected {
            self.table[fid.index()] = base(m.func(fid));
        }
        solve(m, affected.iter().copied(), &mut self.table);
        let moved = affected.iter().zip(&buf.before);
        let moved = moved.filter(|&(&fid, &old)| self.bits(fid) != old);
        buf.moved.clear();
        buf.moved.extend(moved.map(|(&fid, _)| fid));
        &buf.moved
    }

    /// The summary bits of `fid`; all of them where it has no summary.
    fn bits(&self, fid: FuncId) -> u8 {
        self.table.get(fid.index()).map_or(UNKNOWN, |&b| b)
    }

    /// Whether function `fid` may read caller-visible memory, write it, and
    /// perform I/O, in one lookup: what a call to it may do.
    pub fn effects(&self, fid: FuncId) -> (bool, bool, bool) {
        let bits = self.bits(fid);
        (bits & READS != 0, bits & WRITES != 0, bits & IO != 0)
    }

    /// True if function `fid` may read caller-visible memory.
    pub fn may_read(&self, fid: FuncId) -> bool {
        self.bits(fid) & READS != 0
    }

    /// True if function `fid` may write caller-visible memory.
    pub fn may_write(&self, fid: FuncId) -> bool {
        self.bits(fid) & WRITES != 0
    }

    /// True if function `fid` may perform I/O or other non-memory effects.
    pub fn has_io(&self, fid: FuncId) -> bool {
        self.bits(fid) & IO != 0
    }

    /// May the call instruction `id` of function `fid` read memory?
    pub fn call_may_read(&self, m: &Module, fid: FuncId, id: InstId) -> bool {
        match m.func(fid).inst(id) {
            Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } => self.may_read(*cid),
            Inst::Call { .. } => true,
            _ => false,
        }
    }

    /// May the call instruction `id` of function `fid` write memory?
    pub fn call_may_write(&self, m: &Module, fid: FuncId, id: InstId) -> bool {
        match m.func(fid).inst(id) {
            Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } => self.may_write(*cid),
            Inst::Call { .. } => true,
            _ => false,
        }
    }

    /// May the call instruction `id` of function `fid` perform I/O (or
    /// other non-memory effects)? Distinguishes externally-visible effects
    /// from plain memory writes: a write-only callee can be privatized,
    /// an I/O callee cannot.
    pub fn call_has_io(&self, m: &Module, fid: FuncId, id: InstId) -> bool {
        match m.func(fid).inst(id) {
            Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } => self.has_io(*cid),
            Inst::Call { .. } => true,
            _ => false,
        }
    }

    /// Does the call instruction have any effect that pins it in place
    /// (memory writes or I/O)?
    pub fn call_has_side_effects(&self, m: &Module, fid: FuncId, id: InstId) -> bool {
        match m.func(fid).inst(id) {
            Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } => self.may_write(*cid) || self.has_io(*cid),
            Inst::Call { .. } => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::types::Type;
    use noelle_ir::value::Value;

    #[test]
    fn external_table() {
        assert!(external_effects("sqrt") == ExternalEffect::PURE);
        assert!(external_effects("malloc").allocates);
        assert!(!external_effects("malloc").writes_memory);
        assert!(external_effects("print_i64").io);
        assert!(!external_effects("print_i64").writes_memory);
        assert!(external_effects("somethingelse").writes_memory);
        assert!(is_allocator("calloc"));
        assert!(!is_allocator("free"));
    }

    #[test]
    fn summaries_propagate_through_calls() {
        let mut m = Module::new("t");
        // leaf: pure computation
        let mut leaf = FunctionBuilder::new("leaf", vec![("x", Type::I64)], Type::I64);
        let e = leaf.entry_block();
        leaf.switch_to(e);
        let v = leaf.binop(
            noelle_ir::inst::BinOp::Add,
            Type::I64,
            leaf.arg(0),
            Value::const_i64(1),
        );
        leaf.ret(Some(v));
        let leaf = m.add_function(leaf.finish());

        // writer: stores to memory
        let mut writer =
            FunctionBuilder::new("writer", vec![("p", Type::I64.ptr_to())], Type::Void);
        let e = writer.entry_block();
        writer.switch_to(e);
        writer.store(Type::I64, Value::const_i64(1), Value::Arg(0));
        writer.ret(None);
        let writer = m.add_function(writer.finish());

        // caller: calls both
        let mut caller =
            FunctionBuilder::new("caller", vec![("p", Type::I64.ptr_to())], Type::Void);
        let e = caller.entry_block();
        caller.switch_to(e);
        let c1 = caller.call(leaf, vec![Value::const_i64(1)], Type::I64);
        let c2 = caller.call(writer, vec![Value::Arg(0)], Type::Void);
        caller.ret(None);
        let caller_id = m.add_function(caller.finish());

        let s = ModRefSummaries::compute(&m);
        assert!(!s.may_write(leaf));
        assert!(!s.may_read(leaf));
        assert!(s.may_write(writer));
        assert!(s.may_write(caller_id));
        assert!(!s.call_may_write(&m, caller_id, c1.as_inst().unwrap()));
        assert!(s.call_may_write(&m, caller_id, c2.as_inst().unwrap()));
        assert!(!s.call_has_side_effects(&m, caller_id, c1.as_inst().unwrap()));
    }

    #[test]
    fn recursion_terminates_and_is_conservative_only_as_needed() {
        let mut m = Module::new("t");
        // Two mutually recursive pure functions.
        let a_decl = Function_new_stub(&mut m, "a");
        let b_decl = Function_new_stub(&mut m, "b");
        // Fill bodies: a calls b, b calls a; both otherwise pure.
        fill_call_body(&mut m, a_decl, b_decl);
        fill_call_body(&mut m, b_decl, a_decl);
        let s = ModRefSummaries::compute(&m);
        assert!(!s.may_write(a_decl));
        assert!(!s.may_read(b_decl));
    }

    #[allow(non_snake_case)]
    fn Function_new_stub(m: &mut Module, name: &str) -> FuncId {
        m.add_function(noelle_ir::module::Function::new(
            name,
            vec![("x".into(), Type::I64)],
            Type::I64,
        ))
    }

    fn fill_call_body(m: &mut Module, this: FuncId, other: FuncId) {
        let mut f = noelle_ir::module::Function::new(
            m.func(this).name.clone(),
            vec![("x".into(), Type::I64)],
            Type::I64,
        );
        let entry = f.add_block("entry");
        let call = f.append_inst(
            entry,
            Inst::Call {
                callee: Callee::Direct(other),
                args: vec![Value::Arg(0)],
                ret_ty: Type::I64,
            },
        );
        f.set_terminator(
            entry,
            noelle_ir::inst::Terminator::Ret(Some(Value::Inst(call))),
        );
        *m.func_mut(this) = f;
    }
}
