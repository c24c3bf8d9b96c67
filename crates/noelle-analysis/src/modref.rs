//! Mod/ref information for call instructions.
//!
//! Used by the PDG builder to decide whether a call can depend on a memory
//! access, and by the invariant analysis (Algorithm 1 in the paper queries
//! `getModRefBehavior` on calls).

use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{FuncId, Module};
use std::collections::HashMap;

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

/// A function's three summary bits, each `None` where it had none.
type Summary = (Option<bool>, Option<bool>, Option<bool>);

/// The working lists of [`ModRefSummaries::recompute_scoped`], kept by its
/// caller so that a recomputation allocates nothing once they have grown.
#[derive(Default)]
pub struct ModRefBuffers {
    before: Vec<Summary>,
    moved: Vec<FuncId>,
}

/// Bottom-up memory summaries for every function of a module.
#[derive(Clone, Debug)]
pub struct ModRefSummaries {
    reads: HashMap<FuncId, bool>,
    writes: HashMap<FuncId, bool>,
    io: HashMap<FuncId, bool>,
}

impl ModRefSummaries {
    /// Compute summaries by fixed point over the (direct) call structure;
    /// indirect calls are conservatively assumed to read, write, and perform
    /// I/O.
    pub fn compute(m: &Module) -> ModRefSummaries {
        let mut reads: HashMap<FuncId, bool> = HashMap::new();
        let mut writes: HashMap<FuncId, bool> = HashMap::new();
        let mut io: HashMap<FuncId, bool> = HashMap::new();
        for fid in m.func_ids() {
            let f = m.func(fid);
            if f.is_declaration() {
                let e = external_effects(&f.name);
                reads.insert(fid, e.reads_memory);
                writes.insert(fid, e.writes_memory);
                io.insert(fid, e.io);
            } else {
                reads.insert(fid, false);
                writes.insert(fid, false);
                io.insert(fid, false);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for fid in m.func_ids() {
                let f = m.func(fid);
                if f.is_declaration() {
                    continue;
                }
                let mut r = reads[&fid];
                let mut w = writes[&fid];
                let mut o = io[&fid];
                for id in f.inst_iter() {
                    match f.inst(id) {
                        Inst::Load { .. } => r = true,
                        Inst::Store { .. } => w = true,
                        Inst::Call { callee, .. } => match callee {
                            Callee::Direct(cid) => {
                                r |= reads[cid];
                                w |= writes[cid];
                                o |= io[cid];
                            }
                            Callee::Indirect(_) => {
                                r = true;
                                w = true;
                                o = true;
                            }
                        },
                        _ => {}
                    }
                }
                if r != reads[&fid] || w != writes[&fid] || o != io[&fid] {
                    reads.insert(fid, r);
                    writes.insert(fid, w);
                    io.insert(fid, o);
                    changed = true;
                }
            }
        }
        ModRefSummaries { reads, writes, io }
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
        let summary = |s: &ModRefSummaries, fid: FuncId| {
            (
                s.reads.get(&fid).copied(),
                s.writes.get(&fid).copied(),
                s.io.get(&fid).copied(),
            )
        };
        buf.before.clear();
        buf.before
            .extend(affected.iter().map(|&fid| summary(self, fid)));
        for &fid in affected {
            let f = m.func(fid);
            if f.is_declaration() {
                let e = external_effects(&f.name);
                self.reads.insert(fid, e.reads_memory);
                self.writes.insert(fid, e.writes_memory);
                self.io.insert(fid, e.io);
            } else {
                self.reads.insert(fid, false);
                self.writes.insert(fid, false);
                self.io.insert(fid, false);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &fid in affected {
                let f = m.func(fid);
                if f.is_declaration() {
                    continue;
                }
                let mut r = self.reads[&fid];
                let mut w = self.writes[&fid];
                let mut o = self.io[&fid];
                for id in f.inst_iter() {
                    match f.inst(id) {
                        Inst::Load { .. } => r = true,
                        Inst::Store { .. } => w = true,
                        Inst::Call { callee, .. } => match callee {
                            Callee::Direct(cid) => {
                                r |= self.reads.get(cid).copied().unwrap_or(true);
                                w |= self.writes.get(cid).copied().unwrap_or(true);
                                o |= self.io.get(cid).copied().unwrap_or(true);
                            }
                            Callee::Indirect(_) => {
                                r = true;
                                w = true;
                                o = true;
                            }
                        },
                        _ => {}
                    }
                }
                if r != self.reads[&fid] || w != self.writes[&fid] || o != self.io[&fid] {
                    self.reads.insert(fid, r);
                    self.writes.insert(fid, w);
                    self.io.insert(fid, o);
                    changed = true;
                }
            }
        }
        let moved = affected.iter().zip(&buf.before);
        let moved = moved.filter(|&(&fid, &old)| summary(self, fid) != old);
        buf.moved.clear();
        buf.moved.extend(moved.map(|(&fid, _)| fid));
        &buf.moved
    }

    /// True if function `fid` may read caller-visible memory.
    pub fn may_read(&self, fid: FuncId) -> bool {
        self.reads.get(&fid).copied().unwrap_or(true)
    }

    /// True if function `fid` may write caller-visible memory.
    pub fn may_write(&self, fid: FuncId) -> bool {
        self.writes.get(&fid).copied().unwrap_or(true)
    }

    /// True if function `fid` may perform I/O or other non-memory effects.
    pub fn has_io(&self, fid: FuncId) -> bool {
        self.io.get(&fid).copied().unwrap_or(true)
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
