//! Program Dependence Graph construction.
//!
//! The PDG contains *all* dependences between the instructions of a program
//! (Ferrante et al.): register data dependences from SSA def-use chains,
//! memory data dependences established by the alias-analysis stack, and
//! control dependences from the post-dominance frontier. Loop dependence
//! graphs are carved from a function's PDG and then *refined* with
//! loop-centric analyses — exactly the flow the paper describes ("when a pass
//! requests the loop dependence graph from a PDG, NOELLE runs loop-centric
//! analyses to refine the dependences included in the PDG for the specific
//! loop in-question").

use crate::depgraph::{DataDepKind, DepEdge, DepGraph, EdgeAttrs, EdgeId};
use crate::sccdag::SccScratch;
use noelle_analysis::alias::{
    sorted_disjoint, AliasAnalysis, AliasResult, BaseObjects, MemoryObject,
};
use noelle_analysis::modref::ModRefSummaries;
use noelle_analysis::scev::{affine_recurrences, trivially_loop_invariant, AddRec};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::PostDomTree;
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::layout::{LayoutIndex, Place};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::{BlockId, FuncId, Function, Module};
use noelle_ir::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// How an instruction touches memory, as seen by the PDG builder.
#[derive(Clone, Copy, Debug)]
struct MemEffect {
    reads: bool,
    writes: bool,
    io: bool,
    /// The pointer operand for plain loads/stores (None for calls).
    ptr: Option<Value>,
}

/// A memory-touching instruction of the function being built.
struct Access {
    inst: InstId,
    effect: MemEffect,
    place: Place,
    /// Its pointer group: the id of its pointer, or one past the last id
    /// when it has none.
    group: u32,
}

/// Two accesses `a < b` (indices into the function's access list) that
/// depend on each other through memory, and in which directions.
#[derive(Clone, Copy, Default)]
struct Conflict {
    a: u32,
    b: u32,
    /// Kind of the dependence `a -> b`, if there is one.
    forward: Option<DataDepKind>,
    /// Kind of the dependence `b -> a`, if there is one.
    backward: Option<DataDepKind>,
    /// The alias verdict was `Must`.
    must: bool,
}

impl Conflict {
    /// What connects `mem[i]` and `mem[j]`, whose pointers the alias stack
    /// could not tell apart: an edge per direction in which the effects
    /// conflict — same-block pairs oriented by position, cross-block pairs
    /// in both directions (flow-insensitive may-dependences). `None` when
    /// the effects do not conflict at all.
    fn of(mem: &[Access], i: u32, j: u32, must: bool) -> Option<Conflict> {
        let (a, b) = (i.min(j), i.max(j));
        let (x, y) = (&mem[a as usize], &mem[b as usize]);
        let same_block = x.place.block_rank == y.place.block_rank;
        let forward = PdgBuilder::conflict_kind(&x.effect, &y.effect)
            .filter(|_| !same_block || x.place < y.place);
        let backward = PdgBuilder::conflict_kind(&y.effect, &x.effect)
            .filter(|_| !same_block || y.place < x.place);
        (forward.is_some() || backward.is_some()).then_some(Conflict {
            a,
            b,
            forward,
            backward,
            must,
        })
    }
}

/// The working storage of PDG partition and loop-abstraction builds: every
/// temporary table a build fills and drops, the post-dominator tree and
/// Tarjan's state included.
///
/// The caller owns the buffers. Every build clears what it uses before it
/// reads it and never shrinks it, so a caller that keeps one set — the
/// `Noelle` manager does, for every partition and loop abstraction it
/// builds — allocates temporaries only for a function larger than any
/// before, and the set is bounded by the largest function built. Nothing
/// one build leaves in them reaches the next. The entry points without a
/// buffer parameter ([`PdgBuilder::function_pdg`],
/// [`PdgBuilder::loop_pdg_with`], [`crate::sccdag::SccDag::new`]) run the
/// same code on a fresh set.
#[derive(Default)]
pub struct BuildBuffers {
    /// Where each instruction sits: the function's, or the loop's
    /// function's.
    layout: LayoutIndex,
    /// The function's memory accesses, in layout order.
    mem: Vec<Access>,
    /// The distinct pointer operands of `mem`, ascending: a pointer's id
    /// is its rank.
    ptrs: Vec<Value>,
    /// The accesses by pointer group, each group ascending; the group of
    /// the accesses with no pointer last.
    by_group: Vec<u32>,
    /// `(object, pointer id)`: the base-object buckets.
    bucketed: Vec<(MemoryObject, u32)>,
    /// The pointer pairs the alias stack is asked about.
    pairs: Vec<(u32, u32)>,
    /// The alias stack's buffers.
    objs: BaseObjects,
    /// The conflicting access pairs: as found, then in `(a, b)` order.
    conflicts: Vec<Conflict>,
    /// The counting sort's output, swapped with `conflicts`.
    sorted: Vec<Conflict>,
    /// The counting sorts' bucket starts: one per pointer group and one
    /// more, then one per access and one more.
    starts: Vec<u32>,
    /// The function's post-dominator tree, rebuilt in place.
    pdt: PostDomTree,
    /// `(dependent, controlling)` block pairs.
    control: Vec<(BlockId, BlockId)>,
    /// A loop's instructions, ascending.
    loop_insts: Vec<InstId>,
    /// The same set, as a mark per arena index.
    in_loop: Vec<bool>,
    /// The function-graph edges that touch the loop.
    touching: Vec<EdgeId>,
    /// `(min, max, must)` per conflicting pair of loop accesses.
    loop_conflicts: Vec<(InstId, InstId, bool)>,
    /// Edges gathered before their count is known, then copied out: a
    /// function graph's register edges, or a loop graph's edges.
    edges: Vec<DepEdge<InstId>>,
    /// Tarjan's walk over the loop graph.
    pub(crate) scc: SccScratch,
    /// An arena-sized table: a pointer's id by its instruction, then the
    /// graph's node slot by arena index.
    slots: Vec<u32>,
}

/// Builds PDGs for one module against a chosen alias-analysis stack.
///
/// The builder is `Sync` (the module and alias stack are immutable, the
/// mod/ref summaries shared through an `Arc`) and holds no state between
/// calls: a build's working storage is the [`BuildBuffers`] its caller
/// passes.
pub struct PdgBuilder<'a> {
    module: &'a Module,
    alias: &'a dyn AliasAnalysis,
    modref: Arc<ModRefSummaries>,
}

/// The whole-program PDG: one dependence graph per defined function (linked
/// by the complete call graph for interprocedural reasoning).
///
/// Each partition sits behind its own `Arc` so an incremental rebuild can
/// assemble a new program PDG that shares every undamaged function's graph
/// with the previous snapshot — reuse is a pointer copy, not a re-analysis.
#[derive(Debug)]
pub struct ProgramPdg {
    /// Dependence graph of each defined function.
    pub per_function: HashMap<FuncId, Arc<DepGraph<InstId>>>,
}

impl ProgramPdg {
    /// Total number of dependence edges across the program.
    pub fn num_edges(&self) -> usize {
        self.per_function.values().map(|g| g.edges().len()).sum()
    }

    /// True if the PDG of `fid` connects `src` and `dst` with a memory
    /// dependence (in either direction; see
    /// [`DepGraph::has_memory_dep_between`]). This is the soundness
    /// membership query the dynamic dependence oracle asks: every
    /// runtime-observed store→load pair must be covered, or the alias
    /// analysis missed a dependence.
    pub fn covers_memory_dep(&self, fid: FuncId, src: InstId, dst: InstId) -> bool {
        self.per_function
            .get(&fid)
            .map(|g| g.has_memory_dep_between(src, dst))
            .unwrap_or(false)
    }
}

impl<'a> PdgBuilder<'a> {
    /// Create a builder over `module` using alias stack `alias`.
    pub fn new(module: &'a Module, alias: &'a dyn AliasAnalysis) -> PdgBuilder<'a> {
        PdgBuilder {
            module,
            alias,
            modref: Arc::new(ModRefSummaries::compute(module)),
        }
    }

    /// Create a builder reusing already-computed mod/ref summaries — what
    /// the experiment harnesses use to share one summary computation across
    /// several alias configurations of the same module.
    pub fn new_with_modref(
        module: &'a Module,
        alias: &'a dyn AliasAnalysis,
        modref: Arc<ModRefSummaries>,
    ) -> PdgBuilder<'a> {
        PdgBuilder {
            module,
            alias,
            modref,
        }
    }

    /// The module this builder analyzes.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Mod/ref summaries (shared with invariant detection).
    pub fn modref(&self) -> &ModRefSummaries {
        &self.modref
    }

    /// Build the whole-program PDG: one independent graph per defined
    /// function, every build in one set of buffers.
    pub fn program_pdg(&self) -> ProgramPdg {
        let mut buf = BuildBuffers::default();
        let per_function = self
            .module
            .func_ids()
            .filter(|&fid| !self.module.func(fid).is_declaration())
            .map(|fid| {
                let cfg = Cfg::new(self.module.func(fid));
                (fid, Arc::new(self.function_pdg_in(fid, &cfg, &mut buf)))
            })
            .collect();
        ProgramPdg { per_function }
    }

    fn mem_effect(&self, f: &Function, id: InstId) -> Option<MemEffect> {
        match f.inst(id) {
            Inst::Load { ptr, .. } => Some(MemEffect {
                reads: true,
                writes: false,
                io: false,
                ptr: Some(*ptr),
            }),
            Inst::Store { ptr, .. } => Some(MemEffect {
                reads: false,
                writes: true,
                io: false,
                ptr: Some(*ptr),
            }),
            Inst::Call { callee, .. } => {
                let (reads, writes, io) = match callee {
                    Callee::Direct(cid) => self.modref.effects(*cid),
                    Callee::Indirect(_) => (true, true, true),
                };
                if reads || writes || io {
                    Some(MemEffect {
                        reads,
                        writes,
                        io,
                        ptr: None,
                    })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The data-dependence kind of the ordered pair `a -> b`, if the two
    /// effects conflict at all. Whether they conflict does not depend on the
    /// order — swapping `a` and `b` swaps RAW with WAR and nothing else — so
    /// a pair is connected in one direction exactly when it is in the other.
    fn conflict_kind(a: &MemEffect, b: &MemEffect) -> Option<DataDepKind> {
        if a.writes && b.reads {
            Some(DataDepKind::Raw)
        } else if a.reads && b.writes {
            Some(DataDepKind::War)
        } else if (a.writes && b.writes) || (a.io && b.io) {
            // Two I/O operations must stay ordered even though they do not
            // touch user-visible memory (e.g. two prints).
            Some(DataDepKind::Waw)
        } else {
            None
        }
    }

    /// The unordered pointer pairs `(p, q)`, `p <= q`, that base-object
    /// bucketing cannot rule out, ascending, as ids into `ptrs`, into
    /// `pairs`; `bucketed` is scratch.
    ///
    /// Pointers are grouped by the abstract objects they may address
    /// ([`AliasAnalysis::base_objects`], asked once per pointer); only pairs
    /// sharing a bucket are candidates. Pointers with no bounded base set
    /// land in a catch-all group paired with everything. Sound and *exact*
    /// relative to [`PdgBuilder::all_pointer_pairs`]: a skipped pair has
    /// disjoint known base sets, for which the alias contract guarantees
    /// `No` — no edge would come of it.
    fn candidate_pointer_pairs(
        &self,
        fid: FuncId,
        ptrs: &[Value],
        objs: &mut BaseObjects,
        bucketed: &mut Vec<(MemoryObject, u32)>,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        bucketed.clear();
        pairs.clear();
        for (p, &ptr) in ptrs.iter().enumerate() {
            let p = p as u32;
            if self.alias.base_objects(fid, ptr, objs) && !objs.objects().is_empty() {
                bucketed.extend(objs.objects().iter().map(|&o| (o, p)));
            } else {
                pairs.extend((0..ptrs.len() as u32).map(|q| (p.min(q), p.max(q))));
            }
        }
        bucketed.sort_unstable();
        for bucket in bucketed.chunk_by(|a, b| a.0 == b.0) {
            for (k, &(_, p)) in bucket.iter().enumerate() {
                pairs.extend(bucket[k..].iter().map(|&(_, q)| (p, q)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
    }

    /// All unordered pointer pairs — the pre-bucketing reference
    /// enumeration — into `pairs`.
    fn all_pointer_pairs(n: u32, pairs: &mut Vec<(u32, u32)>) {
        pairs.clear();
        pairs.extend((0..n).flat_map(|p| (p..n).map(move |q| (p, q))));
    }

    /// The pairs of accesses of `buf.mem` that depend on each other,
    /// ascending by `(a, b)`, into `buf.conflicts`; returns the number of
    /// memory edges they make.
    ///
    /// Works on interned pointers: the distinct pointer operands of `mem`
    /// get dense ids once — an instruction through a table indexed by its
    /// arena slot, any other by a search among the few distinct ones — and
    /// a counting sort groups the accesses by them. The alias stack is
    /// asked once per distinct unordered pointer pair some access pair could
    /// need (`alias` is symmetric; a pointer is paired with itself only when
    /// two accesses share it). A verdict other than `No` makes candidates of
    /// every access pair over the two pointers, `must` recording `Must`.
    /// Accesses without a pointer — calls, I/O — are not disambiguated: each
    /// pairs with every other access.
    fn conflicts(&self, fid: FuncId, buf: &mut BuildBuffers, all_pairs: bool) -> usize {
        const UNSEEN: u32 = u32::MAX;
        let BuildBuffers {
            mem,
            ptrs,
            by_group,
            bucketed,
            pairs,
            objs,
            conflicts,
            sorted,
            starts,
            slots,
            ..
        } = buf;
        // Pointer ids ascend as the values do — every instruction before
        // any other value, instructions by arena index — so `(p, q)` with
        // `p <= q` is also the `(min, max)` order `alias` is asked in. An
        // instruction is marked in `slots` and numbered by a walk of the
        // table; the other pointers are sorted, and go after them.
        slots.clear();
        slots.resize(self.module.func(fid).inst_arena_len(), UNSEEN);
        ptrs.clear();
        for a in mem.iter() {
            match a.effect.ptr {
                Some(Value::Inst(p)) => {
                    if p.index() >= slots.len() {
                        slots.resize(p.index() + 1, UNSEEN);
                    }
                    slots[p.index()] = 0;
                }
                Some(other) => ptrs.push(other),
                None => {}
            }
        }
        ptrs.sort_unstable();
        ptrs.dedup();
        let n_other = ptrs.len();
        for (i, id) in slots.iter_mut().enumerate() {
            if *id != UNSEEN {
                *id = (ptrs.len() - n_other) as u32;
                ptrs.push(Value::Inst(InstId(i as u32)));
            }
        }
        ptrs.rotate_left(n_other);
        let (n_inst, n_groups) = (ptrs.len() - n_other, ptrs.len() + 1);
        // The accesses by group, by a counting sort: count, prefix-sum into
        // each group's end, then place the accesses last to first, each
        // group's cursor falling to its start. Group `g` holds the accesses
        // through `ptrs[g]`; the last one, those with no pointer.
        starts.clear();
        starts.resize(n_groups + 1, 0);
        for a in mem.iter_mut() {
            a.group = match a.effect.ptr {
                Some(Value::Inst(p)) => slots[p.index()],
                Some(other) => {
                    let rank = ptrs[n_inst..].binary_search(&other);
                    (n_inst + rank.expect("interned above")) as u32
                }
                None => ptrs.len() as u32,
            };
            starts[a.group as usize] += 1;
        }
        for g in 1..=n_groups {
            starts[g] += starts[g - 1];
        }
        by_group.clear();
        by_group.resize(mem.len(), 0);
        for (i, a) in mem.iter().enumerate().rev() {
            let cursor = &mut starts[a.group as usize];
            *cursor -= 1;
            by_group[*cursor as usize] = i as u32;
        }
        let (by_group, group_starts) = (&*by_group, &*starts);
        let uses = |g: u32| {
            let g = g as usize;
            &by_group[group_starts[g] as usize..group_starts[g + 1] as usize]
        };

        if all_pairs {
            PdgBuilder::all_pointer_pairs(ptrs.len() as u32, pairs);
        } else {
            self.candidate_pointer_pairs(fid, ptrs, objs, bucketed, pairs);
        }
        conflicts.clear();
        conflicts.reserve(4 * mem.len());
        for &(p, q) in pairs.iter() {
            let (through_p, through_q) = (uses(p), uses(q));
            if p == q && through_p.len() < 2 {
                continue;
            }
            let (a, b) = (ptrs[p as usize], ptrs[q as usize]);
            let must = match self.alias.alias_in(fid, a, b, objs) {
                AliasResult::No => continue,
                verdict => verdict == AliasResult::Must,
            };
            for (k, &i) in through_p.iter().enumerate() {
                let later = &through_p[k + 1..];
                let partners = if p == q { later } else { through_q }.iter();
                conflicts.extend(partners.filter_map(|&j| Conflict::of(mem, i, j, must)));
            }
        }
        for &i in uses(ptrs.len() as u32) {
            let others =
                (0..mem.len() as u32).filter(|&j| mem[j as usize].effect.ptr.is_some() || j > i);
            conflicts.extend(others.filter_map(|j| Conflict::of(mem, i, j, false)));
        }
        // A counting sort on `a`, then each run by `b`: the `(a, b)` keys
        // are unique, so this is the order a comparison sort of the whole
        // list gives, without comparing across runs. The counting pass
        // counts the edges too.
        starts.clear();
        starts.resize(mem.len() + 1, 0);
        let mut n_edges = 0;
        for c in conflicts.iter() {
            starts[c.a as usize + 1] += 1;
            n_edges += usize::from(c.forward.is_some()) + usize::from(c.backward.is_some());
        }
        for i in 0..mem.len() {
            starts[i + 1] += starts[i];
        }
        sorted.clear();
        sorted.resize(conflicts.len(), Conflict::default());
        for c in conflicts.iter() {
            let cursor = &mut starts[c.a as usize];
            sorted[*cursor as usize] = *c;
            *cursor += 1;
        }
        // Each cursor now ends its run, which the previous one starts.
        let mut lo = 0;
        for &hi in &starts[..mem.len()] {
            sorted[lo..hi as usize].sort_unstable_by_key(|c| c.b);
            lo = hi as usize;
        }
        std::mem::swap(conflicts, sorted);
        n_edges
    }

    /// Build the dependence graph of one function (all instructions
    /// internal), enumerating pointer pairs through base-object bucketing.
    pub fn function_pdg(&self, fid: FuncId) -> DepGraph<InstId> {
        let cfg = Cfg::new(self.module.func(fid));
        self.function_pdg_in(fid, &cfg, &mut BuildBuffers::default())
    }

    /// [`PdgBuilder::function_pdg`] over the function's CFG `cfg`, which
    /// the caller already holds, working in `buf`: every temporary of the
    /// build comes out of the buffers, and what it allocates is the graph.
    pub fn function_pdg_in(
        &self,
        fid: FuncId,
        cfg: &Cfg,
        buf: &mut BuildBuffers,
    ) -> DepGraph<InstId> {
        self.function_pdg_impl(fid, cfg, buf, false)
    }

    /// Reference build examining every pointer pair — the oracle
    /// [`PdgBuilder::function_pdg`] is tested against, built only for tests
    /// (the `test-support` feature).
    #[cfg(any(test, feature = "test-support"))]
    pub fn function_pdg_allpairs(&self, fid: FuncId) -> DepGraph<InstId> {
        let cfg = Cfg::new(self.module.func(fid));
        self.function_pdg_impl(fid, &cfg, &mut BuildBuffers::default(), true)
    }

    fn function_pdg_impl(
        &self,
        fid: FuncId,
        cfg: &Cfg,
        buf: &mut BuildBuffers,
        all_pairs: bool,
    ) -> DepGraph<InstId> {
        let f = self.module.func(fid);
        buf.layout.rebuild(f);

        // One walk over the body, in layout order, finds the memory
        // accesses and gathers the register dependences: with the other two
        // kinds counted below, the edge list is allocated once, at its final
        // size.
        let BuildBuffers {
            layout, mem, edges, ..
        } = &mut *buf;
        mem.clear();
        edges.clear();
        for &b in f.block_order() {
            for &inst in &f.block(b).insts {
                f.inst(inst).for_each_operand(|op| {
                    if let Value::Inst(def) = op {
                        edges.push(DepEdge {
                            src: def,
                            dst: inst,
                            attrs: EdgeAttrs::register(),
                        });
                    }
                });
                mem.extend(self.mem_effect(f, inst).map(|effect| Access {
                    inst,
                    effect,
                    place: layout.place(inst).expect("listed in a block"),
                    group: 0,
                }));
            }
        }

        // Control dependences: dependent block's instructions depend on the
        // controlling block's terminator.
        buf.pdt.rebuild(f, cfg);
        buf.pdt.control_dependences_into(cfg, &mut buf.control);
        let controlled = |&(dependent, ctrl): &(BlockId, BlockId)| {
            let insts = &f.block(dependent).insts;
            f.terminator_id(ctrl).map(|term| (term, insts))
        };
        let n_control: usize = buf
            .control
            .iter()
            .filter_map(controlled)
            .map(|(_, insts)| insts.len())
            .sum();

        // Memory dependences: ordered pairs of memory-touching instructions.
        // The graph is the memo of this call's alias verdicts that outlives
        // it: a memory edge between two accesses records "not `No`", its
        // `must` flag records `Must` (see `loop_pdg_with`).
        let n_memory = self.conflicts(fid, buf, all_pairs);

        // The edge list's order is the graph's edge order, which `EdgeId`s,
        // the wire JSON and the store bytes key on: register, control,
        // memory — each conflicting pair `a -> b` first.
        let register = &buf.edges;
        let n_edges = register.len() + n_control + n_memory;
        let mut edges = Vec::with_capacity(n_edges);
        edges.extend_from_slice(register);
        for (term, insts) in buf.control.iter().filter_map(controlled) {
            let attrs = EdgeAttrs::control();
            edges.extend(insts.iter().map(|&dst| DepEdge {
                src: term,
                dst,
                attrs,
            }));
        }
        let mem = &buf.mem;
        for c in &buf.conflicts {
            let (a, b) = (mem[c.a as usize].inst, mem[c.b as usize].inst);
            for (src, dst, kind) in [(a, b, c.forward), (b, a, c.backward)] {
                if let Some(kind) = kind {
                    let mut attrs = EdgeAttrs::memory(kind);
                    attrs.must = c.must;
                    edges.push(DepEdge { src, dst, attrs });
                }
            }
        }
        debug_assert_eq!(edges.len(), n_edges);
        // Every instruction with a place is a node, ascending already, and
        // every endpoint is one unless an operand names an instruction no
        // block lists.
        DepGraph::from_edges_in(buf.layout.placed(), edges, &mut buf.slots)
    }

    /// Memory dependences that cross a function boundary: every ordered pair
    /// of memory-touching instructions `(a in caller, b in callee)` whose
    /// accesses base-object bucketing cannot prove disjoint, as
    /// [`DepEdge`]s over `(FuncId, InstId)` nodes.
    ///
    /// Pointers live in different functions here, so the pairwise
    /// `alias(p, q)` disambiguation of the intra-procedural build does not
    /// apply; disambiguation is purely by [`AliasAnalysis::base_objects`]
    /// (accesses with an unbounded base set conflict with everything).
    /// Callers that previously re-filtered whole-graph edge lists by hand —
    /// environment-slot auditing, cross-task race detection — get the
    /// candidate pairs directly. Edges are deterministic: ascending by
    /// `(caller inst, callee inst)`.
    pub fn cross_function_memory_edges(
        &self,
        caller: FuncId,
        callee: FuncId,
    ) -> Vec<DepEdge<(FuncId, InstId)>> {
        let mut buf = BaseObjects::new();
        let mut collect = |fid: FuncId| -> Vec<(InstId, MemEffect, Option<Vec<MemoryObject>>)> {
            let f = self.module.func(fid);
            f.inst_iter()
                .filter_map(|id| self.mem_effect(f, id).map(|e| (id, e)))
                .map(|(id, e)| {
                    let bounded = e.ptr.filter(|&p| self.alias.base_objects(fid, p, &mut buf));
                    (id, e, bounded.map(|_| buf.objects().to_vec()))
                })
                .collect()
        };
        let caller_mem = collect(caller);
        let callee_mem = collect(callee);
        let overlap = |a: &Option<Vec<MemoryObject>>, b: &Option<Vec<MemoryObject>>| match (a, b) {
            (Some(x), Some(y)) => !sorted_disjoint(x, y),
            // An unbounded base set may address anything.
            _ => true,
        };
        let mut out = Vec::new();
        for (ia, ea, oa) in &caller_mem {
            for (ib, eb, ob) in &callee_mem {
                if !overlap(oa, ob) {
                    continue;
                }
                if let Some(kind) = PdgBuilder::conflict_kind(ea, eb) {
                    out.push(DepEdge {
                        src: (caller, *ia),
                        dst: (callee, *ib),
                        attrs: EdgeAttrs::memory(kind),
                    });
                }
            }
        }
        out
    }

    /// Build the *loop dependence graph* of `l` in function `fid`: internal
    /// nodes are the loop's instructions, external nodes the boundary
    /// producers/consumers, and memory/register dependences carry
    /// loop-carried flags refined with loop-centric analyses.
    pub fn loop_pdg(&self, fid: FuncId, l: &LoopInfo) -> DepGraph<InstId> {
        let recs = affine_recurrences(self.module.func(fid), l);
        self.loop_pdg_with(fid, l, &self.function_pdg(fid), &recs)
    }

    /// [`PdgBuilder::loop_pdg`] carving from an already-built function PDG —
    /// callers holding a cached whole-program PDG (the `Noelle` manager)
    /// avoid rebuilding the function graph for every loop of a function.
    ///
    /// `function_graph` must be this builder's [`PdgBuilder::function_pdg`]
    /// of `fid`, or a store-decoded copy of it: it is the only record of the
    /// alias verdicts this function consults. Two accesses of the loop
    /// conflict exactly when a memory edge connects them there, in either
    /// direction (the function graph orients same-block pairs one way, and
    /// a dependence kind exists in both directions or neither);
    /// the edge's `must` flag is the `Must` verdict. The alias stack is not
    /// asked again. `recs` are the loop's `affine_recurrences`, which the
    /// caller computes once for every view of the loop that reads them.
    pub fn loop_pdg_with(
        &self,
        fid: FuncId,
        l: &LoopInfo,
        function_graph: &DepGraph<InstId>,
        recs: &[AddRec],
    ) -> DepGraph<InstId> {
        self.loop_pdg_in(fid, l, function_graph, recs, &mut BuildBuffers::default())
    }

    /// [`PdgBuilder::loop_pdg_with`] working in `buf`: the loop's
    /// instructions and marks, the ids of the edges that touch it, its
    /// conflicting pairs and the body order live there.
    pub fn loop_pdg_in(
        &self,
        fid: FuncId,
        l: &LoopInfo,
        function_graph: &DepGraph<InstId>,
        recs: &[AddRec],
        buf: &mut BuildBuffers,
    ) -> DepGraph<InstId> {
        let f = self.module.func(fid);
        let BuildBuffers {
            layout,
            loop_insts,
            in_loop,
            touching,
            loop_conflicts: conflicts,
            edges,
            slots,
            ..
        } = buf;
        // The loop's instructions, ascending, and the same set as a mark per
        // arena index.
        loop_insts.clear();
        for &b in f.block_order().iter().filter(|&&b| l.contains(b)) {
            loop_insts.extend_from_slice(&f.block(b).insts);
        }
        loop_insts.sort_unstable();
        in_loop.clear();
        in_loop.resize(f.inst_arena_len(), false);
        for id in loop_insts.iter() {
            in_loop[id.index()] = true;
        }
        let in_loop = |id: InstId| in_loop.get(id.index()).is_some_and(|&marked| marked);

        // Start from the function graph's edges that touch the loop, in
        // their order there. The memory edges between loop instructions are
        // not copied: they are read as the pair's alias verdict (unordered
        // pair -> must) and re-derived below with iteration awareness.
        let touching = function_graph.edges_touching(loop_insts.iter().copied(), touching);
        edges.clear();
        conflicts.clear();
        for e in touching {
            let both_internal = in_loop(e.src) && in_loop(e.dst);
            if both_internal && e.attrs.memory {
                conflicts.push((e.src.min(e.dst), e.src.max(e.dst), e.attrs.must));
                continue;
            }
            let mut attrs = e.attrs;
            // Register dependence into a header phi along the back edge is
            // the canonical loop-carried dependence.
            if both_internal && !attrs.memory && attrs.is_data() {
                if let Inst::Phi { incomings, .. } = f.inst(e.dst) {
                    if f.parent_block(e.dst) == l.header
                        && incomings
                            .iter()
                            .any(|(pred, v)| l.contains(*pred) && *v == Value::Inst(e.src))
                    {
                        attrs.loop_carried = true;
                    }
                }
            }
            edges.push(DepEdge { attrs, ..*e });
        }
        // One entry per conflicting pair (the function graph may hold the
        // pair's edge in both directions), ascending: the order the
        // refinement below visits pairs in.
        conflicts.sort_unstable();
        conflicts.dedup_by_key(|&mut (a, b, _)| (a, b));
        let mut conflicts = conflicts.iter().copied().peekable();
        let mut push = |src, dst, attrs| edges.push(DepEdge { src, dst, attrs });

        // Loop-centric memory refinement: every memory access of the loop in
        // ascending order, each followed by its conflicts with the accesses
        // after it.
        // Body order, indexed on the first pair that needs it: most loops
        // have none.
        let mut indexed = false;
        let iter_local = |e: &MemEffect| {
            e.ptr
                .map(|p| distinct_per_iteration(f, l, recs, p))
                .unwrap_or(false)
        };
        for &ia in loop_insts.iter() {
            let Some(ea) = self.mem_effect(f, ia) else {
                continue;
            };
            // Self-dependence of writes across iterations.
            if ea.writes && !iter_local(&ea) {
                push(ia, ia, EdgeAttrs::memory(DataDepKind::Waw).carried());
            }
            if ea.io {
                // I/O must stay ordered across iterations too.
                push(ia, ia, EdgeAttrs::memory(DataDepKind::Waw).carried());
            }
            while let Some((a, ib, must)) = conflicts.next_if(|&(a, _, _)| a <= ia) {
                // Only a graph that is not this function's could name an
                // instruction that touches no memory.
                let Some(eb) = self.mem_effect(f, ib).filter(|_| a == ia) else {
                    continue;
                };
                let fwd = PdgBuilder::conflict_kind(&ea, &eb);
                let bwd = PdgBuilder::conflict_kind(&eb, &ea);
                // Same pointer, provably distinct location each iteration:
                // only an intra-iteration dependence, oriented by program
                // order within the body.
                let same_ptr = ea.ptr.is_some() && ea.ptr == eb.ptr;
                if same_ptr && iter_local(&ea) {
                    if !std::mem::replace(&mut indexed, true) {
                        layout.rebuild(f);
                    }
                    let (src, dst, kind) = if layout.place(ia) <= layout.place(ib) {
                        (ia, ib, fwd)
                    } else {
                        (ib, ia, bwd)
                    };
                    if let Some(kind) = kind {
                        let mut attrs = EdgeAttrs::memory(kind);
                        attrs.must = must;
                        attrs.distance = Some(0);
                        push(src, dst, attrs);
                    }
                    continue;
                }
                // Otherwise the dependence may cross iterations: both
                // directions, marked carried.
                if let Some(kind) = fwd {
                    let mut attrs = EdgeAttrs::memory(kind).carried();
                    attrs.must = must;
                    push(ia, ib, attrs);
                }
                if let Some(kind) = bwd {
                    let mut attrs = EdgeAttrs::memory(kind).carried();
                    attrs.must = must;
                    push(ib, ia, attrs);
                }
            }
        }
        // Every boundary node is an endpoint of a copied edge, which is
        // where `from_edges` finds the externals.
        DepGraph::from_edges_in(loop_insts.iter().copied(), edges.to_vec(), slots)
    }
}

/// True if `ptr` provably addresses a *different* location on every
/// iteration of `l`: a `gep` whose base is loop-invariant and whose only
/// varying index is an affine recurrence of `l` with non-zero constant step.
pub fn distinct_per_iteration(f: &Function, l: &LoopInfo, recs: &[AddRec], ptr: Value) -> bool {
    let Some(id) = ptr.as_inst() else {
        return false;
    };
    let Inst::Gep { base, indices, .. } = f.inst(id) else {
        return false;
    };
    if !trivially_loop_invariant(f, l, *base) {
        return false;
    }
    let mut varying = 0;
    for idx in indices {
        if trivially_loop_invariant(f, l, *idx) {
            continue;
        }
        let is_affine = recs.iter().any(|r| {
            (*idx == Value::Inst(r.phi) || *idx == Value::Inst(r.update))
                && r.const_step().map(|s| s != 0).unwrap_or(false)
        });
        if !is_affine {
            return false;
        }
        varying += 1;
    }
    varying == 1
}

/// Counters for the Figure 3 experiment: of all pairs of memory accesses
/// that could depend (at least one write), how many does the given alias
/// stack *disprove*?
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepStats {
    /// Pairs of potentially-dependent memory accesses examined.
    pub total_pairs: usize,
    /// Pairs proven independent (alias result `No`).
    pub disproved: usize,
}

/// Compute Figure 3 statistics for `m` under `alias`.
pub fn memory_dependence_stats(m: &Module, alias: &dyn AliasAnalysis) -> DepStats {
    let mut stats = DepStats::default();
    for fid in m.func_ids() {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        let accesses: Vec<(Value, bool)> = f
            .inst_iter()
            .filter_map(|id| match f.inst(id) {
                Inst::Load { ptr, .. } => Some((*ptr, false)),
                Inst::Store { ptr, .. } => Some((*ptr, true)),
                _ => None,
            })
            .collect();
        for (i, (pa, wa)) in accesses.iter().enumerate() {
            for (pb, wb) in accesses.iter().skip(i + 1) {
                if !wa && !wb {
                    continue; // read-read pairs never depend
                }
                stats.total_pairs += 1;
                if alias.alias(fid, *pa, *pb) == AliasResult::No {
                    stats.disproved += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_analysis::alias::{AndersenAlias, BasicAlias};
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::dom::DomTree;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::loops::LoopForest;
    use noelle_ir::types::Type;
    use std::collections::BTreeSet;

    /// for (i = 0; i < n; i++) a[i] = a[i] + 1   — DOALL-able.
    fn doall_loop() -> (Module, FuncId, LoopInfo) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(
            "k",
            vec![("a", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::Void,
        );
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let v2 = b.binop(BinOp::Add, Type::I64, v, Value::const_i64(1));
        b.store(Type::I64, v2, p);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        (m, fid, l)
    }

    /// for (i...) sum += a[i]  — loop-carried reduction through a phi.
    fn reduction_loop() -> (Module, FuncId, LoopInfo) {
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
        let sum = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let p = b.index_ptr(Type::I64, b.arg(0), i);
        let v = b.load(Type::I64, p);
        let sum2 = b.binop(BinOp::Add, Type::I64, sum, v);
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.add_incoming(sum, body, sum2);
        b.switch_to(exit);
        b.ret(Some(sum));
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        (m, fid, l)
    }

    /// Number of loop-carried data dependences in a loop graph.
    fn carried_data(g: &DepGraph<InstId>) -> usize {
        let carried = |e: &&DepEdge<InstId>| e.attrs.loop_carried && e.attrs.is_data();
        g.edges().iter().filter(carried).count()
    }

    #[test]
    fn function_pdg_has_register_and_control_edges() {
        let (m, fid, _) = doall_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.function_pdg(fid);
        assert!(g.edges().iter().any(|e| e.attrs.is_control()));
        assert!(g
            .edges()
            .iter()
            .any(|e| e.attrs.is_data() && !e.attrs.memory));
        // The load and store to a[i] produce memory edges in the flat
        // function PDG (no iteration awareness there).
        assert!(g.edges().iter().any(|e| e.attrs.memory));
    }

    #[test]
    fn loop_pdg_refines_same_iteration_accesses() {
        let (m, fid, l) = doall_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        // a[i] load/store: refined to an intra-iteration RAW-free pattern
        // (store depends on load in the same iteration; no carried edge
        // between memory accesses).
        let carried_mem: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.attrs.memory && e.attrs.loop_carried)
            .collect();
        assert!(
            carried_mem.is_empty(),
            "unexpected carried memory edges: {carried_mem:?}"
        );
        // Only the induction variable's update crosses iterations.
        assert_eq!(carried_data(&g), 1);
    }

    #[test]
    fn reduction_loop_has_carried_register_dep() {
        let (m, fid, l) = reduction_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        // Beside the induction variable's, sum2 -> sum-phi is loop-carried.
        assert_eq!(carried_data(&g), 2);
    }

    #[test]
    fn unindexed_store_blocks_doall() {
        // for (i...) *g = i  — same location every iteration.
        let mut m = Module::new("t");
        let g = m.add_global(noelle_ir::module::Global {
            name: "g".into(),
            ty: Type::I64,
            init: noelle_ir::module::GlobalInit::Zero,
            is_const: false,
        });
        let mut b = FunctionBuilder::new("k", vec![("n", Type::I64)], Type::Void);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(IcmpPred::Slt, Type::I64, i, b.arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.store(Type::I64, i, Value::Global(g));
        let i2 = b.binop(BinOp::Add, Type::I64, i, Value::const_i64(1));
        b.br(header);
        b.add_incoming(i, body, i2);
        b.switch_to(exit);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g2 = builder.loop_pdg(fid, &l);
        // The store has a carried WAW self-dependence.
        assert!(g2
            .edges()
            .iter()
            .any(|e| e.src == e.dst && e.attrs.memory && e.attrs.loop_carried));
    }

    #[test]
    fn andersen_stack_disproves_more_than_basic() {
        // Two arrays allocated by two mallocs, accessed through pointers
        // loaded from memory — basic AA loses track, Andersen does not.
        let mut m = Module::new("t");
        let malloc = m.declare_function("malloc", vec![Type::I64], Type::I64.ptr_to());
        let mut b = FunctionBuilder::new("k", vec![], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let a = b.call(malloc, vec![Value::const_i64(64)], Type::I64.ptr_to());
        let c = b.call(malloc, vec![Value::const_i64(64)], Type::I64.ptr_to());
        let cell_a = b.alloca(Type::I64.ptr_to());
        let cell_c = b.alloca(Type::I64.ptr_to());
        b.store(Type::I64.ptr_to(), a, cell_a);
        b.store(Type::I64.ptr_to(), c, cell_c);
        let pa = b.load(Type::I64.ptr_to(), cell_a);
        let pc = b.load(Type::I64.ptr_to(), cell_c);
        b.store(Type::I64, Value::const_i64(1), pa);
        b.store(Type::I64, Value::const_i64(2), pc);
        b.ret(None);
        m.add_function(b.finish());

        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let s_basic = memory_dependence_stats(&m, &basic);
        let s_full = memory_dependence_stats(&m, &andersen);
        assert_eq!(s_basic.total_pairs, s_full.total_pairs);
        assert!(
            s_full.disproved > s_basic.disproved,
            "basic={s_basic:?} full={s_full:?}"
        );
    }

    /// Flatten a graph into a comparable (sorted) edge multiset.
    fn edge_set(g: &DepGraph<InstId>) -> Vec<(InstId, InstId, String)> {
        let mut v: Vec<_> = g
            .edges()
            .iter()
            .map(|e| (e.src, e.dst, format!("{:?}", e.attrs)))
            .collect();
        v.sort();
        v
    }

    /// A module mixing known-base accesses (allocas, globals, geps), calls,
    /// and unknown pointers (args, loads of pointers) across two functions —
    /// exercises every bucketing path.
    fn mixed_module() -> Module {
        let mut m = Module::new("t");
        let g = m.add_global(noelle_ir::module::Global {
            name: "g".into(),
            ty: Type::I64,
            init: noelle_ir::module::GlobalInit::Zero,
            is_const: false,
        });
        let ext = m.declare_function("print", vec![Type::I64], Type::Void);
        let mut b = FunctionBuilder::new(
            "f1",
            vec![("p", Type::I64.ptr_to()), ("n", Type::I64)],
            Type::I64,
        );
        let entry = b.entry_block();
        b.switch_to(entry);
        let a = b.alloca(Type::I64.array_of(8));
        let a0 = b.gep(
            Type::I64.array_of(8),
            a,
            vec![Value::const_i64(0), Value::const_i64(0)],
        );
        let a1 = b.gep(
            Type::I64.array_of(8),
            a,
            vec![Value::const_i64(0), Value::const_i64(1)],
        );
        b.store(Type::I64, Value::const_i64(1), a0);
        b.store(Type::I64, Value::const_i64(2), a1);
        let v0 = b.load(Type::I64, a0);
        b.store(Type::I64, v0, Value::Global(g));
        b.store(Type::I64, v0, Value::Arg(0)); // unknown base
        b.call(ext, vec![v0], Type::Void); // call: catch-all
        let gv = b.load(Type::I64, Value::Global(g));
        b.ret(Some(gv));
        m.add_function(b.finish());

        let mut b = FunctionBuilder::new("f2", vec![("q", Type::I64.ptr_to())], Type::Void);
        let entry = b.entry_block();
        b.switch_to(entry);
        let cell = b.alloca(Type::I64.ptr_to());
        b.store(Type::I64.ptr_to(), Value::Arg(0), cell);
        let loaded = b.load(Type::I64.ptr_to(), cell); // unknown base ptr
        b.store(Type::I64, Value::const_i64(3), loaded);
        b.store(Type::I64, Value::const_i64(4), Value::Global(g));
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn bucketed_pdg_matches_allpairs_reference() {
        let m = mixed_module();
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = noelle_analysis::alias::AliasStack::new(&tiers);
        for alias in [&basic as &dyn AliasAnalysis, &andersen, &stack] {
            let builder = PdgBuilder::new(&m, alias);
            for fid in m.func_ids() {
                if m.func(fid).is_declaration() {
                    continue;
                }
                let fast = builder.function_pdg(fid);
                let oracle = builder.function_pdg_allpairs(fid);
                assert_eq!(
                    edge_set(&fast),
                    edge_set(&oracle),
                    "bucketing diverged on {} under {}",
                    m.func(fid).name,
                    alias.name()
                );
            }
        }
    }

    #[test]
    fn parallel_program_pdg_is_deterministic() {
        let m = mixed_module();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let parallel = builder.program_pdg();
        let defined: BTreeSet<FuncId> = m
            .func_ids()
            .filter(|&fid| !m.func(fid).is_declaration())
            .collect();
        assert_eq!(
            parallel
                .per_function
                .keys()
                .copied()
                .collect::<BTreeSet<_>>(),
            defined
        );
        for (fid, g) in &parallel.per_function {
            assert_eq!(edge_set(g), edge_set(&builder.function_pdg_allpairs(*fid)));
        }
        // And a second parallel run reproduces itself exactly.
        let again = builder.program_pdg();
        for (fid, g) in &parallel.per_function {
            assert_eq!(edge_set(g), edge_set(&again.per_function[fid]));
        }
    }

    #[test]
    fn loop_pdg_with_reuses_prebuilt_function_graph() {
        let (m, fid, l) = doall_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let fg = builder.function_pdg(fid);
        let direct = builder.loop_pdg(fid, &l);
        let recs = affine_recurrences(m.func(fid), &l);
        let reused = builder.loop_pdg_with(fid, &l, &fg, &recs);
        assert_eq!(edge_set(&direct), edge_set(&reused));
    }

    #[test]
    fn loop_externals_expose_live_ins_and_outs() {
        let (m, fid, l) = reduction_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let g = builder.loop_pdg(fid, &l);
        // The return consumes `sum`, so the loop has an outgoing external.
        assert!(!g.outgoing_externals().is_empty());
        assert!(g.num_internal() > 0);
    }
}
