//! The demand-driven `Noelle` manager.
//!
//! "NOELLE's abstractions are demand-driven to preserve compilation time and
//! memory. Hence, users only pay for the abstractions they need. In other
//! words, if a user does not need the program dependence graph (PDG), then
//! it will not pay the cost of analyzing the program to compute its
//! dependences."
//!
//! [`Noelle`] owns the module being compiled, computes abstractions on first
//! request, and records which abstractions each custom tool requested — the
//! record behind Table 4 of the paper. What it caches is whole-program
//! substrate (points-to, mod/ref, call graph) plus one `FuncSlot` per
//! function; a [`LoopAbstraction`] is built per request from the function's
//! cached PDG partition and never retained — whoever asked for it owns it.

use crate::architecture::Architecture;
use crate::forest::ProgramLoopForest;
use crate::loop_abs::{LoopAbstraction, LoopBuffers};
use crate::profiler::Profiles;
use noelle_analysis::alias::{AliasAnalysis, AliasStack, AndersenAlias, BasicAlias};
use noelle_analysis::modref::{ModRefBuffers, ModRefSummaries};
use noelle_ir::cfg::{Cfg, StructureBuffers};
use noelle_ir::dom::DomTree;
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::loops::{LoopForest, LoopId};
use noelle_ir::module::{FuncId, Function, Module};
use noelle_pdg::callgraph::CallGraph;
use noelle_pdg::depgraph::DepGraph;
use noelle_pdg::pdg::{BuildBuffers, PdgBuilder, ProgramPdg};
/// The codec partitions persist with, for oracles that check it.
pub use noelle_store::artifact;
use noelle_store::{ArtifactKind, KeyCtx, Store};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which alias stack powers the PDG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasTier {
    /// LLVM-like basic rules only (the paper's "LLVM" baseline in Fig. 3).
    Basic,
    /// Basic rules + Andersen points-to (standing in for SCAF + SVF).
    Full,
}

/// The abstractions of Table 1, used for request tracking (Table 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[allow(missing_docs)]
pub enum Abstraction {
    Pdg,
    ASccDag,
    Cg,
    Env,
    Task,
    Dfe,
    Pro,
    Scd,
    L,
    Lb,
    Iv,
    Ivs,
    Inv,
    Fr,
    Isl,
    Rd,
    Ar,
    Ls,
    Audit,
}

impl Abstraction {
    /// The short name used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            Abstraction::Pdg => "PDG",
            Abstraction::ASccDag => "aSCCDAG",
            Abstraction::Cg => "CG",
            Abstraction::Env => "ENV",
            Abstraction::Task => "T",
            Abstraction::Dfe => "DFE",
            Abstraction::Pro => "PRO",
            Abstraction::Scd => "SCD",
            Abstraction::L => "L",
            Abstraction::Lb => "LB",
            Abstraction::Iv => "IV",
            Abstraction::Ivs => "IVS",
            Abstraction::Inv => "INV",
            Abstraction::Fr => "FR",
            Abstraction::Isl => "ISL",
            Abstraction::Rd => "RD",
            Abstraction::Ar => "AR",
            Abstraction::Ls => "LS",
            Abstraction::Audit => "AUDIT",
        }
    }
}

/// The per-function control-flow structures the manager caches together:
/// one CFG walk serves the dominator tree and the loop forest.
#[derive(Debug)]
pub struct FuncStructures {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree, shared with every [`LoopAbstraction`] built while
    /// it stands.
    pub dom: Arc<DomTree>,
    /// Loop forest, shared with every [`ProgramLoopForest`] assembled from
    /// the cache and every [`LoopAbstraction`] built while it stands.
    pub forest: Arc<LoopForest>,
}

/// Accumulated build-time cost of one cached abstraction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStat {
    /// Times the abstraction was (re)built from scratch.
    pub builds: u64,
    /// Total wall-clock time spent building, in nanoseconds.
    pub nanos: u128,
}

/// Approximate heap footprint of a manager's cached analysis state
/// (see [`Noelle::memory_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes held by the cached per-function dependence graphs.
    pub pdg_bytes: usize,
    /// Bytes held by the Andersen points-to rows and tables.
    pub andersen_bytes: usize,
    /// Defined functions in the module.
    pub functions: usize,
    /// `(pdg_bytes + andersen_bytes) / functions`, 0 when there are no
    /// defined functions.
    pub bytes_per_function: u64,
}

/// Counters over the manager's per-function cache slots (PDG partitions and
/// control-flow structures). A "hit" is a request the function's slot
/// answered; a "miss" is a function that had to be (re)analyzed; an
/// "invalidation" is a partition dropped by the damage-propagation rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuncCacheCounters {
    /// PDG partition requests served from the function's slot.
    pub pdg_hits: u64,
    /// PDG partitions (re)built from scratch.
    pub pdg_misses: u64,
    /// [`FuncStructures`] requests served from the cache.
    pub struct_hits: u64,
    /// [`FuncStructures`] requests that had to build.
    pub struct_misses: u64,
    /// Function cache slots invalidated (by edits or full invalidation).
    pub invalidations: u64,
    /// Edits that kept the whole-module points-to solution because no
    /// touched function's body moved — the re-solve was skipped entirely.
    pub andersen_reuses: u64,
    /// Functions whose points-to constraints were regenerated by edits'
    /// re-solves: the functions each commit moved the body of, appended
    /// ones included, never a multiple of the module size (the cold solve
    /// is not counted).
    pub andersen_regen_funcs: u64,
    /// Points-to rows those re-solves emptied and re-derived: every row of
    /// each edit that took pointer flow away, none of an edit that only
    /// added some (what the transforms' commits do).
    pub andersen_reset_rows: u64,
    /// Artifacts loaded from the durable store instead of recomputed.
    pub store_hits: u64,
    /// Store lookups that found nothing (or found a payload that failed
    /// its CRC or codec) and fell back to recomputation.
    pub store_misses: u64,
}

/// One function's fingerprints, hashed once per version of the function
/// and read by everything that keys on them: the commit compares *bodies*
/// (no analysis reads function or instruction metadata, so a touched
/// function that hashes the same body provably moves no cached result),
/// the durable store addresses by *content*.
#[derive(Clone, Copy)]
struct FuncFingerprints {
    body: u64,
    content: u64,
}

/// Everything the manager caches about one function, in two tiers. The
/// structures read nothing but the function's own body, so they fall when
/// a commit finds that body *moved*; the PDG partition also reads the
/// function's points-to rows and its direct callees' mod/ref summaries and
/// interfaces, so it falls whenever the function is *damaged* — which every
/// function whose body moved is, and a caller of one only when a summary or
/// an interface it reads moved. A touched function whose body did not move
/// keeps its whole slot, fingerprints refreshed.
#[derive(Default)]
struct FuncSlot {
    /// The commit that last damaged the function (see [`Noelle::epoch`]).
    epoch: u64,
    /// Hashes of the function's current version: filled by an edit's first
    /// touch, so the commit can tell whether the body it finds is the one
    /// the cached state saw, refreshed by that commit, and otherwise filled
    /// on first use by the store's keys.
    fingerprints: Option<FuncFingerprints>,
    structures: Option<FuncStructures>,
    /// The function's dependence graph, shared with every [`ProgramPdg`]
    /// snapshot assembled while it stands.
    partition: Option<Arc<DepGraph<InstId>>>,
}

impl FuncSlot {
    /// `fid`'s slot in `slots`; the table grows to cover appended functions.
    fn of(slots: &mut Vec<FuncSlot>, fid: FuncId) -> &mut FuncSlot {
        if slots.len() <= fid.index() {
            slots.resize_with(fid.index() + 1, FuncSlot::default);
        }
        &mut slots[fid.index()]
    }

    /// The fingerprints of the function's current version, `f`, hashed on
    /// first use.
    fn fingerprints(&mut self, f: &Function) -> FuncFingerprints {
        *self.fingerprints.get_or_insert_with(|| {
            let (body, content) = f.fingerprints();
            FuncFingerprints { body, content }
        })
    }

    /// A commit found `f` as the touched function's new version: hash it,
    /// and empty the slot unless its body is the one the first touch
    /// hashed. True when the body moved — the commit then damages the
    /// function. A slot holding no hash (a function the edit appended) has
    /// no body to compare, so it is emptied without hashing.
    fn commit(&mut self, f: &Function) -> bool {
        let Some(old) = self.fingerprints else {
            *self = FuncSlot::default();
            return true;
        };
        let (body, content) = f.fingerprints();
        let moved = old.body != body;
        if moved {
            *self = FuncSlot::default();
        }
        self.fingerprints = Some(FuncFingerprints { body, content });
        moved
    }
}

/// A value no manager in the process has handed out (`fetch_add` alone makes
/// it so; it orders no other data): a commit's stamp on what it damaged.
fn next_epoch() -> u64 {
    static EPOCHS: AtomicU64 = AtomicU64::new(1);
    EPOCHS.fetch_add(1, Ordering::Relaxed)
}

/// An open edit transaction over the managed module.
///
/// Created by [`Noelle::edit`]. The transaction hands out module access and
/// records which functions the edit touches; at commit the manager
/// invalidates exactly the touched functions whose bodies moved plus the
/// functions the damage rule says can observe them, instead of dropping
/// every cached abstraction.
///
/// Functions *added* during the transaction (e.g. via
/// `Module::get_or_declare` or `Module::add_function` on a scoped borrow)
/// are detected by a function-count watermark and touched automatically;
/// adding a *global* escalates to a full invalidation, since a new global
/// can alias memory in any function.
pub struct EditTx<'a> {
    module: &'a mut Module,
    /// The manager's cache slots, for the pre-edit fingerprints.
    slots: &'a mut Vec<FuncSlot>,
    /// Every function recorded as touched, with its
    /// [`Function::interface_fingerprint`] as it was at the first touch —
    /// before the edit, since touching is how an edit gets at a function.
    /// The commit compares it with the function it finds.
    touched: BTreeMap<FuncId, u64>,
    all: bool,
}

impl EditTx<'_> {
    /// Read-only view of the module being edited.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Record `fid` as touched without borrowing it. The first touch is
    /// also where the function gets hashed, if nothing hashed this version
    /// before: the commit compares that body with the one it finds, and a
    /// touch that leaves the body as it was — a metadata edit, or no edit
    /// at all — damages nothing.
    pub fn touch(&mut self, fid: FuncId) {
        let Entry::Vacant(entry) = self.touched.entry(fid) else {
            return;
        };
        let f = self.module.func(fid);
        entry.insert(f.interface_fingerprint());
        FuncSlot::of(self.slots, fid).fingerprints(f);
    }

    /// Escalate to a conservative whole-module invalidation (structural
    /// edits whose blast radius the caller cannot bound).
    pub fn touch_all(&mut self) {
        self.all = true;
    }

    /// Mutable access to one function, recording it as touched.
    pub fn func_mut(&mut self, fid: FuncId) -> &mut Function {
        self.touch(fid);
        self.module.func_mut(fid)
    }

    /// Mutable access to the whole module, with the caller declaring up
    /// front which existing functions the edit may touch. Functions added
    /// during the borrow are picked up by the watermark; metadata-only
    /// edits may pass an empty list.
    pub fn module_touching(&mut self, touched: impl IntoIterator<Item = FuncId>) -> &mut Module {
        for fid in touched {
            self.touch(fid);
        }
        self.module
    }

    /// The functions recorded as touched so far, ascending (not including
    /// the watermark-detected additions, which are resolved at commit).
    pub fn touched(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.touched.keys().copied()
    }
}

/// The module's direct call edges, in both directions, as the manager keeps
/// them ([`Noelle::direct_calls`]): one full-module scan builds the index,
/// after which each commit rescans only the touched functions' call sites.
/// This is what keeps [`Noelle::edit`]'s damage computation off the whole
/// module — the reverse-caller closure that bounds the mod/ref repair and
/// the "summary or interface moved, damage direct callers" rule read these
/// edges — and what the auditor and the IDE read instead of scanning for
/// call sites.
#[derive(Default)]
pub struct CallEdges {
    /// By caller: its direct callees, ascending and deduplicated.
    callees: Vec<Vec<FuncId>>,
    /// By callee: its direct callers, ascending (the reverse index).
    callers: Vec<Vec<FuncId>>,
    /// A rescanned function's callees, before they replace its old list.
    scan: Vec<FuncId>,
}

impl CallEdges {
    /// The direct callees of `fid` into `out`, ascending and deduplicated:
    /// one sort per scanned function.
    fn scan_function(m: &Module, fid: FuncId, out: &mut Vec<FuncId>) {
        let f = m.func(fid);
        out.clear();
        for &id in f.block_order().iter().flat_map(|&b| &f.block(b).insts) {
            if let Inst::Call {
                callee: Callee::Direct(cid),
                ..
            } = f.inst(id)
            {
                out.push(*cid);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    fn build(m: &Module) -> CallEdges {
        let mut e = CallEdges::default();
        e.update(m, m.func_ids());
        e
    }

    /// Rescan the call sites of `touched` functions, repairing both
    /// directions: one merge of each function's old and new callee lists
    /// says which callers lists lose it and which gain it. The tables grow
    /// to cover appended functions.
    fn update(&mut self, m: &Module, touched: impl IntoIterator<Item = FuncId>) {
        let n = m.functions().len();
        self.callees.resize_with(n, Vec::new);
        self.callers.resize_with(n, Vec::new);
        let mut new = std::mem::take(&mut self.scan);
        for f in touched {
            Self::scan_function(m, f, &mut new);
            let old = std::mem::take(&mut self.callees[f.index()]);
            let (mut i, mut j) = (0, 0);
            loop {
                // The smaller head of the two ascending lists moves on; a
                // callee on both keeps its callers list as it is.
                let gone = match (old.get(i), new.get(j)) {
                    (None, None) => break,
                    (Some(o), Some(n)) if o == n => {
                        (i, j) = (i + 1, j + 1);
                        continue;
                    }
                    (Some(&o), n) => n.is_none_or(|&n| o < n),
                    (None, Some(_)) => false,
                };
                if gone {
                    // `f` calls `old[i]` no more.
                    let list = &mut self.callers[old[i].index()];
                    if let Ok(at) = list.binary_search(&f) {
                        list.remove(at);
                    }
                    i += 1;
                } else {
                    // `f` newly calls `new[j]`.
                    let list = &mut self.callers[new[j].index()];
                    if let Err(at) = list.binary_search(&f) {
                        list.insert(at, f);
                    }
                    j += 1;
                }
            }
            // The new list goes into the old one's block.
            let mut kept = old;
            kept.clear();
            kept.extend_from_slice(&new);
            self.callees[f.index()] = kept;
        }
        self.scan = new;
    }

    /// The functions holding a direct call to `f`, ascending.
    pub fn callers_of(&self, f: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.callers.get(f.index()).into_iter().flatten().copied()
    }

    /// The functions `f` calls directly, ascending.
    pub fn callees_of(&self, f: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.callees.get(f.index()).into_iter().flatten().copied()
    }

    /// `seeds` plus every transitive direct caller of a seed, ascending,
    /// into `buf.closure` — exactly the set whose mod/ref summaries an
    /// edit of `seeds` can move.
    fn caller_closure(&self, seeds: &BTreeSet<FuncId>, buf: &mut CommitBuffers) {
        let (closed, work) = (&mut buf.closure, &mut buf.work);
        closed.clear();
        closed.extend(seeds);
        work.extend(seeds);
        while let Some(f) = work.pop() {
            for c in self.callers_of(f) {
                if let Err(at) = closed.binary_search(&c) {
                    closed.insert(at, c);
                    work.push(c);
                }
            }
        }
    }
}

/// The working lists of a commit's damage computation, kept by the manager:
/// the caller closure and its work list, and the mod/ref repair's lists.
#[derive(Default)]
struct CommitBuffers {
    closure: Vec<FuncId>,
    work: Vec<FuncId>,
    modref: ModRefBuffers,
}

/// The NOELLE compilation layer over one module.
pub struct Noelle {
    module: Module,
    tier: AliasTier,
    /// The points-to solution, kept in step with the module by every
    /// commit once built.
    andersen: Option<AndersenAlias>,
    modref: Option<Arc<ModRefSummaries>>,
    /// The direct call edges of the module as it stands, built on first
    /// use ([`Noelle::direct_calls`] or a commit's mod/ref repair). A commit
    /// either repairs them or drops them, so an index that is here is
    /// exact.
    call_edges: OnceLock<CallEdges>,
    call_graph: Option<CallGraph>,
    /// Per-function cached state, by function index, grown on demand.
    /// Functions change only through [`Noelle::edit`], whose commit touches
    /// and damages exactly the slots the edit can reach — which is what
    /// keeps the rest current.
    slots: Vec<FuncSlot>,
    /// The epoch of every function no commit has damaged: below any commit's.
    loaded: u64,
    /// The assembled whole-program snapshot: every defined function's
    /// partition behind one handle. Dropped by any commit that damages a
    /// function; the partitions themselves stay in their slots.
    snapshot: Option<Arc<ProgramPdg>>,
    profiles: Option<Profiles>,
    /// The machine model, read from the module's metadata on first use and
    /// dropped with `profiles`: both live in metadata an edit can rewrite.
    architecture: Option<Arc<Architecture>>,
    requested: BTreeSet<Abstraction>,
    build_stats: BTreeMap<Abstraction, BuildStat>,
    counters: FuncCacheCounters,
    /// Durable artifact store, when attached. Misses consult it before
    /// recomputing; rebuilt artifacts are written back asynchronously.
    store: Option<Arc<Store>>,
    /// The working storage of every partition and loop-abstraction build,
    /// cleared by each and never shrunk: sized by the largest function
    /// built so far.
    buffers: BuildBuffers,
    /// The same for every function's structures.
    structure_buffers: StructureBuffers,
    /// The same for every loop abstraction's views.
    loop_buffers: LoopBuffers,
    /// The same for every commit's damage computation.
    commit_buffers: CommitBuffers,
}

impl Noelle {
    /// Load the layer over `module` (what `noelle-load` does: "load the
    /// NOELLE abstractions into memory without computing them").
    pub fn new(module: Module, tier: AliasTier) -> Noelle {
        Noelle {
            module,
            tier,
            andersen: None,
            modref: None,
            call_edges: OnceLock::new(),
            call_graph: None,
            slots: Vec::new(),
            loaded: next_epoch(),
            snapshot: None,
            profiles: None,
            architecture: None,
            requested: BTreeSet::new(),
            build_stats: BTreeMap::new(),
            counters: FuncCacheCounters::default(),
            store: None,
            buffers: BuildBuffers::default(),
            structure_buffers: StructureBuffers::default(),
            loop_buffers: LoopBuffers::default(),
            commit_buffers: CommitBuffers::default(),
        }
    }

    /// Attach a durable artifact store: from now on, PDG-partition misses
    /// consult it before recomputing, and freshly built partitions are
    /// queued for asynchronous write-back. Content addressing
    /// makes attachment safe at any point — a stale entry is simply never
    /// addressed.
    pub fn set_store(&mut self, store: Arc<Store>) {
        self.store = Some(store);
    }

    /// The store-key context for the module's *current* content. Partition
    /// keys bake in a module-wide code fingerprint: their inputs are
    /// interprocedural.
    fn store_key_ctx(&mut self) -> KeyCtx {
        let n = self.module.functions().len() as u32;
        KeyCtx {
            globals_fp: self.module.globals_fingerprint(),
            module_code_fp: KeyCtx::module_code_fp(
                (0..n).map(|i| self.fingerprints(FuncId(i)).content),
            ),
            tier: match self.tier {
                AliasTier::Basic => 0,
                AliasTier::Full => 1,
            },
        }
    }

    /// `fid`'s cache slot; the table grows to cover appended functions.
    fn slot(&mut self, fid: FuncId) -> &mut FuncSlot {
        FuncSlot::of(&mut self.slots, fid)
    }

    /// The cached fingerprints of `fid`'s current version.
    fn fingerprints(&mut self, fid: FuncId) -> FuncFingerprints {
        FuncSlot::of(&mut self.slots, fid).fingerprints(self.module.func(fid))
    }

    /// The module under compilation.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Who calls whom directly, for the module as it stands. The first
    /// request scans the module; every commit after that repairs the index
    /// for the functions it touched, so asking again after an edit costs
    /// nothing.
    pub fn direct_calls(&self) -> &CallEdges {
        self.call_edges
            .get_or_init(|| CallEdges::build(&self.module))
    }

    /// Run an edit transaction over the module. The closure receives an
    /// [`EditTx`] that hands out module access while recording which
    /// functions the edit touches; on return the manager invalidates only
    /// the touched functions whose bodies moved plus the damage the edit can
    /// propagate:
    ///
    /// * per-function structures and local PDG partitions of touched
    ///   functions whose bodies moved (a touched function whose body hashes
    ///   as before keeps everything: no analysis reads metadata);
    /// * PDG partitions of functions whose view of the program could have
    ///   shifted — direct callers of a function whose mod/ref summary or
    ///   interface ([`Function::interface_fingerprint`]) moved, and
    ///   functions whose points-to rows differ under the repaired Andersen
    ///   solution. A body edit that moves neither damages nobody but the
    ///   function itself.
    ///
    /// Everything else — structures and PDG partitions of undamaged
    /// functions, and with the partitions the alias verdicts their memory
    /// edges record — stays in its slot. A damaged partition is rebuilt
    /// when somebody next asks for that function ([`Noelle::pdg`] asks for
    /// every defined one, [`Noelle::loop_abstraction`] for its own), and
    /// the rebuilt graph is edge-identical to a from-scratch build.
    pub fn edit<R>(&mut self, k: impl FnOnce(&mut EditTx<'_>) -> R) -> R {
        self.edit_with_damage(k).0
    }

    /// [`Noelle::edit`], additionally reporting the **damage set**: every
    /// function whose cached analysis results (and therefore any derived
    /// diagnostics) may differ after the edit. Consumers that maintain
    /// per-function derived state — the IDE's incremental linter — re-derive
    /// exactly this set and keep everything else.
    ///
    /// The set is conservative: it contains every touched function whose
    /// body moved (appended functions included), and escalating edits (new
    /// globals, [`EditTx::touch_all`]) report every function. A transaction
    /// that moved no body — read-only, metadata-only, or touches that
    /// changed nothing — reports an empty set.
    pub fn edit_with_damage<R>(
        &mut self,
        k: impl FnOnce(&mut EditTx<'_>) -> R,
    ) -> (R, BTreeSet<FuncId>) {
        let baseline_funcs = self.module.functions().len();
        let baseline_globals = self.module.globals().len();
        let (r, mut touched, mut all) = {
            let mut tx = EditTx {
                module: &mut self.module,
                slots: &mut self.slots,
                touched: BTreeMap::new(),
                all: false,
            };
            let r = k(&mut tx);
            (r, std::mem::take(&mut tx.touched), tx.all)
        };
        // Functions appended during the edit are new by construction. They
        // have no interface from before it, which is recorded as one theirs
        // cannot equal: to whoever calls them they count as moved. Nor a
        // body: whatever a touch during the edit hashed, no analysis saw.
        for i in baseline_funcs..self.module.functions().len() {
            let fid = FuncId(i as u32);
            touched.insert(fid, !self.module.func(fid).interface_fingerprint());
            self.slot(fid).fingerprints = None;
        }
        // A new global can be aliased from any function: escalate.
        if self.module.globals().len() != baseline_globals {
            all = true;
        }
        let damage = self.commit(touched, all);
        (r, damage)
    }

    /// Apply the damage-propagation rule for a committed edit transaction,
    /// returning the damage set.
    fn commit(&mut self, mut touched: BTreeMap<FuncId, u64>, all: bool) -> BTreeSet<FuncId> {
        if all {
            self.invalidate();
            return self.module.func_ids().collect();
        }
        if touched.is_empty() {
            return BTreeSet::new(); // read-only transaction
        }
        // Profiles and the machine model live in module metadata, which a
        // scoped borrow may have rewritten; they are cheap to re-read on
        // demand.
        self.profiles = None;
        self.architecture = None;
        // The commit's first question: did the body move? Every cached
        // abstraction reads bodies only (globals enter by id, and a changed
        // global count escalated before reaching here), so a touched
        // function whose body hashes as it did at the first touch keeps its
        // slot, and is left out of the call-edge rescan, the mod/ref repair
        // and the points-to update. Its interface cannot have moved either:
        // the body hash covers it.
        touched.retain(|&fid, _| FuncSlot::of(&mut self.slots, fid).commit(self.module.func(fid)));
        if touched.is_empty() {
            if self.andersen.is_some() {
                self.counters.andersen_reuses += 1;
            }
            return BTreeSet::new();
        }
        let Some(mut modref) = self.modref.take() else {
            // Whole-program state that can exist without the summaries —
            // the points-to solution and the call graph — is simply
            // dropped, and the edge map with it: it is only repaired on
            // the summary-bearing path.
            self.andersen = None;
            self.call_graph = None;
            self.call_edges.take();
            // Without the old summaries the interprocedural blast radius
            // cannot be bounded, so every function is damaged (partitions
            // can stand without summaries after a warm start from the
            // store).
            let all: BTreeSet<FuncId> = self.module.func_ids().collect();
            self.damage(&all);
            return all;
        };
        // The touched functions whose bodies moved now; the damage set once
        // the callers and the moved points-to rows below have joined them.
        let mut damage = BTreeSet::new();
        damage.extend(touched.keys().copied());
        // Repair the direct-call-edge map for the touched functions (built
        // whole if nobody has asked for it yet), then bound the mod/ref
        // repair to the touched set plus its transitive callers — the only
        // functions whose summaries an edit can move, since summaries flow
        // callee -> caller. Everything here is proportional to the edit's
        // blast radius, not the module.
        let edges = match self.call_edges.take() {
            Some(mut e) => {
                e.update(&self.module, damage.iter().copied());
                e
            }
            None => CallEdges::build(&self.module),
        };
        let buf = &mut self.commit_buffers;
        edges.caller_closure(&damage, buf);
        // In place unless someone still holds the pre-edit summaries.
        let summaries = Arc::make_mut(&mut modref);
        let moved = summaries.recompute_scoped(&self.module, &buf.closure, &mut buf.modref);
        // Under the full tier the PDG also consults the points-to solution:
        // re-solve, regenerating the moved bodies' constraints only, and
        // damage every function whose rows moved.
        let mut rows_moved = Vec::new();
        if let Some(andersen) = self.andersen.as_mut() {
            let update = andersen.update(&self.module, &damage);
            self.counters.andersen_regen_funcs += update.regenerated as u64;
            self.counters.andersen_reset_rows += update.reset as u64;
            rows_moved = update.changed;
        }
        // What a function's PDG reads of a *direct* callee (indirect calls
        // are handled conservatively) is the callee's mod/ref summary and
        // its interface — the name picks allocators and known externals,
        // the signature shapes the argument flow, a declaration has no
        // body to summarize. So a touched function damages its direct
        // callers exactly when one of the two moved.
        let reshaped = touched.iter().filter_map(|(&fid, &before)| {
            (self.module.func(fid).interface_fingerprint() != before).then_some(fid)
        });
        for c in reshaped.chain(moved.iter().copied()) {
            damage.extend(edges.callers_of(c));
        }
        damage.extend(rows_moved);
        self.call_edges = OnceLock::from(edges);
        self.call_graph = None;
        self.modref = Some(modref);
        self.damage(&damage);
        damage
    }

    /// Drop the partitions of `fids`, and the assembled snapshot with them,
    /// and stamp the functions with a new epoch.
    fn damage(&mut self, fids: &BTreeSet<FuncId>) {
        let epoch = next_epoch();
        for &fid in fids {
            let slot = self.slot(fid);
            slot.partition = None;
            slot.epoch = epoch;
        }
        self.snapshot = None;
        self.counters.invalidations += fids.len() as u64;
    }

    /// Consume the manager, returning the (possibly transformed) module.
    pub fn into_module(self) -> Module {
        self.module
    }

    /// Swap in a rebuilt module (tools like the conservative parallelizer
    /// produce a new `Module` rather than editing in place), returning the
    /// old one. All cached abstractions are invalidated.
    pub fn replace_module(&mut self, m: Module) -> Module {
        self.invalidate();
        std::mem::replace(&mut self.module, m)
    }

    /// Drop every cached abstraction.
    pub fn invalidate(&mut self) {
        self.andersen = None;
        self.modref = None;
        self.call_edges.take();
        self.call_graph = None;
        self.snapshot = None;
        self.profiles = None;
        self.architecture = None;
        let all: BTreeSet<FuncId> = self.module.func_ids().collect();
        for &fid in &all {
            *self.slot(fid) = FuncSlot::default();
        }
        self.damage(&all);
    }

    /// Record that a custom tool used abstraction `a` (tools call this for
    /// the abstractions they exercise without going through a getter, e.g.
    /// DFE or the scheduler).
    pub fn note(&mut self, a: Abstraction) {
        self.requested.insert(a);
    }

    /// The abstractions requested so far, in table order.
    pub fn requested(&self) -> Vec<Abstraction> {
        self.requested.iter().copied().collect()
    }

    /// Reset the request record (between tools).
    pub fn reset_requests(&mut self) {
        self.requested.clear();
    }

    fn ensure_andersen(&mut self) {
        if self.andersen.is_none() {
            // Nothing is hashed here: an edit hashes what it touches, before
            // it changes it (`EditTx::touch`).
            self.andersen = Some(AndersenAlias::new(&self.module));
        }
    }

    fn ensure_modref(&mut self) -> Arc<ModRefSummaries> {
        if self.modref.is_none() {
            self.modref = Some(Arc::new(ModRefSummaries::compute(&self.module)));
        }
        Arc::clone(self.modref.as_ref().expect("just set"))
    }

    fn record_build(&mut self, a: Abstraction, d: Duration) {
        let s = self.build_stats.entry(a).or_default();
        s.builds += 1;
        s.nanos += d.as_nanos();
    }

    /// Wall-clock cost of every abstraction built so far, by abstraction.
    pub fn build_stats(&self) -> &BTreeMap<Abstraction, BuildStat> {
        &self.build_stats
    }

    /// Hit/miss/invalidation counters over the per-function cache slots.
    pub fn func_cache_counters(&self) -> FuncCacheCounters {
        self.counters
    }

    /// Approximate heap footprint of the cached analysis state: the PDG
    /// partitions the slots hold and the Andersen points-to rows.
    /// Only what is currently built is counted — a manager that never built
    /// a partition reports zero PDG bytes.
    pub fn memory_stats(&self) -> MemoryStats {
        let pdg_bytes = self
            .slots
            .iter()
            .filter_map(|s| s.partition.as_ref())
            .map(|g| g.approx_heap_bytes() + 32)
            .sum();
        let andersen_bytes = self
            .andersen
            .as_ref()
            .map_or(0, AndersenAlias::approx_heap_bytes);
        let functions = self
            .module
            .functions()
            .iter()
            .filter(|f| !f.is_declaration())
            .count();
        let total = pdg_bytes + andersen_bytes;
        MemoryStats {
            pdg_bytes,
            andersen_bytes,
            functions,
            bytes_per_function: total.checked_div(functions).unwrap_or(0) as u64,
        }
    }

    /// Which version of its analyses function `fid` is at: a value that
    /// moves with every commit whose damage set holds `fid`, and nowhere
    /// else, and that no other manager in the process ever reports. What was
    /// derived from `fid`'s analyses at epoch `e` stands while it reads `e`.
    pub fn epoch(&self, fid: FuncId) -> u64 {
        let damaged = self.slots.get(fid.index()).map_or(0, |s| s.epoch);
        damaged.max(self.loaded)
    }

    /// Run `k` against the manager's alias stack and shared mod/ref
    /// summaries (the immutable-borrow core of [`Noelle::with_pdg`] and
    /// [`Noelle::pdg`]).
    fn with_stack<R>(
        &self,
        modref: Arc<ModRefSummaries>,
        k: impl FnOnce(&Module, &PdgBuilder<'_>) -> R,
    ) -> R {
        let basic = BasicAlias::new(&self.module);
        let full = self
            .andersen
            .as_ref()
            .filter(|_| self.tier == AliasTier::Full);
        let tiers: [&dyn AliasAnalysis; 2] = [&basic, full.map_or(&basic, |a| a)];
        let stack = AliasStack::new(&tiers[..1 + usize::from(full.is_some())]);
        let builder = PdgBuilder::new_with_modref(&self.module, &stack, modref);
        k(&self.module, &builder)
    }

    /// Run `k` with a [`PdgBuilder`] configured for this manager's alias
    /// tier. The builder shares the cached points-to solution and mod/ref
    /// summaries, so repeated calls do not re-pay analysis costs. The PDG
    /// abstraction is recorded as requested.
    pub fn with_pdg<R>(&mut self, k: impl FnOnce(&Module, &PdgBuilder<'_>) -> R) -> R {
        self.note(Abstraction::Pdg);
        if self.tier == AliasTier::Full {
            self.ensure_andersen();
        }
        let modref = self.ensure_modref();
        self.with_stack(modref, k)
    }

    /// One function's PDG partition — the only place one comes into being.
    /// The function's slot answers first; then the durable store, whose
    /// content addressing guarantees a hit was computed from inputs
    /// byte-identical to what a build would see right now (a payload that
    /// fails to decode is a miss); only a partition that survived neither
    /// pays for the alias stack, so a fully warm start never solves
    /// points-to. A build reads the CFG of the function's
    /// [`FuncStructures`], built first if they are missing, and works in
    /// the manager's buffers. `ctx` is the caller's store-key context,
    /// filled on the first miss: it hashes every function, so a caller
    /// asking for many partitions shares one.
    fn partition(&mut self, fid: FuncId, ctx: &mut Option<KeyCtx>) -> Arc<DepGraph<InstId>> {
        self.note(Abstraction::Pdg);
        if let Some(g) = self.slot(fid).partition.clone() {
            self.counters.pdg_hits += 1;
            return g;
        }
        let t = Instant::now();
        let keyed = self.store.clone().map(|store| {
            let ctx = *ctx.get_or_insert_with(|| self.store_key_ctx());
            (store, ctx.partition_key(self.fingerprints(fid).content))
        });
        let stored = keyed
            .as_ref()
            .and_then(|(store, key)| store.get(*key))
            .and_then(|b| artifact::decode_partition(&b).ok());
        let g = match stored {
            Some(g) => {
                self.counters.store_hits += 1;
                Arc::new(g)
            }
            None => {
                if self.tier == AliasTier::Full {
                    self.ensure_andersen();
                }
                let modref = self.ensure_modref();
                self.cached_structures(fid);
                let mut buf = std::mem::take(&mut self.buffers);
                let cfg = &self.built_structures(fid).cfg;
                let g = self.with_stack(modref, |_, b| b.function_pdg_in(fid, cfg, &mut buf));
                self.buffers = buf;
                let g = Arc::new(g);
                self.counters.pdg_misses += 1;
                if let Some((store, key)) = &keyed {
                    self.counters.store_misses += 1;
                    store.put(
                        *key,
                        ArtifactKind::PdgPartition,
                        artifact::encode_partition(&g),
                    );
                }
                g
            }
        };
        self.record_build(Abstraction::Pdg, t.elapsed());
        self.slot(fid).partition = Some(Arc::clone(&g));
        g
    }

    /// The whole-program PDG: every defined function's partition, shared
    /// through a cheap `Arc` handle. After an [`Noelle::edit`] the next
    /// call assembles a new snapshot, re-deriving only the partitions that
    /// were damaged and not asked for since; everything else is shared with
    /// the old graph by pointer. Holders of old handles keep a consistent
    /// pre-mutation snapshot.
    pub fn pdg(&mut self) -> Arc<ProgramPdg> {
        // A standing snapshot answers without visiting `partition`, and the
        // request record may have been reset since it was assembled.
        self.note(Abstraction::Pdg);
        if self.snapshot.is_none() {
            let defined: Vec<FuncId> = self
                .module
                .func_ids()
                .filter(|&fid| !self.module.func(fid).is_declaration())
                .collect();
            let mut ctx = None;
            let per_function = defined
                .into_iter()
                .map(|fid| (fid, self.partition(fid, &mut ctx)))
                .collect();
            self.snapshot = Some(Arc::new(ProgramPdg { per_function }));
        }
        Arc::clone(self.snapshot.as_ref().expect("just set"))
    }

    /// The cached control-flow structures (CFG, dominator tree, loop forest)
    /// of function `fid`, built together on first request.
    pub fn structures(&mut self, fid: FuncId) -> &FuncStructures {
        self.note(Abstraction::Ls);
        self.cached_structures(fid)
    }

    /// [`Noelle::structures`] without recording a request: for the manager's
    /// own readers, which ask for them on behalf of another abstraction.
    fn cached_structures(&mut self, fid: FuncId) -> &FuncStructures {
        if self.slot(fid).structures.is_some() {
            self.counters.struct_hits += 1;
        } else {
            self.counters.struct_misses += 1;
            let t = Instant::now();
            // Never fetched from the store: a hit would still need the
            // dominator tree, and costs more than this walk over it. Each
            // structure is built at its exact size, every temporary in the
            // manager's buffers.
            let (f, buf) = (self.module.func(fid), &mut self.structure_buffers);
            let mut cfg = Cfg::default();
            cfg.rebuild(f, buf);
            let mut dom = DomTree::default();
            dom.rebuild(f, &cfg, buf);
            let mut forest = LoopForest::default();
            forest.rebuild(f, &cfg, &dom, buf);
            self.slot(fid).structures = Some(FuncStructures {
                cfg,
                dom: Arc::new(dom),
                forest: Arc::new(forest),
            });
            self.record_build(Abstraction::Ls, t.elapsed());
        }
        self.built_structures(fid)
    }

    /// The structures of `fid` once [`Noelle::cached_structures`] has
    /// ensured them, borrowing the manager only for reading.
    fn built_structures(&self, fid: FuncId) -> &FuncStructures {
        self.slots[fid.index()]
            .structures
            .as_ref()
            .expect("ensured by `cached_structures`")
    }

    /// Solve a data-flow problem over function `fid` with the engine (DFE),
    /// reusing the cached CFG. External callers cannot borrow the module and
    /// the cached structures simultaneously (both hand out borrows of the
    /// manager), so this helper runs the engine from inside, where the two
    /// live in separate fields. Records the DFE abstraction as requested.
    pub fn solve_dataflow(
        &mut self,
        fid: FuncId,
        problem: &impl noelle_analysis::dfe::DataFlowProblem,
    ) -> noelle_analysis::dfe::DataFlowResult {
        self.note(Abstraction::Dfe);
        self.structures(fid); // ensure the CFG is cached
        let cfg = &self.built_structures(fid).cfg;
        noelle_analysis::dfe::DataFlowEngine::new().solve(self.module.func(fid), cfg, problem)
    }

    /// The loop structures (LS) of function `fid`, cached and shared: the
    /// handle stays valid across other manager calls, so a caller iterates
    /// its `loops()` while it requests their abstractions.
    pub fn loop_forest(&mut self, fid: FuncId) -> Arc<LoopForest> {
        Arc::clone(&self.structures(fid).forest)
    }

    /// The program-wide loop forest (FR), assembled from the cached
    /// per-function structures.
    pub fn program_loop_forest(&mut self) -> ProgramLoopForest {
        self.note(Abstraction::Fr);
        self.note(Abstraction::Ls);
        let fids: Vec<FuncId> = self.module.func_ids().collect();
        let mut forests = Vec::new();
        for fid in fids {
            if !self.module.func(fid).is_declaration() {
                forests.push((fid, Arc::clone(&self.structures(fid).forest)));
            }
        }
        ProgramLoopForest::from_forests(forests)
    }

    /// The canonical Loop abstraction (L) for loop `id` of `fid`'s loop
    /// forest as it stands: structure, loop PDG, aSCCDAG, IVs, invariants,
    /// reductions, environment.
    pub fn loop_abstraction(&mut self, fid: FuncId, id: LoopId) -> LoopAbstraction {
        self.loop_abstraction_in(fid, None, id)
    }

    /// [`Noelle::loop_abstraction`] for loop `id` of `forest`, a forest of
    /// `fid` taken earlier: a tool that edits the function between requests
    /// reads each loop as it found it, over the function's graphs as they
    /// stand.
    pub fn loop_abstraction_of(
        &mut self,
        fid: FuncId,
        forest: &Arc<LoopForest>,
        id: LoopId,
    ) -> LoopAbstraction {
        self.loop_abstraction_in(fid, Some(forest), id)
    }

    /// Loop `id` of `forest`, or of the function's cached forest.
    fn loop_abstraction_in(
        &mut self,
        fid: FuncId,
        forest: Option<&Arc<LoopForest>>,
        id: LoopId,
    ) -> LoopAbstraction {
        for a in [
            Abstraction::L,
            Abstraction::ASccDag,
            Abstraction::Iv,
            Abstraction::Inv,
            Abstraction::Rd,
            Abstraction::Env,
        ] {
            self.note(a);
        }
        // Carve from the function's cached partition: requesting several
        // loops of one function analyzes the function once, and no other
        // function at all — after an edit only this partition is repaired,
        // and a store-warm manager decodes only this function's partition.
        let fg = self.partition(fid, &mut None);
        let cached = self.cached_structures(fid);
        let dom = Arc::clone(&cached.dom);
        let forest = Arc::clone(forest.unwrap_or(&cached.forest));
        let modref = self.ensure_modref();
        let t = Instant::now();
        let mut buf = std::mem::take(&mut self.buffers);
        let mut loop_buf = std::mem::take(&mut self.loop_buffers);
        let la = self.with_stack(modref, |_, b| {
            LoopAbstraction::build_with(b, fid, &forest, id, dom, &fg, &mut buf, &mut loop_buf)
        });
        self.buffers = buf;
        self.loop_buffers = loop_buf;
        self.record_build(Abstraction::L, t.elapsed());
        la
    }

    /// The complete program call graph (CG), cached. Always uses the
    /// points-to solution so indirect calls are resolved.
    pub fn call_graph(&mut self) -> &CallGraph {
        self.note(Abstraction::Cg);
        if self.call_graph.is_none() {
            self.ensure_andersen();
            let t = Instant::now();
            let cg = CallGraph::build(&self.module, self.andersen.as_ref().expect("cached"));
            let elapsed = t.elapsed();
            self.call_graph = Some(cg);
            self.record_build(Abstraction::Cg, elapsed);
        }
        self.call_graph.as_ref().expect("just set")
    }

    /// The call graph if it has already been built (no build is triggered).
    /// Lets callers holding only `&self` — e.g. a server serializing a
    /// just-built graph next to the module — read it back without a second
    /// mutable borrow.
    pub fn cached_call_graph(&self) -> Option<&CallGraph> {
        self.call_graph.as_ref()
    }

    /// The Andersen points-to solution, building it on first use. The
    /// auditor reads the raw rows to attribute failed alias queries to the
    /// abstract objects behind them.
    pub fn points_to(&mut self) -> &AndersenAlias {
        self.ensure_andersen();
        self.andersen.as_ref().expect("just ensured")
    }

    /// The points-to solution if it has already been built (no build is
    /// triggered) — the `&self` companion of [`Noelle::points_to`], for
    /// callers that need it alongside other shared borrows of the manager.
    pub fn cached_points_to(&self) -> Option<&AndersenAlias> {
        self.andersen.as_ref()
    }

    /// Whole-program mod/ref summaries, shared. The auditor classifies
    /// side-effecting calls (privatizable write-only callee vs pinned I/O)
    /// against these.
    pub fn modref_summaries(&mut self) -> Arc<ModRefSummaries> {
        self.ensure_modref()
    }

    /// Profiles embedded in the module, or empty profiles when absent (PRO).
    pub fn profiles(&mut self) -> Profiles {
        self.note(Abstraction::Pro);
        if self.profiles.is_none() {
            self.profiles = Some(Profiles::from_module(&self.module).unwrap_or_default());
        }
        self.profiles.clone().expect("just set")
    }

    /// The architecture description embedded in the module, or the default
    /// machine (AR): read once, then shared until a commit drops it.
    pub fn architecture(&mut self) -> Arc<Architecture> {
        self.note(Abstraction::Ar);
        self.machine()
    }

    /// [`Noelle::architecture`] without recording a request: the model a
    /// transform reads again while it runs, which Table 4 does not count.
    pub fn machine(&mut self) -> Arc<Architecture> {
        let module = &self.module;
        let arch = self
            .architecture
            .get_or_insert_with(|| Arc::new(Architecture::from_module(module).unwrap_or_default()));
        Arc::clone(arch)
    }

    /// The alias tier this manager was configured with.
    pub fn tier(&self) -> AliasTier {
        self.tier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::types::Type;
    use noelle_ir::value::Value;

    /// `@f` (id 4) calls each of `callees` in turn: ids of the functions
    /// `@a` to `@d` the module declares first.
    fn call_module(callees: &[u32]) -> Module {
        let mut m = Module::new("calls");
        for name in ["a", "b", "c", "d"] {
            m.declare_function(name, vec![], Type::Void);
        }
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        for &callee in callees {
            b.call(FuncId(callee), vec![], Type::Void);
        }
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn call_lists(e: &CallEdges, m: &Module) -> Vec<(Vec<FuncId>, Vec<FuncId>)> {
        let list = |it: &mut dyn Iterator<Item = FuncId>| it.collect();
        m.func_ids()
            .map(|f| (list(&mut e.callers_of(f)), list(&mut e.callees_of(f))))
            .collect()
    }

    #[test]
    fn an_updated_call_index_is_the_one_a_fresh_scan_builds() {
        // Callees in any order and repeated; the edit drops `@b`, keeps
        // `@c` and adds `@a` and `@d`.
        let before = call_module(&[2, 1, 2, 1]);
        let mut edges = CallEdges::build(&before);
        let f = FuncId(4);
        assert_eq!(
            edges.callees_of(f).collect::<Vec<_>>(),
            [FuncId(1), FuncId(2)]
        );
        let after = call_module(&[3, 2, 0, 3]);
        edges.update(&after, [f]);
        assert_eq!(
            call_lists(&edges, &after),
            call_lists(&CallEdges::build(&after), &after)
        );
        assert_eq!(
            edges.callees_of(f).collect::<Vec<_>>(),
            [FuncId(0), FuncId(2), FuncId(3)]
        );
        assert_eq!(edges.callers_of(FuncId(1)).count(), 0);
        // An edit that calls nothing empties every callers list.
        let none = call_module(&[]);
        edges.update(&none, [f]);
        assert!(call_lists(&edges, &none)
            .iter()
            .all(|(r, e)| r.is_empty() && e.is_empty()));
    }

    fn loop_module() -> Module {
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
        m.add_function(b.finish());
        m
    }

    /// A warm start over a populated store must produce an identical PDG
    /// without ever touching the alias stack: the whole point of durable
    /// content addressing. Partitions are all the store answers for: a
    /// loop forest is built, warm store or none.
    #[test]
    fn store_warm_start_matches_cold_build() {
        let dir = std::env::temp_dir().join(format!("noelle-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let cold_edges;
        {
            let mut n = Noelle::new(two_func_module(), AliasTier::Full);
            n.set_store(Arc::clone(&store));
            cold_edges = n.pdg().num_edges();
            let c = n.func_cache_counters();
            assert_eq!((c.store_hits, c.store_misses), (0, 2));
            assert!(n.andersen.is_some(), "cold build solves points-to");
        }
        store.flush();
        {
            let mut n = Noelle::new(two_func_module(), AliasTier::Full);
            n.set_store(Arc::clone(&store));
            assert_eq!(n.pdg().num_edges(), cold_edges);
            let mut plain = Noelle::new(two_func_module(), AliasTier::Full);
            let fids: Vec<FuncId> = n.module().func_ids().collect();
            for fid in fids {
                assert_eq!(
                    format!("{:?}", n.loop_forest(fid).loops()),
                    format!("{:?}", plain.loop_forest(fid).loops())
                );
            }
            let c = n.func_cache_counters();
            assert_eq!((c.store_hits, c.store_misses), (2, 0), "partitions only");
            assert_eq!(c.pdg_misses, 0);
            assert!(
                n.andersen.is_none(),
                "fully warm start must skip the points-to solve"
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn demand_driven_requests_recorded() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        assert!(n.requested().is_empty());
        let fid = n.module().func_ids().next().unwrap();
        let loops = n.loop_forest(fid);
        assert_eq!(loops.len(), 1);
        assert_eq!(n.requested(), vec![Abstraction::Ls]);
        let la = n.loop_abstraction(fid, loops.loops()[0].id);
        assert!(la.is_doall());
        let req = n.requested();
        assert!(req.contains(&Abstraction::Pdg));
        assert!(req.contains(&Abstraction::ASccDag));
        assert!(req.contains(&Abstraction::L));
        let _ = n.pdg();
        n.reset_requests();
        assert!(n.requested().is_empty());
        // A request served from the standing snapshot is still a request.
        let _ = n.pdg();
        assert_eq!(n.requested(), vec![Abstraction::Pdg]);
    }

    /// Full invalidation must conservatively clear every cache (the
    /// behavior the removed raw-mutation shim used to route through).
    #[test]
    fn caches_cleared_on_invalidate() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        let fid = n.module().func_ids().next().unwrap();
        let _ = n.loop_forest(fid);
        let _ = n.call_graph();
        let _ = n.pdg();
        let e0 = n.epoch(fid);
        n.invalidate();
        assert!(n
            .slots
            .iter()
            .all(|s| s.structures.is_none() && s.partition.is_none()));
        assert!(n.call_graph.is_none());
        assert!(n.snapshot.is_none());
        assert!(n.modref.is_none());
        assert_eq!(n.memory_stats().pdg_bytes, 0);
        assert_ne!(n.epoch(fid), e0);
        // Re-requests still work.
        assert_eq!(n.loop_forest(fid).len(), 1);
    }

    /// `name`'s id in the managed module.
    fn fid(n: &Noelle, name: &str) -> FuncId {
        n.module()
            .func_id_by_name(name)
            .expect("a function of the module")
    }

    /// A body edit that moves nothing a caller reads: a dead add at the
    /// top of `fid`'s entry block.
    fn insert_dead_add(tx: &mut EditTx<'_>, fid: FuncId) {
        let f = tx.func_mut(fid);
        let entry = f.entry();
        let dead = Inst::Bin {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: Value::const_i64(1),
            rhs: Value::const_i64(2),
        };
        f.insert_inst(entry, 0, dead);
    }

    #[test]
    fn pdg_handle_is_cached_and_cheap() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        let fid = n.module().func_ids().next().unwrap();
        let p1 = n.pdg();
        let p2 = n.pdg();
        // Same underlying graph, no rebuild.
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(n.build_stats()[&Abstraction::Pdg].builds, 1);
        // A body edit forces a repair; the old handle stays readable.
        let e1 = n.epoch(fid);
        n.edit(|tx| insert_dead_add(tx, fid));
        assert_ne!(n.epoch(fid), e1);
        let p3 = n.pdg();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(n.build_stats()[&Abstraction::Pdg].builds, 2);
        assert_eq!(p1.num_edges(), p3.num_edges());
    }

    /// A second, independent function next to the loop kernel.
    fn two_func_module() -> Module {
        let mut m = loop_module();
        let mut b = FunctionBuilder::new("leaf", vec![("x", Type::I64)], Type::I64);
        let entry = b.entry_block();
        b.switch_to(entry);
        let y = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(7));
        b.ret(Some(y));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn edit_reuses_untouched_partitions() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let k = fid(&n, "k");
        let leaf = fid(&n, "leaf");
        let p1 = n.pdg();
        let (ek, eleaf) = (n.epoch(k), n.epoch(leaf));
        // Edit only the leaf: the kernel's partition must be reused by
        // pointer, and the counters must record exactly that split.
        n.edit(|tx| insert_dead_add(tx, leaf));
        let before = n.func_cache_counters();
        let p2 = n.pdg();
        let after = n.func_cache_counters();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert!(Arc::ptr_eq(&p1.per_function[&k], &p2.per_function[&k]));
        assert!(!Arc::ptr_eq(
            &p1.per_function[&leaf],
            &p2.per_function[&leaf]
        ));
        assert_eq!(after.pdg_hits - before.pdg_hits, 1);
        assert_eq!(after.pdg_misses - before.pdg_misses, 1);
        // The kernel's analyses survived the edit; the leaf's were dropped.
        assert!(n.epoch(leaf) != eleaf && n.epoch(k) == ek);
    }

    #[test]
    fn unchanged_touch_skips_points_to_resolve() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let leaf = fid(&n, "leaf");
        let _ = n.pdg();
        // A touch that turns out not to change the function: every
        // fingerprint matches, so the points-to solution is reused as-is.
        n.edit(|tx| tx.touch(leaf));
        let _ = n.pdg();
        assert_eq!(n.func_cache_counters().andersen_reuses, 1);
        // Metadata is invisible to alias analysis: the gate hashes bodies,
        // so a metadata-only edit also reuses the solution.
        n.edit(|tx| {
            tx.func_mut(leaf)
                .metadata
                .insert("note".into(), "edited".into());
        });
        let _ = n.pdg();
        assert_eq!(n.func_cache_counters().andersen_reuses, 2);
        // An edit that really changes the body must re-solve.
        n.edit(|tx| {
            tx.func_mut(leaf).params.push(("extra".into(), Type::I64));
        });
        let _ = n.pdg();
        assert_eq!(n.func_cache_counters().andersen_reuses, 2);
    }

    /// The slots holding fingerprints, by function.
    fn hashed(n: &Noelle) -> Vec<FuncId> {
        let slots = n.slots.iter().enumerate();
        let hashed = slots.filter(|(_, s)| s.fingerprints.is_some());
        hashed.map(|(i, _)| FuncId(i as u32)).collect()
    }

    #[test]
    fn a_cold_solve_hashes_no_function() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let _ = n.points_to();
        let _ = n.pdg();
        assert!(n.andersen.is_some());
        assert_eq!(hashed(&n), vec![]);
    }

    /// The gate compares the body the solution saw, hashed at the edit's
    /// first touch, with the body the commit finds.
    #[test]
    fn a_body_edit_under_a_solution_re_solves_points_to() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let leaf = fid(&n, "leaf");
        let _ = n.pdg();
        n.edit(|tx| insert_dead_add(tx, leaf));
        let c = n.func_cache_counters();
        assert_eq!((c.andersen_regen_funcs, c.andersen_reuses), (1, 0));
        // Only what the edit touched was hashed.
        assert_eq!(hashed(&n), vec![leaf]);
    }

    #[test]
    fn a_metadata_edit_under_a_solution_reuses_it() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let leaf = fid(&n, "leaf");
        let _ = n.pdg();
        n.edit(|tx| {
            let f = tx.func_mut(leaf);
            f.metadata.insert("note".into(), "edited".into());
        });
        let c = n.func_cache_counters();
        assert_eq!((c.andersen_regen_funcs, c.andersen_reuses), (0, 1));
        assert_eq!(hashed(&n), vec![leaf]);
    }

    #[test]
    fn body_edit_regenerates_only_the_touched_constraints() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let leaf = fid(&n, "leaf");
        let _ = n.pdg();
        // A real body change that keeps the signature: one block out of
        // two is regenerated, the kernel's is replayed as retained.
        n.edit(|tx| insert_dead_add(tx, leaf));
        let c = n.func_cache_counters();
        assert_eq!((c.andersen_regen_funcs, c.andersen_reuses), (1, 0));
        // Adding a global still escalates: any function may alias it, so
        // the solution is dropped whole, not patched.
        let ((), damage) = n.edit_with_damage(|tx| {
            tx.module_touching([])
                .add_global(noelle_ir::module::Global {
                    name: "fresh".into(),
                    ty: Type::I64,
                    init: noelle_ir::module::GlobalInit::Zero,
                    is_const: false,
                });
        });
        assert_eq!(damage.len(), n.module().functions().len());
        assert!(n.andersen.is_none());
        assert_eq!(n.func_cache_counters().andersen_regen_funcs, 1);
    }

    /// The damage set of each commit, and the epochs it moves: exactly its
    /// functions', to values no other manager holds.
    #[test]
    fn edit_with_damage_reports_touched_and_escalations() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let leaf = fid(&n, "leaf");
        let _ = n.pdg();
        let fids: Vec<FuncId> = n.module().func_ids().collect();
        let other = Noelle::new(two_func_module(), AliasTier::Full);
        let mut commit = |k: &dyn Fn(&mut EditTx<'_>)| {
            let before: Vec<u64> = fids.iter().map(|&f| n.epoch(f)).collect();
            let ((), d) = n.edit_with_damage(k);
            for (&f, e) in fids.iter().zip(before) {
                assert_eq!(n.epoch(f) != e, d.contains(&f), "{f:?} in {d:?}");
                assert_ne!(n.epoch(f), other.epoch(f));
            }
            d
        };
        // Read-only: empty damage.
        let d = commit(&|tx| {
            let _ = tx.module().name.len();
        });
        assert!(d.is_empty());
        // A body edit that moves no summary damages exactly the edited
        // function.
        let d = commit(&|tx| insert_dead_add(tx, leaf));
        assert!(d.contains(&leaf) && d.len() == 1, "damage = {d:?}");
        // A metadata-only edit moves no body: nothing is damaged.
        let d = commit(&|tx| {
            tx.func_mut(leaf).metadata.insert("note".into(), "v".into());
        });
        assert!(d.is_empty(), "damage = {d:?}");
        // touch_all escalates to every function.
        let d = commit(&|tx| tx.touch_all());
        assert_eq!(d.len(), fids.len());
    }

    /// A commit whose touched functions all keep their bodies — a metadata
    /// edit, a bare touch — keeps everything cached about them: no damage,
    /// the same epoch, the same partition, structures and points-to
    /// solution. Only the slot's content hash follows the text.
    #[test]
    fn a_commit_that_moves_no_body_keeps_every_cached_abstraction() {
        let mut n = Noelle::new(two_func_module(), AliasTier::Full);
        let (k, leaf) = (fid(&n, "k"), fid(&n, "leaf"));
        let p1 = n.pdg();
        assert_eq!(n.loop_forest(k).loops().len(), 1);
        let builds = n.build_stats().clone();
        let edits: [&dyn Fn(&mut EditTx<'_>); 2] = [
            &|tx| {
                tx.func_mut(k).metadata.insert("note".into(), "v".into());
            },
            &|tx| tx.touch(k),
        ];
        for edit in edits {
            let (epoch, reuses) = (n.epoch(k), n.func_cache_counters().andersen_reuses);
            let ((), damage) = n.edit_with_damage(edit);
            assert!(damage.is_empty(), "damage = {damage:?}");
            assert_eq!(n.epoch(k), epoch);
            assert_eq!(n.func_cache_counters().andersen_reuses, reuses + 1);
            let content = n.module().func(k).fingerprints().1;
            assert_eq!(
                n.slots[k.index()].fingerprints.map(|f| f.content),
                Some(content)
            );
            assert!(Arc::ptr_eq(&p1, &n.pdg()));
            assert_eq!(n.loop_forest(k).loops().len(), 1);
            assert_eq!(n.build_stats(), &builds, "nothing was built again");
        }
        // A mixed commit damages only the function whose body moved.
        let ((), damage) = n.edit_with_damage(|tx| {
            tx.func_mut(k).metadata.insert("note".into(), "w".into());
            insert_dead_add(tx, leaf);
        });
        assert_eq!(damage, BTreeSet::from([leaf]));
        let p2 = n.pdg();
        assert!(Arc::ptr_eq(&p1.per_function[&k], &p2.per_function[&k]));
        assert!(!Arc::ptr_eq(
            &p1.per_function[&leaf],
            &p2.per_function[&leaf]
        ));
    }

    #[test]
    fn read_only_edit_keeps_caches() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        let p1 = n.pdg();
        let name = n.edit(|tx| tx.module().name.clone());
        assert!(!name.is_empty());
        let p2 = n.pdg();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(n.build_stats()[&Abstraction::Pdg].builds, 1);
    }

    #[test]
    fn adding_a_function_is_auto_touched() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        let p1 = n.pdg();
        n.edit(|tx| {
            let m = tx.module_touching([]);
            let mut b = FunctionBuilder::new("fresh", vec![("x", Type::I64)], Type::I64);
            let entry = b.entry_block();
            b.switch_to(entry);
            b.ret(Some(Value::const_i64(1)));
            m.add_function(b.finish());
        });
        let p2 = n.pdg();
        let fresh = fid(&n, "fresh");
        assert!(p2.per_function.contains_key(&fresh));
        assert!(!p1.per_function.contains_key(&fresh));
        let k = fid(&n, "k");
        assert_ne!(n.epoch(fresh), n.epoch(k));
    }

    #[test]
    fn structures_cached_and_stats_recorded() {
        let mut n = Noelle::new(loop_module(), AliasTier::Basic);
        let fid = n.module().func_ids().next().unwrap();
        let _ = n.structures(fid);
        let _ = n.structures(fid);
        let _ = n.loop_forest(fid);
        // One build despite three requests.
        assert_eq!(n.build_stats()[&Abstraction::Ls].builds, 1);
        let entry = n.module().func(fid).entry();
        let s = n.structures(fid);
        assert!(!s.forest.loops().is_empty());
        assert!(s.dom.dominates(entry, s.forest.loops()[0].header));
    }

    #[test]
    fn basic_tier_skips_andersen_for_pdg() {
        let mut n = Noelle::new(loop_module(), AliasTier::Basic);
        let fid = n.module().func_ids().next().unwrap();
        n.with_pdg(|_, b| {
            let _ = b.function_pdg(fid);
        });
        assert!(
            n.andersen.is_none(),
            "basic tier must not compute points-to"
        );
        // Nor does the manager's own partition fill.
        let _ = n.pdg();
        assert!(n.andersen.is_none());
        // The call graph still forces points-to (it needs indirect callees).
        let _ = n.call_graph();
        assert!(n.andersen.is_some());
    }

    #[test]
    fn profiles_and_arch_default_when_missing() {
        let mut n = Noelle::new(loop_module(), AliasTier::Basic);
        let p = n.profiles();
        assert_eq!(p, Profiles::default());
        let a = n.architecture();
        assert_eq!(a.num_cores, 12);
    }
}
