//! The Loop (L) abstraction: the canonical loop bundle.
//!
//! "This abstraction includes a representation of the loop structure (LS)
//! [...] The abstraction L adds to LS the loop dependence graph (computed
//! from the PDG) and the loop-specific instances of the abstractions IV and
//! INV" — plus, per Table 1, its SCCDAG, reductions, and exits.

use crate::env::Environment;
use crate::induction::{ivs_noelle_in, InductionVariables};
use crate::invariants::{invariants_noelle_in, InvariantSet, Visit};
use crate::reduction::{reductions, Reduction};
use noelle_analysis::scev::{affine_recurrences_into, const_trip_count, AddRec};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::inst::InstId;
use noelle_ir::loops::{LoopForest, LoopId, LoopInfo};
use noelle_ir::module::FuncId;
use noelle_ir::types::Type;
use noelle_ir::value::Value;
use noelle_pdg::depgraph::{DepEdge, DepGraph};
use noelle_pdg::pdg::{BuildBuffers, PdgBuilder};
use noelle_pdg::sccdag::{SccDag, SccKind};
use std::sync::Arc;

/// The canonical loop: structure + dependences + semantic views.
#[derive(Debug)]
pub struct LoopAbstraction {
    /// Owning function.
    pub fid: FuncId,
    /// The owning function's loop forest — the manager's cached one,
    /// shared, not a copy — which holds this loop's structure.
    forest: Arc<LoopForest>,
    /// This loop's id in its function's forest.
    pub id: LoopId,
    /// The owning function's dominator tree — the manager's cached one,
    /// shared, not a copy — which the techniques' gates read.
    pub dom: Arc<DomTree>,
    /// The loop dependence graph (from the PDG, loop-refined).
    pub pdg: DepGraph<InstId>,
    /// The augmented SCCDAG.
    pub sccdag: SccDag,
    /// Induction variables (NOELLE detection).
    pub ivs: InductionVariables,
    /// Loop invariants (Algorithm 2).
    pub invariants: InvariantSet,
    /// Reducible variables.
    pub reductions: Vec<Reduction>,
    /// Constant trip count, when statically known.
    pub trip_count: Option<i64>,
    /// Live-ins/live-outs of the loop.
    pub env: Environment,
    /// [`LoopAbstraction::handled_recurrence_insts`], built once.
    handled: Vec<InstId>,
}

/// The working storage of a loop abstraction's views, kept between builds
/// beside the PDG's [`BuildBuffers`] by a caller that builds many (the
/// manager). Each view clears what it uses before reading it and never
/// shrinks it, so the set is bounded by the largest function built, and a
/// bundle holds only what it keeps, at its exact size. Nothing one build
/// leaves here reaches the next.
#[derive(Default)]
pub struct LoopBuffers {
    /// The loop's affine recurrences.
    pub(crate) recs: Vec<AddRec>,
    /// Per block of the function: in the loop.
    pub(crate) in_loop: Vec<bool>,
    /// Per value of the function (instructions by arena index, arguments
    /// after them): given an environment slot.
    pub(crate) seen: Vec<bool>,
    /// The environment's slots as found: `(live-in, value, type)`.
    pub(crate) slots: Vec<(bool, Value, Type)>,
    /// Algorithm 2's state per arena index.
    pub(crate) visits: Vec<Visit>,
    /// Algorithm 2's walk: an instruction and how many of its dependences
    /// were walked.
    pub(crate) frames: Vec<(InstId, usize)>,
    /// A list of the loop's instructions: the IV walk's, the invariants
    /// found, the handled recurrences.
    pub(crate) insts: Vec<InstId>,
}

impl LoopAbstraction {
    /// Build the full bundle for loop `id` of `forest`, a loop forest of
    /// `fid`, using `builder`'s alias stack, function graph and dominator
    /// tree included — for callers without a `Noelle` manager (the baseline
    /// parallelizer, unit tests).
    pub fn build(
        builder: &PdgBuilder<'_>,
        fid: FuncId,
        forest: &Arc<LoopForest>,
        id: LoopId,
    ) -> LoopAbstraction {
        let f = builder.module().func(fid);
        let cfg = Cfg::new(f);
        let dom = Arc::new(DomTree::new(f, &cfg));
        let mut buf = BuildBuffers::default();
        let function_graph = builder.function_pdg_in(fid, &cfg, &mut buf);
        let mut loop_buf = LoopBuffers::default();
        LoopAbstraction::build_with(
            builder,
            fid,
            forest,
            id,
            dom,
            &function_graph,
            &mut buf,
            &mut loop_buf,
        )
    }

    /// [`LoopAbstraction::build`] for loop `id` of `forest`, carving from an
    /// already-built function PDG and sharing an already-built dominator
    /// tree and forest — the `Noelle` manager passes the function's cached
    /// partition and structures, so requesting several loop abstractions of
    /// one function analyzes the function once — and working in the
    /// caller's buffers (the loop graph's and the aSCCDAG's temporaries in
    /// `buf`, the views' in `loop_buf`). The bundle itself is not cached:
    /// the caller owns it.
    ///
    /// The loop's affine recurrences are found once and handed to every
    /// view that reads them (loop PDG, aSCCDAG, IVs, trip count).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with(
        builder: &PdgBuilder<'_>,
        fid: FuncId,
        forest: &Arc<LoopForest>,
        id: LoopId,
        dom: Arc<DomTree>,
        function_graph: &DepGraph<InstId>,
        buf: &mut BuildBuffers,
        loop_buf: &mut LoopBuffers,
    ) -> LoopAbstraction {
        let m = builder.module();
        let f = m.func(fid);
        let l = forest.loop_info(id);
        let mut recs = std::mem::take(&mut loop_buf.recs);
        affine_recurrences_into(f, l, &mut recs);
        let pdg = builder.loop_pdg_in(fid, l, function_graph, &recs, buf);
        let sccdag = SccDag::new_in(f, l, &pdg, &recs, buf);
        let ivs = ivs_noelle_in(f, l, &recs, &mut loop_buf.insts);
        let invariants = invariants_noelle_in(f, l, &pdg, loop_buf);
        let reds = reductions(f, l, &sccdag);
        let trip_count = const_trip_count(f, l, &recs);
        let env = Environment::for_loop_in(m, f, l, loop_buf);
        let handled = &mut loop_buf.insts;
        handled.clear();
        handled.extend(recs.iter().flat_map(|r| [r.phi, r.update]));
        for node in sccdag.nodes() {
            if node.kind == SccKind::Reducible {
                handled.extend_from_slice(sccdag.insts(node.id));
            }
        }
        handled.sort_unstable();
        handled.dedup();
        let handled = handled.to_vec();
        loop_buf.recs = recs;
        LoopAbstraction {
            fid,
            forest: Arc::clone(forest),
            id,
            dom,
            pdg,
            sccdag,
            ivs,
            invariants,
            reductions: reds,
            trip_count,
            env,
            handled,
        }
    }

    /// The loop structure (LS), borrowed from the function's forest.
    pub fn structure(&self) -> &LoopInfo {
        self.forest.loop_info(self.id)
    }

    /// Instructions that belong to IV recurrences or reducible SCCs — the
    /// loop-carried cycles a parallelizer knows how to handle specially.
    /// Ascending, none twice.
    pub fn handled_recurrence_insts(&self) -> &[InstId] {
        &self.handled
    }

    /// The dependences that keep the iterations from being distributed:
    /// loop-carried data edges between two instructions of the loop that
    /// are not confined to handled recurrences. The one spelling of the
    /// predicate every DOALL-level judgment rests on.
    pub fn blocking_edges(&self) -> impl Iterator<Item = &DepEdge<InstId>> + '_ {
        self.pdg.edges().iter().filter(|e| {
            e.attrs.loop_carried
                && e.attrs.is_data()
                && self.pdg.is_internal(e.src)
                && self.pdg.is_internal(e.dst)
                && !(self.handles(e.src) && self.handles(e.dst))
        })
    }

    /// The reduction whose accumulator is live-out `v`, if one is: the one
    /// spelling of "the dispatcher can rebuild this live-out" (it folds
    /// reduction partials and rebuilds nothing else).
    pub fn reduction_of(&self, v: Value) -> Option<&Reduction> {
        self.reductions.iter().find(|r| Value::Inst(r.phi) == v)
    }

    fn handles(&self, i: InstId) -> bool {
        self.handled.binary_search(&i).is_ok()
    }

    /// DOALL legality: no dependence blocks the distribution of iterations,
    /// and the loop has a governing IV with a single exit.
    pub fn is_doall(&self) -> bool {
        self.ivs.governing().is_some()
            && self.structure().num_exit_blocks() == 1
            && self.blocking_edges().next().is_none()
    }

    /// The sequential SCC ids of this loop (HELIX's sequential segments).
    /// Induction-variable SCCs are excluded: each core recomputes its own IV
    /// instead of serializing on it.
    pub fn sequential_sccs(&self) -> impl Iterator<Item = usize> + '_ {
        self.sccdag
            .nodes()
            .iter()
            .filter(|n| n.kind == SccKind::Sequential && !n.is_induction)
            .map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_analysis::alias::BasicAlias;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::loops::LoopForest;
    use noelle_ir::module::Module;
    use noelle_ir::types::Type;

    /// The loop's function, its id and its forest.
    fn forest_of(m: &Module, fid: FuncId) -> Arc<LoopForest> {
        let f = m.func(fid);
        let cfg = Cfg::new(f);
        Arc::new(LoopForest::new(f, &cfg, &DomTree::new(f, &cfg)))
    }

    fn sum_loop() -> (Module, FuncId, Arc<LoopForest>) {
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
        let forest = forest_of(&m, fid);
        (m, fid, forest)
    }

    #[test]
    fn bundle_contains_all_views() {
        let (m, fid, l) = sum_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let la = LoopAbstraction::build(&builder, fid, &l, LoopId(0));
        assert_eq!(la.ivs.len(), 1);
        assert!(la.ivs.governing().is_some());
        assert_eq!(la.reductions.len(), 1);
        assert!(la.trip_count.is_none()); // bound is an argument
        assert_eq!(la.env.live_ins.len(), 2);
        assert_eq!(la.env.live_outs.len(), 1);
        assert!(!la.invariants.is_empty() || la.invariants.is_empty()); // computed
        assert!(la.sccdag.nodes().len() >= 3);
    }

    #[test]
    fn sum_loop_is_doall_with_reduction() {
        let (m, fid, l) = sum_loop();
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let la = LoopAbstraction::build(&builder, fid, &l, LoopId(0));
        // The only carried cycles are the IV and the reducible sum.
        assert!(la.is_doall());
        assert!(la.sequential_sccs().next().is_none());
    }

    /// `blocking_edges` against the filter `is_doall`, the audit's
    /// classifier, Perspective and HELIX each spelled out before it, and
    /// `is_doall` against its truth table, over every loop of the suite.
    #[test]
    fn blocking_edges_are_the_old_filter_and_is_doall_keeps_its_truth_table() {
        use crate::noelle::{AliasTier, Noelle};
        let (mut loops, mut blocked) = (0, 0);
        let suite = noelle_workloads::all()
            .into_iter()
            .chain([noelle_workloads::pdg_stress()]);
        for w in suite {
            let mut n = Noelle::new(w.build(), AliasTier::Full);
            let fids: Vec<FuncId> = n.module().func_ids().collect();
            for fid in fids {
                if n.module().func(fid).is_declaration() {
                    continue;
                }
                for l in n.loop_forest(fid).loops() {
                    let la = n.loop_abstraction(fid, l.id);
                    let mut handled = la.ivs.recurrence_insts();
                    for node in la.sccdag.nodes() {
                        if node.kind == SccKind::Reducible {
                            handled.extend(la.sccdag.insts(node.id).iter().copied());
                        }
                    }
                    assert!(
                        handled.iter().eq(la.handled_recurrence_insts()),
                        "{}",
                        w.name
                    );
                    let old: Vec<_> = la
                        .pdg
                        .edges()
                        .iter()
                        .filter(|e| {
                            e.attrs.loop_carried
                                && e.attrs.is_data()
                                && la.pdg.is_internal(e.src)
                                && la.pdg.is_internal(e.dst)
                                && !(handled.contains(&e.src) && handled.contains(&e.dst))
                        })
                        .map(|e| (e.src, e.dst))
                        .collect();
                    let new: Vec<_> = la.blocking_edges().map(|e| (e.src, e.dst)).collect();
                    assert_eq!(new, old, "{}", w.name);
                    assert_eq!(
                        la.is_doall(),
                        la.ivs.governing().is_some()
                            && la.structure().exit_blocks().len() == 1
                            && old.is_empty(),
                        "{}",
                        w.name
                    );
                    loops += 1;
                    blocked += usize::from(!old.is_empty());
                }
            }
        }
        assert_eq!(loops, 136, "the suite and pdg_stress");
        assert!(blocked >= 30 && loops - blocked >= 30, "{blocked} blocked");
    }

    #[test]
    fn pointer_chase_is_not_doall() {
        // while (p) { count++; p = p->next }
        let mut m = Module::new("t");
        let node_ty = Type::I64.ptr_to(); // next pointer only
        let mut b = FunctionBuilder::new("k", vec![("head", node_ty.ptr_to())], Type::I64);
        let entry = b.entry_block();
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let p = b.phi(node_ty.clone().ptr_to(), vec![(entry, Value::Arg(0))]);
        let cnt = b.phi(Type::I64, vec![(entry, Value::const_i64(0))]);
        let c = b.icmp(
            IcmpPred::Ne,
            node_ty.clone().ptr_to(),
            p,
            Value::Const(noelle_ir::value::Constant::Null),
        );
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let cnt2 = b.binop(BinOp::Add, Type::I64, cnt, Value::const_i64(1));
        let next = b.load(node_ty.clone(), p);
        let next_cast = b.cast(
            noelle_ir::inst::CastOp::Bitcast,
            node_ty.clone(),
            node_ty.ptr_to(),
            next,
        );
        b.br(header);
        b.add_incoming(p, body, next_cast);
        b.add_incoming(cnt, body, cnt2);
        b.switch_to(exit);
        b.ret(Some(cnt));
        let fid = m.add_function(b.finish());
        let l = forest_of(&m, fid);
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let la = LoopAbstraction::build(&builder, fid, &l, LoopId(0));
        // The pointer chase is a sequential recurrence: no governing IV.
        assert!(!la.is_doall());
    }
}
