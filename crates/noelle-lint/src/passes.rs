//! The supporting lint suite: dead stores (NL0002), unused environment slots
//! (NL0003), hoistable pure calls in loops (NL0004), and verifier-adjacent
//! IR hygiene (NL0005 unreachable blocks, NL0006 dead pure instructions).

use crate::diag::{Finding, IrLoc, Severity};
use crate::framework::LintPass;
use crate::races::{env_slot_of_ptr, task_groups};
use noelle_analysis::alias::alloca_address_taken;
use noelle_analysis::dfe::{BitSet, DataFlowProblem, Direction, Meet};
use noelle_analysis::scev::trivially_loop_invariant;
use noelle_core::noelle::Noelle;
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::module::{BlockId, FuncId, Module};
use noelle_ir::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// NL0002: dead stores to non-escaping allocas
// ---------------------------------------------------------------------------

/// Classic backward liveness over the tracked allocas of one function,
/// solved by the DFE at block granularity and refined to instructions by a
/// backward in-block walk.
pub struct DeadStores;

struct LivenessProblem {
    n: usize,
    genb: HashMap<BlockId, BitSet>,
    killb: HashMap<BlockId, BitSet>,
}

impl DataFlowProblem for LivenessProblem {
    fn universe(&self) -> usize {
        self.n
    }
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn meet(&self) -> Meet {
        Meet::Union
    }
    fn gen_of(&self, block: BlockId) -> BitSet {
        self.genb
            .get(&block)
            .cloned()
            .unwrap_or_else(|| BitSet::new(self.n))
    }
    fn kill_of(&self, block: BlockId) -> BitSet {
        self.killb
            .get(&block)
            .cloned()
            .unwrap_or_else(|| BitSet::new(self.n))
    }
}

impl LintPass for DeadStores {
    fn name(&self) -> &'static str {
        "dead-stores"
    }
    fn code(&self) -> &'static str {
        "NL0002"
    }
    fn description(&self) -> &'static str {
        "store to a non-escaping alloca whose value is never read"
    }
    fn run(&self, n: &mut Noelle) -> Vec<Finding> {
        let fids: Vec<FuncId> = n.module().func_ids().collect();
        run_dead_stores(n, &fids)
    }
    fn function_local(&self) -> bool {
        true
    }
    fn run_scoped(&self, n: &mut Noelle, funcs: &BTreeSet<FuncId>) -> Vec<Finding> {
        let fids: Vec<FuncId> = funcs.iter().copied().collect();
        run_dead_stores(n, &fids)
    }
}

/// The liveness walk behind [`DeadStores`], over an explicit function list.
fn run_dead_stores(n: &mut Noelle, fids: &[FuncId]) -> Vec<Finding> {
    {
        let mut findings = Vec::new();
        for &fid in fids {
            // Gather the tracked allocas and the block gen/kill sets under an
            // immutable borrow, then hand the owned problem to the DFE.
            let (tracked, prob) = {
                let f = n.module().func(fid);
                if f.is_declaration() {
                    continue;
                }
                let tracked: Vec<InstId> = f
                    .inst_ids()
                    .into_iter()
                    .filter(|&id| {
                        matches!(f.inst(id), Inst::Alloca { .. }) && !alloca_address_taken(f, id)
                    })
                    .collect();
                if tracked.is_empty() {
                    continue;
                }
                let idx: BTreeMap<InstId, usize> =
                    tracked.iter().enumerate().map(|(i, &a)| (a, i)).collect();
                let mut genb = HashMap::new();
                let mut killb = HashMap::new();
                for &b in f.block_order() {
                    let mut gen = BitSet::new(tracked.len());
                    let mut kill = BitSet::new(tracked.len());
                    for &id in &f.block(b).insts {
                        match f.inst(id) {
                            Inst::Load {
                                ptr: Value::Inst(a),
                                ..
                            } => {
                                if let Some(&i) = idx.get(a) {
                                    if !kill.contains(i) {
                                        gen.insert(i);
                                    }
                                }
                            }
                            Inst::Store {
                                ptr: Value::Inst(a),
                                ..
                            } => {
                                if let Some(&i) = idx.get(a) {
                                    kill.insert(i);
                                }
                            }
                            _ => {}
                        }
                    }
                    genb.insert(b, gen);
                    killb.insert(b, kill);
                }
                (
                    idx,
                    LivenessProblem {
                        n: tracked.len(),
                        genb,
                        killb,
                    },
                )
            };
            let res = n.solve_dataflow(fid, &prob);
            let m = n.module();
            let f = m.func(fid);
            for &b in f.block_order() {
                let mut live: BTreeSet<usize> = match res.outb.get(&b) {
                    Some(bits) => (0..prob.n).filter(|&i| bits.contains(i)).collect(),
                    None => BTreeSet::new(),
                };
                for &id in f.block(b).insts.iter().rev() {
                    match f.inst(id) {
                        Inst::Store {
                            ptr: Value::Inst(a),
                            ..
                        } => {
                            if let Some(&i) = tracked.get(a) {
                                if !live.contains(&i) {
                                    findings.push(Finding {
                                        code: "NL0002",
                                        severity: Severity::Warning,
                                        loc: IrLoc::of(m, fid, id),
                                        message: format!(
                                            "dead store: the value written to %v{} here is \
                                             overwritten or never read",
                                            a.0
                                        ),
                                        related: vec![],
                                    });
                                }
                                live.remove(&i);
                            }
                        }
                        Inst::Load {
                            ptr: Value::Inst(a),
                            ..
                        } => {
                            if let Some(&i) = tracked.get(a) {
                                live.insert(i);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        findings
    }
}

// ---------------------------------------------------------------------------
// NL0003: environment slots written by the dispatcher but never read
// ---------------------------------------------------------------------------

pub struct EnvSlots;

impl LintPass for EnvSlots {
    fn name(&self) -> &'static str {
        "env-slots"
    }
    fn code(&self) -> &'static str {
        "NL0003"
    }
    fn description(&self) -> &'static str {
        "environment slot initialized at a dispatch site but read by no task"
    }
    fn run(&self, n: &mut Noelle) -> Vec<Finding> {
        let m = n.module();
        let mut findings = Vec::new();
        for g in task_groups(m) {
            // Constant slots any member reads through the env argument.
            let mut used: BTreeSet<i64> = BTreeSet::new();
            for &mfid in &g.members {
                let f = m.func(mfid);
                for id in f.inst_ids() {
                    if let Inst::Load { ptr, .. } = f.inst(id) {
                        if let Some(c) = env_slot_of_ptr(f, *ptr, Value::Arg(0)) {
                            used.insert(c);
                        }
                    }
                }
            }
            let f = m.func(g.dispatcher);
            for id in f.inst_ids() {
                let Inst::Store { ptr, .. } = f.inst(id) else {
                    continue;
                };
                let Some(c) = env_slot_of_ptr(f, *ptr, g.env) else {
                    continue;
                };
                if !used.contains(&c) {
                    findings.push(Finding {
                        code: "NL0003",
                        severity: Severity::Warning,
                        loc: IrLoc::of(m, g.dispatcher, id),
                        message: format!(
                            "environment slot {c} is initialized here but no task of this \
                             dispatch reads it"
                        ),
                        related: vec![],
                    });
                }
            }
        }
        findings
    }
}

// ---------------------------------------------------------------------------
// NL0004: pure calls with loop-invariant arguments inside loops
// ---------------------------------------------------------------------------

pub struct HoistableCalls;

impl LintPass for HoistableCalls {
    fn name(&self) -> &'static str {
        "hoistable-calls"
    }
    fn code(&self) -> &'static str {
        "NL0004"
    }
    fn description(&self) -> &'static str {
        "call to a pure function with loop-invariant arguments inside a loop"
    }
    fn run(&self, n: &mut Noelle) -> Vec<Finding> {
        let fids: Vec<FuncId> = n.module().func_ids().collect();
        run_hoistable_calls(n, &fids)
    }
    fn function_local(&self) -> bool {
        true
    }
    fn run_scoped(&self, n: &mut Noelle, funcs: &BTreeSet<FuncId>) -> Vec<Finding> {
        let fids: Vec<FuncId> = funcs.iter().copied().collect();
        run_hoistable_calls(n, &fids)
    }
}

/// The loop walk behind [`HoistableCalls`], over an explicit function list.
/// Findings anchor in the caller. What the pass reads of a callee is its
/// declaration-ness and three summary bits (reads, writes, I/O), and the
/// manager's damage rule damages a function's direct callers exactly when
/// its interface — declaration-ness included — or its mod/ref summary
/// moves, so a caller whose finding could change is always re-linted.
fn run_hoistable_calls(n: &mut Noelle, fids: &[FuncId]) -> Vec<Finding> {
    {
        let mut loops_by_fn = BTreeMap::new();
        for &fid in fids {
            if n.module().func(fid).is_declaration() {
                continue;
            }
            loops_by_fn.insert(fid, n.loop_forest(fid));
        }
        n.with_pdg(|m, b| {
            let mr = b.modref();
            let mut findings = Vec::new();
            for (&fid, loops) in &loops_by_fn {
                let f = m.func(fid);
                for l in loops.loops() {
                    for &bb in &l.blocks {
                        for &id in &f.block(bb).insts {
                            let Inst::Call {
                                callee: Callee::Direct(c),
                                args,
                                ..
                            } = f.inst(id)
                            else {
                                continue;
                            };
                            let callee = m.func(*c);
                            if callee.is_declaration()
                                || mr.may_read(*c)
                                || mr.may_write(*c)
                                || mr.has_io(*c)
                            {
                                continue;
                            }
                            if !args.iter().all(|&a| trivially_loop_invariant(f, l, a)) {
                                continue;
                            }
                            findings.push(Finding {
                                code: "NL0004",
                                severity: Severity::Hint,
                                loc: IrLoc::of(m, fid, id),
                                message: format!(
                                    "call to pure function @{} has loop-invariant arguments; \
                                     it can be hoisted out of the enclosing loop",
                                    callee.name
                                ),
                                related: vec![],
                            });
                        }
                    }
                }
            }
            findings
        })
    }
}

// ---------------------------------------------------------------------------
// NL0005 / NL0006: verifier-adjacent IR hygiene
// ---------------------------------------------------------------------------

pub struct Hygiene;

fn reachable_blocks(m: &Module, fid: FuncId) -> BTreeSet<BlockId> {
    let f = m.func(fid);
    let mut seen = BTreeSet::new();
    let mut work = vec![f.entry()];
    while let Some(b) = work.pop() {
        if !seen.insert(b) {
            continue;
        }
        if let Some(t) = f.terminator_id(b) {
            if let Inst::Term(term) = f.inst(t) {
                work.extend(term.successors());
            }
        }
    }
    seen
}

impl LintPass for Hygiene {
    fn name(&self) -> &'static str {
        "hygiene"
    }
    fn code(&self) -> &'static str {
        "NL0005"
    }
    fn description(&self) -> &'static str {
        "IR hygiene: unreachable blocks and dead pure instructions"
    }
    fn run(&self, n: &mut Noelle) -> Vec<Finding> {
        let fids: Vec<FuncId> = n.module().func_ids().collect();
        run_hygiene(n, &fids)
    }
    fn function_local(&self) -> bool {
        true
    }
    fn run_scoped(&self, n: &mut Noelle, funcs: &BTreeSet<FuncId>) -> Vec<Finding> {
        let fids: Vec<FuncId> = funcs.iter().copied().collect();
        run_hygiene(n, &fids)
    }
}

/// The reachability/use walk behind [`Hygiene`], over an explicit function
/// list.
fn run_hygiene(n: &mut Noelle, fids: &[FuncId]) -> Vec<Finding> {
    {
        let m = n.module();
        let mut findings = Vec::new();
        for &fid in fids {
            let f = m.func(fid);
            if f.is_declaration() {
                continue;
            }
            let reachable = reachable_blocks(m, fid);
            let mut used: BTreeSet<InstId> = BTreeSet::new();
            for id in f.inst_ids() {
                f.inst(id).for_each_operand(|op| {
                    if let Value::Inst(u) = op {
                        used.insert(u);
                    }
                });
            }
            for &b in f.block_order() {
                if !reachable.contains(&b) {
                    if let Some(&first) = f.block(b).insts.first() {
                        findings.push(Finding {
                            code: "NL0005",
                            severity: Severity::Warning,
                            loc: IrLoc::of(m, fid, first),
                            message: format!(
                                "block '{}' is unreachable from the function entry",
                                f.block(b).name
                            ),
                            related: vec![],
                        });
                    }
                    continue;
                }
                for &id in &f.block(b).insts {
                    let pure = matches!(
                        f.inst(id),
                        Inst::Bin { .. }
                            | Inst::Icmp { .. }
                            | Inst::Fcmp { .. }
                            | Inst::Cast { .. }
                            | Inst::Gep { .. }
                            | Inst::Select { .. }
                            | Inst::Phi { .. }
                            | Inst::Load { .. }
                            | Inst::Alloca { .. }
                    );
                    // Keep unused `ret`-shaped terminators and side-effecting
                    // instructions out of this; `Term(Unreachable)` blocks are
                    // legitimate `unreachable` markers, not dead code.
                    if pure && !used.contains(&id) {
                        findings.push(Finding {
                            code: "NL0006",
                            severity: Severity::Hint,
                            loc: IrLoc::of(m, fid, id),
                            message: format!(
                                "result of %v{} is never used and the instruction has no side \
                                 effects",
                                id.0
                            ),
                            related: vec![],
                        });
                    }
                }
            }
        }
        findings
    }
}
