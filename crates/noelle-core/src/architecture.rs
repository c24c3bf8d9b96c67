//! The Architecture (AR) abstraction.
//!
//! "Description of the underlying architecture in terms of logical/physical
//! cores, NUMA nodes. It also provides the measured latencies and bandwidths
//! between pairs of cores." The paper's `noelle-arch` tool fills this by
//! measuring the machine (via hwloc + micro-benchmarks); here the
//! description is synthesized deterministically — the substitution DESIGN.md
//! documents — and consumed identically by HELIX's helper-thread placement
//! and by the simulated runtime's communication costs.
//!
//! It also owns the **cost vocabulary**: what an instruction, an external
//! routine, a task spawn, a join, a queue operation and a signal cost in
//! cycles. The simulated machine charges through these functions and the
//! profitability gates and the planner price through the same ones, so a
//! tool never assumes what the machine bills — it asks. No cycle count is
//! written down anywhere else.

use crate::json::Json;
use noelle_ir::inst::{BinOp, Callee, Inst, Terminator};
use noelle_ir::module::Module;

/// Cycles of an `alloca`.
pub const ALLOCA_CYCLES: u64 = 2;
/// Cycles of a `load` or a `store`.
pub const MEM_CYCLES: u64 = 4;
/// Cycles of a `gep`.
pub const GEP_CYCLES: u64 = 1;
/// Cycles of a cast.
pub const CAST_CYCLES: u64 = 1;
/// Cycles of an `icmp`.
pub const ICMP_CYCLES: u64 = 1;
/// Overhead of a call; what the callee runs is charged on top.
pub const CALL_CYCLES: u64 = 3;
/// Cycles of an unconditional branch.
pub const BR_CYCLES: u64 = 1;
/// Cycles of a conditional branch.
pub const CONDBR_CYCLES: u64 = 2;
/// Cycles of a `ret`.
pub const RET_CYCLES: u64 = 1;
/// Cycles of a `switch`.
pub const SWITCH_CYCLES: u64 = 3;

/// Cycles charged for one execution of `inst`; a call's callee is charged
/// separately ([`external_cost`], or its body as it runs). Costs
/// approximate a simple in-order core; what matters for the evaluation is
/// the *relative* weight of computation vs. memory vs. communication, not
/// absolute accuracy.
pub fn inst_cost(inst: &Inst) -> u64 {
    match inst {
        Inst::Alloca { .. } => ALLOCA_CYCLES,
        Inst::Load { .. } | Inst::Store { .. } => MEM_CYCLES,
        Inst::Gep { .. } => GEP_CYCLES,
        Inst::Bin { op, .. } => bin_cost(*op),
        Inst::Icmp { .. } => ICMP_CYCLES,
        Inst::Fcmp { .. } => 2,
        Inst::Cast { .. } => CAST_CYCLES,
        Inst::Select { .. } => 1,
        Inst::Phi { .. } => 0,
        Inst::Call { .. } => CALL_CYCLES,
        Inst::Term(Terminator::Ret(_)) => RET_CYCLES,
        Inst::Term(Terminator::Br(_)) => BR_CYCLES,
        Inst::Term(Terminator::CondBr { .. }) => CONDBR_CYCLES,
        Inst::Term(Terminator::Switch { .. }) => SWITCH_CYCLES,
        Inst::Term(Terminator::Unreachable) => 0,
    }
}

/// Cycles of one binary operation.
pub fn bin_cost(op: BinOp) -> u64 {
    match op {
        BinOp::Add
        | BinOp::Sub
        | BinOp::And
        | BinOp::Or
        | BinOp::Xor
        | BinOp::Shl
        | BinOp::AShr
        | BinOp::LShr
        | BinOp::SMax
        | BinOp::SMin => 1,
        BinOp::Mul => 3,
        BinOp::Div | BinOp::Rem => 20,
        BinOp::FAdd | BinOp::FSub => 3,
        BinOp::FMul => 4,
        BinOp::FMax | BinOp::FMin => 2,
        BinOp::FDiv => 18,
    }
}

/// Cost of a known external routine, in cycles (the `noelle.*` runtime
/// intrinsics are routines of the default cost; what a queue operation or
/// a spawn adds is the [`Architecture`]'s to say).
pub fn external_cost(name: &str) -> u64 {
    match name {
        "sqrt" => 18,
        "sin" | "cos" | "tan" => 40,
        "exp" | "log" | "pow" => 45,
        "fabs" | "floor" | "ceil" => 3,
        "malloc" | "calloc" => 30,
        "free" => 10,
        "print_i64" | "print_f64" => 12,
        // PRVG families for the PRVJeeves experiments: same interface,
        // different quality/cost points.
        "prv.mt.next" => 40, // Mersenne-Twister-class: high quality, slow
        "prv.lcg.next" => 8, // LCG: medium
        "prv.xs.next" => 5,  // xorshift: fast
        "carat.guard" => 2,
        "coos.callback" => 6,
        "clock.set" => 4,
        _ => 10,
    }
}

/// What one execution of `inst` is expected to cost in `m`, statically:
/// [`inst_cost`], and for a direct call what the machine bills on top —
/// [`external_cost`] for a declaration, one pass over the callee's own
/// instructions for a definition. The callee's calls stay at their
/// overhead, which cuts recursion and keeps the estimate a function of the
/// caller and its direct callees only (the closure an IDE edit re-derives).
pub fn static_cost(m: &Module, inst: &Inst) -> u64 {
    let Inst::Call {
        callee: Callee::Direct(callee),
        ..
    } = inst
    else {
        return inst_cost(inst);
    };
    let callee = m.func(*callee);
    let runs: u64 = if callee.is_declaration() {
        external_cost(&callee.name)
    } else {
        callee
            .block_order()
            .iter()
            .flat_map(|&b| &callee.block(b).insts)
            .map(|&i| inst_cost(callee.inst(i)))
            .sum()
    };
    CALL_CYCLES + runs
}

/// Metadata key under which the architecture description is embedded.
pub const ARCH_KEY: &str = "noelle.arch";

/// A machine description.
///
/// The two core-to-core tables are flat, `num_cores × num_cores` row-major,
/// and private: every constructor ([`Architecture::synthetic`],
/// [`Architecture::from_json`]) builds them square, and the worst latency
/// is read off them once, where they are built. A variant of a machine is
/// made by changing its public costs on a copy.
#[derive(Clone, Debug, PartialEq)]
pub struct Architecture {
    /// Human-readable name.
    pub name: String,
    /// Number of logical cores.
    pub num_cores: usize,
    /// SMT ways per physical core.
    pub smt: usize,
    /// Number of NUMA nodes.
    pub numa_nodes: usize,
    /// NUMA node of each logical core.
    pub core_to_numa: Vec<usize>,
    /// Core-to-core latency in cycles, `a * num_cores + b`.
    latency: Vec<u64>,
    /// Core-to-core bandwidth in bytes/cycle, laid out as `latency`.
    bandwidth: Vec<u64>,
    /// The largest entry of `latency`.
    max_latency: u64,
    /// Cost in cycles of dispatching one task to a core.
    pub dispatch_overhead: u64,
    /// Cost in cycles of one inter-core queue push/pop pair.
    pub queue_op_cost: u64,
}

impl Architecture {
    /// A deterministic synthetic machine: `num_cores` logical cores spread
    /// evenly over `numa_nodes` nodes. Latencies follow the usual hierarchy:
    /// same core 0, same NUMA node 60 cycles, cross-node 140 cycles.
    ///
    /// # Panics
    /// When either count is zero: a machine has a core and a node.
    pub fn synthetic(num_cores: usize, numa_nodes: usize) -> Architecture {
        assert!(num_cores > 0 && numa_nodes > 0);
        let per_node = num_cores.div_ceil(numa_nodes);
        let core_to_numa: Vec<usize> = (0..num_cores).map(|c| c / per_node).collect();
        // Same core, same node, across nodes.
        let table = |same: u64, near: u64, far: u64| -> Vec<u64> {
            (0..num_cores * num_cores)
                .map(|i| {
                    let (a, b) = (i / num_cores, i % num_cores);
                    if a == b {
                        same
                    } else if core_to_numa[a] == core_to_numa[b] {
                        near
                    } else {
                        far
                    }
                })
                .collect()
        };
        let (latency, bandwidth) = (table(0, 60, 140), table(64, 32, 16));
        Architecture {
            name: format!("synthetic-{num_cores}c-{numa_nodes}n"),
            num_cores,
            smt: 2,
            numa_nodes,
            core_to_numa,
            max_latency: latency.iter().copied().max().unwrap_or(0),
            latency,
            bandwidth,
            dispatch_overhead: 400,
            queue_op_cost: 30,
        }
    }

    /// Logical cores of [`Architecture::default_machine`], known without
    /// building its tables.
    pub const DEFAULT_CORES: usize = 12;

    /// The default evaluation machine: 12 cores on 1 NUMA node, mirroring
    /// the paper's Xeon E5-2695 v3 platform shape.
    pub fn default_machine() -> Architecture {
        Architecture::synthetic(Architecture::DEFAULT_CORES, 1)
    }

    /// Latency between two cores in cycles.
    pub fn core_latency(&self, a: usize, b: usize) -> u64 {
        let last = self.num_cores - 1;
        self.latency[a.min(last) * self.num_cores + b.min(last)]
    }

    /// Worst-case latency from any core to any other.
    pub fn max_latency(&self) -> u64 {
        self.max_latency
    }

    /// The core task `i` of a dispatch runs on.
    pub fn task_core(&self, i: usize) -> usize {
        i % self.num_cores
    }

    /// Cycles after a dispatch at which its task `i` starts: the
    /// dispatcher spawns serially, one [`Architecture::dispatch_overhead`]
    /// per task.
    pub fn spawn_clock(&self, i: usize) -> u64 {
        self.dispatch_overhead * (i as u64 + 1)
    }

    /// When a task on core `to` whose clock reads `now` has what core
    /// `from` made available at `sent`: a joined child's end, a popped
    /// value, a sequential segment's signal.
    pub fn arrival(&self, now: u64, sent: u64, from: usize, to: usize) -> u64 {
        now.max(sent + self.core_latency(from, to))
    }

    /// Cycles a `noelle.queue.push` or `noelle.queue.pop` occupies its
    /// core: the call, the runtime routine and the queue operation (a pop
    /// first waits for the value's [`Architecture::arrival`]).
    pub fn queue_op_cycles(&self) -> u64 {
        CALL_CYCLES + external_cost("noelle.queue.push") + self.queue_op_cost
    }

    /// Cycles a `noelle.ss.wait` or `noelle.ss.signal` occupies its core
    /// (a wait first waits for the previous signal's
    /// [`Architecture::arrival`]).
    pub fn signal_cycles(&self) -> u64 {
        CALL_CYCLES + external_cost("noelle.ss.signal")
    }

    /// Serialize to a JSON value (the embedding format): each table as an
    /// array of rows.
    pub fn to_json(&self) -> Json {
        let matrix = |m: &[u64]| {
            let row = |r: &[u64]| Json::Array(r.iter().map(|&c| Json::Int(c as i64)).collect());
            Json::Array(m.chunks(self.num_cores).map(row).collect())
        };
        Json::object([
            ("name".to_string(), Json::Str(self.name.clone())),
            ("num_cores".to_string(), Json::Int(self.num_cores as i64)),
            ("smt".to_string(), Json::Int(self.smt as i64)),
            ("numa_nodes".to_string(), Json::Int(self.numa_nodes as i64)),
            (
                "core_to_numa".to_string(),
                Json::Array(
                    self.core_to_numa
                        .iter()
                        .map(|&n| Json::Int(n as i64))
                        .collect(),
                ),
            ),
            ("latency".to_string(), matrix(&self.latency)),
            ("bandwidth".to_string(), matrix(&self.bandwidth)),
            (
                "dispatch_overhead".to_string(),
                Json::Int(self.dispatch_overhead as i64),
            ),
            (
                "queue_op_cost".to_string(),
                Json::Int(self.queue_op_cost as i64),
            ),
        ])
    }

    /// Deserialize from the JSON produced by [`Architecture::to_json`].
    /// A description whose shape does not hold together reads as no
    /// description: it needs a core and a NUMA node, a node below
    /// `numa_nodes` for each core, and square `num_cores × num_cores`
    /// tables.
    pub fn from_json(v: &Json) -> Option<Architecture> {
        let count = |key: &str| -> Option<usize> { usize::try_from(v.get(key)?.as_u64()?).ok() };
        let (num_cores, numa_nodes) = (count("num_cores")?, count("numa_nodes")?);
        if num_cores == 0 || numa_nodes == 0 {
            return None;
        }
        let core_to_numa = v
            .get("core_to_numa")?
            .as_array()?
            .iter()
            .map(|n| {
                usize::try_from(n.as_u64()?)
                    .ok()
                    .filter(|&n| n < numa_nodes)
            })
            .collect::<Option<Vec<usize>>>()?;
        // Rows of `num_cores` entries, `num_cores` of them, read into one
        // flat table. The shape is checked before the table is reserved,
        // so what is reserved is what the text holds.
        let matrix = |j: &Json| -> Option<Vec<u64>> {
            let rows = j.as_array()?;
            let square = |row: &Json| row.as_array().is_some_and(|r| r.len() == num_cores);
            if rows.len() != num_cores || !rows.iter().all(square) {
                return None;
            }
            let mut flat = Vec::with_capacity(num_cores * num_cores);
            for row in rows.iter().filter_map(Json::as_array) {
                for c in row {
                    flat.push(c.as_u64()?);
                }
            }
            Some(flat)
        };
        if core_to_numa.len() != num_cores {
            return None;
        }
        let latency = matrix(v.get("latency")?)?;
        Some(Architecture {
            name: v.get("name")?.as_str()?.to_string(),
            num_cores,
            smt: count("smt")?,
            numa_nodes,
            core_to_numa,
            max_latency: latency.iter().copied().max().unwrap_or(0),
            latency,
            bandwidth: matrix(v.get("bandwidth")?)?,
            dispatch_overhead: v.get("dispatch_overhead")?.as_u64()?,
            queue_op_cost: v.get("queue_op_cost")?.as_u64()?,
        })
    }

    /// Embed this description into module metadata (what `noelle-arch`
    /// writes).
    pub fn embed(&self, m: &mut noelle_ir::Module) {
        m.metadata
            .insert(ARCH_KEY.to_string(), self.to_json().to_string_compact());
    }

    /// Read a description embedded by [`Architecture::embed`].
    pub fn from_module(m: &noelle_ir::Module) -> Option<Architecture> {
        m.metadata
            .get(ARCH_KEY)
            .and_then(|s| Json::parse(s))
            .as_ref()
            .and_then(Architecture::from_json)
    }
}

impl Default for Architecture {
    fn default() -> Architecture {
        Architecture::default_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_shape() {
        let a = Architecture::synthetic(8, 2);
        assert_eq!(a.num_cores, 8);
        assert_eq!(a.core_to_numa, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(a.core_latency(0, 0), 0);
        assert_eq!(a.core_latency(0, 1), 60);
        assert_eq!(a.core_latency(0, 7), 140);
        assert_eq!(a.max_latency(), 140);
    }

    #[test]
    fn relative_weights_sane() {
        use noelle_ir::types::Type;
        use noelle_ir::value::Value;
        let bin = |op| Inst::Bin {
            op,
            ty: Type::I64,
            lhs: Value::const_i64(1),
            rhs: Value::const_i64(2),
        };
        let load = Inst::Load {
            ty: Type::I64,
            ptr: Value::Arg(0),
        };
        assert!(inst_cost(&bin(BinOp::Add)) < inst_cost(&load));
        assert!(inst_cost(&load) < inst_cost(&bin(BinOp::Div)));
        let phi = Inst::Phi {
            ty: Type::I64,
            incomings: vec![],
        };
        assert_eq!(inst_cost(&phi), 0);
        // PRVG families are ordered by cost.
        assert!(external_cost("prv.xs.next") < external_cost("prv.lcg.next"));
        assert!(external_cost("prv.lcg.next") < external_cost("prv.mt.next"));
    }

    #[test]
    fn a_call_is_priced_by_what_it_runs() {
        let m = noelle_ir::parser::parse_module(
            r#"
module "t" {
declare f64 @sqrt(f64 %x)
define i64 @leaf(i64 %x) {
entry:
  %y = mul i64 %x, %x
  %z = call i64 @main(%y)
  ret %z
}
define i64 @main(i64 %x) {
entry:
  %a = call f64 @sqrt(f64 4.0)
  %b = call i64 @leaf(%x)
  ret %b
}
}
"#,
        )
        .unwrap();
        let main = m.func(m.func_id_by_name("main").unwrap());
        let costs: Vec<u64> = main
            .inst_ids()
            .iter()
            .map(|&i| static_cost(&m, main.inst(i)))
            .collect();
        // The external routine; the leaf's multiply, its own call at the
        // overhead (the recursion stops there) and its return; the `ret`.
        let leaf = bin_cost(BinOp::Mul) + CALL_CYCLES + RET_CYCLES;
        assert_eq!(
            costs,
            [
                CALL_CYCLES + external_cost("sqrt"),
                CALL_CYCLES + leaf,
                RET_CYCLES
            ]
        );
    }

    #[test]
    fn tasks_spawn_serially_and_arrivals_pay_the_latency() {
        let a = Architecture::synthetic(4, 2);
        assert_eq!(a.spawn_clock(0), a.dispatch_overhead);
        assert_eq!(a.spawn_clock(3), 4 * a.dispatch_overhead);
        assert_eq!((a.task_core(3), a.task_core(4)), (3, 0));
        assert_eq!(a.arrival(100, 90, 0, 0), 100);
        assert_eq!(a.arrival(100, 90, 0, 1), 90 + a.core_latency(0, 1));
        assert_eq!(a.arrival(100, 90, 0, 3), 90 + a.core_latency(0, 3));
    }

    #[test]
    fn embed_round_trips() {
        let mut m = noelle_ir::Module::new("t");
        let a = Architecture::synthetic(4, 1);
        a.embed(&mut m);
        assert_eq!(Architecture::from_module(&m), Some(a));
        assert_eq!(
            Architecture::from_module(&noelle_ir::Module::new("x")),
            None
        );
    }

    /// A description of `cores` cores on `nodes` nodes with the given
    /// node map and tables, as JSON text.
    fn described(
        cores: i64,
        nodes: i64,
        to_numa: &str,
        lat: &str,
        bw: &str,
    ) -> Option<Architecture> {
        let text = format!(
            r#"{{"name":"t","num_cores":{cores},"smt":2,"numa_nodes":{nodes},"core_to_numa":{to_numa},"latency":{lat},"bandwidth":{bw},"dispatch_overhead":400,"queue_op_cost":30}}"#
        );
        let parsed = Json::parse(&text);
        assert!(parsed.is_some(), "the description parses: {text}");
        Architecture::from_json(parsed.as_ref()?)
    }

    #[test]
    fn a_description_whose_shape_does_not_hold_reads_as_none() {
        let square = "[[0,60],[60,0]]";
        assert!(described(2, 1, "[0,0]", square, square).is_some());
        let many_zeros = format!("[{}]", vec!["0"; 100_000].join(","));
        let many_rows = format!("[{}]", vec!["[0]"; 100_000].join(","));
        for (cores, nodes, to_numa, lat, bw) in [
            // No core, no node.
            (0, 1, "[]", "[]", "[]"),
            (2, 0, "[0,0]", square, square),
            // A node map of the wrong length, or naming a node not there.
            (2, 1, "[0]", square, square),
            (2, 1, "[0,1]", square, square),
            // Tables smaller than the cores, short rows, ragged rows.
            (4, 1, "[0,0,0,0]", "[[0]]", "[[0]]"),
            (2, 1, "[0,0]", "[[0,60]]", square),
            (2, 1, "[0,0]", square, "[[0,60],[60]]"),
            (2, 1, "[0,0]", "[[0,60],[60,0,1]]", square),
            (-1, 1, "[]", "[]", "[]"),
            // As many one-entry rows as cores: refused before a table of
            // cores² entries is reserved.
            (100_000, 1, &many_zeros, &many_rows, &many_rows),
        ] {
            assert_eq!(
                described(cores, nodes, to_numa, lat, bw),
                None,
                "{cores} cores, {nodes} nodes, {to_numa}, {lat}, {bw}"
            );
        }
    }

    #[test]
    fn the_tables_are_flat_and_serialize_as_rows() {
        let a = Architecture::synthetic(3, 2);
        assert_eq!(a.latency.len(), 9);
        assert_eq!(a.latency.capacity(), 9);
        let v = a.to_json();
        let rows = v
            .get("latency")
            .and_then(Json::as_array)
            .unwrap_or_default();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.last().map(Json::to_string_compact).as_deref(),
            Some("[140,140,0]"),
            "core 2 is alone on node 1"
        );
    }

    #[test]
    fn survives_ir_round_trip() {
        let mut m = noelle_ir::Module::new("t");
        Architecture::default_machine().embed(&mut m);
        let text = noelle_ir::printer::print_module(&m);
        let m2 = noelle_ir::parser::parse_module(&text).unwrap();
        assert_eq!(
            Architecture::from_module(&m2),
            Some(Architecture::default_machine())
        );
    }
}
