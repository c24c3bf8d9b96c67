//! Deterministic `Json` views of the Table 1 abstractions.
//!
//! The `noelle-server` daemon replies to PDG/SCCDAG/loop/call-graph queries
//! with these encodings. Two properties matter on the wire:
//!
//! 1. **Determinism** — the same module must serialize to the same bytes no
//!    matter which thread built the abstraction, so edge lists are sorted
//!    and objects go through `BTreeMap`. The protocol test compares a
//!    daemon reply byte-for-byte against a direct in-process build.
//! 2. **Self-containment** — ids are plain integers (arena indices) plus
//!    function names, so a client needs no access to the `Module` arena to
//!    interpret a reply.

use crate::induction::InductionVariables;
use crate::invariants::InvariantSet;
use crate::json::Json;
use crate::noelle::{BuildStat, FuncCacheCounters, MemoryStats, Noelle};
use noelle_ir::inst::InstId;
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::Module;
use noelle_pdg::callgraph::CallGraph;
use noelle_pdg::depgraph::{DepGraph, DepKind};
use noelle_pdg::pdg::ProgramPdg;
use noelle_pdg::sccdag::{SccDag, SccKind};

fn dep_kind_name(k: DepKind) -> &'static str {
    match k {
        DepKind::Control => "control",
        DepKind::Data(d) => match d {
            noelle_pdg::depgraph::DataDepKind::Raw => "raw",
            noelle_pdg::depgraph::DataDepKind::War => "war",
            noelle_pdg::depgraph::DataDepKind::Waw => "waw",
        },
    }
}

/// One dependence graph over instruction ids as a sorted edge list.
pub fn depgraph_to_json(g: &DepGraph<InstId>) -> Json {
    let mut edges: Vec<(u32, u32, String)> = g
        .edges()
        .iter()
        .map(|e| {
            let mut tag = String::from(dep_kind_name(e.attrs.kind));
            if e.attrs.memory {
                tag.push_str(":mem");
            }
            if e.attrs.must {
                tag.push_str(":must");
            }
            if e.attrs.loop_carried {
                tag.push_str(":carried");
            }
            if let Some(d) = e.attrs.distance {
                tag.push_str(&format!(":d{d}"));
            }
            (e.src.0, e.dst.0, tag)
        })
        .collect();
    edges.sort();
    Json::object([
        ("internal".to_string(), Json::Int(g.num_internal() as i64)),
        (
            "externals".to_string(),
            Json::Int(g.external_nodes().count() as i64),
        ),
        (
            "edges".to_string(),
            Json::Array(
                edges
                    .into_iter()
                    .map(|(s, d, t)| {
                        Json::Array(vec![Json::Int(s as i64), Json::Int(d as i64), Json::Str(t)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The whole-program PDG, keyed by function name.
pub fn pdg_to_json(m: &Module, pdg: &ProgramPdg) -> Json {
    let mut per_fn = Vec::new();
    for (fid, g) in &pdg.per_function {
        per_fn.push((m.func(*fid).name.clone(), depgraph_to_json(g)));
    }
    Json::object([
        ("num_edges".to_string(), Json::Int(pdg.num_edges() as i64)),
        ("functions".to_string(), Json::object(per_fn)),
    ])
}

fn scc_kind_name(k: SccKind) -> &'static str {
    match k {
        SccKind::Independent => "independent",
        SccKind::Reducible => "reducible",
        SccKind::Sequential => "sequential",
    }
}

/// An aSCCDAG: nodes with their member instructions plus the DAG edges.
pub fn sccdag_to_json(dag: &SccDag) -> Json {
    let nodes = dag
        .nodes()
        .iter()
        .map(|n| {
            Json::object([
                ("id".to_string(), Json::Int(n.id as i64)),
                (
                    "insts".to_string(),
                    Json::Array(
                        dag.insts(n.id)
                            .iter()
                            .map(|i| Json::Int(i.0 as i64))
                            .collect(),
                    ),
                ),
                ("kind".to_string(), Json::Str(scc_kind_name(n.kind).into())),
                ("is_induction".to_string(), Json::Bool(n.is_induction)),
            ])
        })
        .collect();
    let mut edges: Vec<(usize, usize)> = dag.edges().collect();
    edges.sort_unstable();
    Json::object([
        ("nodes".to_string(), Json::Array(nodes)),
        (
            "edges".to_string(),
            Json::Array(
                edges
                    .into_iter()
                    .map(|(a, b)| Json::Array(vec![Json::Int(a as i64), Json::Int(b as i64)]))
                    .collect(),
            ),
        ),
        (
            "fully_parallelizable".to_string(),
            Json::Bool(dag.is_fully_parallelizable()),
        ),
    ])
}

/// One loop's structural summary.
pub fn loop_to_json(l: &LoopInfo) -> Json {
    Json::object([
        ("id".to_string(), Json::Int(l.id.index() as i64)),
        ("header".to_string(), Json::Int(l.header.index() as i64)),
        ("depth".to_string(), Json::Int(l.depth as i64)),
        ("blocks".to_string(), Json::Int(l.blocks.len() as i64)),
        (
            "latches".to_string(),
            Json::Array(
                l.latches
                    .iter()
                    .map(|b| Json::Int(b.index() as i64))
                    .collect(),
            ),
        ),
        (
            "preheader".to_string(),
            match l.preheader {
                Some(b) => Json::Int(b.index() as i64),
                None => Json::Null,
            },
        ),
        ("exits".to_string(), Json::Int(l.exit_edges.len() as i64)),
    ])
}

/// Induction variables of one loop.
pub fn ivs_to_json(ivs: &InductionVariables) -> Json {
    Json::Array(
        ivs.ivs
            .iter()
            .map(|iv| {
                Json::object([
                    ("phi".to_string(), Json::Int(iv.rec.phi.0 as i64)),
                    (
                        "start".to_string(),
                        Json::Str(format!("{:?}", iv.rec.start)),
                    ),
                    ("step".to_string(), Json::Str(format!("{:?}", iv.rec.step))),
                    ("governing".to_string(), Json::Bool(iv.governing)),
                    ("derived".to_string(), Json::Int(iv.derived.len() as i64)),
                ])
            })
            .collect(),
    )
}

/// Invariant instructions of one loop (sorted ids).
pub fn invariants_to_json(inv: &InvariantSet) -> Json {
    let mut ids: Vec<u32> = inv.iter().map(|i| i.0).collect();
    ids.sort_unstable();
    Json::Array(ids.into_iter().map(|i| Json::Int(i as i64)).collect())
}

/// The complete call graph as name-resolved edges.
pub fn callgraph_to_json(m: &Module, cg: &CallGraph) -> Json {
    let mut edges: Vec<(String, String, bool, usize)> = cg
        .edges()
        .iter()
        .map(|e| {
            (
                m.func(e.caller).name.clone(),
                m.func(e.callee).name.clone(),
                e.is_must,
                e.sites.len(),
            )
        })
        .collect();
    edges.sort();
    Json::object([
        (
            "edges".to_string(),
            Json::Array(
                edges
                    .into_iter()
                    .map(|(c, t, must, sites)| {
                        Json::object([
                            ("caller".to_string(), Json::Str(c)),
                            ("callee".to_string(), Json::Str(t)),
                            ("must".to_string(), Json::Bool(must)),
                            ("sites".to_string(), Json::Int(sites as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "unresolved_sites".to_string(),
            Json::Int(cg.unresolved_sites().len() as i64),
        ),
    ])
}

/// One manager's cache-health report: per-abstraction build counts/time,
/// the per-function cache counters, and the approximate heap held by the
/// cached analysis state. This is what lets a client verify that a repeated
/// query did *not* rebuild. The one place [`BuildStat`],
/// [`FuncCacheCounters`] and [`MemoryStats`] become JSON.
pub fn manager_stats_to_json(n: &Noelle) -> Json {
    let int = |k: &str, v: u64| (k.to_string(), Json::Int(v.min(i64::MAX as u64) as i64));
    let build = |s: &BuildStat| {
        let nanos = s.nanos.min(i64::MAX as u128) as u64;
        Json::object([int("builds", s.builds), int("nanos", nanos)])
    };
    let builds = n.build_stats().iter();
    let builds = builds.map(|(a, s)| (a.short_name().to_string(), build(s)));
    let MemoryStats {
        pdg_bytes,
        andersen_bytes,
        functions,
        bytes_per_function,
    } = n.memory_stats();
    let FuncCacheCounters {
        pdg_hits,
        pdg_misses,
        struct_hits,
        struct_misses,
        invalidations,
        andersen_reuses,
        andersen_regen_funcs,
        andersen_reset_rows,
        // No daemon attaches a store: both would read 0.
        store_hits: _,
        store_misses: _,
    } = n.func_cache_counters();
    Json::object([
        ("builds".to_string(), Json::object(builds)),
        (
            "memory".to_string(),
            Json::object([
                int("pdg_bytes", pdg_bytes as u64),
                int("andersen_bytes", andersen_bytes as u64),
                int("functions", functions as u64),
                int("bytes_per_function", bytes_per_function),
            ]),
        ),
        (
            "func_cache".to_string(),
            Json::object([
                int("pdg_hits", pdg_hits),
                int("pdg_misses", pdg_misses),
                int("struct_hits", struct_hits),
                int("struct_misses", struct_misses),
                int("invalidations", invalidations),
                int("andersen_reuses", andersen_reuses),
                int("andersen_regen_funcs", andersen_regen_funcs),
                int("andersen_reset_rows", andersen_reset_rows),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noelle::AliasTier;
    use noelle_ir::builder::FunctionBuilder;
    use noelle_ir::inst::{BinOp, IcmpPred};
    use noelle_ir::types::Type;
    use noelle_ir::value::Value;

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
        b.ret(Some(Value::const_i64(0)));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn pdg_encoding_is_deterministic_and_round_trips() {
        let mut n1 = Noelle::new(loop_module(), AliasTier::Full);
        let mut n2 = Noelle::new(loop_module(), AliasTier::Full);
        let j1 = pdg_to_json(&n1.module().clone(), &n1.pdg());
        let j2 = pdg_to_json(&n2.module().clone(), &n2.pdg());
        let text = j1.to_string_compact();
        assert_eq!(text, j2.to_string_compact());
        assert_eq!(Json::parse(&text), Some(j1.clone()));
        let funcs = j1.get("functions").and_then(Json::as_object).unwrap();
        assert!(funcs.contains_key("k"));
        assert!(j1.get("num_edges").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn manager_stats_expose_build_counts() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        let _ = n.pdg();
        let _ = n.pdg();
        let s = manager_stats_to_json(&n);
        let pdg = s.get("builds").and_then(|b| b.get("PDG")).unwrap();
        assert_eq!(pdg.get("builds").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn loop_and_callgraph_encodings() {
        let mut n = Noelle::new(loop_module(), AliasTier::Full);
        let fid = n.module().func_ids().next().unwrap();
        let loops = n.loop_forest(fid);
        assert_eq!(loops.len(), 1);
        let lj = loop_to_json(&loops.loops()[0]);
        assert_eq!(lj.get("depth").and_then(Json::as_i64), Some(1));
        let cg = callgraph_to_json(&n.module().clone(), n.call_graph());
        assert!(cg.get("edges").and_then(Json::as_array).is_some());
    }
}
