//! A machine description embedded in a module (`meta "noelle.arch"`) is
//! read only when its shape holds together: a core and a NUMA node, a node
//! map of one entry per core naming nodes that exist, and square
//! core-by-core tables. Anything else reads as no description at all — the
//! default machine — so the planner, an IDE document and the daemon treat
//! such a module exactly as they treat the module without it, where they
//! used to divide by zero or index past a table and take the process down.

use noelle::core::architecture::ARCH_KEY;
use noelle::core::json::Json;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::printer::print_module;
use noelle::ir::Module;
use noelle::workloads;
use noelle_ide::DocSession;
use noelle_plan::{plan_module, PlanOptions};
use noelle_server::{Server, ServerConfig};
use std::io::Cursor;

/// Descriptions whose shape does not hold together, by what is wrong.
fn inconsistent_machines() -> [(&'static str, String); 3] {
    let described = |cores: usize, to_numa: &str, latency: &str, bandwidth: &str| {
        format!(
            r#"{{"name":"t","num_cores":{cores},"smt":2,"numa_nodes":1,"core_to_numa":{to_numa},"latency":{latency},"bandwidth":{bandwidth},"dispatch_overhead":400,"queue_op_cost":30}}"#
        )
    };
    [
        ("zero cores", described(0, "[]", "[]", "[]")),
        (
            "tables shorter than the cores",
            described(4, "[0,0,0,0]", "[[0]]", "[[64]]"),
        ),
        (
            "ragged tables",
            described(2, "[0,0]", "[[0,60],[60]]", "[[64,32],[32]]"),
        ),
    ]
}

/// A workload with parallel loops, without a machine description.
fn plain() -> Module {
    workloads::by_name("blackscholes")
        .expect("the workload exists")
        .build()
}

fn describing(description: &str) -> Module {
    let mut m = plain();
    m.metadata
        .insert(ARCH_KEY.to_string(), description.to_string());
    m
}

#[test]
fn an_inconsistent_machine_is_planned_for_as_the_default_one() {
    let plan_of = |m: Module| {
        let plan = plan_module(
            &mut Noelle::new(m, AliasTier::Full),
            &PlanOptions::default(),
        );
        plan.to_json().to_string_compact()
    };
    let expected = plan_of(plain());
    for (what, description) in inconsistent_machines() {
        assert_eq!(plan_of(describing(&description)), expected, "{what}");
    }
}

#[test]
fn an_inconsistent_machine_opens_as_a_document_without_one() {
    let findings = |m: &Module| {
        let doc = DocSession::open("doc", &print_module(m), AliasTier::Full);
        doc.diagnostics_text()
    };
    let expected = findings(&plain());
    assert!(!expected.is_empty(), "the workload has findings");
    for (what, description) in inconsistent_machines() {
        assert_eq!(findings(&describing(&description)), expected, "{what}");
    }
}

#[test]
fn the_daemon_answers_every_request_about_an_inconsistent_machine() {
    let mut requests = String::new();
    let mut id = 0;
    for (_, description) in inconsistent_machines() {
        let text = print_module(&describing(&description));
        for (method, params) in [
            (
                "ide/open",
                Json::object([
                    ("doc".to_string(), Json::Str(format!("doc{id}"))),
                    ("text".to_string(), Json::Str(text)),
                    ("tier".to_string(), Json::Str("full".to_string())),
                ]),
            ),
            ("ping", Json::object([])),
        ] {
            id += 1;
            let request = Json::object([
                ("id".to_string(), Json::Int(id)),
                ("method".to_string(), Json::Str(method.to_string())),
                ("params".to_string(), params),
            ]);
            requests.push_str(&request.to_string_compact());
            requests.push('\n');
        }
    }
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(requests), &mut out)
        .expect("stdio serve");
    let replies: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("a reply line"))
        .collect();
    assert_eq!(replies.len() as i64, id, "every request is answered");
    for (k, reply) in replies.iter().enumerate() {
        assert_eq!(reply.get("id").and_then(Json::as_i64), Some(k as i64 + 1));
        assert!(reply.get("ok").is_some(), "{reply}");
    }
}
