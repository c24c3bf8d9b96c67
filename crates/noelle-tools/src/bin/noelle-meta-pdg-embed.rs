//! `noelle-meta-pdg-embed`: run the expensive alias analyses, compute the
//! whole-program PDG, and embed a per-function edge summary (in terms of
//! deterministic instruction IDs) as metadata.

use noelle_analysis::alias::{AliasStack, AndersenAlias, BasicAlias};
use noelle_analysis::AliasAnalysis;
use noelle_core::json::Json;
use noelle_pdg::pdg::PdgBuilder;
use noelle_tools::{die, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-meta-pdg-embed <in.nir> [--o out.nir]";

fn main() {
    let args = Args::parse(&["o"], &[], USAGE);
    let Some(input) = args.positional.first() else {
        die(USAGE);
    };
    let mut m = read_module(input).unwrap_or_else(|e| die(&e));
    noelle_ir::ids::assign_ids(&mut m);

    let (edge_count, per_function) = {
        let basic = BasicAlias::new(&m);
        let andersen = AndersenAlias::new(&m);
        let tiers = [&basic as &dyn AliasAnalysis, &andersen];
        let stack = AliasStack::new(&tiers);
        let builder = PdgBuilder::new(&m, &stack);
        let pdg = builder.program_pdg();
        // In function order: `Json::object` sorts the members by name.
        let mut per_function = Vec::new();
        for (fid, g) in &pdg.per_function {
            let f = m.func(*fid);
            let edges: Vec<Json> = g
                .edges()
                .iter()
                .filter_map(|e| {
                    let a = noelle_ir::ids::inst_id_of(&m, *fid, e.src)?;
                    let b = noelle_ir::ids::inst_id_of(&m, *fid, e.dst)?;
                    Some(Json::Array(vec![
                        Json::Int(a as i64),
                        Json::Int(b as i64),
                        Json::Bool(e.attrs.memory),
                        Json::Bool(e.attrs.must),
                    ]))
                })
                .collect();
            per_function.push((f.name.clone(), Json::Array(edges)));
        }
        (pdg.num_edges(), per_function)
    };
    m.metadata.insert(
        "noelle.pdg".to_string(),
        Json::object(per_function).to_string_compact(),
    );
    eprintln!("embedded {edge_count} dependence edges");
    write_module(&m, args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
}
