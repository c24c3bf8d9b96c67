//! `noelle-plan`: the cost-model-driven parallelization planner.
//!
//! For every loop the auditor marks clean for at least one technique, the
//! planner predicts each technique's speedup from the architecture model,
//! the embedded profiles, and the SCCDAG structure, then picks the best
//! candidate per loop under nesting conflicts. The report is deterministic
//! and explainable: a per-loop candidate table with predicted speedups and
//! why the winner won. `--apply` emits the recipe each chosen loop was
//! judged on and writes the parallelized module. `workload:all` plans the whole built-in suite into one JSON
//! document — the form CI diffs against the checked-in golden.
//! `--calibrate` instead applies every planned loop alone, runs it on the
//! simulated machine and prints prediction beside measurement, one row a
//! loop (`workload:all`: the suite plus `scale_module(133, 42)`, the form
//! CI diffs against `results/plan_calibration.txt`).

use noelle_core::json::{envelope, Json};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_plan::{apply_plan, plan_module, PlanOptions};
use noelle_tools::calibrate::{calibrate, corpus, render};
use noelle_tools::{die, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-plan <in.nir|workload:NAME|workload:all> [--workers N] [--format text|json] [--calibrate] [--apply] [--o out.nir]";

fn main() {
    let args = Args::parse(&["workers", "format", "o"], &["calibrate", "apply"], USAGE);
    let Some(input) = args.positional.first() else {
        die(USAGE);
    };
    let format = args.flag_or("format", "text").to_string();
    let opts = PlanOptions {
        workers: args.flag_usize("workers", PlanOptions::default().workers),
    };
    if args.flag("calibrate").is_some() {
        let modules = if input == "workload:all" {
            corpus()
        } else {
            vec![(
                input.clone(),
                read_module(input).unwrap_or_else(|e| die(&e)),
            )]
        };
        let mut rows = Vec::new();
        for (name, m) in &modules {
            rows.extend(calibrate(name, m, &opts).unwrap_or_else(|e| die(&e)));
        }
        print!("{}", render(&rows));
        return;
    }
    if input == "workload:all" {
        // One deterministic document over the whole suite, keyed by
        // workload name: the golden-diff form.
        let plans: Vec<(String, Json)> = noelle_workloads::built_suite()
            .into_iter()
            .map(|(name, m)| {
                let mut n = Noelle::new(m, AliasTier::Full);
                (name, plan_module(&mut n, &opts).to_json())
            })
            .collect();
        if format != "json" {
            die("only --format json is supported for workload:all");
        }
        let doc = envelope(
            "plan",
            Json::object([("plans".to_string(), Json::object(plans))]),
        );
        println!("{}", doc.to_string_pretty());
        return;
    }
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let mut noelle = Noelle::new(m, AliasTier::Full);
    let plan = plan_module(&mut noelle, &opts);
    match format.as_str() {
        "text" => print!("{}", plan.render_text()),
        "json" => {
            let doc = envelope("plan", Json::object([("plan".to_string(), plan.to_json())]));
            println!("{}", doc.to_string_pretty());
        }
        other => die(&format!("unknown format '{other}' (expected text|json)")),
    }
    if args.flag("apply").is_some() {
        let report = apply_plan(&mut noelle, &plan);
        eprintln!(
            "applied: {} loop(s) parallelized, {} skipped",
            report.parallelized.len(),
            report.skipped.len()
        );
        let out = args.flag_or("o", "-");
        write_module(&noelle.into_module(), out).unwrap_or_else(|e| die(&e));
    }
}
