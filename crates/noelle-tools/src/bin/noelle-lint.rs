//! `noelle-lint`: run the static diagnostics suite over an IR file.
//!
//! The headline check is the NL0001 race detector: it audits the tasks
//! produced by the parallelization enablers and reports every cross-task
//! memory dependence that is not mediated by the environment, queue, or
//! sequential-segment protocol. Exit status is nonzero iff an error-severity
//! finding (a race) is reported, so the tool doubles as a CI gate over the
//! parallelizers' output.
//!
//! With `--audit`, the tool instead runs the parallelism auditor: for every
//! loop it reports a DOALL/HELIX/DSWP verdict, and each blocked verdict
//! names the instruction-level blockers (with interprocedural alias and
//! call-site attribution) plus a resolution hint. `workload:all` audits the
//! whole built-in workload suite into one JSON document — the form CI diffs
//! against the checked-in golden.

use noelle_core::json::{envelope, Json};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_lint::{audit_findings, has_errors, render_json, render_text, run_audit, run_checks};
use noelle_tools::{die, read_module, Args};

fn main() {
    let usage = format!(
        "usage: noelle-lint <in.nir> [--check <{}>] [--audit] [--format text|json]",
        noelle_lint::check_usage()
    );
    let args = Args::parse(&["check", "format"], &["audit"], &usage);
    let Some(input) = args.positional.first() else {
        die(&usage);
    };
    let format = args.flag_or("format", "text").to_string();
    if args.flag("audit").is_some() {
        run_audit_mode(input, &format);
        return;
    }
    let check = args.flag_or("check", "all").to_string();
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let mut noelle = Noelle::new(m, AliasTier::Full);
    let findings = run_checks(&mut noelle, &check).unwrap_or_else(|e| die(&e));
    match format.as_str() {
        "text" => print!("{}", render_text(&findings)),
        "json" => println!(
            "{}",
            envelope("lint", render_json(&findings)).to_string_pretty()
        ),
        other => die(&format!("unknown format '{other}' (expected text|json)")),
    }
    if has_errors(&findings) {
        std::process::exit(1);
    }
}

fn run_audit_mode(input: &str, format: &str) {
    if input == "workload:all" {
        // One deterministic document over the whole suite, keyed by
        // workload name: the golden-diff form.
        let audits: Vec<(String, Json)> = noelle_workloads::built_suite()
            .into_iter()
            .map(|(name, m)| {
                let mut n = Noelle::new(m, AliasTier::Full);
                (name, noelle_lint::run_audit(&mut n).to_json())
            })
            .collect();
        match format {
            "json" => {
                let doc = envelope(
                    "audit",
                    Json::object([("audits".to_string(), Json::object(audits))]),
                );
                println!("{}", doc.to_string_pretty());
            }
            "text" => {
                for (name, _) in &audits {
                    println!("# workload {name}");
                }
                die("text format is not supported for workload:all; use --format json");
            }
            other => die(&format!("unknown format '{other}' (expected text|json)")),
        }
        return;
    }
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let mut noelle = Noelle::new(m, AliasTier::Full);
    let audit = run_audit(&mut noelle);
    match format {
        "text" => print!("{}", audit.render_text()),
        "json" => {
            // The audit JSON plus the NL01xx findings it lowers to, so one
            // invocation serves both report consumers and diagnostics UIs.
            let findings = audit_findings(noelle.module(), &audit);
            let doc = envelope(
                "audit",
                Json::object(vec![
                    ("audit".to_string(), audit.to_json()),
                    ("diagnostics".to_string(), render_json(&findings)),
                ]),
            );
            println!("{}", doc.to_string_pretty());
        }
        other => die(&format!("unknown format '{other}' (expected text|json)")),
    }
}
