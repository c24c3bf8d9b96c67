//! The shared custom-tool registry.
//!
//! `noelle-load`, the daemon's `run-tool` method, and any future binary
//! dispatch tool names through this one table, so the set of tools and the
//! usage string cannot drift apart between entry points.

use noelle_core::json::Json;
use noelle_core::noelle::Noelle;
use noelle_transforms as tools;
use noelle_transforms::common::{parallelize, LoopTargetOpts, Parallelizer};

/// Options every registered tool receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ToolOptions {
    /// Worker/task count for parallelizers.
    pub cores: usize,
}

impl Default for ToolOptions {
    fn default() -> ToolOptions {
        ToolOptions { cores: 4 }
    }
}

/// One fully parsed request to run a registered tool: the single currency
/// all three entry points (`noelle-load` flags, `noelle-query` flags, the
/// daemon's `run-tool` params) convert into, so option handling cannot
/// drift between them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToolInvocation {
    /// Registered tool name.
    pub name: String,
    /// Parsed options.
    pub options: ToolOptions,
}

impl ToolInvocation {
    /// Parse from command-line flags: `--tool <name>` (default `doall`) and
    /// `--cores <n>` (default [`ToolOptions::default`]).
    pub fn from_args(args: &crate::Args) -> ToolInvocation {
        ToolInvocation {
            name: args.flag_or("tool", "doall").to_string(),
            options: ToolOptions {
                cores: args.flag_usize("cores", ToolOptions::default().cores),
            },
        }
    }

    /// Parse from wire params: `{"tool": <name>, "cores": <n>?}`.
    ///
    /// # Errors
    /// A missing or non-string `tool` field is an error; `cores` defaults.
    pub fn from_json(params: &Json) -> Result<ToolInvocation, String> {
        let name = params
            .get("tool")
            .and_then(Json::as_str)
            .ok_or("missing 'tool' param")?
            .to_string();
        let cores = params
            .get("cores")
            .and_then(Json::as_i64)
            .map(|c| c as usize)
            .unwrap_or(ToolOptions::default().cores);
        Ok(ToolInvocation {
            name,
            options: ToolOptions { cores },
        })
    }

    /// Encode as wire params (the inverse of [`ToolInvocation::from_json`]).
    pub fn to_params(&self) -> Vec<(String, Json)> {
        vec![
            ("tool".to_string(), Json::Str(self.name.clone())),
            ("cores".to_string(), Json::Int(self.options.cores as i64)),
        ]
    }

    /// Dispatch through the registry.
    ///
    /// # Errors
    /// Unknown names and tool failures return a message.
    pub fn run(&self, n: &mut Noelle) -> Result<String, String> {
        run_tool(n, &self.name, &self.options)
    }
}

type Runner = fn(&mut Noelle, &ToolOptions) -> Result<String, String>;

/// One registered tool.
pub struct ToolEntry {
    /// Name used on the command line and the wire.
    pub name: &'static str,
    /// The runner; returns a human-readable summary.
    pub run: Runner,
}

/// Run one parallelizer over every loop, ungated, on `workers` cores.
fn run_parallelizer(n: &mut Noelle, tool: Parallelizer, workers: usize) -> Result<String, String> {
    let target = LoopTargetOpts {
        min_hotness: 0.0,
        workers,
    };
    Ok(format!("{:?}", parallelize(n, tool, &target)))
}

fn run_doall(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Doall, o.cores)
}

fn run_helix(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Helix, o.cores)
}

fn run_dswp(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Dswp, o.cores.clamp(2, 4))
}

fn run_licm(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!("{:?}", tools::licm::run(n)))
}

fn run_dead(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!("{:?}", tools::dead::run(n, "main")))
}

fn run_carat(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!("{:?}", tools::carat::run(n)))
}

fn run_coos(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!("{:?}", tools::coos::run(n)))
}

fn run_prvj(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!(
        "{:?}",
        tools::prvj::run(n, &tools::prvj::PrvjOptions::default())
    ))
}

fn run_time(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!("{:?}", tools::time::run(n)))
}

fn run_perspective(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Perspective, o.cores)
}

fn run_plan(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    let plan = noelle_plan::plan_module(n, &noelle_plan::PlanOptions { workers: o.cores });
    let report = noelle_plan::apply_plan(n, &plan);
    Ok(format!(
        "planned {} of {} loop(s), predicted {:.2}x; applied: {report:?}",
        plan.planned(),
        plan.loops.len(),
        plan.predicted_program_speedup()
    ))
}

fn run_autopar(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    // The conservative baseline rebuilds the module rather than editing in
    // place; swap the result back into the manager.
    let m = n.module().clone();
    let (m2, report) = tools::baseline::conservative_parallelize(m, o.cores);
    n.replace_module(m2);
    Ok(format!("{report:?}"))
}

/// Every registered tool, in usage-string order.
pub fn tools() -> &'static [ToolEntry] {
    &[
        ToolEntry {
            name: "doall",
            run: run_doall,
        },
        ToolEntry {
            name: "helix",
            run: run_helix,
        },
        ToolEntry {
            name: "dswp",
            run: run_dswp,
        },
        ToolEntry {
            name: "licm",
            run: run_licm,
        },
        ToolEntry {
            name: "dead",
            run: run_dead,
        },
        ToolEntry {
            name: "carat",
            run: run_carat,
        },
        ToolEntry {
            name: "coos",
            run: run_coos,
        },
        ToolEntry {
            name: "prvj",
            run: run_prvj,
        },
        ToolEntry {
            name: "time",
            run: run_time,
        },
        ToolEntry {
            name: "perspective",
            run: run_perspective,
        },
        ToolEntry {
            name: "plan",
            run: run_plan,
        },
        ToolEntry {
            name: "autopar",
            run: run_autopar,
        },
    ]
}

/// The `a|b|c` tool-name alternation for usage strings.
pub fn usage() -> String {
    tools().iter().map(|t| t.name).collect::<Vec<_>>().join("|")
}

/// Run the named tool against `n`.
///
/// # Errors
/// Unknown names and tool failures return a message.
pub fn run_tool(n: &mut Noelle, name: &str, opts: &ToolOptions) -> Result<String, String> {
    let entry = tools()
        .iter()
        .find(|t| t.name == name)
        .ok_or_else(|| format!("unknown tool '{name}' (expected one of {})", usage()))?;
    (entry.run)(n, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;

    #[test]
    fn every_registered_tool_runs_on_a_workload() {
        let w = noelle_workloads::by_name("blackscholes").expect("workload");
        for t in tools() {
            let mut n = Noelle::new(w.build(), AliasTier::Full);
            let r = run_tool(&mut n, t.name, &ToolOptions::default());
            assert!(r.is_ok(), "tool {} failed: {r:?}", t.name);
        }
    }

    #[test]
    fn unknown_tool_names_error_with_usage() {
        let w = noelle_workloads::by_name("blackscholes").expect("workload");
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let err = run_tool(&mut n, "nope", &ToolOptions::default()).unwrap_err();
        assert!(err.contains("doall|helix"));
    }

    #[test]
    fn usage_lists_all_entries_once() {
        let u = usage();
        let names: Vec<&str> = u.split('|').collect();
        assert_eq!(names.len(), tools().len());
        for t in tools() {
            assert_eq!(names.iter().filter(|n| **n == t.name).count(), 1);
        }
    }
}
