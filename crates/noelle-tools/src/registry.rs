//! The shared custom-tool registry.
//!
//! `noelle-load`, the daemon's `run-tool` method, and any future binary
//! dispatch tool names through this one table, so the set of tools and the
//! usage string cannot drift apart between entry points.

use noelle_core::json::Json;
use noelle_core::noelle::Noelle;
use noelle_plan::PlanOptions;
use noelle_transforms as tools;
use noelle_transforms::common::{parallelize, LoopTargetOpts, Parallelizer};

/// Options every registered tool receives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ToolOptions {
    /// Worker/task count for parallelizers and the planner's budget. `None`
    /// leaves each tool its own default: [`LoopTargetOpts`]'s for the
    /// parallelizers, [`PlanOptions`]'s for `plan`.
    pub cores: Option<usize>,
}

impl ToolOptions {
    /// A parallelizer's task count: the caller's, else [`LoopTargetOpts`]'s.
    fn tasks(&self) -> usize {
        self.cores.unwrap_or(LoopTargetOpts::default().workers)
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
    /// `--cores <n>` (default: unset, each tool's own).
    ///
    /// # Errors
    /// A `--cores` value that is not a non-negative integer.
    pub fn from_args(args: &crate::Args) -> Result<ToolInvocation, String> {
        Ok(ToolInvocation {
            name: args.flag_or("tool", "doall").to_string(),
            options: ToolOptions {
                cores: args.flag_number("cores")?,
            },
        })
    }

    /// Parse from wire params: `{"tool": <name>, "cores": <n>?}`.
    ///
    /// # Errors
    /// A missing or non-string `tool` field is an error; `cores` is optional.
    pub fn from_json(params: &Json) -> Result<ToolInvocation, String> {
        let name = params
            .get("tool")
            .and_then(Json::as_str)
            .ok_or("missing 'tool' param")?
            .to_string();
        let cores = params
            .get("cores")
            .and_then(Json::as_i64)
            .map(|c| c as usize);
        Ok(ToolInvocation {
            name,
            options: ToolOptions { cores },
        })
    }

    /// Encode as wire params (the inverse of [`ToolInvocation::from_json`]).
    pub fn to_params(&self) -> Vec<(String, Json)> {
        let mut params = vec![("tool".to_string(), Json::Str(self.name.clone()))];
        if let Some(cores) = self.options.cores {
            params.push(("cores".to_string(), Json::Int(cores as i64)));
        }
        params
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
    run_parallelizer(n, Parallelizer::Doall, o.tasks())
}

fn run_helix(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Helix, o.tasks())
}

fn run_dswp(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Dswp, o.tasks().clamp(2, 4))
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
    Ok(format!("{:?}", tools::prvj::run(n)))
}

fn run_time(n: &mut Noelle, _o: &ToolOptions) -> Result<String, String> {
    Ok(format!("{:?}", tools::time::run(n)))
}

fn run_perspective(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    run_parallelizer(n, Parallelizer::Perspective, o.tasks())
}

fn run_plan(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    let workers = o.cores.unwrap_or(PlanOptions::default().workers);
    let plan = noelle_plan::plan_module(n, &PlanOptions { workers });
    let report = noelle_plan::apply_plan(n, &plan);
    Ok(format!(
        "planned {} of {} loop(s) on {} workers, predicted {:.2}x; applied: {report:?}",
        plan.planned(),
        plan.loops.len(),
        plan.workers,
        plan.predicted_program_speedup()
    ))
}

fn run_autopar(n: &mut Noelle, o: &ToolOptions) -> Result<String, String> {
    // The conservative baseline rebuilds the module rather than editing in
    // place; swap the result back into the manager.
    let m = n.module().clone();
    let (m2, report) = tools::baseline::conservative_parallelize(m, o.tasks());
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

    /// With no `cores` set, `plan` plans for the planner's own default
    /// budget, as `noelle-plan`, the IDE and the benchmark do.
    #[test]
    fn the_plan_tool_defaults_to_the_planners_budget() {
        let w = noelle_workloads::by_name("blackscholes").expect("workload");
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let summary = run_tool(&mut n, "plan", &ToolOptions::default()).unwrap();
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let workers = noelle_plan::plan_module(&mut n, &PlanOptions::default()).workers;
        assert!(
            summary.contains(&format!(" on {workers} workers,")),
            "{summary}"
        );
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
