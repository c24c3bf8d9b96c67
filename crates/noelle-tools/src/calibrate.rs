//! The planner's calibration sweep: every planned loop, applied *alone* at
//! its chosen worker count and run on the simulated machine, beside what
//! the planner predicted for it. `noelle-plan --calibrate` prints the
//! table, `results/plan_calibration.txt` is its checked-in reading over
//! [`corpus`], and `tests/plan_subsystem.rs` gates on it: no planned loop
//! may lose, and the predictions may not drift from the machine.

use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::module::Module;
use noelle_plan::{plan_module, PlanOptions};
use noelle_runtime::{run_module, RunConfig};
use std::fmt::Write;

/// One planned loop: the prediction and the measurement of it alone.
/// Cycle columns are totals over the loop's invocations in one run.
#[derive(Debug, Clone)]
pub struct Row {
    /// Module the loop lives in.
    pub module: String,
    /// `function:header` of the loop.
    pub loop_name: String,
    /// Chosen technique.
    pub technique: &'static str,
    /// Chosen worker count.
    pub workers: usize,
    /// Times the loop was dispatched.
    pub invocations: u64,
    /// Predicted cycles from dispatch to join.
    pub predicted: f64,
    /// Simulated cycles from dispatch to join (`dispatch.cycles`).
    pub simulated: u64,
    /// Whole-program cycles the transformed loop saved (negative: lost).
    pub gained: i64,
    /// Of `simulated`, cycles before the last task started.
    pub spawn: u64,
    /// Of `simulated`, cycles between the last child's end and the join.
    pub join: u64,
}

impl Row {
    /// `|predicted − simulated| ÷ simulated`.
    pub fn relative_error(&self) -> f64 {
        (self.predicted - self.simulated as f64).abs() / self.simulated.max(1) as f64
    }
}

/// The calibration corpus: the 41 paper workloads, `pdg_stress`, and the
/// scale module the transform benchmark is shaped after.
pub fn corpus() -> Vec<(String, Module)> {
    let mut modules = noelle_workloads::built_suite();
    let scale = noelle_workloads::scale_module(133, 42);
    modules.push(("scale_module(133,42)".to_string(), scale));
    modules
}

/// Plan `m` and measure every planned loop applied alone.
///
/// # Errors
/// Returns a message when a run fails, a planned loop does not emit, or a
/// transformed module computes something else than its input.
pub fn calibrate(name: &str, m: &Module, opts: &PlanOptions) -> Result<Vec<Row>, String> {
    let run = |m: &Module| {
        run_module(m, "main", &[], &RunConfig::default()).map_err(|e| format!("{name}: {e}"))
    };
    let seq = run(m)?;
    let plan = plan_module(&mut Noelle::new(m.clone(), AliasTier::Full), opts);
    let mut rows = Vec::new();
    for l in &plan.loops {
        let (Some(c), Some(judged)) = (l.chosen_candidate(), &l.judgment) else {
            continue;
        };
        // The recipe the plan was priced on, emitted on a copy of the
        // module it was judged on: what `apply_plan` emits for the loop.
        let mut alone = Noelle::new(m.clone(), AliasTier::Full);
        judged.emit(&mut alone, c.workers).map_err(|e| {
            format!(
                "{name}: planned loop @{}:{} does not emit: {e}",
                l.function, l.header_name
            )
        })?;
        let par = run(&alone.into_module())?;
        if (par.ret, &par.output, par.globals_digest) != (seq.ret, &seq.output, seq.globals_digest)
        {
            return Err(format!(
                "{name}: @{}:{} applied alone changes what the program computes",
                l.function, l.header_name
            ));
        }
        let counter = |key: &str| par.counters.get(key).copied().unwrap_or(0);
        let invocations = counter("tasks") / c.workers as u64;
        rows.push(Row {
            module: name.to_string(),
            loop_name: format!("{}:{}", l.function, l.header_name),
            technique: c.technique.as_str(),
            workers: c.workers,
            invocations,
            predicted: c.predicted_cycles * invocations as f64,
            simulated: counter("dispatch.cycles"),
            gained: seq.cycles as i64 - par.cycles as i64,
            spawn: counter("dispatch.spawn_cycles"),
            join: counter("dispatch.join_cycles"),
        });
    }
    Ok(rows)
}

/// Median and maximum relative error of `rows` (0 when empty).
pub fn error_summary(rows: &[Row]) -> (f64, f64) {
    let mut errs: Vec<f64> = rows.iter().map(Row::relative_error).collect();
    errs.sort_by(f64::total_cmp);
    let median = errs.get(errs.len() / 2).copied().unwrap_or(0.0);
    (median, errs.last().copied().unwrap_or(0.0))
}

/// The table: one line per row, then what the gates read.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<24} {:<5} {:>2} {:>3} {:>10} {:>10} {:>6} {:>8} {:>7} {:>6} {:>9}\n",
        "module",
        "loop",
        "tech",
        "w",
        "inv",
        "predicted",
        "simulated",
        "err%",
        "gained",
        "spawn",
        "join",
        "compute"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:<24} {:<5} {:>2} {:>3} {:>10.0} {:>10} {:>6.1} {:>8} {:>7} {:>6} {:>9}",
            r.module,
            r.loop_name,
            r.technique,
            r.workers,
            r.invocations,
            r.predicted,
            r.simulated,
            100.0 * r.relative_error(),
            r.gained,
            r.spawn,
            r.join,
            r.simulated - r.spawn - r.join
        );
    }
    let (median, max) = error_summary(rows);
    let _ = writeln!(
        out,
        "{} planned loop(s); {} lose; relative error of predicted cycles: median {:.1}%, max {:.1}%",
        rows.len(),
        rows.iter().filter(|r| r.gained < 0).count(),
        100.0 * median,
        100.0 * max
    );
    out
}
