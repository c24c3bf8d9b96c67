//! Turns what a run recorded into named metrics and the result line.

use crate::measure::{median, percentile, Probe};
use crate::trace::{self_times, Tracer};
use crate::Timed;

pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of a traced run. Every workload reports every
/// name; a layer a workload never enters reads 0.
///
/// `_ms` values are the layer's *self* time per traced op (or per call,
/// where the name says so); counts are per traced op.
pub fn per_layer(tr: &Tracer, timed: &Timed, probe: &Probe) -> Vec<Metric> {
    let plain_ms = timed.each(false, |s| s.wall_ms);
    let traced_ms = timed.each(true, |s| s.wall_ms);
    let ops = traced_ms.len().max(1) as f64;
    let own = self_times(tr.spans());
    let ns = |name: &str| own.get(name).map_or(0.0, |v| v.0 as f64);
    let calls = |name: &str| own.get(name).map_or(0.0, |v| v.1 as f64);
    // ms of self time per traced op
    let ms = |name: &str| ns(name) / ops / 1e6;
    // ms of self time per span of that name
    let ms_each = |name: &str| ratio(ns(name) / 1e6, calls(name));
    // a count: per traced op when taken inside ops, as it stands otherwise
    let n = |name: &str| tr.counted(name) / ops + tr.totalled(name);

    let op_total: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| (s.end - s.start) as f64)
        .sum();
    let traced_p50 = or_zero(&traced_ms, median);
    let plain_p50 = or_zero(&plain_ms, median);
    let sim_s = (n("runtime.run_seq_ns") + n("runtime.run_par_ns")) / 1e9;
    let ide_op_ms = ms("ide.body_edit") + ms("ide.neutral_edit") + ms("ide.pull");
    let direct_ms = n("ide.direct_ns_per_op") / 1e6;

    vec![
        ("ir.parse_ms", ms("ir.parse"), "ms"),
        (
            "ir.parse_mb_per_s",
            ratio(tr.counted("ir.parse_bytes") / 1e6, ns("ir.parse") / 1e9),
            "MB/s",
        ),
        ("ir.print_ms", ms("ir.print"), "ms"),
        ("ir.verify_ms", ms("ir.verify"), "ms"),
        ("ir.insts_in", n("ir.insts_in"), "count"),
        ("ir.insts_out", n("ir.insts_out"), "count"),
        ("analysis.andersen_ms", ms("analysis.andersen"), "ms"),
        ("analysis.modref_ms", ms("analysis.modref"), "ms"),
        (
            "analysis.andersen_bytes",
            n("analysis.andersen_bytes"),
            "bytes",
        ),
        ("pdg.build_ms", ms("pdg.build"), "ms"),
        (
            "pdg.us_per_func",
            ratio(ns("pdg.build") / 1e3, tr.counted("pdg.funcs")),
            "us",
        ),
        ("pdg.edges", n("pdg.edges"), "count"),
        ("pdg.bytes", n("pdg.bytes"), "bytes"),
        ("pdg.us_per_func_10k", n("pdg.us_per_func_10k"), "us"),
        (
            "core.manager_new_ms",
            ms("core.manager_new") + ms("ir.clone"),
            "ms",
        ),
        ("core.loops_ms", ms("core.loops"), "ms"),
        // Freeing the manager, its analyses and the module when an op ends.
        ("core.teardown_ms", ms("core.teardown"), "ms"),
        ("core.pdg_rebuilds", n("core.pdg_rebuilds"), "count"),
        ("core.pdg_rebuild_ms", n("core.pdg_rebuild_ns") / 1e6, "ms"),
        (
            "core.func_invalidations",
            n("core.func_invalidations"),
            "count",
        ),
        (
            "core.pdg_hit_ratio",
            ratio(
                n("core.pdg_hits"),
                n("core.pdg_hits") + n("core.pdg_misses"),
            ),
            "ratio",
        ),
        ("core.andersen_reuses", n("core.andersen_reuses"), "count"),
        ("lint.audit_ms", ms("lint.audit"), "ms"),
        ("lint.loops_audited", n("lint.loops_audited"), "count"),
        ("lint.blockers", n("lint.blockers"), "count"),
        ("plan.plan_ms", ms("plan.plan") + ms("plan.report"), "ms"),
        ("plan.loops_planned", n("plan.loops_planned"), "count"),
        (
            "plan.predicted_speedup",
            ratio(
                tr.counted("plan.predicted_speedup"),
                tr.counted("plan.modules"),
            ),
            "x",
        ),
        ("transforms.apply_ms", ms("transforms.apply"), "ms"),
        (
            "transforms.ms_per_loop",
            ratio(
                ns("transforms.apply") / 1e6,
                tr.counted("transforms.loops_parallelized"),
            ),
            "ms",
        ),
        (
            "transforms.loops_parallelized",
            n("transforms.loops_parallelized"),
            "count",
        ),
        (
            "transforms.loops_skipped",
            n("transforms.loops_skipped"),
            "count",
        ),
        ("runtime.run_seq_ms", n("runtime.run_seq_ns") / 1e6, "ms"),
        ("runtime.run_par_ms", n("runtime.run_par_ns") / 1e6, "ms"),
        (
            "runtime.minsts_per_s",
            ratio(
                (n("runtime.seq_insts") + n("runtime.par_insts")) / 1e6,
                sim_s,
            ),
            "M/s",
        ),
        (
            "runtime.sim_cycles_seq",
            n("runtime.sim_cycles_seq"),
            "cycles",
        ),
        (
            "runtime.sim_cycles_par",
            n("runtime.sim_cycles_par"),
            "cycles",
        ),
        ("ide.body_edit_ms", ms_each("ide.body_edit"), "ms"),
        ("ide.neutral_edit_ms", ms_each("ide.neutral_edit"), "ms"),
        ("ide.pull_ms", ms_each("ide.pull"), "ms"),
        ("ide.direct_change_ms", direct_ms, "ms"),
        (
            "ide.syntax_repair_ms",
            n("ide.syntax_repair_ns") / 1e6,
            "ms",
        ),
        (
            "ide.reaudited_funcs_per_body_edit",
            n("ide.reaudited_funcs_per_body_edit"),
            "count",
        ),
        (
            "ide.relinted_funcs_per_edit",
            n("ide.relinted_funcs_per_edit"),
            "count",
        ),
        ("ide.full_reparses", n("ide.full_reparses"), "count"),
        ("server.ping_rtt_ms", n("server.ping_rtt_ns") / 1e6, "ms"),
        (
            "server.overhead_ms",
            if direct_ms > 0.0 {
                ide_op_ms - direct_ms
            } else {
                0.0
            },
            "ms",
        ),
        (
            "server.reply_kb_per_op",
            n("server.reply_bytes_per_op") / 1024.0,
            "kB",
        ),
        ("server.sheds", n("server.sheds"), "count"),
        ("server.timeouts", n("server.timeouts"), "count"),
        ("store.writeback_ms", n("store.writeback_ns") / 1e6, "ms"),
        ("store.warm_pdg_ms", n("store.warm_pdg_ns") / 1e6, "ms"),
        (
            "store.hit_ratio",
            ratio(n("store.hits"), n("store.lookups")),
            "ratio",
        ),
        ("store.bytes", n("store.bytes"), "bytes"),
        ("bench.op_quiet_ms", timed.op_quiet_ms(), "ms"),
        // Wall times as the clock read them, bursts included and not
        // scaled to the reference host: what a stopwatch beside this run
        // would have shown.
        ("bench.op_p50_ms", plain_p50, "ms"),
        (
            "bench.op_p90_ms",
            or_zero(&plain_ms, |xs| percentile(xs, 0.9)),
            "ms",
        ),
        (
            "bench.op_min_ms",
            or_zero(&plain_ms, |xs| percentile(xs, 0.0)),
            "ms",
        ),
        ("bench.samples", timed.ops() as f64, "count"),
        ("bench.calib_ms", median(&probe.ticks_ms), "ms"),
        ("bench.peak_rss_mb", crate::measure::peak_rss_mb(), "MB"),
        (
            "bench.trace_overhead_pct",
            ratio(100.0 * (traced_p50 - plain_p50), plain_p50),
            "%",
        ),
        // Share of the traced ops' wall time that lands in a layer's span:
        // what is left is the benchmark's own glue between calls.
        (
            "bench.layer_sum_pct",
            ratio(100.0 * (op_total - ns("op")), op_total),
            "%",
        ),
    ]
}

/// `f(xs)`, or 0 for a run too short to have an op of that kind.
fn or_zero(xs: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        f(xs)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result as one JSON object. `{}` on an `f64` prints the shortest
/// text that reads back as the same number, so every measured digit is
/// there and nothing is rounded.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::json::Json;

    /// `BENCHMARK.json` declares the metric names and units; the program
    /// emits them. One list must not drift from the other.
    #[test]
    fn declared_metrics_are_the_emitted_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            decl.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };

        let sample = |traced| crate::Sample {
            calib_ms: 1.0,
            wall_ms: 1.0,
            cpu_ms: 1.0,
            traced,
        };
        let timed = Timed {
            samples: vec![sample(false), sample(true)],
            failed: 0,
            first_failure: None,
            allocs: 0,
            alloc_bytes: 0,
            peak_heap: 0,
        };
        let mut probe = Probe::new();
        probe.ticks_ms.push(1.0);
        let emitted: Vec<(String, String)> = per_layer(&Tracer::new(), &timed, &probe)
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), emitted);

        let end_to_end: Vec<(String, String)> = crate::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);

        let workloads: Vec<String> = decl
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let line = result_line(10, 0, &[("op_p50_ms", 1.234_567_890_123, "ms")]);
        let v = Json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_i64), Some(10));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(
            m.get("value").and_then(Json::as_f64),
            Some(1.234_567_890_123)
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
