//! `noelle-benchmark aa`: does the benchmark agree with itself?
//!
//! Two sets of runs of the same build, alternating (A1 B1 A2 B2 …) so both
//! sets see the same drift of the host, seeds 1..=runs in both. For every
//! end-to-end metric of every workload it prints both medians, their
//! relative difference against the bound `BENCHMARK.json` declares, and
//! the quartile spread of each set (Q3 − Q1 as a share of the median, the
//! quartiles as Python's `statistics.quantiles(values, n=4)` gives them).
//! Exits non-zero when a difference exceeds its bound, when a spread does
//! (`setup_s` excepted: one run holds five set-ups, not a hundred ops),
//! or when a run failed. A spread above a third of its bound is marked
//! `wide`: inside the bound today, with little room for a busier host.

use crate::measure::{median, sorted};
use noelle_core::json::Json;
use std::process::{Command, ExitCode};

/// Quartiles by the "exclusive" method (Python's default): the i-th of
/// n−1 cut points sits at position i·(m+1)/n of the sorted sample.
fn quartile_spread(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let m = v.len();
    let cut = |i: usize| {
        let pos = (i * (m + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, m - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (cut(3) - cut(1)) / median(&v)
}

struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared() -> Result<(Vec<Declared>, u64), String> {
    let path = crate::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let decl = Json::parse(&text).ok_or("BENCHMARK.json is not JSON")?;
    let metrics = decl
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry")?;
    let seconds = decl
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    Ok((metrics, seconds))
}

/// One run in a child process: its own allocator counts, its own peak RSS.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match Json::parse(last) {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!(
            "{workload} seed {seed}: run failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let (metrics, mut seconds) = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = 10u64;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        match (flag.as_str(), value.parse::<u64>()) {
            ("--runs", Ok(n)) if n >= 2 => runs = n,
            ("--seconds", Ok(n)) if n >= 1 => seconds = n,
            ("--workload", _) if crate::WORKLOADS.contains(&value.as_str()) => only = Some(value),
            _ => {
                eprintln!("aa: bad argument '{flag} {value}'\n{}", crate::usage());
                return ExitCode::from(2);
            }
        }
    }

    let mut beyond = 0;
    println!(
        "A/A: 2 sets x {runs} runs x {seconds} s per workload, seeds 1..={runs}, alternating\n\n\
         | workload | metric | median A | median B | diff | bound | spread A | spread B | |\n\
         |---|---|---|---|---|---|---|---|---|"
    );
    for workload in crate::WORKLOADS {
        if only.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for seed in 1..=runs {
            for set in &mut sets {
                match one_run(workload, seed, seconds) {
                    Ok(v) => {
                        if v.get("correct") != Some(&Json::Bool(true)) {
                            eprintln!("{workload} seed {seed}: outputs were not correct");
                            beyond += 1;
                        }
                        set.push(v);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
        for d in &metrics {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter()
                    .filter_map(|v| v.get("metrics")?.get(&d.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            // How much worse B reads than A, as a share of A.
            let worse = if d.lower_is_better { mb - ma } else { ma - mb } / ma;
            let spread = quartile_spread(&a).max(quartile_spread(&b));
            let gated = d.name != "setup_s";
            let verdict = if worse.abs() > d.bound || (gated && spread > d.bound) {
                beyond += 1;
                "BEYOND"
            } else if gated && spread > d.bound / 3.0 {
                "wide"
            } else {
                "ok"
            };
            println!(
                "| {workload} | {} | {ma:.4} | {mb:.4} | {:+.2}% | {:.0}% | {:.2}% | {:.2}% | {verdict} |",
                d.name,
                worse * 100.0,
                d.bound * 100.0,
                quartile_spread(&a) * 100.0,
                quartile_spread(&b) * 100.0,
            );
        }
    }
    if beyond > 0 {
        eprintln!("{beyond} differences or spreads beyond their bound, or incorrect runs");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::quartile_spread;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }
}
