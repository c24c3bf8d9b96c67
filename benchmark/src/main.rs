//! The repo benchmark. One command runs one workload, checks its outputs
//! and prints every metric by name with its unit; the last line of standard
//! output is the result as one JSON object. See `README.md` beside this
//! package for the workloads, the metrics and how they interact.
//!
//! ```text
//! noelle-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! noelle-benchmark aa [--runs N] [--seconds N] [--workload <name>]
//! ```

mod aa;
mod alloc;
mod compile;
mod ide;
mod inputs;
mod measure;
mod probes;
mod report;
mod trace;

use measure::{median, percentile, quiet_mean, Probe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "suite_compile",
    "scale_analyze",
    "scale_transform",
    "ide_session",
];

/// The end-to-end metrics of an untraced run and their units, in the order
/// they are printed.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("allocs_per_op", "count"),
    ("alloc_mb_per_op", "MB"),
    ("peak_heap_mb", "MB"),
    ("sim_speedup_geomean", "x"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Two ops of one run may differ by this share of their allocation count
/// before the run is refused as non-deterministic.
const ALLOC_TOLERANCE: f64 = 0.001;
/// Drift of the machine probe above which a run warns about its host.
const PROBE_TOLERANCE: f64 = 0.15;

/// A workload after set-up: ready to run ops.
pub trait Workload {
    /// One op. Returns a hash of what it produced, or why it failed. Every
    /// op of a run must return the same hash.
    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String>;

    /// Check what an op produced (every op's output hashes the same)
    /// against a reference that does not come from the code under test.
    /// Returns sequential ÷ parallel simulated cycles of the emitted code
    /// (1 where none is emitted).
    fn check_emitted(&mut self, tr: &mut Tracer) -> Result<f64, String>;

    /// End-of-run checks and, in a traced run, per-layer probes that are
    /// not part of an op.
    fn finish(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Stop every thread the set-up started and wait for it.
    fn close(self: Box<Self>) {}
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// This package's directory. `cargo run` tells the program where its
/// manifest is now, which keeps a run inside its checkout even if the
/// checkout moved after it was built; the compiled-in path serves a binary
/// started by hand.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Directory for what a run leaves behind (traces, the store probe).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

pub fn usage() -> String {
    format!(
        "usage: noelle-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n       noelle-benchmark aa [--runs N] [--seconds N] [--workload <name>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 42,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1),
            "--trace" => cfg.trace = number()? != 0,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cfg.workload));
    }
    Ok(cfg)
}

fn set_up(cfg: &Config, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "suite_compile" => Box::new(compile::SuiteCompile::setup(cfg.seed, tr)?),
        "scale_analyze" => Box::new(compile::ScaleAnalyze::setup(cfg.seed)),
        "scale_transform" => Box::new(compile::ScaleTransform::setup(cfg.seed, tr)?),
        _ => Box::new(ide::IdeSession::setup(cfg.seed, tr)?),
    })
}

/// The pre-flight determinism check, which doubles as the warm-up: after
/// one op to settle, two ops must produce the same output and allocate the
/// same amount. A workload that fails this cannot be compared across runs
/// by its counts, so the run stops here instead of reporting numbers that
/// look exact.
fn preflight(w: &mut dyn Workload, tr: &mut Tracer) -> Result<u64, String> {
    w.op(tr)?; // warm-up: lazily built state and cold caches settle here
    let a0 = alloc::snapshot();
    let h1 = w.op(tr)?;
    let a1 = alloc::snapshot();
    let h2 = w.op(tr)?;
    let a2 = alloc::snapshot();
    if h1 != h2 {
        return Err(format!(
            "pre-flight: two ops on the same input produced different outputs \
             ({h1:016x} then {h2:016x}); the workload is not deterministic"
        ));
    }
    let (first, second) = (
        (a1.events - a0.events) as f64,
        (a2.events - a1.events) as f64,
    );
    if (first - second).abs() > ALLOC_TOLERANCE * first.max(second) {
        return Err(format!(
            "pre-flight: two ops on the same input made {first} then {second} allocations, \
             more than {}% apart; allocs_per_op would not repeat",
            ALLOC_TOLERANCE * 100.0
        ));
    }
    Ok(h1)
}

/// One op of the timed loop.
pub struct Sample {
    /// The machine probe, run right before the op, ms.
    pub calib_ms: f64,
    /// Wall time of the op, ms.
    pub wall_ms: f64,
    /// Process CPU time (all threads) during the op, ms.
    pub cpu_ms: f64,
    /// Whether the tracer was on.
    pub traced: bool,
}

/// What the timed loop measured.
pub struct Timed {
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub peak_heap: usize,
}

impl Timed {
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    /// `f` of every op that ran with the tracer on (`traced`) or off.
    pub fn each(&self, traced: bool, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect()
    }

    /// Factor that turns a quiet level measured in this run into what it
    /// would read on the reference host.
    fn to_reference(&self) -> f64 {
        let ticks: Vec<f64> = self.samples.iter().map(|s| s.calib_ms).collect();
        measure::CALIB_REFERENCE_MS / quiet_mean(&ticks)
    }

    /// Wall time of one op when the host leaves it alone, on the reference
    /// host: the quiet level of the untraced ops over that of the probe.
    pub fn op_quiet_ms(&self) -> f64 {
        quiet_mean(&self.each(false, |s| s.wall_ms)) * self.to_reference()
    }

    /// Process CPU time of one op, likewise: mean over the same fastest
    /// quarter of the untraced ops. The kernel does not bill a guest for
    /// time its CPU was taken away, nor a process for time another ran in
    /// its place, so this holds where wall time on a shared guest does not.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let mut plain: Vec<&Sample> = self.samples.iter().filter(|s| !s.traced).collect();
        plain.sort_by(|a, b| a.wall_ms.partial_cmp(&b.wall_ms).expect("times are finite"));
        let quiet = &plain[..(plain.len() / 4).max(1)];
        quiet.iter().map(|s| s.cpu_ms).sum::<f64>() / quiet.len() as f64 * self.to_reference()
    }
}

/// Closed loop, one client: the next op starts when the previous one (and
/// the machine probe between them) ends. In a traced run every other op
/// runs with the tracer on, so traced and untraced ops see the same host
/// and their medians give the overhead.
fn timed_loop(
    cfg: &Config,
    w: &mut dyn Workload,
    tr: &mut Tracer,
    probe: &mut Probe,
    expect: u64,
) -> Timed {
    let mut t = Timed {
        samples: Vec::new(),
        failed: 0,
        first_failure: None,
        allocs: 0,
        alloc_bytes: 0,
        peak_heap: 0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs() < cfg.seconds {
        let calib_ms = probe.tick();
        tr.on = cfg.trace && t.ops() % 2 == 1;
        tr.next_op();
        // The peak is of the ops, not of the probe's blocks between them.
        alloc::reset_peak();
        let (a0, c0, t0) = (alloc::snapshot(), measure::cpu_ms(), Instant::now());
        let result = tr.span("op", |tr| w.op(tr));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (a1, c1) = (alloc::snapshot(), measure::cpu_ms());
        t.allocs += a1.events - a0.events;
        t.alloc_bytes += a1.bytes - a0.bytes;
        t.peak_heap = t.peak_heap.max(a1.peak);
        t.samples.push(Sample {
            calib_ms,
            wall_ms,
            cpu_ms: c1 - c0,
            traced: tr.on,
        });
        let failure = match result {
            Ok(h) if h == expect => None,
            Ok(h) => Some(format!(
                "output hash {h:016x}, first op's was {expect:016x}"
            )),
            Err(e) => Some(e),
        };
        if let Some(f) = failure {
            t.failed += 1;
            t.first_failure.get_or_insert(f);
        }
    }
    tr.on = cfg.trace;
    t
}

/// Probe ticks on each side of a set-up; their quiet level scales it.
const SETUP_TICKS: usize = 4;

/// One whole set-up — inputs, references, daemon start and cold open, and
/// the three pre-flight ops — timed in process CPU seconds and scaled to
/// the reference host by the machine probe on both sides of it.
fn timed_set_up(
    cfg: &Config,
    tr: &mut Tracer,
    probe: &mut Probe,
) -> Result<(Box<dyn Workload>, u64, f64), String> {
    let mut ticks: Vec<f64> = (0..SETUP_TICKS).map(|_| probe.tick()).collect();
    let c0 = measure::cpu_ms();
    let mut w = set_up(cfg, tr)?;
    tr.on = false; // spans and counts of ops belong to the timed loop
    let flown = preflight(w.as_mut(), tr);
    tr.on = cfg.trace;
    let hash = match flown {
        Ok(h) => h,
        Err(e) => {
            w.close();
            return Err(e);
        }
    };
    let cpu_s = (measure::cpu_ms() - c0) / 1e3;
    ticks.extend((0..SETUP_TICKS).map(|_| probe.tick()));
    Ok((
        w,
        hash,
        cpu_s * measure::CALIB_REFERENCE_MS / quiet_mean(&ticks),
    ))
}

fn run(cfg: &Config) -> Result<(), String> {
    // Before anything allocates a thread: the daemon's threads inherit it.
    let cpu = measure::pin_to_one_cpu()?;
    let mut probe = Probe::new();
    let mut tr = Tracer::new();
    tr.on = cfg.trace;

    // Set-up is repeated, because one reading of a one-second quantity is
    // not a measurement. A traced run reports no set-up time and sets up
    // once.
    let mut setup_s = Vec::new();
    let mut ready: Option<(Box<dyn Workload>, u64)> = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        if let Some((w, _)) = ready.take() {
            w.close();
        }
        let (w, hash, s) = timed_set_up(cfg, &mut tr, &mut probe)?;
        setup_s.push(s);
        ready = Some((w, hash));
    }
    let (mut w, hash) = ready.expect("at least one set-up");

    let mut timed = timed_loop(cfg, w.as_mut(), &mut tr, &mut probe, hash);

    // Two more attempted operations: the check of what the ops emitted,
    // and the end-of-run check.
    let attempted = timed.ops() + 2;
    let mut speedup = 1.0;
    match w.check_emitted(&mut tr) {
        Ok(s) => speedup = s,
        Err(e) => {
            timed.failed += 1;
            timed.first_failure.get_or_insert(e);
        }
    }
    if let Err(e) = w.finish(&mut tr) {
        timed.failed += 1;
        timed.first_failure.get_or_insert(e);
    }
    w.close();
    if cfg.trace && cfg.workload == "scale_analyze" {
        probes::pdg_at_10k(cfg.seed, &mut tr);
        probes::store_round_trip(cfg.seed, &mut tr)?;
    }

    if let Some(f) = &timed.first_failure {
        eprintln!("FAILED ({} of {attempted}): {f}", timed.failed);
    }
    if probe.drift() > PROBE_TOLERANCE {
        eprintln!(
            "warning: the machine probe drifted {:.0}% between the thirds of this run; \
             the host was busy and raw times (bench.op_p50_ms) are suspect",
            probe.drift() * 100.0
        );
    }

    let ops = timed.ops() as f64;
    let mb = (1u64 << 20) as f64;
    let metrics = if cfg.trace {
        let path = out_dir().join(format!("trace_{}.json", cfg.workload));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tr.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {} spans -> {}", tr.spans().len(), path.display());
        report::per_layer(&tr, &timed, &probe)
    } else {
        let values = [
            median(&setup_s),
            timed.cpu_ms_per_op(),
            timed.allocs as f64 / ops,
            timed.alloc_bytes as f64 / ops / mb,
            timed.peak_heap as f64 / mb,
            speedup,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    let raw = timed.each(false, |s| s.wall_ms);
    println!(
        "workload {} seed {} trace {} on cpu {cpu}: {} ops in {} s (raw p50 {:.2} ms, p90 {:.2} ms), {} failed; machine probe {:.2} ms, reference {} ms",
        cfg.workload,
        cfg.seed,
        cfg.trace as u8,
        timed.ops(),
        cfg.seconds,
        median(&raw),
        percentile(&raw, 0.9),
        timed.failed,
        median(&probe.ticks_ms),
        measure::CALIB_REFERENCE_MS,
    );
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!("{}", report::result_line(attempted, timed.failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("aa") {
        return aa::main(&args[1..]);
    }
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        // A run that measured and reported is a finished run; whether its
        // outputs were correct is in the result line.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
