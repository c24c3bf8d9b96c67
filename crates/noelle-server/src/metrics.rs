//! The daemon's one counter registry: per-method request counters and
//! latency histograms, and one fixed table of daemon-wide event counters.
//!
//! The `stats` reply reports, under `requests`, per wire method how many
//! requests ran, how many failed or timed out, and p50/p95/p99 latency.
//! Latencies land in lock-free power-of-two microsecond buckets, so
//! recording from many worker threads never contends; quantiles are read
//! back as the upper bound of the bucket holding the target rank —
//! resolution is a factor of two, which is plenty for tail monitoring.
//! Each [`Counter`] is one relaxed atomic, reported once, in the section
//! of `stats` its name gives.

use noelle_core::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BUCKETS: usize = 40; // 2^39 µs ≈ 6.4 days: effectively unbounded

/// A power-of-two latency histogram (microseconds).
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The latency (µs, bucket upper bound) at quantile `q` in `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }
}

/// Counters for one wire method.
#[derive(Default)]
pub struct MethodMetrics {
    /// Completed requests (ok or error), excluding timeouts.
    pub count: AtomicU64,
    /// Requests answered with an error reply.
    pub errors: AtomicU64,
    /// Requests that missed their deadline.
    pub timeouts: AtomicU64,
    /// Requests shed at admission (full shard queue); no work ran.
    pub sheds: AtomicU64,
    /// Latency of completed requests.
    pub latency: LatencyHistogram,
}

/// How a request ended, for metric accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Replied with `ok`.
    Ok,
    /// Replied with a non-timeout error.
    Error,
    /// Replied with a timeout error.
    Timeout,
    /// Shed at admission with an `overloaded` error before any work ran.
    Shed,
}

/// A daemon-wide event counter: one slot of [`Metrics`]' table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// `audit` requests served.
    AuditRuns,
    /// Loops audited across all runs.
    AuditLoops,
    /// Audited loops with at least one clean technique verdict.
    AuditParallelizable,
    /// Blockers attributed across all runs.
    AuditBlockers,
    /// `plan` requests served.
    PlanRuns,
    /// Loops the planner considered across all runs.
    PlanLoops,
    /// Loops given a technique across all runs.
    PlanPlanned,
    /// Documents opened.
    IdeOpens,
    /// Documents closed.
    IdeCloses,
    /// Diagnostics payloads sent: every `ide/open` and `ide/change` reply
    /// carries one, and every `ide/diagnostics` pull is one.
    IdeDiagPushes,
}

impl Counter {
    /// Every counter, in table order.
    pub const ALL: [Counter; 10] = [
        Counter::AuditRuns,
        Counter::AuditLoops,
        Counter::AuditParallelizable,
        Counter::AuditBlockers,
        Counter::PlanRuns,
        Counter::PlanLoops,
        Counter::PlanPlanned,
        Counter::IdeOpens,
        Counter::IdeCloses,
        Counter::IdeDiagPushes,
    ];

    /// Where `stats` reports the counter: its section and its key there.
    pub fn name(self) -> (&'static str, &'static str) {
        match self {
            Counter::AuditRuns => ("audit", "runs"),
            Counter::AuditLoops => ("audit", "loops"),
            Counter::AuditParallelizable => ("audit", "parallelizable"),
            Counter::AuditBlockers => ("audit", "blockers"),
            Counter::PlanRuns => ("plan", "runs"),
            Counter::PlanLoops => ("plan", "loops"),
            Counter::PlanPlanned => ("plan", "planned"),
            Counter::IdeOpens => ("ide", "opens"),
            Counter::IdeCloses => ("ide", "closes"),
            Counter::IdeDiagPushes => ("ide", "diag_pushes"),
        }
    }
}

/// The daemon-wide metric registry.
#[derive(Default)]
pub struct Metrics {
    methods: Mutex<BTreeMap<String, Arc<MethodMetrics>>>,
    counters: [AtomicU64; Counter::ALL.len()],
}

impl Metrics {
    /// New empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn method(&self, name: &str) -> Arc<MethodMetrics> {
        let mut map = self.methods.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Record one finished request.
    pub fn observe(&self, method: &str, latency: Duration, outcome: Outcome) {
        let m = self.method(method);
        match outcome {
            Outcome::Ok => {
                m.count.fetch_add(1, Ordering::Relaxed);
                m.latency.record(latency);
            }
            Outcome::Error => {
                m.count.fetch_add(1, Ordering::Relaxed);
                m.errors.fetch_add(1, Ordering::Relaxed);
                m.latency.record(latency);
            }
            Outcome::Timeout => {
                m.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            // Shed requests never ran, so they have no latency to record.
            Outcome::Shed => {
                m.sheds.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Add `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The counters `stats` reports in `section`, as that section's
    /// members.
    pub fn section<'a>(&'a self, section: &'a str) -> impl Iterator<Item = (String, Json)> + 'a {
        Counter::ALL
            .into_iter()
            .filter(move |c| c.name().0 == section)
            .map(|c| {
                let n = self.counters[c as usize].load(Ordering::Relaxed);
                (c.name().1.to_string(), Json::Int(n as i64))
            })
    }

    /// Snapshot every method's counters and latency quantiles.
    pub fn to_json(&self) -> Json {
        let map = self.methods.lock().expect("metrics lock");
        let methods = map
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Json::object([
                        (
                            "count".to_string(),
                            Json::Int(m.count.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "errors".to_string(),
                            Json::Int(m.errors.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "timeouts".to_string(),
                            Json::Int(m.timeouts.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "sheds".to_string(),
                            Json::Int(m.sheds.load(Ordering::Relaxed) as i64),
                        ),
                        ("mean_us".to_string(), Json::Int(m.latency.mean_us() as i64)),
                        (
                            "p50_us".to_string(),
                            Json::Int(m.latency.quantile_us(0.50) as i64),
                        ),
                        (
                            "p95_us".to_string(),
                            Json::Int(m.latency.quantile_us(0.95) as i64),
                        ),
                        (
                            "p99_us".to_string(),
                            Json::Int(m.latency.quantile_us(0.99) as i64),
                        ),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::object(methods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_buckets() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket upper bound 128
        }
        h.record(Duration::from_millis(50)); // the tail outlier
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 128);
        assert_eq!(h.quantile_us(0.95), 128);
        assert!(h.quantile_us(1.0) >= 50_000);
        assert!(h.mean_us() >= 100);
    }

    #[test]
    fn outcome_accounting() {
        let m = Metrics::new();
        m.observe("pdg", Duration::from_micros(10), Outcome::Ok);
        m.observe("pdg", Duration::from_micros(10), Outcome::Error);
        m.observe("pdg", Duration::from_micros(10), Outcome::Timeout);
        m.observe("pdg", Duration::from_micros(10), Outcome::Shed);
        let j = m.to_json();
        let pdg = j.get("pdg").unwrap();
        assert_eq!(pdg.get("count").and_then(Json::as_i64), Some(2));
        assert_eq!(pdg.get("errors").and_then(Json::as_i64), Some(1));
        assert_eq!(pdg.get("timeouts").and_then(Json::as_i64), Some(1));
        assert_eq!(pdg.get("sheds").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn each_counter_has_its_own_slot_and_name() {
        let m = Metrics::new();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} is out of table order");
            m.add(c, i as u64 + 1);
        }
        let mut names = std::collections::BTreeSet::new();
        for c in Counter::ALL {
            assert!(names.insert(c.name()), "{:?} is named twice", c.name());
            let (section, key) = c.name();
            let members: Vec<_> = m.section(section).collect();
            let n = c as i64 + 1;
            assert!(members.contains(&(key.to_string(), Json::Int(n))));
        }
    }
}
