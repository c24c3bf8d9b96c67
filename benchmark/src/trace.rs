//! Outside-in tracing: spans recorded in the benchmark around each call
//! into a crate's public functions. Nothing under `crates/` knows it is
//! being traced. Spans stay in memory until the run ends.
//!
//! A span is named `<layer>.<what>`, the layer being the crate the call
//! goes into. A layer's *self time* is its span minus the part its child
//! spans cover, so self times of one op add up to the op's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
}

pub struct Tracer {
    /// Off: [`Tracer::span`] just calls through, no clock is read.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    per_op: BTreeMap<&'static str, f64>,
    totals: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            per_op: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Spans recorded from now on belong to the next op.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span called `name`. `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Add `v` to a count taken inside ops, at the boundary where the work
    /// happens; reported per traced op. Dropped while the tracer is off.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.per_op.entry(name).or_default() += v;
        }
    }

    /// Add `v` to a count taken outside ops (set-up, end-of-run probes);
    /// reported as it stands. Dropped while the tracer is off.
    pub fn total(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.totals.entry(name).or_default() += v;
        }
    }

    /// Sum of [`Tracer::count`] under `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.per_op.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of [`Tracer::total`] under `name` (0 if never counted).
    pub fn totalled(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The spans as a JSON array of `{name, start, end, parent, op}`
    /// (times in ns since the first span's tracer was made; `parent` is an
    /// index into the array or -1).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 2);
        s.push('[');
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == NO_PARENT {
                -1
            } else {
                sp.parent as i64
            };
            s.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
                sp.name, sp.start, sp.end, parent, sp.op
            ));
        }
        s.push_str("\n]\n");
        s
    }
}

/// Total self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += ns;
        e.1 += 1;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
        let spans = [
            sp("op", 0, 100, NO_PARENT),
            sp("a", 10, 40, 0),
            sp("c", 20, 30, 1),
            sp("b", 50, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (30, 1), "100 - 30 - 40; the grandchild is a's");
        assert_eq!(t["a"], (20, 1));
        assert_eq!(t["c"], (10, 1));
        assert_eq!(t["b"], (40, 1));
        let total: u64 = t.values().map(|v| v.0).sum();
        assert_eq!(total, 100, "self times add up to the root span");
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = [
            sp("op", 0, 50, NO_PARENT),
            sp("x", 0, 10, 0),
            sp("x", 20, 45, 0),
        ];
        assert_eq!(self_times(&spans)["x"], (35, 2));
    }

    #[test]
    fn tracer_records_the_call_tree_and_nothing_when_off() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("ignored", |_| 7), 7);
        assert!(tr.spans().is_empty());
        tr.on = true;
        tr.next_op();
        tr.span("op", |tr| {
            tr.span("a", |tr| tr.span("c", |_| ()));
            tr.span("b", |_| ());
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("op", NO_PARENT), ("a", 0), ("c", 1), ("b", 0)],
            "parents are the enclosing spans"
        );
        assert!(tr.spans().iter().all(|s| s.op == 1 && s.end >= s.start));
    }
}
