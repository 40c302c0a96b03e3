//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; nothing inside the library is instrumented. A span's
//! name is `<layer>.<call>` (the layer is the crate: `kernels`, `cdag`,
//! `core`, `sim`, `serve`, plus `repro` for the CLI entry paths and
//! `perfbench` for the benchmark's own grouping spans). Spans stay in
//! memory until the run ends and are then written out in one piece.

use crate::stats::median;
use serde::json::Value;
use serde::Serialize as _;
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions per round when pricing a span or a counter update.
const CALIBRATE: usize = 100_000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job or request the span belongs to.
    pub job: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: everything before the first `.` of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span and counter recorder. Single-threaded: spans nest by a stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
    counters: BTreeMap<&'static str, f64>,
    /// Spans opened with [`Tracer::enter`] (the ones the traced code waits
    /// on; [`Tracer::record`] runs after the measured work).
    entered: u64,
    /// Counter updates.
    updates: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            counters: BTreeMap::new(),
            entered: 0,
            updates: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the job id stamped on the spans opened from now on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(id);
        self.entered += 1;
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` — used after a traced call
    /// panicked with spans still open.
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let id = self.stack[self.stack.len() - 1];
            self.exit(id);
        }
    }

    /// Times `f` as one span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = std::hint::black_box(f());
        self.exit(id);
        out
    }

    /// Records a span measured elsewhere (client threads time their own
    /// requests and hand the timestamps over when they finish).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            job: self.job,
        });
        self.spans.len() - 1
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
        self.updates += 1;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds the tracer itself has added to the traced code so far: its
    /// entered spans and counter updates, each priced by [`calibrate`].
    pub fn own_cost_s(&self) -> f64 {
        let (span, update) = calibrate();
        self.entered as f64 * span + self.updates as f64 * update
    }

    /// Whether span `i` lies in the subtree rooted at `root`.
    fn within(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Total seconds per span name over the subtree of `root` (the root
    /// included).
    pub fn sums(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            if self.within(i, root) {
                *out.entry(s.name).or_insert(0.0) += s.secs();
            }
        }
        out
    }

    /// Self seconds per layer over the subtree of `root`: each span's
    /// duration minus the time its direct children cover.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            if self.within(i, root) {
                *out.entry(s.layer()).or_insert(0.0) += (s.secs() - child_secs[i]).max(0.0);
            }
        }
        out
    }

    /// Every span and counter, as written to the run's span file.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::object([
                    ("name", s.name.to_json()),
                    ("start_ns", s.start_ns.to_json()),
                    ("end_ns", s.end_ns.to_json()),
                    ("parent", s.parent.map(|p| p as u64).to_json()),
                    ("job", s.job.to_json()),
                ])
            })
            .collect();
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        );
        Value::object([("spans", Value::Array(spans)), ("counters", counters)])
    }
}

/// Seconds one span (an `enter`/`exit` pair) and one counter update cost,
/// each the median of five rounds of [`CALIBRATE`] repetitions on a
/// scratch tracer.
fn calibrate() -> (f64, f64) {
    let mut span = Vec::new();
    let mut update = Vec::new();
    for _ in 0..5 {
        let mut t = Tracer::default();
        let start = Instant::now();
        for _ in 0..CALIBRATE {
            let id = t.enter("perfbench.calibrate");
            t.exit(id);
        }
        span.push(start.elapsed().as_secs_f64() / CALIBRATE as f64);
        let start = Instant::now();
        for _ in 0..CALIBRATE {
            t.count("perfbench.calibrate", 1.0);
        }
        update.push(start.elapsed().as_secs_f64() / CALIBRATE as f64);
    }
    (median(&span).unwrap_or(0.0), median(&update).unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.enter("perfbench.pass");
        let job = t.enter("repro.analyze");
        t.leaf("core.analyze", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit(job);
        t.exit(root);
        let own = t.self_times(root);
        let sums = t.sums(root);
        assert!(sums["core.analyze"] >= 0.02);
        assert!(own["core"] >= 0.02);
        assert!(own["repro"] < 0.005, "{own:?}");
        let total: f64 = own.values().sum();
        assert!((total - t.spans()[root].secs()).abs() < 1e-6);
    }

    #[test]
    fn own_cost_prices_entered_spans_and_counter_updates_only() {
        let mut t = Tracer::default();
        assert_eq!(t.own_cost_s(), 0.0);
        let now = Instant::now();
        t.record("serve.request", now, now, None);
        assert_eq!(
            t.own_cost_s(),
            0.0,
            "recorded spans cost the traced code nothing"
        );
        t.leaf("core.analyze", || ());
        t.count("core.lower.calls", 1.0);
        let cost = t.own_cost_s();
        assert!(cost > 0.0 && cost < 1e-3, "{cost}");
    }
}
