//! A tiny in-memory span recorder for the traced run.
//!
//! The ledger records spans from its own code, around the public calls into
//! each layer: name, start, end, the span that caused it, and the id of the
//! operation it belongs to. Spans stay in memory and are written out once,
//! when the run ends. End-to-end metrics never come from a traced run.

use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Value};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name; a layer metric's name where the two correspond.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by all spans of one op.
    pub op: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a span that is never ended records no time"]
pub struct Open(usize);

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin between
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[id].start_ns = self.now_ns();
        Open(id)
    }

    /// Close a span; returns its duration in microseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        span.micros()
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every closed span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0)
            .map(Span::micros)
            .collect()
    }
}

/// Self time of every span, µs: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::micros).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.micros();
        }
    }
    own
}

/// Write the trace as one JSON document: `{"workload": …, "spans": [{name,
/// start_ns, end_ns, parent, op, self_us}, …]}`.
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times_us(spans);
    let rows: Vec<Value> = spans
        .iter()
        .zip(&own)
        .map(|(s, &self_us)| {
            obj([
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| (p as u64).into()),
                ),
                ("op", s.op.into()),
                ("self_us", self_us.into()),
            ])
        })
        .collect();
    let doc = obj([("workload", workload.into()), ("spans", Value::Arr(rows))]);
    std::fs::write(path, doc.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0, 100 µs] with children plan [10, 30] and sweep [30, 90];
        // sweep has a grandchild sink [80, 90].
        let spans = [
            span("op", 0, 100_000, None),
            span("plan", 10_000, 30_000, Some(0)),
            span("sweep", 30_000, 90_000, Some(0)),
            span("sink", 80_000, 90_000, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 20.0, 50.0, 10.0]);
    }

    #[test]
    fn tracer_nests_spans_and_reports_durations_by_name() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("op", 7);
        t.span("step", 7, || std::hint::black_box(1 + 1));
        t.span("step", 7, || std::hint::black_box(2 + 2));
        let total = t.end(outer);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        let steps = t.durations_us("step");
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().sum::<f64>() <= total);
        let own = self_times_us(t.spans());
        assert!(own[0] >= 0.0);
    }
}
