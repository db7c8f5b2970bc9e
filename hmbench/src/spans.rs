//! The benchmark's own tracer: spans recorded around calls into each layer,
//! kept in memory and written out once when the run ends.
//!
//! Nothing here reaches into the crates under test — a span brackets one
//! public call from the outside, so its duration includes everything the
//! call does. A span's *self time* is its duration minus the part covered
//! by its direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Name of the span that brackets one whole op in a traced replay; its
/// self time is the op's wall time not attributed to any layer span.
pub const OP: &str = "bench.op";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `som.train`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

/// An in-memory span recorder. Spans nest by call structure: a span opened
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: RefCell<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: RefCell::default(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new op id; spans recorded from here on carry it.
    pub fn begin_op(&self) -> usize {
        let mut s = self.state.borrow_mut();
        s.op += 1;
        s.op
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let idx = {
            let mut s = self.state.borrow_mut();
            let idx = s.spans.len();
            let (parent, op) = (s.open.last().copied(), s.op);
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            s.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.open.pop();
        s.spans[idx].end_ns = end_ns;
        out
    }

    /// Every span's self time in milliseconds, by span index.
    fn self_ms(&self) -> Vec<f64> {
        let s = self.state.borrow();
        let mut own: Vec<f64> = s.spans.iter().map(Span::ms).collect();
        for span in &s.spans {
            if let Some(p) = span.parent {
                own[p] -= span.ms();
            }
        }
        own
    }

    /// Per op, the summed self time of every span name, in milliseconds.
    fn self_ms_by_op(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let own = self.self_ms();
        let s = self.state.borrow();
        let mut by_op: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, ms) in s.spans.iter().zip(own) {
            *by_op
                .entry(span.op)
                .or_default()
                .entry(span.name)
                .or_default() += ms;
        }
        by_op
    }

    /// Median over replayed ops (ops holding an [`OP`] span) of the summed
    /// self time of spans named `name`; `0` for a layer the ops never
    /// call.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let per_op: Vec<f64> = self
            .self_ms_by_op()
            .values()
            .filter(|names| names.contains_key(OP))
            .map(|names| names.get(name).copied().unwrap_or(0.0))
            .collect();
        stats::median(&per_op).unwrap_or(0.0)
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let s = self.state.borrow();
        s.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median over replayed ops of the share (percent) of the [`OP`]
    /// span's wall time covered by its direct children.
    pub fn span_coverage_pct(&self) -> f64 {
        let own = self.self_ms();
        let s = self.state.borrow();
        let shares: Vec<f64> = s
            .spans
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.name == OP && span.end_ns > span.start_ns)
            .map(|(span, unattributed)| 100.0 * (1.0 - unattributed / span.ms()))
            .collect();
        stats::median(&shares).unwrap_or(0.0)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let s = self.state.borrow();
        let mut out = String::new();
        for span in &s.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let tr = Tracer::default();
        tr.begin_op();
        tr.span(OP, || {
            tr.span("a.x", || {
                tr.span("b.y", || {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                });
            });
        });
        let s = tr.state.borrow();
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(1));
        assert!(s.spans.iter().all(|span| span.op == 1));
        drop(s);
        assert!(tr.median_self_ms("b.y") >= 4.0);
        assert!(tr.median_self_ms("a.x") < tr.median_self_ms("b.y"));
        assert_eq!(tr.median_self_ms("c.z"), 0.0);
        let cover = tr.span_coverage_pct();
        assert!(cover > 50.0 && cover <= 100.0, "{cover}");
    }
}
