//! In-memory spans recorded around calls into the library layers.
//!
//! A span has a name (the layer, e.g. `model.parse`), a start and an
//! end, the span that caused it, and the id of the operation it belongs
//! to. Spans stay in memory while the benchmark runs and are written
//! out once at the end. A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// A single-threaded span recorder. When disabled, [`Tracer::span`]
/// only runs its closure, so the same replay code serves the traced and
/// the untraced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Sets the operation id later spans are filed under.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: start,
            end_ns: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Files a span that was timed elsewhere (a client thread of the
    /// service phase) as a root span.
    pub fn push(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent: None,
            op,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for span in &self.spans {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.spans += 1;
            entry.total_ms += dur as f64 / 1e6;
            entry.self_ms += dur.saturating_sub(child_ns[span.id]) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// A fixed-width self-time table, one row per layer, sorted by self
    /// time (largest first). `ops` normalizes the per-operation column.
    pub fn table(&self, ops: u64) -> String {
        let mut rows: Vec<(&'static str, LayerTime)> = self.layers().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
        let total_self: f64 = rows.iter().map(|(_, l)| l.self_ms).sum();
        let mut out = format!(
            "{:<24} {:>8} {:>12} {:>12} {:>12} {:>7}\n",
            "layer", "spans", "total_ms", "self_ms", "self_ms/op", "share"
        );
        for (name, l) in rows {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12.3} {:>12.3} {:>12.4} {:>6.1}%",
                name,
                l.spans,
                l.total_ms,
                l.self_ms,
                l.self_ms / ops.max(1) as f64,
                100.0 * l.self_ms / total_self.max(1e-12)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let layers = t.layers();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert!(outer.total_ms >= inner.total_ms);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
        assert!(inner.self_ms >= 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.layers().is_empty());
    }
}
