//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written when the run ends. They come from
//! the benchmark's own files only; the program's internal `vtq::prof`
//! spans are copied as totals, not re-recorded here.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within one trace; `ROOT` is "no parent".
pub type SpanId = u32;

/// Parent of top-level spans.
pub const ROOT: SpanId = 0;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name (`gpusim.try_run`, `rtbvh.build`, ...).
    pub name: &'static str,
    /// Unique within the trace, starting at 1.
    pub id: SpanId,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Shared by all spans of one cell / scene / submit.
    pub cell: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; a disabled tracer runs the closure and records nothing,
/// so untraced passes share the traced passes' code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`true`) or only forwards (`false`).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id to parent its own calls with. Safe to call from the
    /// program's worker threads.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        cell: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let value = f(id);
        let end_ns = self.now_ns();
        self.record(Span { name, id, parent, cell, start_ns, end_ns });
        value
    }

    /// Records a span from instants taken elsewhere (inside a client
    /// callback, say) and returns its id, for spans recorded under it.
    pub fn span_between(
        &self,
        name: &'static str,
        parent: SpanId,
        cell: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.record(Span { name, id, parent, cell, start_ns: ns(start), end_ns: ns(end) });
        id
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("a span recorder panicked").push(span);
    }

    /// The spans recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Total duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("a span recorder panicked");
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e9).sum()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children — parallel workers —
/// count once). Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|parent| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == parent.id)
                .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
                .filter(|(start, end)| end > start)
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut reach = parent.start_ns;
            for (start, end) in children {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            parent.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per span (with its self time) to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"cell\":{},\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.id, span.parent, span.cell, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", id, parent, cell: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans =
            [span(1, ROOT, 0, 100), span(2, 1, 10, 40), span(3, 2, 15, 20), span(4, 1, 50, 70)];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 5, 20]);
        // Self times of a properly nested tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two workers run 10..60 and 30..80 under one parent 0..100.
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 10, 60), span(3, 1, 30, 80)];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, ROOT, 10, 20), span(2, 1, 5, 15), span(3, 1, 18, 30)];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn disabled_tracer_forwards_and_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", ROOT, 0, |id| id + 41), 41);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_calls_link_to_their_parent() {
        let tracer = Tracer::new(true);
        tracer.span("outer", ROOT, 7, |outer| tracer.span("inner", outer, 7, |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, ROOT);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
