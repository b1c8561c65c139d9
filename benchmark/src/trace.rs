//! In-memory spans for the traced replica run.
//!
//! One span per stage: `{name, start_ns, end_ns, parent, request_id}`.
//! Spans are kept in memory while the replica runs and written out once
//! at the end. A stage's **self time** is its span minus the part its
//! child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One timed stage of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`layer.stage`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request_id: u64,
}

impl Span {
    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans (so recording does not
    /// reallocate inside a timed parent).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request_id: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, request_id });
        // Stamped after the push so the bookkeeping is outside the span.
        let now = self.now_ns();
        self.spans[id as usize].start_ns = now;
        id
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Time `f` as a leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request_id);
        let r = f();
        self.close(id);
        r
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's durations
/// (children lie inside their parent, so this never underflows for spans
/// recorded through [`Tracer`]; saturating for safety on foreign input).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-stage samples grouped by an arbitrary key (the request's plan
/// signature), so a stage whose cost depends on the signature can be
/// summarised without the mix's modes fighting over one median.
#[derive(Default)]
pub struct StageSamples {
    by_stage: HashMap<&'static str, HashMap<u64, Vec<f64>>>,
}

impl StageSamples {
    /// Record one sample (nanoseconds) of `stage` for group `key`.
    pub fn push(&mut self, stage: &'static str, key: u64, ns: f64) {
        self.by_stage.entry(stage).or_default().entry(key).or_default().push(ns);
    }

    /// The typical cost of `stage` in nanoseconds: the median within each
    /// group, averaged over groups weighted by their sample counts — "the
    /// cost of a request drawn from the mix", robust to outliers inside a
    /// group. `0.0` for a stage that never ran.
    pub fn typical_ns(&self, stage: &str) -> f64 {
        let Some(groups) = self.by_stage.get(stage) else { return 0.0 };
        let total: usize = groups.values().map(Vec::len).sum();
        groups.values().map(|v| median(v) * v.len() as f64).sum::<f64>() / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 100, None),
            span("cache.lookup", 10, 70, Some(0)),
            span("plan.compile", 20, 60, Some(1)),
            span("plan.execute", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [15, 20, 40, 25]);
    }

    #[test]
    fn tracer_nests_children_inside_parents() {
        let mut t = Tracer::with_capacity(4);
        let root = t.open("request", None, 9);
        let got = t.leaf("stage", Some(root), 9, || 41 + 1);
        t.close(root);
        assert_eq!(got, 42);
        let [r, s] = t.spans() else { panic!("two spans") };
        assert!(r.start_ns <= s.start_ns && s.end_ns <= r.end_ns);
        assert_eq!((s.parent, s.request_id, s.name), (Some(0), 9, "stage"));
        assert_eq!(self_times_ns(t.spans())[0], r.duration_ns() - s.duration_ns());
    }

    #[test]
    fn typical_weights_group_medians_by_count() {
        let mut s = StageSamples::default();
        for ns in [10.0, 10.0, 1000.0] {
            s.push("exec", 1, ns); // median 10, weight 3
        }
        s.push("exec", 2, 50.0); // median 50, weight 1
        assert_eq!(s.typical_ns("exec"), (10.0 * 3.0 + 50.0) / 4.0);
        assert_eq!(s.typical_ns("absent"), 0.0);
    }
}
