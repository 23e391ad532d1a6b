//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, workload, iteration}`.
//! Spans are kept in memory and written as JSON lines when the workload
//! ends. A layer's *self time* is its span's duration minus the part of
//! that interval its direct children cover (children running in parallel
//! on sweep workers are merged before subtracting, so overlap is not
//! counted twice).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u32);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, `<module>.<function>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Iteration of the workload the span belongs to (0 = warm-up).
    pub iteration: u32,
}

impl Span {
    /// `end − start` in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times closures and, when recording is on, keeps a [`Span`] for each.
///
/// Timing is always taken (the end-to-end metrics need it); recording
/// only adds the push into the span list, which is the tracing overhead
/// `bench.trace_overhead` measures.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `recording` selects whether spans are kept.
    pub fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(),
            recording,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and its duration in seconds. The
    /// closure receives its own span id (when recording) to hand to the
    /// spans it causes.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        iteration: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        // Reserve the slot first so a parent's id is smaller than its
        // children's and `parent` can be handed down before `f` returns.
        let id = self.recording.then(|| {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                iteration,
            });
            SpanId(spans.len() as u32 - 1)
        });
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            let mut spans = self.spans.lock().expect("no span holder panics");
            let span = &mut spans[id.0 as usize];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// The spans recorded so far, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Per-span self time in nanoseconds, indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(SpanId(p)) = span.parent {
            children
                .entry(p)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&(i as u32)) {
                kids.sort_unstable();
                // Sweep the sorted child intervals, clipped to the parent,
                // adding only the part beyond what is already covered.
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total and self time per span name, in seconds, plus the span count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_s: f64,
    /// Sum of their self times.
    pub self_s: f64,
}

/// Aggregates spans of timed iterations (`iteration ≥ 1`) by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.iteration == 0 {
            continue;
        }
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_s += span.duration_ns() as f64 * 1e-9;
        t.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// Renders the spans as JSON lines (one object per span, `id` = line
/// index), the format of `trace-<workload>.jsonl`.
pub fn render_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |SpanId(p)| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"workload\":\"{workload}\",\"iteration\":{}}}",
            span.name, span.start_ns, span.end_ns, span.iteration
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: parent.map(SpanId),
            iteration: 1,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("iteration", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("cell", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("run", 100, 200, None),
            // Two workers in parallel: union is [110, 170].
            span("cell", 110, 150, Some(0)),
            span("cell", 130, 170, Some(0)),
            // Contained in what is already covered.
            span("cell", 120, 140, Some(0)),
            // Straddles the parent's end: only [190, 200] counts.
            span("cell", 190, 250, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn totals_skip_the_warm_up_iteration() {
        let mut warm = span("run", 0, 1_000, None);
        warm.iteration = 0;
        let spans = [
            warm,
            span("run", 2_000, 5_000, None),
            span("cell", 2_500, 3_500, Some(1)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["run"].count, 1);
        assert!((totals["run"].total_s - 3e-6).abs() < 1e-15);
        assert!((totals["run"].self_s - 2e-6).abs() < 1e-15);
        assert!((totals["cell"].self_s - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn tracer_hands_the_parent_id_down_and_times_even_when_not_recording() {
        let tracer = Tracer::new(true);
        let ((), outer_s) = tracer.scope("outer", None, 1, |outer| {
            tracer.scope("inner", outer, 1, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer_s >= 0.0);

        let quiet = Tracer::new(false);
        let (value, _) = quiet.scope("outer", None, 1, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(value, 7);
        assert!(quiet.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_every_field() {
        let spans = [span("a.b", 1, 2, None), span("c.d", 3, 4, Some(0))];
        let text = render_jsonl(&spans, "w");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"id\":0,\"name\":\"a.b\",\"start_ns\":1,\"end_ns\":2,\"parent\":null,\
             \"workload\":\"w\",\"iteration\":1}"
        );
        assert!(lines[1].contains("\"parent\":0"));
        assert_eq!(lines.len(), 2);
    }
}
