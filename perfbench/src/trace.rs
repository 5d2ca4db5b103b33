//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer's public functions and kept in memory until the run ends. A
//! span's `parent` names the span its work is attributed to: a layer's
//! self time is its duration minus the durations of the spans that name
//! it as parent. Two kinds of attribution are not nested in time:
//!
//! * the warm entry-point call (`run_ctx`/`evaluate_ctx` on a primed
//!   `EvalCtx`) re-executes every unmemoized layer call of the op, so the
//!   explicit spans of those calls are its children;
//! * `sweep` spans get a synthetic child holding the summed per-point
//!   evaluation time that `SweepRun` reports itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Span names that are layers; every other name (`op`, `sweep.points`)
/// only structures the tree and never counts as self time.
pub const LAYERS: [&str; 13] = [
    "workloads",
    "circuit.parse",
    "circuit.emit",
    "circuit.decompose",
    "circuit.dag",
    "circuit.schedule",
    "cache",
    "ecc",
    "study",
    "experiments",
    "json",
    "sweep",
    "serve",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
    /// On op spans: what the op was, and the latency of the same op run
    /// untraced.
    label: String,
    untraced: Option<Duration>,
}

/// In-memory span store for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
    /// The current op's root span.
    root: Option<usize>,
    /// The default parent of new spans: the root, or a span nested under
    /// it with [`Tracer::nest`].
    parent: Option<usize>,
    /// Exact model counts gathered at the same call sites as the spans.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            root: None,
            parent: None,
            counts: BTreeMap::new(),
        }
    }

    /// Opens the root span of the next op; later spans default to it as
    /// their parent.
    pub fn begin_op(&mut self, label: impl Into<String>) -> usize {
        self.op += 1;
        let now = self.epoch.elapsed();
        let id = self.push("op", now, now, None);
        self.spans[id].label = label.into();
        self.root = Some(id);
        self.parent = Some(id);
        id
    }

    /// Makes `id` the default parent of the op's later spans.
    pub fn nest(&mut self, id: usize) {
        self.parent = Some(id);
    }

    /// Closes the current op's root span, noting the latency of the
    /// same op run untraced (the denominator of `trace.coverage`).
    pub fn end_op(&mut self, untraced: Duration) {
        if let Some(root) = self.root.take() {
            self.spans[root].end = self.epoch.elapsed();
            self.spans[root].untraced = Some(untraced);
        }
        self.parent = None;
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op: self.op,
            label: String::new(),
            untraced: None,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as a span named `name` under the default parent.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.parent;
        self.time_under(name, parent, f)
    }

    /// Runs `f` as a span attributed to `parent`.
    pub fn time_under<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        self.push(name, start, end, parent);
        out
    }

    /// Reserves a span whose interval is filled in later by
    /// [`Tracer::close`]; children may name it as parent meanwhile.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        let parent = self.parent;
        self.push(name, now, now, parent)
    }

    /// Sets the interval of a span reserved with [`Tracer::open`].
    pub fn close(&mut self, id: usize, start: Duration, end: Duration) {
        self.spans[id].start = start;
        self.spans[id].end = end;
    }

    /// The default parent of new spans.
    pub fn parent(&self) -> Option<usize> {
        self.parent
    }

    /// Time since the tracer's epoch, for [`Tracer::close`].
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Records a span of known duration ending now (used for intervals
    /// measured inside the program, such as `SweepRun` job durations).
    pub fn record(&mut self, name: &'static str, parent: Option<usize>, duration: Duration) {
        let end = self.epoch.elapsed();
        self.push(name, end.saturating_sub(duration), end, parent);
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Summed self time per layer, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += dur_ns(span);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(total) = out.get_mut(span.name) {
                *total += dur_ns(span).saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// The spans as JSON lines:
    /// `{"id","name","start_ns","end_ns","parent","op"}`, plus
    /// `"label"` and `"untraced_ns"` on op spans.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let untraced = span.untraced.map_or(String::new(), |d| {
                format!(
                    ",\"label\":\"{}\",\"untraced_ns\":{}",
                    span.label,
                    d.as_nanos()
                )
            });
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}{untraced}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                parent,
                span.op
            );
        }
        out
    }
}

fn dur_ns(span: &Span) -> u64 {
    span.end.saturating_sub(span.start).as_nanos() as u64
}
