//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent, and a request id for serving), kept in memory
//! and written once when the run ends: a Chrome trace-event file and an
//! aggregated per-name table with self time. A disabled recorder records
//! nothing, so the untraced run pays one branch per call site.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// `layer.operation` name.
    pub name: String,
    /// Start, in nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// Thread lane for the trace viewer.
    pub lane: u64,
    /// Request id shared by the spans of one serving request.
    pub request: Option<u64>,
}

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

fn current_lane() -> u64 {
    LANE.with(|lane| {
        if lane.get() == 0 {
            lane.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        lane.get()
    })
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id before the span ends, so children recorded
    /// inside it can name it as their parent. Returns 0 when disabled.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a reserved id (see
    /// [`Tracer::reserve`]) on an explicit lane.
    #[allow(clippy::too_many_arguments)]
    pub fn record_on(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        lane: u64,
        request: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            lane,
            request,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own spans.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_on(
            id,
            name,
            parent,
            start,
            Instant::now(),
            current_lane(),
            None,
        );
        out
    }

    /// Takes the recorded spans, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Aggregated timings of all spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Summed self time: each span's duration minus the part of it that
    /// its child spans cover.
    pub self_time: Duration,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-name totals with self time, in name order.
pub fn aggregate(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total += Duration::from_nanos(dur);
        t.self_time += Duration::from_nanos(own);
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`,
/// with `metadata` (already-rendered JSON object members) attached.
pub fn chrome_trace(spans: &[Span], metadata: &str) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let mut args = format!("\"id\": {}", s.id);
            if let Some(p) = s.parent {
                args.push_str(&format!(", \"parent\": {p}"));
            }
            if let Some(r) = s.request {
                args.push_str(&format!(", \"request\": {r}"));
            }
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
                json_str(&s.name),
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"metadata\": {{{metadata}}}, \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// The aggregated table as aligned text.
pub fn table(totals: &BTreeMap<String, SpanTotals>, header: &str) -> String {
    let mut out = format!(
        "# {header}\n{:<48} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in totals {
        out.push_str(&format!(
            "{:<48} {:>8} {:>12.3} {:>12.3}\n",
            name,
            t.count,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, s, e| Span {
            id,
            parent,
            name: format!("s{}", if parent.is_some() { 1 } else { 0 }),
            start_ns: s,
            end_ns: e,
            lane: 1,
            request: None,
        };
        // Parent 0..100 with overlapping children 10..40 and 30..50 and a
        // child running past the parent's end.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let totals = aggregate(&spans);
        assert_eq!(totals["s0"].self_time, Duration::from_nanos(100 - 40 - 10));
        assert_eq!(totals["s1"].count, 3);
        assert_eq!(totals["s1"].self_time, Duration::from_nanos(30 + 20 + 30));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, |id| id), 0);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", None, |id| t.span("inner", Some(id), |inner| inner));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans.iter().find(|s| s.id == inner).unwrap().parent,
            Some(1)
        );
        assert!(chrome_trace(&spans, "\"k\": 1").contains("\"parent\": 1"));
    }
}
