//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans nest by call
//! order: the parent is whatever span was open when this one was entered.
//! A disabled tracer takes no timestamps, so the untraced rounds that
//! produce the end-to-end numbers pay one branch per call site.
//!
//! Spans are recorded only from this package's own files, around calls
//! into public functions; spans inside `Fleet::step` or `Sim::run_until`
//! are a later change (ROADMAP item 1).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans below these two roots are pooled into the per-layer timings;
/// `warm` spans stay in the trace file but out of the statistics.
pub const MEASURE: &str = "measure";
pub const PROBE: &str = "probe";
pub const WARM: &str = "warm";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Churn event index, plan request index, or slice index.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let end = self.now_ns();
            self.spans[i as usize].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close in LIFO order");
        }
    }

    /// Closes the span under the name its outcome decided (a cache lookup
    /// is a hit or a miss only once it returns).
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(i) = id.0 {
            self.spans[i as usize].name = name;
        }
        self.exit(id);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap each other (one thread, LIFO).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Which spans sit below a [`MEASURE`] or [`PROBE`] root (inclusive).
/// Parents precede their children, so one forward pass decides.
pub fn pooled(spans: &[Span]) -> Vec<bool> {
    let mut keep = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        keep[i] = s.name == MEASURE
            || s.name == PROBE
            || (s.parent != NO_PARENT && keep[s.parent as usize]);
    }
    keep
}

/// Pooled span durations by name, each list sorted ascending.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let keep = pooled(spans);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, k) in spans.iter().zip(keep) {
        if k {
            out.entry(s.name).or_default().push(s.dur_ns());
        }
    }
    for v in out.values_mut() {
        v.sort_unstable();
    }
    out
}

/// Writes the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    writeln!(
        w,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"e2ebench {workload}\"}}}}"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.req,
            own[i] as f64 / 1e3,
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(MEASURE, 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        // measure: 100 - (30 + 40); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times always add back up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn only_spans_below_measure_or_probe_are_pooled() {
        let spans = vec![
            span("round", 0, 100, NO_PARENT),
            span(WARM, 0, 20, 0),
            span("x", 5, 10, 1),
            span(MEASURE, 20, 80, 0),
            span("x", 30, 37, 3),
            span(PROBE, 80, 100, 0),
            span("x", 85, 88, 5),
        ];
        assert_eq!(
            pooled(&spans),
            vec![false, false, false, true, true, true, true]
        );
        let by = durations_by_name(&spans);
        assert_eq!(by["x"], vec![3, 7]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false, Instant::now());
        let id = off.enter("a", 1);
        off.exit(id);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(true, Instant::now());
        let a = on.enter("a", 7);
        let b = on.enter("b", 8);
        on.exit_as(b, "b.hit");
        on.exit(a);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[0].req), (NO_PARENT, 7));
        assert_eq!((spans[1].parent, spans[1].name), (0, "b.hit"));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
