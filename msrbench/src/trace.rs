//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions; nothing inside the crates is instrumented. Each span has a
//! name, start, end, parent and op id. They stay in memory until the run
//! ends and are then written as Chrome trace-event JSON, with each span's
//! self time (its duration minus the part covered by its children).
//! With tracing off a span is a plain call: no clock read, no lock.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::percentile;

/// Index of a recorded span, used as the parent of nested spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    op: u64,
    tid: u32,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the lock")
    }

    /// Runs `f` inside a span named `name` that belongs to op `op` on
    /// thread `tid`. `f` receives the span's id to pass as the parent of
    /// nested spans (`None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        tid: u32,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                op,
                tid,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            SpanId(spans.len() - 1)
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.lock()[id.0].end_ns = end_ns;
        out
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Median duration in ms of the spans named `name` (0 if none).
    pub fn p50_ms(&self, name: &str) -> f64 {
        percentile(&self.durations_ms(name), 0.5)
    }

    /// Self time in ns of every span: its duration minus the union of
    /// its children's intervals.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(SpanId(p)) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Chrome trace-event JSON of every recorded span (complete `X`
    /// events; `ts`/`dur` in µs). `args` carries the op id, the parent
    /// span index and the self time.
    pub fn chrome_json(&self) -> String {
        let spans = self.lock();
        let selfs = Self::self_times(&spans);
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or(-1, |SpanId(p)| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"op\": {}, \"parent\": {parent}, \
                 \"self_us\": {:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                *self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert!(t.span("x", 0, 0, None, |p| p.is_none()));
        assert!(t.durations_ms("x").is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "op",
                op: 0,
                tid: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 0,
                tid: 0,
                parent: Some(SpanId(0)),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                op: 0,
                tid: 0,
                parent: Some(SpanId(0)),
                start_ns: 30,
                end_ns: 60,
            },
        ];
        assert_eq!(Tracer::self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn nested_spans_link_to_parent() {
        let t = Tracer::new(true);
        t.span("op", 7, 0, None, |p| t.span("child", 7, 0, p, |_| ()));
        let json = t.chrome_json();
        assert!(json.contains("\"name\": \"child\""));
        assert!(json.contains("\"op\": 7, \"parent\": 0"));
    }
}
