//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer's public function:
//! a name (`layer.call`), a start and an end relative to the tracer's epoch,
//! the span that caused it, and the id of the benchmark operation it belongs
//! to. Spans stay in memory and are written out as JSON lines when the run
//! ends. With tracing off nothing is recorded, but every call is still
//! timed, so traced and untraced runs execute the same code.
//!
//! Some child spans stand for work their parent does internally (the
//! cursor drain that models a query's storage share); they are measured by
//! a separate call, so a span's self time is its duration minus the summed
//! durations of its children.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f`, timing it; with tracing on, record it as span `name`.
    /// Returns the result, the elapsed time and the span id (`None` when
    /// nothing was recorded).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, Option<SpanId>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, parent, op, start, end);
        (out, end - start, id)
    }

    /// Record an already-timed interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: at(start),
            end_us: at(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Take another tracer's spans (a worker thread's), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self time of every span named `name`: its duration minus its
    /// children's durations, in microseconds.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut child_sum = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_sum[p] += span.duration_us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.duration_us() - child_sum[i]).max(0.0))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_us, s.end_us, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let d = Duration::from_micros;
        let parent = t.record("query", None, 1, epoch, epoch + d(100));
        t.record("scan", parent, 1, epoch + d(100), epoch + d(160));
        t.record("plan", parent, 1, epoch + d(160), epoch + d(170));
        let own = t.self_times_us("query");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 30.0).abs() < 1e-6, "{own:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, _, id) = t.span("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(id.is_none());
        assert!(t.spans.is_empty());
    }
}
