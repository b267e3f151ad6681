//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out once, at the
//! end, as JSON lines in the schema `epplan report` reads (`ts`, `id`,
//! `parent`, `span`, `dur_us`), plus an `op` key that the spans of one
//! op (or one solve) share.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use epplan_obs::OwnedTraceEvent;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Event {
    /// Start, in nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Unique span id (> 0).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer name.
    pub span: &'static str,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The op (or solve) this span belongs to.
    pub op: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    events: Vec<Event>,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            events: Vec::new(),
        }
    }

    /// Reserves a span id, so children can name a parent that is
    /// recorded after them.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records the span `[start, end)` under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        parent: Option<u64>,
        span: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        self.events.push(Event {
            ts_ns: nanos(start.saturating_duration_since(self.epoch)),
            id,
            parent,
            span,
            dur_ns: nanos(end.saturating_duration_since(start)),
            op,
        });
    }

    /// Runs `f` as a span named `span` under `parent`, returning its
    /// result and duration in seconds.
    pub fn time<T>(
        &mut self,
        parent: Option<u64>,
        span: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.id();
        self.record_as(id, parent, span, op, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Every span recorded so far, in completion order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Durations in seconds of every span named `span`.
    pub fn durations(&self, span: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.span == span)
            .map(|e| e.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// The spans as `epplan-obs` events, for its self-time analysis.
    pub fn owned(&self) -> Vec<OwnedTraceEvent> {
        self.events
            .iter()
            .map(|e| OwnedTraceEvent {
                ts_us: e.ts_ns / 1000,
                id: e.id,
                parent: e.parent,
                span: e.span.to_string(),
                dur_us: e.dur_ns / 1000,
                iters: 0,
                mem_peak_delta: 0,
                alloc_calls: 0,
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for e in &self.events {
            let parent = e
                .parent
                .map_or(String::new(), |p| format!("\"parent\":{p},"));
            writeln!(
                out,
                "{{\"ts\":{},\"id\":{},{parent}\"span\":\"{}\",\"dur_us\":{},\"op\":{}}}",
                e.ts_ns / 1000,
                e.id,
                e.span,
                e.dur_ns / 1000,
                e.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_reserved_parent() {
        let mut tr = Tracer::new();
        let root = tr.id();
        let start = Instant::now();
        let (v, _) = tr.time(Some(root), "child", 7, || 41 + 1);
        tr.record_as(root, None, "root", 7, start, Instant::now());
        assert_eq!(v, 42);
        let rows = epplan_obs::self_time(&tr.owned());
        assert_eq!(rows.len(), 2);
        assert!(tr.events().iter().all(|e| e.op == 7));
        assert_eq!(tr.events()[0].parent, Some(root));
    }
}
