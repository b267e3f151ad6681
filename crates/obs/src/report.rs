//! Offline trace analysis: turns a recorded JSONL span stream (the
//! PR-2 trace format) into chrome://tracing (Perfetto) JSON, a
//! per-stage self-time cost table, and critical-path attribution.
//!
//! The analyzer operates on [`OwnedTraceEvent`]s, so it serves both
//! the `epplan report` subcommand (events parsed back from a
//! `--trace` file) and in-process tests via [`CollectingSink`].
//!
//! [`CollectingSink`]: crate::CollectingSink

use std::collections::BTreeMap;

use crate::json_escape;
use crate::sink::OwnedTraceEvent;

/// Renders events as a chrome://tracing / Perfetto "complete event"
/// (`ph:"X"`) JSON document. Timestamps and durations are microseconds
/// (the native Perfetto unit); span ids and parent links ride along in
/// `args` so the original tree is recoverable in the viewer.
pub fn perfetto_json(events: &[OwnedTraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"iters\":{},\"mem_peak_bytes\":{},\"alloc_calls\":{}}}}}",
            json_escape(&e.span),
            e.ts_us,
            e.dur_us,
            e.id,
            e.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            e.iters,
            e.mem_peak_delta,
            e.alloc_calls
        ));
    }
    out.push_str("]}");
    out
}

/// One row of the per-stage self-time table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub calls: u64,
    /// Total (inclusive) microseconds across all calls.
    pub total_us: u64,
    /// Self microseconds: inclusive time minus time attributed to
    /// direct children, clamped at zero per span.
    pub self_us: u64,
    /// Total iterations attached to these spans.
    pub iters: u64,
}

/// Aggregates self-time per span name. Self time of a span is its
/// duration minus the summed durations of its *direct* children (by
/// `parent` id), clamped at zero — the standard flame-graph exclusive
/// time. Rows are sorted by descending self time, then name.
pub fn self_time(events: &[OwnedTraceEvent]) -> Vec<SelfTimeRow> {
    let mut child_dur: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if let Some(p) = e.parent {
            *child_dur.entry(p).or_insert(0) += e.dur_us;
        }
    }
    let mut rows: BTreeMap<&str, SelfTimeRow> = BTreeMap::new();
    for e in events {
        let own = e
            .dur_us
            .saturating_sub(child_dur.get(&e.id).copied().unwrap_or(0));
        let row = rows.entry(e.span.as_str()).or_insert_with(|| SelfTimeRow {
            name: e.span.clone(),
            calls: 0,
            total_us: 0,
            self_us: 0,
            iters: 0,
        });
        row.calls += 1;
        row.total_us += e.dur_us;
        row.self_us += own;
        row.iters += e.iters;
    }
    let mut rows: Vec<SelfTimeRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Renders the self-time table for terminal output.
pub fn render_self_time(rows: &[SelfTimeRow], top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>7} {:>12} {:>12} {:>6} {:>12}\n",
        "stage", "calls", "self", "total", "self%", "iters"
    ));
    let grand: u64 = rows.iter().map(|r| r.self_us).sum();
    for r in rows.iter().take(top.max(1)) {
        let pct = if grand > 0 {
            100.0 * r.self_us as f64 / grand as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<26} {:>7} {:>10}µs {:>10}µs {:>5.1}% {:>12}\n",
            r.name, r.calls, r.self_us, r.total_us, pct, r.iters
        ));
    }
    if rows.len() > top {
        out.push_str(&format!("  … {} more stages\n", rows.len() - top));
    }
    out
}

/// One row of critical-path attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathRow {
    /// Span name.
    pub name: String,
    /// Times this name appeared on a critical path.
    pub on_path: u64,
    /// Microseconds this name contributed as path *self* time (node
    /// duration minus the durations of its children on the path).
    pub self_us: u64,
}

/// The children of one span that lie on its critical path: the chain
/// of pairwise non-overlapping children with the largest summed
/// duration (weighted interval scheduling over `[ts, ts + dur)`).
/// Sequential children are all on it; of children that overlap (work
/// fanned out in parallel), only the heaviest chain is. Ties prefer
/// taking a child, so the choice is deterministic.
fn path_children<'a>(kids: &[&'a OwnedTraceEvent]) -> Vec<&'a OwnedTraceEvent> {
    let mut by_end: Vec<&OwnedTraceEvent> = kids.to_vec();
    by_end.sort_by_key(|e| (e.ts_us + e.dur_us, e.ts_us, e.id));
    // best[i]: heaviest chain among the first i children by end time.
    let mut best = vec![0u64; by_end.len() + 1];
    let mut take = vec![false; by_end.len()];
    // prev[i]: how many children end no later than child i starts.
    let mut prev = vec![0usize; by_end.len()];
    for (i, e) in by_end.iter().enumerate() {
        prev[i] = by_end[..i].partition_point(|p| p.ts_us + p.dur_us <= e.ts_us);
        let with = e.dur_us + best[prev[i]];
        take[i] = with >= best[i];
        best[i + 1] = with.max(best[i]);
    }
    let mut chosen = Vec::new();
    let mut i = by_end.len();
    while i > 0 {
        if take[i - 1] {
            chosen.push(by_end[i - 1]);
            i = prev[i - 1];
        } else {
            i -= 1;
        }
    }
    chosen.reverse();
    chosen
}

/// Critical-path attribution per operation: for every root span (no
/// parent), descends into the children on its critical path (see
/// [`path_children`]: every child of a sequential pipeline, the
/// heaviest chain of parallel ones) and charges each node its path
/// self time — its duration minus that of its on-path children.
/// Aggregated by name, sorted by descending contribution — "where does
/// the wall clock of a typical op go?".
pub fn critical_path(events: &[OwnedTraceEvent]) -> Vec<CriticalPathRow> {
    let mut children: BTreeMap<u64, Vec<&OwnedTraceEvent>> = BTreeMap::new();
    let mut roots: Vec<&OwnedTraceEvent> = Vec::new();
    for e in events {
        match e.parent {
            Some(p) => children.entry(p).or_default().push(e),
            None => roots.push(e),
        }
    }
    roots.sort_by_key(|e| e.id);
    let mut agg: BTreeMap<&str, CriticalPathRow> = BTreeMap::new();
    let mut stack: Vec<&OwnedTraceEvent> = roots.into_iter().rev().collect();
    while let Some(node) = stack.pop() {
        let on_path = children
            .get(&node.id)
            .map_or_else(Vec::new, |kids| path_children(kids));
        let child_dur: u64 = on_path.iter().map(|c| c.dur_us).sum();
        let row = agg.entry(node.span.as_str()).or_insert_with(|| CriticalPathRow {
            name: node.span.clone(),
            on_path: 0,
            self_us: 0,
        });
        row.on_path += 1;
        row.self_us += node.dur_us.saturating_sub(child_dur);
        stack.extend(on_path.into_iter().rev());
    }
    let mut rows: Vec<CriticalPathRow> = agg.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Renders critical-path rows for terminal output.
pub fn render_critical_path(rows: &[CriticalPathRow], top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>8} {:>12}\n",
        "critical-path stage", "on-path", "self"
    ));
    for r in rows.iter().take(top.max(1)) {
        out.push_str(&format!(
            "{:<26} {:>8} {:>10}µs\n",
            r.name, r.on_path, r.self_us
        ));
    }
    if rows.len() > top {
        out.push_str(&format!("  … {} more stages\n", rows.len() - top));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: Option<u64>, span: &str, ts: u64, dur: u64) -> OwnedTraceEvent {
        OwnedTraceEvent {
            ts_us: ts,
            id,
            parent,
            span: span.to_string(),
            dur_us: dur,
            iters: 0,
            mem_peak_delta: 0,
            alloc_calls: 0,
        }
    }

    // root(100) -> a(60) -> a1(50), root -> b(30)
    fn sample() -> Vec<OwnedTraceEvent> {
        vec![
            ev(4, Some(2), "a1", 5, 50),
            ev(2, Some(1), "a", 2, 60),
            ev(3, Some(1), "b", 65, 30),
            ev(1, None, "root", 0, 100),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let rows = self_time(&sample());
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("root").self_us, 10); // 100 - (60 + 30)
        assert_eq!(get("a").self_us, 10); // 60 - 50
        assert_eq!(get("a1").self_us, 50);
        assert_eq!(get("b").self_us, 30);
        // Sorted by self time desc.
        assert_eq!(rows[0].name, "a1");
        let table = render_self_time(&rows, 10);
        assert!(table.contains("a1"));
        assert!(table.contains("self%"));
    }

    #[test]
    fn critical_path_takes_every_sequential_child() {
        let rows = critical_path(&sample());
        // a [2, 62) and b [65, 95) run one after the other: both are on
        // the path, and root keeps only its own 10µs.
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("root").self_us, 10); // 100 - (60 + 30)
        assert_eq!(get("a").self_us, 10); // 60 - 50
        assert_eq!(get("a1").self_us, 50);
        assert_eq!(get("b").self_us, 30);
        assert_eq!(get("a1").on_path, 1);
        // Path self times of one sequential tree sum to its wall time.
        assert_eq!(rows.iter().map(|r| r.self_us).sum::<u64>(), 100);
        let table = render_critical_path(&rows, 10);
        assert!(table.contains("critical-path"));
    }

    #[test]
    fn critical_path_takes_the_heaviest_chain_of_parallel_children() {
        // root(100): p [0, 70) overlaps q [10, 50) and r [60, 90); q and
        // r do not overlap. The chain q + r (70) ties p (70) and is taken
        // over it; s [95, 100) follows all three.
        let events = vec![
            ev(1, None, "root", 0, 100),
            ev(2, Some(1), "p", 0, 70),
            ev(3, Some(1), "q", 10, 40),
            ev(4, Some(1), "r", 60, 30),
            ev(5, Some(1), "s", 95, 5),
        ];
        let rows = critical_path(&events);
        let get = |n: &str| rows.iter().find(|r| r.name == n).map(|r| r.self_us);
        assert_eq!(get("p"), None);
        assert_eq!(get("q"), Some(40));
        assert_eq!(get("r"), Some(30));
        assert_eq!(get("s"), Some(5));
        assert_eq!(get("root"), Some(25)); // 100 - (40 + 30 + 5)
        // A strictly heavier parallel child wins over the chain.
        let mut heavier = events.clone();
        heavier[1].dur_us = 80;
        let rows = critical_path(&heavier);
        let get = |n: &str| rows.iter().find(|r| r.name == n).map(|r| r.self_us);
        assert_eq!(get("p"), Some(80));
        assert_eq!(get("q"), None);
        assert_eq!(get("root"), Some(15)); // 100 - (80 + 5)
    }

    #[test]
    fn perfetto_json_shape() {
        let j = perfetto_json(&sample());
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 4);
        assert!(j.contains("\"name\":\"root\""));
        assert!(j.contains("\"parent\":null"));
        assert!(j.contains("\"parent\":2"));
        assert!(perfetto_json(&[]).contains("\"traceEvents\":[]"));
    }
}
