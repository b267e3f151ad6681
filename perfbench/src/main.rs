//! `epplan-perfbench` — the repository's benchmark.
//!
//! One process, one single-threaded loop calling the library: the
//! certified GAP solve users get from `epplan solve --solver gap
//! --certify`, and the `epplan serve` daemon fed op streams in-process.
//! Run through `run.py`, which builds this package and pins
//! `EPPLAN_THREADS`:
//!
//! ```text
//! python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics untraced
//! (`--trace 0`), or the per-layer metrics of a traced run
//! (`--trace 1`), which also writes its spans as JSON lines under
//! `.bench_out/`. A failed correctness check prints
//! `"correct": false` with no metrics and exits 1.

mod inputs;
mod serve;
mod solve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: epplan_memtrack::Tracking = epplan_memtrack::Tracking;

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("utility", "U_P"),
    ("peak_mem_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_sec", "ops/s"),
    ("ops_ok_share", "ratio"),
];

/// Every per-layer metric, with its unit, in output order. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.candidates.s", "s"),
    ("core.candidates.per_user", "count"),
    ("core.reduction.s", "s"),
    ("gap.jobs", "count"),
    ("gap.pairs", "count"),
    ("gap.pipeline.s", "s"),
    ("gap.packing.s", "s"),
    ("gap.rounding.s", "s"),
    ("gap.unassigned", "count"),
    ("core.conflict_adjust.s", "s"),
    ("core.budget_repair.removed", "count"),
    ("core.fill.s", "s"),
    ("core.fill.added", "count"),
    ("solve.certify.s", "s"),
    ("solve.traced.s", "s"),
    ("solve.unattributed.s", "s"),
    ("solve.span_coverage", "ratio"),
    ("solve.trace_overhead.s", "s"),
    ("serve.ingest.us.p50", "us"),
    ("serve.ingest.us.total", "us"),
    ("serve.ack.us.p50", "us"),
    ("serve.ack.us.total", "us"),
    ("serve.process.us.p50", "us"),
    ("serve.process.us.p99", "us"),
    ("serve.process.us.total", "us"),
    ("serve.process.coverage", "ratio"),
    ("serve.busy.s", "s"),
    ("core.iep.repair.us.p50", "us"),
    ("core.iep.repair.us.p99", "us"),
    ("core.iep.repair.us.total", "us"),
    ("solve.certify_delta.us.p50", "us"),
    ("solve.certify_delta.us.p99", "us"),
    ("solve.certify_delta.us.total", "us"),
    ("core.iep.dif.mean", "count"),
    ("serve.queue_wait.ms.p50", "ms"),
    ("serve.queue_wait.ms.p99", "ms"),
    ("serve.queue_wait.ms.max", "ms"),
    ("serve.backlog.max", "count"),
    ("serve.snapshot.ms.total", "ms"),
    ("serve.snapshot.ops", "count"),
    ("serve.resolve.ms.total", "ms"),
    ("serve.resolve.ops", "count"),
    ("serve.applied", "count"),
    ("serve.resolved", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.brownout_steps", "count"),
    ("serve.useful_ratio", "ratio"),
    ("serve.wal.append.us.p50", "us"),
    ("serve.wal.append.us.total", "us"),
    ("serve.wal.bytes", "bytes"),
    ("serve.trace_overhead.s", "s"),
];

const WORKLOADS: &[&str] = &["solve-default", "serve-steady", "serve-churn"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where traces and serve state directories go, relative to the
/// repository root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or(format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("--{k} is required"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-layer metric values from one repeat, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// A workload's result: counts, metrics and the stamp fields that say
/// what was measured. A run that reports has no failed attempts: any
/// failure fails the run instead.
#[derive(Debug)]
pub struct Report {
    attempted: u64,
    end_to_end: Vec<(&'static str, f64, usize)>,
    layers: BTreeMap<&'static str, f64>,
    stamp: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(attempted: u64) -> Self {
        Report {
            attempted,
            end_to_end: Vec::new(),
            layers: BTreeMap::new(),
            stamp: Vec::new(),
        }
    }

    /// An end-to-end metric measured over `samples` samples.
    pub fn end_to_end(&mut self, name: &'static str, value: f64, samples: usize) {
        self.end_to_end.push((name, value, samples));
    }

    /// Per-layer metrics: the median over repeats of each.
    pub fn layers_median(&mut self, repeats: &[Layers]) {
        let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for l in repeats {
            for (&k, &v) in &l.0 {
                all.entry(k).or_default().push(v);
            }
        }
        for (k, v) in all {
            self.layers.insert(k, stats::median(&v));
        }
    }

    pub fn stamp(&mut self, key: &'static str, value: f64) {
        self.stamp.push((key, value));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// The metrics the run reports, each with its unit and sample count,
/// or why the report is incomplete.
fn select(
    args: &Args,
    r: &Report,
) -> Result<Vec<(&'static str, f64, &'static str, usize)>, String> {
    let mut out = Vec::new();
    if args.trace {
        if let Some(k) = r
            .layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("unregistered per-layer metric {k}"));
        }
        for &(name, unit) in PER_LAYER {
            // `+ 0.0` turns the -0 of an empty sum into 0.
            out.push((
                name,
                r.layers.get(name).copied().unwrap_or(0.0) + 0.0,
                unit,
                1,
            ));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let (_, v, n) = r
                .end_to_end
                .iter()
                .find(|m| m.0 == name)
                .ok_or(format!("workload reported no {name}"))?;
            out.push((name, *v, unit, *n));
        }
    }
    if let Some((name, v, _, _)) = out.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} is not a finite number ({v})"));
    }
    Ok(out)
}

fn stamp_line(args: &Args, r: &Report) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        (
            "epplan_threads".to_string(),
            json_str(&env("EPPLAN_THREADS")),
        ),
        (
            "threads_used".to_string(),
            epplan_par::threads().to_string(),
        ),
        ("git_commit".to_string(), json_str(&env("PERFBENCH_COMMIT"))),
        (
            "source_sha256".to_string(),
            json_str(&env("PERFBENCH_SOURCE")),
        ),
    ];
    for (k, v) in &r.stamp {
        fields.push((k.to_string(), v.to_string()));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

fn run(args: &Args, tracer: &mut trace::Tracer) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        ("solve-default", false) => solve::run(args),
        ("solve-default", true) => solve::run_traced(args, tracer),
        ("serve-steady", false) => serve::run(&serve::STEADY, args),
        ("serve-steady", true) => serve::run_traced(&serve::STEADY, args, tracer),
        ("serve-churn", false) => serve::run(&serve::CHURN, args),
        ("serve-churn", true) => serve::run_traced(&serve::CHURN, args, tracer),
        (w, _) => Err(format!("unknown workload {w:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: epplan-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: creating {OUT_DIR}: {e}");
        return ExitCode::from(3);
    }
    let mut tracer = trace::Tracer::new();
    let result = run(&args, &mut tracer).and_then(|r| select(&args, &r).map(|m| (r, m)));
    let (report, metrics) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("correctness check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(3);
        }
        println!(
            "wrote {} spans to {}",
            tracer.events().len(),
            path.display()
        );
        let rows = epplan_obs::self_time(&tracer.owned());
        println!("{}", epplan_obs::render_self_time(&rows, 24));
    }
    for (name, value, unit, n) in &metrics {
        println!("{name:<30} {value:>16.6} {unit:<6} (n={n})");
    }
    println!("{}", stamp_line(&args, &report));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        report.attempted,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names every workload and metric this binary
    /// reports, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json next to the benchmark directory")
            .split_whitespace()
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(doc.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for w in WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\":\"{w}\",\"why\"")),
                "{w} missing"
            );
        }
        let names = doc.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
