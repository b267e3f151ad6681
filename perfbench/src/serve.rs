//! The serve layers: `epplan_serve::Daemon` driven in-process by one
//! single-threaded loop — the same serial queue `epplan serve` runs on
//! its one serving thread, minus the socket hop.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use epplan_core::certify::certify_incremental;
use epplan_core::incremental::{IncrementalPlanner, SequencedOp};
use epplan_datagen::BurstSpec;
use epplan_memtrack::MemoryProbe;
use epplan_serve::{
    parse_op_line, write_snapshot, BrownoutKnobs, Daemon, OpResponse, OutcomeMeta, OutcomeMode,
    OverloadConfig, ServeConfig, ServeSummary, Snapshot, WalWriter, FORMAT_VERSION,
};

use crate::solve::{certified_solve, same_result, traced_solve};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{inputs, Args, Layers, Report, OUT_DIR};

/// One serving workload.
pub struct Spec {
    users: usize,
    events: usize,
    /// Open loop at this offered rate (ops/s); `None` sends ops back
    /// to back from one caller (closed loop).
    rate: Option<f64>,
    /// Ops processed back to back before the timed window opens.
    warmup: usize,
    /// Measured passes, each on its own input drawn from the run's
    /// seed; the closed loop sends `160 × seconds / passes` timed ops
    /// in each.
    passes: u64,
    /// Bursty op ids instead of a dense sequence.
    burst: Option<BurstSpec>,
    config: fn() -> ServeConfig,
}

/// `serve-steady`: what `epplan serve` runs with no flags, WAL on, fed
/// a uniform op stream in an open loop at 60 ops/s: about a quarter of
/// the rate one serving thread sustains at this size, because near
/// saturation queueing multiplies every slowdown of the host into op
/// latency. The 50-op warm-up and a 15 s window (900 ops) fit between
/// the start and the snapshot at op 1000: two snapshot stalls per
/// window set `op_p99_ms` through the ops queued behind them, and
/// their length varied so much from run to run that it spread 0.27–0.41
/// over ten runs. The traced run times a snapshot of its own instead.
pub const STEADY: Spec = Spec {
    users: 10_000,
    events: 50,
    rate: Some(60.0),
    warmup: 50,
    passes: 1,
    burst: None,
    config: ServeConfig::default,
};

/// `serve-churn`: the overload configuration, fed bursts back to back.
/// Its degraded re-solves are randomized by user ids, so final utility
/// differs between inputs of the same difficulty; twelve short passes
/// on twelve inputs average that out. A fresh daemon re-solves at
/// ops ≈11 and ≈18 (before the brownout ladder reaches degraded LNS,
/// ≈0.1 s each), ≈80 (≈0.18 s), then every ≈65 ops at 0.22–0.35 s,
/// sparser after op 300. The 100-op warm-up and 200-op window (at
/// 15 s) hold the three re-solves near ops 140, 205 and 270 of every
/// pass: 1.5% of timed ops, all of one kind, so `op_p99_ms` lands in
/// the middle of their spread instead of on an edge between kinds.
pub const CHURN: Spec = Spec {
    users: 1_000,
    events: 50,
    rate: None,
    warmup: 100,
    passes: 12,
    burst: Some(BurstSpec { len: 64, gap: 16 }),
    config: churn_config,
};

/// Timed ops per run-second in the closed loop, summed over passes.
const CLOSED_OPS_PER_SECOND: f64 = 160.0;
/// `solve_s` samples taken on each pass's daemon.
const SOLVES_PER_PASS: usize = 5;
/// Certification spot-check cadence, in ops.
const SPOT_CHECK_EVERY: usize = 1_000;

/// Admission deadline 2 ops, brownout 8,4 with a 0 µs SLO so every op
/// burns and the ladder walks deterministically, quarantine after 3,
/// drift threshold 100: `epplan serve --op-deadline-ops 2 --brownout
/// 8,4 --slo-p99-us 0 --quarantine-after 3 --drift-threshold 100
/// --snapshot-every 2500`.
fn churn_config() -> ServeConfig {
    ServeConfig {
        drift_threshold: Some(100),
        snapshot_every: Some(2500),
        slo_p99_us: Some(0),
        overload: OverloadConfig {
            op_deadline_ops: Some(2),
            brownout: Some(BrownoutKnobs {
                down_after: 8,
                up_after: 4,
            }),
            quarantine_after: Some(3),
        },
        ..ServeConfig::default()
    }
}

/// A started daemon, its encoded op stream and its state directory.
struct Session {
    daemon: Daemon,
    lines: Vec<String>,
    warmup: usize,
    dir: PathBuf,
    setup_s: f64,
}

impl Session {
    /// Generates the instance and op stream and starts the daemon (its
    /// certified initial solve, snapshot and candidate warm-up) in a
    /// fresh state directory; all of it is timed as set-up.
    fn start(spec: &Spec, seed: u64, n_ops: usize, dir: PathBuf) -> Result<Session, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let total = spec.warmup + n_ops;
        let (mut instance, ops) = inputs::served(spec.users, spec.events, seed, total, spec.burst)?;
        let lines = ops
            .iter()
            .map(serde_json::to_string)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("encoding op stream: {e}"))?;
        // A served instance arrives without a candidate cache.
        instance.invalidate_candidates();
        let daemon = Daemon::start(instance, (spec.config)(), Some(&dir))
            .map_err(|e| format!("Daemon::start: {e}"))?;
        Ok(Session {
            daemon,
            lines,
            warmup: spec.warmup,
            dir,
            setup_s: start.elapsed().as_secs_f64(),
        })
    }

    /// The certified end-to-end solve of the initial instance, which
    /// must reproduce the plan the daemon started from.
    fn solve_sample(&self) -> Result<f64, String> {
        let s = certified_solve(self.daemon.instance())?;
        same_result(
            "daemon initial plan",
            (self.daemon.plan(), self.daemon.utility()),
            (&s.plan, s.utility),
        )?;
        Ok(s.secs)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one pass over the stream measured, over its timed ops.
struct Pass {
    lat_ms: Vec<f64>,
    busy_s: f64,
    peak_mib: f64,
    /// Timed ops acked `applied` or `resolved`.
    ok: u64,
    summary: ServeSummary,
}

/// The summary fields that must repeat exactly for one seed.
#[derive(Debug, PartialEq)]
struct Digest([u64; 15]);

fn digest(s: &ServeSummary) -> Digest {
    Digest([
        s.ops,
        s.applied,
        s.resolved,
        s.rejected,
        s.skipped,
        s.retries,
        s.resolves,
        s.snapshots,
        s.drift,
        s.utility.to_bits(),
        u64::from(s.certified),
        s.slo_burning_ops,
        s.shed,
        s.quarantined,
        s.brownout_steps,
    ])
}

/// Spans around ingest, process and ack of every timed op, with the
/// queue waits and the process times of re-solve ops.
struct SpanLog<'a> {
    tr: &'a mut Tracer,
    /// Added to op ids, so spans of different passes do not share one.
    op_base: u64,
    wait_ms: Vec<f64>,
    backlog: f64,
    resolve_ms: Vec<f64>,
}

/// Shadow calls of the repair, delta-certify and WAL layers on the
/// daemon's state around every timed op, and of the snapshot layer at
/// the end of each pass; the loop's clock excludes them, and the
/// daemon never sees their results.
struct ShadowLog<'a> {
    tr: &'a mut Tracer,
    /// Added to op ids, so spans of different passes do not share one.
    op_base: u64,
    wal: WalWriter,
    op_budget: epplan_solve::SolveBudget,
    repair_us: Vec<f64>,
    certify_delta_us: Vec<f64>,
    dif: Vec<f64>,
    wal_us: Vec<f64>,
    snap_dir: PathBuf,
    snapshot_ms: Vec<f64>,
}

impl<'a> ShadowLog<'a> {
    fn new(
        tr: &'a mut Tracer,
        wal_path: &Path,
        snap_dir: PathBuf,
        config: &ServeConfig,
    ) -> Result<Self, String> {
        let wal = WalWriter::create(wal_path).map_err(|e| format!("shadow WAL: {e}"))?;
        std::fs::create_dir_all(&snap_dir).map_err(|e| format!("shadow snapshot dir: {e}"))?;
        Ok(ShadowLog {
            tr,
            op_base: 0,
            wal,
            op_budget: config.op_budget,
            repair_us: Vec::new(),
            certify_delta_us: Vec::new(),
            dif: Vec::new(),
            wal_us: Vec::new(),
            snap_dir,
            snapshot_ms: Vec::new(),
        })
    }

    /// The snapshot the daemon writes every `snapshot_every` ops, of
    /// its state after the pass, into a directory of its own.
    fn snapshot(&mut self, daemon: &Daemon) -> Result<(), String> {
        let (dir, op) = (&self.snap_dir, self.op_base);
        let (res, t) = self.tr.time(None, "serve.snapshot", op, || {
            let snap = Snapshot {
                version: FORMAT_VERSION,
                last_op_id: daemon.last_op_id(),
                drift: daemon.drift(),
                overload: daemon.overload_state().clone(),
                instance: daemon.instance().clone(),
                plan: daemon.plan().clone(),
            };
            write_snapshot(dir, &snap)
        });
        res.map_err(|e| format!("shadow snapshot: {e}"))?;
        self.snapshot_ms.push(t * 1e3);
        Ok(())
    }

    /// `try_apply_budgeted` and `certify_incremental` of `sop` on the
    /// daemon's pre-op instance and plan.
    fn repair(&mut self, daemon: &Daemon, sop: &SequencedOp) {
        let (budget, op) = (self.op_budget, self.op_base + sop.id);
        let root = self.tr.id();
        let start = Instant::now();
        let (out, t_repair) = self.tr.time(Some(root), "core.iep.repair", op, || {
            IncrementalPlanner
                .try_apply_budgeted(daemon.instance(), daemon.plan(), &sop.op, budget)
                .ok()
        });
        self.repair_us.push(t_repair * 1e6);
        if let Some(out) = out {
            let (_, t_cert) = self.tr.time(Some(root), "solve.certify_delta", op, || {
                certify_incremental(&out.instance, daemon.plan(), &out.plan)
            });
            self.certify_delta_us.push(t_cert * 1e6);
            self.dif.push(out.dif as f64);
        }
        self.tr
            .record_as(root, None, "bench.shadow", op, start, Instant::now());
    }

    /// `append_op` + `append_outcome` of the op and the outcome the
    /// daemon acked, into a WAL of its own.
    fn wal(&mut self, sop: &SequencedOp, resp: &OpResponse) -> Result<(), String> {
        let mode = match resp.status.as_str() {
            "applied" => OutcomeMode::Repair,
            "resolved" if resp.error.is_some() => OutcomeMode::Resolve,
            "resolved" => OutcomeMode::RepairResolve,
            "shed" => OutcomeMode::Shed,
            _ => OutcomeMode::Reject,
        };
        let (wal, op) = (&mut self.wal, self.op_base + sop.id);
        let (res, t) = self.tr.time(None, "serve.wal.append", op, || {
            wal.append_op(sop)?;
            wal.append_outcome(&OutcomeMeta::plain(sop.id, mode))
        });
        res.map_err(|e| format!("shadow WAL append: {e}"))?;
        self.wal_us.push(t * 1e6);
        Ok(())
    }
}

/// What a pass records besides its end-to-end numbers.
enum Probe<'p, 'a> {
    None,
    Spans(&'p mut SpanLog<'a>),
    Shadow(&'p mut ShadowLog<'a>),
}

fn spot_check(daemon: &Daemon, done: usize) -> Result<(), String> {
    if done.is_multiple_of(SPOT_CHECK_EVERY) {
        let cert = daemon.certificate();
        if !cert.hard_ok() {
            return Err(format!("plan uncertified after {done} ops: {cert}"));
        }
    }
    Ok(())
}

fn process(daemon: &mut Daemon, line: &str) -> Result<(SequencedOp, OpResponse), String> {
    let sop = parse_op_line(line).map_err(|e| e.to_string())?;
    let resp = daemon
        .process(&sop)
        .map_err(|e| format!("op {}: {e}", sop.id))?;
    if resp.id != sop.id {
        return Err(format!("ack for op {} carries id {}", sop.id, resp.id));
    }
    Ok((sop, resp))
}

/// Feeds the warm-up ops back to back, then times every other op:
/// parse → `Daemon::process` → ack encode. With `rate`, timed op `k`
/// is due `k / rate` seconds after the window opens and its latency
/// runs from that due time to its ack; without, from send to ack.
/// Certification is spot-checked every 1000 ops and at the end, with
/// the open loop's clock paused, as it is during shadow calls.
fn drive(s: &mut Session, rate: Option<f64>, mut probe: Probe) -> Result<Pass, String> {
    let (warm, timed) = s.lines.split_at(s.warmup);
    for (i, line) in warm.iter().enumerate() {
        process(&mut s.daemon, line)?;
        spot_check(&s.daemon, i + 1)?;
    }
    let mem = MemoryProbe::start();
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut lat_ms = Vec::with_capacity(timed.len());
    let mut busy = Duration::ZERO;
    let mut ok = 0u64;
    for (k, line) in timed.iter().enumerate() {
        let scheduled = rate.map(|r| t0 + Duration::from_secs_f64(k as f64 / r));
        if let Some(due) = scheduled {
            // Spin rather than sleep: on a 2-vCPU VM, ops that followed
            // a sleep spread `op_p99_ms` 0.87 over five seeds, 0.08
            // when the loop spun.
            while Instant::now() < due + paused {
                std::hint::spin_loop();
            }
        }
        if let Probe::Shadow(sh) = &mut probe {
            let p = Instant::now();
            let sop = parse_op_line(line).map_err(|e| e.to_string())?;
            sh.repair(&s.daemon, &sop);
            paused += p.elapsed();
        }
        let due = scheduled.map(|d| d + paused);
        let resolves = s.daemon.stats().resolves;

        let start = Instant::now();
        let sop = parse_op_line(line).map_err(|e| format!("op line {k}: {e}"))?;
        let parsed = Instant::now();
        let resp = s
            .daemon
            .process(&sop)
            .map_err(|e| format!("op {}: {e}", sop.id))?;
        let processed = Instant::now();
        let ack = serde_json::to_string(&resp).map_err(|e| format!("encoding ack: {e}"))?;
        let end = Instant::now();
        std::hint::black_box(&ack);

        if resp.id != sop.id {
            return Err(format!("ack for op {} carries id {}", sop.id, resp.id));
        }
        busy += end - start;
        lat_ms.push((end - due.unwrap_or(start)).as_secs_f64() * 1e3);
        ok += u64::from(resp.status == "applied" || resp.status == "resolved");
        let p = Instant::now();
        match &mut probe {
            Probe::None => {}
            Probe::Spans(sp) => {
                let (root, op) = (sp.tr.id(), sp.op_base + sop.id);
                let (i1, i2, i3) = (sp.tr.id(), sp.tr.id(), sp.tr.id());
                sp.tr
                    .record_as(i1, Some(root), "serve.ingest", op, start, parsed);
                sp.tr
                    .record_as(i2, Some(root), "serve.process", op, parsed, processed);
                sp.tr
                    .record_as(i3, Some(root), "serve.ack", op, processed, end);
                sp.tr.record_as(root, None, "serve.op", op, start, end);
                if let (Some(due), Some(r)) = (due, rate) {
                    let wait = start.saturating_duration_since(due).as_secs_f64();
                    sp.wait_ms.push(wait * 1e3);
                    sp.backlog = sp.backlog.max((wait * r).floor());
                }
                if s.daemon.stats().resolves > resolves {
                    sp.resolve_ms.push((processed - parsed).as_secs_f64() * 1e3);
                }
            }
            Probe::Shadow(sh) => sh.wal(&sop, &resp)?,
        }
        spot_check(&s.daemon, s.warmup + k + 1)?;
        paused += p.elapsed();
    }
    let peak_mib = mem.finish().peak_delta_mib();
    let summary = s.daemon.summary();
    let cert = s.daemon.certificate();
    if !summary.certified || !cert.hard_ok() {
        return Err(format!("final plan uncertified: {cert}"));
    }
    Ok(Pass {
        lat_ms,
        busy_s: busy.as_secs_f64(),
        peak_mib,
        ok,
        summary,
    })
}

fn state_dir(args: &Args, pass: usize) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "state-{}-{}-{pass}",
        args.workload,
        std::process::id()
    ))
}

/// Timed ops per pass: the open loop offers `rate` ops/s for the run's
/// seconds; the closed loop spreads a fixed count over its passes.
fn timed_ops(spec: &Spec, args: &Args) -> usize {
    let per_run = spec.rate.unwrap_or(CLOSED_OPS_PER_SECOND) * args.seconds;
    (per_run / spec.passes as f64).round().max(1.0) as usize
}

/// The input seed of pass `p`: distinct for every (seed, pass).
fn pass_seed(spec: &Spec, seed: u64, p: u64) -> u64 {
    seed.wrapping_mul(spec.passes).wrapping_add(p)
}

fn stamp(r: &mut Report, spec: &Spec, n_ops: usize, passes: usize) {
    r.stamp("users", spec.users as f64);
    r.stamp("events", spec.events as f64);
    r.stamp("warmup_ops", spec.warmup as f64);
    r.stamp("timed_ops_per_pass", n_ops as f64);
    r.stamp("passes", passes as f64);
    r.stamp("offered_rate", spec.rate.unwrap_or(0.0));
}

fn same_digest(first: &Pass, again: &Pass, what: &str) -> Result<(), String> {
    let (a, b) = (digest(&first.summary), digest(&again.summary));
    if a != b {
        return Err(format!("{what}: serve summary {b:?} differs from {a:?}"));
    }
    Ok(())
}

/// Untraced run: every end-to-end metric, over the spec's passes.
/// Then the first pass's input is served again, back to back from a
/// fresh daemon, which must end in the same summary.
pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let n_ops = timed_ops(spec, args);
    let mut setup = Vec::new();
    let mut solve = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    for p in 0..=spec.passes {
        let seed = pass_seed(spec, args.seed, p % spec.passes);
        let mut s = Session::start(spec, seed, n_ops, state_dir(args, p as usize))?;
        setup.push(s.setup_s);
        for _ in 0..SOLVES_PER_PASS {
            solve.push(s.solve_sample()?);
        }
        if p == spec.passes {
            let again = drive(&mut s, None, Probe::None)?;
            same_digest(&passes[0], &again, "repeat pass")?;
        } else {
            passes.push(drive(&mut s, spec.rate, Probe::None)?);
        }
    }
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    let busy: f64 = passes.iter().map(|p| p.busy_s).sum();
    let peak: Vec<f64> = passes.iter().map(|p| p.peak_mib).collect();
    let utility: Vec<f64> = passes.iter().map(|p| p.summary.utility).collect();
    let ok: u64 = passes.iter().map(|p| p.ok).sum();
    let ops = lat.len() as u64;

    let mut r = Report::new(ops);
    stamp(&mut r, spec, n_ops, passes.len());
    r.end_to_end("setup_s", median(&setup), setup.len());
    r.end_to_end("solve_s", median(&solve), solve.len());
    r.end_to_end("utility", mean(&utility), utility.len());
    r.end_to_end("peak_mem_mib", median(&peak), peak.len());
    r.end_to_end("op_p50_ms", quantile(&lat, 0.5), lat.len());
    r.end_to_end("op_p99_ms", quantile(&lat, 0.99), lat.len());
    r.end_to_end("ops_per_sec", ops as f64 / busy, lat.len());
    r.end_to_end("ops_ok_share", ok as f64 / ops.max(1) as f64, lat.len());
    Ok(r)
}

/// Op ids of pass `p` are offset by `p × OP_BASE_STRIDE` in the trace.
const OP_BASE_STRIDE: u64 = 1_000_000_000;

/// Traced run over the untraced run's inputs, each served three times
/// from fresh daemons that must all end in the same summary: with
/// layer spans (after the first instance is solved stage by stage),
/// untraced in the same loop, whose busy time the spans' overhead is
/// measured against, and back to back with shadow calls, kept apart so
/// their cache effects do not reach the spans.
pub fn run_traced(spec: &Spec, args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let n_ops = timed_ops(spec, args);
    let config = (spec.config)();
    let mut layers = Layers::default();
    let start = |p: u64| {
        Session::start(
            spec,
            pass_seed(spec, args.seed, p),
            n_ops,
            state_dir(args, p as usize),
        )
    };

    let mut spans = SpanLog {
        tr,
        op_base: 0,
        wait_ms: Vec::new(),
        backlog: 0.0,
        resolve_ms: Vec::new(),
    };
    let mut traced = Vec::new();
    for p in 0..spec.passes {
        let mut s = start(p)?;
        if p == 0 {
            let solved = traced_solve(s.daemon.instance(), &mut *spans.tr, 0, &mut layers)?;
            same_result(
                "daemon initial plan",
                (s.daemon.plan(), s.daemon.utility()),
                (&solved.plan, solved.utility),
            )?;
        }
        spans.op_base = p * OP_BASE_STRIDE;
        traced.push(drive(&mut s, spec.rate, Probe::Spans(&mut spans))?);
    }
    let mut plain_busy = 0.0;
    for p in 0..spec.passes {
        let plain = drive(&mut start(p)?, spec.rate, Probe::None)?;
        same_digest(&traced[p as usize], &plain, "untraced pass")?;
        plain_busy += plain.busy_s;
    }
    let SpanLog {
        tr,
        wait_ms,
        backlog,
        resolve_ms,
        ..
    } = spans;
    let pid = std::process::id();
    let wal_path = Path::new(OUT_DIR).join(format!("shadow-wal-{pid}.log"));
    let snap_dir = Path::new(OUT_DIR).join(format!("shadow-snapshot-{pid}"));
    let mut sh = ShadowLog::new(tr, &wal_path, snap_dir.clone(), &config)?;
    for p in 0..spec.passes {
        sh.op_base = p * OP_BASE_STRIDE;
        let mut s = start(p)?;
        let shadowed = drive(&mut s, None, Probe::Shadow(&mut sh))?;
        same_digest(&traced[p as usize], &shadowed, "shadowed pass")?;
        sh.snapshot(&s.daemon)?;
    }
    let wal_bytes = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_dir_all(&snap_dir);

    let us = |span: &str| -> Vec<f64> { sh.tr.durations(span).iter().map(|d| d * 1e6).collect() };
    let (ingest, process, ack) = (us("serve.ingest"), us("serve.process"), us("serve.ack"));
    let sum =
        |f: fn(&ServeSummary) -> u64| traced.iter().map(|t| f(&t.summary)).sum::<u64>() as f64;
    let busy: f64 = traced.iter().map(|t| t.busy_s).sum();
    let timed = traced.iter().map(|t| t.lat_ms.len()).sum::<usize>();
    let ok: u64 = traced.iter().map(|t| t.ok).sum();
    layers.push("serve.ingest.us.p50", quantile(&ingest, 0.5));
    layers.push("serve.ingest.us.total", ingest.iter().sum());
    layers.push("serve.ack.us.p50", quantile(&ack, 0.5));
    layers.push("serve.ack.us.total", ack.iter().sum());
    layers.push("serve.process.us.p50", quantile(&process, 0.5));
    layers.push("serve.process.us.p99", quantile(&process, 0.99));
    layers.push("serve.process.us.total", process.iter().sum());
    layers.push(
        "serve.process.coverage",
        process.iter().sum::<f64>() * 1e-6 / busy,
    );
    layers.push("serve.busy.s", busy);
    layers.push("serve.trace_overhead.s", busy - plain_busy);
    layers.push("core.iep.repair.us.p50", quantile(&sh.repair_us, 0.5));
    layers.push("core.iep.repair.us.p99", quantile(&sh.repair_us, 0.99));
    layers.push("core.iep.repair.us.total", sh.repair_us.iter().sum());
    layers.push(
        "solve.certify_delta.us.p50",
        quantile(&sh.certify_delta_us, 0.5),
    );
    layers.push(
        "solve.certify_delta.us.p99",
        quantile(&sh.certify_delta_us, 0.99),
    );
    layers.push(
        "solve.certify_delta.us.total",
        sh.certify_delta_us.iter().sum(),
    );
    layers.push("core.iep.dif.mean", mean(&sh.dif));
    layers.push("serve.wal.append.us.p50", quantile(&sh.wal_us, 0.5));
    layers.push("serve.wal.append.us.total", sh.wal_us.iter().sum());
    layers.push("serve.wal.bytes", wal_bytes as f64);
    layers.push("serve.queue_wait.ms.p50", quantile(&wait_ms, 0.5));
    layers.push("serve.queue_wait.ms.p99", quantile(&wait_ms, 0.99));
    layers.push("serve.queue_wait.ms.max", quantile(&wait_ms, 1.0));
    layers.push("serve.backlog.max", backlog);
    layers.push("serve.snapshot.ms.total", sh.snapshot_ms.iter().sum());
    layers.push("serve.snapshot.ops", sh.snapshot_ms.len() as f64);
    layers.push("serve.resolve.ms.total", resolve_ms.iter().sum());
    layers.push("serve.resolve.ops", resolve_ms.len() as f64);
    layers.push("serve.applied", sum(|s| s.applied));
    layers.push("serve.resolved", sum(|s| s.resolved));
    layers.push("serve.rejected", sum(|s| s.rejected));
    layers.push("serve.shed", sum(|s| s.shed));
    layers.push("serve.retries", sum(|s| s.retries));
    layers.push("serve.brownout_steps", sum(|s| s.brownout_steps));
    layers.push("serve.useful_ratio", ok as f64 / timed.max(1) as f64);

    let mut r = Report::new(3 * timed as u64);
    stamp(&mut r, spec, n_ops, 3 * spec.passes as usize);
    r.layers_median(&[layers]);
    Ok(r)
}
