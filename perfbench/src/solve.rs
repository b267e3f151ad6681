//! The solve layers: the certified end-to-end solve users run, and the
//! same pipeline decomposed stage by stage for the traced run.

use std::time::Instant;

use epplan_core::certify::certify;
use epplan_core::model::{EventId, Instance, UserId};
use epplan_core::plan::Plan;
use epplan_core::solver::conflict_adjust::{budget_repair, conflict_adjust};
use epplan_core::solver::{filler, GapBasedSolver, GepcSolver};
use epplan_gap::packing::mw_fractional;
use epplan_gap::{round_shmoys_tardos, FractionalMethod, GapInstance, GapSolver};
use epplan_memtrack::MemoryProbe;
use epplan_solve::SolveBudget;

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{inputs, Args, Layers, Report};

/// Instance size of `solve-default`: the default dense generator.
const USERS: usize = 20_000;
const EVENTS: usize = 200;
/// Instance generations per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed solves per run, at least, however long they take: on a slow,
/// noisy host the median of three drifted by a quarter between runs.
const MIN_SOLVES: usize = 5;

/// A copy of `instance` with an empty candidate cache: a cloned
/// `OnceLock` carries the cache, and users pay for building it.
fn cold(instance: &Instance) -> Instance {
    let mut c = instance.clone();
    c.invalidate_candidates();
    c
}

/// One certified end-to-end solve.
pub struct Solved {
    pub plan: Plan,
    pub utility: f64,
    pub secs: f64,
    pub peak_mib: f64,
}

/// `GapBasedSolver::default().with_certify(true).try_solve` on a cold
/// copy of `instance`. A failed solve, a degraded one or a plan the
/// certifier rejects is an error.
pub fn certified_solve(instance: &Instance) -> Result<Solved, String> {
    let inst = cold(instance);
    let probe = MemoryProbe::start();
    let start = Instant::now();
    let result = GapBasedSolver::default()
        .with_certify(true)
        .try_solve(&inst, SolveBudget::UNLIMITED);
    let secs = start.elapsed().as_secs_f64();
    let peak_mib = probe.finish().peak_delta_mib();
    let sol = result.map_err(|e| format!("certified solve failed: {e}"))?;
    let cert = sol
        .report
        .certificate
        .as_ref()
        .ok_or("certified solve returned no certificate")?;
    if !cert.hard_ok() {
        return Err(format!("certifier rejected the solved plan: {cert}"));
    }
    Ok(Solved {
        utility: cert.utility,
        plan: sol.plan,
        secs,
        peak_mib,
    })
}

/// The result of one decomposed solve.
struct Decomposed {
    plan: Plan,
    utility: f64,
    /// Wall time of the whole traced pipeline.
    secs: f64,
}

/// The pipeline `try_solve` runs, called stage by stage with a span
/// around each call: candidates → `build_gap` → `GapSolver::solve` →
/// `conflict_adjust` + `budget_repair` → `fill_to_upper` → `certify`.
/// Then re-runs the pipeline's packing and rounding on the same GAP
/// instance, as their own spans outside the solve. Stage times and
/// counts go into `layers`.
fn decomposed(
    instance: &Instance,
    tr: &mut Tracer,
    op: u64,
    layers: &mut Layers,
) -> Result<Decomposed, String> {
    let inst = cold(instance);
    let solver = GapBasedSolver::default();
    let root = tr.id();
    let start = Instant::now();
    let (n_cands, t_cands) = tr.time(Some(root), "core.candidates", op, || {
        inst.candidates().len()
    });
    let ((gap, jobs), t_reduce) =
        tr.time(Some(root), "core.reduction", op, || solver.build_gap(&inst));
    let (gap_sol, t_gap) = tr.time(Some(root), "gap.pipeline", op, || {
        GapSolver::new(solver.gap.clone()).solve(&gap)
    });
    let gap_sol = gap_sol.map_err(|e| format!("decomposed GAP pipeline failed: {e}"))?;
    let ((mut plan, removed), t_adjust) = tr.time(Some(root), "core.conflict_adjust", op, || {
        let mut raw: Vec<Vec<EventId>> = vec![Vec::new(); inst.n_users()];
        for (job, &machine) in gap_sol.assignment.iter().enumerate() {
            if let (Some(u), Some(&e)) = (machine, jobs.get(job)) {
                raw[u].push(e);
            }
        }
        let mut plan = conflict_adjust(&inst, raw);
        let removed = budget_repair(&inst, &mut plan);
        (plan, removed)
    });
    let (added, t_fill) = tr.time(Some(root), "core.fill", op, || {
        filler::fill_to_upper(&inst, &mut plan, None)
    });
    let (cert, t_cert) = tr.time(Some(root), "solve.certify", op, || certify(&inst, &plan));
    let end = Instant::now();
    tr.record_as(root, None, "solve", op, start, end);
    if !cert.hard_ok() {
        return Err(format!("certifier rejected the decomposed plan: {cert}"));
    }
    let secs = end.duration_since(start).as_secs_f64();
    let attributed = t_cands + t_reduce + t_gap + t_adjust + t_fill + t_cert;

    let (t_pack, t_round) = shadow_gap(&gap, &solver, tr, op)?;

    layers.push("core.candidates.s", t_cands);
    layers.push(
        "core.candidates.per_user",
        n_cands as f64 / inst.n_users().max(1) as f64,
    );
    layers.push("core.reduction.s", t_reduce);
    layers.push("gap.jobs", gap.n_jobs() as f64);
    layers.push("gap.pairs", gap.allowed_pairs_count() as f64);
    layers.push("gap.pipeline.s", t_gap);
    layers.push("gap.packing.s", t_pack);
    layers.push("gap.rounding.s", t_round);
    layers.push("gap.unassigned", gap_sol.unassigned_jobs().len() as f64);
    layers.push("core.conflict_adjust.s", t_adjust);
    layers.push("core.budget_repair.removed", removed as f64);
    layers.push("core.fill.s", t_fill);
    layers.push("core.fill.added", added as f64);
    layers.push("solve.certify.s", t_cert);
    layers.push("solve.traced.s", secs);
    layers.push("solve.unattributed.s", secs - attributed);
    layers.push("solve.span_coverage", attributed / secs);
    Ok(Decomposed {
        plan,
        utility: cert.utility,
        secs,
    })
}

/// Re-runs the GAP pipeline's multiplicative-weights packing and its
/// Shmoys–Tardos rounding (on the top-k-pruned fraction, as the
/// pipeline does) on `gap`. Both are zero when the pipeline would take
/// the exact LP path instead.
fn shadow_gap(
    gap: &GapInstance,
    solver: &GapBasedSolver,
    tr: &mut Tracer,
    op: u64,
) -> Result<(f64, f64), String> {
    let cfg = &solver.gap;
    let uses_mw = match cfg.method {
        FractionalMethod::Auto => gap.allowed_pairs_count() > cfg.auto_simplex_limit,
        FractionalMethod::Simplex => false,
        FractionalMethod::MultiplicativeWeights => true,
    };
    if !uses_mw {
        return Ok((0.0, 0.0));
    }
    let root = tr.id();
    let start = Instant::now();
    let (frac, t_pack) = tr.time(Some(root), "gap.packing", op, || {
        mw_fractional(gap, &cfg.packing)
    });
    let mut frac = frac.map_err(|e| format!("packing re-run failed: {e}"))?;
    frac.prune_top_k(cfg.rounding_top_k);
    let (rounded, t_round) = tr.time(Some(root), "gap.rounding", op, || {
        round_shmoys_tardos(gap, &frac)
    });
    tr.record_as(root, None, "bench.shadow", op, start, Instant::now());
    rounded.map_err(|e| format!("rounding re-run failed: {e}"))?;
    Ok((t_pack, t_round))
}

/// Checks that a repeat reproduced the first result exactly.
pub fn same_result(what: &str, first: (&Plan, f64), again: (&Plan, f64)) -> Result<(), String> {
    if first.1.to_bits() != again.1.to_bits() {
        return Err(format!(
            "{what}: utility {} differs from the first result's {}",
            again.1, first.1
        ));
    }
    if first.0 != again.0 {
        let users = first.0.n_users().min(again.0.n_users());
        let diff = (0..users as u32)
            .map(UserId)
            .filter(|&u| first.0.user_plan(u) != again.0.user_plan(u))
            .count();
        return Err(format!(
            "{what}: plan differs from the first result for {diff} user(s)"
        ));
    }
    Ok(())
}

/// An untraced certified solve of `instance` and the same solve
/// decomposed under spans, which must reproduce its plan exactly. The
/// difference of their wall times is the tracing overhead.
pub fn traced_solve(
    instance: &Instance,
    tr: &mut Tracer,
    op: u64,
    layers: &mut Layers,
) -> Result<Solved, String> {
    let e2e = certified_solve(instance)?;
    let dec = decomposed(instance, tr, op, layers)?;
    same_result(
        "decomposed pipeline",
        (&e2e.plan, e2e.utility),
        (&dec.plan, dec.utility),
    )?;
    layers.push("solve.trace_overhead.s", dec.secs - e2e.secs);
    Ok(e2e)
}

/// `solve-default`, untraced: every end-to-end metric.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup = Vec::new();
    let mut instance = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let inst = inputs::instance(USERS, EVENTS, args.seed)?;
        setup.push(start.elapsed().as_secs_f64());
        instance = Some(inst);
    }
    let instance = instance.ok_or("no instance generated")?;
    let begin = Instant::now();
    let mut solves: Vec<Solved> = Vec::new();
    while solves.len() < MIN_SOLVES || begin.elapsed().as_secs_f64() < args.seconds {
        let s = certified_solve(&instance)?;
        if let Some(first) = solves.first() {
            same_result(
                "repeat solve",
                (&first.plan, first.utility),
                (&s.plan, s.utility),
            )?;
        }
        solves.push(s);
    }
    let secs: Vec<f64> = solves.iter().map(|s| s.secs).collect();
    println!("solve wall times (s): {secs:.3?}");
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let peak: Vec<f64> = solves.iter().map(|s| s.peak_mib).collect();
    let n = solves.len() as u64;
    let mut r = Report::new(n);
    r.stamp("users", USERS as f64);
    r.stamp("events", EVENTS as f64);
    r.stamp("solves", n as f64);
    r.end_to_end("setup_s", median(&setup), setup.len());
    r.end_to_end("solve_s", median(&secs), secs.len());
    r.end_to_end("utility", solves[0].utility, secs.len());
    r.end_to_end("peak_mem_mib", median(&peak), peak.len());
    r.end_to_end("op_p50_ms", quantile(&ms, 0.5), ms.len());
    r.end_to_end("op_p99_ms", quantile(&ms, 0.99), ms.len());
    r.end_to_end(
        "ops_per_sec",
        n as f64 / secs.iter().sum::<f64>(),
        secs.len(),
    );
    r.end_to_end("ops_ok_share", 1.0, secs.len());
    Ok(r)
}

/// `solve-default`, traced: the decomposed pipeline next to an
/// untraced end-to-end solve, repeated for the run's seconds.
pub fn run_traced(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let instance = inputs::instance(USERS, EVENTS, args.seed)?;
    let begin = Instant::now();
    let mut layers: Vec<Layers> = Vec::new();
    let mut first: Option<Solved> = None;
    let mut op = 0u64;
    while op == 0 || begin.elapsed().as_secs_f64() < args.seconds {
        op += 1;
        let mut l = Layers::default();
        let e2e = traced_solve(&instance, tr, op, &mut l)?;
        if let Some(f) = &first {
            same_result(
                "repeat solve",
                (&f.plan, f.utility),
                (&e2e.plan, e2e.utility),
            )?;
        }
        layers.push(l);
        first.get_or_insert(e2e);
    }
    let mut r = Report::new(op);
    r.stamp("users", USERS as f64);
    r.stamp("events", EVENTS as f64);
    r.stamp("solves", op as f64);
    r.layers_median(&layers);
    Ok(r)
}
