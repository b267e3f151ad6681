//! Rollback oracle for the in-place IEP step: whatever stops a step —
//! a fault site it can reach, a tripped budget, a certification
//! reject — the live instance and plan must serialize to exactly the
//! bytes they had before the op.
//!
//! Fault state is process-global: tests serialize on one mutex and
//! disarm through a panic-safe drop guard.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use epplan::core::incremental::{step, AtomicOp};
use epplan::core::model::Instance;
use epplan::core::plan::Plan;
use epplan::datagen::{generate, GeneratorConfig, OpStreamSampler, OpWeights};
use epplan::fault::FaultPlan;
use epplan::prelude::*;
use epplan::serve::{Daemon, OpResponse, ServeConfig};
use epplan::solve::{FailureKind, SolveBudget};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        epplan::fault::clear();
    }
}

fn arm(spec: &str) -> Armed {
    epplan::fault::install(
        FaultPlan::from_spec(spec).unwrap_or_else(|e| panic!("bad spec {spec}: {e}")),
    );
    Armed
}

fn bytes(instance: &Instance, plan: &Plan) -> (String, String) {
    (
        serde_json::to_string(instance).unwrap(),
        serde_json::to_string(plan).unwrap(),
    )
}

/// A small instance (dense or candidate-pruned), its greedy plan, and
/// a stream drawn with new events weighted up so column pops get
/// exercised too.
fn fixture(pruned: bool) -> (Instance, Plan, OpStreamSampler) {
    let instance = generate(&GeneratorConfig {
        n_users: 40,
        n_events: 6,
        seed: 13,
        candidate_pruned: pruned,
        ..GeneratorConfig::default()
    });
    let plan = GreedySolver::seeded(13).solve(&instance).plan;
    let weights = OpWeights {
        new_event: 3.0,
        ..OpWeights::default()
    };
    (instance, plan, OpStreamSampler::with_weights(29, weights))
}

/// Walks a 60-op stream. Before each op is committed, `attempt` runs
/// it against the live state and must leave that state byte-identical;
/// `attempt` returns whether the op changed the plan before being
/// undone. Returns how many ops did.
fn walk(
    pruned: bool,
    mut attempt: impl FnMut(&mut Instance, &mut Plan, &AtomicOp) -> bool,
) -> usize {
    let (mut instance, mut plan, mut sampler) = fixture(pruned);
    let mut undone_edits = 0;
    for k in 0..60 {
        let op = sampler.next_op(&instance, &plan);
        let before = bytes(&instance, &plan);
        let cache_before = instance.candidates().clone();
        if attempt(&mut instance, &mut plan, &op) {
            undone_edits += 1;
        }
        assert_eq!(
            bytes(&instance, &plan),
            before,
            "op {k} ({op:?}) left residue"
        );
        assert_eq!(
            instance.candidates(),
            &cache_before,
            "op {k}: candidate cache"
        );
        // Commit it for real so the walk covers evolving states.
        let _ = step(&mut instance, &mut plan, &op, None);
    }
    undone_edits
}

#[test]
fn fault_sites_reachable_from_a_step_leave_the_state_untouched() {
    let _g = exclusive();
    for pruned in [false, true] {
        for (spec, budget) in [
            ("core.iep.apply=error", None),
            ("core.iep.apply=deadline", Some(SolveBudget::UNLIMITED)),
            ("solve.budget.tick=error", Some(SolveBudget::UNLIMITED)),
        ] {
            let site = spec.split('=').next().unwrap();
            let mut fired = 0;
            walk(pruned, |instance, plan, op| {
                let armed = arm(spec);
                let err = step(instance, plan, op, budget).expect_err(spec);
                drop(armed);
                // Validation runs before `core.iep.apply`: a malformed
                // op is rejected first, which touches nothing either.
                if err.kind != FailureKind::BadInput {
                    assert!(err.message.contains(site), "{err}");
                    fired += 1;
                }
                false
            });
            assert!(fired >= 40, "{spec}: fired on {fired} of 60 ops");
        }
    }
}

#[test]
fn zero_allowance_budgets_trip_without_touching_the_state() {
    let _g = exclusive();
    for pruned in [false, true] {
        for budget in [
            SolveBudget::from_time_limit(Duration::ZERO),
            SolveBudget::from_iteration_cap(0),
        ] {
            walk(pruned, |instance, plan, op| {
                let err = step(instance, plan, op, Some(budget)).expect_err("zero allowance");
                assert_eq!(err.kind, FailureKind::BudgetExhausted);
                assert!(err.is_retryable());
                false
            });
        }
    }
}

#[test]
fn a_rejected_step_rolls_back_to_the_pre_op_bytes() {
    let _g = exclusive();
    for pruned in [false, true] {
        // Every successful step is treated as a certification reject
        // and undone, exactly as `Daemon::execute` does.
        let undone = walk(pruned, |instance, plan, op| {
            let Ok(out) = step(instance, plan, op, None) else {
                return false;
            };
            let changed = !out.edits().is_empty();
            out.rollback(instance, plan);
            changed
        });
        assert!(
            undone >= 20,
            "too few ops exercised a real plan undo: {undone}"
        );
    }
}

/// A daemon retrying after a failed attempt starts from the state the
/// attempt left behind, so its acks and final state match an
/// unfaulted run only if every failed attempt rolled back exactly.
#[test]
fn the_daemon_retries_from_the_exact_pre_op_state() {
    let _g = exclusive();
    let run = |spec: Option<&str>| -> (Vec<OpResponse>, (String, String)) {
        let (instance, _, _) = fixture(false);
        let mut d = Daemon::start(instance, ServeConfig::default(), None).unwrap();
        let ops = OpStreamSampler::new(31).sequenced_stream(d.instance(), d.plan(), 40, 1);
        // Armed after start, so hit counts index the ops' attempts.
        let _armed = spec.map(arm);
        let acks = ops.iter().map(|sop| d.process(sop).unwrap()).collect();
        (acks, bytes(d.instance(), d.plan()))
    };
    let (reference, state) = run(None);
    for spec in [
        "serve.op.ingest@7=deadline",
        "solve.budget.tick@7=deadline",
        "core.iep.apply@7=deadline",
    ] {
        let (acks, faulted_state) = run(Some(spec));
        assert_eq!(faulted_state, state, "{spec}: final state diverged");
        let retried: Vec<u64> = acks
            .iter()
            .filter(|a| a.retries > 0)
            .map(|a| a.id)
            .collect();
        assert_eq!(
            retried.len(),
            1,
            "{spec}: exactly one op retried: {retried:?}"
        );
        for (a, r) in acks.iter().zip(&reference) {
            assert_eq!(
                (&a.status, a.dif, a.drift, a.utility.to_bits()),
                (&r.status, r.dif, r.drift, r.utility.to_bits()),
                "{spec}: ack {}",
                a.id
            );
        }
    }
}
