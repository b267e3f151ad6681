//! The delta certificate is proven equal to the full re-certification
//! it replaces on the serving hot path.
//!
//! On random op streams (dense and candidate-pruned instances), every
//! in-place [`step`] is certified twice: by `certify_delta` over the
//! step's touched users, and by the full `certify_incremental` against
//! the pre-op plan. Both must report the same hard and soft
//! violations (names and details, in order) and the same `dif`, with
//! `U_P` equal to 1e-9 relative. A conflict, a budget bust or an η
//! overflow injected into a touched user after the repair — including
//! the attendees of a moved event whose rows the repair left alone —
//! must still be named by the delta certificate.

use epplan::core::certify::{certify_baseline, certify_delta, certify_incremental};
use epplan::core::incremental::{step, AtomicOp};
use epplan::core::model::{EventId, Instance, UserId};
use epplan::core::plan::{Plan, PlanEdit};
use epplan::datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan::prelude::*;
use epplan::solve::certify::constraint;
use epplan::solve::{Certificate, DeltaCertifier};
use proptest::prelude::*;

/// Asserts the delta certificate of `(instance, plan)` over `touched`
/// equals the full incremental certificate against `before`, and
/// returns the delta one.
fn delta_matches_full(
    certifier: &DeltaCertifier,
    instance: &Instance,
    before: &Plan,
    plan: &Plan,
    touched: &[UserId],
) -> Result<Certificate, TestCaseError> {
    let (delta, _) = certify_delta(certifier, instance, plan, touched);
    let full = certify_incremental(instance, before, plan);
    prop_assert_eq!(&delta.hard_violations, &full.hard_violations);
    prop_assert_eq!(&delta.soft_violations, &full.soft_violations);
    prop_assert_eq!(delta.dif, full.dif);
    let tol = 1e-9 * full.utility.abs().max(1.0);
    prop_assert!(
        (delta.utility - full.utility).abs() <= tol,
        "utility {} vs full {}",
        delta.utility,
        full.utility
    );
    Ok(delta)
}

/// Corrupts a copy of `(instance, plan)` at `user` in three ways and
/// checks the delta certificate names each corruption (and still
/// equals the full one).
fn corruptions_are_named(
    certifier: &DeltaCertifier,
    instance: &Instance,
    before: &Plan,
    plan: &Plan,
    touched: &[UserId],
    user: UserId,
) -> Result<(), TestCaseError> {
    let row: Vec<EventId> = plan.user_plan(user).to_vec();
    // Time conflict: add an event overlapping one the user attends.
    let clash = instance
        .event_ids()
        .find(|&e| !row.contains(&e) && row.iter().any(|&r| instance.conflicts(r, e)));
    if let Some(e) = clash {
        let mut bad = plan.clone();
        bad.add(user, e);
        let cert = delta_matches_full(certifier, instance, before, &bad, touched)?;
        prop_assert!(cert
            .violated_constraints()
            .contains(&constraint::TIME_CONFLICT));
    }
    // Budget: the user's own budget drops to zero.
    if !row.is_empty() {
        let mut poor = instance.clone();
        poor.set_budget(user, 0.0);
        let cert = delta_matches_full(certifier, &poor, before, plan, touched)?;
        prop_assert!(cert
            .violated_constraints()
            .contains(&constraint::TRAVEL_BUDGET));
    }
    // η overflow: the user joins an event already at its upper bound.
    let full_event = instance
        .event_ids()
        .find(|&e| !row.contains(&e) && plan.attendance(e) >= instance.event(e).upper);
    if let Some(e) = full_event {
        let mut bad = plan.clone();
        bad.add(user, e);
        let cert = delta_matches_full(certifier, instance, before, &bad, touched)?;
        prop_assert!(cert
            .violated_constraints()
            .contains(&constraint::ETA_UPPER_BOUND));
    }
    Ok(())
}

/// For an op that moved an event (time window, venue or fee), every
/// post-op attendee is touched even when the repair left their row
/// alone: a fee hike past every budget, and a time window laid over
/// another event an attendee holds, must be named for all of them.
fn moved_event_corruptions_are_named(
    certifier: &DeltaCertifier,
    instance: &Instance,
    before: &Plan,
    plan: &Plan,
    touched: &[UserId],
    moved: EventId,
) -> Result<(), TestCaseError> {
    let attendees = plan.attendees(moved);
    if attendees.is_empty() {
        return Ok(());
    }
    let mut pricey = instance.clone();
    pricey.set_event_fee(moved, 1e9);
    let cert = delta_matches_full(certifier, &pricey, before, plan, touched)?;
    let busts = cert
        .hard_violations
        .iter()
        .filter(|v| v.constraint == constraint::TRAVEL_BUDGET)
        .count();
    prop_assert_eq!(busts, attendees.len());
    let other = attendees
        .iter()
        .find_map(|&u| plan.user_plan(u).iter().copied().find(|&e| e != moved));
    if let Some(other) = other {
        let mut clashing = instance.clone();
        clashing.set_event_time(moved, instance.event(other).time);
        let cert = delta_matches_full(certifier, &clashing, before, plan, touched)?;
        prop_assert!(cert
            .violated_constraints()
            .contains(&constraint::TIME_CONFLICT));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delta_certificate_equals_full_certification(
        seed in 0u64..1_000,
        n_users in 8usize..40,
        n_events in 3usize..9,
        n_ops in 10usize..50,
        pruned in 0u8..2,
    ) {
        let mut instance = generate(&GeneratorConfig {
            n_users,
            n_events,
            seed,
            candidate_pruned: pruned == 1,
            ..GeneratorConfig::default()
        });
        let mut plan = GreedySolver::seeded(seed).solve(&instance).plan;
        let (base, mut certifier) = certify_baseline(&instance, &plan);
        prop_assert!(base.hard_ok(), "{}", base);
        let mut sampler = OpStreamSampler::new(seed ^ 0x5eed);
        for _ in 0..n_ops {
            let op = sampler.next_op(&instance, &plan);
            let before = plan.clone();
            let Ok(out) = step(&mut instance, &mut plan, &op, None) else {
                continue;
            };
            let touched = out.touched_users(&plan);
            let cert = delta_matches_full(&certifier, &instance, &before, &plan, &touched)?;
            prop_assert!(cert.hard_ok(), "{:?}: {}", op, cert);
            prop_assert_eq!(cert.dif, Some(out.dif));
            // Prefer a touched user the repair did not edit: the one
            // the op named, or an attendee of a moved event.
            let edited: Vec<UserId> = out
                .edits()
                .iter()
                .filter_map(|edit| match *edit {
                    PlanEdit::Added { user, .. } | PlanEdit::Removed { user, .. } => Some(user),
                    PlanEdit::EventsGrown { .. } => None,
                })
                .collect();
            let victim = touched
                .iter()
                .find(|u| !edited.contains(u))
                .or(touched.first());
            if let Some(&u) = victim {
                corruptions_are_named(&certifier, &instance, &before, &plan, &touched, u)?;
            }
            if let AtomicOp::TimeChange { event, .. }
            | AtomicOp::LocationChange { event, .. }
            | AtomicOp::FeeChange { event, .. } = op
            {
                moved_event_corruptions_are_named(
                    &certifier, &instance, &before, &plan, &touched, event,
                )?;
            }
            let (_, commit) = certify_delta(&certifier, &instance, &plan, &touched);
            certifier.commit(commit);
        }
        // Deltas chained over the whole stream still agree with a
        // fresh full pass.
        let (full, rebased) = certify_baseline(&instance, &plan);
        let (delta, _) = certify_delta(&certifier, &instance, &plan, &[]);
        prop_assert_eq!(&delta.soft_violations, &full.soft_violations);
        prop_assert!((delta.utility - full.utility).abs() <= 1e-9 * full.utility.max(1.0));
        let (again, _) = certify_delta(&rebased, &instance, &plan, &[]);
        prop_assert_eq!(again.dif, Some(0));
    }
}

#[test]
fn delta_from_a_rejected_baseline_keeps_rechecking_its_violators() {
    let instance = generate(&GeneratorConfig {
        n_users: 12,
        n_events: 4,
        seed: 3,
        ..GeneratorConfig::default()
    });
    let mut plan = GreedySolver::seeded(3).solve(&instance).plan;
    // A budget bust at user 0, present in the baseline itself.
    let mut poor = instance.clone();
    let u = instance
        .user_ids()
        .find(|&u| !plan.user_plan(u).is_empty())
        .expect("greedy assigns someone");
    poor.set_budget(u, 0.0);
    let (base, certifier) = certify_baseline(&poor, &plan);
    assert!(base
        .violated_constraints()
        .contains(&constraint::TRAVEL_BUDGET));
    // Nothing touched: the violator is still re-checked and reported.
    let (delta, _) = certify_delta(&certifier, &poor, &plan, &[]);
    assert_eq!(delta.hard_violations, base.hard_violations);
    // Once the user's row is cleared (and touched), it certifies clean.
    let before = plan.clone();
    for e in before.user_plan(u).to_vec() {
        plan.remove(u, e);
    }
    let (delta, _) = certify_delta(&certifier, &poor, &plan, &[u]);
    assert!(delta.hard_ok(), "{delta}");
    assert_eq!(delta.dif, Some(before.user_plan(u).len()));
}
