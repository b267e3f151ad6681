//! Fill oracle: the capacity filler visits its candidates through one
//! descending sort. This suite keeps the original `BinaryHeap` drain as
//! a reference and checks that `fill_to_upper` and `try_fill_to_upper`
//! (with an unlimited deadline) add the same number of assignments and
//! leave byte-identical plans. Instances are dense and candidate-pruned,
//! starting plans empty or partly filled, fills full or restricted to a
//! user subset. The worker count comes from `EPPLAN_THREADS`, so the
//! parallel candidate scan is covered when the suite runs at 4 threads.

use epplan::core::solver::filler::{fill_to_upper, try_fill_to_upper};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::prelude::*;
use epplan::solve::DeadlineFlag;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The filler's candidate order: utility, then lower user id, then
/// lower event id first.
#[derive(PartialEq)]
struct Candidate {
    utility: f64,
    user: UserId,
    event: EventId,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.utility
            .total_cmp(&other.utility)
            .then_with(|| Reverse(self.user).cmp(&Reverse(other.user)))
            .then_with(|| Reverse(self.event).cmp(&Reverse(other.event)))
    }
}

/// Reference fill: push every open (user, candidate event) pair into a
/// max-heap and pop them all, adding each pair the plan still admits.
fn heap_fill(instance: &Instance, plan: &mut Plan, users: Option<&[UserId]>) -> usize {
    let users: Vec<UserId> = match users {
        Some(us) => us.to_vec(),
        None => instance.user_ids().collect(),
    };
    let mut heap = BinaryHeap::new();
    for &u in &users {
        let (events, utils) = instance.candidates().row(u);
        for (&ei, &mu) in events.iter().zip(utils) {
            let e = EventId(ei);
            if plan.contains(u, e) || plan.attendance(e) >= instance.event(e).upper {
                continue;
            }
            heap.push(Candidate {
                utility: mu,
                user: u,
                event: e,
            });
        }
    }
    let mut added = 0;
    while let Some(c) = heap.pop() {
        if plan.attendance(c.event) >= instance.event(c.event).upper {
            continue;
        }
        if plan.contains(c.user, c.event) {
            continue;
        }
        if !instance.can_attend_with(c.user, plan.user_plan(c.user), c.event) {
            continue;
        }
        plan.add(c.user, c.event);
        added += 1;
    }
    added
}

/// SplitMix64 step, for drawing the starting plan and the user subset.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_5133_11eb);
    z ^ (z >> 31)
}

/// A hard-feasible starting plan: each candidate pair is tried with
/// probability `prefill_pct` percent and kept when the plan admits it.
fn starting_plan(instance: &Instance, prefill_pct: u64, state: &mut u64) -> Plan {
    let mut plan = Plan::for_instance(instance);
    for u in instance.user_ids() {
        let (events, _) = instance.candidates().row(u);
        for &ei in events {
            let e = EventId(ei);
            if next(state) % 100 >= prefill_pct {
                continue;
            }
            if plan.attendance(e) < instance.event(e).upper
                && instance.can_attend_with(u, plan.user_plan(u), e)
            {
                plan.add(u, e);
            }
        }
    }
    plan
}

/// A random subset of the users, in random order.
fn user_subset(instance: &Instance, state: &mut u64) -> Vec<UserId> {
    let mut users: Vec<UserId> = instance
        .user_ids()
        .filter(|_| next(state).is_multiple_of(3))
        .collect();
    for i in (1..users.len()).rev() {
        let j = (next(state) % (i as u64 + 1)) as usize;
        users.swap(i, j);
    }
    users
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sorted_fill_matches_heap_drain(
        n_users in 2usize..80,
        n_events in 1usize..14,
        seed in 0u64..10_000,
        pruned in 0u8..2,
        mean_upper in 2u32..9,
        start_mode in 0usize..3,
        restricted in 0u8..2,
    ) {
        // Empty, lightly filled or heavily filled starting plan.
        let prefill_pct = [0, 10, 45][start_mode];
        let instance = generate(&GeneratorConfig {
            n_users,
            n_events,
            seed,
            mean_lower: 1,
            mean_upper,
            candidate_pruned: pruned == 1,
            ..Default::default()
        });
        let mut state = seed ^ 0x5eed;
        let start = starting_plan(&instance, prefill_pct, &mut state);
        prop_assert!(start.validate(&instance).hard_ok());
        let subset = user_subset(&instance, &mut state);
        let users = (restricted == 1).then_some(subset.as_slice());

        let mut want = start.clone();
        let want_added = heap_fill(&instance, &mut want, users);
        let want_json = serde_json::to_string(&want).unwrap();

        let mut got = start.clone();
        let got_added = fill_to_upper(&instance, &mut got, users);
        prop_assert_eq!(got_added, want_added);
        prop_assert_eq!(serde_json::to_string(&got).unwrap(), want_json.clone());

        let mut got = start;
        let got_added = try_fill_to_upper(&instance, &mut got, users, &DeadlineFlag::unlimited())
            .unwrap();
        prop_assert_eq!(got_added, want_added);
        prop_assert_eq!(serde_json::to_string(&got).unwrap(), want_json);
    }
}
