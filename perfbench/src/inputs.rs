//! Workload inputs, made from the run's seed.
//!
//! Every workload starts from the default generator's instance cut out
//! to its size, with the generator's own fixed seed, and (for serve) the
//! op stream the default-seeded sampler draws on it. `--seed` draws a
//! relabeling: a permutation of user ids and one of event ids, applied
//! to the instance and to every op. Each seed thus poses a problem of
//! the same difficulty under different ids, so the program's iteration
//! orders and tie-breaks differ but run-to-run spreads stay within the
//! benchmark's bounds. Inputs drawn with different generator seeds
//! differ more between seeds than those bounds (see README.md).

use epplan_core::incremental::{AtomicOp, SequencedOp};
use epplan_core::model::{Event, EventId, Instance, UserId, UtilityMatrix};
use epplan_core::solver::{GepcSolver, GreedySolver};
use epplan_datagen::{generate, BurstSpec, GeneratorConfig, OpStreamSampler};

/// The generator's default seed, shared by the instance, the op
/// sampler and the greedy plan the sampler draws against.
const BASE_SEED: u64 = 42;

/// SplitMix64: a small seeded generator for the permutations.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

fn inverse(p: &[usize]) -> Vec<u32> {
    let mut inv = vec![0u32; p.len()];
    for (new, &old) in p.iter().enumerate() {
        inv[old] = new as u32;
    }
    inv
}

/// A relabeling of users and events: new id `a` is old id `users[a]`.
/// Events created later by ops keep their ids, which follow the
/// relabeled ones in the same order.
struct Relabel {
    users: Vec<usize>,
    events: Vec<usize>,
    user_of: Vec<u32>,
    event_of: Vec<u32>,
}

impl Relabel {
    fn draw(n_users: usize, n_events: usize, seed: u64) -> Self {
        let mut rng = SplitMix64(seed);
        let users = rng.permutation(n_users);
        let events = rng.permutation(n_events);
        Relabel {
            user_of: inverse(&users),
            event_of: inverse(&events),
            users,
            events,
        }
    }

    fn user(&self, u: UserId) -> UserId {
        UserId(self.user_of[u.0 as usize])
    }

    fn event(&self, e: EventId) -> EventId {
        EventId(self.event_of.get(e.0 as usize).copied().unwrap_or(e.0))
    }

    fn instance(&self, base: &Instance) -> Result<Instance, String> {
        let rows = self
            .users
            .iter()
            .map(|&u| {
                self.events
                    .iter()
                    .map(|&e| base.utility(UserId(u as u32), EventId(e as u32)))
                    .collect()
            })
            .collect();
        let users = self.users.iter().map(|&u| base.users()[u]).collect();
        let events: Vec<Event> = self.events.iter().map(|&e| base.events()[e]).collect();
        let utilities =
            UtilityMatrix::from_rows(rows).map_err(|e| format!("relabeled utilities: {e}"))?;
        Instance::new(users, events, utilities).map_err(|e| format!("relabeled instance: {e}"))
    }

    fn op(&self, op: &AtomicOp) -> AtomicOp {
        use AtomicOp::*;
        match op.clone() {
            EtaDecrease { event, new_upper } => EtaDecrease {
                event: self.event(event),
                new_upper,
            },
            EtaIncrease { event, new_upper } => EtaIncrease {
                event: self.event(event),
                new_upper,
            },
            XiIncrease { event, new_lower } => XiIncrease {
                event: self.event(event),
                new_lower,
            },
            XiDecrease { event, new_lower } => XiDecrease {
                event: self.event(event),
                new_lower,
            },
            TimeChange { event, new_time } => TimeChange {
                event: self.event(event),
                new_time,
            },
            LocationChange {
                event,
                new_location,
            } => LocationChange {
                event: self.event(event),
                new_location,
            },
            NewEvent { event, utilities } => NewEvent {
                event,
                utilities: self.users.iter().map(|&u| utilities[u]).collect(),
            },
            UtilityChange {
                user,
                event,
                new_utility,
            } => UtilityChange {
                user: self.user(user),
                event: self.event(event),
                new_utility,
            },
            BudgetChange { user, new_budget } => BudgetChange {
                user: self.user(user),
                new_budget,
            },
            FeeChange { event, new_fee } => FeeChange {
                event: self.event(event),
                new_fee,
            },
        }
    }
}

fn base_instance(users: usize, events: usize) -> Instance {
    generate(
        &GeneratorConfig::default()
            .cutout(users, events)
            .with_seed(BASE_SEED),
    )
}

/// The `users × events` instance under the relabeling drawn from `seed`.
pub fn instance(users: usize, events: usize, seed: u64) -> Result<Instance, String> {
    let base = base_instance(users, events);
    Relabel::draw(users, events, seed).instance(&base)
}

/// The instance and an `n_ops` op stream on it (ids from 1, dense or
/// in bursts), both under the relabeling drawn from `seed`.
pub fn served(
    users: usize,
    events: usize,
    seed: u64,
    n_ops: usize,
    burst: Option<BurstSpec>,
) -> Result<(Instance, Vec<SequencedOp>), String> {
    let base = base_instance(users, events);
    let plan0 = GreedySolver::seeded(BASE_SEED).solve(&base).plan;
    let mut sampler = OpStreamSampler::new(BASE_SEED);
    let ops = match burst {
        Some(b) => sampler.sequenced_burst_stream(&base, &plan0, n_ops, 1, b),
        None => sampler.sequenced_stream(&base, &plan0, n_ops, 1),
    };
    let relabel = Relabel::draw(users, events, seed);
    let ops = ops
        .iter()
        .map(|sop| SequencedOp::new(sop.id, relabel.op(&sop.op)))
        .collect();
    Ok((relabel.instance(&base)?, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epplan_core::incremental::IncrementalPlanner;

    #[test]
    fn relabeled_stream_keeps_the_base_utility() {
        let base = base_instance(60, 8);
        let plan0 = GreedySolver::seeded(BASE_SEED).solve(&base).plan;
        let ops = OpStreamSampler::new(BASE_SEED).stream(&base, &plan0, 40);
        let (inst, relabeled) = served(60, 8, 7, 40, None).expect("relabel");
        let mut a = (base.clone(), plan0.clone());
        // The relabeled greedy plan is the base plan under new ids.
        let r = Relabel::draw(60, 8, 7);
        let mut p = epplan_core::plan::Plan::for_instance(&inst);
        for u in base.user_ids() {
            for &e in plan0.user_plan(u) {
                p.add(r.user(u), r.event(e));
            }
        }
        let mut b = (inst, p);
        let planner = IncrementalPlanner;
        for (op, sop) in ops.iter().zip(&relabeled) {
            let oa = planner.apply(&a.0, &a.1, op);
            let ob = planner.apply(&b.0, &b.1, &sop.op);
            assert_eq!(oa.plan.total_assignments(), ob.plan.total_assignments());
            a = (oa.instance, oa.plan);
            b = (ob.instance, ob.plan);
        }
        let (ua, ub) = (a.1.total_utility(&a.0), b.1.total_utility(&b.0));
        assert!((ua - ub).abs() < 1e-6 * ua.max(1.0), "{ua} vs {ub}");
    }
}
