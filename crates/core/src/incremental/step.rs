//! The in-place IEP step: one atomic operation applied to the *live*
//! instance and plan, with an undo journal instead of a copy.
//!
//! The paper's repair algorithms (Algorithms 3–5 and the reductions
//! onto them) touch roughly `η` users per operation, so the step does
//! O(touched) work besides the repair itself: it overwrites the one
//! instance field the op names, runs the repair on the plan with the
//! plan's edit journal on, and returns a [`StepOutcome`] that can put
//! both back byte-for-byte. Every entry point — the `epplan serve`
//! daemon, WAL replay, batch application and the clone-returning
//! [`IncrementalPlanner`](super::IncrementalPlanner) wrappers — runs
//! through [`step`].

use super::{eta_decrease, repair, time_change, xi_increase, AtomicOp, IncrementalPlanner, STAGE};
use crate::model::{CandidateSet, Event, EventId, Instance, User, UserId};
use crate::plan::{Plan, PlanEdit};
use crate::solver::filler;
use epplan_solve::{BudgetGuard, SolveBudget, SolveError};

/// The pre-op value of the one instance field an op overwrote.
#[derive(Debug, Clone)]
enum Prior {
    /// Bounds, time window, venue or fee: the whole event record.
    Event(EventId, Event),
    /// Travel budget: the whole user record.
    User(UserId, User),
    /// One utility entry, as stored (`None`: absent from a sparse row).
    Utility(UserId, EventId, Option<f64>),
    /// A new event was appended.
    NewEvent,
}

/// What an op did to the instance's candidate cache.
#[derive(Debug)]
enum Cache {
    /// The op left the candidate predicate alone (bounds, time window),
    /// so whatever cache the instance holds stays valid on rollback.
    Kept,
    /// The op invalidated the cache; this is the one from before it.
    Dropped(Option<CandidateSet>),
}

/// Undo record of [`apply_in_place`]: enough to restore the instance
/// exactly, storage layout and candidate cache included.
#[derive(Debug)]
pub struct InstanceUndo {
    prior: Prior,
    cache: Cache,
}

impl InstanceUndo {
    /// Writes the pre-op value back. Must run before any later
    /// mutation of the same instance.
    pub fn rollback(self, instance: &mut Instance) {
        let live = instance.take_candidates();
        match self.prior {
            Prior::Event(e, event) => instance.restore_event(e, event),
            Prior::User(u, user) => instance.restore_user(u, user),
            Prior::Utility(u, e, stored) => instance.restore_utility(u, e, stored),
            Prior::NewEvent => instance.pop_event(),
        }
        instance.restore_candidates(match self.cache {
            Cache::Kept => live,
            Cache::Dropped(before) => before,
        });
    }
}

/// Applies `op`'s state transition to `instance` in place — no plan
/// repair, no fault points, no budget — and returns its undo record.
/// This is the single source of truth for "what the world looks like
/// after `op`": [`step`] composes it with the repair algorithms, and
/// the `epplan serve` full-re-solve fallback uses it directly when a
/// repair fails and the plan is rebuilt from scratch. `op` must
/// already be validated.
pub fn apply_in_place(instance: &mut Instance, op: &AtomicOp) -> InstanceUndo {
    let event_prior = |e: EventId| Prior::Event(e, *instance.event(e));
    let (prior, neutral) = match op {
        AtomicOp::EtaDecrease { event, .. }
        | AtomicOp::EtaIncrease { event, .. }
        | AtomicOp::XiIncrease { event, .. }
        | AtomicOp::XiDecrease { event, .. }
        | AtomicOp::TimeChange { event, .. } => (event_prior(*event), true),
        AtomicOp::LocationChange { event, .. } | AtomicOp::FeeChange { event, .. } => {
            (event_prior(*event), false)
        }
        AtomicOp::NewEvent { .. } => (Prior::NewEvent, false),
        AtomicOp::UtilityChange { user, event, .. } => (
            Prior::Utility(*user, *event, instance.stored_utility(*user, *event)),
            false,
        ),
        AtomicOp::BudgetChange { user, .. } => (Prior::User(*user, *instance.user(*user)), false),
    };
    let cache = if neutral {
        Cache::Kept
    } else {
        Cache::Dropped(instance.take_candidates())
    };
    match op {
        AtomicOp::EtaDecrease { event, new_upper } | AtomicOp::EtaIncrease { event, new_upper } => {
            let lower = instance.event(*event).lower.min(*new_upper);
            instance.set_event_bounds(*event, lower, *new_upper);
        }
        AtomicOp::XiIncrease { event, new_lower } => {
            let upper = instance.event(*event).upper.max(*new_lower);
            instance.set_event_bounds(*event, *new_lower, upper);
        }
        AtomicOp::XiDecrease { event, new_lower } => {
            let upper = instance.event(*event).upper;
            instance.set_event_bounds(*event, *new_lower, upper);
        }
        AtomicOp::TimeChange { event, new_time } => {
            instance.set_event_time(*event, *new_time);
        }
        AtomicOp::LocationChange {
            event,
            new_location,
        } => {
            instance.set_event_location(*event, *new_location);
        }
        AtomicOp::NewEvent { event, utilities } => {
            instance.add_event(*event, utilities);
        }
        AtomicOp::UtilityChange {
            user,
            event,
            new_utility,
        } => {
            instance.set_utility(*user, *event, *new_utility);
        }
        AtomicOp::BudgetChange { user, new_budget } => {
            instance.set_budget(*user, *new_budget);
        }
        AtomicOp::FeeChange { event, new_fee } => {
            instance.set_event_fee(*event, *new_fee);
        }
    }
    InstanceUndo { prior, cache }
}

/// A step that changed the live state and has not been undone.
///
/// Dropping it commits the step; [`StepOutcome::rollback`] restores
/// the exact pre-op instance and plan (their serializations included).
#[must_use = "a step is committed by dropping it; roll it back on a certification reject"]
#[derive(Debug)]
pub struct StepOutcome {
    /// Negative impact `dif(P, P′)` of the repair: pairs the pre-op
    /// plan had that the repaired plan lacks.
    pub dif: usize,
    instance: InstanceUndo,
    edits: Vec<PlanEdit>,
    /// The user an op on one user named.
    user: Option<UserId>,
    /// An event whose time window, venue or fee changed: every
    /// attendee's conflicts or travel cost may have moved.
    moved_event: Option<EventId>,
}

impl StepOutcome {
    /// The plan edits the repair made, oldest first.
    pub fn edits(&self) -> &[PlanEdit] {
        &self.edits
    }

    /// The users whose certification inputs or plan rows this step may
    /// have changed, ascending and distinct: every user in the edit
    /// journal, the user the op named, and the post-op attendees of an
    /// event whose time, venue or fee changed. Every other user's row
    /// and per-user inputs are untouched, which is what makes a delta
    /// certificate over these users sound.
    pub fn touched_users(&self, plan: &Plan) -> Vec<UserId> {
        let mut users: Vec<UserId> = self
            .edits
            .iter()
            .filter_map(|edit| match *edit {
                PlanEdit::Added { user, .. } | PlanEdit::Removed { user, .. } => Some(user),
                PlanEdit::EventsGrown { .. } => None,
            })
            .chain(self.user)
            .collect();
        if let Some(e) = self.moved_event {
            users.extend(plan.attendees(e));
        }
        users.sort_unstable();
        users.dedup();
        users
    }

    /// Undoes the step: the plan edits newest first, then the instance
    /// field. `instance` and `plan` must be the ones the step mutated,
    /// unchanged since.
    pub fn rollback(self, instance: &mut Instance, plan: &mut Plan) {
        plan.undo(&self.edits);
        self.instance.rollback(instance);
    }
}

/// Applies `op` to the live `(instance, plan)` and repairs the plan in
/// place with the paper's algorithm for it.
///
/// With a `budget`, one guard tick runs up front (so iteration caps and
/// pre-expired zero allowances trip before any work) and a deadline
/// check after the repair. Every failure — a malformed op (`BadInput`),
/// the `core.iep.apply` fault site, a tripped budget — leaves the
/// instance and plan exactly as they were: the pre-repair failures
/// happen before anything is mutated, and a deadline trip after the
/// repair rolls the step back. A caller that rejects a successful step
/// (e.g. on certification) rolls it back with
/// [`StepOutcome::rollback`]; so no caller ever sees a half-repaired
/// plan.
pub fn step(
    instance: &mut Instance,
    plan: &mut Plan,
    op: &AtomicOp,
    budget: Option<SolveBudget>,
) -> Result<StepOutcome, SolveError<()>> {
    let mut guard = budget.map(BudgetGuard::new);
    if let Some(g) = guard.as_mut() {
        g.tick(STAGE)?;
    }
    IncrementalPlanner::validate_op(instance, op)?;
    // Deterministic fault injection in front of the repair dispatch
    // (serial entry point, hit count thread-invariant).
    if let Some(action) = epplan_fault::point("core.iep.apply") {
        return Err(SolveError::from_fault(STAGE, "core.iep.apply", action));
    }
    // Per-operation repair cost: the measurement the incremental
    // tables (paper §V/§VI) are built from.
    let mut sp = epplan_obs::span("iep.apply");
    sp.add_iters(1);
    epplan_obs::counter_add("iep.ops", 1);
    let undo = apply_in_place(instance, op);
    plan.begin_journal();
    repair_in_place(instance, plan, op, &undo.prior);
    let edits = plan.end_journal();
    drop(sp);
    let out = StepOutcome {
        dif: lost_pairs(&edits, plan),
        instance: undo,
        edits,
        user: match op {
            AtomicOp::UtilityChange { user, .. } | AtomicOp::BudgetChange { user, .. } => {
                Some(*user)
            }
            _ => None,
        },
        moved_event: match op {
            AtomicOp::TimeChange { event, .. }
            | AtomicOp::LocationChange { event, .. }
            | AtomicOp::FeeChange { event, .. } => Some(*event),
            _ => None,
        },
    };
    if let Some(g) = &guard {
        // The repair finished but blew the deadline: the result must
        // not leak past a broken budget contract.
        if let Err(e) = g.check_deadline(STAGE) {
            out.rollback(instance, plan);
            return Err(e);
        }
    }
    Ok(out)
}

/// The repair dispatch. `instance` already carries the op; `prior`
/// holds the value it replaced (the fee and budget repairs depend on
/// the direction of the change).
fn repair_in_place(instance: &Instance, plan: &mut Plan, op: &AtomicOp, prior: &Prior) {
    match op {
        AtomicOp::EtaDecrease { event, .. } => {
            eta_decrease(instance, plan, *event);
        }
        AtomicOp::EtaIncrease { event, .. } => {
            // Pure addition: fill the new capacity, no negative impact
            // possible.
            repair::fill_event_to_upper(instance, plan, *event);
        }
        AtomicOp::XiIncrease { event, .. } => {
            xi_increase(instance, plan, *event);
        }
        AtomicOp::XiDecrease { .. } => {
            // The old plan remains feasible: nothing to repair.
        }
        AtomicOp::TimeChange { event, .. } => {
            time_change(instance, plan, *event);
        }
        AtomicOp::LocationChange { event, .. } => {
            // Same repair loop: the removal pass inside `time_change`
            // re-checks both conflicts and budgets, and only budgets can
            // newly fail here.
            time_change(instance, plan, *event);
        }
        AtomicOp::NewEvent { .. } => {
            // `apply_in_place` appended the event, so it carries the
            // highest id.
            let id = EventId((instance.n_events() - 1) as u32);
            plan.resize_events(instance.n_events());
            // Reduction per the paper: raise the lower bound from 0
            // (Algorithm 4), then fill spare capacity to η.
            if instance.event(id).lower > 0 {
                xi_increase(instance, plan, id);
            }
            repair::fill_event_to_upper(instance, plan, id);
        }
        AtomicOp::UtilityChange {
            user,
            event,
            new_utility,
        } => {
            if *new_utility <= 0.0 && plan.contains(*user, *event) {
                // The user can no longer attend (the paper's
                // availability example): remove, restore the lower bound
                // if broken, and let the user refill.
                plan.remove(*user, *event);
                if plan.attendance(*event) < instance.event(*event).lower {
                    xi_increase(instance, plan, *event);
                }
                filler::fill_to_upper(instance, plan, Some(&[*user]));
            } else if *new_utility > 0.0 && !plan.contains(*user, *event) {
                // Higher interest: take the event if it simply fits.
                if plan.attendance(*event) < instance.event(*event).upper
                    && instance.can_attend_with(*user, plan.user_plan(*user), *event)
                {
                    plan.add(*user, *event);
                }
            }
        }
        AtomicOp::FeeChange { event, new_fee } => {
            let old_fee = match prior {
                Prior::Event(_, before) => before.fee,
                _ => *new_fee,
            };
            if *new_fee > old_fee {
                // Same repair loop as a venue move: the removal pass
                // re-checks budgets (now including the higher fee) and
                // refills toward ξ/η.
                time_change(instance, plan, *event);
            } else if *new_fee < old_fee {
                // Cheaper event: purely additive refill.
                repair::fill_event_to_upper(instance, plan, *event);
            }
        }
        AtomicOp::BudgetChange { user, new_budget } => {
            let old_budget = match prior {
                Prior::User(_, before) => before.budget,
                _ => *new_budget,
            };
            if *new_budget < old_budget {
                let dropped = repair::shed_to_budget(instance, plan, *user);
                for e in dropped {
                    if plan.attendance(e) < instance.event(e).lower {
                        xi_increase(instance, plan, e);
                    }
                }
                // A cheaper event might still fit the shrunken budget.
                filler::fill_to_upper(instance, plan, Some(&[*user]));
            } else if *new_budget > old_budget {
                filler::fill_to_upper(instance, plan, Some(&[*user]));
            }
        }
    }
}

/// `dif` from the edit journal alone: a `(user, event)` pair is lost
/// when its first edit removed it (so the pre-op plan had it) and the
/// repaired plan no longer has it.
fn lost_pairs(edits: &[PlanEdit], plan: &Plan) -> usize {
    let mut firsts: Vec<(UserId, EventId, usize, bool)> = edits
        .iter()
        .enumerate()
        .filter_map(|(k, edit)| match *edit {
            PlanEdit::Added { user, event } => Some((user, event, k, false)),
            PlanEdit::Removed { user, event, .. } => Some((user, event, k, true)),
            PlanEdit::EventsGrown { .. } => None,
        })
        .collect();
    firsts.sort_unstable_by_key(|&(u, e, k, _)| (u, e, k));
    firsts.dedup_by_key(|&mut (u, e, _, _)| (u, e));
    firsts
        .iter()
        .filter(|&&(u, e, _, was_present)| was_present && !plan.contains(u, e))
        .count()
}
