//! Global plans and their validation/metrics.
//!
//! A global plan `P = {P_i : P_i ⊆ E}` assigns each user a set of
//! events (Section II). [`Plan`] maintains the per-user sets and the
//! per-event attendance counts `n_j`; [`Validation`] classifies every
//! constraint violation of Definition 1; metrics (global utility,
//! travel costs, the IEP negative impact [`dif`]) live alongside.

mod itinerary;
mod metrics;
mod stats;
mod validate;

pub use itinerary::{all_itineraries, Itinerary, Stop};
pub use metrics::dif;
pub use stats::{user_utilities, PlanStatistics};
pub use validate::{Validation, Violation};

use crate::model::{EventId, Instance, UserId};
use serde::{Content, DeError, Deserialize, Serialize};

/// One recorded change to a [`Plan`] (see [`Plan::begin_journal`]):
/// enough to undo it exactly, row order included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEdit {
    /// `event` was appended to `user`'s row.
    Added {
        /// The user whose row grew.
        user: UserId,
        /// The appended event.
        event: EventId,
    },
    /// `event` was removed from position `pos` of `user`'s row.
    Removed {
        /// The user whose row shrank.
        user: UserId,
        /// The removed event.
        event: EventId,
        /// Its index in the row before the removal.
        pos: usize,
    },
    /// The event dimension grew from `from` events.
    EventsGrown {
        /// Event count before the growth.
        from: usize,
    },
}

/// A global plan: one event set per user plus attendance counts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `assignments[u]` = events of user `u`, in insertion order,
    /// duplicate-free.
    assignments: Vec<Vec<EventId>>,
    /// `attendance[e]` = `n_e`, the number of users assigned to `e`.
    attendance: Vec<u32>,
    /// Edits recorded since [`Plan::begin_journal`]; `None` when not
    /// journaling. Takes no part in equality or serialization.
    journal: Option<Vec<PlanEdit>>,
}

impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.assignments == other.assignments && self.attendance == other.attendance
    }
}

impl Eq for Plan {}

// Hand-written (the serde shim has no `skip`): the derived layout for
// the two data fields, with the journal left out.
impl Serialize for Plan {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("assignments".to_string(), self.assignments.to_content()),
            ("attendance".to_string(), self.attendance.to_content()),
        ])
    }
}

impl Deserialize for Plan {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::new("expected map for `Plan`"))?;
        Ok(Plan {
            assignments: serde::__field(m, "assignments")?,
            attendance: serde::__field(m, "attendance")?,
            journal: None,
        })
    }
}

impl Plan {
    /// An empty plan for `n_users` users and `n_events` events.
    pub fn empty(n_users: usize, n_events: usize) -> Self {
        Plan {
            assignments: vec![Vec::new(); n_users],
            attendance: vec![0; n_events],
            journal: None,
        }
    }

    /// An empty plan shaped for `instance`.
    pub fn for_instance(instance: &Instance) -> Self {
        Plan::empty(instance.n_users(), instance.n_events())
    }

    /// Number of users the plan covers.
    pub fn n_users(&self) -> usize {
        self.assignments.len()
    }

    /// Number of events the plan covers.
    pub fn n_events(&self) -> usize {
        self.attendance.len()
    }

    /// Grows the event dimension (used after a `NewEvent` operation).
    pub fn resize_events(&mut self, n_events: usize) {
        assert!(n_events >= self.attendance.len(), "cannot shrink events");
        if n_events > self.attendance.len() {
            self.record(PlanEdit::EventsGrown {
                from: self.attendance.len(),
            });
        }
        self.attendance.resize(n_events, 0);
    }

    /// Starts recording every [`Plan::add`], [`Plan::remove`] and
    /// [`Plan::resize_events`] until [`Plan::end_journal`], so a
    /// repair made in place can be rolled back with [`Plan::undo`].
    pub fn begin_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Stops recording and returns the edits since
    /// [`Plan::begin_journal`], oldest first.
    pub fn end_journal(&mut self) -> Vec<PlanEdit> {
        self.journal.take().unwrap_or_default()
    }

    /// Reverts `edits` (as returned by [`Plan::end_journal`]), newest
    /// first, restoring the exact rows, row order and attendance from
    /// before them. The edits must be the most recent ones made.
    pub fn undo(&mut self, edits: &[PlanEdit]) {
        for edit in edits.iter().rev() {
            match *edit {
                PlanEdit::Added { user, event } => {
                    let popped = self.assignments[user.index()].pop();
                    debug_assert_eq!(popped, Some(event), "undo out of order");
                    self.attendance[event.index()] -= 1;
                }
                PlanEdit::Removed { user, event, pos } => {
                    self.assignments[user.index()].insert(pos, event);
                    self.attendance[event.index()] += 1;
                }
                PlanEdit::EventsGrown { from } => self.attendance.truncate(from),
            }
        }
    }

    fn record(&mut self, edit: PlanEdit) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(edit);
        }
    }

    /// The events of user `u` (insertion order).
    #[inline]
    pub fn user_plan(&self, u: UserId) -> &[EventId] {
        &self.assignments[u.index()]
    }

    /// Whether `u` attends `e`.
    pub fn contains(&self, u: UserId, e: EventId) -> bool {
        self.assignments[u.index()].contains(&e)
    }

    /// Attendance count `n_e`.
    #[inline]
    pub fn attendance(&self, e: EventId) -> u32 {
        self.attendance[e.index()]
    }

    /// The users assigned to `e`.
    pub fn attendees(&self, e: EventId) -> Vec<UserId> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, evs)| evs.contains(&e))
            .map(|(u, _)| UserId(u as u32))
            .collect()
    }

    /// Adds `e` to `u`'s plan. Returns `false` (and does nothing) when
    /// already present.
    pub fn add(&mut self, u: UserId, e: EventId) -> bool {
        let evs = &mut self.assignments[u.index()];
        if evs.contains(&e) {
            return false;
        }
        evs.push(e);
        self.attendance[e.index()] += 1;
        self.record(PlanEdit::Added { user: u, event: e });
        true
    }

    /// Removes `e` from `u`'s plan. Returns `false` when absent.
    pub fn remove(&mut self, u: UserId, e: EventId) -> bool {
        let evs = &mut self.assignments[u.index()];
        match evs.iter().position(|&x| x == e) {
            Some(pos) => {
                evs.remove(pos);
                self.attendance[e.index()] -= 1;
                self.record(PlanEdit::Removed {
                    user: u,
                    event: e,
                    pos,
                });
                true
            }
            None => false,
        }
    }

    /// Total number of (user, event) assignments.
    pub fn total_assignments(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Global utility `U_P = Σ_i Σ_{e ∈ P_i} μ(u_i, e)`.
    pub fn total_utility(&self, instance: &Instance) -> f64 {
        self.assignments
            .iter()
            .enumerate()
            .map(|(u, evs)| {
                evs.iter()
                    .map(|&e| instance.utility(UserId(u as u32), e))
                    .sum::<f64>()
            })
            .sum()
    }

    /// One user's utility `μ_i`.
    pub fn user_utility(&self, instance: &Instance, u: UserId) -> f64 {
        self.user_plan(u)
            .iter()
            .map(|&e| instance.utility(u, e))
            .sum()
    }

    /// One user's travel cost `D_i` under `instance`.
    pub fn travel_cost(&self, instance: &Instance, u: UserId) -> f64 {
        instance.travel_cost(u, self.user_plan(u))
    }

    /// Validates the plan against every GEPC constraint; see
    /// [`Validation`].
    pub fn validate(&self, instance: &Instance) -> Validation {
        validate::validate(self, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut p = Plan::empty(2, 3);
        assert!(p.add(UserId(0), EventId(1)));
        assert!(!p.add(UserId(0), EventId(1)), "duplicate add rejected");
        assert_eq!(p.attendance(EventId(1)), 1);
        assert!(p.contains(UserId(0), EventId(1)));
        assert!(p.remove(UserId(0), EventId(1)));
        assert!(!p.remove(UserId(0), EventId(1)));
        assert_eq!(p.attendance(EventId(1)), 0);
    }

    #[test]
    fn attendees_lists_users() {
        let mut p = Plan::empty(3, 1);
        p.add(UserId(0), EventId(0));
        p.add(UserId(2), EventId(0));
        assert_eq!(p.attendees(EventId(0)), vec![UserId(0), UserId(2)]);
        assert_eq!(p.attendance(EventId(0)), 2);
    }

    #[test]
    fn resize_events_grows() {
        let mut p = Plan::empty(1, 1);
        p.resize_events(3);
        assert_eq!(p.n_events(), 3);
        assert_eq!(p.attendance(EventId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn resize_events_shrink_panics() {
        let mut p = Plan::empty(1, 3);
        p.resize_events(1);
    }

    #[test]
    fn undo_restores_rows_order_and_attendance() {
        let mut p = Plan::empty(2, 2);
        p.add(UserId(0), EventId(0));
        p.add(UserId(0), EventId(1));
        p.add(UserId(1), EventId(1));
        let before = p.clone();
        p.begin_journal();
        p.remove(UserId(0), EventId(0));
        p.resize_events(3);
        p.add(UserId(0), EventId(2));
        p.add(UserId(0), EventId(0));
        p.remove(UserId(1), EventId(1));
        let edits = p.end_journal();
        assert_eq!(edits.len(), 5);
        p.add(UserId(1), EventId(0)); // not journaled
        p.remove(UserId(1), EventId(0));
        p.undo(&edits);
        assert_eq!(p, before);
        assert_eq!(p.user_plan(UserId(0)), &[EventId(0), EventId(1)]);
        assert_eq!(p.n_events(), 2);
        assert_eq!(
            serde_json::to_string(&p).unwrap(),
            serde_json::to_string(&before).unwrap()
        );
    }

    #[test]
    fn total_assignments_counts_pairs() {
        let mut p = Plan::empty(2, 2);
        p.add(UserId(0), EventId(0));
        p.add(UserId(0), EventId(1));
        p.add(UserId(1), EventId(0));
        assert_eq!(p.total_assignments(), 3);
    }
}
