//! Wake plumbing: which queues a notification reaches and how it is
//! recorded.
//!
//! The ticketed FIFO discipline itself lives in
//! [`amf_concurrency::TicketQueue`] — the moderator holds one per
//! method in its group's cell and this module bridges the moderator's
//! [`WakeMode`] onto it. Under [`FairnessPolicy::Fifo`] a notification
//! is recorded as *queue state* first (a head-of-queue signal or a
//! broadcast sweep) and only then pulsed through the method's
//! [`Waiter`] waitpoint, so which waiter evaluates next is decided by
//! the queue, not by whichever thread the waitpoint wakes.
//!
//! [`Waiter`]: amf_concurrency::Waiter

use amf_concurrency::TicketQueue;

use super::cell::{CellState, FastLane};
use super::stats::{inc, StatShard};
use super::{AspectModerator, FairnessPolicy, WakeMode};
use crate::bank::MethodIndex;
use crate::concern::MethodId;
use crate::trace::EventKind;

/// Which wait queues a method's post-activation notifies: registry
/// indices in the registry's copy, local row indices in the cell's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(super) enum WakeTargets {
    /// Notify every declared method's queue (safe default); such a
    /// method joins every coordination group.
    #[default]
    All,
    /// Notify exactly these methods' queues (the paper wires open→assign
    /// and assign→open by hand; [`AspectModerator::wire_wakes`] does the
    /// same declaratively).
    Wired(Vec<MethodIndex>),
}

/// Records one notification on a method's FIFO queue: a broadcast sweep
/// under [`WakeMode::NotifyAll`], a single head-of-queue permit under
/// [`WakeMode::NotifyOne`].
pub(super) fn wake_queue(queue: &mut TicketQueue, mode: WakeMode) {
    match mode {
        WakeMode::NotifyAll => queue.wake_all(),
        WakeMode::NotifyOne => queue.wake_one(),
    }
}

/// Recomputes and publishes one method's fast-lane state. The single
/// authority for *opening* the lane — the full predicate, checked under
/// the cell lock:
///
/// 1. the row's cached capability conjunction holds
///    ([`AspectBank::fast_path_eligible`](crate::AspectBank), revoked
///    by any contained panic),
/// 2. the ticket queue has no waiters **and no unserved grants** (the
///    departure that drains the FIFO queue is the one that reopens the
///    lane — a batched grant still being consumed keeps it closed, so
///    batched admission and timeout cancellation compose),
/// 3. nobody is parked outside the queue (the barging discipline),
/// 4. the method's completion notifies no one
///    ([`WakeTargets::Wired`] and empty — a fast departure skips the
///    post-activation notify, which is only sound if there is no one
///    to notify),
/// 5. no slot of the row is quarantined.
///
/// Closing, by contrast, is *eager*: the slow path calls
/// [`FastLane::close`] directly before any waiter enqueues or parks,
/// and a contained panic closes the lane inside `note_panic`. This
/// function then merely confirms the closed state until the last
/// pending waiter departs.
pub(super) fn refresh_lane(state: &CellState, lane: &FastLane, slot: MethodIndex) {
    let row = &state.rows[slot.as_usize()];
    let clear = state.bank.fast_path_eligible(slot)
        && row.queue.is_empty()
        && !row.queue.has_pending()
        && row.parked == 0
        && matches!(&row.wakes, WakeTargets::Wired(t) if t.is_empty())
        && row.faults.values().all(|f| !f.quarantined);
    if clear {
        lane.open();
    } else {
        lane.close();
    }
}

impl AspectModerator {
    /// Wakes one row's waiters: the method's own waitpoint after its
    /// postactions (module docs: self-wake), or a wired target's inside
    /// [`notify_targets`](Self::notify_targets). The caller holds the
    /// cell lock. Neither counted in [`ModeratorStats::notifications`]
    /// nor traced as [`EventKind::NotificationSent`] here: `wire_wakes`
    /// semantics (and the tests pinning them) describe cross-method
    /// notifications only, which `notify_targets` counts and traces.
    ///
    /// Under [`FairnessPolicy::Fifo`] the wake is recorded as a queue
    /// permit first; the waitpoint broadcast only tells parked waiters
    /// to re-check their eligibility.
    ///
    /// [`ModeratorStats::notifications`]: super::ModeratorStats::notifications
    pub(super) fn wake_row(&self, state: &mut CellState, slot: MethodIndex) {
        let row = &mut state.rows[slot.as_usize()];
        match self.fairness {
            FairnessPolicy::Barging => match self.wake_mode {
                WakeMode::NotifyAll => row.point.wake_all(),
                WakeMode::NotifyOne => row.point.wake_one(),
            },
            FairnessPolicy::Fifo => {
                wake_queue(&mut row.queue, self.wake_mode);
                row.point.wake_all();
            }
        }
    }

    /// Notifies the wait queues `slot`'s wiring names. Every target
    /// lives in the same coordination group, so this runs under the one
    /// cell lock the caller already holds: the postaction and its notify
    /// are a single atomic step, and no waiter can evaluate between them.
    pub(super) fn notify_targets(
        &self,
        state: &mut CellState,
        slot: MethodIndex,
        stats: &StatShard,
        invocation: u64,
        source: &MethodId,
    ) {
        let count = match &state.rows[slot.as_usize()].wakes {
            WakeTargets::All => state.rows.len(),
            WakeTargets::Wired(targets) => targets.len(),
        };
        for i in 0..count {
            let target = match &state.rows[slot.as_usize()].wakes {
                WakeTargets::All => MethodIndex(i),
                WakeTargets::Wired(targets) => targets[i],
            };
            self.wake_row(state, target);
            if self.trace.is_some() {
                let target_id = state.bank.method_id(target).clone();
                self.emit(
                    invocation,
                    source,
                    None,
                    EventKind::NotificationSent(target_id),
                );
            }
            inc(&stats.notifications);
        }
    }
}
