//! The activation protocol: chain evaluation, pre-activation (blocking,
//! timed and non-blocking), rollback, and post-activation.
//!
//! Everything here runs against the engine-agnostic waitpoint of the
//! method's cell ([`Waiter`]) and the shared ticketed FIFO discipline
//! ([`TicketQueue`](amf_concurrency::TicketQueue)); no concrete parking
//! primitive is named. See the module docs in [`super`] for the
//! locking model and the fairness/batching disciplines.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use amf_concurrency::Grant;

use super::cell::{CellState, FastAdmit, Resolved};
use super::fault::panic_message;
use super::queue::refresh_lane;
use super::stats::inc;
use super::{
    AspectModerator, FairnessPolicy, MethodHandle, OrderingPolicy, PanicPolicy, RollbackPolicy,
    ROLLBACK_RECHECK,
};
use crate::aspect::ReleaseCause;
use crate::bank::MethodIndex;
use crate::concern::Concern;
use crate::context::InvocationContext;
use crate::error::AbortError;
use crate::trace::EventKind;
use crate::verdict::Verdict;

/// Outcome of one pass over a method's precondition chain. `released`
/// counts the rollback releases the pass performed; a non-zero count
/// obliges the caller to send a rollback notification (module docs).
pub(super) enum ChainOutcome {
    Resumed,
    Blocked {
        released: usize,
    },
    Aborted {
        concern: Concern,
        reason: crate::verdict::AbortReason,
        released: usize,
        /// True when the abort is a contained aspect panic rather than a
        /// `Verdict::Abort`; surfaced as [`AbortError::AspectPanicked`].
        panicked: bool,
    },
}

impl AspectModerator {
    /// Index of the `pos`-th aspect (of `n`) in precondition order.
    #[inline]
    pub(super) fn pre_index(&self, pos: usize, n: usize) -> usize {
        match self.ordering {
            OrderingPolicy::Nested => n - 1 - pos,
            OrderingPolicy::Declaration => pos,
        }
    }

    /// Index of the `pos`-th aspect (of `n`) in postaction order —
    /// the reverse of the precondition order (proper nesting).
    #[inline]
    pub(super) fn post_index(&self, pos: usize, n: usize) -> usize {
        match self.ordering {
            OrderingPolicy::Nested => pos,
            OrderingPolicy::Declaration => n - 1 - pos,
        }
    }

    /// One pass over the chain, under the method's cell lock. On
    /// `Blocked` or `Aborted`, earlier-resumed aspects have been released
    /// per policy and the release count is reported in the outcome.
    ///
    /// Under a containing [`PanicPolicy`] each precondition runs inside
    /// `catch_unwind`; a panic is treated as an abort at that position
    /// (same prefix rollback), and quarantined slots are skipped
    /// (evaluate as `Resume` without running).
    pub(super) fn evaluate_chain(
        &self,
        state: &mut CellState,
        slot: MethodIndex,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        r: &Resolved,
    ) -> ChainOutcome {
        let n = state.bank.concern_count(slot);
        let traced = self.trace.is_some();
        let contain = self.panic_policy != PanicPolicy::Propagate;
        let CellState {
            bank,
            queues,
            faults,
            ..
        } = state;
        let row = bank.row_mut(slot);
        let queue = &mut queues[slot.as_usize()];
        let fault_map = &mut faults[slot.as_usize()];
        for pos in 0..n {
            let idx = self.pre_index(pos, n);
            let (concern, aspect) = &mut row.aspects[idx];
            if contain && Self::is_quarantined(fault_map, concern) {
                continue;
            }
            let verdict = if contain {
                match catch_unwind(AssertUnwindSafe(|| aspect.precondition(ctx))) {
                    Ok(v) => v,
                    Err(payload) => {
                        let concern = concern.clone();
                        let message = panic_message(payload.as_ref());
                        self.note_panic(
                            fault_map,
                            queue,
                            &r.point,
                            &r.lane,
                            &mut row.fast_eligible,
                            &method.id,
                            &concern,
                            ctx.invocation(),
                            &r.stats,
                        );
                        // Same compensation path as a mid-chain Abort:
                        // unwind the already-evaluated prefix so no
                        // reservation leaks past the panic.
                        let released = self.release_prefix(
                            row,
                            fault_map,
                            queue,
                            pos,
                            n,
                            ctx,
                            ReleaseCause::Aborted,
                            r,
                        );
                        return ChainOutcome::Aborted {
                            concern,
                            reason: crate::verdict::AbortReason::new(message),
                            released,
                            panicked: true,
                        };
                    }
                }
            } else {
                aspect.precondition(ctx)
            };
            match verdict {
                Verdict::Resume => {
                    if traced {
                        let concern = concern.clone();
                        self.emit(
                            ctx.invocation(),
                            &method.id,
                            Some(concern),
                            EventKind::PreconditionResumed,
                        );
                    }
                }
                Verdict::Block => {
                    if traced {
                        let concern = concern.clone();
                        self.emit(
                            ctx.invocation(),
                            &method.id,
                            Some(concern),
                            EventKind::PreconditionBlocked,
                        );
                    }
                    let released = self.release_prefix(
                        row,
                        fault_map,
                        queue,
                        pos,
                        n,
                        ctx,
                        ReleaseCause::Blocked,
                        r,
                    );
                    return ChainOutcome::Blocked { released };
                }
                Verdict::Abort(reason) => {
                    let concern = concern.clone();
                    if traced {
                        self.emit(
                            ctx.invocation(),
                            &method.id,
                            Some(concern.clone()),
                            EventKind::PreconditionAborted,
                        );
                    }
                    let released = self.release_prefix(
                        row,
                        fault_map,
                        queue,
                        pos,
                        n,
                        ctx,
                        ReleaseCause::Aborted,
                        r,
                    );
                    return ChainOutcome::Aborted {
                        concern,
                        reason,
                        released,
                        panicked: false,
                    };
                }
            }
        }
        ChainOutcome::Resumed
    }

    /// Releases the `evaluated` already-resumed aspects (precondition
    /// positions `0..evaluated`) in reverse evaluation order — unwinding
    /// the onion. Returns the number of release deliveries attempted.
    ///
    /// Under a containing [`PanicPolicy`], quarantined slots are skipped
    /// (their precondition never ran in this pass, so there is nothing
    /// to undo) and a panicking `on_release` is caught and counted so
    /// the unwind still reaches every remaining aspect in the prefix.
    #[allow(clippy::too_many_arguments)]
    fn release_prefix(
        &self,
        row: &mut crate::bank::MethodRow,
        fault_map: &mut std::collections::HashMap<Concern, super::fault::SlotFault>,
        queue: &mut amf_concurrency::TicketQueue,
        evaluated: usize,
        n: usize,
        ctx: &InvocationContext,
        cause: ReleaseCause,
        r: &Resolved,
    ) -> usize {
        if self.rollback == RollbackPolicy::None {
            return 0;
        }
        let contain = self.panic_policy != PanicPolicy::Propagate;
        let mut attempted = 0;
        for pos in (0..evaluated).rev() {
            let idx = self.pre_index(pos, n);
            let (concern, aspect) = &mut row.aspects[idx];
            if contain && Self::is_quarantined(fault_map, concern) {
                continue;
            }
            attempted += 1;
            let delivered = if contain {
                catch_unwind(AssertUnwindSafe(|| aspect.on_release(ctx, cause))).is_ok()
            } else {
                aspect.on_release(ctx, cause);
                true
            };
            if delivered {
                inc(&r.stats.releases);
                if self.trace.is_some() {
                    self.emit(
                        ctx.invocation(),
                        ctx.method(),
                        Some(concern.clone()),
                        EventKind::AspectReleased,
                    );
                }
            } else {
                let concern = concern.clone();
                self.note_panic(
                    fault_map,
                    queue,
                    &r.point,
                    &r.lane,
                    &mut row.fast_eligible,
                    ctx.method(),
                    &concern,
                    ctx.invocation(),
                    &r.stats,
                );
            }
        }
        attempted
    }

    /// Runs the pre-activation phase for one invocation, blocking until
    /// every registered aspect resumes.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] if any aspect's precondition aborts.
    pub fn preactivation(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
    ) -> Result<(), AbortError> {
        self.preactivation_inner(method, ctx, None)
    }

    /// Like [`AspectModerator::preactivation`] but gives up after
    /// `timeout` spent blocked.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] on an aspect abort, [`AbortError::Timeout`]
    /// if the timeout elapses while blocked.
    pub fn preactivation_timeout(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        timeout: std::time::Duration,
    ) -> Result<(), AbortError> {
        self.preactivation_inner(method, ctx, Some(self.clock.now() + timeout))
    }

    fn preactivation_inner(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        deadline: Option<Duration>,
    ) -> Result<(), AbortError> {
        if self.admit_fast(method, ctx) == FastAdmit::Admitted {
            return Ok(());
        }
        let r = self.resolve(method);
        match self.fairness {
            FairnessPolicy::Barging => self.preactivation_barging(&r, method, ctx, deadline),
            FairnessPolicy::Fifo => self.preactivation_fifo(&r, method, ctx, deadline),
        }
    }

    /// Two-phase admission, phase one: a single CAS on the method's
    /// lane word. A successful CAS *proves* the lane was open at the
    /// admission instant — the whole eligibility predicate is encoded
    /// in the word, so there is no check-then-act window. The chain
    /// is not evaluated at all: every aspect of an eligible row has
    /// declared its callbacks pure, so skipping them is unobservable.
    ///
    /// The attempt runs under the registry read guard so the
    /// uncontended hot path never clones an `Arc` out of the registry:
    /// an admitted invocation costs one read-lock round trip, the
    /// admission CAS and its stat bumps — [`resolve`] (four
    /// reference-count increments and their matching drops) is paid
    /// only on the locked path. Trace events fire after the guard
    /// drops so a sink can safely re-enter the moderator.
    ///
    /// On `Admitted` the context owes a lock-free lane release.
    ///
    /// [`resolve`]: AspectModerator::resolve
    fn admit_fast(&self, method: &MethodHandle, ctx: &mut InvocationContext) -> FastAdmit {
        let verdict = {
            let registry = self.registry.read();
            registry.check(method);
            let entry = &registry.entries[method.index.as_usize()];
            inc(&entry.stats.preactivations);
            let verdict = entry.lane.try_admit();
            match verdict {
                FastAdmit::Admitted => {
                    inc(&entry.stats.fast_path_admits);
                    inc(&entry.stats.resumes);
                    ctx.fast_admitted = true;
                }
                FastAdmit::Contended => inc(&entry.stats.fast_path_fallbacks),
                FastAdmit::Closed => {}
            }
            verdict
        };
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::PreactivationStarted,
        );
        if verdict == FastAdmit::Admitted {
            self.emit(
                ctx.invocation(),
                &method.id,
                None,
                EventKind::ActivationResumed,
            );
        }
        verdict
    }

    fn preactivation_barging(
        &self,
        r: &Resolved,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        deadline: Option<Duration>,
    ) -> Result<(), AbortError> {
        let mut state = r.cell.state.lock();
        // Set on the first block; drives the wait histogram and the
        // queue-depth gauge. All readings come from the moderator's
        // clock so a virtual-time engine sees consistent deadlines.
        let mut blocked_at: Option<Duration> = None;
        loop {
            match self.evaluate_chain(&mut state, r.slot, method, ctx, r) {
                ChainOutcome::Resumed => {
                    if let Some(start) = blocked_at {
                        r.stats.note_unparked();
                        r.stats.record_wait(self.clock.now().saturating_sub(start));
                        state.parked[r.slot.as_usize()] -= 1;
                        refresh_lane(&state, &r.lane, r.slot);
                    }
                    inc(&r.stats.resumes);
                    self.emit(
                        ctx.invocation(),
                        &method.id,
                        None,
                        EventKind::ActivationResumed,
                    );
                    return Ok(());
                }
                ChainOutcome::Aborted {
                    concern,
                    reason,
                    released,
                    panicked,
                } => {
                    if blocked_at.is_some() {
                        r.stats.note_unparked();
                        state.parked[r.slot.as_usize()] -= 1;
                        refresh_lane(&state, &r.lane, r.slot);
                    }
                    inc(&r.stats.aborts);
                    self.emit(
                        ctx.invocation(),
                        &method.id,
                        None,
                        EventKind::ActivationAborted,
                    );
                    let plan = (released > 0).then(|| state.wakes[r.slot.as_usize()].clone());
                    if plan.is_some() {
                        self.wake_own(&mut state, r.slot, &r.point);
                    }
                    drop(state);
                    if let Some(targets) = plan {
                        self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
                    }
                    return Err(Self::abort_error(&method.id, concern, reason, panicked));
                }
                ChainOutcome::Blocked { released } => {
                    inc(&r.stats.blocks);
                    if blocked_at.is_none() {
                        blocked_at = Some(self.clock.now());
                        r.stats.note_parked();
                        // Close the lane *before* this caller first
                        // parks: a CAS admission must never overtake a
                        // parked waiter. Reopened only by the departure
                        // that leaves the cell waiter-free
                        // (`refresh_lane`).
                        r.lane.close();
                        state.parked[r.slot.as_usize()] += 1;
                    }
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                    let mut backstop = None;
                    if released > 0 {
                        // Rollback notification: another method's chain
                        // may have blocked against the reservation this
                        // pass just rolled back. Wake our targets, then
                        // park with a short recheck backstop to close
                        // the unlocked window (module docs).
                        let targets = state.wakes[r.slot.as_usize()].clone();
                        self.wake_own(&mut state, r.slot, &r.point);
                        drop(state);
                        self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
                        state = r.cell.state.lock();
                        backstop = Some(self.clock.now() + ROLLBACK_RECHECK);
                    }
                    let wait_until = match (deadline, backstop) {
                        (Some(d), Some(b)) => Some(d.min(b)),
                        (Some(d), None) => Some(d),
                        (None, b) => b,
                    };
                    match wait_until {
                        None => r.point.park(&mut state),
                        Some(until) => {
                            let remaining = until.saturating_sub(self.clock.now());
                            let timed_out = r.point.park_for(&mut state, remaining);
                            if timed_out && deadline.is_some_and(|d| self.clock.now() >= d) {
                                r.stats.note_unparked();
                                state.parked[r.slot.as_usize()] -= 1;
                                inc(&r.stats.timeouts);
                                // Let enrollment-style aspects (admission
                                // queues) forget this invocation.
                                self.cancel_all(
                                    &mut state, r.slot, &method.id, ctx, &r.point, &r.lane,
                                    &r.stats,
                                );
                                refresh_lane(&state, &r.lane, r.slot);
                                self.emit(
                                    ctx.invocation(),
                                    &method.id,
                                    None,
                                    EventKind::ActivationAborted,
                                );
                                return Err(AbortError::Timeout {
                                    method: method.id.clone(),
                                });
                            }
                        }
                    }
                    inc(&r.stats.wakeups);
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitWoken);
                }
            }
        }
    }

    /// Pre-activation under [`FairnessPolicy::Fifo`].
    ///
    /// The caller evaluates its chain only while holding a *grant*: its
    /// first pass with an empty queue, a queue permit naming its ticket
    /// (head signal or sweep cursor — including a batched extension left
    /// by a departing predecessor), or the rollback-recheck backstop.
    /// A caller arriving to a non-empty queue takes a ticket and parks
    /// without evaluating — even if its chain would resume — which is
    /// what prevents barging. Queue order equals ticket order equals
    /// park order, all maintained under the cell lock.
    ///
    /// With [`ModeratorBuilder::grant_batching`] enabled (the default),
    /// a departing holder whose settle leaves no permit pending extends
    /// its grant to the new queue front
    /// ([`TicketQueue::settle`](amf_concurrency::TicketQueue::settle)):
    /// when one wake freed k resources, the front-k prefix drains in one
    /// continuous cursor-ordered sweep of the cell lock — each admission
    /// settles under the lock its predecessor just released — instead of
    /// k separate notification round trips. Successful batched
    /// admissions are counted in [`ModeratorStats::batched_grants`].
    ///
    /// On `Blocked { released > 0 }` the caller is already ticketed, so
    /// cross-cell notifications landing while the lock is dropped for
    /// the rollback notification persist as queue permits; its own
    /// re-check still uses the [`ROLLBACK_RECHECK`] backstop (an
    /// out-of-band grant, the one documented exception to strict FIFO),
    /// because granting itself a permit would let a head-of-queue
    /// rollback loop spin hot.
    ///
    /// [`ModeratorBuilder::grant_batching`]: super::ModeratorBuilder::grant_batching
    /// [`ModeratorStats::batched_grants`]: super::ModeratorStats::batched_grants
    fn preactivation_fifo(
        &self,
        r: &Resolved,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
        deadline: Option<Duration>,
    ) -> Result<(), AbortError> {
        let slot = r.slot.as_usize();
        let mut state = r.cell.state.lock();
        let mut ticket: Option<u64> = None;
        let mut blocked_at: Option<Duration> = None;
        let mut backstop: Option<Duration> = None;
        loop {
            let grant = match ticket {
                None => (!state.queues[slot].has_waiters()).then_some(Grant::First),
                Some(t) => state.queues[slot].grant_for(t).or_else(|| {
                    backstop
                        .is_some_and(|b| self.clock.now() >= b)
                        .then_some(Grant::Backstop)
                }),
            };
            let Some(grant) = grant else {
                if ticket.is_none() {
                    // Barging prevention: earlier tickets are waiting,
                    // so this caller may not evaluate (and possibly
                    // reserve) ahead of them. Queue up and park — lane
                    // closed first, so no CAS admission overtakes the
                    // ticket about to be issued.
                    r.lane.close();
                    ticket = Some(state.queues[slot].enqueue());
                    inc(&r.stats.blocks);
                    inc(&r.stats.tickets_issued);
                    r.stats.note_parked();
                    blocked_at = Some(self.clock.now());
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                    continue;
                }
                let wait_until = match (deadline, backstop) {
                    (Some(d), Some(b)) => Some(d.min(b)),
                    (Some(d), None) => Some(d),
                    (None, b) => b,
                };
                match wait_until {
                    None => r.point.park(&mut state),
                    Some(until) => {
                        let remaining = until.saturating_sub(self.clock.now());
                        let timed_out = r.point.park_for(&mut state, remaining);
                        if timed_out && deadline.is_some_and(|d| self.clock.now() >= d) {
                            // Surrender the ticket. `cancel` re-attaches
                            // pending permits to the successor, so the
                            // cancellation strands nobody; broadcast so
                            // the new head notices its inheritance.
                            let q = &mut state.queues[slot];
                            q.cancel(ticket.expect("timed out while ticketed"));
                            if q.has_pending() && q.has_waiters() {
                                r.point.wake_all();
                            }
                            r.stats.note_unparked();
                            inc(&r.stats.timeouts);
                            self.cancel_all(
                                &mut state, r.slot, &method.id, ctx, &r.point, &r.lane, &r.stats,
                            );
                            refresh_lane(&state, &r.lane, r.slot);
                            self.emit(
                                ctx.invocation(),
                                &method.id,
                                None,
                                EventKind::ActivationAborted,
                            );
                            return Err(AbortError::Timeout {
                                method: method.id.clone(),
                            });
                        }
                    }
                }
                continue;
            };
            if ticket.is_some() {
                inc(&r.stats.wakeups);
                self.emit(ctx.invocation(), &method.id, None, EventKind::WaitWoken);
            }
            if grant == Grant::Backstop {
                // One out-of-band re-check per arming; re-armed below
                // only if this evaluation rolls back again.
                backstop = None;
            }
            match self.evaluate_chain(&mut state, r.slot, method, ctx, r) {
                ChainOutcome::Resumed => {
                    if let Some(t) = ticket {
                        let q = &mut state.queues[slot];
                        if q.settle(t, grant, true) {
                            inc(&r.stats.batched_grants);
                        }
                        inc(&r.stats.tickets_served);
                        r.stats.note_unparked();
                        if q.has_pending() && q.has_waiters() {
                            r.point.wake_all();
                        }
                        // This departure may have drained the queue —
                        // the one transition allowed to reopen the lane.
                        refresh_lane(&state, &r.lane, r.slot);
                    }
                    if let Some(start) = blocked_at {
                        r.stats.record_wait(self.clock.now().saturating_sub(start));
                    }
                    inc(&r.stats.resumes);
                    self.emit(
                        ctx.invocation(),
                        &method.id,
                        None,
                        EventKind::ActivationResumed,
                    );
                    return Ok(());
                }
                ChainOutcome::Aborted {
                    concern,
                    reason,
                    released,
                    panicked,
                } => {
                    if let Some(t) = ticket {
                        let q = &mut state.queues[slot];
                        if q.settle(t, grant, true) {
                            inc(&r.stats.batched_grants);
                        }
                        r.stats.note_unparked();
                        if q.has_pending() && q.has_waiters() {
                            r.point.wake_all();
                        }
                        refresh_lane(&state, &r.lane, r.slot);
                    }
                    inc(&r.stats.aborts);
                    self.emit(
                        ctx.invocation(),
                        &method.id,
                        None,
                        EventKind::ActivationAborted,
                    );
                    let plan = (released > 0).then(|| state.wakes[slot].clone());
                    if plan.is_some() {
                        self.wake_own(&mut state, r.slot, &r.point);
                    }
                    drop(state);
                    if let Some(targets) = plan {
                        self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
                    }
                    return Err(Self::abort_error(&method.id, concern, reason, panicked));
                }
                ChainOutcome::Blocked { released } => {
                    match ticket {
                        Some(t) => {
                            let q = &mut state.queues[slot];
                            q.settle(t, grant, false);
                            // A sweep's cursor moved on to a successor,
                            // which may have re-parked after the broadcast
                            // that started the sweep: wake it.
                            if q.has_pending() && q.has_waiters() {
                                r.point.wake_all();
                            }
                        }
                        None => {
                            r.lane.close();
                            ticket = Some(state.queues[slot].enqueue());
                            inc(&r.stats.tickets_issued);
                            r.stats.note_parked();
                            blocked_at = Some(self.clock.now());
                        }
                    }
                    inc(&r.stats.blocks);
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                    if released > 0 {
                        // Rollback notification (module docs). No
                        // own-queue permit: our successors cannot pass
                        // us anyway, and self-granting would make a
                        // blocked queue head spin on its own rollback.
                        let targets = state.wakes[slot].clone();
                        drop(state);
                        self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
                        state = r.cell.state.lock();
                        backstop = Some(self.clock.now() + ROLLBACK_RECHECK);
                    }
                }
            }
        }
    }

    /// Non-blocking pre-activation: evaluates the chain once and
    /// returns `Ok(false)` instead of parking if any aspect blocks
    /// (earlier reservations are rolled back per policy). `Ok(true)`
    /// means the activation resumed and post-activation is owed.
    ///
    /// # Errors
    ///
    /// [`AbortError::Aspect`] if an aspect's precondition aborts.
    pub fn try_preactivation(
        &self,
        method: &MethodHandle,
        ctx: &mut InvocationContext,
    ) -> Result<bool, AbortError> {
        // Same CAS fast lane as the blocking form; the lane-open
        // predicate subsumes barging prevention (the lane closes before
        // any ticket is issued), so a successful admit cannot overtake
        // a ticketed waiter.
        if self.admit_fast(method, ctx) == FastAdmit::Admitted {
            return Ok(true);
        }
        let r = self.resolve(method);
        let mut state = r.cell.state.lock();
        if self.fairness == FairnessPolicy::Fifo && state.queues[r.slot.as_usize()].has_waiters() {
            // Barging prevention applies to the non-blocking form too:
            // evaluating (and possibly reserving) ahead of ticketed
            // waiters would be exactly the overtake Fifo forbids.
            inc(&r.stats.would_blocks);
            self.emit(
                ctx.invocation(),
                &method.id,
                None,
                EventKind::ActivationAborted,
            );
            return Ok(false);
        }
        match self.evaluate_chain(&mut state, r.slot, method, ctx, &r) {
            ChainOutcome::Resumed => {
                inc(&r.stats.resumes);
                self.emit(
                    ctx.invocation(),
                    &method.id,
                    None,
                    EventKind::ActivationResumed,
                );
                Ok(true)
            }
            ChainOutcome::Blocked { released } => {
                // Would block: the chain already rolled back. Counted as
                // a would-block, not an abort — the caller chose not to
                // park; no aspect vetoed anything.
                inc(&r.stats.would_blocks);
                self.emit(
                    ctx.invocation(),
                    &method.id,
                    None,
                    EventKind::ActivationAborted,
                );
                let plan = (released > 0).then(|| state.wakes[r.slot.as_usize()].clone());
                if plan.is_some() {
                    self.wake_own(&mut state, r.slot, &r.point);
                }
                drop(state);
                if let Some(targets) = plan {
                    self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
                }
                Ok(false)
            }
            ChainOutcome::Aborted {
                concern,
                reason,
                released,
                panicked,
            } => {
                inc(&r.stats.aborts);
                self.emit(
                    ctx.invocation(),
                    &method.id,
                    None,
                    EventKind::ActivationAborted,
                );
                let plan = (released > 0).then(|| state.wakes[r.slot.as_usize()].clone());
                if plan.is_some() {
                    self.wake_own(&mut state, r.slot, &r.point);
                }
                drop(state);
                if let Some(targets) = plan {
                    self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
                }
                Err(Self::abort_error(&method.id, concern, reason, panicked))
            }
        }
    }

    /// Runs the post-activation phase: every aspect's postaction (in
    /// reverse precondition order) under the method's cell lock, then —
    /// after releasing it — notifies the wait queues wired for this
    /// method under the notify-while-locking-target discipline.
    ///
    /// Under a containing [`PanicPolicy`] a panicking postaction is
    /// caught and counted; the remaining postactions still run and the
    /// activation is still released (post-activation completes, waiters
    /// are notified), so one bad postaction cannot leak the activation.
    pub fn postactivation(&self, method: &MethodHandle, ctx: &mut InvocationContext) {
        // Two-phase admission, phase two: a fast-admitted invocation
        // departs through the matching lock-free release. Skipping the
        // postactions is sound because every aspect of the row declared
        // them pure at admission time; skipping the self-wake and the
        // cross-method notify is sound because lane eligibility requires
        // an empty wake wiring and a waiter-free cell — an invocation
        // that ran no aspects changed nothing any waiter could be
        // blocked on (the no-lost-wake argument, model-checked in
        // `amf-verify`). Like `admit_fast`, the release runs under the
        // registry read guard so the fast departure clones no `Arc`s.
        if ctx.fast_admitted {
            ctx.fast_admitted = false;
            self.emit(
                ctx.invocation(),
                &method.id,
                None,
                EventKind::PostactivationStarted,
            );
            let registry = self.registry.read();
            registry.check(method);
            let entry = &registry.entries[method.index.as_usize()];
            entry.lane.release();
            inc(&entry.stats.postactivations);
            return;
        }
        let r = self.resolve(method);
        self.emit(
            ctx.invocation(),
            &method.id,
            None,
            EventKind::PostactivationStarted,
        );
        let targets = {
            let mut state = r.cell.state.lock();
            let n = state.bank.concern_count(r.slot);
            let traced = self.trace.is_some();
            let contain = self.panic_policy != PanicPolicy::Propagate;
            {
                let CellState {
                    bank,
                    queues,
                    faults,
                    ..
                } = &mut *state;
                let row = bank.row_mut(r.slot);
                let queue = &mut queues[r.slot.as_usize()];
                let fault_map = &mut faults[r.slot.as_usize()];
                for pos in 0..n {
                    let idx = self.post_index(pos, n);
                    let (concern, aspect) = &mut row.aspects[idx];
                    if contain && Self::is_quarantined(fault_map, concern) {
                        continue;
                    }
                    let delivered = if contain {
                        catch_unwind(AssertUnwindSafe(|| aspect.postaction(ctx))).is_ok()
                    } else {
                        aspect.postaction(ctx);
                        true
                    };
                    if delivered {
                        if traced {
                            let concern = concern.clone();
                            self.emit(
                                ctx.invocation(),
                                &method.id,
                                Some(concern),
                                EventKind::PostactionRun,
                            );
                        }
                    } else {
                        let concern = concern.clone();
                        self.note_panic(
                            fault_map,
                            queue,
                            &r.point,
                            &r.lane,
                            &mut row.fast_eligible,
                            &method.id,
                            &concern,
                            ctx.invocation(),
                            &r.stats,
                        );
                    }
                }
            }
            inc(&r.stats.postactivations);
            // Postactions may have freed what this method's own waiters
            // block on (active flags, slots): wake them too (module
            // docs: self-wake). `wire_wakes` only governs other queues.
            self.wake_own(&mut state, r.slot, &r.point);
            state.wakes[r.slot.as_usize()].clone()
        };
        self.notify_targets(&targets, &r.stats, ctx.invocation(), &method.id);
    }

    /// Emits the `MethodInvoked` trace event (Figure 3's `open(ticket)`
    /// arrow) on behalf of a proxy between the two phases.
    #[doc(hidden)]
    pub fn trace_method_invoked(&self, method: &MethodHandle, invocation: u64) {
        self.emit(invocation, &method.id, None, EventKind::MethodInvoked);
    }
}
