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

use super::cell::{CellState, FastAdmit, Resolved, RowState};
use super::fault::panic_message;
use super::queue::refresh_lane;
use super::stats::inc;
use super::{
    AspectModerator, FairnessPolicy, MethodHandle, OrderingPolicy, PanicPolicy, RollbackPolicy,
};
use crate::aspect::ReleaseCause;
use crate::bank::MethodIndex;
use crate::concern::Concern;
use crate::context::InvocationContext;
use crate::error::AbortError;
use crate::trace::EventKind;
use crate::verdict::Verdict;

/// Outcome of one pass over a method's precondition chain. A pass
/// that blocks or aborts has already rolled back its prefix, inside the
/// same hold of the group's cell lock, so no other method of the group
/// can have seen the transient reservations.
pub(super) enum ChainOutcome {
    Resumed,
    Blocked,
    Aborted {
        concern: Concern,
        reason: crate::verdict::AbortReason,
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

    /// One pass over the chain, under the group's cell lock. On
    /// `Blocked` or `Aborted`, earlier-resumed aspects have been released
    /// per policy.
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
        let CellState { bank, rows } = state;
        let row = bank.row_mut(slot);
        let wait = &mut rows[slot.as_usize()];
        for pos in 0..n {
            let idx = self.pre_index(pos, n);
            let (concern, aspect) = &mut row.aspects[idx];
            if contain && Self::is_quarantined(&wait.faults, concern) {
                continue;
            }
            let verdict = if contain {
                match catch_unwind(AssertUnwindSafe(|| aspect.precondition(ctx))) {
                    Ok(v) => v,
                    Err(payload) => {
                        let concern = concern.clone();
                        let message = panic_message(payload.as_ref());
                        self.note_panic(
                            wait,
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
                        self.release_prefix(row, wait, pos, n, ctx, ReleaseCause::Aborted, r);
                        return ChainOutcome::Aborted {
                            concern,
                            reason: crate::verdict::AbortReason::new(message),
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
                    self.release_prefix(row, wait, pos, n, ctx, ReleaseCause::Blocked, r);
                    return ChainOutcome::Blocked;
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
                    self.release_prefix(row, wait, pos, n, ctx, ReleaseCause::Aborted, r);
                    return ChainOutcome::Aborted {
                        concern,
                        reason,
                        panicked: false,
                    };
                }
            }
        }
        ChainOutcome::Resumed
    }

    /// Releases the `evaluated` already-resumed aspects (precondition
    /// positions `0..evaluated`) in reverse evaluation order — unwinding
    /// the onion.
    ///
    /// Under a containing [`PanicPolicy`], quarantined slots are skipped
    /// (their precondition never ran in this pass, so there is nothing
    /// to undo) and a panicking `on_release` is caught and counted so
    /// the unwind still reaches every remaining aspect in the prefix.
    #[allow(clippy::too_many_arguments)]
    fn release_prefix(
        &self,
        row: &mut crate::bank::MethodRow,
        wait: &mut RowState,
        evaluated: usize,
        n: usize,
        ctx: &InvocationContext,
        cause: ReleaseCause,
        r: &Resolved,
    ) {
        if self.rollback == RollbackPolicy::None {
            return;
        }
        let contain = self.panic_policy != PanicPolicy::Propagate;
        for pos in (0..evaluated).rev() {
            let idx = self.pre_index(pos, n);
            let (concern, aspect) = &mut row.aspects[idx];
            if contain && Self::is_quarantined(&wait.faults, concern) {
                continue;
            }
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
                    wait,
                    &r.lane,
                    &mut row.fast_eligible,
                    ctx.method(),
                    &concern,
                    ctx.invocation(),
                    &r.stats,
                );
            }
        }
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
                        state.rows[r.slot.as_usize()].parked -= 1;
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
                    panicked,
                } => {
                    if blocked_at.is_some() {
                        r.stats.note_unparked();
                        state.rows[r.slot.as_usize()].parked -= 1;
                        refresh_lane(&state, &r.lane, r.slot);
                    }
                    inc(&r.stats.aborts);
                    self.emit(
                        ctx.invocation(),
                        &method.id,
                        None,
                        EventKind::ActivationAborted,
                    );
                    return Err(Self::abort_error(&method.id, concern, reason, panicked));
                }
                ChainOutcome::Blocked => {
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
                        state.rows[r.slot.as_usize()].parked += 1;
                    }
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                    match deadline {
                        None => r.point.park(&mut state),
                        Some(until) => {
                            let remaining = until.saturating_sub(self.clock.now());
                            let timed_out = r.point.park_for(&mut state, remaining);
                            if timed_out && self.clock.now() >= until {
                                r.stats.note_unparked();
                                state.rows[r.slot.as_usize()].parked -= 1;
                                inc(&r.stats.timeouts);
                                // Let enrollment-style aspects (admission
                                // queues) forget this invocation.
                                self.cancel_all(
                                    &mut state, r.slot, &method.id, ctx, &r.lane, &r.stats,
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
    /// by a departing predecessor). A caller arriving to a non-empty
    /// queue takes a ticket and parks without evaluating — even if its
    /// chain would resume — which is what prevents barging. Queue order equals ticket order equals
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
        loop {
            let grant = match ticket {
                None => (!state.rows[slot].queue.has_waiters()).then_some(Grant::First),
                Some(t) => state.rows[slot].queue.grant_for(t),
            };
            let Some(grant) = grant else {
                if ticket.is_none() {
                    // Barging prevention: earlier tickets are waiting,
                    // so this caller may not evaluate (and possibly
                    // reserve) ahead of them. Queue up and park — lane
                    // closed first, so no CAS admission overtakes the
                    // ticket about to be issued.
                    r.lane.close();
                    ticket = Some(state.rows[slot].queue.enqueue());
                    inc(&r.stats.blocks);
                    inc(&r.stats.tickets_issued);
                    r.stats.note_parked();
                    blocked_at = Some(self.clock.now());
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
                    continue;
                }
                match deadline {
                    None => r.point.park(&mut state),
                    Some(until) => {
                        let remaining = until.saturating_sub(self.clock.now());
                        let timed_out = r.point.park_for(&mut state, remaining);
                        if timed_out && self.clock.now() >= until {
                            // Surrender the ticket. `cancel` re-attaches
                            // pending permits to the successor, so the
                            // cancellation strands nobody; broadcast so
                            // the new head notices its inheritance.
                            let q = &mut state.rows[slot].queue;
                            q.cancel(ticket.expect("timed out while ticketed"));
                            if q.has_pending() && q.has_waiters() {
                                r.point.wake_all();
                            }
                            r.stats.note_unparked();
                            inc(&r.stats.timeouts);
                            self.cancel_all(&mut state, r.slot, &method.id, ctx, &r.lane, &r.stats);
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
            match self.evaluate_chain(&mut state, r.slot, method, ctx, r) {
                ChainOutcome::Resumed => {
                    if let Some(t) = ticket {
                        let q = &mut state.rows[slot].queue;
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
                    panicked,
                } => {
                    if let Some(t) = ticket {
                        let q = &mut state.rows[slot].queue;
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
                    return Err(Self::abort_error(&method.id, concern, reason, panicked));
                }
                ChainOutcome::Blocked => {
                    match ticket {
                        Some(t) => {
                            let q = &mut state.rows[slot].queue;
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
                            ticket = Some(state.rows[slot].queue.enqueue());
                            inc(&r.stats.tickets_issued);
                            r.stats.note_parked();
                            blocked_at = Some(self.clock.now());
                        }
                    }
                    inc(&r.stats.blocks);
                    self.emit(ctx.invocation(), &method.id, None, EventKind::WaitStarted);
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
        if self.fairness == FairnessPolicy::Fifo
            && state.rows[r.slot.as_usize()].queue.has_waiters()
        {
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
            ChainOutcome::Blocked => {
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
                Ok(false)
            }
            ChainOutcome::Aborted {
                concern,
                reason,
                panicked,
            } => {
                inc(&r.stats.aborts);
                self.emit(
                    ctx.invocation(),
                    &method.id,
                    None,
                    EventKind::ActivationAborted,
                );
                Err(Self::abort_error(&method.id, concern, reason, panicked))
            }
        }
    }

    /// Runs the post-activation phase: every aspect's postaction (in
    /// reverse precondition order), then the notify of the wait queues
    /// wired for this method, all under the group's one cell lock.
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
        let mut state = r.cell.state.lock();
        let n = state.bank.concern_count(r.slot);
        let traced = self.trace.is_some();
        let contain = self.panic_policy != PanicPolicy::Propagate;
        {
            let CellState { bank, rows } = &mut *state;
            let row = bank.row_mut(r.slot);
            let wait = &mut rows[r.slot.as_usize()];
            for pos in 0..n {
                let idx = self.post_index(pos, n);
                let (concern, aspect) = &mut row.aspects[idx];
                if contain && Self::is_quarantined(&wait.faults, concern) {
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
                        wait,
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
        // block on (active flags, slots): wake them too (module docs:
        // self-wake). `wire_wakes` only governs other queues.
        self.wake_row(&mut state, r.slot);
        self.notify_targets(&mut state, r.slot, &r.stats, ctx.invocation(), &method.id);
    }

    /// Emits the `MethodInvoked` trace event (Figure 3's `open(ticket)`
    /// arrow) on behalf of a proxy between the two phases.
    #[doc(hidden)]
    pub fn trace_method_invoked(&self, method: &MethodHandle, invocation: u64) {
        self.emit(invocation, &method.id, None, EventKind::MethodInvoked);
    }
}
