//! Moderator observability: the public counter snapshot types and the
//! per-method atomic shards behind them.
//!
//! The hot path updates a [`StatShard`] with relaxed atomics and no
//! lock; [`AspectModerator::stats`] aggregates the shards on read.

use std::sync::atomic::{AtomicU64, Ordering as MemOrdering};
use std::time::Duration;

use super::{AspectModerator, MethodHandle, WAIT_BUCKETS};

/// Log₂-microsecond histogram of time callers spent blocked before
/// resuming. Bucket 0 counts waits under 1 µs; bucket `b` counts waits
/// in `[2^(b-1), 2^b)` µs; the last bucket is open-ended (≥ ~16 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitHistogram {
    /// Per-bucket wait counts.
    pub buckets: [u64; WAIT_BUCKETS],
}

impl WaitHistogram {
    /// Total recorded waits.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper-bound estimate, in microseconds, of percentile `p`
    /// (0–100). Returns 0 when no waits were recorded.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << b;
            }
        }
        1u64 << (WAIT_BUCKETS - 1)
    }

    fn merge(&mut self, other: &WaitHistogram) {
        for (into, from) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *into += from;
        }
    }
}

/// Counters describing everything a moderator has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeratorStats {
    /// Pre-activations started.
    pub preactivations: u64,
    /// Pre-activations that resumed (method allowed to run).
    pub resumes: u64,
    /// Times a caller parked on a wait queue.
    pub blocks: u64,
    /// Times a parked caller was woken.
    pub wakeups: u64,
    /// Notifications sent to other methods' wait queues by
    /// post-activations (the self-wake is not counted).
    pub notifications: u64,
    /// Activations aborted by an aspect.
    pub aborts: u64,
    /// Non-blocking pre-activations that found the chain blocked and
    /// returned `Ok(false)` instead of parking
    /// ([`AspectModerator::try_preactivation`]).
    pub would_blocks: u64,
    /// Activations aborted by timeout.
    pub timeouts: u64,
    /// Post-activations completed.
    pub postactivations: u64,
    /// Rollback releases delivered to earlier-resumed aspects.
    pub releases: u64,
    /// FIFO tickets handed to parked callers
    /// ([`FairnessPolicy::Fifo`] only; always 0 under `Barging`).
    ///
    /// [`FairnessPolicy::Fifo`]: super::FairnessPolicy::Fifo
    pub tickets_issued: u64,
    /// FIFO tickets whose holder resumed. Tickets cancelled by timeout
    /// or retired by an abort account for the difference.
    pub tickets_served: u64,
    /// Grants delivered by batched admission: evaluations a ticketed
    /// waiter received because a departing predecessor *extended* its
    /// grant (no fresh notification), see the module docs ("Batched
    /// grants"). Always 0 with [`ModeratorBuilder::grant_batching`]
    /// disabled or under [`FairnessPolicy::Barging`]. The number of
    /// one-at-a-time grant handoffs a workload needed is
    /// `tickets_served - batched_grants` (experiment E12).
    ///
    /// [`ModeratorBuilder::grant_batching`]: super::ModeratorBuilder::grant_batching
    /// [`FairnessPolicy::Barging`]: super::FairnessPolicy::Barging
    pub batched_grants: u64,
    /// High-water mark of concurrently parked callers on any single
    /// method's queue (tracked under both fairness policies; aggregated
    /// with `max`, not summed).
    pub max_queue_depth: u64,
    /// Aspect-callback panics caught by the containment layer (always 0
    /// under [`PanicPolicy::Propagate`]).
    ///
    /// [`PanicPolicy::Propagate`]: super::PanicPolicy::Propagate
    pub panics_caught: u64,
    /// Aspect slots disabled by [`PanicPolicy::Quarantine`].
    ///
    /// [`PanicPolicy::Quarantine`]: super::PanicPolicy::Quarantine
    pub quarantined_aspects: u64,
    /// Invocations admitted through the lock-free fast lane: a single
    /// CAS on the method's lane word instead of a locked chain
    /// evaluation, available only while every aspect of the row
    /// declares `pure + veto_free + no_park` and the lane is open (see
    /// the module docs, "Two-phase admission"). Fast admissions still
    /// count in `preactivations`/`resumes`/`postactivations`.
    pub fast_path_admits: u64,
    /// Fast-lane attempts that found the lane *open* but lost the CAS
    /// to contention (or a concurrent close) and fell back to the
    /// locked slow path. Attempts against a closed lane — the normal
    /// state for undeclared rows — are not counted.
    pub fast_path_fallbacks: u64,
    /// Distribution of time spent blocked before resuming.
    pub wait_hist: WaitHistogram,
}

/// One method's shard of the moderator counters. Plain atomics: the hot
/// path updates them without any lock, [`AspectModerator::stats`]
/// aggregates the shards on read.
#[derive(Default)]
pub(super) struct StatShard {
    pub(super) preactivations: AtomicU64,
    pub(super) resumes: AtomicU64,
    pub(super) blocks: AtomicU64,
    pub(super) wakeups: AtomicU64,
    pub(super) notifications: AtomicU64,
    pub(super) aborts: AtomicU64,
    pub(super) would_blocks: AtomicU64,
    pub(super) timeouts: AtomicU64,
    pub(super) postactivations: AtomicU64,
    pub(super) releases: AtomicU64,
    pub(super) tickets_issued: AtomicU64,
    pub(super) tickets_served: AtomicU64,
    pub(super) batched_grants: AtomicU64,
    /// High-water mark of `waiting_now`.
    max_queue_depth: AtomicU64,
    /// Callers currently parked on this method (gauge, not exported).
    waiting_now: AtomicU64,
    pub(super) panics_caught: AtomicU64,
    pub(super) quarantined_aspects: AtomicU64,
    pub(super) fast_path_admits: AtomicU64,
    pub(super) fast_path_fallbacks: AtomicU64,
    wait_hist: [AtomicU64; WAIT_BUCKETS],
}

pub(super) fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, MemOrdering::Relaxed);
}

/// Bumps the moderator-wide invocation counter. Relaxed is correct:
/// the counter only needs uniqueness and monotonicity, never
/// synchronization. This module is the CI allowlist for
/// `Ordering::Relaxed` in the moderator tree — every ordering outside
/// it is `Acquire`/`Release` and justified in the fast-lane table
/// (`cell.rs`).
pub(super) fn next_invocation_id(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, MemOrdering::Relaxed) + 1
}

impl StatShard {
    /// Records a caller entering the parked state and bumps the
    /// queue-depth high-water mark.
    pub(super) fn note_parked(&self) {
        let depth = self.waiting_now.fetch_add(1, MemOrdering::Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, MemOrdering::Relaxed);
    }

    pub(super) fn note_unparked(&self) {
        self.waiting_now.fetch_sub(1, MemOrdering::Relaxed);
    }

    /// Buckets one blocked-wait duration into the log₂-µs histogram.
    pub(super) fn record_wait(&self, waited: Duration) {
        let us = waited.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(WAIT_BUCKETS - 1);
        inc(&self.wait_hist[bucket]);
    }

    pub(super) fn snapshot(&self) -> ModeratorStats {
        let mut wait_hist = WaitHistogram::default();
        for (into, from) in wait_hist.buckets.iter_mut().zip(self.wait_hist.iter()) {
            *into = from.load(MemOrdering::Relaxed);
        }
        ModeratorStats {
            preactivations: self.preactivations.load(MemOrdering::Relaxed),
            resumes: self.resumes.load(MemOrdering::Relaxed),
            blocks: self.blocks.load(MemOrdering::Relaxed),
            wakeups: self.wakeups.load(MemOrdering::Relaxed),
            notifications: self.notifications.load(MemOrdering::Relaxed),
            aborts: self.aborts.load(MemOrdering::Relaxed),
            would_blocks: self.would_blocks.load(MemOrdering::Relaxed),
            timeouts: self.timeouts.load(MemOrdering::Relaxed),
            postactivations: self.postactivations.load(MemOrdering::Relaxed),
            releases: self.releases.load(MemOrdering::Relaxed),
            tickets_issued: self.tickets_issued.load(MemOrdering::Relaxed),
            tickets_served: self.tickets_served.load(MemOrdering::Relaxed),
            batched_grants: self.batched_grants.load(MemOrdering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(MemOrdering::Relaxed),
            panics_caught: self.panics_caught.load(MemOrdering::Relaxed),
            quarantined_aspects: self.quarantined_aspects.load(MemOrdering::Relaxed),
            fast_path_admits: self.fast_path_admits.load(MemOrdering::Relaxed),
            fast_path_fallbacks: self.fast_path_fallbacks.load(MemOrdering::Relaxed),
            wait_hist,
        }
    }

    fn add_into(&self, out: &mut ModeratorStats) {
        let s = self.snapshot();
        out.preactivations += s.preactivations;
        out.resumes += s.resumes;
        out.blocks += s.blocks;
        out.wakeups += s.wakeups;
        out.notifications += s.notifications;
        out.aborts += s.aborts;
        out.would_blocks += s.would_blocks;
        out.timeouts += s.timeouts;
        out.postactivations += s.postactivations;
        out.releases += s.releases;
        out.tickets_issued += s.tickets_issued;
        out.tickets_served += s.tickets_served;
        out.batched_grants += s.batched_grants;
        out.max_queue_depth = out.max_queue_depth.max(s.max_queue_depth);
        out.panics_caught += s.panics_caught;
        out.quarantined_aspects += s.quarantined_aspects;
        out.fast_path_admits += s.fast_path_admits;
        out.fast_path_fallbacks += s.fast_path_fallbacks;
        out.wait_hist.merge(&s.wait_hist);
    }
}

impl AspectModerator {
    /// Snapshot of the moderator's counters, aggregated across every
    /// method's shard.
    pub fn stats(&self) -> ModeratorStats {
        let registry = self.registry.read();
        let mut out = ModeratorStats::default();
        for entry in &registry.entries {
            entry.stats.add_into(&mut out);
        }
        out
    }

    /// Snapshot of one method's shard of the counters. Notifications are
    /// credited to the sending method.
    pub fn method_stats(&self, method: &MethodHandle) -> ModeratorStats {
        self.resolve(method).stats.snapshot()
    }
}
