//! Coordination cells and the method registry.
//!
//! Each *coordination group* — the methods joined by wake wiring —
//! owns a *cell*: a mutex guarding its members' aspect chains, wake
//! wiring, FIFO queues and fault bookkeeping. Each method keeps its own
//! [`Waiter`] waitpoint supplied by the moderator's [`GrantSource`]
//! engine and a shard of atomic counters. Under
//! [`Coordination::GlobalLock`](super::Coordination::GlobalLock) every
//! method shares one cell. Lock ordering is `registry → one group cell`
//! (see the module docs in [`super`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amf_concurrency::{TicketQueue, Waiter};
use parking_lot::Mutex;

use super::fault::SlotFault;
use super::queue::{refresh_lane, wake_queue, WakeTargets};
use super::stats::StatShard;
use super::{AspectModerator, Coordination, FairnessPolicy, WakeMode};
use crate::aspect::Aspect;
use crate::bank::{AspectBank, MethodIndex, MethodRow};
use crate::concern::{Concern, MethodId};
use crate::error::RegistrationError;
use crate::factory::AspectFactory;
use crate::trace::EventKind;

/// Handle to a declared participating method; obtained from
/// [`AspectModerator::declare_method`] and used for all per-method
/// operations.
///
/// Handles are cheap to clone and are only valid on the moderator that
/// issued them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodHandle {
    pub(crate) index: MethodIndex,
    pub(crate) id: MethodId,
}

impl MethodHandle {
    /// The method's identifier.
    pub fn id(&self) -> &MethodId {
        &self.id
    }

    /// The method's dense index in the issuing moderator's registry.
    pub fn index(&self) -> MethodIndex {
        self.index
    }
}

impl fmt::Display for MethodHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id.as_str())
    }
}

/// Outcome of a fast-lane admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FastAdmit {
    /// Admitted: the activation count was raised by a successful CAS
    /// while the lane was open. The invocation owes a matching
    /// [`FastLane::release`].
    Admitted,
    /// The lane is closed (ineligible row, waiters pending, quarantine,
    /// or wake wiring); take the locked path. The normal state for
    /// every method that never declared a capability contract, so this
    /// is *not* counted as a fallback.
    Closed,
    /// The lane was open but the CAS lost every retry to concurrent
    /// admissions or a concurrent close; take the locked path and count
    /// a `fast_path_fallbacks`.
    Contended,
}

/// Bounded CAS retries before an open-lane admission gives up and falls
/// back to the locked path (counted in `fast_path_fallbacks`).
const ADMIT_ATTEMPTS: u32 = 8;

/// The per-method fast-lane word: one atomic `u64` packing the
/// fast-path activation count, the lane's open/closed bit and a close
/// epoch. The uncontended hot path admits and releases with a single
/// atomic RMW on this word instead of two cell-lock round trips.
///
/// # Packed layout
///
/// | bits    | field  | meaning |
/// |---------|--------|---------|
/// | 0..=31  | ACTIVE | in-flight fast-lane activations (admit = `+1`, release = `-1`) |
/// | 32      | OPEN   | 1 ⇒ CAS admission allowed; all transitions happen under the cell lock |
/// | 33..=63 | EPOCH  | close generation, bumped on every open→closed transition (wraps) |
///
/// Because the *whole admission predicate* is encoded in the word, a
/// successful `compare_exchange` proves the lane was open at the
/// instant of admission — there is no check-then-act window. The EPOCH
/// field makes the open bit immune to ABA across a close/reopen pair
/// (the word cannot repeat until 2³¹ closes), so a stale snapshot can
/// never be confirmed by a CAS.
///
/// # Memory-ordering table
///
/// Everything here is `Acquire`/`Release`; the moderator's CI gate
/// forbids the `Relaxed` ordering in this module tree outside the stats
/// shard. The pairings:
///
/// | access | ordering | why |
/// |--------|----------|-----|
/// | [`try_admit`](Self::try_admit) load + CAS | `Acquire` / `AcqRel` | the Acquire pairs with [`open`](Self::open)'s Release so an admitted thread sees every write (bank reweave, queue drain) that preceded the lane opening; the Release half publishes the raised count to the next closer |
/// | [`release`](Self::release) `fetch_sub` | `Release` | orders the invocation's body before the departure becomes visible to any observer of the in-flight count |
/// | [`close`](Self::close) / [`open`](Self::open) `fetch_update` | `AcqRel` / `Acquire` | run under the cell lock; Release publishes the new lane state to lock-free admitters, Acquire observes the latest in-flight count |
/// | observer loads (`snapshot`, tests only) | `Acquire` | observer-side pairing with all of the above |
pub(super) struct FastLane {
    word: AtomicU64,
}

const LANE_OPEN: u64 = 1 << 32;
const LANE_ACTIVE_MASK: u64 = LANE_OPEN - 1;
const LANE_EPOCH_SHIFT: u32 = 33;

impl FastLane {
    /// A new lane starts closed; `refresh_lane` opens it once the row's
    /// contract, wiring and queues allow.
    pub(super) fn new() -> Self {
        Self {
            word: AtomicU64::new(0),
        }
    }

    /// Attempts a single-CAS admission. See [`FastAdmit`].
    pub(super) fn try_admit(&self) -> FastAdmit {
        let mut w = self.word.load(Ordering::Acquire);
        for _ in 0..ADMIT_ATTEMPTS {
            if w & LANE_OPEN == 0 {
                return FastAdmit::Closed;
            }
            match self
                .word
                .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return FastAdmit::Admitted,
                Err(cur) => w = cur,
            }
        }
        FastAdmit::Contended
    }

    /// Departs a fast-admitted activation. Touches only the ACTIVE
    /// field, so it is correct whether or not the lane has closed since
    /// the admission.
    pub(super) fn release(&self) {
        let prev = self.word.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & LANE_ACTIVE_MASK > 0, "fast-lane release underflow");
    }

    /// Closes the lane (idempotent), bumping the epoch on an actual
    /// open→closed transition. Caller holds the cell lock.
    pub(super) fn close(&self) {
        let _ = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & LANE_OPEN != 0).then(|| (w & !LANE_OPEN).wrapping_add(1 << LANE_EPOCH_SHIFT))
            });
    }

    /// Opens the lane (idempotent). Caller holds the cell lock and has
    /// verified the full predicate (eligible row, empty queue, nobody
    /// parked, no quarantine, empty wake wiring).
    pub(super) fn open(&self) {
        let _ = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & LANE_OPEN == 0).then_some(w | LANE_OPEN)
            });
    }

    /// `(open, in-flight, epoch)` — for assertions and diagnostics.
    #[cfg(test)]
    pub(super) fn snapshot(&self) -> (bool, u64, u64) {
        let w = self.word.load(Ordering::Acquire);
        (
            w & LANE_OPEN != 0,
            w & LANE_ACTIVE_MASK,
            w >> LANE_EPOCH_SHIFT,
        )
    }

    /// In-flight fast-lane activations.
    #[cfg(test)]
    pub(super) fn in_flight(&self) -> u64 {
        self.word.load(Ordering::Acquire) & LANE_ACTIVE_MASK
    }
}

/// The mutable coordination state of one cell: the aspect rows of its
/// coordination group (an [`AspectBank`]) and, parallel to them, each
/// hosted method's wait state.
#[derive(Default)]
pub struct CellState {
    pub(super) bank: AspectBank,
    /// Per local bank row: wiring, queue, faults and waitpoint.
    pub(super) rows: Vec<RowState>,
}

/// The wait-side state of one hosted method, parallel to its bank row.
pub(super) struct RowState {
    /// Which rows of this cell the method's post-activation notifies,
    /// compiled from the registry's wiring into local row indices.
    pub(super) wakes: WakeTargets,
    /// Ticketed FIFO wait state (the workspace-shared discipline from
    /// `amf-concurrency`). Never enqueued into under
    /// [`FairnessPolicy::Barging`].
    pub(super) queue: TicketQueue,
    /// Per-slot panic bookkeeping, keyed by concern. Empty under
    /// [`PanicPolicy::Propagate`](super::PanicPolicy::Propagate).
    pub(super) faults: HashMap<Concern, SlotFault>,
    /// Callers parked on the waitpoint *outside* the ticket queue (the
    /// barging discipline parks without enqueueing). Together with
    /// `queue.has_pending()` this is the "no waiters" half of the
    /// fast-lane predicate.
    pub(super) parked: u32,
    /// Where the method's callers park (the registry entry's `point`),
    /// so a notification reaches it without leaving the cell.
    pub(super) point: Arc<dyn Waiter<CellState>>,
}

/// One coordination cell: the lock guarding a coordination group's
/// chains, wake wiring and blocked callers. Under
/// [`Coordination::GlobalLock`] a single cell hosts every method.
#[derive(Default)]
pub(super) struct Cell {
    pub(super) state: Mutex<CellState>,
}

/// Registry entry for one declared method: which cell hosts it, at which
/// local row, plus its waitpoint and stats shard.
pub(super) struct MethodEntry {
    pub(super) id: MethodId,
    pub(super) cell: Arc<Cell>,
    /// The method's row index inside its cell's bank.
    pub(super) slot: MethodIndex,
    /// The declared wake wiring, in registry indices; the cell holds the
    /// compiled copy.
    wiring: WakeTargets,
    /// Where this method's callers park; engine-supplied, so the
    /// protocol never names a concrete parking primitive.
    pub(super) point: Arc<dyn Waiter<CellState>>,
    pub(super) stats: Arc<StatShard>,
    /// The method's fast-lane word, read lock-free by the hot path.
    pub(super) lane: Arc<FastLane>,
}

/// The read-mostly method registry. Write-locked only by
/// `declare_method` and `wire_wakes`, which repartition the cells;
/// locked-path invocations read-lock it briefly to clone the `Arc`s out
/// and then operate on the cell alone, while the fast lane admits and
/// releases entirely under the read guard (`admit_fast` in
/// `protocol.rs`) without touching a reference count.
#[derive(Default)]
pub(super) struct Registry {
    pub(super) entries: Vec<MethodEntry>,
    pub(super) by_id: HashMap<MethodId, usize>,
}

impl Registry {
    pub(super) fn check(&self, method: &MethodHandle) {
        assert!(
            self.entries
                .get(method.index.as_usize())
                .is_some_and(|e| e.id == method.id),
            "method handle `{}` does not belong to this moderator",
            method.id
        );
    }
}

/// A method's coordination handles, cloned out of the registry so the
/// hot path drops the registry read lock before touching the cell.
pub(super) struct Resolved {
    pub(super) cell: Arc<Cell>,
    pub(super) slot: MethodIndex,
    pub(super) point: Arc<dyn Waiter<CellState>>,
    pub(super) stats: Arc<StatShard>,
    pub(super) lane: Arc<FastLane>,
}

/// One coordination group of a repartition plan: its members (registry
/// indices, ascending) and the existing cell kept as its host, if any.
struct Group {
    members: Vec<usize>,
    host: Option<Arc<Cell>>,
}

impl AspectModerator {
    /// Clones a method's coordination handles out of the registry.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this moderator.
    pub(super) fn resolve(&self, method: &MethodHandle) -> Resolved {
        let registry = self.registry.read();
        registry.check(method);
        let entry = &registry.entries[method.index.as_usize()];
        Resolved {
            cell: Arc::clone(&entry.cell),
            slot: entry.slot,
            point: Arc::clone(&entry.point),
            stats: Arc::clone(&entry.stats),
            lane: Arc::clone(&entry.lane),
        }
    }

    /// Runs `f` on `method`'s cell under the registry read guard, so no
    /// repartition can move the row while `f` runs (lock order
    /// `registry → one group cell`). The administrative operations use
    /// this; invocations use [`resolve`](Self::resolve), which is safe
    /// because an invoked method is never moved.
    pub(super) fn with_row<R>(
        &self,
        method: &MethodHandle,
        f: impl FnOnce(&mut CellState, &MethodEntry) -> R,
    ) -> R {
        let registry = self.registry.read();
        registry.check(method);
        let entry = &registry.entries[method.index.as_usize()];
        let mut state = entry.cell.state.lock();
        f(&mut state, entry)
    }

    /// Declares a participating method; idempotent.
    ///
    /// The new method starts on the default broadcast wiring, so under
    /// [`Coordination::Sharded`] it joins every coordination group (see
    /// [`wire_wakes`](Self::wire_wakes)).
    ///
    /// # Panics
    ///
    /// Panics if merging the groups would move a method that has
    /// already been invoked (declare every method before invoking any).
    pub fn declare_method(&self, id: MethodId) -> MethodHandle {
        let mut registry = self.registry.write();
        if let Some(&ix) = registry.by_id.get(&id) {
            return MethodHandle {
                index: MethodIndex(ix),
                id,
            };
        }
        // The default broadcast wiring keeps the new method's fast lane
        // closed (`FastLane::new` starts closed): a method whose
        // completion may wake other queues cannot skip its
        // post-activation notify. `wire_wakes(m, &[])` plus an
        // all-capable chain opens it.
        let point = self.engine.waiter();
        // When every method already shares one cell, the new broadcast-
        // wired method simply joins it and nothing moves: the common
        // case, kept linear in the number of methods.
        let shared = registry
            .entries
            .first()
            .map(|e| &e.cell)
            .filter(|c| registry.entries.iter().all(|e| Arc::ptr_eq(&e.cell, c)));
        let joins = shared.is_some();
        let cell = shared.cloned().unwrap_or_default();
        let slot = {
            let mut state = cell.state.lock();
            state.rows.push(RowState {
                wakes: WakeTargets::All,
                queue: TicketQueue::new(self.grant_batching),
                faults: HashMap::new(),
                parked: 0,
                point: Arc::clone(&point),
            });
            state.bank.declare(id.clone())
        };
        let ix = registry.entries.len();
        registry.by_id.insert(id.clone(), ix);
        registry.entries.push(MethodEntry {
            id: id.clone(),
            cell,
            slot,
            wiring: WakeTargets::All,
            point,
            stats: Arc::new(StatShard::default()),
            lane: Arc::new(FastLane::new()),
        });
        let moved = if joins {
            Ok(())
        } else {
            self.repartition(&mut registry)
        };
        if let Err(moved) = moved {
            let entry = registry.entries.pop().expect("just pushed");
            registry.by_id.remove(&entry.id);
            drop(registry);
            panic!("declaring `{}` would move invoked method `{moved}` into another coordination group; declare every method before invoking any", entry.id);
        }
        MethodHandle {
            index: MethodIndex(ix),
            id,
        }
    }

    /// Each method's coordination group, named by its smallest registry
    /// index: the connected components of the wake-wiring graph. A
    /// method still on the default broadcast wiring may change anything,
    /// so it joins every group; under [`Coordination::GlobalLock`] all
    /// methods form one group.
    fn group_roots(&self, registry: &Registry) -> Vec<usize> {
        let n = registry.entries.len();
        if self.coordination == Coordination::GlobalLock
            || registry
                .entries
                .iter()
                .any(|e| e.wiring == WakeTargets::All)
        {
            return vec![0; n];
        }
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut parent: Vec<usize> = (0..n).collect();
        for (m, entry) in registry.entries.iter().enumerate() {
            if let WakeTargets::Wired(targets) = &entry.wiring {
                for t in targets {
                    let (a, b) = (find(&mut parent, m), find(&mut parent, t.as_usize()));
                    // Attaching the larger root keeps each root the
                    // group's smallest index.
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        (0..n).map(|m| find(&mut parent, m)).collect()
    }

    /// Plans a repartition: a group keeps its first method's cell when
    /// every row of that cell stays in the group; every other member
    /// moves into that host or a fresh cell.
    ///
    /// Errs with a method that would move although it has already been
    /// invoked. Invocations count `preactivations` under the registry
    /// read guard, and the planner runs under the write guard, so the
    /// check cannot race a caller that resolved the method before it.
    fn plan_groups(&self, registry: &Registry) -> Result<Vec<Group>, MethodId> {
        let roots = self.group_roots(registry);
        let entries = &registry.entries;
        // Per cell: the group of all its rows, or `None` if it is split.
        let mut cell_group: HashMap<*const Cell, Option<usize>> = HashMap::new();
        for (m, &root) in roots.iter().enumerate() {
            let g = cell_group
                .entry(Arc::as_ptr(&entries[m].cell))
                .or_insert(Some(root));
            if *g != Some(root) {
                *g = None;
            }
        }
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for (m, &root) in roots.iter().enumerate() {
            let group = groups.entry(root).or_insert_with(|| {
                let cell = &entries[root].cell;
                let whole = cell_group[&Arc::as_ptr(cell)] == Some(root);
                Group {
                    members: Vec::new(),
                    host: whole.then(|| Arc::clone(cell)),
                }
            });
            let stays = group
                .host
                .as_ref()
                .is_some_and(|h| Arc::ptr_eq(h, &entries[m].cell));
            if !stays && entries[m].stats.preactivations.load(Ordering::Acquire) > 0 {
                return Err(entries[m].id.clone());
            }
            group.members.push(m);
        }
        Ok(groups.into_values().collect())
    }

    /// Recomputes the coordination groups and moves each moving method's
    /// bank row and wait state into its group's cell, then recompiles
    /// every row's wake wiring into local row indices. Takes one cell
    /// lock at a time. On `Err` (see [`plan_groups`](Self::plan_groups))
    /// nothing has changed.
    fn repartition(&self, registry: &mut Registry) -> Result<(), MethodId> {
        let groups = self.plan_groups(registry)?;
        let entries = &mut registry.entries;
        // Every cell that is no group's host is dismantled whole: each of
        // its rows moves. (A dismantled cell stays alive, and its address
        // unique, while an entry still points at it.)
        type Rows = Vec<Option<(MethodRow, RowState)>>;
        let mut taken: HashMap<*const Cell, Rows> = HashMap::new();
        for group in &groups {
            for &m in &group.members {
                let cell = &entries[m].cell;
                if !group.host.as_ref().is_some_and(|h| Arc::ptr_eq(h, cell)) {
                    taken.entry(Arc::as_ptr(cell)).or_insert_with(|| {
                        let old = std::mem::take(&mut *cell.state.lock());
                        let rows = old.bank.into_rows().into_iter().zip(old.rows);
                        rows.map(Some).collect()
                    });
                }
            }
        }
        for group in groups {
            let host = group.host.unwrap_or_default();
            let mut state = host.state.lock();
            for &m in &group.members {
                let entry = &mut entries[m];
                if !Arc::ptr_eq(&entry.cell, &host) {
                    let rows = taken
                        .get_mut(&Arc::as_ptr(&entry.cell))
                        .expect("dismantled");
                    let (row, wait) = rows[entry.slot.as_usize()].take().expect("moved once");
                    entry.slot = state.bank.adopt(row);
                    state.rows.push(wait);
                    entry.cell = Arc::clone(&host);
                }
            }
            for &m in &group.members {
                let entry = &entries[m];
                state.rows[entry.slot.as_usize()].wakes = match &entry.wiring {
                    WakeTargets::All => WakeTargets::All,
                    WakeTargets::Wired(targets) => WakeTargets::Wired(
                        targets.iter().map(|t| entries[t.as_usize()].slot).collect(),
                    ),
                };
                refresh_lane(&state, &entry.lane, entry.slot);
            }
        }
        Ok(())
    }

    /// Looks up the handle of an already-declared method.
    pub fn method(&self, id: &MethodId) -> Option<MethodHandle> {
        let registry = self.registry.read();
        registry.by_id.get(id).map(|&ix| MethodHandle {
            index: MethodIndex(ix),
            id: id.clone(),
        })
    }

    /// Declared method identifiers, in declaration order.
    pub fn methods(&self) -> Vec<MethodId> {
        self.registry
            .read()
            .entries
            .iter()
            .map(|e| e.id.clone())
            .collect()
    }

    /// Stores an aspect in the (method, concern) cell — the paper's
    /// `registerAspect`.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::DuplicateConcern`] if the cell is occupied.
    pub fn register(
        &self,
        method: &MethodHandle,
        concern: Concern,
        aspect: Box<dyn Aspect>,
    ) -> Result<(), RegistrationError> {
        self.with_row(method, |state, e| {
            state.bank.register(e.slot, concern.clone(), aspect)?;
            refresh_lane(state, &e.lane, e.slot);
            Ok::<_, RegistrationError>(())
        })?;
        self.emit(0, &method.id, Some(concern), EventKind::AspectRegistered);
        Ok(())
    }

    /// Asks `factory` to create the aspect for (method, concern) and
    /// registers it — the paper's initialization idiom
    /// `moderator.registerAspect(open, SYNC, factory.create(open, SYNC))`.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::FactoryRefused`] if the factory returns no
    /// aspect, or [`RegistrationError::DuplicateConcern`] if the cell is
    /// occupied.
    pub fn register_from(
        &self,
        factory: &dyn AspectFactory,
        method: &MethodHandle,
        concern: Concern,
    ) -> Result<(), RegistrationError> {
        let aspect = factory.create(&method.id, &concern).ok_or_else(|| {
            RegistrationError::FactoryRefused {
                method: method.id.clone(),
                concern: concern.clone(),
            }
        })?;
        self.emit(
            0,
            &method.id,
            Some(concern.clone()),
            EventKind::AspectCreated,
        );
        self.register(method, concern, aspect)
    }

    /// Removes and returns the aspect in the (method, concern) cell,
    /// waking all of the method's waiters so they re-evaluate against the
    /// shortened chain.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::UnknownConcern`] if the cell is empty.
    pub fn deregister(
        &self,
        method: &MethodHandle,
        concern: &Concern,
    ) -> Result<Box<dyn Aspect>, RegistrationError> {
        let aspect = self.with_row(method, |state, e| {
            let aspect = state.bank.deregister(e.slot, concern)?;
            // Notify while holding the cell lock: a waiter either is
            // already parked (woken now) or still holds the lock and
            // will re-evaluate against the shortened chain anyway.
            // Under Fifo every ticketed waiter must get a turn against
            // the shortened chain, in order — a full sweep.
            if self.fairness == FairnessPolicy::Fifo {
                wake_queue(
                    &mut state.rows[e.slot.as_usize()].queue,
                    WakeMode::NotifyAll,
                );
            }
            e.point.wake_all();
            refresh_lane(state, &e.lane, e.slot);
            Ok::<_, RegistrationError>(aspect)
        })?;
        self.emit(
            0,
            &method.id,
            Some(concern.clone()),
            EventKind::AspectDeregistered,
        );
        Ok(aspect)
    }

    /// The concerns registered for a method, in registration order.
    pub fn concerns(&self, method: &MethodHandle) -> Vec<Concern> {
        self.with_row(method, |state, e| state.bank.concerns(e.slot))
    }

    /// Restricts which wait queues `method`'s post-activation notifies
    /// (default: all queues). The paper wires `open` → `assign`'s queue
    /// and vice versa.
    ///
    /// Wiring also declares shared state: a method and the methods it
    /// wakes form one *coordination group* and share one cell lock, so a
    /// postaction and the notify it owes are one atomic step (module
    /// docs, "Locking model"). Wire before invoking.
    ///
    /// The method's *own* queue is always signalled after its
    /// postactions run, independent of this wiring (module docs:
    /// self-wake) — wiring governs cross-method notifications only.
    ///
    /// # Panics
    ///
    /// Panics if the handles do not belong to this moderator, or if the
    /// new groups would move a method that has already been invoked.
    pub fn wire_wakes(&self, method: &MethodHandle, targets: &[MethodHandle]) {
        let mut registry = self.registry.write();
        registry.check(method);
        for t in targets {
            registry.check(t);
        }
        let wiring = WakeTargets::Wired(targets.iter().map(|t| t.index).collect());
        let ix = method.index.as_usize();
        let old = std::mem::replace(&mut registry.entries[ix].wiring, wiring);
        if let Err(moved) = self.repartition(&mut registry) {
            registry.entries[ix].wiring = old;
            drop(registry);
            panic!("wiring `{}` would move invoked method `{moved}` into another coordination group; wire every method before invoking any", method.id);
        }
    }

    /// Runs `f` with mutable access to the aspect registered under
    /// (method, concern), under the method's cell lock. Administrative
    /// escape hatch for inspecting or adjusting aspect state; `f` must
    /// not call back into the moderator.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::UnknownConcern`] if the cell is empty.
    pub fn with_aspect<R>(
        &self,
        method: &MethodHandle,
        concern: &Concern,
        f: impl FnOnce(&mut dyn Aspect) -> R,
    ) -> Result<R, RegistrationError> {
        self.with_row(method, |state, e| {
            let aspect = state.bank.aspect_mut(e.slot, concern).ok_or_else(|| {
                RegistrationError::UnknownConcern {
                    method: method.id.clone(),
                    concern: concern.clone(),
                }
            })?;
            let out = f(aspect);
            // `f` may have changed the aspect's declared contract.
            state.bank.recompute_fast_eligibility(e.slot);
            refresh_lane(state, &e.lane, e.slot);
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{FastAdmit, FastLane};

    #[test]
    fn lane_starts_closed_and_admits_only_while_open() {
        let lane = FastLane::new();
        assert_eq!(lane.snapshot(), (false, 0, 0));
        assert!(matches!(lane.try_admit(), FastAdmit::Closed));
        lane.open();
        assert!(matches!(lane.try_admit(), FastAdmit::Admitted));
        assert!(matches!(lane.try_admit(), FastAdmit::Admitted));
        assert_eq!(lane.in_flight(), 2);
        lane.release();
        lane.release();
        assert_eq!(lane.snapshot(), (true, 0, 0));
    }

    #[test]
    fn close_bumps_the_epoch_only_on_a_real_transition() {
        let lane = FastLane::new();
        lane.close(); // already closed: no transition, no bump
        assert_eq!(lane.snapshot(), (false, 0, 0));
        lane.open();
        lane.open(); // idempotent
        lane.close();
        assert_eq!(lane.snapshot(), (false, 0, 1));
        lane.open();
        lane.close();
        assert_eq!(lane.snapshot(), (false, 0, 2), "one bump per open→closed");
    }

    #[test]
    fn release_is_valid_after_the_lane_closes() {
        let lane = FastLane::new();
        lane.open();
        assert!(matches!(lane.try_admit(), FastAdmit::Admitted));
        lane.close();
        assert_eq!(lane.snapshot(), (false, 1, 1));
        lane.release(); // touches only the ACTIVE field
        assert_eq!(lane.snapshot(), (false, 0, 1));
        assert!(matches!(lane.try_admit(), FastAdmit::Closed));
    }
}
