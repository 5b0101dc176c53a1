//! Event tracing for the moderation protocol.
//!
//! The paper specifies the framework with UML sequence diagrams
//! (Figure 2: initialization, Figure 3: method invocation). To *prove*
//! our implementation follows those diagrams, the moderator can emit a
//! [`TraceEvent`] at every protocol step into a [`TraceSink`]; the
//! integration tests assert that recorded traces match the figures
//! (`tests/figure_traces.rs`).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::concern::{Concern, MethodId};

/// One step of the moderation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An aspect was created by a factory (Figure 2 `createAspect`).
    AspectCreated,
    /// An aspect was stored in the bank (Figure 2 `registerAspect`).
    AspectRegistered,
    /// An aspect was removed from the bank (framework extension).
    AspectDeregistered,
    /// Pre-activation began for an invocation (Figure 3 `preactivation`).
    PreactivationStarted,
    /// A precondition evaluated to RESUME.
    PreconditionResumed,
    /// A precondition evaluated to BLOCKED.
    PreconditionBlocked,
    /// A precondition evaluated to ABORT.
    PreconditionAborted,
    /// A previously resumed aspect was rolled back because a later aspect
    /// blocked or aborted (framework extension, experiment E7).
    AspectReleased,
    /// The caller parked on the method's wait queue.
    WaitStarted,
    /// The caller woke from the wait queue and will re-evaluate.
    WaitWoken,
    /// Pre-activation finished with RESUME; the functional method may run.
    ActivationResumed,
    /// Pre-activation failed (abort or timeout).
    ActivationAborted,
    /// The functional method body ran (emitted by the proxy).
    MethodInvoked,
    /// Post-activation began (Figure 3 `postactivation`).
    PostactivationStarted,
    /// An aspect's postaction ran.
    PostactionRun,
    /// The moderator notified a method's wait queue; the payload is the
    /// notified method.
    NotificationSent(MethodId),
    /// An aspect callback panicked and the moderator contained the
    /// unwind (robustness extension; see DESIGN.md "Fault containment").
    PanicCaught,
    /// An aspect slot exceeded its panic budget and was quarantined: it
    /// evaluates as a no-op from now on.
    AspectQuarantined,
}

/// A timestamped-by-order record of one protocol step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The invocation this event belongs to; zero for registration-time
    /// events, which happen outside any invocation.
    pub invocation: u64,
    /// The participating method involved.
    pub method: MethodId,
    /// The concern involved, when the step is aspect-specific.
    pub concern: Option<Concern>,
    /// Which protocol step occurred.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Compact single-line rendering used by tests and examples, e.g.
    /// `"#3 precondition-resumed open/sync"`.
    pub fn compact(&self) -> String {
        let kind = match &self.kind {
            EventKind::AspectCreated => "aspect-created".to_string(),
            EventKind::AspectRegistered => "aspect-registered".to_string(),
            EventKind::AspectDeregistered => "aspect-deregistered".to_string(),
            EventKind::PreactivationStarted => "preactivation".to_string(),
            EventKind::PreconditionResumed => "precondition-resumed".to_string(),
            EventKind::PreconditionBlocked => "precondition-blocked".to_string(),
            EventKind::PreconditionAborted => "precondition-aborted".to_string(),
            EventKind::AspectReleased => "aspect-released".to_string(),
            EventKind::WaitStarted => "wait".to_string(),
            EventKind::WaitWoken => "woken".to_string(),
            EventKind::ActivationResumed => "resumed".to_string(),
            EventKind::ActivationAborted => "aborted".to_string(),
            EventKind::MethodInvoked => "method-invoked".to_string(),
            EventKind::PostactivationStarted => "postactivation".to_string(),
            EventKind::PostactionRun => "postaction".to_string(),
            EventKind::NotificationSent(target) => format!("notify->{target}"),
            EventKind::PanicCaught => "panic-caught".to_string(),
            EventKind::AspectQuarantined => "quarantined".to_string(),
        };
        match &self.concern {
            Some(c) => format!("#{} {} {}/{}", self.invocation, kind, self.method, c),
            None => format!("#{} {} {}", self.invocation, kind, self.method),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

/// Receives protocol events from a moderator.
///
/// Implementations must tolerate concurrent calls. The moderator records
/// most steps while holding the invoked method's coordination-cell lock
/// (not a moderator-wide one), so sinks should be fast and must never
/// call back into the moderator (deadlock).
pub trait TraceSink: Send + Sync {
    /// Records one protocol step.
    fn record(&self, event: TraceEvent);

    /// Whether [`TraceSink::record`] would keep `event`. A [`TeeSink`]
    /// asks before cloning an event for any sink but its last, so a
    /// selective sink placed first costs no clone for the events it
    /// declines. The default keeps everything.
    fn accepts(&self, _event: &TraceEvent) -> bool {
        true
    }
}

/// A [`TraceSink`] that keeps events in memory, in record order.
///
/// [`MemoryTrace::new`] keeps every event. [`MemoryTrace::bounded`]
/// keeps only the newest `capacity`: recording into a full trace evicts
/// the oldest event and counts it in [`MemoryTrace::dropped`], so the
/// trace works as a fixed-size flight recorder.
///
/// ```
/// use std::sync::Arc;
/// use amf_core::trace::{EventKind, MemoryTrace, TraceEvent, TraceSink};
/// use amf_core::MethodId;
///
/// let trace = Arc::new(MemoryTrace::new());
/// trace.record(TraceEvent {
///     invocation: 1,
///     method: MethodId::new("open"),
///     concern: None,
///     kind: EventKind::PreactivationStarted,
/// });
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.events()[0].compact(), "#1 preactivation open");
/// ```
#[derive(Default)]
pub struct MemoryTrace {
    state: Mutex<TraceState>,
    capacity: Option<usize>,
}

#[derive(Default)]
struct TraceState {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl fmt::Debug for MemoryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryTrace")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl MemoryTrace {
    /// Creates an empty, unbounded trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace that keeps only the newest `capacity`
    /// events. Nothing is allocated until the first event arrives.
    ///
    /// ```
    /// use amf_core::trace::{EventKind, MemoryTrace, TraceEvent, TraceSink};
    /// use amf_core::MethodId;
    ///
    /// let ring = MemoryTrace::bounded(2);
    /// for invocation in 1..=3 {
    ///     ring.record(TraceEvent {
    ///         invocation,
    ///         method: MethodId::new("open"),
    ///         concern: None,
    ///         kind: EventKind::MethodInvoked,
    ///     });
    /// }
    /// assert_eq!(ring.len(), 2);
    /// assert_eq!(ring.dropped(), 1);
    /// assert_eq!(ring.events()[0].invocation, 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            state: Mutex::default(),
            capacity: Some(capacity),
        }
    }

    /// Convenience: a new unbounded trace already wrapped in an [`Arc`]
    /// for handing to a moderator builder.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound since creation. Always zero
    /// for an unbounded trace.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Snapshot of all retained events in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().events.iter().cloned().collect()
    }

    /// Snapshot of the retained events belonging to one invocation.
    pub fn events_for(&self, invocation: u64) -> Vec<TraceEvent> {
        self.state
            .lock()
            .events
            .iter()
            .filter(|e| e.invocation == invocation)
            .cloned()
            .collect()
    }

    /// Compact one-line-per-event rendering of the retained events.
    pub fn compact(&self) -> Vec<String> {
        self.state
            .lock()
            .events
            .iter()
            .map(TraceEvent::compact)
            .collect()
    }

    /// Clears all retained events; the [`MemoryTrace::dropped`] count
    /// is kept.
    pub fn clear(&self) {
        self.state.lock().events.clear();
    }
}

impl TraceSink for MemoryTrace {
    fn record(&self, event: TraceEvent) {
        let mut st = self.state.lock();
        // Evict before pushing, so a full ring never grows its buffer.
        let evicted = if self.capacity == Some(st.events.len()) {
            st.dropped += 1;
            st.events.pop_front()
        } else {
            None
        };
        st.events.push_back(event);
        // Release the lock before the evicted event's refcounts drop.
        drop(st);
        drop(evicted);
    }
}

/// Fans events out to several sinks in order.
///
/// ```
/// use std::sync::Arc;
/// use amf_core::trace::{MemoryTrace, TeeSink, TraceSink};
///
/// let a = MemoryTrace::shared();
/// let b = MemoryTrace::shared();
/// let tee = TeeSink::new(vec![a.clone(), b.clone()]);
/// # let _ = &tee;
/// ```
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TeeSink {
    /// Creates a tee over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: TraceEvent) {
        // Clone for every sink but the last, and only for those that keep
        // the event; the last takes the event itself.
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                if sink.accepts(&event) {
                    sink.record(event.clone());
                }
            }
            last.record(event);
        }
    }
}

type TracePredicate = Box<dyn Fn(&TraceEvent) -> bool + Send + Sync>;

/// Forwards only the events matching a predicate — e.g. keep a full
/// protocol trace out of production but retain every abort.
///
/// ```
/// use std::sync::Arc;
/// use amf_core::trace::{EventKind, FilterSink, MemoryTrace};
///
/// let aborts = MemoryTrace::shared();
/// let only_aborts = FilterSink::new(aborts.clone(), |e| {
///     matches!(e.kind, EventKind::ActivationAborted | EventKind::PreconditionAborted)
/// });
/// # let _ = only_aborts;
/// ```
pub struct FilterSink {
    inner: Arc<dyn TraceSink>,
    predicate: TracePredicate,
}

impl fmt::Debug for FilterSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterSink").finish_non_exhaustive()
    }
}

impl FilterSink {
    /// Creates a filter forwarding to `inner` the events `predicate`
    /// accepts.
    pub fn new(
        inner: Arc<dyn TraceSink>,
        predicate: impl Fn(&TraceEvent) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            inner,
            predicate: Box::new(predicate),
        }
    }
}

impl TraceSink for FilterSink {
    fn record(&self, event: TraceEvent) {
        if (self.predicate)(&event) {
            self.inner.record(event);
        }
    }

    fn accepts(&self, event: &TraceEvent) -> bool {
        (self.predicate)(event) && self.inner.accepts(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(invocation: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            invocation,
            method: MethodId::new("open"),
            concern: Some(Concern::synchronization()),
            kind,
        }
    }

    #[test]
    fn records_in_order() {
        let t = MemoryTrace::new();
        t.record(ev(1, EventKind::PreactivationStarted));
        t.record(ev(1, EventKind::PreconditionResumed));
        t.record(ev(1, EventKind::ActivationResumed));
        let kinds: Vec<_> = t.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PreactivationStarted,
                EventKind::PreconditionResumed,
                EventKind::ActivationResumed
            ]
        );
    }

    #[test]
    fn events_for_filters_by_invocation() {
        let t = MemoryTrace::new();
        t.record(ev(1, EventKind::PreactivationStarted));
        t.record(ev(2, EventKind::PreactivationStarted));
        t.record(ev(1, EventKind::ActivationResumed));
        assert_eq!(t.events_for(1).len(), 2);
        assert_eq!(t.events_for(2).len(), 1);
        assert!(t.events_for(3).is_empty());
    }

    #[test]
    fn compact_rendering() {
        assert_eq!(
            ev(4, EventKind::PreconditionBlocked).compact(),
            "#4 precondition-blocked open/sync"
        );
        let notify = TraceEvent {
            invocation: 2,
            method: MethodId::new("open"),
            concern: None,
            kind: EventKind::NotificationSent(MethodId::new("assign")),
        };
        assert_eq!(notify.compact(), "#2 notify->assign open");
        assert_eq!(notify.to_string(), notify.compact());
    }

    #[test]
    fn clear_empties_trace() {
        let t = MemoryTrace::new();
        t.record(ev(1, EventKind::MethodInvoked));
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn bounded_trace_keeps_the_newest_events_across_wraps() {
        let cap = 5;
        let t = MemoryTrace::bounded(cap);
        // Several full wraps plus a partial one.
        let records = 3 * cap as u64 + 2;
        for i in 1..=records {
            t.record(ev(i, EventKind::MethodInvoked));
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), records - cap as u64);
        let kept: Vec<u64> = t.events().iter().map(|e| e.invocation).collect();
        let newest: Vec<u64> = (records - cap as u64 + 1..=records).collect();
        assert_eq!(kept, newest);
        assert_eq!(t.compact().len(), cap);
    }

    #[test]
    fn events_for_works_after_a_wrap() {
        let t = MemoryTrace::bounded(4);
        for i in 1..=3 {
            t.record(ev(i, EventKind::PreactivationStarted));
            t.record(ev(i, EventKind::ActivationResumed));
        }
        // Invocation 1 was evicted; 2 and 3 survive whole.
        assert!(t.events_for(1).is_empty());
        assert_eq!(t.events_for(2).len(), 2);
        assert_eq!(t.events_for(3).len(), 2);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn unbounded_trace_never_drops() {
        let t = MemoryTrace::new();
        for i in 0..100 {
            t.record(ev(i, EventKind::MethodInvoked));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "trace capacity must be positive")]
    fn bounded_zero_panics() {
        let _ = MemoryTrace::bounded(0);
    }

    #[test]
    fn tee_duplicates_events() {
        let a = MemoryTrace::shared();
        let b = MemoryTrace::shared();
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        tee.record(ev(1, EventKind::MethodInvoked));
        tee.record(ev(2, EventKind::PostactionRun));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn accepts_reports_what_record_keeps() {
        let filter = FilterSink::new(MemoryTrace::shared(), |e| {
            matches!(e.kind, EventKind::PanicCaught)
        });
        assert!(filter.accepts(&ev(1, EventKind::PanicCaught)));
        assert!(!filter.accepts(&ev(1, EventKind::MethodInvoked)));
        assert!(MemoryTrace::new().accepts(&ev(1, EventKind::MethodInvoked)));
    }

    #[test]
    fn tee_skips_sinks_that_decline() {
        struct Refuses;
        impl TraceSink for Refuses {
            fn record(&self, _event: TraceEvent) {
                panic!("a declining sink was handed an event");
            }
            fn accepts(&self, _event: &TraceEvent) -> bool {
                false
            }
        }
        let kept = MemoryTrace::shared();
        let tee = TeeSink::new(vec![Arc::new(Refuses), kept.clone()]);
        tee.record(ev(1, EventKind::MethodInvoked));
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn filter_drops_unmatched_events() {
        let inner = MemoryTrace::shared();
        let filter = FilterSink::new(inner.clone(), |e| {
            matches!(e.kind, EventKind::PreconditionAborted)
        });
        filter.record(ev(1, EventKind::MethodInvoked));
        filter.record(ev(2, EventKind::PreconditionAborted));
        filter.record(ev(3, EventKind::PostactionRun));
        assert_eq!(inner.len(), 1);
        assert_eq!(inner.events()[0].invocation, 2);
    }

    #[test]
    fn sinks_compose_with_a_moderator() {
        use crate::{AspectModerator, MethodId};
        let everything = MemoryTrace::shared();
        let aborts_only = MemoryTrace::shared();
        let tee = Arc::new(TeeSink::new(vec![
            everything.clone(),
            Arc::new(FilterSink::new(aborts_only.clone(), |e| {
                matches!(e.kind, EventKind::ActivationAborted)
            })),
        ]));
        let moderator = AspectModerator::builder().trace(tee).build();
        let m = moderator.declare_method(MethodId::new("op"));
        let mut ctx = crate::InvocationContext::new(m.id().clone(), 1);
        moderator.preactivation(&m, &mut ctx).unwrap();
        moderator.postactivation(&m, &mut ctx);
        assert!(everything.len() >= 3);
        assert!(aborts_only.is_empty());
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let t = MemoryTrace::shared();
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.record(ev(i, EventKind::PostactionRun));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 400);
    }
}
