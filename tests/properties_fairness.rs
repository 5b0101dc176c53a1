//! Fairness property: under `FairnessPolicy::Fifo` the grant order of
//! blocked callers equals their park order — zero wake-order
//! inversions — across randomized interleavings and both `WakeMode`s.
//!
//! Each iteration runs a token-gated method (`open` blocks until `tick`
//! mints a token, the minimal shape in which wake order is observable)
//! with randomized thread counts and arrival jitter, then replays the
//! protocol trace: the first `WaitStarted` per invocation fixes park
//! order, `ActivationResumed` fixes grant order, and both are recorded
//! under the method's cell lock so trace order is queue order.
//!
//! Together the two tests explore ≥ 1000 randomized interleavings
//! (500 per wake mode). The jitter schedule is driven by a seeded RNG;
//! set `AMF_FAIRNESS_SEED` to reproduce a failing schedule (CI pins
//! it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use aspect_moderator::core::trace::EventKind;
use aspect_moderator::core::{
    AspectModerator, Concern, FairnessPolicy, FnAspect, InvocationContext, MemoryTrace, MethodId,
    Verdict, WakeMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ITERATIONS: usize = 500;
const DEFAULT_SEED: u64 = 0x5eed_fa18;
const WATCHDOG: Duration = Duration::from_secs(300);

fn seed() -> u64 {
    aspect_moderator::verify::seed_from_env("AMF_FAIRNESS_SEED", DEFAULT_SEED)
}

/// Runs `f` on its own thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a lost wakeup (or a fairness bug that strands
/// a queued caller) shows up as a hang, not just an inversion.
fn bounded<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => {
            handle.join().unwrap();
            out
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label}: hang (seed {})", seed()),
        // `f` panicked (a failed assertion dropped the sender): surface
        // its own message, not a false hang.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("{label}: finished without a result"),
        },
    }
}

/// Declares the token gate: `open` consumes a token or blocks; `tick`
/// mints one in its postaction and its completion notifies `open`'s
/// queue.
fn gated(
    m: &AspectModerator,
    tokens: &Arc<AtomicU64>,
) -> (
    aspect_moderator::core::MethodHandle,
    aspect_moderator::core::MethodHandle,
) {
    let open = m.declare_method(MethodId::new("open"));
    let tick = m.declare_method(MethodId::new("tick"));
    {
        let tokens = Arc::clone(tokens);
        m.register(
            &open,
            Concern::synchronization(),
            Box::new(FnAspect::new("token-gate").on_precondition(move |_| {
                if tokens.load(Ordering::SeqCst) > 0 {
                    tokens.fetch_sub(1, Ordering::SeqCst);
                    Verdict::Resume
                } else {
                    Verdict::Block
                }
            })),
        )
        .unwrap();
    }
    {
        let tokens = Arc::clone(tokens);
        m.register(
            &tick,
            Concern::new("mint"),
            Box::new(FnAspect::new("mint").on_postaction(move |_| {
                tokens.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .unwrap();
    }
    m.wire_wakes(&tick, std::slice::from_ref(&open));
    m.wire_wakes(&open, &[]);
    (open, tick)
}

fn invoke(m: &AspectModerator, h: &aspect_moderator::core::MethodHandle) {
    let mut ctx = InvocationContext::new(h.id().clone(), m.next_invocation());
    m.preactivation(h, &mut ctx).unwrap();
    m.postactivation(h, &mut ctx);
}

/// Replays `trace` for `method`: (park order, grant order restricted to
/// invocations that parked). Zero inversions ⇔ the two are equal.
fn park_and_grant_order(trace: &MemoryTrace, method: &MethodId) -> (Vec<u64>, Vec<u64>) {
    let mut park = Vec::new();
    let mut grant = Vec::new();
    for e in trace.events() {
        if e.method != *method {
            continue;
        }
        match e.kind {
            // Re-blocks emit further WaitStarted events; the first one
            // per invocation is where its ticket was issued.
            EventKind::WaitStarted if !park.contains(&e.invocation) => {
                park.push(e.invocation);
            }
            EventKind::ActivationResumed => grant.push(e.invocation),
            _ => {}
        }
    }
    let granted_parked = grant.iter().copied().filter(|i| park.contains(i)).collect();
    (park, granted_parked)
}

/// One randomized interleaving; returns how many callers actually
/// parked (the interesting subset).
fn one_interleaving(mode: WakeMode, rng: &mut StdRng) -> usize {
    let tokens = Arc::new(AtomicU64::new(0));
    let trace = MemoryTrace::shared();
    let moderator = Arc::new(
        AspectModerator::builder()
            .fairness(FairnessPolicy::Fifo)
            .wake_mode(mode)
            .trace(trace.clone())
            .build(),
    );
    let (open, tick) = gated(&moderator, &tokens);

    let waiters = rng.gen_range(2..6usize);
    let open_jitter: Vec<u32> = (0..waiters).map(|_| rng.gen_range(0..1500)).collect();
    let tick_jitter: Vec<u32> = (0..waiters).map(|_| rng.gen_range(0..1500)).collect();
    thread::scope(|s| {
        for spins in open_jitter {
            let moderator = Arc::clone(&moderator);
            let open = open.clone();
            s.spawn(move || {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                invoke(&moderator, &open);
            });
        }
        let moderator = Arc::clone(&moderator);
        let tick = tick.clone();
        s.spawn(move || {
            for spins in tick_jitter {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                invoke(&moderator, &tick);
            }
        });
    });

    let (park, granted_parked) = park_and_grant_order(&trace, open.id());
    assert_eq!(
        granted_parked,
        park,
        "wake-order inversion under {mode:?} (seed {})",
        seed()
    );
    let s = moderator.stats();
    assert_eq!(s.resumes, 2 * waiters as u64);
    assert_eq!(s.tickets_issued, s.tickets_served, "{s:?}");
    assert_eq!(s.tickets_issued, park.len() as u64, "{s:?}");
    park.len()
}

fn zero_inversions(mode: WakeMode) {
    let parked_total = bounded("fairness property", move || {
        let mut rng = StdRng::seed_from_u64(seed() ^ mode as u64);
        (0..ITERATIONS)
            .map(|_| one_interleaving(mode, &mut rng))
            .sum::<usize>()
    });
    // The scenario must actually exercise queued wakeups, not resolve
    // every call on its first pass.
    assert!(
        parked_total >= ITERATIONS / 2,
        "only {parked_total} parked callers across {ITERATIONS} interleavings"
    );
}

#[test]
fn grant_order_equals_park_order_notify_all() {
    zero_inversions(WakeMode::NotifyAll);
}

#[test]
fn grant_order_equals_park_order_notify_one() {
    zero_inversions(WakeMode::NotifyOne);
}
