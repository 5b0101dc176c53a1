//! The chaos battery: randomized panic injection against the ticketing
//! pipeline under heavy contention. A seeded [`PanicInjectionAspect`]
//! rides on both methods' chains while producers and consumers hammer a
//! small buffer from 8 threads; the suite asserts the containment
//! contract end to end — the run stays live (watchdog-bounded), every
//! injected panic is caught and counted (`panics_caught` equals the
//! injectors' own tally), no reservation leaks (a canary aspect keeps a
//! resume/release balance), and the buffer quiesces empty.
//!
//! Seeds mirror the fairness battery: set `AMF_CHAOS_SEED` to replay a
//! particular storm; the default below is what CI pins.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread;
use std::time::Duration;

use aspect_moderator::aspects::fault::{chaos_seed, PanicInjectionAspect};
use aspect_moderator::core::{
    AspectModerator, Concern, FairnessPolicy, FnAspect, PanicPolicy, Verdict,
};
use aspect_moderator::ticketing::{Ticket, TicketId, TicketServerProxy};

const WATCHDOG: Duration = Duration::from_secs(120);
const DEFAULT_SEED: u64 = 0xC4A0_5BA7;

/// Contained panics still run the panic hook; silence it for this
/// binary so a storm of injected unwinds does not flood the test log.
fn silence_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

/// Runs `f` on its own thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a stranded waiter shows up as a hang.
fn bounded<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{label}: stranded waiter suspected (no completion in time)"));
    handle.join().unwrap();
    out
}

/// A balance-keeping canary: `pre` increments, postaction *and*
/// rollback decrement. Registered after the injector it evaluates
/// before it (nested ordering), so every injected precondition panic
/// leaves a resumed canary behind — if the prefix unwind ever skipped,
/// the balance ends positive.
fn canary(balance: &Arc<AtomicI64>) -> FnAspect {
    let up = Arc::clone(balance);
    let down = Arc::clone(balance);
    let undo = Arc::clone(balance);
    FnAspect::new("canary")
        .on_precondition(move |_| {
            up.fetch_add(1, Ordering::SeqCst);
            Verdict::Resume
        })
        .on_postaction(move |_| {
            down.fetch_sub(1, Ordering::SeqCst);
        })
        .on_release_do(move |_, _| {
            undo.fetch_sub(1, Ordering::SeqCst);
        })
}

/// 4 producers and 4 consumers push `per` tickets each through a
/// capacity-4 buffer while seeded injectors panic in preconditions and
/// postactions of both methods. Asserts liveness, exact panic
/// accounting and quiescence.
fn chaos_run(fairness: FairnessPolicy) {
    silence_panic_hook();
    let per: u64 = 300;
    let workers = 4;
    let seed = chaos_seed(DEFAULT_SEED);
    let balance = Arc::new(AtomicI64::new(0));

    let (proxy, open_fired, assign_fired) = {
        let moderator = Arc::new(
            AspectModerator::builder()
                .fairness(fairness)
                .panic_policy(PanicPolicy::AbortInvocation)
                .build(),
        );
        let proxy = Arc::new(TicketServerProxy::new(4, moderator).unwrap());
        let open_inj = PanicInjectionAspect::new(0.15, 0.05, seed);
        let assign_inj = PanicInjectionAspect::new(0.15, 0.05, seed.wrapping_add(1));
        let (open_fired, assign_fired) = (open_inj.counter(), assign_inj.counter());
        let m = proxy.moderator();
        m.register(
            proxy.open_handle(),
            Concern::new("panic-injection"),
            Box::new(open_inj),
        )
        .unwrap();
        m.register(
            proxy.assign_handle(),
            Concern::new("panic-injection"),
            Box::new(assign_inj),
        )
        .unwrap();
        m.register(
            proxy.open_handle(),
            Concern::new("canary"),
            Box::new(canary(&balance)),
        )
        .unwrap();
        m.register(
            proxy.assign_handle(),
            Concern::new("canary"),
            Box::new(canary(&balance)),
        )
        .unwrap();
        (proxy, open_fired, assign_fired)
    };

    let proxy = bounded("chaos storm", {
        let proxy = Arc::clone(&proxy);
        move || {
            thread::scope(|s| {
                for p in 0..workers {
                    let proxy = Arc::clone(&proxy);
                    s.spawn(move || {
                        for i in 0..per {
                            // Retry through contained panics: an
                            // aborted activation must leave the system
                            // ready to accept the same op again.
                            loop {
                                match proxy.open(Ticket::new(p * 1_000_000 + i, "chaos")) {
                                    Ok(()) => break,
                                    Err(e) if e.is_panic() => continue,
                                    Err(e) => panic!("unexpected abort: {e}"),
                                }
                            }
                        }
                    });
                }
                for _ in 0..workers {
                    let proxy = Arc::clone(&proxy);
                    s.spawn(move || {
                        for _ in 0..per {
                            loop {
                                match proxy.assign() {
                                    Ok(_) => break,
                                    Err(e) if e.is_panic() => continue,
                                    Err(e) => panic!("unexpected abort: {e}"),
                                }
                            }
                        }
                    });
                }
            });
            proxy
        }
    });

    let fired = open_fired.load(Ordering::SeqCst) + assign_fired.load(Ordering::SeqCst);
    assert!(fired >= 100, "storm too mild: only {fired} panics injected");

    // Every successful op landed: totals balance and the buffer is
    // empty again.
    assert_eq!(proxy.totals(), (workers * per, workers * per));
    assert!(proxy.is_empty());
    let snap = proxy.buffer_handle().snapshot();
    assert_eq!(
        (snap.reserved, snap.produced),
        (0, 0),
        "reservations must be conserved across panics"
    );

    // The canary balance proves the prefix unwind ran for every
    // contained panic: each resumed canary was compensated exactly once
    // (postaction on success, release on rollback).
    assert_eq!(
        balance.load(Ordering::SeqCst),
        0,
        "leaked canary reservation after the storm"
    );

    // Exact panic accounting: everything the injectors fired was
    // caught, nothing else was.
    let s = proxy.moderator().stats();
    assert_eq!(s.panics_caught, fired, "{s:?}");
    assert_eq!(s.quarantined_aspects, 0, "{s:?}");
    assert_eq!(
        s.preactivations,
        s.resumes + s.aborts + s.timeouts,
        "every preactivation must terminate: {s:?}"
    );
    assert_eq!(s.postactivations, s.resumes, "{s:?}");
}

#[test]
fn chaos_storm_is_contained_under_barging() {
    chaos_run(FairnessPolicy::Barging);
}

#[test]
fn chaos_storm_is_contained_under_fifo() {
    chaos_run(FairnessPolicy::Fifo);
}

/// Satellite regression: a panic inside one method's postaction must
/// never strand the *other* method's waiters. A consumer parks on the
/// empty buffer; the producer's postaction then panics — the contained
/// unwind must still deliver the notification to the consumer's queue,
/// or the consumer hangs forever.
#[test]
fn postaction_panic_still_wakes_the_other_cell() {
    silence_panic_hook();
    let moderator = Arc::new(
        AspectModerator::builder()
            .panic_policy(PanicPolicy::AbortInvocation)
            .build(),
    );
    let proxy = Arc::new(TicketServerProxy::new(1, moderator).unwrap());
    let armed = Arc::new(AtomicBool::new(true));
    let bomb = {
        let armed = Arc::clone(&armed);
        FnAspect::new("post-bomb").on_postaction(move |_| {
            if armed.swap(false, Ordering::SeqCst) {
                panic!("injected postaction panic");
            }
        })
    };
    proxy
        .moderator()
        .register(
            proxy.open_handle(),
            Concern::new("post-bomb"),
            Box::new(bomb),
        )
        .unwrap();

    let ticket = bounded("cross-method wake after postaction panic", {
        let proxy = Arc::clone(&proxy);
        move || {
            let consumer = {
                let proxy = Arc::clone(&proxy);
                thread::spawn(move || proxy.assign().unwrap())
            };
            // Let the consumer park before the faulty open runs.
            while proxy.moderator().stats().blocks == 0 {
                thread::yield_now();
            }
            proxy.open(Ticket::new(7, "chaos")).unwrap();
            consumer.join().unwrap()
        }
    });
    assert_eq!(ticket.id, TicketId(7));
    assert!(!armed.load(Ordering::SeqCst), "the bomb must have fired");
    let s = proxy.moderator().stats();
    assert_eq!(s.panics_caught, 1, "{s:?}");
    assert!(proxy.is_empty());
}

/// Quarantine unclogs a hot aspect: an injector with certainty-one
/// precondition panic rate blocks every open until its panic budget is
/// spent, after which the slot is disabled and the pipeline flows.
#[test]
fn quarantine_retires_a_permanently_faulty_aspect() {
    silence_panic_hook();
    let moderator = Arc::new(
        AspectModerator::builder()
            .panic_policy(PanicPolicy::Quarantine { after: 3 })
            .build(),
    );
    let proxy = Arc::new(TicketServerProxy::new(2, moderator).unwrap());
    let inj = PanicInjectionAspect::new(1.0, 0.0, chaos_seed(DEFAULT_SEED));
    let fired = inj.counter();
    proxy
        .moderator()
        .register(
            proxy.open_handle(),
            Concern::new("panic-injection"),
            Box::new(inj),
        )
        .unwrap();

    let mut failures = 0;
    for i in 0..10 {
        loop {
            match proxy.open(Ticket::new(i, "chaos")) {
                Ok(()) => break,
                Err(e) if e.is_panic() => failures += 1,
                Err(e) => panic!("unexpected abort: {e}"),
            }
        }
        proxy.assign().unwrap();
    }
    assert_eq!(failures, 3, "exactly the quarantine budget fails");
    assert_eq!(fired.load(Ordering::SeqCst), 3);
    let s = proxy.moderator().stats();
    assert_eq!(s.panics_caught, 3, "{s:?}");
    assert_eq!(s.quarantined_aspects, 1, "{s:?}");
}
