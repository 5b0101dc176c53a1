//! Randomized fast/slow admission mix against the two-phase lane.
//!
//! Producers and consumers move tokens through a blocking `put`/`take`
//! pair (undeclared aspects — always the locked slow path) while every
//! thread intersperses a seeded-random number of calls to a pure
//! `audit` method whose row declares the full capability contract and
//! therefore rides the CAS fast lane. Runs under both [`WakeMode`]s and
//! asserts the conservation laws the lane must not bend: every
//! activation departs, post-activations balance resumes, and at least
//! one invocation actually took the fast path. A second phase arms a
//! one-shot panic bomb on the audit row and checks that the contained
//! panic is counted exactly once, revokes the row's eligibility, and
//! stops fast admissions for good while the method keeps working via
//! the locked path.
//!
//! Set `AMF_FAST_PATH_SEED` to replay a particular mix; the default
//! below is what CI pins.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread;
use std::time::Duration;

use aspect_moderator::core::{
    AspectCapabilities, AspectModerator, Concern, FnAspect, InvocationContext, MethodHandle,
    MethodId, PanicPolicy, Verdict, WakeMode,
};
use aspect_moderator::verify::seed_from_env;

const WATCHDOG: Duration = Duration::from_secs(120);
const DEFAULT_SEED: u64 = 0xFA57_1A4E;

/// Contained panics still run the panic hook; silence it for this
/// binary so the bomb's unwind does not pollute the test log.
fn silence_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

/// Runs `f` on its own thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a lane that swallowed a wakeup shows up here.
fn bounded<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{label}: lost wakeup suspected (no completion in time)"));
    handle.join().unwrap();
    out
}

/// SplitMix64: tiny deterministic generator so the mix replays exactly
/// from one seed without reaching for the rand shim.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One full protocol round trip on `method`.
fn invoke(moderator: &AspectModerator, method: &MethodHandle) {
    let mut ctx = InvocationContext::new(method.id().clone(), moderator.next_invocation());
    moderator.preactivation(method, &mut ctx).unwrap();
    moderator.postactivation(method, &mut ctx);
}

/// Builds the mixed system: a blocking token buffer (`put` wakes
/// `take`) on the slow path and a declared-pure `audit` row on the
/// fast lane.
fn mixed_system(
    wake_mode: WakeMode,
) -> (
    Arc<AspectModerator>,
    MethodHandle,
    MethodHandle,
    MethodHandle,
) {
    let moderator = Arc::new(
        AspectModerator::builder()
            .wake_mode(wake_mode)
            .panic_policy(PanicPolicy::AbortInvocation)
            .build(),
    );
    let put = moderator.declare_method(MethodId::new("put"));
    let take = moderator.declare_method(MethodId::new("take"));
    let audit = moderator.declare_method(MethodId::new("audit"));
    moderator.wire_wakes(&put, std::slice::from_ref(&take));
    moderator.wire_wakes(&take, &[]);
    moderator.wire_wakes(&audit, &[]);

    let tokens = Arc::new(parking_lot::Mutex::new(0u64));
    {
        let tokens = Arc::clone(&tokens);
        // Undeclared (no capability contract): put always takes the
        // locked path and its postaction mints a token.
        moderator
            .register(
                &put,
                Concern::new("mint"),
                Box::new(FnAspect::new("mint").on_postaction(move |_| {
                    *tokens.lock() += 1;
                })),
            )
            .unwrap();
    }
    {
        let tokens = Arc::clone(&tokens);
        moderator
            .register(
                &take,
                Concern::synchronization(),
                Box::new(FnAspect::new("guard").on_precondition(move |_| {
                    let mut t = tokens.lock();
                    if *t > 0 {
                        *t -= 1;
                        Verdict::Resume
                    } else {
                        Verdict::Block
                    }
                })),
            )
            .unwrap();
    }
    // The audit row declares the full contract, so the bank marks it
    // eligible and invocations ride the single-CAS lane.
    moderator
        .register(
            &audit,
            Concern::new("audit"),
            Box::new(
                FnAspect::new("pure-audit")
                    .on_precondition(|_| Verdict::Resume)
                    .declare_capabilities(AspectCapabilities::all()),
            ),
        )
        .unwrap();
    (moderator, put, take, audit)
}

/// Phase 1: a seeded storm of puts/takes with random audit calls mixed
/// in on every thread. Phase 2: a one-shot contained panic on the
/// audit row must be counted exactly once and permanently close the
/// lane.
fn mixed_storm(wake_mode: WakeMode) {
    silence_panic_hook();
    let per: u64 = 300;
    let workers = 4;
    let seed = seed_from_env("AMF_FAST_PATH_SEED", DEFAULT_SEED);

    let (moderator, put, take, audit) = mixed_system(wake_mode);
    let audits = bounded("fast/slow mixed storm", {
        let moderator = Arc::clone(&moderator);
        let (put, take, audit) = (put.clone(), take.clone(), audit.clone());
        move || {
            thread::scope(|s| {
                let mut handles = Vec::new();
                for w in 0..workers * 2 {
                    let moderator = Arc::clone(&moderator);
                    let slow = if w < workers {
                        put.clone()
                    } else {
                        take.clone()
                    };
                    let audit = audit.clone();
                    handles.push(s.spawn(move || {
                        let mut rng = SplitMix(seed.wrapping_add(w));
                        let mut audits = 0u64;
                        for _ in 0..per {
                            // 0–3 fast-lane calls between each slow op.
                            for _ in 0..rng.next() % 4 {
                                invoke(&moderator, &audit);
                                audits += 1;
                            }
                            invoke(&moderator, &slow);
                        }
                        audits
                    }));
                }
                handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
            })
        }
    });

    let s = moderator.stats();
    // Activations == departures: every preactivation terminated and
    // every resume was balanced by a postactivation.
    assert_eq!(s.preactivations, s.resumes + s.aborts + s.timeouts, "{s:?}");
    assert_eq!(s.postactivations, s.resumes, "{s:?}");
    assert_eq!(s.aborts, 0, "{s:?}");
    assert_eq!(s.preactivations, workers * 2 * per + audits, "{s:?}");
    // The declared row really used the lane, and only that row could
    // have: fast admits never exceed the audit call count.
    assert!(s.fast_path_admits > 0, "lane never admitted: {s:?}");
    assert!(s.fast_path_admits <= audits, "{s:?}");
    assert_eq!(s.panics_caught, 0, "{s:?}");

    // Phase 2: arm a one-shot bomb that *declares* the contract and
    // then breaks it. A fast admission skips the chain by design, so
    // the lie can only be observed when the chain actually runs: wire
    // the audit row to a non-empty wake set — its own queue, so its
    // coordination group stays the same — which closes the lane
    // (eligibility untouched) and routes the next call through the
    // locked path, where the bomb fires and `note_panic` revokes the
    // contract.
    let armed = Arc::new(AtomicBool::new(true));
    let bomb = {
        let armed = Arc::clone(&armed);
        FnAspect::new("bomb")
            .on_precondition(move |_| {
                if armed.swap(false, Ordering::SeqCst) {
                    panic!("injected fast-lane panic");
                }
                Verdict::Resume
            })
            .declare_capabilities(AspectCapabilities::all())
    };
    moderator
        .register(&audit, Concern::new("bomb"), Box::new(bomb))
        .unwrap();
    moderator.wire_wakes(&audit, std::slice::from_ref(&audit));

    let mut ctx = InvocationContext::new(audit.id().clone(), moderator.next_invocation());
    let err = moderator.preactivation(&audit, &mut ctx).unwrap_err();
    assert!(err.is_panic(), "{err}");
    assert!(!armed.load(Ordering::SeqCst), "the bomb must have fired");

    let after_panic = moderator.stats();
    assert_eq!(after_panic.panics_caught, 1, "{after_panic:?}");
    let admits_at_close = after_panic.fast_path_admits;

    // Restore the empty wiring. Without the panic this would reopen
    // the lane (`refresh_lane` would find the row eligible again); the
    // revocation — which survives wiring changes, only a weave
    // recomputes it — must keep the lane closed.
    moderator.wire_wakes(&audit, &[]);

    // The revocation holds: later audits succeed on the locked path
    // and the admit counter never moves again.
    for _ in 0..50 {
        invoke(&moderator, &audit);
    }
    let end = moderator.stats();
    assert_eq!(
        end.fast_path_admits, admits_at_close,
        "lane must stay closed after a contained panic: {end:?}"
    );
    assert_eq!(end.panics_caught, 1, "exact panic accounting: {end:?}");
    assert_eq!(
        end.preactivations,
        end.resumes + end.aborts + end.timeouts,
        "{end:?}"
    );
    assert_eq!(end.postactivations, end.resumes, "{end:?}");
    assert_eq!(end.aborts, 1, "only the bomb aborted: {end:?}");
}

#[test]
fn mixed_fast_slow_storm_notify_all() {
    mixed_storm(WakeMode::NotifyAll);
}

#[test]
fn mixed_fast_slow_storm_notify_one() {
    mixed_storm(WakeMode::NotifyOne);
}
