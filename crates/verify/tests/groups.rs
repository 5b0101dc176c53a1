//! Coordination groups: a method's postactions and the notify of the
//! queues it is wired to wake are one atomic step, because the methods
//! joined by wake wiring share one cell lock. The model's default
//! post-activation step is that protocol; [`Checker::split_notify`]
//! reconstructs the per-method-cell protocol it replaced (postactions
//! under the source's own cell, the notify a separate later step).
//!
//! The witness shape is the `tick`/`open` token gate under Fifo
//! NotifyAll: `tick`'s postaction mints a token and its notify restarts
//! `open`'s broadcast sweep at the queue head. Split in two, the token
//! can reach the ticket at the old sweep cursor first, past an earlier
//! ticket that already re-blocked in the same sweep — the inversion
//! `tests/properties_fairness.rs` saw in the implementation.

use amf_verify::{aspects, Checker, MethodIx, ModelSystem, ModelVerdict, Outcome};

#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
struct Tokens {
    avail: usize,
}

/// `open` consumes a token or blocks; `tick`'s postaction mints one,
/// and `tick` is wired to wake `open`.
fn minted_in_postaction() -> (ModelSystem<Tokens>, MethodIx, MethodIx) {
    let mut sys = ModelSystem::new();
    let open = sys.method("open");
    let tick = sys.method("tick");
    sys.add_aspect(
        open,
        "gate",
        aspects::from_fns(
            |s: &mut Tokens| {
                if s.avail > 0 {
                    s.avail -= 1;
                    ModelVerdict::Resume
                } else {
                    ModelVerdict::Block
                }
            },
            |_| (),
            |s: &mut Tokens| s.avail += 1,
        ),
    );
    sys.add_aspect(
        tick,
        "mint",
        aspects::from_fns(
            |_| ModelVerdict::Resume,
            |s: &mut Tokens| s.avail += 1,
            |_| (),
        ),
    );
    sys.wire_wakes(tick, vec![open]);
    sys.wire_wakes(open, vec![]);
    (sys, open, tick)
}

fn checker(split: bool) -> Checker<Tokens> {
    let (sys, open, tick) = minted_in_postaction();
    let checker = Checker::new(sys)
        .fifo()
        .check_fairness()
        .thread(vec![open])
        .thread(vec![open])
        .thread(vec![open])
        .thread(vec![tick, tick, tick]);
    if split {
        checker.split_notify()
    } else {
        checker
    }
}

/// The group protocol: across every interleaving, no `open` resumes
/// past a still-queued earlier ticket, and every opener gets a token.
#[test]
fn group_protocol_proves_no_overtake() {
    let result = checker(false).run(Tokens::default());
    assert_eq!(result.outcome, Outcome::Ok, "{result:?}");
    assert!(result.terminals >= 1);
}

/// The per-method-cell protocol is caught: a minted token reaches the
/// sweep cursor between `tick`'s postaction and its notify. The
/// counterexample is shrunk to the steps that matter.
#[test]
fn split_notify_ablation_is_caught_with_a_shrunk_trace() {
    let result = checker(true).run(Tokens::default());
    let Outcome::FairnessViolation(trace) = result.outcome else {
        panic!("expected a fairness violation, got {:?}", result.outcome);
    };
    let rendered: Vec<String> = trace.iter().map(ToString::to_string).collect();
    let last = rendered.last().unwrap();
    assert!(last.contains("chain(open) -> resumed"), "{rendered:#?}");
    // The overtaking evaluation falls between the minting postaction
    // and its notify.
    let minted = rendered
        .iter()
        .rposition(|s| s.contains("post(tick)"))
        .unwrap_or_else(|| panic!("{rendered:#?}"));
    assert!(
        !rendered[minted..]
            .iter()
            .any(|s| s.contains("notify(tick)")),
        "{rendered:#?}"
    );
    assert!(rendered.len() <= 16, "trace not shrunk: {rendered:#?}");
}
