//! The four service workloads: one `TicketService` as shipped
//! (`ServiceConfig::default()`: task front, 16 workers) in this process,
//! driven over two loopback TCP connections.

use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amf_core::{ModeratorStats, WaitHistogram};
use amf_service::{ServiceConfig, ServiceHandle, TicketService};

use crate::gen::{self, Running, Span, Window, WireOutcome};
use crate::plan::{self, Kind, Op, Summaries, Workload};
use crate::replay::{self, Outcome, Timed};
use crate::report::RunResult;
use crate::stats::percentile_us;
use crate::sys::{self, ThreadGroup, ThreadSample};
use crate::{timed_setups, RunConfig};

const USER: &str = "bench";
/// Requests each closed-loop connection keeps outstanding.
const DEPTH: usize = 8;
/// Closed-loop requests per second reserved for up front: about twice
/// what the service sustains on a 2-CPU host.
const CLOSED_LOOP_RESERVE: f64 = 150_000.0;
/// Open ids of the ticketing replay start here, clear of the wire run's.
const REPLAY_IDS: u64 = 1 << 40;
/// An open-loop run is invalid when it completes less than this share
/// of the offered rate (a growing backlog) ...
const MIN_THROUGHPUT_SHARE: f64 = 0.98;
/// ... or when the generator starts 1% of requests later than this.
const MAX_LATE_P99_US: f64 = 200.0;

/// A ready service: user logged in, both connections open and answered.
struct Session {
    handle: ServiceHandle,
    token: u64,
    conns: [TcpStream; 2],
}

impl Session {
    fn start() -> io::Result<Self> {
        let handle = TicketService::spawn("127.0.0.1:0", ServiceConfig::default())
            .map_err(io::Error::other)?;
        handle.authenticator().add_user(USER, USER);
        let token = handle
            .authenticator()
            .login(USER, USER)
            .map_err(|e| io::Error::other(format!("login: {e:?}")))?
            .0;
        let conns = [connect(&handle)?, connect(&handle)?];
        let stats = amf_service::codec::encode_request(&amf_service::Request::Stats);
        for conn in &conns {
            replay::round_trip(conn, &stats)?;
        }
        Ok(Self {
            handle,
            token,
            conns,
        })
    }
}

fn connect(handle: &ServiceHandle) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(handle.addr())?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

/// Process counters at the window's start or end.
struct Snapshot {
    process_cpu_ns: u64,
    gen_cpu_ns: u64,
    main_cpu_ns: u64,
    threads: ThreadSample,
    rss: u64,
    moderator: ModeratorStats,
    trace_len: u64,
}

impl Snapshot {
    fn take(session: &Session, running: &Running) -> Self {
        Self {
            process_cpu_ns: sys::process_cpu_ns(),
            gen_cpu_ns: running.cpu_ns(),
            main_cpu_ns: sys::thread_cpu_ns(),
            threads: ThreadSample::take(),
            rss: sys::rss_bytes(),
            moderator: session.handle.proxy().base().moderator().stats(),
            trace_len: session.handle.trace().len() as u64,
        }
    }
}

/// Differences between two snapshots, per completed request.
struct Delta<'a> {
    a: &'a Snapshot,
    b: &'a Snapshot,
    ops: f64,
}

impl Delta<'_> {
    fn per_op(&self, x: u64, y: u64) -> f64 {
        y.saturating_sub(x) as f64 / self.ops
    }

    /// Process CPU minus the benchmark's own threads, µs per request.
    fn service_cpu_us(&self) -> f64 {
        let (a, b) = (self.a, self.b);
        let own =
            b.gen_cpu_ns.saturating_sub(a.gen_cpu_ns) + b.main_cpu_ns.saturating_sub(a.main_cpu_ns);
        let process = b.process_cpu_ns.saturating_sub(a.process_cpu_ns);
        process.saturating_sub(own) as f64 / 1e3 / self.ops
    }

    fn group_cpu_us(&self, g: ThreadGroup) -> f64 {
        self.per_op(self.a.threads.cpu_us(g), self.b.threads.cpu_us(g))
    }

    fn rss_bytes(&self) -> f64 {
        (self.b.rss as f64 - self.a.rss as f64) / self.ops
    }

    /// Growth of one moderator counter.
    fn delta(&self, f: impl Fn(&ModeratorStats) -> u64) -> f64 {
        f(&self.b.moderator).saturating_sub(f(&self.a.moderator)) as f64
    }

    fn moderator(&self, f: impl Fn(&ModeratorStats) -> u64) -> f64 {
        self.delta(f) / self.ops
    }
}

/// Median of the blocked waits recorded between two histograms,
/// interpolated within its log₂-µs bucket.
fn wait_p50_us(a: &WaitHistogram, b: &WaitHistogram) -> f64 {
    let d: Vec<u64> = b
        .buckets
        .iter()
        .zip(&a.buckets)
        .map(|(y, x)| y - x)
        .collect();
    let total: u64 = d.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (total as f64 / 2.0).ceil();
    let mut seen = 0.0;
    for (i, &c) in d.iter().enumerate() {
        if c > 0 && seen + c as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = (1u64 << i) as f64;
            return lo + (hi - lo) * (rank - seen) / c as f64;
        }
        seen += c as f64;
    }
    0.0
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn secs_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// The measured window after the warm-up: all of `--seconds`, or in a
/// traced run its first two thirds, leaving the last third to the layer
/// replays.
fn window(cfg: &RunConfig) -> Window {
    let start_ns = secs_ns(cfg.warm);
    let seconds = if cfg.trace {
        cfg.seconds * 2.0 / 3.0
    } else {
        cfg.seconds
    };
    Window {
        start_ns,
        end_ns: start_ns + secs_ns(seconds),
        traced: cfg.trace,
    }
}

pub fn run(w: Workload, cfg: &RunConfig, spans: &mut Vec<Span>) -> io::Result<RunResult> {
    let mut result = RunResult::new(w);
    let (setup_s, session) = timed_setups(Session::start)?;
    let token = session.token;
    let summaries = Arc::new(Summaries::new(cfg.seed, w.summary_len()));
    let window = window(cfg);
    let plan = w.open_loop().then(|| {
        Arc::new(plan::open_loop(
            w,
            cfg.seed,
            Duration::from_nanos(window.end_ns),
        ))
    });
    // Lead time for the generator threads to reserve their memory.
    let t0 = Instant::now() + Duration::from_millis(200);
    let running = match &plan {
        Some(p) => gen::open_loop(
            Arc::clone(p),
            &session.conns,
            token,
            Arc::clone(&summaries),
            window,
            t0,
        )?,
        None => {
            let capacity = (CLOSED_LOOP_RESERVE * window.end_ns as f64 / 1e9) as usize;
            gen::closed_loop(
                &session.conns,
                token,
                Arc::clone(&summaries),
                window,
                DEPTH,
                capacity,
                t0,
            )?
        }
    };
    sleep_until(t0 + Duration::from_nanos(window.start_ns));
    let start = Snapshot::take(&session, &running);
    sleep_until(t0 + Duration::from_nanos(window.end_ns));
    let end = Snapshot::take(&session, &running);
    let mut wire = running.finish()?;
    let d = Delta {
        a: &start,
        b: &end,
        ops: wire.measured.completions.max(1) as f64,
    };
    result.attempted = wire.attempted;
    result.failed = wire.counts.failed();
    spans.append(&mut wire.spans);

    let mut ledger = (
        std::mem::take(&mut wire.opened),
        std::mem::take(&mut wire.assigned),
    );
    if cfg.trace {
        per_layer(
            cfg,
            &session,
            &wire,
            &d,
            plan.as_deref().map(Vec::as_slice),
            &summaries,
            &mut result,
            &mut ledger,
            spans,
        );
    } else {
        let offered = plan.as_ref().map(|p| {
            let due = p.iter().filter(|op| window.contains(op.due_ns)).count();
            due as f64 / window.seconds()
        });
        end_to_end(&wire, window, &d, setup_s, offered, &mut result);
    }
    check(&session, &wire, ledger, &mut result);
    Ok(result)
}

fn end_to_end(
    wire: &WireOutcome,
    window: Window,
    d: &Delta,
    setup_s: f64,
    offered: Option<f64>,
    result: &mut RunResult,
) {
    let m = &wire.measured;
    let throughput = m.completions as f64 / window.seconds();
    result.put("setup_s", setup_s);
    result.put("rss_growth_b_per_op", d.rss_bytes());
    result.put("throughput_ops_s", throughput);
    result.put("cpu_us_per_op", d.service_cpu_us());
    let mut lat = m.latencies_ns.clone();
    result.put("p50_us", percentile_us(&mut lat, 50.0));
    result.put("p90_us", percentile_us(&mut lat, 90.0));
    result.put("p99_us", percentile_us(&mut lat, 99.0));
    result.put("p999_us", percentile_us(&mut lat, 99.9));
    result.put("latency_samples", lat.len() as f64);
    result.put(
        "fail_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    if let Some(offered) = offered {
        let late_p99 = percentile_us(&mut m.late_ns.clone(), 99.0);
        result.put("offered_ops_s", offered);
        result.put("late_p99_us", late_p99);
        if throughput < MIN_THROUGHPUT_SHARE * offered {
            result.invalid.push(format!(
                "backlog: {throughput:.0} ops/s completed of {offered:.0} offered"
            ));
        }
        if late_p99 > MAX_LATE_P99_US {
            result.invalid.push(format!(
                "generator late: p99 {late_p99:.0} us > {MAX_LATE_P99_US} us"
            ));
        }
    }
}

/// The plan the layer replays follow: the first `replay_ns()` of the
/// workload's own plan, or for the closed loop a `mix`-shaped plan of
/// its seed (a closed loop has no pacing to replay). A `handoff` assign
/// can be due up to 200 µs before its open, so the cut may keep an
/// assign whose open falls past it; such surplus assigns (the last
/// ones) are dropped, or they would wait out their timeout.
fn replay_ops(cfg: &RunConfig, plan: Option<&[Op]>) -> Vec<Op> {
    let len = cfg.replay_ns();
    let owned;
    let plan = match plan {
        Some(p) => p,
        None => {
            owned = plan::open_loop(Workload::Mix, cfg.seed, Duration::from_nanos(len));
            &owned
        }
    };
    let mut ops: Vec<Op> = plan
        .iter()
        .take_while(|op| op.due_ns < len)
        .map(|op| Op {
            kind: match op.kind {
                Kind::Open { id } => Kind::Open {
                    id: id + REPLAY_IDS,
                },
                Kind::Assign => Kind::Assign,
            },
            ..*op
        })
        .collect();
    let assigns = ops.iter().filter(|op| op.kind == Kind::Assign).count();
    let mut surplus = assigns.saturating_sub(ops.len() - assigns);
    while surplus > 0 {
        let last = ops.iter().rposition(|op| op.kind == Kind::Assign);
        ops.remove(last.expect("a surplus assign exists"));
        surplus -= 1;
    }
    ops
}

fn p50_of<R>(timed: &[Timed<R>]) -> f64 {
    let mut ns: Vec<u64> = timed.iter().map(Timed::ns).collect();
    percentile_us(&mut ns, 50.0)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    cfg: &RunConfig,
    session: &Session,
    wire: &WireOutcome,
    d: &Delta,
    plan: Option<&[Op]>,
    summaries: &Summaries,
    result: &mut RunResult,
    ledger: &mut (Vec<u64>, Vec<u64>),
    spans: &mut Vec<Span>,
) {
    let traced = &wire.measured;
    result.put(
        "gen.late_p50_us",
        percentile_us(&mut traced.late_ns.clone(), 50.0),
    );
    result.put(
        "gen.late_p99_us",
        percentile_us(&mut traced.late_ns.clone(), 99.0),
    );
    result.put(
        "gen.cpu_us_per_op",
        d.per_op(d.a.gen_cpu_ns, d.b.gen_cpu_ns) / 1e3,
    );
    result.put(
        "os.ctx_switches_per_op",
        d.per_op(
            d.a.threads.ctx_switches_outside_bench(),
            d.b.threads.ctx_switches_outside_bench(),
        ),
    );
    result.put(
        "reactor.cpu_us_per_op",
        d.group_cpu_us(ThreadGroup::Reactor),
    );
    result.put(
        "task.worker_cpu_us_per_op",
        d.group_cpu_us(ThreadGroup::TaskWorker),
    );
    result.put(
        "task.timer_cpu_us_per_op",
        d.group_cpu_us(ThreadGroup::TaskTimer),
    );
    result.put("moderator.blocks_per_op", d.moderator(|m| m.blocks));
    result.put("moderator.wakeups_per_op", d.moderator(|m| m.wakeups));
    result.put(
        "moderator.notifications_per_op",
        d.moderator(|m| m.notifications),
    );
    result.put(
        "moderator.would_blocks_per_op",
        d.moderator(|m| m.would_blocks),
    );
    result.put(
        "moderator.wait_p50_us",
        wait_p50_us(&d.a.moderator.wait_hist, &d.b.moderator.wait_hist),
    );
    result.put(
        "moderator.fast_path_admit_ratio",
        d.delta(|m| m.fast_path_admits) / d.delta(|m| m.preactivations).max(1.0),
    );
    result.put(
        "moderator.fast_path_fallbacks",
        d.delta(|m| m.fast_path_fallbacks),
    );
    result.put(
        "moderator.max_queue_depth",
        d.b.moderator.max_queue_depth as f64,
    );
    result.put("moderator.timeouts", d.delta(|m| m.timeouts));
    result.put(
        "trace.events_per_op",
        d.per_op(d.a.trace_len, d.b.trace_len),
    );

    // The replays run after the wire run, on the same clock.
    let t0 = Instant::now();
    let ops = replay_ops(cfg, plan);
    let timeout = ServiceConfig::default().op_timeout;
    let ticketing = replay::ticketing(
        session.handle.proxy(),
        &ops,
        session.token,
        summaries,
        timeout,
        t0,
    );
    let bare = replay::bare(
        &ops,
        ServiceConfig::default().capacity,
        summaries,
        timeout,
        t0,
    );
    let front = replay::front_stats(&ops, &session.conns, t0);
    let task = replay::task_round_trip(&ops, ServiceConfig::default().workers, t0);
    let sizes = replay::frame_sizes(&ops, session.token, summaries);
    let echo = replay::loopback_echo(&ops, &sizes, t0).unwrap_or_default();
    let codec = replay::codec(&ops, session.token, summaries, t0);

    for t in &ticketing {
        match t.result {
            Outcome::Opened(id) => ledger.0.push(id),
            Outcome::Assigned(id) => ledger.1.push(id),
            Outcome::Failed(_) => result.failed += 1,
        }
    }
    result.attempted += ticketing.len() as u64;
    let failed = |name: &str, n: usize| (n > 0).then(|| format!("{name} {n}"));
    let failures: Vec<String> = [
        failed("codec", codec.mismatches),
        failed(
            "moderator.bare",
            bare.iter().filter(|t| t.result.failed()).count(),
        ),
        failed("front.stats", front.iter().filter(|t| !t.result).count()),
        failed("task.roundtrip", task.iter().filter(|t| !t.result).count()),
        failed(
            "loopback.echo",
            ops.len() - echo.iter().filter(|t| t.result).count(),
        ),
    ]
    .into_iter()
    .flatten()
    .chain(ticketing.iter().filter_map(|t| match t.result {
        Outcome::Failed(why) => Some(format!("ticketing #{} {why}", t.index)),
        _ => None,
    }))
    .collect();
    result.check(
        "replays_complete",
        failures.is_empty(),
        format!("failed calls: [{}]", failures.join(", ")),
    );

    let mut ns: Vec<u64> = ticketing.iter().map(Timed::ns).collect();
    let ticketing_p50 = percentile_us(&mut ns, 50.0);
    result.put("ticketing.p50_us", ticketing_p50);
    result.put("ticketing.p90_us", percentile_us(&mut ns, 90.0));
    let bare_p50 = p50_of(&bare);
    result.put("moderator.bare_p50_us", bare_p50);
    result.put("aspects.self_us", ticketing_p50 - bare_p50);
    let (front_p50, task_p50, echo_p50) = (p50_of(&front), p50_of(&task), p50_of(&echo));
    result.put("front.stats_rtt_p50_us", front_p50);
    result.put("task.roundtrip_us", task_p50);
    result.put("loopback.echo_p50_us", echo_p50);
    result.put("codec.us_per_op", codec.p50_us);
    result.put("codec.bytes_per_op", codec.bytes_per_op);
    result.put(
        "reactor.residual_us",
        front_p50 - codec.p50_us - task_p50 - echo_p50,
    );
    result.absent(&[
        "lease.retransmit_ratio",
        "lease.dup_dropped_per_visit",
        "lease.reclaimed",
        "lease.stale_dropped",
        "peer.cpu_us_per_visit",
        "faultproxy.cpu_us_per_visit",
    ]);

    spans.extend(ticketing.iter().map(|t| t.span("ticketing")));
    spans.extend(bare.iter().map(|t| t.span("moderator.bare")));
    spans.extend(front.iter().map(|t| t.span("front.stats")));
    spans.extend(task.iter().map(|t| t.span("task.roundtrip")));
    spans.extend(echo.iter().map(|t| t.span("loopback.echo")));
    spans.extend(codec.spans);
}

/// Output correctness: one well-formed reply per request, in order;
/// tickets conserved between client and service; summaries intact.
fn check(
    session: &Session,
    wire: &WireOutcome,
    ledger: (Vec<u64>, Vec<u64>),
    result: &mut RunResult,
) {
    let c = &wire.counts;
    result.check(
        "one_reply_per_request",
        c.missing == 0 && c.extra == 0 && c.wrong == 0,
        format!(
            "{} missing, {} extra, {} malformed",
            c.missing, c.extra, c.wrong
        ),
    );
    result.check(
        "summaries_byte_exact",
        c.bad_summary == 0,
        format!("{} assigned tickets with a changed summary", c.bad_summary),
    );
    let (mut opened, mut assigned) = ledger;
    let s = session.handle.stats();
    opened.sort_unstable();
    assigned.sort_unstable();
    let n_assigned = assigned.len();
    assigned.dedup();
    let unique = assigned.len() == n_assigned;
    let all_opened = assigned.iter().all(|id| opened.binary_search(id).is_ok());
    result.check(
        "ticket_conservation",
        s.opened == opened.len() as u64
            && s.assigned == n_assigned as u64
            && s.opened.checked_sub(s.assigned) == Some(s.queued)
            && unique
            && all_opened,
        format!(
            "service opened {} assigned {} queued {}; client saw {} opened {} assigned (unique {unique}, all opened {all_opened})",
            s.opened,
            s.assigned,
            s.queued,
            opened.len(),
            n_assigned
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_cut_never_leaves_an_assign_without_its_open() {
        for seed in 0..50 {
            let cfg = RunConfig {
                seed,
                seconds: 3.0,
                warm: 0.0,
                trace: true,
            };
            let plan = plan::open_loop(Workload::Handoff, seed, Duration::from_secs(1));
            let ops = replay_ops(&cfg, Some(&plan));
            let assigns = ops.iter().filter(|op| op.kind == Kind::Assign).count();
            assert!(assigns > 0 && assigns <= ops.len() - assigns, "seed {seed}");
        }
    }
}
