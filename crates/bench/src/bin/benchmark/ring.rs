//! The `lease_ring` workload: three `PeerNode`s in a ring over loopback
//! TCP, each link behind a `FaultProxy` that drops and duplicates 10‰
//! of grant frames. The only traffic through `core::lease` and
//! `service::peer`; it never touches the ticket rows.

use std::io;
use std::time::{Duration, Instant};

use amf_core::LeaseConfig;
use amf_service::codec::encode_peer;
use amf_service::{FaultProxy, FaultProxyConfig, PeerConfig, PeerFrame, PeerNode, ServiceConfig};

use crate::gen::Span;
use crate::plan::{mix64, Op, Rng, Workload};
use crate::replay::{self, Timed};
use crate::report::RunResult;
use crate::stats::percentile_us;
use crate::sys::{self, ThreadGroup, ThreadSample};
use crate::{timed_setups, RunConfig};

const NODES: usize = 3;
const LEASES: u64 = 8;
const FAULT_PERMILLE: u64 = 10;
/// Visits per second the ring sustains on a 2-CPU host. Sizes each
/// lease's visit budget so the leases retire just after the measured
/// window; the window also closes early at the first retirement, so a
/// faster ring is measured correctly, only for less time.
const VISITS_PER_S: f64 = 1150.0;
/// Slack on the visit budget beyond the warm-up and measured window.
const BUDGET_SLACK: f64 = 1.1;

struct Ring {
    nodes: Vec<PeerNode>,
    // Held for their lifetime: dropping a proxy cuts its link.
    _proxies: Vec<FaultProxy>,
}

impl Ring {
    /// Spawns the ring and waits until a lease has crossed a link.
    fn start(seed: u64, visits: u64) -> io::Result<Self> {
        let lease = LeaseConfig {
            expiry: Duration::from_millis(150),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            jitter_seed: mix64(seed ^ 0x1EA5E),
        };
        let nodes = (0..NODES)
            .map(|i| {
                PeerNode::spawn(PeerConfig {
                    node: i as u64,
                    seed_leases: if i == 0 { LEASES } else { 0 },
                    visits,
                    lease: lease.clone(),
                    ..PeerConfig::default()
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut proxies = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let proxy = FaultProxy::spawn(FaultProxyConfig {
                target: nodes[(i + 1) % NODES].addr().to_string(),
                drop_permille: FAULT_PERMILLE,
                dup_permille: FAULT_PERMILLE,
                max_delay: Duration::from_micros(200),
                seed: mix64(seed.wrapping_add(i as u64)),
                ..FaultProxyConfig::default()
            })?;
            node.set_next(&proxy.addr().to_string());
            proxies.push(proxy);
        }
        let ring = Self {
            nodes,
            _proxies: proxies,
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while ring.sum(|s| s.delivered) == 0 {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "ring never circulated",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(ring)
    }

    fn sum(&self, f: impl Fn(&amf_service::PeerStats) -> u64) -> u64 {
        self.nodes.iter().map(|n| f(&n.stats())).sum()
    }

    fn ack_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.ack_latencies().len()).collect()
    }
}

/// Process counters at the window's start or end.
struct Snapshot {
    at: Instant,
    visits: u64,
    acks: Vec<usize>,
    retransmits: u64,
    dup_dropped: u64,
    reclaimed: u64,
    stale_dropped: u64,
    process_cpu_ns: u64,
    main_cpu_ns: u64,
    threads: ThreadSample,
}

impl Snapshot {
    fn take(ring: &Ring) -> Self {
        Self {
            at: Instant::now(),
            // Every visit but a lease's last hands it on; `delivered`
            // counts the arrivals, which is the visit rate.
            visits: ring.sum(|s| s.delivered),
            acks: ring.ack_counts(),
            retransmits: ring.sum(|s| s.retransmits),
            dup_dropped: ring.sum(|s| s.dup_dropped),
            reclaimed: ring.sum(|s| s.reclaimed),
            stale_dropped: ring.sum(|s| s.stale_dropped),
            process_cpu_ns: sys::process_cpu_ns(),
            main_cpu_ns: sys::thread_cpu_ns(),
            threads: ThreadSample::take(),
        }
    }
}

pub fn run(cfg: &RunConfig, spans: &mut Vec<Span>) -> io::Result<RunResult> {
    let mut result = RunResult::new(Workload::LeaseRing);
    // A traced run leaves a third of its time to the replays.
    let measure = if cfg.trace {
        cfg.seconds * 2.0 / 3.0
    } else {
        cfg.seconds
    };
    let visits = (VISITS_PER_S * (cfg.warm + measure) * BUDGET_SLACK / LEASES as f64).ceil() as u64;
    let (setup_s, ring) = timed_setups(|| Ring::start(cfg.seed, visits))?;
    let ready = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(cfg.warm));
    // The window closes when the measured time is up or a lease retires
    // (the ring then thins out), whichever comes first.
    // RSS is read after the first snapshot and before the second, so the
    // copies of the nodes' ack windows a snapshot makes never count as
    // the ring's growth.
    let a = Snapshot::take(&ring);
    let rss_a = sys::rss_bytes();
    let end = a.at + Duration::from_secs_f64(measure);
    while Instant::now() < end && ring.sum(|s| s.retired) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let rss_b = sys::rss_bytes();
    let b = Snapshot::take(&ring);
    let mut acks: Vec<u64> = ring
        .nodes
        .iter()
        .zip(a.acks.iter().zip(&b.acks))
        .flat_map(|(n, (&from, &to))| {
            n.ack_latencies()[from..to]
                .iter()
                .map(|d| d.as_nanos() as u64)
                .collect::<Vec<_>>()
        })
        .collect();
    // Let every lease retire, then check each did so exactly once.
    let deadline = ready + Duration::from_secs_f64(3.0 * (cfg.warm + measure) + 10.0);
    while ring.sum(|s| s.retired) < LEASES && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut retired: Vec<u64> = ring.nodes.iter().flat_map(PeerNode::retired).collect();
    retired.sort_unstable();
    let once = (0..LEASES)
        .filter(|l| retired.iter().filter(|r| *r == l).count() == 1)
        .count() as u64;
    result.attempted = LEASES;
    result.failed = LEASES - once;
    result.check(
        "leases_retire_exactly_once",
        retired == (0..LEASES).collect::<Vec<_>>(),
        format!("retired {retired:?}"),
    );
    drop(ring);

    let visits_done = b.visits.saturating_sub(a.visits).max(1) as f64;
    let seconds = (b.at - a.at).as_secs_f64();
    if !cfg.trace {
        // CPU is the nodes': the process minus this thread and the fault
        // proxies, which are test harness.
        let own = b.main_cpu_ns.saturating_sub(a.main_cpu_ns) / 1000
            + b.threads
                .cpu_us(ThreadGroup::FaultProxy)
                .saturating_sub(a.threads.cpu_us(ThreadGroup::FaultProxy));
        let cpu_us = (b.process_cpu_ns.saturating_sub(a.process_cpu_ns) / 1000).saturating_sub(own);
        result.put("setup_s", setup_s);
        result.put(
            "rss_growth_b_per_op",
            (rss_b as f64 - rss_a as f64) / visits_done,
        );
        result.put("throughput_ops_s", visits_done / seconds);
        result.put("cpu_us_per_op", cpu_us as f64 / visits_done);
        result.put("p50_us", percentile_us(&mut acks, 50.0));
        result.put("p90_us", percentile_us(&mut acks, 90.0));
        result.put("p99_us", percentile_us(&mut acks, 99.0));
        result.put("p999_us", percentile_us(&mut acks, 99.9));
        result.put("latency_samples", acks.len() as f64);
        result.put("fail_ratio", result.failed as f64 / result.attempted as f64);
        return Ok(result);
    }

    // Per-layer counters over the measured window.
    let per_visit = |x: u64, y: u64| y.saturating_sub(x) as f64 / visits_done;
    let group = |g| per_visit(a.threads.cpu_us(g), b.threads.cpu_us(g));
    result.put(
        "lease.retransmit_ratio",
        per_visit(a.retransmits, b.retransmits),
    );
    result.put(
        "lease.dup_dropped_per_visit",
        per_visit(a.dup_dropped, b.dup_dropped),
    );
    result.put(
        "lease.reclaimed",
        b.reclaimed.saturating_sub(a.reclaimed) as f64,
    );
    result.put(
        "lease.stale_dropped",
        b.stale_dropped.saturating_sub(a.stale_dropped) as f64,
    );
    result.put("peer.cpu_us_per_visit", group(ThreadGroup::Peer));
    result.put(
        "faultproxy.cpu_us_per_visit",
        group(ThreadGroup::FaultProxy),
    );
    result.put(
        "os.ctx_switches_per_op",
        per_visit(
            a.threads.ctx_switches_outside_bench(),
            b.threads.ctx_switches_outside_bench(),
        ),
    );

    // Replays at the ring's own visit rate: one grant and its ack per
    // visit through the codec, over loopback, and through a task engine.
    let t0 = Instant::now();
    let ops = paced_visits(cfg.seed, visits_done / seconds, cfg.replay_ns());
    let codec = replay::peer_codec(ops.len(), t0);
    let grant = PeerFrame {
        node: 0,
        msg: amf_core::LeaseMsg::Grant {
            seq: 1,
            lease: 1,
            hop: 1,
            visits,
        },
    };
    let ack = PeerFrame {
        node: 1,
        msg: amf_core::LeaseMsg::Ack { seq: 1, cursor: 2 },
    };
    let sizes = vec![(encode_peer(&grant).len() - 4, encode_peer(&ack).len() - 4); ops.len()];
    let echo = replay::loopback_echo(&ops, &sizes, t0).unwrap_or_default();
    let task = replay::task_round_trip(&ops, ServiceConfig::default().workers, t0);
    let failures = codec.mismatches + echo.iter().chain(&task).filter(|t| !t.result).count();
    result.check(
        "replays_complete",
        failures == 0 && echo.len() == ops.len(),
        format!("{failures} failed replay calls"),
    );
    let p50 =
        |t: &[Timed<bool>]| percentile_us(&mut t.iter().map(Timed::ns).collect::<Vec<_>>(), 50.0);
    result.put("codec.us_per_op", codec.p50_us);
    result.put("codec.bytes_per_op", codec.bytes_per_op);
    result.put("loopback.echo_p50_us", p50(&echo));
    result.put("task.roundtrip_us", p50(&task));
    // The ring carries no generator, reactor, ticket rows or trace.
    result.absent(&[
        "gen.late_p50_us",
        "gen.late_p99_us",
        "gen.cpu_us_per_op",
        "reactor.cpu_us_per_op",
        "reactor.residual_us",
        "task.worker_cpu_us_per_op",
        "task.timer_cpu_us_per_op",
        "front.stats_rtt_p50_us",
        "ticketing.p50_us",
        "ticketing.p90_us",
        "aspects.self_us",
        "moderator.bare_p50_us",
        "moderator.blocks_per_op",
        "moderator.wakeups_per_op",
        "moderator.notifications_per_op",
        "moderator.would_blocks_per_op",
        "moderator.wait_p50_us",
        "moderator.fast_path_admit_ratio",
        "moderator.fast_path_fallbacks",
        "moderator.max_queue_depth",
        "moderator.timeouts",
        "trace.events_per_op",
    ]);
    spans.extend(codec.spans);
    spans.extend(echo.iter().map(|t| t.span("loopback.echo")));
    spans.extend(task.iter().map(|t| t.span("task.roundtrip")));
    Ok(result)
}

/// Poisson visit times at `rate` over `len_ns`, alternating connections.
fn paced_visits(seed: u64, rate: f64, len_ns: u64) -> Vec<Op> {
    let mut rng = Rng::new(mix64(seed ^ 0x7153));
    let mut t = 0;
    let mut ops = Vec::new();
    loop {
        t += rng.poisson_gap_ns(rate.max(1.0));
        if t >= len_ns {
            return ops;
        }
        ops.push(Op {
            due_ns: t,
            conn: ops.len() % 2,
            kind: crate::plan::Kind::Assign,
        });
    }
}
