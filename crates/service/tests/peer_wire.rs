//! In-process ring of [`PeerNode`]s over real TCP: the recovery state
//! machine exercised against loopback sockets, with and without an
//! unreliable link in the middle.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use amf_core::lease::LeaseMsg;
use amf_core::LeaseConfig;
use amf_service::codec::{decode_peer, encode_hello, read_frame, write_frame, PeerFrame};
use amf_service::{FaultProxy, FaultProxyConfig, PeerConfig, PeerNode};

fn lease_cfg(expiry_ms: u64) -> LeaseConfig {
    LeaseConfig {
        expiry: Duration::from_millis(expiry_ms),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: 7,
    }
}

/// Spawns `n` nodes, wires the ring `0 → 1 → … → 0`, seeding `leases`
/// at node 0 with `visits` each. `wrap` interposes on each link address
/// (identity for a clean ring, a fault proxy for an unreliable one).
fn spawn_ring(
    n: usize,
    leases: u64,
    visits: u64,
    expiry_ms: u64,
    mut wrap: impl FnMut(usize, String) -> String,
) -> Vec<PeerNode> {
    // Bind every listener first so successor addresses exist, then wire
    // the links.
    let nodes: Vec<PeerNode> = (0..n)
        .map(|i| {
            PeerNode::spawn(PeerConfig {
                node: i as u64,
                seed_leases: if i == 0 { leases } else { 0 },
                visits,
                lease: lease_cfg(expiry_ms),
                ..PeerConfig::default()
            })
            .expect("spawn node")
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|p| p.addr().to_string()).collect();
    for (i, node) in nodes.iter().enumerate() {
        let next = wrap(i, addrs[(i + 1) % n].clone());
        node.set_next(&next);
    }
    nodes
}

fn await_retired(nodes: &[PeerNode], want: u64, deadline: Duration) -> u64 {
    let t0 = Instant::now();
    loop {
        let got: u64 = nodes.iter().map(|n| n.stats().retired).sum();
        if got >= want || t0.elapsed() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_no_lease_lost_or_doubled(nodes: &[PeerNode], leases: u64) {
    let mut retired: Vec<u64> = nodes.iter().flat_map(|n| n.retired()).collect();
    retired.sort_unstable();
    let expect: Vec<u64> = (0..leases).collect();
    assert_eq!(retired, expect, "every lease retires exactly once");
}

#[test]
fn clean_ring_circulates_and_retires_every_lease() {
    let leases = 4;
    let visits = 9; // 3 laps of 3 nodes
    let nodes = spawn_ring(3, leases, visits, 200, |_, addr| addr);
    let got = await_retired(&nodes, leases, Duration::from_secs(10));
    assert_eq!(got, leases, "all leases retire");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let total_delivered: u64 = nodes.iter().map(|n| n.stats().delivered).sum();
    // Every visit after the seeded ones is a delivery.
    assert_eq!(total_delivered, leases * visits - leases);
    for n in &nodes {
        let s = n.stats();
        assert_eq!(s.reclaimed, 0, "no reclaims on a clean ring: {s:?}");
        assert!(!s.degraded_now);
        assert!(s.fast_path_admits > 0, "telemetry row rides the fast lane");
    }
}

#[test]
fn lossy_ring_retransmits_dedups_and_still_loses_nothing() {
    let leases = 3;
    let visits = 9;
    let mut proxies: Vec<FaultProxy> = Vec::new();
    let nodes = spawn_ring(3, leases, visits, 150, |i, addr| {
        let proxy = FaultProxy::spawn(FaultProxyConfig {
            target: addr,
            drop_permille: 100,
            dup_permille: 100,
            max_delay: Duration::from_micros(200),
            seed: 0xC0FFEE + i as u64,
            ..FaultProxyConfig::default()
        })
        .expect("spawn proxy");
        let a = proxy.addr().to_string();
        proxies.push(proxy);
        a
    });
    let got = await_retired(&nodes, leases, Duration::from_secs(30));
    assert_eq!(got, leases, "all leases survive a 10% drop / 10% dup link");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let dropped: u64 = proxies.iter().map(|p| p.stats().dropped).sum();
    let duplicated: u64 = proxies.iter().map(|p| p.stats().duplicated).sum();
    let retransmits: u64 = nodes.iter().map(|n| n.stats().retransmits).sum();
    let dups_dropped: u64 = nodes.iter().map(|n| n.stats().dup_dropped).sum();
    if dropped > 0 {
        assert!(retransmits > 0, "drops must be answered by retransmits");
    }
    if duplicated > 0 {
        assert!(dups_dropped > 0, "duplicates must be dropped idempotently");
    }
}

/// Regression for incarnation fencing in the greeting: a successor that
/// dies and is replaced on the same port greets with a fresh
/// incarnation id, and the sender must rebase — resend every in-flight
/// grant immediately — even though the replacement's cursor of 0 makes
/// the link look structurally intact (nothing was ever acked, so every
/// sequence number is still pending). Before incarnation ids, that
/// exact shape passed the intact heuristic and the sender sat on its
/// backoff timers while the new peer waited.
#[test]
fn replaced_successor_incarnation_forces_immediate_rebase() {
    // Recovery timers pushed far outside the test window: any frame
    // arriving promptly after a greeting came from the greeting path
    // (first-contact send or rebase resend), not from a backoff
    // retransmission.
    let sender = PeerNode::spawn(PeerConfig {
        node: 0,
        seed_leases: 2,
        visits: 4,
        lease: LeaseConfig {
            expiry: Duration::from_secs(120),
            backoff_base: Duration::from_secs(30),
            backoff_cap: Duration::from_secs(30),
            jitter_seed: 7,
        },
        ..PeerConfig::default()
    })
    .expect("spawn sender");

    // The "successor" is this test playing receiver on a raw socket, so
    // it can die and come back with whatever incarnation it likes.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake successor");
    sender.set_next(&listener.local_addr().expect("local addr").to_string());

    let accept_and_greet = |incarnation: u64| -> TcpStream {
        let (mut conn, _) = listener.accept().expect("sender connects");
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        write_frame(&mut conn, &encode_hello(1, incarnation, 0)).expect("send greeting");
        conn
    };
    let collect_grants = |conn: &mut TcpStream, want: usize, window: Duration| {
        let deadline = Instant::now() + window;
        let mut grants: Vec<PeerFrame> = Vec::new();
        while grants.len() < want && Instant::now() < deadline {
            match read_frame(conn) {
                Ok(Some(body)) => {
                    let frame = decode_peer(&body).expect("well-formed peer frame");
                    if matches!(frame.msg, LeaseMsg::Grant { .. }) {
                        grants.push(frame);
                    }
                }
                Ok(None) => break,
                Err(_) => {} // read timeout — poll again
            }
        }
        grants
    };

    // First contact: both seeded leases are granted; we ack nothing.
    let mut conn = accept_and_greet(100);
    let first = collect_grants(&mut conn, 2, Duration::from_secs(10));
    assert_eq!(first.len(), 2, "both in-flight grants reach the successor");
    drop(conn);

    // Reconnect of the *same* incarnation: the link is intact, the
    // cursor is authoritative, and nothing may be resent ahead of the
    // (distant) backoff deadline.
    let mut conn = accept_and_greet(100);
    let quiet = collect_grants(&mut conn, 1, Duration::from_millis(800));
    assert!(
        quiet.is_empty(),
        "same-incarnation reconnect must not trigger a resend: {quiet:?}"
    );
    drop(conn);

    // The replacement process greets with a new incarnation at cursor
    // 0 — structurally identical to the intact case above. The
    // incarnation mismatch must force a rebase: both grants resent
    // immediately, renumbered from the new peer's cursor.
    let mut conn = accept_and_greet(999);
    let rebased = collect_grants(&mut conn, 2, Duration::from_secs(10));
    assert_eq!(rebased.len(), 2, "rebase resends every in-flight grant");
    let mut seqs = Vec::new();
    let mut leases = Vec::new();
    for frame in &rebased {
        if let LeaseMsg::Grant { seq, lease, .. } = frame.msg {
            seqs.push(seq);
            leases.push(lease);
        }
    }
    seqs.sort_unstable();
    leases.sort_unstable();
    assert_eq!(seqs, vec![0, 1], "resends renumber from the new cursor");
    assert_eq!(leases, vec![0, 1], "no lease lost in the handover");
}

#[test]
fn severed_link_degrades_locally_and_loses_nothing() {
    let leases = 3;
    let visits = 6;
    // Node 0's successor is a dead address: every handoff expires and
    // is reclaimed, so all visits happen locally in degraded mode.
    let nodes = spawn_ring(1, leases, visits, 60, |_, _| "127.0.0.1:9".into());
    let got = await_retired(&nodes, leases, Duration::from_secs(20));
    assert_eq!(got, leases, "a partitioned node still finishes its work");
    assert_no_lease_lost_or_doubled(&nodes, leases);
    let s = nodes[0].stats();
    assert!(s.reclaimed > 0, "handoffs must expire and reclaim: {s:?}");
    assert!(
        s.degraded_entries > 0,
        "degraded admissions are counted: {s:?}"
    );
    assert!(s.degraded_now, "peer never returned, node stays degraded");
}

/// A successor that greets and then never reads again must not wedge
/// the node: once the unwritten output passes its bound the connection
/// is dropped and counted, and the timers keep reclaiming. (A blocking
/// write on the thread that drives expiry once hung here for good, with
/// releases retransmitting into the full socket.)
#[test]
fn stalled_successor_is_dropped_and_reclaim_keeps_running() {
    let expiry = Duration::from_millis(50);
    let node = PeerNode::spawn(PeerConfig {
        node: 0,
        seed_leases: 8,
        visits: u64::MAX,
        lease: LeaseConfig {
            expiry,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            jitter_seed: 7,
        },
        ..PeerConfig::default()
    })
    .expect("spawn node");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stalled successor");
    node.set_next(&listener.local_addr().expect("local addr").to_string());
    // Greet the first connection so grants flow, then never read. Later
    // connections sit in the backlog, never greeted, so nothing more is
    // written to them.
    let (mut stalled, _) = listener.accept().expect("node connects");
    write_frame(&mut stalled, &encode_hello(1, 1, 0)).expect("greet");

    // Every handoff expires and is reclaimed, each reclaim leaves a
    // release retransmitting every few ms, and the socket fills.
    let t0 = Instant::now();
    while node.stats().stalled_drops == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "the output bound never tripped: {:?}",
            node.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The I/O thread is still driving expiry: the leases granted since
    // keep expiring into reclaims, and the node stays degraded.
    let before = node.stats().reclaimed;
    let deadline = Instant::now() + expiry * 20;
    loop {
        let s = node.stats();
        if s.reclaimed > before && s.degraded_now {
            break;
        }
        assert!(Instant::now() < deadline, "reclaim stalled: {s:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stalled);
}

/// Set in the child process of `peer_fd_exhaustion_pauses_accept`.
const FD_CHILD_ENV: &str = "AMF_PEER_FD_EXHAUSTION_CHILD";

/// Running out of file descriptors must pause the peer node's `accept`,
/// not spin its level-triggered epoll loop on a listener that stays
/// readable. A child process runs one node under a lowered
/// `RLIMIT_NOFILE`; the test holds connections (each greeted with a
/// hello frame on accept) until one is no longer accepted, measures the
/// child's CPU time over a second of exhaustion, then closes one held
/// connection and expects the queued one to be greeted.
#[test]
fn peer_fd_exhaustion_pauses_accept() {
    use std::io::{BufRead, BufReader, ErrorKind};
    use std::process::{Command, Stdio};

    if std::env::var_os(FD_CHILD_ENV).is_some() {
        return peer_with_few_fds();
    }
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "peer_fd_exhaustion_pauses_accept", "--nocapture"])
        .env(FD_CHILD_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn child");
    let mut out = BufReader::new(child.stdout.take().unwrap());
    let addr = (&mut out)
        .lines()
        .map(|l| l.expect("child stdout"))
        .find_map(|l| l.strip_prefix("addr ").map(str::to_owned))
        .expect("child prints its address");
    let mut held = Vec::new();
    let mut queued = loop {
        assert!(held.len() < 16, "accept never ran out of fds");
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        match read_frame(&mut conn) {
            Ok(Some(_)) => held.push(conn),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break conn;
            }
            other => panic!("unexpected greeting {other:?}"),
        }
    };
    let before = cpu_seconds(child.id());
    std::thread::sleep(Duration::from_secs(1));
    let burnt = cpu_seconds(child.id()) - before;

    drop(held.pop());
    queued
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let greeted = read_frame(&mut queued);
    drop((held, queued, child.stdin.take()));
    std::io::copy(&mut out, &mut std::io::sink()).unwrap();
    assert!(child.wait().unwrap().success(), "child failed");
    assert!(
        burnt < 0.2,
        "peer node burnt {burnt:.2} s of CPU in 1 s of fd exhaustion"
    );
    assert!(
        matches!(greeted, Ok(Some(_))),
        "queued connection not accepted after an fd freed: {greeted:?}"
    );
}

/// The child: one peer node whose fd limit leaves room for only three
/// more descriptors, serving until its stdin closes.
fn peer_with_few_fds() {
    use std::io::Read;

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;

    let mut node = PeerNode::spawn(PeerConfig::default()).expect("spawn node");
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live `struct rlimit` (two u64s on 64-bit
    // Linux) for both calls; failures are reported by the return value.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut limit), 0);
        limit.cur = open + 3;
        assert_eq!(setrlimit(RLIMIT_NOFILE, &limit), 0);
    }
    println!("addr {}", node.addr());
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    node.shutdown();
}

/// User plus system CPU time of process `pid`, from `/proc/<pid>/stat`
/// (clock ticks of 1/100 s).
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}
