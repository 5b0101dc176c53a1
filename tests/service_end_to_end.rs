//! End-to-end socket tests: concurrent clients against the TCP service,
//! verifying the moderated buffer's invariants survive the wire.

use std::collections::HashSet;
use std::thread;
use std::time::Duration;

use amf_service::{ClientError, ServiceClient, ServiceConfig, ServiceFront, TicketService};
use aspect_moderator::aspects::auth::AuthToken;
use aspect_moderator::core::FairnessPolicy;
use aspect_moderator::ticketing::Severity;

/// `AMF_SERVICE_FRONT=threaded` pins the whole suite to the
/// thread-per-connection front; anything else (including unset) uses
/// the config's front — the task-engine reactor by default. CI runs
/// the suite once per value.
fn spawn_service(mut config: ServiceConfig) -> amf_service::ServiceHandle {
    if std::env::var("AMF_SERVICE_FRONT").as_deref() == Ok("threaded") {
        config.front = ServiceFront::Threaded;
    }
    TicketService::spawn("127.0.0.1:0", config).expect("spawn service")
}

#[test]
fn concurrent_clients_lose_no_tickets_and_assign_each_once() {
    let mut handle = spawn_service(ServiceConfig {
        capacity: 8,
        workers: 12,
        op_timeout: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let producers = 4u64;
    let consumers = 4u64;
    let per: u64 = 50;

    let mut assigned: Vec<u64> = Vec::new();
    thread::scope(|s| {
        for p in 0..producers {
            s.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("producer connect");
                for i in 0..per {
                    client
                        .open(token, p * 10_000 + i, Severity::Medium, "e2e")
                        .expect("open");
                }
            });
        }
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                s.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("consumer connect");
                    (0..per)
                        .map(|_| client.assign(token).expect("assign").id.0)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            assigned.extend(h.join().expect("consumer thread"));
        }
    });

    // Every opened ticket assigned exactly once: no losses, no doubles.
    let expected: HashSet<u64> = (0..producers)
        .flat_map(|p| (0..per).map(move |i| p * 10_000 + i))
        .collect();
    let got: HashSet<u64> = assigned.iter().copied().collect();
    assert_eq!(assigned.len() as u64, producers * per, "assign count");
    assert_eq!(got, expected, "set of assigned ticket ids");

    let stats = handle.stats();
    assert_eq!(stats.opened, producers * per);
    assert_eq!(stats.assigned, consumers * per);
    assert_eq!(stats.queued, 0);

    // The metrics aspect observed every successful activation.
    let metrics = handle.metrics().all();
    let open = metrics.get("open").expect("open metrics");
    let assign = metrics.get("assign").expect("assign metrics");
    assert_eq!(open.invocations, producers * per);
    assert_eq!(assign.invocations, consumers * per);

    handle.shutdown();
}

#[test]
fn bad_token_is_vetoed_by_the_authentication_aspect() {
    let mut handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    match client.open(AuthToken(0xdead), 1, Severity::Low, "evil") {
        Err(ClientError::Aborted(reason)) => {
            assert!(
                reason.contains("authenticate"),
                "reason names the concern: {reason}"
            );
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    // The veto left the buffer untouched; legitimate traffic flows.
    client.open(token, 1, Severity::Low, "fine").unwrap();
    assert_eq!(client.assign(token).unwrap().id.0, 1);
    assert_eq!(handle.stats().aborts, 1);
    handle.shutdown();
}

#[test]
fn full_buffer_blocks_then_unblocks_across_connections() {
    let mut handle = spawn_service(ServiceConfig {
        capacity: 1,
        op_timeout: Duration::from_millis(50),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let mut a = ServiceClient::connect(addr).unwrap();
    a.open(token, 1, Severity::Low, "fills the buffer").unwrap();
    // Second open times out blocked: the server answers Blocked rather
    // than holding the connection forever.
    match a.open(token, 2, Severity::Low, "waits") {
        Err(ClientError::Blocked) => {}
        other => panic!("expected Blocked, got {other:?}"),
    }
    assert!(handle.stats().timeouts >= 1);

    // A concurrent open unblocks as soon as another connection assigns.
    let blocked_open = thread::spawn(move || {
        let mut b = ServiceClient::connect(addr).unwrap();
        let mut c = ServiceClient::connect(addr).unwrap();
        let opener =
            thread::spawn(move || b.open(token, 3, Severity::Low, "queued behind the drain"));
        thread::sleep(Duration::from_millis(10));
        let drained = c.assign(token).unwrap();
        (opener.join().unwrap(), drained.id.0)
    });
    let (open_result, drained_id) = blocked_open.join().unwrap();
    // Patience was 50ms and the drain came after 10ms, so the open
    // may have succeeded or—under scheduler noise—timed out; both are
    // protocol-correct. The drained ticket must be the first one.
    assert_eq!(drained_id, 1);
    if open_result.is_ok() {
        let mut d = ServiceClient::connect(addr).unwrap();
        assert_eq!(d.assign(token).unwrap().id.0, 3);
    }
    handle.shutdown();
}

#[test]
fn fifo_service_reports_queue_depth_over_the_wire() {
    let mut handle = spawn_service(ServiceConfig {
        capacity: 1,
        workers: 8,
        op_timeout: Duration::from_secs(5),
        fairness: FairnessPolicy::Fifo,
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let mut filler = ServiceClient::connect(addr).unwrap();
    filler.open(token, 1, Severity::Low, "fills").unwrap();
    // A second open parks on the full buffer's fifo queue.
    let parked = thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).unwrap();
        c.open(token, 2, Severity::Low, "queued")
    });
    while handle.stats().max_queue_depth == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    let mut drainer = ServiceClient::connect(addr).unwrap();
    assert_eq!(drainer.assign(token).unwrap().id.0, 1);
    parked.join().unwrap().unwrap();
    assert_eq!(drainer.assign(token).unwrap().id.0, 2);

    // The high-water mark survives the wire round trip (6th u64 of the
    // StatsReply frame) and matches the local view.
    let wire = drainer.stats().unwrap();
    assert!(wire.max_queue_depth >= 1, "{wire:?}");
    assert_eq!(wire.max_queue_depth, handle.stats().max_queue_depth);
    assert_eq!(wire.queued, 0);
    assert_eq!(wire.opened, 2);
    handle.shutdown();
}

#[test]
fn per_principal_quota_aborts_the_overdraft() {
    let mut handle = spawn_service(ServiceConfig {
        quota_limit: 3,
        quota_window: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("greedy", "pw");
    handle.authenticator().add_user("frugal", "pw");
    let greedy = handle.authenticator().login("greedy", "pw").unwrap();
    let frugal = handle.authenticator().login("frugal", "pw").unwrap();

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    for i in 0..3 {
        client.open(greedy, i, Severity::Low, "mine").unwrap();
    }
    match client.open(greedy, 99, Severity::Low, "one too many") {
        Err(ClientError::Aborted(reason)) => {
            assert!(
                reason.contains("quota"),
                "reason names the concern: {reason}"
            );
        }
        other => panic!("expected quota abort, got {other:?}"),
    }
    // Quotas are per principal: another user still has headroom.
    client.open(frugal, 100, Severity::Low, "fine").unwrap();
    handle.shutdown();
}

#[test]
fn stats_and_shutdown_opcodes_work_remotely() {
    let handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let addr = handle.addr();

    let mut client = ServiceClient::connect(addr).unwrap();
    client.open(token, 5, Severity::Critical, "outage").unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.queued, 1);

    client.shutdown_server().unwrap();
    // The server stops serving: a fresh connection can no longer get an
    // answer (either the connect or the call fails).
    let refused = match ServiceClient::connect(addr) {
        Ok(mut c) => c.stats().is_err(),
        Err(_) => true,
    };
    assert!(refused, "server must not answer after remote shutdown");
    drop(handle);
}

#[test]
fn load_generator_round_trips_over_the_wire() {
    let mut handle = spawn_service(ServiceConfig {
        workers: 8,
        op_timeout: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    handle.authenticator().add_user("load", "pw");
    let token = handle.authenticator().login("load", "pw").unwrap();

    let outcome = amf_service::run_load(&amf_service::LoadConfig {
        clients: 4,
        requests: 400,
        addr: handle.addr(),
        token,
    })
    .expect("load run");
    assert_eq!(outcome.total(), 400);
    assert_eq!(outcome.ok, 400, "no blocks or aborts at this scale");
    assert_eq!(outcome.open_latencies_ns.len(), 200);
    assert_eq!(outcome.assign_latencies_ns.len(), 200);
    assert!(outcome.throughput() > 0.0);
    handle.shutdown();
}

/// Fault containment on the wire: a panicking aspect registered against
/// the *live* service maps to `Response::Err` — the client sees a
/// server error naming the contained panic, the same connection keeps
/// working (the worker thread survived the unwind), and `panics_caught`
/// crosses the wire as the seventh stats counter.
#[test]
fn contained_panic_maps_to_err_and_spares_the_connection() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use aspect_moderator::core::{Concern, FnAspect, Verdict};

    let mut handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();

    // One-shot bomb on `open`, registered through the live proxy.
    let armed = Arc::new(AtomicBool::new(true));
    let base = handle.proxy().base();
    base.moderator()
        .register(
            base.open_handle(),
            Concern::new("chaos-bomb"),
            Box::new(FnAspect::new("bomb").on_precondition({
                let armed = Arc::clone(&armed);
                move |_| {
                    if armed.swap(false, Ordering::SeqCst) {
                        panic!("wire bomb");
                    }
                    Verdict::Resume
                }
            })),
        )
        .unwrap();

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    match client.open(token, 1, Severity::Low, "boom") {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("aspect panic contained"), "{msg}");
            assert!(msg.contains("chaos-bomb"), "{msg}");
            assert!(msg.contains("wire bomb"), "{msg}");
        }
        other => panic!("expected contained-panic server error, got {other:?}"),
    }

    // Same connection, next request: the bomb is spent and the worker
    // thread is alive.
    client.open(token, 2, Severity::Low, "fine").unwrap();
    let got = client.assign(token).unwrap();
    assert_eq!(got.id.0, 2);

    let wire = client.stats().unwrap();
    assert_eq!(wire.panics_caught, 1);
    assert_eq!(wire.panics_caught, handle.stats().panics_caught);
    handle.shutdown();
}

/// The service's flight recorder is bounded: after enough traffic to
/// wrap the main ring several times, the ring holds at most
/// `TRACE_RING_EVENTS`, counts what it evicted, and an early auth abort
/// survives only in the pinned anomaly ring.
#[test]
fn flight_recorder_wraps_but_pins_the_early_abort() {
    use aspect_moderator::core::trace::EventKind;
    use aspect_moderator::core::Concern;

    let mut handle = spawn_service(ServiceConfig::default());
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    assert!(matches!(
        client.open(AuthToken(0xbad), 0, Severity::Low, "evil"),
        Err(ClientError::Aborted(_))
    ));
    let pinned = handle.anomalies().events();
    let abort = pinned
        .iter()
        .find(|e| e.kind == EventKind::PreconditionAborted)
        .expect("the auth veto is pinned");
    let bad = abort.invocation;
    assert_eq!(abort.concern, Some(Concern::authentication()));
    assert!(!handle.trace().events_for(bad).is_empty());

    for i in 1..=2_000 {
        client.open(token, i, Severity::Low, "fill").unwrap();
        assert_eq!(client.assign(token).unwrap().id.0, i);
    }

    let trace = handle.trace();
    assert!(trace.len() <= amf_service::TRACE_RING_EVENTS);
    assert!(trace.dropped() > 0, "2,000 pairs wrap the ring");
    assert!(
        trace.events_for(bad).is_empty(),
        "the abort's events were evicted from the main ring"
    );
    let kinds: Vec<EventKind> = handle
        .anomalies()
        .events_for(bad)
        .into_iter()
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds,
        vec![EventKind::PreconditionAborted, EventKind::ActivationAborted]
    );
    assert_eq!(handle.anomalies().dropped(), 0);
    handle.shutdown();
}

/// Set in the child process of
/// `fd_exhaustion_pauses_accept_instead_of_spinning`.
const FD_CHILD_ENV: &str = "AMF_FD_EXHAUSTION_CHILD";

/// Running out of file descriptors must pause `accept`, not spin the
/// level-triggered reactor on a listener that stays readable. A child
/// process serves under a lowered `RLIMIT_NOFILE`; the test holds
/// connections until one is no longer accepted, measures the child's
/// CPU time over a second of exhaustion, then closes one held
/// connection and expects the queued one to be served.
#[test]
fn fd_exhaustion_pauses_accept_instead_of_spinning() {
    use std::io::{BufRead, BufReader, ErrorKind};
    use std::net::TcpStream;
    use std::process::{Command, Stdio};

    use amf_service::codec::{encode_request, read_frame, write_frame, Request};

    if std::env::var_os(FD_CHILD_ENV).is_some() {
        return serve_with_few_fds();
    }
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "fd_exhaustion_pauses_accept_instead_of_spinning",
            "--nocapture",
        ])
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
    let stats = encode_request(&Request::Stats);
    let mut held = Vec::new();
    let mut queued = loop {
        assert!(held.len() < 64, "accept never ran out of fds");
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        write_frame(&mut conn, &stats).unwrap();
        match read_frame(&mut conn) {
            Ok(Some(_)) => held.push(conn),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break conn;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    };
    let before = cpu_seconds(child.id());
    thread::sleep(Duration::from_secs(1));
    let burnt = cpu_seconds(child.id()) - before;

    drop(held.pop());
    queued
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let served = read_frame(&mut queued);
    drop((held, queued, child.stdin.take()));
    std::io::copy(&mut out, &mut std::io::sink()).unwrap();
    assert!(child.wait().unwrap().success(), "child failed");
    assert!(
        burnt < 0.2,
        "reactor burnt {burnt:.2} s of CPU in 1 s of fd exhaustion"
    );
    assert!(
        matches!(served, Ok(Some(_))),
        "queued connection not served after an fd freed: {served:?}"
    );
}

/// The child: a task-front service whose fd limit leaves room for only
/// 16 more descriptors, serving until its stdin closes.
fn serve_with_few_fds() {
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

    let mut handle = TicketService::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            front: ServiceFront::Task,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live `struct rlimit` (two u64s on 64-bit
    // Linux) for both calls; failures are reported by the return value.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut limit), 0);
        limit.cur = open + 16;
        assert_eq!(setrlimit(RLIMIT_NOFILE, &limit), 0);
    }
    println!("addr {}", handle.addr());
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
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
