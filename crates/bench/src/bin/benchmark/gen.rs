//! Load generation over the service's wire protocol.
//!
//! Open loop: a `bench-send` thread sleeps to each request's intended
//! send time (with 1 ns timer slack) and writes it; a `bench-recv`
//! thread waits on both sockets with epoll, decodes replies and matches
//! each to the next outstanding request of its connection (the service
//! answers a connection's requests in order). Latency counts from the
//! intended send time, so a stall also charges every request queued
//! behind it.
//!
//! Closed loop: one `bench-load` thread keeps a fixed number of
//! requests outstanding per connection and times each from its actual
//! send.
//!
//! Both record only into memory reserved and touched before the run
//! starts, so the benchmark's own bookkeeping does not show up as
//! resident-memory growth of the service.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amf_service::codec::{decode_response, encode_request, severity_to_wire};
use amf_service::{FrameDecoder, Request, Response};
use amf_ticketing::Severity;

use crate::plan::{alternating, Kind, Op, Summaries};
use crate::sys::{self, Poller, ThreadClock};

/// How long the receiver waits for stragglers once the sender is done
/// and replies stop arriving. The service answers a blocked request
/// after its 200 ms operation timeout, so this only trips on a lost
/// reply.
const DRAIN: Duration = Duration::from_secs(2);

/// The measured stretch of a run, ns after its start; what comes before
/// it is the discarded warm-up. Requests are attributed to it by their
/// start (intended send in an open loop, actual send in a closed one),
/// completions by when their reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Record spans for requests of the window.
    pub traced: bool,
}

impl Window {
    pub fn contains(&self, t: u64) -> bool {
        (self.start_ns..self.end_ns).contains(&t)
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Plan requests due in the window.
fn due_in(plan: &[Op], window: Window) -> usize {
    plan.iter().filter(|op| window.contains(op.due_ns)).count()
}

/// One span: a timed step of one request. Spans of a request share its
/// id; `parent` names the enclosing span of the same request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

const NO_SPAN: Span = Span {
    name: "",
    id: 0,
    parent: None,
    start_ns: 0,
    end_ns: 0,
};

/// What was measured in the window.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Latency of every successful request that started in the window.
    pub latencies_ns: Vec<u64>,
    /// Open loop: how late the sender began each request.
    pub late_ns: Vec<u64>,
    /// Successful replies that arrived during the window.
    pub completions: u64,
}

/// Reply outcomes of a whole run, warm-up included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub ok: u64,
    pub blocked: u64,
    pub aborted: u64,
    pub err: u64,
    /// A reply of the wrong type, or one that does not decode.
    pub wrong: u64,
    /// An assigned ticket whose summary differs from the one opened.
    pub bad_summary: u64,
    /// Requests that never got a reply.
    pub missing: u64,
    /// Replies with no request left to answer.
    pub extra: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.blocked + self.aborted + self.err + self.wrong + self.bad_summary + self.missing
    }
}

/// Everything a wire run produced.
pub struct WireOutcome {
    pub attempted: u64,
    pub counts: Counts,
    /// Ids of tickets the service confirmed opening.
    pub opened: Vec<u64>,
    /// Ids of tickets the service handed out.
    pub assigned: Vec<u64>,
    pub measured: Measured,
    pub spans: Vec<Span>,
}

/// A `Vec` whose first `cap` slots are resident before the run starts.
fn touched<T: Copy>(cap: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; cap];
    std::hint::black_box(&mut v);
    v.clear();
    v
}

fn now_ns(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Writes one request; `assign` is the connection's pre-encoded assign.
fn send_op(
    conn: &mut TcpStream,
    kind: Kind,
    token: u64,
    summaries: &Summaries,
    assign: &[u8],
) -> io::Result<()> {
    match kind {
        Kind::Open { id } => conn.write_all(&encode_request(&Request::Open {
            token,
            id,
            severity: severity_to_wire(Severity::Medium),
            summary: summaries.get(id).to_owned(),
        })),
        Kind::Assign => conn.write_all(assign),
    }
}

/// Shared by both loops: decodes one reply to `kind`, checks it, and
/// keeps the ticket ids the conservation check needs.
struct Ledger {
    summaries: Arc<Summaries>,
    counts: Counts,
    opened: Vec<u64>,
    assigned: Vec<u64>,
}

impl Ledger {
    fn new(summaries: Arc<Summaries>, capacity: usize) -> Self {
        Self {
            summaries,
            counts: Counts::default(),
            opened: touched(capacity, 0),
            assigned: touched(capacity, 0),
        }
    }

    /// Returns whether the request succeeded.
    fn settle(&mut self, kind: Kind, body: &[u8]) -> bool {
        let c = &mut self.counts;
        match (kind, decode_response(body)) {
            (Kind::Open { id }, Ok(Response::Ok(None))) => {
                self.opened.push(id);
                c.ok += 1;
                return true;
            }
            (Kind::Assign, Ok(Response::Ok(Some(t)))) => {
                if t.summary != self.summaries.get(t.id.0) {
                    c.bad_summary += 1;
                    return false;
                }
                self.assigned.push(t.id.0);
                c.ok += 1;
                return true;
            }
            (_, Ok(Response::Blocked)) => c.blocked += 1,
            (_, Ok(Response::Aborted(_))) => c.aborted += 1,
            (_, Ok(Response::Err(_))) => c.err += 1,
            _ => c.wrong += 1,
        }
        false
    }
}

struct RecvOut {
    ledger: Ledger,
    measured: Measured,
    spans: Vec<Span>,
}

struct SendOut {
    late: Vec<u64>,
    spans: Vec<Span>,
}

/// A wire run in progress. The generator threads stay alive until
/// [`Running::finish`], so their CPU clocks can be read at the window's
/// start and end.
pub struct Running {
    barrier: Arc<Barrier>,
    clocks: Vec<ThreadClock>,
    sender: Option<JoinHandle<io::Result<SendOut>>>,
    receiver: JoinHandle<io::Result<RecvOut>>,
    attempted: Arc<AtomicU64>,
}

impl Running {
    /// CPU the generator threads have used so far, ns.
    pub fn cpu_ns(&self) -> u64 {
        self.clocks.iter().map(|c| c.cpu_ns()).sum()
    }

    /// Waits for the generator to finish and collects its results.
    ///
    /// # Errors
    ///
    /// A transport failure of either generator thread.
    pub fn finish(self) -> io::Result<WireOutcome> {
        self.barrier.wait();
        let send = match self.sender {
            Some(h) => Some(h.join().expect("bench-send panicked")?),
            None => None,
        };
        let recv = self.receiver.join().expect("bench receiver panicked")?;
        let mut measured = recv.measured;
        let mut spans = recv.spans;
        if let Some(send) = send {
            measured.late_ns = send.late;
            spans.extend(send.spans);
        }
        let attempted = self.attempted.load(Ordering::SeqCst);
        let mut counts = recv.ledger.counts;
        counts.missing = attempted.saturating_sub(counts.ok + counts.failed());
        Ok(WireOutcome {
            attempted,
            counts,
            opened: recv.ledger.opened,
            assigned: recv.ledger.assigned,
            measured,
            spans,
        })
    }
}

fn clone_pair(conns: &[TcpStream; 2]) -> io::Result<[TcpStream; 2]> {
    Ok([conns[0].try_clone()?, conns[1].try_clone()?])
}

/// Reads once from a socket epoll reported readable and returns the
/// complete frames; `Ok(None)` when the service hung up.
fn read_frames(
    conn: &mut TcpStream,
    dec: &mut FrameDecoder,
    scratch: &mut [u8],
    frames: &mut Vec<Vec<u8>>,
) -> io::Result<Option<()>> {
    let n = match conn.read(scratch) {
        Ok(0) => return Ok(None),
        Ok(n) => n,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
            ) =>
        {
            return Ok(Some(()));
        }
        Err(e) => return Err(e),
    };
    dec.feed(&scratch[..n])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    while let Some(body) = dec.next_frame() {
        frames.push(body);
    }
    Ok(Some(()))
}

/// Starts an open-loop run of `plan`; `t0` is the run's start.
pub fn open_loop(
    plan: Arc<Vec<Op>>,
    conns: &[TcpStream; 2],
    token: u64,
    summaries: Arc<Summaries>,
    window: Window,
    t0: Instant,
) -> io::Result<Running> {
    let barrier = Arc::new(Barrier::new(3));
    let attempted = Arc::new(AtomicU64::new(plan.len() as u64));
    let sender_done = Arc::new(AtomicBool::new(false));
    let sender = {
        let (plan, summaries) = (Arc::clone(&plan), Arc::clone(&summaries));
        let (barrier, done) = (Arc::clone(&barrier), Arc::clone(&sender_done));
        let mut out = clone_pair(conns)?;
        std::thread::Builder::new()
            .name("bench-send".into())
            .spawn(move || {
                let r = send_loop(&plan, &mut out, token, &summaries, window, t0);
                done.store(true, Ordering::SeqCst);
                barrier.wait();
                r
            })?
    };
    let receiver = {
        let (barrier, done) = (Arc::clone(&barrier), Arc::clone(&sender_done));
        let mut inn = clone_pair(conns)?;
        std::thread::Builder::new()
            .name("bench-recv".into())
            .spawn(move || {
                let r = recv_loop(&plan, &mut inn, summaries, window, t0, &done);
                barrier.wait();
                r
            })?
    };
    let clocks = [ThreadClock::of(&sender), ThreadClock::of(&receiver)]
        .into_iter()
        .flatten()
        .collect();
    Ok(Running {
        barrier,
        clocks,
        sender: Some(sender),
        receiver,
        attempted,
    })
}

fn send_loop(
    plan: &[Op],
    conns: &mut [TcpStream; 2],
    token: u64,
    summaries: &Summaries,
    window: Window,
    t0: Instant,
) -> io::Result<SendOut> {
    sys::tight_timer_slack();
    let assign = encode_request(&Request::Assign { token });
    let due = due_in(plan, window);
    let mut late = touched(due, 0);
    let mut spans = touched(if window.traced { due } else { 0 }, NO_SPAN);
    for (i, op) in plan.iter().enumerate() {
        let due = t0 + Duration::from_nanos(op.due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = now_ns(t0);
        send_op(&mut conns[op.conn], op.kind, token, summaries, &assign)?;
        if window.contains(op.due_ns) {
            late.push(start.saturating_sub(op.due_ns));
            if window.traced {
                spans.push(Span {
                    name: "gen.send",
                    id: i as u64,
                    parent: Some("wire"),
                    start_ns: start,
                    end_ns: now_ns(t0),
                });
            }
        }
    }
    Ok(SendOut { late, spans })
}

fn recv_loop(
    plan: &[Op],
    conns: &mut [TcpStream; 2],
    summaries: Arc<Summaries>,
    window: Window,
    t0: Instant,
    sender_done: &AtomicBool,
) -> io::Result<RecvOut> {
    // Replies come back in request order per connection.
    let order: [Vec<u32>; 2] = [0, 1].map(|c| {
        (0..plan.len() as u32)
            .filter(|&i| plan[i as usize].conn == c)
            .collect()
    });
    let mut ledger = Ledger::new(summaries, plan.len());
    let due = due_in(plan, window);
    let mut measured = Measured {
        latencies_ns: touched(due, 0),
        ..Measured::default()
    };
    let mut spans = touched(if window.traced { 2 * due } else { 0 }, NO_SPAN);
    let poller = Poller::new(&[&conns[0], &conns[1]])?;
    let mut decoders = [FrameDecoder::new(), FrameDecoder::new()];
    let mut cursor = [0usize; 2];
    let mut scratch = vec![0u8; 64 * 1024];
    let (mut ready, mut frames) = (Vec::new(), Vec::new());
    let mut got = 0;
    let mut last_progress = Instant::now();
    'run: while got < plan.len() {
        if sender_done.load(Ordering::SeqCst) && last_progress.elapsed() > DRAIN {
            break;
        }
        ready.clear();
        poller.wait(20, &mut ready)?;
        for &c in &ready {
            frames.clear();
            if read_frames(&mut conns[c], &mut decoders[c], &mut scratch, &mut frames)?.is_none() {
                break 'run;
            }
            for body in &frames {
                let decode_start = now_ns(t0);
                let Some(&i) = order[c].get(cursor[c]) else {
                    ledger.counts.extra += 1;
                    continue;
                };
                cursor[c] += 1;
                got += 1;
                let op = plan[i as usize];
                let ok = ledger.settle(op.kind, body);
                let end = now_ns(t0);
                if !ok {
                    continue;
                }
                if window.contains(end) {
                    measured.completions += 1;
                }
                if window.contains(op.due_ns) {
                    measured.latencies_ns.push(end - op.due_ns.min(end));
                    if window.traced {
                        spans.extend(wire_spans(i as u64, op.due_ns, decode_start, end));
                    }
                }
            }
            last_progress = Instant::now();
        }
    }
    Ok(RecvOut {
        ledger,
        measured,
        spans,
    })
}

fn wire_spans(id: u64, start: u64, decode_start: u64, end: u64) -> [Span; 2] {
    [
        Span {
            name: "wire",
            id,
            parent: None,
            start_ns: start,
            end_ns: end,
        },
        Span {
            name: "client.decode",
            id,
            parent: Some("wire"),
            start_ns: decode_start,
            end_ns: end,
        },
    ]
}

/// Starts a closed-loop run: `depth` requests outstanding per
/// connection in the alternating open/assign pattern, sending until the
/// window ends. Memory is reserved for `capacity` requests up front.
pub fn closed_loop(
    conns: &[TcpStream; 2],
    token: u64,
    summaries: Arc<Summaries>,
    window: Window,
    depth: usize,
    capacity: usize,
    t0: Instant,
) -> io::Result<Running> {
    let barrier = Arc::new(Barrier::new(2));
    let attempted = Arc::new(AtomicU64::new(0));
    let receiver = {
        let (barrier, attempted) = (Arc::clone(&barrier), Arc::clone(&attempted));
        let io = clone_pair(conns)?;
        std::thread::Builder::new()
            .name("bench-load".into())
            .spawn(move || {
                let mut cl = ClosedLoop::new(io, token, summaries, window, capacity, t0);
                let r = cl.run(depth);
                attempted.store(cl.sent, Ordering::SeqCst);
                barrier.wait();
                r.map(|()| cl.into_out())
            })?
    };
    let clocks = ThreadClock::of(&receiver).into_iter().collect();
    Ok(Running {
        barrier,
        clocks,
        sender: None,
        receiver,
        attempted,
    })
}

struct ClosedLoop {
    conns: [TcpStream; 2],
    token: u64,
    assign: Vec<u8>,
    /// No request is sent after the window ends.
    window: Window,
    t0: Instant,
    /// Requests sent per connection, and in total.
    next: [u64; 2],
    sent: u64,
    /// Per connection, oldest first: (request id, kind, sent at).
    outstanding: [VecDeque<(u64, Kind, u64)>; 2],
    ledger: Ledger,
    measured: Measured,
    spans: Vec<Span>,
}

impl ClosedLoop {
    fn new(
        conns: [TcpStream; 2],
        token: u64,
        summaries: Arc<Summaries>,
        window: Window,
        capacity: usize,
        t0: Instant,
    ) -> Self {
        // The window's share of the requests reserved for.
        let due = (capacity as f64 * (window.end_ns - window.start_ns) as f64
            / window.end_ns.max(1) as f64) as usize;
        Self {
            conns,
            token,
            assign: encode_request(&Request::Assign { token }).to_vec(),
            window,
            t0,
            next: [0; 2],
            sent: 0,
            outstanding: Default::default(),
            ledger: Ledger::new(summaries, capacity),
            measured: Measured {
                latencies_ns: touched(due, 0),
                ..Measured::default()
            },
            spans: touched(if window.traced { 3 * due } else { 0 }, NO_SPAN),
        }
    }

    fn send(&mut self, c: usize) -> io::Result<()> {
        let kind = alternating(c, self.next[c]);
        self.next[c] += 1;
        let id = self.sent;
        self.sent += 1;
        let start = now_ns(self.t0);
        send_op(
            &mut self.conns[c],
            kind,
            self.token,
            &self.ledger.summaries,
            &self.assign,
        )?;
        if self.window.traced && self.window.contains(start) {
            self.spans.push(Span {
                name: "gen.send",
                id,
                parent: Some("wire"),
                start_ns: start,
                end_ns: now_ns(self.t0),
            });
        }
        self.outstanding[c].push_back((id, kind, start));
        Ok(())
    }

    fn run(&mut self, depth: usize) -> io::Result<()> {
        let now = Instant::now();
        if self.t0 > now {
            std::thread::sleep(self.t0 - now);
        }
        for c in 0..2 {
            for _ in 0..depth {
                self.send(c)?;
            }
        }
        let [a, b] = &self.conns;
        let poller = Poller::new(&[a, b])?;
        let mut decoders = [FrameDecoder::new(), FrameDecoder::new()];
        let mut scratch = vec![0u8; 64 * 1024];
        let (mut ready, mut frames) = (Vec::new(), Vec::new());
        let mut last_progress = Instant::now();
        while self.outstanding.iter().any(|q| !q.is_empty()) {
            if now_ns(self.t0) >= self.window.end_ns && last_progress.elapsed() > DRAIN {
                break;
            }
            ready.clear();
            poller.wait(20, &mut ready)?;
            for &c in &ready {
                frames.clear();
                if read_frames(
                    &mut self.conns[c],
                    &mut decoders[c],
                    &mut scratch,
                    &mut frames,
                )?
                .is_none()
                {
                    return Ok(());
                }
                for body in &frames {
                    self.settle(c, body)?;
                }
                last_progress = Instant::now();
            }
        }
        Ok(())
    }

    fn settle(&mut self, c: usize, body: &[u8]) -> io::Result<()> {
        let decode_start = now_ns(self.t0);
        let Some((id, kind, sent)) = self.outstanding[c].pop_front() else {
            self.ledger.counts.extra += 1;
            return Ok(());
        };
        let ok = self.ledger.settle(kind, body);
        let end = now_ns(self.t0);
        if ok {
            if self.window.contains(end) {
                self.measured.completions += 1;
            }
            if self.window.contains(sent) {
                self.measured.latencies_ns.push(end - sent);
                if self.window.traced {
                    self.spans.extend(wire_spans(id, sent, decode_start, end));
                }
            }
        }
        if end < self.window.end_ns {
            self.send(c)?;
        }
        Ok(())
    }

    fn into_out(self) -> RecvOut {
        RecvOut {
            ledger: self.ledger,
            measured: self.measured,
            spans: self.spans,
        }
    }
}
