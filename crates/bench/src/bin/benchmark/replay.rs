//! Layer replays of the traced run: the wire run's request ids and
//! pacing sent through one layer's public entry point at a time, so the
//! layer's own cost can be read without the layers around it.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use amf_concurrency::TaskEngine;
use amf_service::codec::{
    decode_peer, decode_request, decode_response, encode_peer, encode_request, encode_response,
    severity_to_wire,
};
use amf_service::{FrameDecoder, FrameEncoder, PeerFrame, Request, Response};
use amf_ticketing::{Severity, Ticket};

use crate::gen::Span;
use crate::plan::{Kind, Op, Summaries};
use crate::sys;

/// One replayed call: its plan index, outcome and timing (ns after the
/// run's start).
pub struct Timed<R> {
    pub index: usize,
    pub result: R,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl<R> Timed<R> {
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            name,
            id: self.index as u64,
            parent: None,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
        }
    }

    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Replays `ops` on two `bench-replay` threads, thread `c` taking the
/// ops of connection `c` at their due times (counted from the replay's
/// own start), and times each call from its actual start.
pub fn paced<R: Send>(
    ops: &[Op],
    t0: Instant,
    call: impl Fn(usize, &Op) -> R + Sync,
) -> Vec<Timed<R>> {
    let start = Instant::now() + Duration::from_millis(1);
    let call = &call;
    let mut out: Vec<Timed<R>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|c| {
                std::thread::Builder::new()
                    .name("bench-replay".into())
                    .spawn_scoped(s, move || {
                        sys::tight_timer_slack();
                        let mut done = Vec::new();
                        for (index, op) in ops.iter().enumerate().filter(|(_, op)| op.conn == c) {
                            let due = start + Duration::from_nanos(op.due_ns);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let start_ns = since(t0);
                            let result = call(index, op);
                            done.push(Timed {
                                index,
                                result,
                                start_ns,
                                end_ns: since(t0),
                            });
                        }
                        done
                    })
                    .expect("spawn bench-replay")
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("bench-replay panicked"))
            .collect()
    });
    out.sort_by_key(|t| t.index);
    out
}

thread_local! {
    /// Read buffer of a replay thread, allocated once rather than zeroed
    /// on every call.
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(vec![0; 64 * 1024]);
}

/// Writes one frame and reads the one reply frame.
pub fn round_trip(mut conn: &TcpStream, framed: &[u8]) -> io::Result<Vec<u8>> {
    conn.write_all(framed)?;
    let mut dec = FrameDecoder::new();
    SCRATCH.with_borrow_mut(|scratch| loop {
        if let Some(body) = dec.next_frame() {
            return Ok(body);
        }
        let n = conn.read(scratch)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        dec.feed(&scratch[..n])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    })
}

/// `Request::Stats` over the given connections.
pub fn front_stats(ops: &[Op], conns: &[TcpStream; 2], t0: Instant) -> Vec<Timed<bool>> {
    let frame = encode_request(&Request::Stats);
    paced(ops, t0, |_, op| {
        round_trip(&conns[op.conn], &frame)
            .is_ok_and(|body| matches!(decode_response(&body), Ok(Response::Stats(_))))
    })
}

/// Frame bodies of one request and its reply, as the service's codec
/// would put them on the wire.
fn wire_pair(op: &Op, token: u64, summaries: &Summaries, last_open: u64) -> (Request, Response) {
    match op.kind {
        Kind::Open { id } => (
            Request::Open {
                token,
                id,
                severity: severity_to_wire(Severity::Medium),
                summary: summaries.get(id).to_owned(),
            },
            Response::Ok(None),
        ),
        Kind::Assign => (
            Request::Assign { token },
            Response::Ok(Some(Ticket::new(
                last_open,
                summaries.get(last_open).to_owned(),
            ))),
        ),
    }
}

/// Per op: (request body bytes, reply body bytes).
pub fn frame_sizes(ops: &[Op], token: u64, summaries: &Summaries) -> Vec<(usize, usize)> {
    let mut last_open = 0;
    ops.iter()
        .map(|op| {
            if let Kind::Open { id } = op.kind {
                last_open = id;
            }
            let (req, resp) = wire_pair(op, token, summaries, last_open);
            (
                encode_request(&req).len() - 4,
                encode_response(&resp).len() - 4,
            )
        })
        .collect()
}

/// What a codec replay measured.
pub struct CodecRun {
    pub p50_us: f64,
    /// Messages that did not decode to what was encoded.
    pub mismatches: usize,
    pub bytes_per_op: f64,
    pub spans: Vec<Span>,
}

/// Encodes, frames, reassembles and decodes every request and its
/// reply, back to back on one thread.
pub fn codec(ops: &[Op], token: u64, summaries: &Summaries, t0: Instant) -> CodecRun {
    let mut dec = FrameDecoder::new();
    let mut last_open = 0;
    let (mut ns, mut spans, mut bytes, mut mismatches) = (Vec::new(), Vec::new(), 0usize, 0);
    for (index, op) in ops.iter().enumerate() {
        if let Kind::Open { id } = op.kind {
            last_open = id;
        }
        let (req, resp) = wire_pair(op, token, summaries, last_open);
        let start = since(t0);
        let wire = encode_request(&req);
        dec.feed(&wire).expect("request frame");
        let decoded = decode_request(&dec.next_frame().expect("whole frame"));
        let reply = encode_response(&resp);
        dec.feed(&reply).expect("reply frame");
        let answer = decode_response(&dec.next_frame().expect("whole frame"));
        let end = since(t0);
        mismatches += usize::from(decoded != Ok(req) || answer != Ok(resp));
        bytes += wire.len() + reply.len();
        ns.push(end - start);
        spans.push(
            Timed {
                index,
                result: (),
                start_ns: start,
                end_ns: end,
            }
            .span("codec"),
        );
    }
    CodecRun {
        p50_us: crate::stats::percentile_us(&mut ns, 50.0),
        mismatches,
        bytes_per_op: bytes as f64 / ops.len().max(1) as f64,
        spans,
    }
}

/// The lease plane's codec: one grant and its ack per visit.
pub fn peer_codec(visits: usize, t0: Instant) -> CodecRun {
    let mut dec = FrameDecoder::new();
    let (mut ns, mut spans, mut bytes, mut mismatches) = (Vec::new(), Vec::new(), 0usize, 0);
    for index in 0..visits {
        let seq = index as u64;
        let grant = PeerFrame {
            node: seq % 3,
            msg: amf_core::LeaseMsg::Grant {
                seq,
                lease: seq % 8,
                hop: seq,
                visits: 1000,
            },
        };
        let ack = PeerFrame {
            node: (seq + 1) % 3,
            msg: amf_core::LeaseMsg::Ack {
                seq,
                cursor: seq + 1,
            },
        };
        let start = since(t0);
        let wire = encode_peer(&grant);
        dec.feed(&wire).expect("grant frame");
        let g = decode_peer(&dec.next_frame().expect("whole frame"));
        let reply = encode_peer(&ack);
        dec.feed(&reply).expect("ack frame");
        let a = decode_peer(&dec.next_frame().expect("whole frame"));
        let end = since(t0);
        mismatches += usize::from(g != Ok(grant) || a != Ok(ack));
        bytes += wire.len() + reply.len();
        ns.push(end - start);
        spans.push(
            Timed {
                index,
                result: (),
                start_ns: start,
                end_ns: end,
            }
            .span("codec"),
        );
    }
    CodecRun {
        p50_us: crate::stats::percentile_us(&mut ns, 50.0),
        mismatches,
        bytes_per_op: bytes as f64 / visits.max(1) as f64,
        spans,
    }
}

/// `TaskEngine::spawn` → job → reply, on a fresh engine of `workers`.
pub fn task_round_trip(ops: &[Op], workers: usize, t0: Instant) -> Vec<Timed<bool>> {
    let engine = TaskEngine::new(workers);
    let out = paced(ops, t0, |_, _| {
        let (tx, rx) = mpsc::channel();
        engine.spawn(move || {
            let _ = tx.send(());
        });
        rx.recv().is_ok()
    });
    engine.shutdown();
    out
}

/// Round trips through an echo server the benchmark owns, with the
/// workload's frame sizes: each request body carries the length of the
/// reply body it wants back.
pub fn loopback_echo(
    ops: &[Op],
    sizes: &[(usize, usize)],
    t0: Instant,
) -> io::Result<Vec<Timed<bool>>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let clients = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    let servers = [listener.accept()?.0, listener.accept()?.0];
    for s in clients.iter().chain(&servers) {
        s.set_nodelay(true)?;
    }
    let frames: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&(req, resp)| {
            let mut body = vec![0u8; req.max(4)];
            body[..4].copy_from_slice(&(resp as u32).to_be_bytes());
            FrameEncoder::encode(&body)
        })
        .collect();
    std::thread::scope(|s| {
        for server in &servers {
            std::thread::Builder::new()
                .name("bench-echo".into())
                .spawn_scoped(s, move || echo(server))
                .expect("spawn bench-echo");
        }
        let out = paced(ops, t0, |i, op| {
            round_trip(&clients[op.conn], &frames[i]).is_ok()
        });
        for c in &clients {
            let _ = c.shutdown(std::net::Shutdown::Write);
        }
        Ok(out)
    })
}

fn echo(mut conn: &TcpStream) {
    let mut dec = FrameDecoder::new();
    let mut scratch = [0u8; 64 * 1024];
    let zeros = vec![0u8; amf_service::MAX_FRAME];
    while let Ok(n) = conn.read(&mut scratch) {
        if n == 0 || dec.feed(&scratch[..n]).is_err() {
            return;
        }
        while let Some(body) = dec.next_frame() {
            let want = u32::from_be_bytes(body[..4].try_into().expect("4 bytes")) as usize;
            if conn
                .write_all(&FrameEncoder::encode(&zeros[..want]))
                .is_err()
            {
                return;
            }
        }
    }
}

/// Shared by the two in-process ticket replays: the outcome of one
/// open or assign, and the ticket an assign returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Opened(u64),
    Assigned(u64),
    /// Why the call failed.
    Failed(&'static str),
}

impl Outcome {
    pub fn failed(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }

    fn of_abort(e: &amf_core::AbortError) -> Self {
        Outcome::Failed(match e {
            amf_core::AbortError::Timeout { .. } => "timeout",
            amf_core::AbortError::Aspect { .. } => "aborted",
            amf_core::AbortError::AspectPanicked { .. } => "aspect panic",
        })
    }
}

/// The extended proxy behind the running service, called directly.
pub fn ticketing(
    proxy: &amf_ticketing::ExtendedTicketServerProxy,
    ops: &[Op],
    token: u64,
    summaries: &Summaries,
    timeout: Duration,
    t0: Instant,
) -> Vec<Timed<Outcome>> {
    let token = amf_aspects::auth::AuthToken(token);
    paced(ops, t0, |_, op| match op.kind {
        Kind::Open { id } => {
            let ticket = Ticket::new(id, summaries.get(id)).with_severity(Severity::Medium);
            match proxy.open_timeout(token, ticket, timeout) {
                Ok(()) => Outcome::Opened(id),
                Err(e) => Outcome::of_abort(&e),
            }
        }
        Kind::Assign => match proxy.assign_timeout(token, timeout) {
            Ok(t) if t.summary == summaries.get(t.id.0) => Outcome::Assigned(t.id.0),
            Ok(_) => Outcome::Failed("changed summary"),
            Err(e) => Outcome::of_abort(&e),
        },
    })
}

/// A base proxy over a default moderator: only the synchronization
/// pair runs, no aspects, no trace, no task engine.
pub fn bare(
    ops: &[Op],
    capacity: usize,
    summaries: &Summaries,
    timeout: Duration,
    t0: Instant,
) -> Vec<Timed<Outcome>> {
    let proxy =
        amf_ticketing::TicketServerProxy::new(capacity, amf_core::AspectModerator::shared())
            .expect("a fresh moderator has no conflicting registrations");
    paced(ops, t0, |_, op| match op.kind {
        Kind::Open { id } => {
            match proxy.open_timeout(Ticket::new(id, summaries.get(id)), timeout) {
                Ok(()) => Outcome::Opened(id),
                Err(e) => Outcome::of_abort(&e),
            }
        }
        Kind::Assign => match proxy.assign_timeout(timeout) {
            Ok(t) => Outcome::Assigned(t.id.0),
            Err(e) => Outcome::of_abort(&e),
        },
    })
}
