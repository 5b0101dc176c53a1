//! Blocking client for the ticket service, plus a multi-threaded load
//! generator used by experiment E17 and the end-to-end tests.

use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use amf_aspects::auth::AuthToken;
use amf_ticketing::{Severity, Ticket};

use crate::codec::{
    decode_response, encode_request, read_frame, severity_to_wire, write_frame, DecodeError,
    Request, Response, WireStats,
};

/// Client-side failure of one request.
#[derive(Debug)]
pub enum ClientError {
    /// Server answered `Blocked`: the buffer stayed full/empty past the
    /// server's patience. Safe to retry.
    Blocked,
    /// An aspect vetoed the request (reason from the server).
    Aborted(String),
    /// The server reported a protocol/server error.
    Server(String),
    /// The server's reply failed to decode.
    Protocol(DecodeError),
    /// The reply type did not match the request.
    UnexpectedResponse,
    /// The connection died in the middle of a frame: the server (or the
    /// path to it) vanished after part of a reply was read. Unlike
    /// `Blocked` this is not retryable on the same connection — framing
    /// sync is gone.
    FrameTruncated(String),
    /// The socket deadline ([`crate::ServiceConfig::io_deadline`])
    /// elapsed with no reply. The connection may still be usable but a
    /// late reply would desync framing; reconnect.
    Timeout,
    /// Transport failure (includes the server hanging up mid-call).
    Io(io::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Blocked => f.write_str("request blocked past server patience"),
            ClientError::Aborted(reason) => write!(f, "request aborted: {reason}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::UnexpectedResponse => f.write_str("reply did not match the request"),
            ClientError::FrameTruncated(detail) => write!(f, "frame truncated: {detail}"),
            ClientError::Timeout => f.write_str("socket deadline elapsed waiting for the server"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ClientError::FrameTruncated(e.to_string()),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
            _ => ClientError::Io(e),
        }
    }
}

/// A blocking connection to the service; one request in flight at a
/// time (the protocol is strict request/response).
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceClient").finish_non_exhaustive()
    }
}

impl ServiceClient {
    /// Connects to a running service with the default socket deadline
    /// ([`crate::ServiceConfig::default`]'s `io_deadline`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with_deadline(addr, crate::ServiceConfig::default().io_deadline)
    }

    /// Connects with an explicit socket deadline applied via
    /// `set_read_timeout`/`set_write_timeout`; `None` blocks forever
    /// (the pre-robustness behavior). A tripped deadline surfaces as
    /// [`ClientError::Timeout`] instead of a hang.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_with_deadline(addr: SocketAddr, deadline: Option<Duration>) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &encode_request(req))?;
        let body = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::FrameTruncated("server closed the connection mid-call".into())
        })?;
        let resp = decode_response(&body).map_err(ClientError::Protocol)?;
        match resp {
            Response::Blocked => Err(ClientError::Blocked),
            Response::Aborted(reason) => Err(ClientError::Aborted(reason)),
            Response::Err(msg) => Err(ClientError::Server(msg)),
            ok => Ok(ok),
        }
    }

    /// Opens a ticket.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — `Blocked` when the buffer stayed full,
    /// `Aborted` on an aspect veto.
    pub fn open(
        &mut self,
        token: AuthToken,
        id: u64,
        severity: Severity,
        summary: &str,
    ) -> Result<(), ClientError> {
        match self.call(&Request::Open {
            token: token.0,
            id,
            severity: severity_to_wire(severity),
            summary: summary.to_string(),
        })? {
            Response::Ok(_) => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Assigns (retrieves) the oldest ticket.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — `Blocked` when the buffer stayed empty,
    /// `Aborted` on an aspect veto.
    pub fn assign(&mut self, token: AuthToken) -> Result<Ticket, ClientError> {
        match self.call(&Request::Assign { token: token.0 })? {
            Response::Ok(Some(ticket)) => Ok(ticket),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Reads the service counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok(_) => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total operations across all clients (split evenly; each client
    /// alternates `open` / `assign` so tickets never pile up unbounded).
    pub requests: u64,
    /// Service address.
    pub addr: SocketAddr,
    /// Session token every client uses.
    pub token: AuthToken,
}

/// What the load run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadOutcome {
    /// Per-request latency of successful `open` calls, nanoseconds.
    pub open_latencies_ns: Vec<u64>,
    /// Per-request latency of successful `assign` calls, nanoseconds.
    pub assign_latencies_ns: Vec<u64>,
    /// Requests answered `Ok`.
    pub ok: u64,
    /// Requests answered `Blocked`.
    pub blocked: u64,
    /// Requests answered `Aborted`.
    pub aborted: u64,
    /// Wall-clock span of the whole run.
    pub elapsed: Duration,
}

impl LoadOutcome {
    /// Total requests sent.
    pub fn total(&self) -> u64 {
        self.ok + self.blocked + self.aborted
    }

    /// Successful requests per second over the run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }
}

/// Drives `cfg.clients` concurrent connections against the service and
/// aggregates latencies and outcome counts.
///
/// # Errors
///
/// Returns the first connection error; per-request transport failures
/// mid-run abort that client's remaining work and surface the error.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadOutcome, ClientError> {
    let clients = cfg.clients.max(1);
    let per_client = cfg.requests / clients as u64;
    let started = Instant::now();
    let mut results: Vec<Result<LoadOutcome, ClientError>> = Vec::with_capacity(clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || run_one_client(cfg.addr, cfg.token, c as u64, per_client)))
            .collect();
        for h in handles {
            results.push(h.join().expect("load client panicked"));
        }
    });
    let mut merged = LoadOutcome::default();
    for r in results {
        let one = r?;
        merged.open_latencies_ns.extend(one.open_latencies_ns);
        merged.assign_latencies_ns.extend(one.assign_latencies_ns);
        merged.ok += one.ok;
        merged.blocked += one.blocked;
        merged.aborted += one.aborted;
    }
    merged.elapsed = started.elapsed();
    Ok(merged)
}

fn run_one_client(
    addr: SocketAddr,
    token: AuthToken,
    client_index: u64,
    ops: u64,
) -> Result<LoadOutcome, ClientError> {
    let mut client = ServiceClient::connect(addr)?;
    let mut out = LoadOutcome::default();
    for i in 0..ops {
        let t0 = Instant::now();
        // Even ops open, odd ops assign: per client the buffer never
        // drifts by more than one ticket.
        let result = if i % 2 == 0 {
            let id = client_index * 1_000_000_000 + i;
            client.open(token, id, Severity::Medium, "load")
        } else {
            client.assign(token).map(|_| ())
        };
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => {
                out.ok += 1;
                if i % 2 == 0 {
                    out.open_latencies_ns.push(elapsed_ns);
                } else {
                    out.assign_latencies_ns.push(elapsed_ns);
                }
            }
            Err(ClientError::Blocked) => out.blocked += 1,
            Err(ClientError::Aborted(_)) => out.aborted += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A server that answers a `Stats` request with `reply` bytes and
    /// hangs up (or stalls, if `reply` is `None`).
    fn one_shot_server(reply: Option<Vec<u8>>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let _ = read_frame(&mut reader);
            match reply {
                Some(bytes) => {
                    let _ = conn.write_all(&bytes);
                    // Hang up mid-frame.
                }
                None => {
                    // Stall: never answer, keep the socket open.
                    std::thread::sleep(Duration::from_secs(30));
                }
            }
        });
        addr
    }

    #[test]
    fn partial_frame_surfaces_as_frame_truncated_not_a_hang() {
        use crate::codec::encode_response;
        let full = encode_response(&Response::Stats(WireStats::default()));
        // One reply cut inside the length prefix, one inside the body.
        for cut in [2, full.len() - 3] {
            let addr = one_shot_server(Some(full[..cut].to_vec()));
            let mut client =
                ServiceClient::connect_with_deadline(addr, Some(Duration::from_secs(5))).unwrap();
            match client.stats() {
                Err(ClientError::FrameTruncated(_)) => {}
                other => panic!("cut at {cut}: expected FrameTruncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn silent_server_trips_the_deadline_instead_of_hanging() {
        let addr = one_shot_server(None);
        let mut client =
            ServiceClient::connect_with_deadline(addr, Some(Duration::from_millis(50))).unwrap();
        match client.stats() {
            Err(ClientError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }
}
