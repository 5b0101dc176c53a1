//! The TCP front of the moderated ticket server.
//!
//! Every remote `open`/`assign` flows through the full pre-/post-
//! activation protocol of the in-process proxy; the network layer adds
//! nothing but framing. Cross-cutting concerns map onto aspects, not
//! onto handler code:
//!
//! | concern | aspect | registered |
//! |---|---|---|
//! | buffer synchronization | `sync` pair (in the base proxy) | first (innermost) |
//! | per-principal rate limiting | [`QuotaAspect`] | second |
//! | global throughput ceiling | [`RateLimitAspect`] | third (optional) |
//! | authentication | `AuthenticationAspect` via proxy upgrade | fourth |
//! | counters + latency histograms | [`MetricsAspect`] | last (outermost) |
//!
//! Registration order is the composition order: aspects registered
//! later run *first* on entry, so the activation sequence is
//! metrics → auth → throttle → quota → sync → method — authentication
//! attaches the principal before the quota aspect bills it.
//!
//! Dispatch is genuinely parallel across methods: the moderator keeps a
//! coordination cell per method, so worker threads serving `open` never
//! contend with workers serving `assign` on a shared moderator lock —
//! they meet only where the protocol demands it (the buffer-sync aspect
//! pair and cross-method wakeups).
//!
//! Two execution fronts share this file's protocol logic
//! ([`ServiceFront`]): the original thread-per-connection front on a
//! [`WorkerPool`], and the readiness-driven default ([`crate::reactor`])
//! that multiplexes every connection onto one epoll loop and runs
//! requests as tasks on a [`TaskEngine`] — whose waiters also back the
//! moderator's coordination cells, so a parked request suspends a task,
//! not a thread.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use amf_aspects::auth::{AuthToken, Authenticator};
use amf_aspects::metrics::{MetricsAspect, MetricsHub};
use amf_aspects::quota::QuotaAspect;
use amf_aspects::sched::{RateLimitAspect, ThrottleMode};
use amf_concurrency::{RateLimiter, RateLimiterConfig, SystemClock, TaskEngine, WorkerPool};
use amf_core::trace::{EventKind, FilterSink, MemoryTrace, TeeSink, TraceEvent, TraceSink};
use amf_core::{
    AbortError, AspectModerator, Concern, FairnessPolicy, PanicPolicy, RegistrationError,
};
use amf_ticketing::{ExtendedTicketServerProxy, Ticket, TicketServerProxy};
use parking_lot::Mutex;

use crate::codec::{
    decode_request, encode_response, read_frame, severity_from_wire, write_frame, Request,
    Response, WireStats,
};
use crate::reactor::{self, ReactorWaker};

/// Events the service's main trace ring keeps: at ~64 B an event this
/// is ~1 MiB, the last ~1,100 requests at 13–15 events each.
pub const TRACE_RING_EVENTS: usize = 16_384;

/// Anomaly events (aborts, timeouts, contained panics, quarantines) the
/// service pins beyond the main ring's reach: ~64 KiB, the last ~500
/// failed requests at two events each (the aspect's abort, then the
/// activation's).
pub const ANOMALY_RING_EVENTS: usize = 1_024;

/// The protocol steps pinned in the anomaly ring.
fn is_anomaly(event: &TraceEvent) -> bool {
    matches!(
        event.kind,
        EventKind::PreconditionAborted
            | EventKind::ActivationAborted
            | EventKind::PanicCaught
            | EventKind::AspectQuarantined
    )
}

/// Which execution front serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceFront {
    /// Thread-per-connection on a [`WorkerPool`]: each live connection
    /// pins a worker for its lifetime, so `workers` bounds concurrent
    /// clients.
    Threaded,
    /// Readiness-driven epoll reactor ([`crate::reactor`]): one thread
    /// owns every connection; decoded requests run as tasks on a
    /// [`TaskEngine`] of `workers` core workers, and parked requests
    /// suspend tasks instead of threads. The default.
    #[default]
    Task,
}

/// Tuning knobs for [`TicketService::spawn`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ticket-buffer capacity (bounded; `open` blocks when full).
    pub capacity: usize,
    /// Execution parallelism. Under [`ServiceFront::Threaded`] this is
    /// the connection-worker count (and thus the concurrent-client
    /// bound); under [`ServiceFront::Task`] it is the task engine's
    /// core worker count, and connections are unbounded.
    pub workers: usize,
    /// Per-principal request quota within `quota_window`.
    pub quota_limit: u64,
    /// Fixed window over which the quota resets.
    pub quota_window: Duration,
    /// Optional global token-bucket ceiling across all clients; requests
    /// beyond it are aborted (throttled), not queued.
    pub rate: Option<RateLimiterConfig>,
    /// How long a request may stay blocked (buffer full/empty) before
    /// the server answers `Blocked`.
    pub op_timeout: Duration,
    /// Wake discipline of the coordination cells. `Barging` (the
    /// default) minimizes median latency; `Fifo` tickets each cell's
    /// waiters so no request is ever overtaken while parked — bounded
    /// tail latency under contention at some median cost (E10).
    pub fairness: FairnessPolicy,
    /// What the moderator does with a panicking aspect. The service
    /// defaults to `AbortInvocation`: the panic is contained, the chain
    /// rolled back, and the client sees `Response::Err` instead of a
    /// dead worker thread.
    pub panic_policy: PanicPolicy,
    /// Socket read/write deadline applied by [`crate::ServiceClient`]
    /// (`set_read_timeout`/`set_write_timeout`). A client whose server
    /// dies mid-reply surfaces `ClientError::Timeout` instead of
    /// hanging forever. `None` restores the old block-forever behavior.
    pub io_deadline: Option<Duration>,
    /// Which execution front serves connections (see [`ServiceFront`]).
    pub front: ServiceFront,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            workers: 16,
            quota_limit: 1_000_000,
            quota_window: Duration::from_secs(1),
            rate: None,
            op_timeout: Duration::from_millis(200),
            fairness: FairnessPolicy::Barging,
            panic_policy: PanicPolicy::AbortInvocation,
            io_deadline: Some(Duration::from_secs(5)),
            front: ServiceFront::default(),
        }
    }
}

/// Why the service failed to start.
#[derive(Debug)]
pub enum ServiceError {
    /// Binding or cloning the listener failed.
    Io(io::Error),
    /// Composing the aspect stack failed.
    Registration(RegistrationError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service i/o error: {e}"),
            ServiceError::Registration(e) => write!(f, "aspect composition failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<RegistrationError> for ServiceError {
    fn from(e: RegistrationError) -> Self {
        ServiceError::Registration(e)
    }
}

pub(crate) struct ServiceShared {
    proxy: ExtendedTicketServerProxy,
    op_timeout: Duration,
    pub(crate) shutting_down: AtomicBool,
    /// A clone of each live threaded-front connection, keyed by accept
    /// order, so shutdown can unblock its handler's read. Removed when
    /// the handler returns.
    connections: Mutex<HashMap<u64, TcpStream>>,
    /// Live connection count, maintained by whichever front is serving.
    pub(crate) open_connections: AtomicU64,
    /// Present under [`ServiceFront::Task`]; feeds `tasks_parked`.
    engine: Option<Arc<TaskEngine>>,
    /// Present under [`ServiceFront::Task`]; lets `begin_shutdown`
    /// interrupt the reactor's `epoll_wait`.
    reactor_waker: Mutex<Option<Arc<ReactorWaker>>>,
}

impl ServiceShared {
    pub(crate) fn handle_request(&self, req: Request) -> Response {
        match req {
            Request::Open {
                token,
                id,
                severity,
                summary,
            } => {
                let ticket = Ticket::new(id, summary).with_severity(severity_from_wire(severity));
                match self
                    .proxy
                    .open_timeout(AuthToken(token), ticket, self.op_timeout)
                {
                    Ok(()) => Response::Ok(None),
                    Err(e) => abort_to_response(&e),
                }
            }
            Request::Assign { token } => {
                match self.proxy.assign_timeout(AuthToken(token), self.op_timeout) {
                    Ok(ticket) => Response::Ok(Some(ticket)),
                    Err(e) => abort_to_response(&e),
                }
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::Shutdown => Response::Ok(None),
        }
    }

    fn stats(&self) -> WireStats {
        let (opened, assigned) = self.proxy.base().totals();
        let mod_stats = self.proxy.base().moderator().stats();
        WireStats {
            opened,
            assigned,
            queued: self.proxy.len() as u64,
            aborts: mod_stats.aborts,
            timeouts: mod_stats.timeouts,
            max_queue_depth: mod_stats.max_queue_depth,
            panics_caught: mod_stats.panics_caught,
            batched_grants: mod_stats.batched_grants,
            fast_path_admits: mod_stats.fast_path_admits,
            fast_path_fallbacks: mod_stats.fast_path_fallbacks,
            open_connections: self.open_connections.load(Ordering::SeqCst),
            tasks_parked: self.engine.as_ref().map_or(0, |e| e.tasks_parked()),
        }
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Unblock every connection handler stuck in a read.
        for (_, conn) in self.connections.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // And interrupt the reactor's epoll_wait, if that front runs.
        if let Some(waker) = self.reactor_waker.lock().as_ref() {
            waker.wake();
        }
    }
}

fn abort_to_response(err: &AbortError) -> Response {
    match err {
        AbortError::Timeout { .. } => Response::Blocked,
        AbortError::Aspect {
            concern, reason, ..
        } => Response::Aborted(format!("{concern}: {reason}")),
        AbortError::AspectPanicked {
            concern, message, ..
        } => Response::Err(format!("aspect panic contained ({concern}): {message}")),
    }
}

/// Handle on a running service: address, shared substrate, shutdown.
///
/// Dropping the handle shuts the service down.
pub struct ServiceHandle {
    addr: SocketAddr,
    auth: Arc<Authenticator>,
    metrics: MetricsHub,
    trace: Arc<MemoryTrace>,
    anomalies: Arc<MemoryTrace>,
    shared: Arc<ServiceShared>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The authenticator: provision users and mint tokens here.
    pub fn authenticator(&self) -> &Arc<Authenticator> {
        &self.auth
    }

    /// Counters and latency histograms per participating method.
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// The protocol trace of the most recent [`TRACE_RING_EVENTS`]
    /// events; older ones are evicted and counted in
    /// [`MemoryTrace::dropped`].
    pub fn trace(&self) -> &Arc<MemoryTrace> {
        &self.trace
    }

    /// The pinned anomalies: every abort, timeout, contained panic and
    /// quarantine step, kept after the main trace has wrapped past them.
    /// Only newer anomalies evict them, beyond [`ANOMALY_RING_EVENTS`].
    pub fn anomalies(&self) -> &Arc<MemoryTrace> {
        &self.anomalies
    }

    /// The live moderated proxy behind the service. Registering
    /// further aspects through it (via `proxy().base().moderator()`)
    /// is the paper's adaptability move applied to a running service —
    /// the chaos battery uses it to inject panics against live
    /// connections.
    pub fn proxy(&self) -> &ExtendedTicketServerProxy {
        &self.shared.proxy
    }

    /// Current service counters (same numbers as the `Stats` opcode).
    pub fn stats(&self) -> WireStats {
        self.shared.stats()
    }

    /// Stops accepting connections, disconnects clients, joins every
    /// worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        // Wake the accept loop with a throwaway connection (the reactor
        // front was already woken through its eventfd).
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(pool) = &self.pool {
            pool.shutdown();
        }
        if let Some(engine) = &self.shared.engine {
            engine.shutdown();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The networked ticket service.
#[derive(Debug)]
pub struct TicketService;

impl TicketService {
    /// Composes the aspect stack, binds `addr` (use port 0 for an
    /// ephemeral port) and starts accepting connections.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the bind or the aspect composition fails.
    pub fn spawn(addr: &str, config: ServiceConfig) -> Result<ServiceHandle, ServiceError> {
        // The flight recorder: a bounded ring of recent protocol steps,
        // teed with a second ring that pins every anomaly. The filter
        // goes first, so the tee clones only the anomalies and moves
        // every event into the main ring.
        let trace = Arc::new(MemoryTrace::bounded(TRACE_RING_EVENTS));
        let anomalies = Arc::new(MemoryTrace::bounded(ANOMALY_RING_EVENTS));
        let recorder = TeeSink::new(vec![
            Arc::new(FilterSink::new(
                Arc::clone(&anomalies) as Arc<dyn TraceSink>,
                is_anomaly,
            )),
            Arc::clone(&trace) as Arc<dyn TraceSink>,
        ]);
        // Under the task front the engine doubles as the moderator's
        // grant source: a request blocked inside the protocol parks its
        // task, and the freed worker serves other requests.
        let engine = match config.front {
            ServiceFront::Task => Some(Arc::new(TaskEngine::new(config.workers))),
            ServiceFront::Threaded => None,
        };
        let mut builder = AspectModerator::builder()
            .trace(Arc::new(recorder))
            .fairness(config.fairness)
            .panic_policy(config.panic_policy);
        if let Some(engine) = &engine {
            builder = builder.engine(Arc::<TaskEngine>::clone(engine));
        }
        let moderator = Arc::new(builder.build());
        let auth = Authenticator::shared();
        let metrics = MetricsHub::new();

        // Innermost: the base proxy registers the synchronization pair.
        let base = TicketServerProxy::new(config.capacity, Arc::clone(&moderator))?;
        let open = base.open_handle().clone();
        let assign = base.assign_handle().clone();
        // Per-principal quotas (billed to the authenticated principal).
        for handle in [&open, &assign] {
            moderator.register(
                handle,
                Concern::quota(),
                Box::new(QuotaAspect::new(config.quota_limit).with_window(config.quota_window)),
            )?;
        }
        // Optional global ceiling, one bucket shared by both methods.
        if let Some(rate) = config.rate {
            let limiter = Arc::new(RateLimiter::new(rate, Arc::new(SystemClock::new())));
            for handle in [&open, &assign] {
                moderator.register(
                    handle,
                    Concern::throttling(),
                    Box::new(RateLimitAspect::new(
                        Arc::clone(&limiter),
                        ThrottleMode::Abort,
                    )),
                )?;
            }
        }
        // Authentication joins the live proxy (the paper's adaptability
        // move); registered after quota so it runs before it on entry.
        let proxy = ExtendedTicketServerProxy::upgrade(base, Arc::clone(&auth))?;
        // Outermost: observe everything, including time spent blocked.
        for handle in [&open, &assign] {
            moderator.register(
                handle,
                Concern::metrics(),
                Box::new(MetricsAspect::new(metrics.clone())),
            )?;
        }

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServiceShared {
            proxy,
            op_timeout: config.op_timeout,
            shutting_down: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            open_connections: AtomicU64::new(0),
            engine: engine.clone(),
            reactor_waker: Mutex::new(None),
        });

        let (accept_thread, pool) = match config.front {
            ServiceFront::Threaded => {
                let pool = Arc::new(WorkerPool::new(config.workers));
                let thread = {
                    let shared = Arc::clone(&shared);
                    let pool = Arc::clone(&pool);
                    std::thread::Builder::new()
                        .name("amf-service-accept".into())
                        .spawn(move || accept_loop(&listener, &shared, &pool))
                        .map_err(ServiceError::Io)?
                };
                (thread, Some(pool))
            }
            ServiceFront::Task => {
                let engine = engine.expect("task front constructs an engine");
                let (thread, waker) = reactor::spawn(listener, Arc::clone(&shared), engine)?;
                *shared.reactor_waker.lock() = Some(waker);
                (thread, None)
            }
        };

        Ok(ServiceHandle {
            addr: local_addr,
            auth,
            metrics,
            trace,
            anomalies,
            shared,
            accept_thread: Some(accept_thread),
            pool,
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServiceShared>, pool: &Arc<WorkerPool>) {
    for (id, stream) in (0_u64..).zip(listener.incoming()) {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(clone) = stream.try_clone() {
            shared.connections.lock().insert(id, clone);
        }
        let shared = Arc::clone(shared);
        shared.open_connections.fetch_add(1, Ordering::SeqCst);
        pool.spawn(move || {
            serve_connection(&shared, stream);
            shared.connections.lock().remove(&id);
            shared.open_connections.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn serve_connection(shared: &Arc<ServiceShared>, stream: TcpStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(e) => {
                // Oversized frame: tell the client why before hanging up.
                if e.kind() == io::ErrorKind::InvalidData {
                    let resp = Response::Err(e.to_string());
                    let _ = write_frame(&mut writer, &encode_response(&resp));
                }
                return;
            }
        };
        let (response, then_shutdown) = match decode_request(&body) {
            Ok(Request::Shutdown) => (Response::Ok(None), true),
            Ok(req) => (shared.handle_request(req), false),
            Err(e) => (Response::Err(e.to_string()), true),
        };
        let stop_service = then_shutdown && matches!(response, Response::Ok(_));
        if stop_service {
            // Raise the flag before acknowledging: the moment the client
            // reads this Ok it may open a fresh connection, and that
            // connection must already see the service as down.
            shared.shutting_down.store(true, Ordering::SeqCst);
        }
        if write_frame(&mut writer, &encode_response(&response)).is_err() {
            return;
        }
        if then_shutdown {
            if stop_service {
                shared.begin_shutdown();
            }
            return;
        }
    }
}
