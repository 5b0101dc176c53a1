//! Node-to-node session layer: the lease-handoff ring on the real wire.
//!
//! [`PeerNode`] is one member of a moderation ring across OS processes.
//! Each node runs its own [`AspectModerator`] and hands the circulation
//! lease to its successor over the length-prefixed TCP codec
//! ([`crate::codec::encode_peer`]). Unlike the simulator's in-memory
//! channels, the wire drops, delays, duplicates, and dies — so every
//! link runs the recovery state machine from [`amf_core::lease`]:
//! retransmission with capped exponential backoff, expiry-based
//! reclaim, idempotent dedup, and hole-filling releases.
//!
//! Two threads run a node. The worker, the one caller of the moderated
//! `acquire` method, visits leases and hands them on. The I/O thread is
//! one epoll loop over every socket and an eventfd; it alone steps the
//! lease machines, through the I/O-free `NodeCore`, and sleeps until
//! a socket is ready or the machines' next deadline.
//!
//! Degraded mode is woven as an aspect, not scattered through the
//! session code: a `degradation` concern on the `acquire` method
//! observes the node's link state and counts every admission moderated
//! while the peer is unreachable ([`PeerStats::degraded_entries`]). The
//! node keeps serving local lease visits off its own moderator the
//! whole time, and re-syncs the lease cursor when the peer returns
//! (each fresh inbound connection is greeted with an unsolicited
//! cumulative ack).
//!
//! [`FaultProxy`] is the test/bench harness companion: a frame-aware
//! TCP forwarder that drops, duplicates, and delays *grant-plane*
//! frames by a seeded permille, leaving the ack return path intact —
//! the fault model the recovery machine is verified under (see
//! `crates/verify/tests/lease_handoff.rs` and DESIGN.md).

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amf_aspects::audit::{AuditAspect, AuditLog};
use amf_core::lease::Delivery;
use amf_core::{
    AspectModerator, Concern, FairnessPolicy, FnAspect, InvocationContext, LeaseAction,
    LeaseConfig, LeaseIn, LeaseMsg, LeaseOut, MethodHandle, MethodId, PanicPolicy, Verdict,
};
use parking_lot::Mutex;

use crate::codec::{
    decode_peer, decode_peer_wire, encode_hello, encode_peer, read_frame, PeerFrame, PeerWire,
};
use crate::epoll::{self, epoll_add, EpollEvent, EPOLLIN, EPOLLOUT};
use crate::frame::FrameDecoder;

/// Tuning knobs for one ring node.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// This node's ring index.
    pub node: u64,
    /// Address to listen on for the predecessor's frames (port 0 for
    /// ephemeral).
    pub listen: String,
    /// The successor's listen address — possibly a [`FaultProxy`] in
    /// front of it.
    pub next: String,
    /// Leases seeded into this node's inbox at start (node 0 seeds the
    /// ring; others pass 0).
    pub seed_leases: u64,
    /// Visit budget each seeded lease starts with.
    pub visits: u64,
    /// Recovery knobs: expiry deadline, backoff, jitter seed. Expiry
    /// must be nonzero — a live link without recovery deadlocks on the
    /// first lost frame.
    pub lease: LeaseConfig,
    /// Delay between a visit and its handoff, held on the I/O thread's
    /// timer. Zero for full speed; nonzero slows circulation so a
    /// harness can observe (or interfere with) the ring at a known
    /// position.
    pub visit_delay: Duration,
}

impl Default for PeerConfig {
    fn default() -> Self {
        Self {
            node: 0,
            listen: "127.0.0.1:0".into(),
            next: String::new(),
            seed_leases: 0,
            visits: 0,
            lease: LeaseConfig::default(),
            visit_delay: Duration::ZERO,
        }
    }
}

/// Counters one node exports; the union of moderator telemetry and the
/// lease links' recovery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Leases delivered to this node (in-order grants plus reclaims).
    pub delivered: u64,
    /// Leases that retired here (visit budget exhausted).
    pub retired: u64,
    /// Handoffs reclaimed after expiry.
    pub reclaimed: u64,
    /// Frames retransmitted after a backoff deadline.
    pub retransmits: u64,
    /// Duplicate frames dropped idempotently.
    pub dup_dropped: u64,
    /// Grants refused by per-lease hop fencing.
    pub stale_dropped: u64,
    /// Admissions moderated while the node was degraded (peer
    /// unreachable) — counted by the `degradation` aspect.
    pub degraded_entries: u64,
    /// Times the peer came back after a degraded spell.
    pub rejoins: u64,
    /// Whether the node is degraded right now.
    pub degraded_now: bool,
    /// Fast-lane admissions on the telemetry row.
    pub fast_path_admits: u64,
    /// Fast-lane fallbacks on the telemetry row.
    pub fast_path_fallbacks: u64,
    /// Connections dropped because the peer stopped reading and their
    /// unwritten output passed its bound.
    pub stalled_drops: u64,
}

/// One lease riding this node's inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InboxEntry {
    lease: u64,
    hop: u64,
    visits: u64,
}

/// Unwritten bytes one connection may hold before its peer counts as
/// stalled and the connection is dropped.
const OUT_CAP: usize = 64 * 1024;
/// Frames held for a successor not (yet) greeted; the oldest go first,
/// as every one is also pending in `LeaseOut`.
const WIRE_Q_CAP: usize = 4096;
/// Inbound connections kept; a new one past this closes the oldest.
const MAX_INBOUND: usize = 4;
/// Longest wait on a connect to the successor, and the least time
/// between two connect attempts.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(20);

/// The node's I/O-free core: both lease machines, the frames owed to
/// the successor and the handoffs not yet due. It takes frame bodies
/// and a [`Duration`] clock and returns bytes to write and leases to
/// deliver, so tests drive it without sockets.
struct NodeCore {
    node: u64,
    visit_delay: Duration,
    out: LeaseOut,
    inn: LeaseIn,
    wire_q: VecDeque<LeaseMsg>,
    /// Handoffs waiting out the visit delay, in due order.
    deferred: VecDeque<(Duration, InboxEntry)>,
    /// The successor connection's greeting has re-synced the link; set
    /// false on every connect, since frames numbered for the peer's
    /// previous incarnation must not be written before it.
    greeted: bool,
    delivered: u64,
    rejoins: u64,
    stalled_drops: u64,
}

impl NodeCore {
    fn new(cfg: &PeerConfig, incarnation: u64) -> Self {
        NodeCore {
            node: cfg.node,
            visit_delay: cfg.visit_delay,
            out: LeaseOut::new(cfg.lease.clone()),
            inn: LeaseIn::new().with_incarnation(incarnation),
            wire_q: VecDeque::new(),
            deferred: VecDeque::new(),
            greeted: false,
            delivered: 0,
            rejoins: 0,
            stalled_drops: 0,
        }
    }

    /// The greeting for a fresh inbound connection: incarnation id and
    /// cursor, so a returning predecessor re-syncs (and detects a
    /// restart) before sending anything.
    fn hello(&self) -> Vec<u8> {
        encode_hello(self.node, self.inn.incarnation(), self.inn.cursor()).to_vec()
    }

    /// A frame from the predecessor: appends the ack to `reply` and
    /// returns the leases delivered, or `None` for a malformed frame.
    fn on_inbound(&mut self, body: &[u8], reply: &mut Vec<u8>) -> Option<Vec<InboxEntry>> {
        let (deliveries, ack) = match decode_peer(body).ok()?.msg {
            LeaseMsg::Grant {
                seq,
                lease,
                hop,
                visits,
            } => self.inn.on_grant(seq, lease, hop, visits),
            LeaseMsg::Release { seq } => self.inn.on_release(seq),
            // The ack plane is outbound-only; an ack here is a protocol
            // error from a confused peer. Drop it.
            LeaseMsg::Ack { .. } => return Some(Vec::new()),
        };
        let node = self.node;
        reply.extend_from_slice(&encode_peer(&PeerFrame { node, msg: ack }));
        self.delivered += deliveries.len() as u64;
        let entry = |Delivery {
                         lease, hop, visits, ..
                     }| InboxEntry { lease, hop, visits };
        Some(deliveries.into_iter().map(entry).collect())
    }

    /// A frame from the successor: its connection greeting or an ack.
    fn on_successor(&mut self, body: &[u8], now: Duration) {
        let rejoined = match decode_peer_wire(body) {
            // A rebase means the peer restarted from scratch: frames
            // queued under the old numbering are garbage, replaced by
            // the renumbered resend set. Only this thread numbers
            // grants, so none can interleave with the swap.
            Ok(PeerWire::Hello {
                incarnation,
                cursor,
                ..
            }) => {
                let resync = self.out.on_greeting(incarnation, cursor, now);
                if resync.rebased {
                    self.wire_q = resync.resend.into();
                }
                self.greeted = true;
                resync.rejoined
            }
            Ok(PeerWire::Frame(PeerFrame {
                msg: LeaseMsg::Ack { seq, cursor },
                ..
            })) => self.out.on_ack(seq, cursor, now),
            _ => false,
        };
        self.rejoins += u64::from(rejoined);
    }

    /// A visited lease to hand on once the visit delay has passed.
    fn on_handoff(&mut self, entry: InboxEntry, now: Duration) {
        self.deferred.push_back((now + self.visit_delay, entry));
    }

    /// Drives the timers: numbers due handoffs, queues retransmits, and
    /// returns the leases reclaimed after expiry. Like
    /// [`LeaseOut::poll`], call it only after feeding every readable ack.
    fn on_timer(&mut self, now: Duration) -> Vec<InboxEntry> {
        while let Some(&(_, e)) = self.deferred.front().filter(|(due, _)| *due <= now) {
            self.deferred.pop_front();
            let msg = self.out.grant(e.lease, e.hop, e.visits, now);
            self.queue(msg);
        }
        let mut reclaimed = Vec::new();
        for action in self.out.poll(now) {
            match action {
                LeaseAction::Send(msg) => self.queue(msg),
                LeaseAction::Reclaim { lease, hop, visits } => {
                    // The lease is ours again: fence its hop so a late
                    // stale re-delivery can never double-grant.
                    self.inn.fence(lease, hop);
                    self.delivered += 1;
                    reclaimed.push(InboxEntry { lease, hop, visits });
                }
            }
        }
        reclaimed
    }

    fn queue(&mut self, msg: LeaseMsg) {
        if self.wire_q.len() == WIRE_Q_CAP {
            self.wire_q.pop_front();
        }
        self.wire_q.push_back(msg);
    }

    /// Earliest instant at which [`Self::on_timer`] has work.
    fn next_wake(&self) -> Option<Duration> {
        let due = self.deferred.front().map(|&(due, _)| due);
        due.into_iter().chain(self.out.next_deadline()).min()
    }

    /// Encodes the queued frames onto `out` once the link is greeted.
    fn take_frames(&mut self, out: &mut Vec<u8>) {
        let node = self.node;
        if self.greeted {
            for msg in self.wire_q.drain(..) {
                out.extend_from_slice(&encode_peer(&PeerFrame { node, msg }));
            }
        }
    }
}

struct PeerShared {
    /// The successor's address; empty means "not wired yet" (the ring
    /// builder binds every listener before wiring the links).
    next: Mutex<String>,
    /// Stepped by the I/O thread; the worker only queues handoffs and
    /// [`PeerNode::stats`] only reads.
    core: Mutex<NodeCore>,
    /// Epoch of the core's clock.
    start: Instant,
    /// Eventfd that interrupts the I/O thread's wait.
    wake: File,
    inbox: Mutex<VecDeque<InboxEntry>>,
    degraded: AtomicBool,
    degraded_entries: AtomicU64,
    retired: Mutex<Vec<u64>>,
    stop: AtomicBool,
}

/// Handle on a running ring node. Dropping it shuts the node down.
pub struct PeerNode {
    addr: SocketAddr,
    shared: Arc<PeerShared>,
    moderator: Arc<AspectModerator>,
    grant: MethodHandle,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PeerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerNode")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl PeerNode {
    /// Binds the listener, composes the node's moderator, seeds the
    /// inbox, and starts the I/O and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind errors. A `lease.expiry` of zero is refused: a
    /// live link without recovery deadlocks on the first lost frame.
    /// Seeding leases with a zero visit budget is refused too — such a
    /// lease could never be visited.
    pub fn spawn(cfg: PeerConfig) -> io::Result<Self> {
        let invalid = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if !cfg.lease.recovery_enabled() {
            return invalid("live peer links require a nonzero lease expiry");
        }
        if cfg.seed_leases > 0 && cfg.visits == 0 {
            return invalid("seeded leases need a nonzero visit budget");
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (ep, wake) = (epoll::create()?, epoll::event_fd()?);
        epoll_add(ep.as_raw_fd(), listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)?;
        epoll_add(ep.as_raw_fd(), wake.as_raw_fd(), EPOLLIN, TOK_WAKE)?;

        let moderator = Arc::new(
            AspectModerator::builder()
                .fairness(FairnessPolicy::Fifo)
                .panic_policy(PanicPolicy::AbortInvocation)
                .build(),
        );
        let acquire = moderator.declare_method(MethodId::new("acquire"));
        let grant = moderator.declare_method(MethodId::new("grant"));
        let observe = moderator.declare_method(MethodId::new("observe"));

        // Fresh per process start (and unique across `kill -9` restarts
        // on one host): wall-clock nanos folded with the pid. Senders
        // compare successive greetings, so only inequality across
        // restarts matters, not global uniqueness.
        let incarnation = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            ^ (u64::from(std::process::id()) << 32);
        // Seed the ring (node 0 in the standard layout).
        let (hop, visits) = (0, cfg.visits);
        let inbox = (0..cfg.seed_leases)
            .map(|lease| InboxEntry { lease, hop, visits })
            .collect();
        let shared = Arc::new(PeerShared {
            next: Mutex::new(cfg.next.clone()),
            core: Mutex::new(NodeCore::new(&cfg, incarnation)),
            start: Instant::now(),
            wake,
            inbox: Mutex::new(inbox),
            degraded: AtomicBool::new(false),
            degraded_entries: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });

        // Synchronization concern: `acquire` admits only when the inbox
        // holds a lease — or the node is stopping, so the worker wakes
        // to see the flag.
        let s = Arc::clone(&shared);
        let gate = FnAspect::new("lease-gate").on_precondition(move |_| {
            if s.inbox.lock().is_empty() && !s.stop.load(Ordering::SeqCst) {
                Verdict::Block
            } else {
                Verdict::Resume
            }
        });
        let sync = Concern::synchronization();
        moderator
            .register(&acquire, sync, Box::new(gate))
            .expect("register lease-gate");
        // Fault-tolerance as a crosscutting concern: degraded-mode
        // accounting is an aspect on the same method, not session code.
        // Every admission moderated while the successor link is down is
        // a degraded entry.
        let s = Arc::clone(&shared);
        let degradation = FnAspect::new("degraded-entries").on_postaction(move |_| {
            if s.degraded.load(Ordering::SeqCst) {
                s.degraded_entries.fetch_add(1, Ordering::SeqCst);
            }
        });
        let concern = Concern::new("degradation");
        moderator
            .register(&acquire, concern, Box::new(degradation))
            .expect("register degraded-entries");
        let handoff = Box::new(FnAspect::new("handoff"));
        moderator
            .register(&grant, Concern::new("handoff"), handoff)
            .expect("register handoff");
        let telemetry = Box::new(AuditAspect::new(AuditLog::shared()));
        moderator
            .register(&observe, Concern::new("telemetry"), telemetry)
            .expect("register telemetry");
        moderator.wire_wakes(&grant, std::slice::from_ref(&acquire));
        moderator.wire_wakes(&acquire, &[]);
        moderator.wire_wakes(&observe, &[]);

        let node = cfg.node;
        let io = IoLoop {
            ep,
            listener,
            shared: Arc::clone(&shared),
            moderator: Arc::clone(&moderator),
            grant: grant.clone(),
            links: BTreeMap::new(),
            next_token: FIRST_INBOUND_TOKEN,
            retry_at: Duration::ZERO,
            accept_paused: false,
        };
        let (s, m) = (Arc::clone(&shared), Arc::clone(&moderator));
        let threads = vec![
            std::thread::Builder::new()
                .name(format!("peer{node}-io"))
                .spawn(move || io.run())?,
            std::thread::Builder::new()
                .name(format!("peer{node}-worker"))
                .spawn(move || worker_loop(&s, &m, &acquire, &observe))?,
        ];
        Ok(PeerNode {
            addr,
            shared,
            moderator,
            grant,
            threads,
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// (Re)points the successor link. An empty [`PeerConfig::next`]
    /// plus a later `set_next` lets a ring builder bind every listener
    /// before wiring any link.
    pub fn set_next(&self, addr: &str) {
        *self.shared.next.lock() = addr.to_string();
        epoll::signal(&self.shared.wake);
    }

    /// Snapshot of the node's counters.
    pub fn stats(&self) -> PeerStats {
        let m = self.moderator.stats();
        let core = self.shared.core.lock();
        PeerStats {
            delivered: core.delivered,
            retired: self.shared.retired.lock().len() as u64,
            reclaimed: core.out.stats().reclaimed,
            retransmits: core.out.stats().retransmits,
            dup_dropped: core.inn.stats().dup_dropped,
            stale_dropped: core.inn.stats().stale_dropped,
            degraded_entries: self.shared.degraded_entries.load(Ordering::SeqCst),
            rejoins: core.rejoins,
            degraded_now: core.out.degraded(),
            fast_path_admits: m.fast_path_admits,
            fast_path_fallbacks: m.fast_path_fallbacks,
            stalled_drops: core.stalled_drops,
        }
    }

    /// The leases that retired at this node, in retirement order.
    pub fn retired(&self) -> Vec<u64> {
        self.shared.retired.lock().clone()
    }

    /// First-send → ack-complete latencies of grants acknowledged by
    /// the successor — the handoff recovery-time distribution. A
    /// retransmitted grant shows up as a sample near the backoff
    /// deadline; a reclaimed one never appears here at all.
    pub fn ack_latencies(&self) -> Vec<Duration> {
        let core = self.shared.core.lock();
        core.out.ack_latencies().iter().copied().collect()
    }

    /// Stops both threads and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        epoll::signal(&self.shared.wake);
        // The lease gate admits once `stop` is set; a grant wakes the
        // worker to see it.
        invoke_ok(&self.moderator, &self.grant);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PeerNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
const TOK_NEXT: u64 = 2;
const FIRST_INBOUND_TOKEN: u64 = 3;

/// One nonblocking connection: frame decoder plus unwritten output.
struct Link {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    /// Whether EPOLLOUT is armed.
    want_write: bool,
}

impl Link {
    fn new(stream: TcpStream, ep: i32, token: u64) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        epoll_add(ep, stream.as_raw_fd(), EPOLLIN, token)?;
        let (dec, out) = (FrameDecoder::new(), Vec::new());
        Ok(Link {
            stream,
            dec,
            out,
            want_write: false,
        })
    }

    /// Reads all available frame bodies; false once the peer is gone
    /// (EOF, an error or an oversized frame) — bodies read before that
    /// still count.
    fn read(&mut self, bodies: &mut Vec<Vec<u8>>) -> bool {
        let mut scratch = [0u8; 4096];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return false,
                Ok(n) => {
                    if self.dec.feed(&scratch[..n]).is_err() {
                        return false;
                    }
                    bodies.extend(std::iter::from_fn(|| self.dec.next_frame()));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return e.kind() == io::ErrorKind::WouldBlock,
            }
        }
    }

    /// Writes what the socket takes and arms EPOLLOUT while bytes
    /// remain; false once the peer is gone.
    fn flush(&mut self, ep: i32, token: u64) -> bool {
        let mut done = 0;
        while done < self.out.len() {
            match self.stream.write(&self.out[done..]) {
                Ok(n) if n > 0 => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                _ => return false,
            }
        }
        self.out.drain(..done);
        if self.want_write == self.out.is_empty() {
            self.want_write = !self.want_write;
            let bits = EPOLLIN | if self.want_write { EPOLLOUT } else { 0 };
            epoll::epoll_mod(ep, self.stream.as_raw_fd(), bits, token);
        }
        true
    }
}

/// The I/O thread: one epoll loop that owns every socket of the node.
struct IoLoop {
    ep: OwnedFd,
    listener: TcpListener,
    shared: Arc<PeerShared>,
    moderator: Arc<AspectModerator>,
    grant: MethodHandle,
    /// Connections by token: the successor at `TOK_NEXT`, inbound ones
    /// above it, oldest first.
    links: BTreeMap<u64, Link>,
    next_token: u64,
    /// Earliest next connect attempt: [`CONNECT_TIMEOUT`] after the last
    /// one, so a successor that accepts and closes at once is not
    /// redialled in a tight loop.
    retry_at: Duration,
    /// The listener is unwatched after `accept` ran out of fds; the next
    /// close re-arms it.
    accept_paused: bool,
}

impl IoLoop {
    fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 16];
        while !self.shared.stop.load(Ordering::SeqCst) {
            let Ok(n) = epoll::wait(&self.ep, &mut events, self.timeout_ms()) else {
                break;
            };
            for ev in &events[..n] {
                match ev.data {
                    TOK_LISTENER => self.accept(),
                    TOK_WAKE => epoll::clear(&self.shared.wake),
                    token => self.service(token, true),
                }
            }
            self.step();
        }
    }

    /// Milliseconds to the next deadline, rounded up; -1 when nothing
    /// is timed.
    fn timeout_ms(&self) -> i32 {
        let mut wake = self.shared.core.lock().next_wake();
        if !self.links.contains_key(&TOK_NEXT) && !self.shared.next.lock().is_empty() {
            wake = Some(wake.map_or(self.retry_at, |w| w.min(self.retry_at)));
        }
        wake.map_or(-1, |at| {
            let ns = at.saturating_sub(self.shared.start.elapsed()).as_nanos();
            ns.div_ceil(1_000_000).min(i32::MAX as u128) as i32
        })
    }

    /// After every wait: (re)connect, drive the timers, and write what
    /// is owed to the successor.
    fn step(&mut self) {
        let now = self.shared.start.elapsed();
        self.connect(now);
        // Reclaim soundness: drain every readable ack before a deadline
        // is acted on.
        let due = self.shared.core.lock().next_wake();
        if due.is_some_and(|at| at <= now) {
            self.service(TOK_NEXT, true);
        }
        let reclaimed = {
            let mut core = self.shared.core.lock();
            let reclaimed = core.on_timer(now);
            let degraded = core.out.degraded();
            self.shared.degraded.store(degraded, Ordering::SeqCst);
            reclaimed
        };
        self.deliver(reclaimed);
        self.service(TOK_NEXT, false);
    }

    fn connect(&mut self, now: Duration) {
        if self.links.contains_key(&TOK_NEXT) || now < self.retry_at {
            return;
        }
        let target = self.shared.next.lock().clone();
        if target.is_empty() {
            return;
        }
        self.retry_at = now + CONNECT_TIMEOUT;
        // A failed connect leaves the link down; the timers keep running
        // (that is where reclaim and degradation come from).
        let link = target
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .and_then(|addr| TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok())
            .and_then(|stream| Link::new(stream, self.ep.as_raw_fd(), TOK_NEXT).ok());
        if let Some(link) = link {
            self.shared.core.lock().greeted = false;
            self.links.insert(TOK_NEXT, link);
        }
    }

    fn accept(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if epoll::out_of_fds(&e) {
                        let fd = self.listener.as_raw_fd();
                        epoll::epoll_mod(self.ep.as_raw_fd(), fd, 0, TOK_LISTENER);
                        self.accept_paused = true;
                    }
                    return;
                }
            };
            let token = self.next_token;
            self.next_token += 1;
            let Ok(mut link) = Link::new(stream, self.ep.as_raw_fd(), token) else {
                continue;
            };
            link.out = self.shared.core.lock().hello();
            self.links.insert(token, link);
            let inbound = self.links.range(FIRST_INBOUND_TOKEN..);
            if let Some((&oldest, _)) = inbound.rev().nth(MAX_INBOUND) {
                self.close(oldest, false);
            }
            self.service(token, false);
        }
    }

    /// Feeds a connection's frames (if `read`) to the core, then writes
    /// what the core owes it.
    fn service(&mut self, token: u64, read: bool) {
        let Some(link) = self.links.get_mut(&token) else {
            return;
        };
        let mut bodies = Vec::new();
        let mut open = !read || link.read(&mut bodies);
        let (mut arrivals, now) = (Vec::new(), self.shared.start.elapsed());
        let mut core = self.shared.core.lock();
        for body in &bodies {
            if token == TOK_NEXT {
                core.on_successor(body, now);
            } else if let Some(leases) = core.on_inbound(body, &mut link.out) {
                arrivals.extend(leases);
            } else {
                open = false;
                break;
            }
        }
        if token == TOK_NEXT {
            core.take_frames(&mut link.out);
        }
        drop(core);
        let open = open && link.flush(self.ep.as_raw_fd(), token);
        // A peer whose backlog passed the bound stopped reading. Frames
        // lost with a successor connection stay pending in LeaseOut and
        // retransmit on the next one.
        let stalled = link.out.len() > OUT_CAP;
        if !open || stalled {
            self.close(token, stalled);
        }
        self.deliver(arrivals);
    }

    fn close(&mut self, token: u64, stalled: bool) {
        if let Some(link) = self.links.remove(&token) {
            epoll::epoll_del(self.ep.as_raw_fd(), link.stream.as_raw_fd());
            self.shared.core.lock().stalled_drops += u64::from(stalled);
            drop(link); // frees the fd before the listener is re-armed
            if std::mem::take(&mut self.accept_paused) {
                let fd = self.listener.as_raw_fd();
                epoll::epoll_mod(self.ep.as_raw_fd(), fd, EPOLLIN, TOK_LISTENER);
            }
        }
    }

    /// Hands arrived or reclaimed leases to the local moderator.
    fn deliver(&self, leases: Vec<InboxEntry>) {
        for entry in leases {
            self.shared.inbox.lock().push_back(entry);
            invoke_ok(&self.moderator, &self.grant);
        }
    }
}

fn worker_loop(
    s: &Arc<PeerShared>,
    m: &Arc<AspectModerator>,
    acquire: &MethodHandle,
    observe: &MethodHandle,
) {
    while !s.stop.load(Ordering::SeqCst) {
        let mut ctx = InvocationContext::new(acquire.id().clone(), m.next_invocation());
        if m.preactivation(acquire, &mut ctx).is_err() {
            continue;
        }
        let entry = s.inbox.lock().pop_front();
        m.postactivation(acquire, &mut ctx);
        let Some(InboxEntry { lease, hop, visits }) = entry else {
            continue;
        };
        invoke_ok(m, observe);
        if visits <= 1 {
            s.retired.lock().push(lease);
            continue;
        }
        // Hand the lease to the I/O thread, which numbers the grant.
        let (hop, visits) = (hop + 1, visits - 1);
        let now = s.start.elapsed();
        s.core
            .lock()
            .on_handoff(InboxEntry { lease, hop, visits }, now);
        epoll::signal(&s.wake);
    }
}

fn invoke_ok(m: &AspectModerator, h: &MethodHandle) {
    let mut ctx = InvocationContext::new(h.id().clone(), m.next_invocation());
    m.preactivation(h, &mut ctx).expect("peer rows never abort");
    m.postactivation(h, &mut ctx);
}

/// Per-frame decision drawn by the fault proxy: a pure function of
/// `(seed, index)` so every run at a pinned seed injects the same
/// faults.
fn fault_draw(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Knobs for a [`FaultProxy`].
#[derive(Debug, Clone)]
pub struct FaultProxyConfig {
    /// Address to listen on (port 0 for ephemeral).
    pub listen: String,
    /// Where real frames go.
    pub target: String,
    /// Per-frame drop probability, in permille, on the forward (grant)
    /// plane.
    pub drop_permille: u64,
    /// Per-frame duplication probability, in permille.
    pub dup_permille: u64,
    /// Upper bound on a seeded per-frame forwarding delay.
    pub max_delay: Duration,
    /// Decision seed.
    pub seed: u64,
}

impl Default for FaultProxyConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            target: String::new(),
            drop_permille: 0,
            dup_permille: 0,
            max_delay: Duration::ZERO,
            seed: 42,
        }
    }
}

/// Counters a [`FaultProxy`] keeps about its mischief.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultProxyStats {
    /// Frames forwarded unharmed.
    pub forwarded: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames forwarded twice.
    pub duplicated: u64,
}

struct ProxyShared {
    cfg: FaultProxyConfig,
    index: AtomicU64,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    stop: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

/// A frame-aware unreliable link: forwards client→target frames with
/// seeded drop/duplicate/delay faults, and copies the target→client
/// byte stream verbatim (acks survive — the declared fault model).
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl FaultProxy {
    /// Binds the proxy and starts forwarding.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(cfg: FaultProxyConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            cfg,
            index: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fault-proxy-accept".into())
                .spawn(move || proxy_accept(&listener, &shared))?
        };
        Ok(FaultProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the proxy has done so far.
    pub fn stats(&self) -> FaultProxyStats {
        FaultProxyStats {
            forwarded: self.shared.forwarded.load(Ordering::SeqCst),
            dropped: self.shared.dropped.load(Ordering::SeqCst),
            duplicated: self.shared.duplicated.load(Ordering::SeqCst),
        }
    }

    /// Stops forwarding and joins the proxy threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in self.shared.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn proxy_accept(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = stream else { continue };
        let Ok(target) = TcpStream::connect(&shared.cfg.target) else {
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = target.set_nodelay(true);
        for c in [&client, &target] {
            if let Ok(clone) = c.try_clone() {
                shared.conns.lock().push(clone);
            }
        }
        // Forward plane: client → target, frame-aware, faults applied.
        {
            let shared = Arc::clone(shared);
            let (mut from, mut to) = match (client.try_clone(), target.try_clone()) {
                (Ok(f), Ok(t)) => (f, t),
                _ => continue,
            };
            let _ = std::thread::Builder::new()
                .name("fault-proxy-fwd".into())
                .spawn(move || {
                    while !shared.stop.load(Ordering::SeqCst) {
                        let body = match read_frame(&mut from) {
                            Ok(Some(b)) => b,
                            Ok(None) | Err(_) => break,
                        };
                        let i = shared.index.fetch_add(1, Ordering::SeqCst);
                        let draw = fault_draw(shared.cfg.seed, i);
                        if draw % 1000 < shared.cfg.drop_permille {
                            shared.dropped.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        let delay_ns = shared.cfg.max_delay.as_nanos() as u64;
                        if delay_ns > 0 {
                            std::thread::sleep(Duration::from_nanos(
                                fault_draw(shared.cfg.seed ^ 0xDE1A, i) % (delay_ns + 1),
                            ));
                        }
                        let mut framed = Vec::with_capacity(4 + body.len());
                        framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
                        framed.extend_from_slice(&body);
                        let copies = if (draw >> 32) % 1000 < shared.cfg.dup_permille {
                            2
                        } else {
                            1
                        };
                        if copies == 2 {
                            shared.duplicated.fetch_add(1, Ordering::SeqCst);
                        }
                        let mut dead = false;
                        for _ in 0..copies {
                            if to.write_all(&framed).is_err() {
                                dead = true;
                                break;
                            }
                        }
                        if dead || to.flush().is_err() {
                            break;
                        }
                        shared.forwarded.fetch_add(1, Ordering::SeqCst);
                    }
                });
        }
        // Return plane: target → client, verbatim copy.
        {
            let shared = Arc::clone(shared);
            let (mut from, mut to) = (target, client);
            let _ = std::thread::Builder::new()
                .name("fault-proxy-ret".into())
                .spawn(move || {
                    let mut buf = [0u8; 4096];
                    while !shared.stop.load(Ordering::SeqCst) {
                        match from.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(node: u64, visit_delay: Duration) -> PeerConfig {
        PeerConfig {
            node,
            lease: LeaseConfig {
                expiry: Duration::from_millis(100),
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(40),
                jitter_seed: 7,
            },
            visit_delay,
            ..PeerConfig::default()
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Splits a byte stream into frame bodies, as a connection would.
    fn bodies(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut dec = FrameDecoder::new();
        dec.feed(bytes).expect("well-formed stream");
        std::iter::from_fn(|| dec.next_frame()).collect()
    }

    const LEASE: InboxEntry = InboxEntry {
        lease: 5,
        hop: 1,
        visits: 3,
    };

    #[test]
    fn core_hands_a_lease_across_a_link_in_bytes() {
        let (mut a, mut b) = (
            NodeCore::new(&cfg(0, ms(0)), 1),
            NodeCore::new(&cfg(1, ms(0)), 2),
        );
        a.on_handoff(LEASE, ms(0));
        assert!(a.on_timer(ms(0)).is_empty());
        let mut wire = Vec::new();
        a.take_frames(&mut wire);
        assert!(wire.is_empty(), "nothing is written before the greeting");
        for body in bodies(&b.hello()) {
            a.on_successor(&body, ms(1));
        }
        a.take_frames(&mut wire);
        let mut reply = Vec::new();
        let mut arrived = Vec::new();
        for body in bodies(&wire) {
            arrived.extend(b.on_inbound(&body, &mut reply).expect("valid frame"));
        }
        assert_eq!(arrived, vec![LEASE]);
        for body in bodies(&reply) {
            a.on_successor(&body, ms(3));
        }
        assert_eq!(
            a.out.ack_latencies().iter().copied().collect::<Vec<_>>(),
            vec![ms(3)]
        );
        assert_eq!((a.out.in_flight(), b.delivered), (0, 1));
        assert_eq!(a.next_wake(), None, "an acked link has no timers");
    }

    #[test]
    fn core_reclaims_on_its_own_clock() {
        let mut a = NodeCore::new(&cfg(0, ms(0)), 1);
        a.on_handoff(LEASE, ms(0));
        a.on_timer(ms(0));
        let retry = a.next_wake().expect("a pending grant is timed");
        assert!(retry >= ms(10) && retry < ms(100), "{retry:?}");
        assert!(a.on_timer(ms(99)).is_empty(), "retransmits only");
        let hop = LEASE.hop + 1;
        assert_eq!(a.on_timer(ms(100)), vec![InboxEntry { hop, ..LEASE }]);
        assert!(a.out.degraded());
        assert_eq!(a.delivered, 1, "a reclaim is a delivery");
        // The fence refuses the stale grant should it still arrive.
        let stale = LeaseMsg::Grant {
            seq: 0,
            lease: LEASE.lease,
            hop,
            visits: 2,
        };
        let mut reply = Vec::new();
        let frame = encode_peer(&PeerFrame {
            node: 1,
            msg: stale,
        });
        assert_eq!(a.on_inbound(&frame[4..], &mut reply), Some(Vec::new()));
        assert_eq!(a.inn.stats().stale_dropped, 1);
    }

    #[test]
    fn core_holds_a_handoff_for_the_visit_delay() {
        let mut a = NodeCore::new(&cfg(0, ms(50)), 1);
        a.on_handoff(LEASE, ms(10));
        assert_eq!(a.next_wake(), Some(ms(60)));
        a.on_timer(ms(59));
        assert_eq!(a.out.in_flight(), 0, "not numbered before it is due");
        a.on_timer(ms(60));
        assert_eq!(a.out.in_flight(), 1);
    }

    #[test]
    fn core_rebase_replaces_every_frame_queued_under_old_numbering() {
        let mut a = NodeCore::new(&cfg(0, ms(0)), 1);
        let greet = |a: &mut NodeCore, incarnation: u64, now: Duration| {
            a.greeted = false;
            let hello = encode_hello(1, incarnation, 0);
            a.on_successor(&hello[4..], now);
        };
        greet(&mut a, 100, ms(0));
        for lease in [7, 8] {
            a.on_handoff(InboxEntry { lease, ..LEASE }, ms(0));
        }
        a.on_timer(ms(0));
        a.take_frames(&mut Vec::new());
        // The connection drops; a retransmit queues under the old
        // numbering, then a restarted successor greets.
        a.on_timer(ms(60));
        assert!(!a.wire_q.is_empty());
        greet(&mut a, 200, ms(61));
        let mut wire = Vec::new();
        a.take_frames(&mut wire);
        let grants: Vec<(u64, u64)> = bodies(&wire)
            .iter()
            .map(|b| match decode_peer(b).expect("frame").msg {
                LeaseMsg::Grant { seq, lease, .. } => (seq, lease),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            grants,
            vec![(0, 7), (1, 8)],
            "exactly the renumbered resend set"
        );
    }

    #[test]
    fn core_rejects_a_malformed_inbound_frame() {
        let mut a = NodeCore::new(&cfg(0, ms(0)), 1);
        assert_eq!(a.on_inbound(&[0xFF, 1, 2], &mut Vec::new()), None);
    }
}
