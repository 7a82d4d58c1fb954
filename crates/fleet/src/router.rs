//! The fleet front router: a thin nonblocking proxy over the replica
//! set.
//!
//! One event-loop thread multiplexes every client connection and every
//! backend connection as nonblocking state machines with resumable
//! [`LineReader`] framing, waiting on the serve core's [`Reactor`] like
//! its poller shards: a wake services only the sockets reported ready,
//! and the prober and [`Router::request_shutdown`] ring its waker.
//! Request lines are *forwarded verbatim*
//! (replies too), so the fleet preserves the serve core's bit-identity
//! guarantee: the router adds routing, never re-serialization. Each
//! request is classified by the replicas' own decoder,
//! [`hmdiv_serve::protocol::parse_request`], so the router and a replica
//! always agree on a line's verb and `id` — escapes included.
//!
//! Routing:
//!
//! * **stateless verbs** (`evaluate`, `scenarios`, `ping`, …, anything
//!   unrecognized, and lines the decoder rejects — the replica then
//!   writes the authoritative error reply) hash the client connection
//!   onto the consistent ring and follow it to the first *healthy*
//!   backend;
//! * **registry-mutating verbs** (`load`, `load_cohort`, `save`,
//!   `restore`) broadcast to every healthy backend so replicas stay
//!   converged; the reply is the lowest-indexed backend's success (or
//!   its error when none succeeded). When the legs disagree, every
//!   failed leg's backend is ejected, so a replica that missed the write
//!   serves again only after the probe-and-sync re-admission;
//! * **`metrics`** is answered by the router itself with the fleet
//!   topology — per-backend health, ejection counts, and the
//!   router-side Prometheus exposition;
//! * **`shutdown`** broadcasts to the replicas *and* latches the
//!   router's own drain signal.
//!
//! Failover: when a backend's connection dies (or the prober ejects
//! it), every in-flight request owed to it is answered with the typed
//! `backend_unavailable` wire error — the client knows exactly which
//! requests are in doubt — and subsequent requests re-hash to the
//! survivors. A separate prober thread pings each backend on a fixed
//! cadence, ejects after consecutive failures, and re-admits a
//! recovered backend only after its registry is synced from a healthy
//! peer ([`crate::sync::reconcile`]).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hmdiv_serve::json::{self, Json};
use hmdiv_serve::protocol::{self, err_line, LineEvent, LineReader};
use hmdiv_serve::reactor::{write_buffered, Interest, Reactor, Token, Waker};
use hmdiv_serve::shutdown::ShutdownSignal;
use hmdiv_serve::{Client, ServeError};

use crate::health::{FleetState, HealthPolicy, ProbeVerdict};
use crate::ring::{mix64, HashRing};
use crate::sync;

/// Verbs that must reach every healthy replica to keep their registries
/// converged.
const BROADCAST_VERBS: [&str; 4] = ["load", "load_cohort", "save", "restore"];

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Replica backend addresses, in ring-index order.
    pub backends: Vec<SocketAddr>,
    /// Ring points per backend.
    pub vnodes: usize,
    /// Per-line size limit (mirrors the replicas' limit).
    pub max_line_bytes: usize,
    /// Cadence of the health prober.
    pub probe_interval: Duration,
    /// Per-probe connect/read deadline.
    pub probe_timeout: Duration,
    /// Consecutive failures that eject a backend.
    pub eject_after: u32,
    /// Consecutive successful probes that qualify an ejected backend
    /// for re-admission (after a registry sync).
    pub readmit_after: u32,
    /// Deadline for lazily opening a backend connection.
    pub connect_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            vnodes: 64,
            max_line_bytes: 1 << 20,
            probe_interval: Duration::from_millis(150),
            probe_timeout: Duration::from_millis(1000),
            eject_after: 3,
            readmit_after: 2,
            connect_timeout: Duration::from_millis(250),
        }
    }
}

/// One reply owed to a client, in request order.
enum Pending {
    /// The reply line is ready to flush.
    Done(String),
    /// Waiting on one backend reply.
    Await {
        token: u64,
        /// The request id, for synthesizing a failover error.
        id: Json,
    },
    /// Waiting on every healthy backend (registry-mutating verbs).
    Broadcast {
        /// The request id, for synthesizing a failover error.
        id: Json,
        slots: Vec<BroadcastSlot>,
    },
}

/// One backend's leg of a broadcast.
struct BroadcastSlot {
    backend: usize,
    token: u64,
    reply: Option<String>,
}

/// One client connection's state machine.
struct ClientConn {
    stream: TcpStream,
    /// The interest last given to the reactor.
    registered: Interest,
    reader: LineReader,
    out: Vec<u8>,
    cursor: usize,
    pending: VecDeque<Pending>,
    /// Consistent-hash key: all of this connection's stateless requests
    /// follow it to the same backend while that backend stays healthy.
    ring_key: u64,
    /// Client sent EOF; close once the pending replies flush.
    half_closed: bool,
    dead: bool,
}

/// One backend connection's state machine.
struct BackendConn {
    stream: TcpStream,
    /// The interest last given to the reactor.
    registered: Interest,
    reader: LineReader,
    out: Vec<u8>,
    cursor: usize,
    /// Tokens for requests written to this backend, each with the client
    /// slot it answers, in reply order (the serve core answers each
    /// connection strictly in request order).
    inflight: VecDeque<(u64, usize)>,
}

/// The running router.
#[derive(Debug)]
pub struct Router {
    addr: SocketAddr,
    signal: Arc<ShutdownSignal>,
    fleet: Arc<FleetState>,
    event_thread: Option<std::thread::JoinHandle<()>>,
    probe_thread: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Binds the listen socket and starts the event loop and prober.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when no backends are configured;
    /// [`ServeError::Io`] when the listen socket cannot bind.
    pub fn start(config: RouterConfig) -> Result<Router, ServeError> {
        if config.backends.is_empty() {
            return Err(ServeError::BadRequest {
                detail: "router needs at least one backend".to_owned(),
            });
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut reactor = Reactor::new()?;
        reactor.register(&listener, LISTENER, Interest::READ)?;
        let waker = reactor.waker();
        let signal = Arc::new(ShutdownSignal::new());
        signal.wake_on_request(waker.clone());
        let fleet = Arc::new(FleetState::new(
            &config.backends,
            HealthPolicy {
                eject_after: config.eject_after,
                readmit_after: config.readmit_after,
            },
        ));
        let ring = HashRing::new(config.backends.len(), config.vnodes);
        let event_thread = {
            let signal = Arc::clone(&signal);
            let fleet = Arc::clone(&fleet);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fleet-router".to_owned())
                .spawn(move || EventLoop::new(listener, reactor, config, ring, fleet, signal).run())
                .map_err(|e| ServeError::Io {
                    detail: format!("spawning router event loop: {e}"),
                })?
        };
        let probe_thread = {
            let signal = Arc::clone(&signal);
            let fleet = Arc::clone(&fleet);
            let config = config.clone();
            std::thread::Builder::new()
                .name("fleet-prober".to_owned())
                .spawn(move || probe_loop(&config, &fleet, &signal, &waker))
                .map_err(|e| ServeError::Io {
                    detail: format!("spawning router prober: {e}"),
                })?
        };
        Ok(Router {
            addr,
            signal,
            fleet,
            event_thread: Some(event_thread),
            probe_thread: Some(probe_thread),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fleet health view (for tests and reporting).
    #[must_use]
    pub fn fleet(&self) -> &FleetState {
        &self.fleet
    }

    /// Requests drain-and-stop without blocking.
    pub fn request_shutdown(&self) {
        self.signal.request();
    }

    /// Blocks until the router has drained and stopped.
    pub fn join(mut self) {
        self.join_threads();
    }

    /// [`Router::request_shutdown`] then [`Router::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }

    fn join_threads(&mut self) {
        for handle in [self.event_thread.take(), self.probe_thread.take()]
            .into_iter()
            .flatten()
        {
            drop(handle.join());
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.signal.request();
        self.join_threads();
    }
}

/// Synthesizes the typed failover error reply for a lost request.
fn unavailable_line(id: &Json, backend: SocketAddr) -> String {
    err_line(
        id,
        None,
        &ServeError::BackendUnavailable {
            backend: backend.to_string(),
        },
    )
}

/// The listener's readiness token. Backend `b` waits under `1 + b` and
/// client slot `c` under `1 + backends + c`.
const LISTENER: Token = 0;

/// How long the listener leaves the wait set after a failed accept (e.g.
/// out of file descriptors): the connection stays queued and the
/// listener readable, so waiting on it would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(20);

/// The router's single-threaded event loop.
struct EventLoop {
    listener: TcpListener,
    /// The listener's interest: read, except after a failed accept and
    /// once the drain starts.
    listening: Interest,
    reactor: Reactor,
    waker: Waker,
    config: RouterConfig,
    ring: HashRing,
    fleet: Arc<FleetState>,
    signal: Arc<ShutdownSignal>,
    clients: Vec<Option<ClientConn>>,
    /// Empty client slots, reused before the table grows.
    free_clients: Vec<usize>,
    backends: Vec<Option<BackendConn>>,
    next_token: u64,
    /// Connections touched during this wake whose writes, replies and
    /// interest are settled before the next wait.
    dirty_clients: Vec<usize>,
    dirty_backends: Vec<usize>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        reactor: Reactor,
        config: RouterConfig,
        ring: HashRing,
        fleet: Arc<FleetState>,
        signal: Arc<ShutdownSignal>,
    ) -> EventLoop {
        let backend_count = config.backends.len();
        EventLoop {
            listener,
            listening: Interest::READ,
            waker: reactor.waker(),
            reactor,
            config,
            ring,
            fleet,
            signal,
            clients: Vec::new(),
            free_clients: Vec::new(),
            backends: (0..backend_count).map(|_| None).collect(),
            next_token: 1,
            dirty_clients: Vec::new(),
            dirty_backends: Vec::new(),
        }
    }

    fn client_token(&self, c: usize) -> Token {
        1 + self.backends.len() + c
    }

    fn run(mut self) {
        let mut ready = Vec::new();
        let mut draining = false;
        // Only a broken wait set fails the wait; the loop stops rather
        // than spin. A listener paused after a failed accept rejoins the
        // wait set on the next wake, at most `ACCEPT_RETRY` later.
        loop {
            let paused = !draining && self.listening == Interest::NONE;
            let Ok(woken) = self
                .reactor
                .wait(&mut ready, paused.then_some(ACCEPT_RETRY))
            else {
                break;
            };
            hmdiv_obs::counter_add("fleet.router.wakeups", 1);
            if paused {
                drop(self.listen(Interest::READ));
            }
            if woken {
                // A backend was ejected or re-admitted, or shutdown was
                // requested.
                self.enforce_ejections();
                if !draining && self.signal.is_requested() {
                    draining = true;
                    self.start_drain();
                }
            }
            let backend_count = self.backends.len();
            for &token in &ready {
                match token {
                    LISTENER => {
                        if !draining && !self.accept_new() {
                            drop(self.listen(Interest::NONE));
                        }
                    }
                    t if t <= backend_count => self.read_backend(t - 1),
                    t => self.read_client(t - 1 - backend_count),
                }
            }
            self.settle(draining);
            if draining && self.clients.len() == self.free_clients.len() {
                break;
            }
        }
    }

    /// Stops accepting and re-examines every client once: idle ones
    /// close now, the rest once they owe nothing. Without this, a client
    /// that simply stays connected would stall the drain forever.
    fn start_drain(&mut self) {
        drop(self.listen(Interest::NONE));
        self.dirty_clients
            .extend((0..self.clients.len()).filter(|&c| self.clients[c].is_some()));
    }

    fn listen(&mut self, want: Interest) -> std::io::Result<()> {
        self.reactor
            .set_interest(&self.listener, LISTENER, &mut self.listening, want)
    }

    /// Accepts every waiting connection; `false` when an accept failed
    /// with the connection still queued.
    fn accept_new(&mut self) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    // Hash the peer address (ip + port) onto the ring so
                    // distinct connections spread across backends while
                    // one connection stays put.
                    let mut key = match peer.ip() {
                        std::net::IpAddr::V4(ip) => u64::from(u32::from(ip)),
                        std::net::IpAddr::V6(ip) => {
                            let o = ip.octets();
                            u64::from_le_bytes([o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]])
                        }
                    };
                    key = mix64(key ^ (u64::from(peer.port()) << 48));
                    let mut conn = ClientConn {
                        stream,
                        registered: Interest::NONE,
                        reader: LineReader::new(self.config.max_line_bytes),
                        out: Vec::new(),
                        cursor: 0,
                        pending: VecDeque::new(),
                        ring_key: key,
                        half_closed: false,
                        dead: false,
                    };
                    let c = self.free_clients.pop().unwrap_or(self.clients.len());
                    let token = self.client_token(c);
                    if self
                        .reactor
                        .set_interest(&conn.stream, token, &mut conn.registered, Interest::READ)
                        .is_err()
                    {
                        self.free_clients.push(c);
                        continue;
                    }
                    if c == self.clients.len() {
                        self.clients.push(Some(conn));
                    } else {
                        self.clients[c] = Some(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Tears down connections to backends the prober has ejected, so
    /// their in-flight requests fail over promptly.
    fn enforce_ejections(&mut self) {
        for b in 0..self.backends.len() {
            if self.backends[b].is_some() && !self.fleet.is_healthy(b) {
                self.fail_backend(b);
            }
        }
    }

    /// Kills backend `b`'s connection and answers everything in flight
    /// on it with `backend_unavailable`.
    fn fail_backend(&mut self, b: usize) {
        let Some(mut conn) = self.backends[b].take() else {
            return;
        };
        drop(
            self.reactor
                .set_interest(&conn.stream, 1 + b, &mut conn.registered, Interest::NONE),
        );
        let addr = self.fleet.addr(b);
        for (token, c) in conn.inflight {
            self.resolve_token(token, c, None, addr);
        }
    }

    /// Fills client `c`'s pending slot waiting on `token`. `reply` is the
    /// forwarded backend line (newline included), or `None` to
    /// synthesize a `backend_unavailable` error from `addr`.
    fn resolve_token(&mut self, token: u64, c: usize, reply: Option<String>, addr: SocketAddr) {
        // A missing slot, or one a newer connection now holds, means the
        // client hung up before its reply arrived.
        let Some(client) = self.clients[c].as_mut() else {
            return;
        };
        for pending in &mut client.pending {
            match pending {
                Pending::Await { token: t, id } if *t == token => {
                    let line = reply.unwrap_or_else(|| unavailable_line(id, addr));
                    *pending = Pending::Done(line);
                    self.dirty_clients.push(c);
                    return;
                }
                Pending::Broadcast { id, slots } => {
                    if let Some(slot) = slots
                        .iter_mut()
                        .find(|s| s.token == token && s.reply.is_none())
                    {
                        slot.reply = Some(reply.unwrap_or_else(|| unavailable_line(id, addr)));
                        self.dirty_clients.push(c);
                        return;
                    }
                }
                Pending::Done(_) | Pending::Await { .. } => {}
            }
        }
    }

    /// Reads backend `b`'s replies and resolves the requests they
    /// answer; a closed or broken connection fails over.
    fn read_backend(&mut self, b: usize) {
        let Some(conn) = self.backends[b].as_mut() else {
            return;
        };
        // A report may also mean room to write.
        self.dirty_backends.push(b);
        let mut chunk = [0_u8; 64 * 1024];
        // End of stream is a failure too: replies may still be owed.
        let mut failed = !matches!(
            conn.reader
                .read_from(&mut conn.stream, &mut chunk, usize::MAX),
            Ok((_, false))
        );
        let mut resolved: Vec<(u64, usize, String)> = Vec::new();
        while let Some(event) = conn.reader.next_event() {
            let Some((token, c)) = conn.inflight.pop_front() else {
                // A reply with nothing in flight: protocol breach, drop
                // the connection.
                failed = true;
                break;
            };
            match event {
                LineEvent::Line(mut line) => {
                    line.push('\n');
                    resolved.push((token, c, line));
                }
                // An oversized or non-UTF-8 reply cannot be forwarded;
                // the requests it answered are lost with the connection.
                LineEvent::TooLong { .. } | LineEvent::InvalidUtf8 => {
                    failed = true;
                    break;
                }
            }
        }
        let addr = self.fleet.addr(b);
        for (token, c, line) in resolved {
            self.resolve_token(token, c, Some(line), addr);
        }
        if failed {
            self.fail_backend(b);
            // A dead connection counts toward ejection; the prober owns
            // re-admission.
            self.fleet.record_failure(b);
        }
    }

    /// Reads client `c`'s requests and routes each one.
    fn read_client(&mut self, c: usize) {
        let Some(conn) = self.clients[c].as_mut() else {
            return;
        };
        self.dirty_clients.push(c);
        if conn.dead || conn.half_closed {
            return;
        }
        let mut chunk = [0_u8; 64 * 1024];
        match conn
            .reader
            .read_from(&mut conn.stream, &mut chunk, usize::MAX)
        {
            Ok((_, eof)) => conn.half_closed = eof,
            Err(_) => conn.dead = true,
        }
        let mut lines: Vec<Result<String, ServeError>> = Vec::new();
        while let Some(event) = conn.reader.next_event() {
            lines.push(match event {
                LineEvent::Line(line) => Ok(line),
                LineEvent::TooLong { limit } => Err(ServeError::LineTooLong { limit }),
                LineEvent::InvalidUtf8 => Err(ServeError::Parse {
                    detail: "request line is not valid UTF-8".to_owned(),
                }),
            });
        }
        for line in lines {
            match line {
                Ok(line) => self.route_request(c, &line),
                Err(e) => {
                    if let Some(conn) = self.clients[c].as_mut() {
                        conn.pending
                            .push_back(Pending::Done(err_line(&Json::Null, None, &e)));
                    }
                }
            }
        }
    }

    /// Settles every connection touched during this wake: backends
    /// flush the requests routed to them, clients flush their resolved
    /// replies, and each one's interest is brought up to date.
    fn settle(&mut self, draining: bool) {
        let mut backends = std::mem::take(&mut self.dirty_backends);
        backends.sort_unstable();
        backends.dedup();
        for &b in &backends {
            self.flush_backend(b);
        }
        backends.clear();
        self.dirty_backends = backends;
        // Backend failures above may have resolved more client slots.
        let mut clients = std::mem::take(&mut self.dirty_clients);
        clients.sort_unstable();
        clients.dedup();
        for &c in &clients {
            self.finish_client(c, draining);
        }
        clients.clear();
        self.dirty_clients = clients;
    }

    /// Writes backend `b`'s queued requests, waiting for room when the
    /// socket is full; a broken connection fails over.
    fn flush_backend(&mut self, b: usize) {
        let Some(conn) = self.backends[b].as_mut() else {
            return;
        };
        let dead = write_buffered(&mut conn.stream, &mut conn.out, &mut conn.cursor).is_err();
        let want = Interest {
            read: true,
            write: !conn.out.is_empty(),
        };
        if dead
            || self
                .reactor
                .set_interest(&conn.stream, 1 + b, &mut conn.registered, want)
                .is_err()
        {
            self.fail_backend(b);
            self.fleet.record_failure(b);
        }
    }

    /// Flushes client `c`'s resolved replies and closes it once it is
    /// dead, or half-closed (or draining) with nothing left owed.
    fn finish_client(&mut self, c: usize, draining: bool) {
        let token = self.client_token(c);
        let Some(conn) = self.clients[c].as_mut() else {
            return;
        };
        if !conn.dead {
            flush_client(conn, &self.fleet, &self.waker);
        }
        let close = conn.dead
            || ((conn.half_closed || draining) && conn.pending.is_empty() && conn.out.is_empty());
        let want = if close {
            Interest::NONE
        } else {
            Interest {
                read: !conn.half_closed,
                write: !conn.out.is_empty(),
            }
        };
        let broken = self
            .reactor
            .set_interest(&conn.stream, token, &mut conn.registered, want)
            .is_err();
        if close || broken {
            self.clients[c] = None;
            self.free_clients.push(c);
        }
    }

    /// Routes one complete request line from client `c`.
    fn route_request(&mut self, c: usize, line: &str) {
        let envelope = match protocol::parse_request(line) {
            Ok(envelope) => envelope,
            Err(_) => return self.route_stateless(c, line, protocol::fallback_id(line)),
        };
        match envelope.verb.as_str() {
            "metrics" => {
                let reply = self.metrics_line(&envelope.id);
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending.push_back(Pending::Done(reply));
                }
            }
            "shutdown" => {
                // Drain the router too; the broadcast tells every
                // replica to drain as well.
                self.broadcast(c, line, envelope.id);
                self.signal.request();
            }
            verb if BROADCAST_VERBS.contains(&verb) => self.broadcast(c, line, envelope.id),
            _ => self.route_stateless(c, line, envelope.id),
        }
    }

    /// Sends `line` to the first healthy backend on the client's ring
    /// walk, lazily connecting. Synthesizes `backend_unavailable` when
    /// no backend is reachable.
    fn route_stateless(&mut self, c: usize, line: &str, id: Json) {
        let Some(ring_key) = self.clients[c].as_ref().map(|conn| conn.ring_key) else {
            return;
        };
        // Walk the ring: the owner first, then the failover order. Each
        // reachable-check may eject an unreachable backend, so re-filter
        // through `is_healthy` on every step.
        loop {
            let fleet = Arc::clone(&self.fleet);
            let Some(b) = self
                .ring
                .route_filtered(ring_key, |b| fleet.is_healthy(b as usize))
            else {
                // Whole fleet down.
                let addr = self.fleet.addr(0);
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending
                        .push_back(Pending::Done(unavailable_line(&id, addr)));
                }
                return;
            };
            let b = b as usize;
            if let Some(token) = self.send_to_backend(b, line, c) {
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending.push_back(Pending::Await { token, id });
                }
                return;
            }
            // Connect failed: counts toward ejection; if the backend is
            // now ejected the ring walk moves on, otherwise give up on
            // this request (transient refusals stay rare).
            if !self.fleet.record_failure(b) && self.fleet.is_healthy(b) {
                let addr = self.fleet.addr(b);
                if let Some(conn) = self.clients[c].as_mut() {
                    conn.pending
                        .push_back(Pending::Done(unavailable_line(&id, addr)));
                }
                return;
            }
        }
    }

    /// Sends `line` to every healthy backend; the pending entry
    /// resolves once all legs answer (or die).
    fn broadcast(&mut self, c: usize, line: &str, id: Json) {
        let healthy = self.fleet.healthy_indices();
        let mut slots = Vec::new();
        for b in healthy {
            if let Some(token) = self.send_to_backend(b, line, c) {
                slots.push(BroadcastSlot {
                    backend: b,
                    token,
                    reply: None,
                });
            } else {
                self.fleet.record_failure(b);
            }
        }
        let pending = if slots.is_empty() {
            // No backend reachable at all.
            Pending::Done(unavailable_line(&id, self.fleet.addr(0)))
        } else {
            Pending::Broadcast { id, slots }
        };
        if let Some(conn) = self.clients[c].as_mut() {
            conn.pending.push_back(pending);
        }
    }

    /// Queues `line` from client `c` on backend `b`'s connection
    /// (opening it lazily), returning the in-flight token, or `None` when
    /// the backend is unreachable.
    fn send_to_backend(&mut self, b: usize, line: &str, c: usize) -> Option<u64> {
        if self.backends[b].is_none() {
            let addr = self.fleet.addr(b);
            let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout).ok()?;
            stream.set_nodelay(true).ok()?;
            stream.set_nonblocking(true).ok()?;
            let mut conn = BackendConn {
                stream,
                registered: Interest::NONE,
                reader: LineReader::new(self.config.max_line_bytes),
                out: Vec::new(),
                cursor: 0,
                inflight: VecDeque::new(),
            };
            self.reactor
                .set_interest(&conn.stream, 1 + b, &mut conn.registered, Interest::READ)
                .ok()?;
            self.backends[b] = Some(conn);
        }
        let conn = self.backends[b].as_mut()?;
        let token = self.next_token;
        self.next_token += 1;
        conn.out.extend_from_slice(line.as_bytes());
        conn.out.push(b'\n');
        conn.inflight.push_back((token, c));
        self.dirty_backends.push(b);
        Some(token)
    }

    /// The router-local `metrics` reply: fleet topology plus the
    /// process-wide Prometheus exposition.
    fn metrics_line(&self, id: &Json) -> String {
        let snapshot = hmdiv_obs::snapshot();
        let backends: Vec<Json> = (0..self.fleet.len())
            .map(|b| {
                let s = self.fleet.snapshot(b);
                Json::Obj(vec![
                    ("addr".to_owned(), Json::str(s.addr.to_string())),
                    ("healthy".to_owned(), Json::Bool(s.healthy)),
                    (
                        "consecutive_failures".to_owned(),
                        Json::Num(f64::from(s.consecutive_failures)),
                    ),
                    #[allow(clippy::cast_precision_loss)]
                    ("ejections".to_owned(), Json::Num(s.ejections as f64)),
                ])
            })
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let result = Json::Obj(vec![
            (
                "prometheus".to_owned(),
                Json::str(hmdiv_obs::export::to_prometheus(&snapshot)),
            ),
            (
                "fleet".to_owned(),
                Json::Obj(vec![
                    ("backends".to_owned(), Json::Num(self.fleet.len() as f64)),
                    (
                        "healthy".to_owned(),
                        Json::Num(self.fleet.healthy_indices().len() as f64),
                    ),
                    ("members".to_owned(), Json::Arr(backends)),
                ]),
            ),
        ]);
        protocol::ok_line(id, None, result)
    }
}

/// Flushes resolved head-of-queue replies into the socket, preserving
/// request order per connection.
fn flush_client(conn: &mut ClientConn, fleet: &FleetState, waker: &Waker) {
    // Resolve fully-answered broadcasts at the head.
    loop {
        match conn.pending.front_mut() {
            Some(Pending::Broadcast { slots, .. }) if slots.iter().all(|s| s.reply.is_some()) => {
                let line = settle_broadcast(slots, fleet, waker);
                *conn.pending.front_mut().expect("front exists") = Pending::Done(line);
            }
            _ => {}
        }
        match conn.pending.front() {
            Some(Pending::Done(_)) => {
                let Some(Pending::Done(line)) = conn.pending.pop_front() else {
                    unreachable!("front was just matched as Done");
                };
                conn.out.extend_from_slice(line.as_bytes());
            }
            _ => break,
        }
    }
    conn.dead |= write_buffered(&mut conn.stream, &mut conn.out, &mut conn.cursor).is_err();
}

/// Whether a reply line is a success envelope (`"ok": true`).
fn is_ok_reply(line: &str) -> bool {
    json::parse(line)
        .ok()
        .and_then(|r| r.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// The broadcast reply the client sees: the lowest-indexed backend's
/// success, or (when every leg failed) the lowest-indexed reply. When
/// some legs succeeded, each failed leg's backend missed a write its
/// peers applied, so it is ejected until a registry sync re-admits it;
/// `waker` then rings the event loop to tear its connection down.
fn settle_broadcast(slots: &[BroadcastSlot], fleet: &FleetState, waker: &Waker) -> String {
    let ok: Vec<bool> = slots
        .iter()
        .map(|s| s.reply.as_deref().is_some_and(is_ok_reply))
        .collect();
    let Some(winner) = ok.iter().position(|&ok| ok) else {
        return slots
            .first()
            .and_then(|s| s.reply.clone())
            .unwrap_or_default();
    };
    for (slot, _) in slots.iter().zip(&ok).filter(|(_, ok)| !**ok) {
        if fleet.eject(slot.backend) {
            waker.wake();
        }
    }
    slots[winner].reply.clone().unwrap_or_default()
}

/// The health prober: pings every backend each interval, ejects after
/// consecutive failures, re-admits after recovery probes plus a
/// registry sync from a healthy peer. Each change of health rings the
/// event loop's `waker`.
fn probe_loop(config: &RouterConfig, fleet: &FleetState, signal: &ShutdownSignal, waker: &Waker) {
    while !signal.wait_timeout(config.probe_interval) {
        for b in 0..fleet.len() {
            let addr = fleet.addr(b);
            if !probe_once(addr, config.probe_timeout) {
                if fleet.record_probe_failure(b) {
                    waker.wake();
                }
                continue;
            }
            if fleet.record_success(b) == ProbeVerdict::ReadyToReadmit {
                // Two-gate re-admission: the probes proved the process
                // answers; now converge its registry from the
                // lowest-indexed healthy peer before routing to it.
                match sync_from_peer(fleet, b) {
                    Ok(()) => {
                        fleet.readmit(b);
                        waker.wake();
                    }
                    Err(_) => fleet.recovery_setback(b),
                }
            }
        }
    }
}

/// One health probe: fresh connection, `ping` verb, bounded read.
fn probe_once(addr: SocketAddr, timeout: Duration) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return false;
    }
    let mut stream = stream;
    if stream.write_all(b"{\"id\":0,\"verb\":\"ping\"}\n").is_err() {
        return false;
    }
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).is_ok() && is_ok_reply(&line)
}

/// Reconciles backend `b`'s registry from the lowest-indexed healthy
/// peer. A fleet with no healthy peer left has nothing to converge
/// from, which counts as success (the returning backend *is* the
/// fleet).
fn sync_from_peer(fleet: &FleetState, b: usize) -> Result<(), ServeError> {
    let Some(peer) = fleet.healthy_indices().into_iter().find(|&p| p != b) else {
        return Ok(());
    };
    let mut source = Client::connect(fleet.addr(peer))?;
    let mut dest = Client::connect(fleet.addr(b))?;
    sync::reconcile(&mut source, &mut dest).map(drop)
}
