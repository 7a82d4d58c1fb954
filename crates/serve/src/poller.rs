//! The readiness-poller pool: a small fixed set of threads multiplexing
//! every client connection over nonblocking `std::net` sockets.
//!
//! Accepted sockets are registered round-robin onto poller **shards**.
//! Each shard owns its connections outright — no cross-thread connection
//! state — and waits on its own [`Reactor`]. A wake services only the
//! connections reported ready: by the reactor (bytes to read, room to
//! write) or by another thread whose flush answered one of the shard's
//! requests; that connection's [`Waker`] marks its token in the shard's
//! inbox and rings the reactor. One wake runs in three phases:
//!
//! 1. **read and route**, per ready connection: drain readable bytes into
//!    the resumable [`LineReader`](crate::protocol::LineReader)
//!    (budgeted, and skipped while the write buffer is over the
//!    high-watermark — backpressure propagates to the client's TCP window
//!    instead of server memory), then frame complete lines and route each
//!    into a [`RequestSlot`] (queued work carries the connection's
//!    [`Waker`]);
//! 2. **flush**, once for the shard: the shard evaluates the shared
//!    executor queue itself with
//!    [`Batcher::flush_queued`](crate::batcher::Batcher::flush_queued),
//!    so everything routed in phase 1 — pipelined lines and lines from
//!    other connections — coalesces into dense calls with no thread
//!    hand-off. Replies it lands for its own connections are marked
//!    without ringing its own reactor;
//! 3. **pump and write**, per ready connection: resolve the contiguous
//!    head of the in-order slot queue — inline answers immediately, queued
//!    answers via [`Ticket::try_take`](crate::batcher::Ticket::try_take) —
//!    serialize them into the write buffer, and push buffered bytes until
//!    the socket would block, completing trace records as their byte
//!    ranges reach the kernel.
//!
//! Afterwards the connection's interest is recomputed: read while it
//! accepts more input, write only while buffered bytes are blocked. An
//! idle shard therefore sleeps in the kernel, and an idle connection
//! costs nothing per wake.
//!
//! Responses stay in request order per connection (the slot queue is the
//! order book), so pipelined clients observe exactly the semantics of the
//! old thread-per-connection server — replies are bit-identical.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::Instant;

use crate::batcher::Waker;
use crate::error::ServeError;
use crate::protocol::{LineEvent, LineReader};
use crate::reactor::{self, Interest, Reactor, Token};
use crate::server::{self, Ctx, PendingTrace, RequestSlot};

/// Read budget per connection per wake, so one firehose client cannot
/// starve its shard-mates (level-triggered readiness reports the rest on
/// the next wait).
const READ_BUDGET: usize = 256 * 1024;
/// Per-read chunk size.
const CHUNK: usize = 16 * 1024;
/// Buffered-response bytes above which a connection stops being read —
/// the slow-consumer backpressure threshold.
const WRITE_HIGH_WATERMARK: usize = 1 << 20;

/// What other threads hand a shard: accepted sockets and the tokens of
/// connections whose queued replies have landed.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    ready: Vec<Token>,
}

/// One poller shard's shared half: the accept loop and reply wakers
/// talk to the shard thread exclusively through this.
struct Shard {
    inbox: Mutex<Inbox>,
    waker: reactor::Waker,
    /// The shard's own thread, which needs no ring for the replies its
    /// own flush lands.
    owner: OnceLock<ThreadId>,
}

impl Shard {
    fn new(waker: reactor::Waker) -> Shard {
        Shard {
            inbox: Mutex::new(Inbox::default()),
            waker,
            owner: OnceLock::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inbox> {
        self.inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Hands over an accepted socket.
    fn adopt(&self, stream: TcpStream) {
        self.lock().conns.push(stream);
        self.waker.wake();
    }

    /// Marks connection `token` for service (a queued reply landed). Only
    /// a mark from another thread rings the reactor: the shard collects
    /// its own marks right after its flush.
    fn mark_ready(&self, token: Token) {
        self.lock().ready.push(token);
        if self.owner.get() != Some(&std::thread::current().id()) {
            self.waker.wake();
        }
    }

    /// Takes everything handed over since the last call.
    fn take(&self) -> Inbox {
        std::mem::take(&mut *self.lock())
    }
}

/// The fixed pool of readiness-poller threads.
pub(crate) struct PollerPool {
    shards: Vec<Arc<Shard>>,
    handles: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl std::fmt::Debug for PollerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollerPool")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl PollerPool {
    /// Spawns `threads` poller shards (at least one).
    pub(crate) fn start(threads: usize, ctx: &Arc<Ctx>) -> Result<PollerPool, ServeError> {
        let threads = threads.max(1);
        let mut shards = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let reactor = Reactor::new()?;
            let shard = Arc::new(Shard::new(reactor.waker()));
            let thread_shard = Arc::clone(&shard);
            let thread_ctx = Arc::clone(ctx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hmdiv-serve-poll-{i}"))
                    .spawn(move || run_shard(&thread_shard, reactor, &thread_ctx))?,
            );
            shards.push(shard);
        }
        Ok(PollerPool {
            shards,
            handles,
            next: AtomicUsize::new(0),
        })
    }

    /// Hands an accepted socket to the next shard, round-robin.
    pub(crate) fn register(&self, stream: TcpStream) {
        self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()].adopt(stream);
    }

    /// Rings every shard (the shutdown signal is already latched) and
    /// joins them; each shard finishes writing the responses it owes
    /// before exiting.
    pub(crate) fn stop_and_join(self) {
        for shard in &self.shards {
            shard.waker.wake();
        }
        for handle in self.handles {
            drop(handle.join());
        }
    }
}

fn run_shard(shard: &Arc<Shard>, mut reactor: Reactor, ctx: &Arc<Ctx>) {
    shard.owner.get_or_init(|| std::thread::current().id());
    // The connection table: a connection's token is its index, and
    // closed slots are reused before the table grows.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<Token> = Vec::new();
    let mut ready: Vec<Token> = Vec::new();
    let mut chunk = vec![0_u8; CHUNK];
    let mut shutdown = false;
    let mut woken = true;
    loop {
        hmdiv_obs::counter_add("serve.poll.wakeups", 1);
        if woken {
            let inbox = shard.take();
            ready.extend(inbox.ready);
            for stream in inbox.conns {
                let token = free.pop().unwrap_or(conns.len());
                let waker: Waker = {
                    let shard = Arc::clone(shard);
                    Arc::new(move || shard.mark_ready(token))
                };
                match Conn::adopt(stream, ctx.max_line_bytes, waker) {
                    Some(conn) => {
                        if token == conns.len() {
                            conns.push(Some(conn));
                        } else {
                            conns[token] = Some(conn);
                        }
                        server::connection_opened(ctx);
                        // Service it now: its first request is often
                        // already waiting.
                        ready.push(token);
                    }
                    None => {
                        free.push(token);
                        hmdiv_obs::counter_add("serve.conn_setup_failures", 1);
                    }
                }
            }
            if !shutdown && ctx.signal.is_requested() {
                // Every connection stops reading and closes once it owes
                // nothing: service them all, once.
                shutdown = true;
                ready.extend((0..conns.len()).filter(|&t| conns[t].is_some()));
            }
        }
        ready.sort_unstable();
        ready.dedup();
        for &token in &ready {
            if let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) {
                conn.read_and_route(ctx, shutdown, &mut chunk);
            }
        }
        // One flush for everything routed above; the replies it lands for
        // this shard's connections are marked without a ring.
        ctx.batcher.flush_queued();
        ready.append(&mut shard.lock().ready);
        ready.sort_unstable();
        ready.dedup();
        for &token in &ready {
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                continue; // closed since it was reported
            };
            conn.pump();
            conn.write_some(ctx);
            let want = conn.interest(shutdown);
            if reactor
                .set_interest(&conn.stream, token, &mut conn.registered, want)
                .is_err()
            {
                conn.dead = true;
                conn.write_some(ctx);
            }
            if conn.done(shutdown) {
                drop(reactor.set_interest(
                    &conn.stream,
                    token,
                    &mut conn.registered,
                    Interest::NONE,
                ));
                conns[token] = None;
                free.push(token);
                server::connection_closed(ctx);
            }
        }
        if shutdown && conns.len() == free.len() && shard.lock().conns.is_empty() {
            return;
        }
        woken = match reactor.wait(&mut ready, None) {
            Ok(woken) => woken,
            // Only a broken wait set fails here; drop the connections
            // rather than spin.
            Err(_) => return,
        };
    }
}

/// A byte range of the write buffer whose flush completes a traced
/// request: once `end` bytes have reached the kernel, the record's write
/// stage is stamped and it lands in the flight recorder.
struct WriteMark {
    end: u64,
    trace: PendingTrace,
}

/// The buffered, backpressured write half of a connection.
struct OutBuf {
    buf: Vec<u8>,
    cursor: usize,
    /// Total bytes ever appended / flushed to the kernel — mark ranges are
    /// absolute offsets on this monotone scale, surviving buffer resets.
    appended: u64,
    flushed: u64,
    marks: VecDeque<WriteMark>,
    /// When the oldest still-buffered response started waiting — the
    /// write-stage start for every mark completed in this drain cycle.
    write_start: Option<Instant>,
}

impl OutBuf {
    fn new() -> OutBuf {
        OutBuf {
            buf: Vec::new(),
            cursor: 0,
            appended: 0,
            flushed: 0,
            marks: VecDeque::new(),
            write_start: None,
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.cursor
    }

    fn append(&mut self, bytes: &[u8], trace: Option<PendingTrace>) {
        if self.write_start.is_none() {
            self.write_start = Some(Instant::now());
        }
        self.buf.extend_from_slice(bytes);
        self.appended += bytes.len() as u64;
        if let Some(trace) = trace {
            self.marks.push_back(WriteMark {
                end: self.appended,
                trace,
            });
        }
    }
}

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    /// The interest last given to the shard's reactor.
    registered: Interest,
    /// Marks this connection's token on its shard when a queued reply
    /// lands.
    waker: Waker,
    reader: LineReader,
    /// In-order request slots; responses resolve head-first so pipelined
    /// replies keep request order.
    slots: VecDeque<RequestSlot>,
    out: OutBuf,
    /// First socket bytes of the current read batch (the read-stage start
    /// for the requests they frame).
    read_start: Option<Instant>,
    peer_closed: bool,
    dead: bool,
}

impl Conn {
    /// Puts the socket into multiplexed mode; `None` if setup syscalls
    /// fail (the stream drops, resetting the connection).
    fn adopt(stream: TcpStream, max_line_bytes: usize, waker: Waker) -> Option<Conn> {
        // Nagle would defeat micro-batching's latency win on small lines.
        drop(stream.set_nodelay(true));
        stream.set_nonblocking(true).ok()?;
        Some(Conn {
            stream,
            registered: Interest::NONE,
            waker,
            reader: LineReader::new(max_line_bytes),
            slots: VecDeque::new(),
            out: OutBuf::new(),
            read_start: None,
            peer_closed: false,
            dead: false,
        })
    }

    /// The first half of a service pass: read (through the shard's
    /// `chunk`) and route; the shard flushes, then pumps and writes.
    fn read_and_route(&mut self, ctx: &Ctx, shutdown: bool, chunk: &mut [u8]) {
        if !self.dead && !self.peer_closed && !shutdown && self.out.pending() < WRITE_HIGH_WATERMARK
        {
            self.read_some(chunk);
        }
        self.route_new_lines(ctx);
    }

    /// What to wait for next: more input while the connection accepts
    /// it, room to write only while buffered bytes are blocked. A dead
    /// connection waits on nothing (its queued replies still wake it).
    fn interest(&self, shutdown: bool) -> Interest {
        if self.dead {
            return Interest::NONE;
        }
        Interest {
            read: !self.peer_closed && !shutdown && self.out.pending() < WRITE_HIGH_WATERMARK,
            write: self.out.pending() > 0,
        }
    }

    /// Everything owed has been written (or can never be): drop the
    /// connection. A dead connection lingers until its in-flight slots
    /// resolve so their trace records still complete.
    fn done(&self, shutdown: bool) -> bool {
        if !self.slots.is_empty() {
            return false;
        }
        if self.dead {
            return true;
        }
        self.out.pending() == 0 && self.out.marks.is_empty() && (self.peer_closed || shutdown)
    }

    /// Drains readable bytes (budgeted) into the line reader.
    fn read_some(&mut self, chunk: &mut [u8]) {
        match self.reader.read_from(&mut self.stream, chunk, READ_BUDGET) {
            Ok((bytes, eof)) => {
                if bytes > 0 {
                    self.read_start.get_or_insert_with(Instant::now);
                }
                self.peer_closed = eof;
            }
            Err(_) => self.dead = true,
        }
    }

    /// Frames buffered bytes into lines and routes each into a slot.
    /// Framing faults become error slots — the connection survives both
    /// over-limit lines (the reader resyncs to the next newline) and
    /// invalid UTF-8.
    fn route_new_lines(&mut self, ctx: &Ctx) {
        let mut events = Vec::new();
        while let Some(event) = self.reader.next_event() {
            events.push(event);
        }
        if events.is_empty() {
            return;
        }
        // One receive timestamp for the whole batch, as in the threaded
        // server: everything framed together traces the same read span.
        let received = Instant::now();
        let read_start = self.read_start.take();
        for event in events {
            let slot = match event {
                LineEvent::Line(line) => {
                    server::route_line(&line, received, read_start, ctx, Arc::clone(&self.waker))
                }
                LineEvent::TooLong { limit } => {
                    hmdiv_obs::counter_add("serve.line_too_long", 1);
                    RequestSlot::framing_error(ServeError::LineTooLong { limit })
                }
                LineEvent::InvalidUtf8 => RequestSlot::framing_error(ServeError::Parse {
                    detail: "request line is not valid UTF-8".to_owned(),
                }),
            };
            self.slots.push_back(slot);
        }
    }

    /// Resolves the contiguous head of the slot queue into response
    /// bytes. Stops at the first slot still in flight so responses keep
    /// request order.
    fn pump(&mut self) {
        while let Some(front) = self.slots.front() {
            let reply = match front.pending_ticket() {
                Some(ticket) => match ticket.try_take() {
                    Some(reply) => Some(reply),
                    None => break, // head still in flight
                },
                None => None,
            };
            let slot = self
                .slots
                .pop_front()
                .expect("front() just returned this slot");
            let (line, trace) = server::finish_slot(slot, reply);
            self.out.append(line.as_bytes(), trace);
        }
    }

    /// Writes buffered bytes until the socket would block, completing
    /// trace records whose byte ranges have fully reached the kernel. A
    /// dead connection completes its records without a write stamp — the
    /// replies never made it, but sheds stay observable.
    fn write_some(&mut self, ctx: &Ctx) {
        if self.out.pending() == 0 && self.out.marks.is_empty() {
            return;
        }
        if !self.dead {
            match reactor::write_buffered(&mut self.stream, &mut self.out.buf, &mut self.out.cursor)
            {
                Ok(n) => self.out.flushed += n as u64,
                Err(_) => self.dead = true,
            }
        }
        let now = Instant::now();
        let mut shed = false;
        while self
            .out
            .marks
            .front()
            .is_some_and(|m| m.end <= self.out.flushed)
        {
            let mark = self
                .out
                .marks
                .pop_front()
                .expect("front() just matched this mark");
            let span = self.out.write_start.map(|start| (start, now));
            shed |= server::complete_trace(ctx, mark.trace, span);
        }
        if self.dead {
            self.out.buf.clear();
            self.out.cursor = 0;
            while let Some(mark) = self.out.marks.pop_front() {
                shed |= server::complete_trace(ctx, mark.trace, None);
            }
        }
        if shed {
            server::dump_on_shed(ctx);
        }
        if self.out.pending() == 0 && self.out.marks.is_empty() {
            self.out.write_start = None;
        }
    }
}

#[cfg(test)]
mod tests {
    //! Socket-free tests of the shard hand-off — run under Miri (against
    //! the reactor's fallback) as well as natively.

    use super::*;
    use std::time::Duration;

    fn shard() -> (Arc<Shard>, Reactor) {
        let reactor = Reactor::new().unwrap();
        (Arc::new(Shard::new(reactor.waker())), reactor)
    }

    fn woken(reactor: &mut Reactor) -> bool {
        reactor.wait(&mut Vec::new(), Some(Duration::ZERO)).unwrap()
    }

    #[test]
    fn a_mark_rings_the_shard_and_take_consumes_it() {
        let (shard, mut reactor) = shard();
        assert!(!woken(&mut reactor), "fresh shard is quiet");
        shard.mark_ready(3);
        assert!(woken(&mut reactor), "the mark must ring the reactor");
        assert_eq!(shard.take().ready, vec![3]);
        assert!(shard.take().ready.is_empty(), "take consumes the mark");
        assert!(!woken(&mut reactor));
    }

    #[test]
    fn a_mark_landing_mid_service_wakes_the_next_wait() {
        // A mark that arrives after the shard emptied its inbox but
        // before it waits again must end that wait.
        let (shard, mut reactor) = shard();
        shard.mark_ready(1);
        assert!(woken(&mut reactor));
        assert_eq!(shard.take().ready, vec![1]);
        shard.mark_ready(2);
        assert!(woken(&mut reactor), "the mid-service mark is not lost");
        assert_eq!(shard.take().ready, vec![2]);
    }

    #[test]
    fn concurrent_marks_are_coalesced_but_never_lost() {
        let (shard, mut reactor) = shard();
        std::thread::scope(|s| {
            for t in 0..4 {
                let shard = Arc::clone(&shard);
                s.spawn(move || {
                    for i in 0..25 {
                        shard.mark_ready(t * 25 + i);
                    }
                });
            }
        });
        // 100 rings may fold into one wake, but every token survives.
        assert!(woken(&mut reactor));
        let mut ready = shard.take().ready;
        ready.sort_unstable();
        assert_eq!(ready, (0..100).collect::<Vec<_>>());
        assert!(!woken(&mut reactor));
    }
}
