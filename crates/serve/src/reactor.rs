//! The readiness core: one small reactor that every socket loop in the
//! workspace waits on — the poller shards, the accept loop, the fleet
//! router and the benchmark load generator.
//!
//! A loop registers each socket under a [`Token`] with an [`Interest`],
//! then blocks in [`Reactor::wait`] until some of those sockets are
//! ready or a [`Waker`] rings from another thread. Readiness is
//! level-triggered: a socket with unread bytes is reported on every wait
//! until they are read, so a loop may stop reading at a budget and pick
//! up the rest on its next pass. Callers arm write interest only while a
//! write would block and clear read interest while a connection holds
//! back (backpressure, end of stream); a socket left with no interest
//! leaves the wait set. An idle loop therefore sleeps in the kernel
//! until a byte, a drained send buffer or a wake arrives.
//!
//! On Linux the reactor is `epoll` plus an `eventfd` waker, declared
//! through `extern "C"` against the C library std already links. Under
//! Miri and on other targets a fallback keeps the same interface: it
//! waits on a condvar bell for at most a millisecond, then reports every
//! token with interest as ready. Callers treat a report as "try
//! this socket", so both back ends drive them the same way.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Duration;

/// Names one registered socket in [`Reactor::wait`]'s reports. The
/// caller picks it — typically an index into its connection table.
/// `usize::MAX` is reserved for the reactor's own waker.
pub type Token = usize;

/// Which readiness a registered socket is waited on for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Bytes (or end of stream) to read.
    pub read: bool,
    /// Room in the send buffer.
    pub write: bool,
}

impl Interest {
    /// Not waited on: the socket is out of the wait set.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
    /// Read readiness only, the state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn is_none(self) -> bool {
        !self.read && !self.write
    }
}

/// A socket the reactor can wait on.
pub trait Source {
    /// The socket's file descriptor.
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd;
}

impl Source for std::net::TcpStream {
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

impl Source for std::net::TcpListener {
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

/// The reserved token the waker's own readiness is reported under.
const WAKE: u64 = u64::MAX;

/// How long the fallback back end waits before reporting every token.
#[cfg(any(miri, not(target_os = "linux")))]
const FALLBACK_TICK: Duration = Duration::from_millis(1);

/// One thread's readiness wait set.
#[derive(Debug)]
pub struct Reactor {
    sys: sys::Poller,
    bell: Arc<sys::Bell>,
}

/// Rings a [`Reactor`] from any thread, ending its current or next
/// [`Reactor::wait`]. Wakes that land before the reactor looks coalesce
/// into one, but none is lost: a wake after the reactor consumed the
/// last one rings again.
#[derive(Debug, Clone)]
pub struct Waker(Arc<sys::Bell>);

impl Waker {
    /// Rings the reactor.
    pub fn wake(&self) {
        self.0.ring();
    }
}

impl Reactor {
    /// An empty wait set with its waker.
    ///
    /// # Errors
    ///
    /// The OS error when the wait set or the waker cannot be created.
    pub fn new() -> io::Result<Reactor> {
        let (sys, bell) = sys::Poller::new()?;
        Ok(Reactor {
            sys,
            bell: Arc::new(bell),
        })
    }

    /// A handle that rings this reactor from another thread.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.bell))
    }

    /// Adds `source` to the wait set under `token`.
    ///
    /// # Errors
    ///
    /// The OS error when the socket cannot be added.
    pub fn register(
        &mut self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let mut current = Interest::NONE;
        self.set_interest(source, token, &mut current, interest)
    }

    /// Moves `source` from the interest `current` (what was last given
    /// for it; [`Interest::NONE`] when it is not in the wait set) to
    /// `want`, then stores `want` in `current`. No system call when the
    /// two agree. [`Interest::NONE`] takes the socket out of the wait
    /// set, so a socket that has seen end of stream, or is dropped, is
    /// never reported again.
    ///
    /// # Errors
    ///
    /// The OS error when the wait set cannot be changed; `current` then
    /// keeps its old value.
    pub fn set_interest(
        &mut self,
        source: &impl Source,
        token: Token,
        current: &mut Interest,
        want: Interest,
    ) -> io::Result<()> {
        if *current == want {
            return Ok(());
        }
        debug_assert!(token as u64 != WAKE, "usize::MAX is the waker's token");
        self.sys.update(source, token, *current, want)?;
        *current = want;
        Ok(())
    }

    /// Blocks until a socket in the wait set is ready, the waker rings,
    /// or `timeout` passes (`None` waits without limit). Fills `ready`
    /// with the tokens to service (clearing it first) and returns
    /// whether the waker rang; a woken caller then looks at whatever
    /// state other threads hand it.
    ///
    /// # Errors
    ///
    /// The OS error when the wait itself fails (an interrupted wait is
    /// an empty report, not an error).
    pub fn wait(&mut self, ready: &mut Vec<Token>, timeout: Option<Duration>) -> io::Result<bool> {
        ready.clear();
        self.sys.wait(&self.bell, ready, timeout)
    }
}

/// Writes `out[*cursor..]` to a nonblocking socket until it would
/// block, advancing `cursor`, and clears `out` once all of it is written
/// (so "bytes left" is the write interest to arm). Returns the bytes
/// written.
///
/// # Errors
///
/// Any write error other than would-block or an interrupt, or a
/// zero-length write: the connection is broken.
pub fn write_buffered(
    dst: &mut impl Write,
    out: &mut Vec<u8>,
    cursor: &mut usize,
) -> io::Result<usize> {
    let start = *cursor;
    while *cursor < out.len() {
        match dst.write(&out[*cursor..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *cursor += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let written = *cursor - start;
    if *cursor == out.len() {
        out.clear();
        *cursor = 0;
    }
    Ok(written)
}

#[cfg(all(target_os = "linux", not(miri)))]
mod sys {
    //! `epoll` and `eventfd` through the C library std links.

    use std::ffi::{c_int, c_uint};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use super::{Interest, Source, Token, WAKE};

    /// `struct epoll_event`: packed on x86_64 only, as in the kernel's
    /// own definition.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }

    // The asm-generic values, shared by x86, Arm, RISC-V, PowerPC and
    // s390 (`EPOLL_CLOEXEC` and `EFD_CLOEXEC` are `O_CLOEXEC`,
    // `EFD_NONBLOCK` is `O_NONBLOCK`).
    const CLOEXEC: c_int = 0o2_000_000;
    const NONBLOCK: c_int = 0o4000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;

    /// Events drained per `epoll_wait`; more stay queued (level
    /// triggering reports them again on the next wait).
    const BATCH: usize = 256;

    /// Turns a C return value into the OS error on `-1`.
    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        epoll: OwnedFd,
        events: Vec<EpollEvent>,
    }

    /// The waker's half: an `eventfd` in the wait set plus a flag that
    /// spares the system call while a ring is still unconsumed.
    #[derive(Debug)]
    pub(super) struct Bell {
        efd: File,
        rung: AtomicBool,
    }

    impl Bell {
        pub(super) fn ring(&self) {
            if !self.rung.swap(true, Ordering::AcqRel) {
                // Only a full counter (2^64 - 2 unread wakes) could
                // refuse the write; a pending count wakes the reactor
                // either way.
                drop((&self.efd).write(&1_u64.to_ne_bytes()));
            }
        }

        /// Consumes the pending rings. The counter is reset *before* the
        /// flag is cleared: a ring racing in between either saw the flag
        /// still set (its hand-off is visible to the caller, who looks
        /// next) or finds it clear and writes the counter again.
        fn consume(&self) {
            let mut count = [0_u8; 8];
            drop((&self.efd).read(&mut count));
            self.rung.swap(false, Ordering::AcqRel);
        }
    }

    impl Poller {
        pub(super) fn new() -> io::Result<(Poller, Bell)> {
            // SAFETY: a system call on integer arguments only.
            let epoll = cvt(unsafe { epoll_create1(CLOEXEC) })?;
            // SAFETY: `epoll` was just returned by a successful call, so
            // it is open and nothing else owns it.
            let epoll = unsafe { OwnedFd::from_raw_fd(epoll) };
            // SAFETY: a system call on integer arguments only.
            let efd = cvt(unsafe { eventfd(0, CLOEXEC | NONBLOCK) })?;
            // SAFETY: as for `epoll`.
            let efd = unsafe { OwnedFd::from_raw_fd(efd) };
            let poller = Poller {
                epoll,
                events: vec![EpollEvent { events: 0, data: 0 }; BATCH],
            };
            poller.ctl(EPOLL_CTL_ADD, efd.as_raw_fd(), EPOLLIN, WAKE)?;
            let bell = Bell {
                efd: File::from(efd),
                rung: AtomicBool::new(false),
            };
            Ok((poller, bell))
        }

        fn ctl(&self, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data };
            // SAFETY: `event` is a live, properly laid out
            // `epoll_event`; the kernel only reads it.
            cvt(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) }).map(drop)
        }

        pub(super) fn update(
            &mut self,
            source: &impl Source,
            token: Token,
            from: Interest,
            to: Interest,
        ) -> io::Result<()> {
            let op = if from.is_none() {
                EPOLL_CTL_ADD
            } else if to.is_none() {
                EPOLL_CTL_DEL
            } else {
                EPOLL_CTL_MOD
            };
            let events = if to.read { EPOLLIN } else { 0 } | if to.write { EPOLLOUT } else { 0 };
            self.ctl(op, source.raw_fd(), events, token as u64)
        }

        pub(super) fn wait(
            &mut self,
            bell: &Bell,
            ready: &mut Vec<Token>,
            timeout: Option<Duration>,
        ) -> io::Result<bool> {
            let timeout_ms = timeout.map_or(-1, |t| {
                // Round up so a short timeout does not become a busy
                // zero-millisecond poll.
                c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            });
            let capacity = c_int::try_from(self.events.len()).unwrap_or(c_int::MAX);
            // SAFETY: the kernel writes at most `capacity` events, and
            // `events` holds that many initialized, writable entries.
            let n = unsafe {
                epoll_wait(
                    self.epoll.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    capacity,
                    timeout_ms,
                )
            };
            let n = match cvt(n) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(false),
                Err(e) => return Err(e),
            };
            let mut woken = false;
            for event in &self.events[..n] {
                // A by-value copy: fields of a packed struct cannot be
                // borrowed.
                let data = event.data;
                if data == WAKE {
                    woken = true;
                } else {
                    ready.push(data as Token);
                }
            }
            if woken {
                bell.consume();
            }
            Ok(woken)
        }
    }
}

#[cfg(any(miri, not(target_os = "linux")))]
mod sys {
    //! The portable fallback: a condvar bell with a timeout, then every
    //! token with interest is reported.

    use std::collections::BTreeSet;
    use std::io;
    use std::sync::{Condvar, Mutex, PoisonError};
    use std::time::Duration;

    use super::{Interest, Source, Token, FALLBACK_TICK};

    #[derive(Debug)]
    pub(super) struct Poller {
        tokens: BTreeSet<Token>,
    }

    #[derive(Debug)]
    pub(super) struct Bell {
        rung: Mutex<bool>,
        cv: Condvar,
    }

    impl Bell {
        pub(super) fn ring(&self) {
            *self.rung.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.cv.notify_one();
        }
    }

    impl Poller {
        pub(super) fn new() -> io::Result<(Poller, Bell)> {
            Ok((
                Poller {
                    tokens: BTreeSet::new(),
                },
                Bell {
                    rung: Mutex::new(false),
                    cv: Condvar::new(),
                },
            ))
        }

        pub(super) fn update(
            &mut self,
            _source: &impl Source,
            token: Token,
            _from: Interest,
            to: Interest,
        ) -> io::Result<()> {
            if to.is_none() {
                self.tokens.remove(&token);
            } else {
                self.tokens.insert(token);
            }
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            bell: &Bell,
            ready: &mut Vec<Token>,
            timeout: Option<Duration>,
        ) -> io::Result<bool> {
            let tick = timeout.map_or(FALLBACK_TICK, |t| t.min(FALLBACK_TICK));
            let mut rung = bell.rung.lock().unwrap_or_else(PoisonError::into_inner);
            if !*rung {
                rung = bell
                    .cv
                    .wait_timeout(rung, tick)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let woken = std::mem::take(&mut *rung);
            drop(rung);
            ready.extend(self.tokens.iter().copied());
            Ok(woken)
        }
    }
}

#[cfg(test)]
mod tests {
    //! The waker tests are socket-free and run under Miri against the
    //! fallback; the socket tests pin the `epoll` back end.

    use super::*;
    use std::time::Instant;

    /// Waits until the waker has rung, tolerating the fallback's ticks.
    fn wait_woken(reactor: &mut Reactor) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut ready = Vec::new();
        while Instant::now() < deadline {
            if reactor
                .wait(&mut ready, Some(Duration::from_secs(1)))
                .unwrap()
            {
                return true;
            }
        }
        false
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_blocking_wait() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let ringer = std::thread::spawn(move || {
            // Makes it likely the wait is already blocked; the test holds
            // whichever comes first.
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        assert!(wait_woken(&mut reactor), "the wake must end the wait");
        ringer.join().unwrap();
    }

    #[test]
    fn a_wake_before_the_wait_is_not_lost() {
        let mut reactor = Reactor::new().unwrap();
        reactor.waker().wake();
        let mut ready = Vec::new();
        assert!(reactor.wait(&mut ready, Some(Duration::ZERO)).unwrap());
        assert!(ready.is_empty(), "the waker is never reported as a token");
        assert!(
            !reactor.wait(&mut ready, Some(Duration::ZERO)).unwrap(),
            "the wait consumed the wake"
        );
    }

    #[test]
    fn concurrent_wakes_are_coalesced_but_never_lost() {
        let mut reactor = Reactor::new().unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let waker = reactor.waker();
                s.spawn(move || {
                    for _ in 0..25 {
                        waker.wake();
                    }
                });
            }
        });
        // 100 wakes may fold into one, but at least one must survive,
        // and once consumed none lingers.
        let mut ready = Vec::new();
        assert!(reactor.wait(&mut ready, Some(Duration::ZERO)).unwrap());
        assert!(!reactor.wait(&mut ready, Some(Duration::ZERO)).unwrap());
        // A wake after the consumption rings again.
        reactor.waker().wake();
        assert!(reactor.wait(&mut ready, Some(Duration::ZERO)).unwrap());
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    mod sockets {
        use super::super::*;
        use std::io::{ErrorKind, Read, Write};
        use std::net::{TcpListener, TcpStream};

        fn pair() -> (TcpStream, TcpStream) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            (client, server)
        }

        fn ready_within(reactor: &mut Reactor, ms: u64) -> Vec<Token> {
            let mut ready = Vec::new();
            reactor
                .wait(&mut ready, Some(Duration::from_millis(ms)))
                .unwrap();
            ready
        }

        #[test]
        fn a_socket_with_pending_bytes_is_reported_until_read() {
            let (mut client, mut server) = pair();
            let mut reactor = Reactor::new().unwrap();
            reactor.register(&server, 7, Interest::READ).unwrap();
            assert!(ready_within(&mut reactor, 0).is_empty(), "nothing sent yet");
            client.write_all(b"ping\n").unwrap();
            assert_eq!(ready_within(&mut reactor, 1000), vec![7]);
            // Level-triggered: still ready until the bytes are read.
            assert_eq!(ready_within(&mut reactor, 0), vec![7]);
            let mut buf = [0_u8; 16];
            assert_eq!(server.read(&mut buf).unwrap(), 5);
            assert!(ready_within(&mut reactor, 0).is_empty());
        }

        #[test]
        fn write_interest_fires_once_a_full_peer_drains() {
            let (mut client, mut server) = pair();
            server.set_nonblocking(true).unwrap();
            // Fill the send path until the kernel refuses more.
            let chunk = vec![b'x'; 64 * 1024];
            let mut sent = 0_usize;
            loop {
                match server.write(&chunk) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("write failed: {e}"),
                }
            }
            let mut reactor = Reactor::new().unwrap();
            let mut interest = Interest::NONE;
            let want = Interest {
                read: false,
                write: true,
            };
            reactor
                .set_interest(&server, 3, &mut interest, want)
                .unwrap();
            assert_eq!(interest, want);
            assert!(ready_within(&mut reactor, 50).is_empty(), "peer still full");
            // The peer drains everything; the send buffer empties.
            let mut buf = vec![0_u8; 64 * 1024];
            let mut got = 0_usize;
            while got < sent {
                got += client.read(&mut buf).unwrap();
            }
            assert_eq!(ready_within(&mut reactor, 1000), vec![3]);
            // Cleared write interest stops the reports.
            reactor
                .set_interest(&server, 3, &mut interest, Interest::NONE)
                .unwrap();
            assert!(ready_within(&mut reactor, 0).is_empty());
        }

        #[test]
        fn deregistered_and_closed_sockets_are_never_reported() {
            let (mut client_a, server_a) = pair();
            let (mut client_b, server_b) = pair();
            let mut reactor = Reactor::new().unwrap();
            let mut interest_a = Interest::NONE;
            reactor
                .set_interest(&server_a, 1, &mut interest_a, Interest::READ)
                .unwrap();
            reactor.register(&server_b, 2, Interest::READ).unwrap();
            reactor
                .set_interest(&server_a, 1, &mut interest_a, Interest::NONE)
                .unwrap();
            drop(server_b);
            client_a.write_all(b"a\n").unwrap();
            // The peer of a closed socket may see a reset; the bytes
            // only need to leave.
            drop(client_b.write_all(b"b\n"));
            assert!(ready_within(&mut reactor, 50).is_empty());
        }
    }
}
