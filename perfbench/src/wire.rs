//! The benchmark's own closed-loop client: one blocking socket per
//! connection, one request in flight, a timestamp around each call, and
//! an oracle check on every reply.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmdiv_serve::Json;

/// One blocking JSON-lines connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Length of the last reply at the front of `buf`, newline included.
    reply_len: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            reply_len: 0,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Sends one line and blocks until its whole reply line has arrived.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.buf.drain(..self.reply_len);
        self.reply_len = 0;
        self.stream.write_all(line.as_bytes())?;
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                self.reply_len = scanned + pos + 1;
                return std::str::from_utf8(&self.buf[..self.reply_len])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            scanned = self.buf.len();
            let old = self.buf.len();
            self.buf.resize(old + 64 * 1024, 0);
            let n = self.stream.read(&mut self.buf[old..])?;
            self.buf.truncate(old + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }

    /// Sends one line and returns its parsed `result` member, or an error
    /// describing a transport failure or an `ok:false` reply.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.call(line).map_err(|e| e.to_string())?;
        let parsed = hmdiv_serve::json::parse(reply.trim_end()).map_err(|e| e.to_string())?;
        if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request failed: {}", reply.trim_end()));
        }
        parsed
            .get("result")
            .cloned()
            .ok_or_else(|| "reply has no result".to_owned())
    }
}

/// The value a reply must carry.
#[derive(Debug, Clone)]
pub enum Value {
    /// `result.failure`, compared by `f64::to_bits`.
    Failure(f64),
    /// `result.failures`, element-wise by `f64::to_bits`.
    Failures(Arc<[f64]>),
    /// `result.model_id` of a `load`.
    ModelId(String),
}

/// An oracle for one request: the expected reply bytes when they are
/// known, and the value the reply must carry either way.
#[derive(Debug, Clone)]
pub struct Expect {
    pub reply: Option<Arc<str>>,
    pub value: Value,
}

impl Expect {
    /// Whether `reply` is correct. Byte equality with the expected line
    /// is the fast path; any other reply is parsed and its value compared
    /// bit for bit, so a change of rendering alone is not a failure.
    pub fn check(&self, reply: &str) -> bool {
        let Some(want) = self.reply.as_deref() else {
            return self.check_value(reply);
        };
        if want == reply {
            return true;
        }
        match strip_trace_id(reply) {
            Some(stripped) if stripped == want => true,
            _ => self.check_value(reply),
        }
    }

    pub fn check_value(&self, reply: &str) -> bool {
        let Ok(parsed) = hmdiv_serve::json::parse(reply.trim_end()) else {
            return false;
        };
        if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return false;
        }
        let Some(result) = parsed.get("result") else {
            return false;
        };
        match &self.value {
            Value::Failure(want) => result
                .get("failure")
                .and_then(Json::as_f64)
                .is_some_and(|got| got.to_bits() == want.to_bits()),
            Value::Failures(want) => {
                result
                    .get("failures")
                    .and_then(Json::as_arr)
                    .is_some_and(|got| {
                        got.len() == want.len()
                            && got.iter().zip(want.iter()).all(|(g, w)| {
                                g.as_f64().is_some_and(|g| g.to_bits() == w.to_bits())
                            })
                    })
            }
            Value::ModelId(want) => {
                result.get("model_id").and_then(Json::as_str) == Some(want.as_str())
            }
        }
    }
}

/// The reply without the `"trace_id":"…",` envelope member a tracing
/// server adds, or `None` when it carries none.
pub fn strip_trace_id(reply: &str) -> Option<String> {
    const KEY: &str = "\"trace_id\":\"";
    let start = reply.find(KEY)?;
    let close = start + KEY.len() + reply[start + KEY.len()..].find('"')?;
    let end = if reply[close + 1..].starts_with(',') {
        close + 2
    } else {
        close + 1
    };
    Some(format!("{}{}", &reply[..start], &reply[end..]))
}

/// Whether an operation reads or writes server state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One request of a stream with its oracle.
#[derive(Debug, Clone)]
pub struct Op {
    pub line: Arc<str>,
    pub expect: Expect,
    pub kind: Kind,
}

/// What one client thread measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-request latencies of reads, in nanoseconds.
    pub reads_ns: Vec<u64>,
    /// Per-request latencies of writes, in nanoseconds.
    pub writes_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Client-thread CPU over the loop, in nanoseconds.
    pub cpu_ns: u64,
    /// Wall time of the loop.
    pub wall: Duration,
    /// `(start offset, duration)` of each request when spans are on.
    pub spans: Vec<(u64, u64)>,
}

impl Tally {
    /// Every timed latency, reads then writes, in nanoseconds.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.reads_ns
            .iter()
            .chain(&self.writes_ns)
            .copied()
            .collect()
    }

    pub fn merge(&mut self, other: Tally) {
        self.reads_ns.extend(other.reads_ns);
        self.writes_ns.extend(other.writes_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cpu_ns += other.cpu_ns;
        self.wall = self.wall.max(other.wall);
        self.spans.extend(other.spans);
    }
}

/// How one timed request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Correct reply after this many nanoseconds.
    Ok(u64),
    /// The reply failed its oracle.
    Mismatch,
    /// The connection failed.
    Transport,
}

/// Sends one request, times it from send until the whole reply has
/// arrived, and checks the reply. Returns the send instant too.
pub fn timed(conn: &mut Conn, op: &Op) -> (Instant, Outcome) {
    let sent = Instant::now();
    let reply = conn.call(&op.line);
    let done = Instant::now();
    let outcome = match reply {
        Err(_) => Outcome::Transport,
        Ok(reply) if op.expect.check(reply) => {
            Outcome::Ok(u64::try_from((done - sent).as_nanos()).unwrap_or(u64::MAX))
        }
        Ok(_) => Outcome::Mismatch,
    };
    (sent, outcome)
}

impl Tally {
    /// Records one request; returns whether the connection is still usable.
    pub fn record(
        &mut self,
        kind: Kind,
        sent: Instant,
        outcome: Outcome,
        epoch: Option<Instant>,
    ) -> bool {
        self.attempted += 1;
        match outcome {
            Outcome::Ok(ns) => {
                if let Some(epoch) = epoch {
                    let offset = u64::try_from((sent - epoch).as_nanos()).unwrap_or(u64::MAX);
                    self.spans.push((offset, ns));
                }
                match kind {
                    Kind::Read => self.reads_ns.push(ns),
                    Kind::Write => self.writes_ns.push(ns),
                }
                true
            }
            Outcome::Mismatch => {
                self.failed += 1;
                true
            }
            Outcome::Transport => {
                self.failed += 1;
                false
            }
        }
    }
}

/// Runs one connection's closed loop while `running()` holds: send the
/// next request only when the previous reply has arrived, time it, check
/// it. A transport error ends the loop. With `spans`, each request's span
/// is kept relative to `epoch`.
pub fn drive(
    conn: &mut Conn,
    mut next: impl FnMut() -> Op,
    running: impl Fn() -> bool,
    epoch: Instant,
    spans: bool,
) -> Tally {
    let mut tally = Tally::default();
    let cpu0 = crate::sys::thread_cpu_ns();
    let start = Instant::now();
    while running() {
        let op = next();
        let (sent, outcome) = timed(conn, &op);
        if !tally.record(op.kind, sent, outcome, spans.then_some(epoch)) {
            break;
        }
    }
    tally.wall = start.elapsed();
    tally.cpu_ns = crate::sys::thread_cpu_ns().saturating_sub(cpu0);
    tally
}

#[cfg(test)]
mod tests {
    use super::strip_trace_id;

    #[test]
    fn strips_the_trace_id_member_only() {
        let traced = "{\"id\":3,\"trace_id\":\"00000000000000ab\",\"ok\":true,\"result\":{\"failure\":0.5}}\n";
        assert_eq!(
            strip_trace_id(traced).as_deref(),
            Some("{\"id\":3,\"ok\":true,\"result\":{\"failure\":0.5}}\n")
        );
        assert_eq!(strip_trace_id("{\"id\":3,\"ok\":true}\n"), None);
    }
}
