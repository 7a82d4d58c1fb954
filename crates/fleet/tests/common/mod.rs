//! Helpers shared by the fleet's socket-level integration tests.
// Each test binary compiles this module but uses only part of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// The paper's example model as a `load` request's `classes` member.
pub const PAPER_CLASSES: &str = r#"{"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},"difficult":{"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#;

/// Sends one request line to `addr` on a fresh connection and returns
/// the reply line, byte for byte.
pub fn raw_exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    reply
}

/// The raw single-line `manifest` reply, byte for byte.
pub fn raw_manifest_line(addr: SocketAddr) -> String {
    raw_exchange(addr, r#"{"id":1,"verb":"manifest"}"#)
}
