//! Idle loops sleep in the kernel: a server's poller shards and a
//! router, each holding open idle connections, barely wake while nothing
//! arrives, and an idle router shuts down at once. A loop that polled on
//! a timer (a 2 ms nap wakes ~125 times in 250 ms) fails here.
//!
//! One test per binary: the wakeup counters are process-wide. Linux
//! only, outside Miri: elsewhere the reactor's fallback reports every
//! socket on a timer by design.
#![cfg(all(target_os = "linux", not(miri)))]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hmdiv_fleet::{Router, RouterConfig};
use hmdiv_serve::{Server, ServerConfig};

/// Wakeups allowed per loop over the idle window.
const IDLE_WAKEUP_BOUND: u64 = 10;
const IDLE_WINDOW: Duration = Duration::from_millis(250);

fn counter(name: &str) -> u64 {
    hmdiv_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Opens `n` connections to `addr` and proves each is live with a ping.
fn idle_connections(addr: std::net::SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(format!("{{\"id\":{i},\"verb\":\"ping\"}}\n").as_bytes())
                .expect("send ping");
            let mut line = String::new();
            BufReader::new(&stream)
                .read_line(&mut line)
                .expect("read pong");
            assert!(line.contains("\"pong\":true"), "got: {line}");
            stream
        })
        .collect()
}

#[test]
fn idle_shards_and_router_sleep_until_work_arrives() {
    hmdiv_obs::set_enabled(true);
    let server = Server::start(ServerConfig {
        poller_threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let router = Router::start(RouterConfig {
        backends: vec![server.addr()],
        // No health probes inside the window: they are connections too.
        probe_interval: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .unwrap();
    let direct = idle_connections(server.addr(), 8);
    let routed = idle_connections(router.addr(), 8);

    let (shards_before, router_before) = (
        counter("serve.poll.wakeups"),
        counter("fleet.router.wakeups"),
    );
    std::thread::sleep(IDLE_WINDOW);
    let shard_wakeups = counter("serve.poll.wakeups") - shards_before;
    let router_wakeups = counter("fleet.router.wakeups") - router_before;
    assert!(
        shard_wakeups < IDLE_WAKEUP_BOUND,
        "idle poller shards woke {shard_wakeups} times in {IDLE_WINDOW:?}"
    );
    assert!(
        router_wakeups < IDLE_WAKEUP_BOUND,
        "an idle router woke {router_wakeups} times in {IDLE_WINDOW:?}"
    );

    // The connections stayed usable through the quiet spell.
    drop(idle_connections(router.addr(), 1));

    let start = Instant::now();
    router.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "idle router took {took:?} to shut down"
    );
    drop((direct, routed));
    server.shutdown();
}
