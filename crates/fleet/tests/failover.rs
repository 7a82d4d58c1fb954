//! The fleet's headline guarantee, end to end over real sockets: kill
//! one of three replicas mid-pipeline and the survivors keep answering
//! **bit-identically**; revive the replica and it is re-admitted only
//! after its registry syncs back, leaving all three manifests
//! byte-identical.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use common::{raw_exchange, raw_manifest_line, PAPER_CLASSES};
use hmdiv_fleet::{Router, RouterConfig};
use hmdiv_serve::{json, Client, Json, ServeError, Server, ServerConfig};

/// Replica config: single-threaded, ephemeral port unless pinned.
fn replica_config(addr: &str) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        threads: 1,
        poller_threads: 1,
        ..ServerConfig::default()
    }
}

/// Router config tuned for test time: fast probes, quick ejection.
fn router_config(backends: Vec<SocketAddr>) -> RouterConfig {
    RouterConfig {
        backends,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        eject_after: 2,
        readmit_after: 1,
        ..RouterConfig::default()
    }
}

/// Router config whose prober stays idle for the whole test, so every
/// ejection comes from the request path.
fn quiet_router_config(backends: Vec<SocketAddr>) -> RouterConfig {
    RouterConfig {
        backends,
        probe_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    }
}

/// A fake backend that accepts each connection, reads one request line
/// and hangs up without replying — a replica dying mid-request.
fn hang_up_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("fake backend addr");
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let mut line = String::new();
            drop(BufReader::new(stream).read_line(&mut line));
        }
    });
    addr
}

/// Loads the paper model through `router` with a raw request carrying
/// `id`, returning the parsed reply.
fn raw_load(router: SocketAddr, id: &str) -> Json {
    let line = format!(r#"{{"id":{id},"verb":"load","classes":{PAPER_CLASSES}}}"#);
    json::parse(&raw_exchange(router, &line)).expect("reply is JSON")
}

fn field_profile() -> (String, Json) {
    (
        "profile".to_owned(),
        json::parse(r#"{"easy":0.9,"difficult":0.1}"#).expect("static JSON"),
    )
}

fn evaluate_failure(client: &mut Client, model_id: &str) -> Result<f64, ServeError> {
    let result = client.request(
        "evaluate",
        vec![("model".to_owned(), Json::str(model_id)), field_profile()],
    )?;
    result
        .get("failure")
        .and_then(Json::as_f64)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "evaluate reply without failure field".to_owned(),
        })
}

/// Polls `cond` until it holds or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn killing_one_of_three_replicas_keeps_answers_bit_identical() {
    // The paper's model evaluated directly in process: the reference
    // bits every fleet answer must reproduce exactly.
    let model = hmdiv_core::paper::example_model().expect("paper model");
    let field = hmdiv_core::paper::field_profile().expect("paper profile");
    let expected = model
        .system_failure(&field)
        .expect("direct evaluation")
        .value();

    let mut replicas: Vec<Option<Server>> = (0..3)
        .map(|_| Some(Server::start(replica_config("127.0.0.1:0")).expect("replica start")))
        .collect();
    let backends: Vec<SocketAddr> = replicas
        .iter()
        .map(|r| r.as_ref().expect("just started").addr())
        .collect();
    let router = Router::start(router_config(backends.clone())).expect("router start");

    // Load the paper model through the router: the verb broadcasts, so
    // every replica admits it under the same content id.
    let mut loader = Client::connect(router.addr()).expect("connect router");
    let receipt = loader
        .request(
            "load",
            vec![(
                "classes".to_owned(),
                json::parse(PAPER_CLASSES).expect("static JSON"),
            )],
        )
        .expect("broadcast load");
    let model_id = receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned();
    for &addr in &backends {
        let mut direct = Client::connect(addr).expect("connect replica");
        let got = evaluate_failure(&mut direct, &model_id).expect("replica evaluates");
        assert_eq!(got.to_bits(), expected.to_bits(), "replica {addr} diverged");
    }

    // Baseline through the router: fresh connections land on different
    // ring keys, so this exercises more than one backend.
    for _ in 0..12 {
        let mut client = Client::connect(router.addr()).expect("connect router");
        let got = evaluate_failure(&mut client, &model_id).expect("routed evaluate");
        assert_eq!(got.to_bits(), expected.to_bits());
    }

    // Kill replica 1 mid-pipeline. Until the prober ejects it, a fresh
    // connection that hashes onto it gets the *typed* failover error —
    // never a hang, never a garbled reply; everything that succeeds is
    // still bit-identical.
    let killed_addr = backends[1];
    replicas[1].take().expect("replica 1 running").shutdown();
    let mut unavailable = 0_u32;
    for _ in 0..30 {
        let mut client = Client::connect(router.addr()).expect("connect router");
        match evaluate_failure(&mut client, &model_id) {
            Ok(got) => assert_eq!(got.to_bits(), expected.to_bits()),
            Err(ServeError::Remote { code, .. }) => {
                assert_eq!(code, "backend_unavailable");
                unavailable += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // The error is transitional: once ejected, the dead replica leaves
    // the ring and every request re-hashes to the survivors.
    wait_for("ejection of replica 1", Duration::from_secs(10), || {
        !router.fleet().is_healthy(1)
    });
    assert!(router.fleet().is_healthy(0));
    assert!(router.fleet().is_healthy(2));
    for _ in 0..12 {
        let mut client = Client::connect(router.addr()).expect("connect router");
        let got = evaluate_failure(&mut client, &model_id).expect("survivor evaluate");
        assert_eq!(got.to_bits(), expected.to_bits());
    }
    // (Whether any request raced into the kill window is timing-luck;
    // the assertion above is that *if* one did, it failed typed.)
    let _ = unavailable;

    // Revive the replica on its old address with an EMPTY registry. The
    // prober re-admits it only after syncing the registry back from a
    // healthy peer, so once it is healthy it must already hold the model.
    let revived = Server::start(replica_config(&killed_addr.to_string())).expect("revive");
    assert_eq!(revived.addr(), killed_addr);
    replicas[1] = Some(revived);
    wait_for("re-admission of replica 1", Duration::from_secs(10), || {
        router.fleet().is_healthy(1)
    });

    // The synced-back replica's manifest is byte-identical to its peers'.
    let reference = raw_manifest_line(backends[0]);
    assert!(reference.contains(&model_id));
    for &addr in &backends[1..] {
        assert_eq!(raw_manifest_line(addr), reference, "manifest of {addr}");
    }

    // And the revived replica answers with the same bits as everyone.
    let mut direct = Client::connect(killed_addr).expect("connect revived");
    let got = evaluate_failure(&mut direct, &model_id).expect("revived evaluates");
    assert_eq!(got.to_bits(), expected.to_bits());
    for _ in 0..12 {
        let mut client = Client::connect(router.addr()).expect("connect router");
        let got = evaluate_failure(&mut client, &model_id).expect("routed evaluate");
        assert_eq!(got.to_bits(), expected.to_bits());
    }

    router.shutdown();
    for server in replicas.into_iter().flatten() {
        server.shutdown();
    }
}

#[test]
fn shutdown_verb_through_the_router_drains_the_whole_fleet() {
    let replicas: Vec<Server> = (0..2)
        .map(|_| Server::start(replica_config("127.0.0.1:0")).expect("replica start"))
        .collect();
    let backends: Vec<SocketAddr> = replicas.iter().map(Server::addr).collect();
    let router = Router::start(router_config(backends)).expect("router start");

    let mut client = Client::connect(router.addr()).expect("connect router");
    let reply = client.request("shutdown", Vec::new()).expect("shutdown");
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));

    // Both replicas and the router drain without being asked again.
    for server in replicas {
        server.join();
    }
    router.join();
}

#[test]
fn broadcast_leg_that_dies_echoes_the_client_id() {
    let router = Router::start(quiet_router_config(vec![hang_up_backend()])).expect("router start");
    let reply = raw_load(router.addr(), r#""load-7""#);
    assert_eq!(reply.get("id"), Some(&Json::str("load-7")));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("backend_unavailable")
    );
    router.shutdown();
}

#[test]
fn partial_broadcast_ejects_the_failed_leg() {
    let replica = Server::start(replica_config("127.0.0.1:0")).expect("replica start");
    let router = Router::start(quiet_router_config(vec![replica.addr(), hang_up_backend()]))
        .expect("router start");
    // The live replica admits the model, so the client sees its success...
    let reply = raw_load(router.addr(), "3");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    // ...and the leg that died has missed the write: it leaves the ring
    // at once instead of serving `unknown_model` for the new id.
    assert!(
        !router.fleet().is_healthy(1),
        "failed leg still in rotation"
    );
    assert!(router.fleet().is_healthy(0));
    router.shutdown();
    replica.shutdown();
}
