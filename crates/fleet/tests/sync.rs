//! Two-replica registry reconciliation over real loopback sockets:
//! artifacts of every kind ship across, each transfer is re-hashed and
//! re-gated on the receiver, and a converged pair has *byte-identical*
//! manifests — also when a write reaches them through the router.

mod common;

use common::{raw_exchange, raw_manifest_line, PAPER_CLASSES};
use hmdiv_fleet::{sync, Router, RouterConfig};
use hmdiv_serve::{json, Client, Json, Server, ServerConfig};

fn start() -> Server {
    Server::start(ServerConfig::default()).expect("server start")
}

fn load_paper_model(client: &mut Client) -> String {
    let classes = (
        "classes".to_owned(),
        json::parse(PAPER_CLASSES).expect("static JSON"),
    );
    let receipt = client.request("load", vec![classes]).expect("load");
    receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned()
}

fn load_cohort(client: &mut Client) -> String {
    let members = (
        "members".to_owned(),
        json::parse(
            r#"[{"name":"r1","weight":2,
                 "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                            "difficult":{"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}},
                {"name":"r2","weight":1,
                 "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.10,"p_hf_given_mf":0.12},
                            "difficult":{"p_mf":0.41,"p_hf_given_ms":0.30,"p_hf_given_mf":0.55}}}]"#,
        )
        .expect("static JSON"),
    );
    let receipt = client
        .request("load_cohort", vec![members])
        .expect("load_cohort");
    receipt
        .get("model_id")
        .and_then(Json::as_str)
        .expect("receipt carries model_id")
        .to_owned()
}

#[test]
fn reconcile_converges_two_replicas_and_manifests_match_byte_for_byte() {
    let source_server = start();
    let dest_server = start();
    let mut source = Client::connect(source_server.addr()).expect("connect source");
    let mut dest = Client::connect(dest_server.addr()).expect("connect dest");

    let model_id = load_paper_model(&mut source);
    let cohort_id = load_cohort(&mut source);

    // First reconciliation ships everything the destination lacks.
    let report = sync::reconcile(&mut source, &mut dest).expect("reconcile");
    assert_eq!(report.source_total, 2);
    assert_eq!(report.already_present, 0);
    {
        let mut shipped = report.shipped.clone();
        shipped.sort();
        let mut expected = vec![model_id.clone(), cohort_id.clone()];
        expected.sort();
        assert_eq!(shipped, expected);
    }

    // Converged: the parsed manifests agree...
    let source_rows = sync::manifest_rows(&mut source).expect("source manifest");
    let dest_rows = sync::manifest_rows(&mut dest).expect("dest manifest");
    assert_eq!(source_rows, dest_rows);
    assert!(sync::diff_manifests(&source_rows, &dest_rows).is_empty());

    // ...and the raw wire replies are byte-identical, which only holds
    // because ids are content hashes and the listing is id-ordered.
    assert_eq!(
        raw_manifest_line(source_server.addr()),
        raw_manifest_line(dest_server.addr())
    );

    // A second reconciliation is a no-op: content addressing makes the
    // transfer idempotent.
    let again = sync::reconcile(&mut source, &mut dest).expect("reconcile again");
    assert!(again.shipped.is_empty());
    assert_eq!(again.already_present, 2);
    assert_eq!(again.source_total, 2);

    // The shipped model evaluates on the destination under the same id —
    // the artifact really landed, not just the listing.
    let result = dest
        .request(
            "evaluate",
            vec![
                ("model".to_owned(), Json::str(model_id)),
                (
                    "profile".to_owned(),
                    json::parse(r#"{"easy":0.9,"difficult":0.1}"#).expect("static JSON"),
                ),
            ],
        )
        .expect("evaluate on destination");
    let failure = result
        .get("failure")
        .and_then(Json::as_f64)
        .expect("failure field");
    assert!((failure - 0.18902).abs() < 1e-9);

    source_server.shutdown();
    dest_server.shutdown();
}

#[test]
fn escaped_verb_load_through_the_router_reaches_every_replica() {
    let replicas = [start(), start()];
    let router = Router::start(RouterConfig {
        backends: replicas.iter().map(Server::addr).collect(),
        ..RouterConfig::default()
    })
    .expect("router start");

    // `lo\u0061d` decodes to `load`: the router must read the verb the
    // way the replicas do and broadcast it.
    let line = format!(r#"{{"id":1,"verb":"lo\u0061d","classes":{PAPER_CLASSES}}}"#);
    let reply = json::parse(&raw_exchange(router.addr(), &line)).expect("reply is JSON");
    let model_id = reply
        .get("result")
        .and_then(|r| r.get("model_id"))
        .and_then(Json::as_str)
        .expect("load receipt");

    let first = raw_manifest_line(replicas[0].addr());
    assert!(first.contains(model_id), "replica 0 lacks the model");
    assert_eq!(raw_manifest_line(replicas[1].addr()), first);

    router.shutdown();
    for server in replicas {
        server.shutdown();
    }
}
