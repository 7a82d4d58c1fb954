//! One measuring run: set up, measure, check, and report.

use std::time::{Duration, Instant};

use hmdiv_serve::Json;

use crate::gen::{ModelSpec, Rng};
use crate::offline::{self, Offline};
use crate::serving::{self, Inputs, Serving, Topology};
use crate::stats::{interquartile_mean, median, percentile};
use crate::wire::{self, Conn, Op, Tally};
use crate::{layers, sys, Args};

pub const WORKLOADS: [&str; 4] = [
    "evaluate_direct",
    "sweep_direct",
    "fleet_mixed",
    "paper_offline",
];

/// Seconds of one window of an untraced run. Each window runs on a fresh
/// set-up; the end-to-end metrics are interquartile means over the
/// windows, which damps the scheduling regime one set-up happens to
/// fall into, and `setup_s` is the median set-up.
const WINDOW_SECONDS: f64 = 2.0;

/// Seconds of the direct closed loop that gives `fleet_mixed` its L2 rung.
const RUNG_SECONDS: f64 = 1.0;

/// `load`s timed through the router, and directly on a replica.
const BROADCAST_PROBES: usize = 50;

/// The server stages a flight-recorder record carries.
const STAGES: [&str; 7] = [
    "read",
    "parse",
    "queue",
    "batch",
    "eval",
    "serialize",
    "write",
];

/// Every per-layer metric with its unit, in report order. A traced run
/// reports 0 for a metric whose layer is not on its workload's path.
const LAYER_METRICS: [(&str, &str); 37] = [
    ("core.compiled.eval_ns", "ns"),
    ("core.compiled.sweep_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.write_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.batcher.submit_wait_us", "us"),
    ("serve.batch_size.mean", "count"),
    ("serve.stage.queue_us", "us"),
    ("serve.stage.batch_us", "us"),
    ("serve.stage.eval_us", "us"),
    ("serve.server.rtt_us", "us"),
    ("serve.stage.read_us", "us"),
    ("serve.stage.parse_us", "us"),
    ("serve.stage.serialize_us", "us"),
    ("serve.stage.write_us", "us"),
    ("serve.request_us", "us"),
    ("serve.discovery_gap_us", "us"),
    ("serve.poll.wakeups_per_op", "count"),
    ("fleet.router.hop_us", "us"),
    ("fleet.router.broadcast_us", "us"),
    ("fleet.backend_ejections", "count"),
    ("serve.registry.load_us", "us"),
    ("analyze.admit_us", "us"),
    ("serve.registry.len", "count"),
    ("obs.counter_add_ns", "ns"),
    ("obs.observe_ns", "ns"),
    ("sim.engine.cases_per_s", "1/s"),
    ("rbd.monte_carlo.samples_per_s", "1/s"),
    ("core.design.allocate_ms", "ms"),
    ("core.design.evaluated_share", "share"),
    ("prob.par.worker_busy_share", "share"),
    ("client.busy_share", "share"),
    ("host.steal_share", "share"),
    ("ledger.residual_us", "us"),
    ("ledger.residual_share", "share"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_share", "share"),
];

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50_us(tally: &Tally) -> f64 {
    us(percentile(&mut tally.latencies_ns(), 0.5))
}

/// Everything a run produces.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Failures of end-of-run oracles (not per-request).
    check_failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Workload parameters and sample counts.
    params: Vec<(String, Json)>,
    /// `(layer, self time in µs)` rows of the ledger, client p50 last.
    ledger: Vec<(&'static str, f64)>,
    /// `(name, start offset, duration)` in nanoseconds.
    spans: Vec<(&'static str, u64, u64)>,
}

impl Report {
    fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }

    /// Runs the end-of-run fleet oracles; each counts as an operation,
    /// so a divergence between replicas lowers `ok_share`.
    fn fleet_checks(&mut self, inputs: &Inputs, topo: &mut Topology) {
        let (failed, attempted) = serving::fleet_checks(inputs, topo);
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.check_failures.push(format!(
                "{failed} of {attempted} fleet consistency checks failed"
            ));
        }
    }
}

fn serving_kind(name: &str) -> Option<Serving> {
    match name {
        "evaluate_direct" => Some(Serving::EvaluateDirect),
        "sweep_direct" => Some(Serving::SweepDirect),
        "fleet_mixed" => Some(Serving::FleetMixed),
        _ => None,
    }
}

/// Runs the workload `args` names and returns the result line and
/// whether every check passed.
pub fn run(args: &Args) -> Result<(String, bool), String> {
    // Metric updates stay on in every run, as in `repro serve --metrics`.
    hmdiv_obs::set_enabled(true);
    let started = Instant::now();
    let mut report = match serving_kind(&args.workload) {
        Some(kind) if args.trace => serving_traced(kind, args)?,
        Some(kind) => serving_untraced(kind, args)?,
        None if args.trace => offline_traced(args)?,
        None => offline_untraced(args)?,
    };
    report.params.push((
        "elapsed_s".to_owned(),
        Json::Num(started.elapsed().as_secs_f64()),
    ));
    let correct = report.failed == 0 && report.check_failures.is_empty();
    let file = write_result(args, &report, correct)?;
    print_human(args, &report, correct, &file);
    let mut line = String::new();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(report.attempted as f64)),
        ("failed".to_owned(), Json::Num(report.failed as f64)),
        ("metrics".to_owned(), metrics_json(&report.metrics)),
    ])
    .write(&mut line);
    Ok((line, correct))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|x| {
                (
                    x.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(x.value)),
                        ("unit".to_owned(), Json::str(x.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The per-layer metrics in [`LAYER_METRICS`] order from the values a
/// traced run measured.
fn layer_metrics(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            m(name, value, unit)
        })
        .collect()
}

/// Sets up the workload; returns the topology and the set-up's duration
/// in seconds.
fn timed_setup(
    kind: Serving,
    inputs: &mut Inputs,
    traced: bool,
) -> Result<(Topology, f64), String> {
    let t = Instant::now();
    let topo = serving::setup(kind, inputs, traced)?;
    Ok((topo, t.elapsed().as_secs_f64()))
}

fn serving_params(kind: Serving, args: &Args) -> Vec<(String, Json)> {
    let mut p = vec![
        (
            "connections".to_owned(),
            Json::Num(serving::CONNECTIONS as f64),
        ),
        ("in_flight_per_connection".to_owned(), Json::Num(1.0)),
        ("loop".to_owned(), Json::str("closed")),
        ("seconds".to_owned(), Json::Num(args.seconds)),
    ];
    let threads = serving::server_threads(kind) as f64;
    match kind {
        Serving::EvaluateDirect => {
            p.push(("server_threads".to_owned(), Json::Num(threads)));
            p.push(("models".to_owned(), Json::Num(serving::EVAL_MODELS as f64)));
        }
        Serving::SweepDirect => {
            p.push(("server_threads".to_owned(), Json::Num(threads)));
            p.push((
                "scenarios_per_request".to_owned(),
                Json::Num(serving::SWEEP_SCENARIOS as f64),
            ));
            p.push((
                "model_classes".to_owned(),
                Json::Num(serving::SWEEP_CLASSES as f64),
            ));
        }
        Serving::FleetMixed => {
            p.push(("replicas".to_owned(), Json::Num(2.0)));
            p.push(("replica_threads".to_owned(), Json::Num(threads)));
            p.push((
                "write_share".to_owned(),
                Json::Num(1.0 / serving::WRITE_EVERY as f64),
            ));
        }
    }
    p
}

/// One measured window of an untraced run.
#[derive(Debug)]
struct WindowStats {
    throughput: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    write_p50_us: f64,
    cpu_us_per_op: f64,
}

/// What the windows of an untraced run add up to.
#[derive(Debug, Default)]
struct Windows {
    stats: Vec<WindowStats>,
    setups: Vec<f64>,
    /// Peak resident set after the first set-up and warm-up.
    rss_mib: f64,
    samples: usize,
    writes_ns: Vec<u64>,
    steal_share: Vec<f64>,
    client_cpu_ns: u64,
    client_wall_s: f64,
}

impl Windows {
    fn add(&mut self, tally: &Tally, process_cpu_ns: u64, steal_share: f64, report: &mut Report) {
        report.count(tally);
        let mut all = tally.latencies_ns();
        let mut writes_ns = tally.writes_ns.clone();
        let ops = all.len() as f64;
        self.samples += all.len();
        self.writes_ns.extend(&writes_ns);
        self.client_cpu_ns += tally.cpu_ns;
        self.client_wall_s += tally.wall.as_secs_f64();
        self.stats.push(WindowStats {
            throughput: ops / tally.wall.as_secs_f64().max(1e-9),
            p50_us: us(percentile(&mut all, 0.5)),
            p90_us: us(percentile(&mut all, 0.9)),
            p99_us: us(percentile(&mut all, 0.99)),
            write_p50_us: us(percentile(&mut writes_ns, 0.5)),
            cpu_us_per_op: process_cpu_ns as f64 / 1e3 / ops.max(1.0),
        });
        self.steal_share.push(steal_share);
    }

    /// The end-to-end metrics: interquartile means over the windows.
    /// `write_latency_p50_us` is the p50 over every window's writes; a
    /// workload without writes repeats `latency_p50_us` there, since every
    /// result carries every end-to-end metric.
    fn report(mut self, report: &mut Report, clients: usize) {
        let iqm = |f: fn(&WindowStats) -> f64| {
            interquartile_mean(&self.stats.iter().map(f).collect::<Vec<_>>())
        };
        let ok_share = if report.attempted == 0 {
            0.0
        } else {
            1.0 - report.failed as f64 / report.attempted as f64
        };
        let p50 = iqm(|s| s.p50_us);
        let (write_p50, write_source) = if self.writes_ns.is_empty() {
            (p50, "latency_p50_us: the workload sends no writes")
        } else {
            (us(percentile(&mut self.writes_ns, 0.5)), "writes")
        };
        report.metrics = vec![
            m("throughput_ops_s", iqm(|s| s.throughput), "1/s"),
            m("latency_p50_us", p50, "us"),
            m("latency_p90_us", iqm(|s| s.p90_us), "us"),
            m("write_latency_p50_us", write_p50, "us"),
            m("ok_share", ok_share, "share"),
            m("cpu_us_per_op", iqm(|s| s.cpu_us_per_op), "us"),
            m("setup_s", median(&self.setups), "s"),
            m("peak_rss_mib", self.rss_mib, "MiB"),
        ];
        let list = |values: Vec<f64>| Json::Arr(values.into_iter().map(Json::Num).collect());
        let per_window = |f: fn(&WindowStats) -> f64| list(self.stats.iter().map(f).collect());
        let busy =
            self.client_cpu_ns as f64 / 1e9 / (self.client_wall_s * clients as f64).max(1e-9);
        report.params.extend([
            // The p99 is kept beside the bounded metrics: on a shared host
            // its spread across seeds follows the host's stalls.
            ("latency_p99_us".to_owned(), Json::Num(iqm(|s| s.p99_us))),
            ("windows".to_owned(), Json::Num(self.stats.len() as f64)),
            ("latency_samples".to_owned(), Json::Num(self.samples as f64)),
            (
                "write_latency_samples".to_owned(),
                Json::Num(self.writes_ns.len() as f64),
            ),
            ("write_latency_source".to_owned(), Json::str(write_source)),
            (
                "window_throughput_ops_s".to_owned(),
                per_window(|s| s.throughput),
            ),
            ("window_latency_p50_us".to_owned(), per_window(|s| s.p50_us)),
            ("window_latency_p90_us".to_owned(), per_window(|s| s.p90_us)),
            ("window_latency_p99_us".to_owned(), per_window(|s| s.p99_us)),
            (
                "window_write_latency_p50_us".to_owned(),
                per_window(|s| s.write_p50_us),
            ),
            (
                "window_host_steal_share".to_owned(),
                list(self.steal_share.clone()),
            ),
            ("setup_samples_s".to_owned(), list(self.setups.clone())),
            ("client_busy_share".to_owned(), Json::Num(busy)),
        ]);
    }
}

/// Windows of an untraced run of `seconds`: at least 5.
fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_SECONDS).round() as usize).max(5)
}

fn serving_untraced(kind: Serving, args: &Args) -> Result<Report, String> {
    let mut inputs = Inputs::generate(args.seed);
    let mut report = Report {
        params: serving_params(kind, args),
        ..Report::default()
    };
    let mut w = Windows::default();
    let n = windows(args.seconds);
    for i in 0..n {
        let (mut topo, setup) = timed_setup(kind, &mut inputs, false)?;
        w.setups.push(setup);
        if i == 0 {
            w.rss_mib = sys::peak_rss_mib();
        }
        let ticks = sys::cpu_ticks();
        let window = serving::closed_loop(kind, &inputs, &mut topo, args.seconds / n as f64, false);
        let steal = sys::steal_share(ticks);
        if kind == Serving::FleetMixed {
            report.fleet_checks(&inputs, &mut topo);
        }
        topo.shutdown();
        w.add(&window.tally, window.process_cpu_ns, steal, &mut report);
    }
    w.report(&mut report, serving::CONNECTIONS);
    Ok(report)
}

fn hist_mean(snap: &hmdiv_obs::Snapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64)
}

fn counter(snap: &hmdiv_obs::Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// Sequential round trips of `ops` on one connection.
fn round_trips(conn: &mut Conn, ops: &[Op]) -> Tally {
    let mut tally = Tally::default();
    for op in ops {
        let (sent, outcome) = wire::timed(conn, op);
        tally.record(op.kind, sent, outcome, None);
    }
    tally
}

/// Drains every server's flight recorder through the `trace` verb and
/// returns the p50 of each stage and of queue+batch+eval (the span
/// `serve.request` covers), in µs, with the record count.
fn recorded_stages(topo: &Topology) -> Result<(Vec<f64>, f64, usize), String> {
    let mut per_stage: Vec<Vec<u64>> = vec![Vec::new(); STAGES.len()];
    let mut request: Vec<u64> = Vec::new();
    let mut records = 0;
    for server in &topo.servers {
        let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
        let result = conn.request(&crate::gen::request_line(1, "trace", Vec::new()))?;
        for record in result.get("records").and_then(Json::as_arr).unwrap_or(&[]) {
            records += 1;
            let stages = record.get("stages");
            let dur = |name: &str| -> Option<u64> {
                stages?.get(name)?.get("dur_ns")?.as_f64().map(|v| v as u64)
            };
            for (i, name) in STAGES.iter().enumerate() {
                if let Some(d) = dur(name) {
                    per_stage[i].push(d);
                }
            }
            if let (Some(q), Some(b), Some(e)) = (dur("queue"), dur("batch"), dur("eval")) {
                request.push(q + b + e);
            }
        }
    }
    let p50s = per_stage
        .iter_mut()
        .map(|v| us(percentile(v, 0.5)))
        .collect();
    Ok((p50s, us(percentile(&mut request, 0.5)), records))
}

/// A traced serving run: half its time untraced on one topology (the
/// tracing-overhead baseline and the socket rungs), half on a topology
/// with request tracing on, then the in-process rungs.
fn serving_traced(kind: Serving, args: &Args) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let ticks = sys::cpu_ticks();
    let mut inputs = Inputs::generate(args.seed);
    let mut report = Report {
        params: serving_params(kind, args),
        ..Report::default()
    };

    let (mut topo, _) = timed_setup(kind, &mut inputs, false)?;
    let plain = serving::closed_loop(kind, &inputs, &mut topo, half, false);
    report.count(&plain.tally);
    let plain_p50 = p50_us(&plain.tally);
    let client_busy = plain.tally.cpu_ns as f64
        / 1e9
        / plain.tally.wall.as_secs_f64().max(1e-9)
        / serving::CONNECTIONS as f64;
    // L2: the untraced closed-loop p50, or for the fleet a direct closed
    // loop on the replicas under the same load shape as the routed reads.
    let (mut l2, mut hop, mut broadcast) = (plain_p50, 0.0, 0.0);
    if kind == Serving::FleetMixed {
        let l3 = us(percentile(&mut plain.tally.reads_ns.clone(), 0.5));
        let direct = serving::direct_loop(&inputs, &topo, RUNG_SECONDS)?;
        report.count(&direct);
        l2 = p50_us(&direct);
        hop = l3 - l2;
        broadcast = broadcast_probe(&inputs, &mut topo, &mut report)?;
        report.fleet_checks(&inputs, &mut topo);
    }
    let registry_len = topo.servers[0].registry().len() as f64;
    topo.shutdown();

    let (mut topo, _) = timed_setup(kind, &mut inputs, true)?;
    hmdiv_obs::reset();
    let traced = serving::closed_loop(kind, &inputs, &mut topo, half, true);
    report.count(&traced.tally);
    let snap = hmdiv_obs::snapshot();
    let (stages, request_us, records) = recorded_stages(&topo)?;
    topo.shutdown();
    let ops = traced.tally.latencies_ns().len() as f64;
    let client_p50 = p50_us(&traced.tally);

    let threads = serving::server_threads(kind);
    let eval_ns = layers::eval_ns(&inputs);
    let sweep_us = layers::sweep_us(&inputs, threads);
    let (parse, write, decode) = layers::codec_us(kind, &inputs);
    let l1 = layers::submit_wait_us(kind, &inputs, threads);
    // Only `fleet_mixed` writes, so only it times the registry layers.
    let (load_us, admit_us) = if kind == Serving::FleetMixed {
        layers::registry_us(&inputs)
    } else {
        (0.0, 0.0)
    };
    let (counter_ns, observe_ns) = layers::obs_ns();

    let stage = |name: &str| stages[STAGES.iter().position(|s| *s == name).expect("known stage")];
    let kernel_us = if kind == Serving::SweepDirect {
        sweep_us
    } else {
        eval_ns / 1e3
    };
    report.ledger = vec![
        ("core.compiled", kernel_us),
        (
            "serve.batcher",
            stage("queue") + stage("batch") + stage("eval") - kernel_us,
        ),
        ("serve.protocol", stage("parse")),
        (
            "serve.server",
            stage("read") + stage("serialize") + stage("write"),
        ),
        ("fleet.router", hop),
    ];
    let residual = client_p50 - report.ledger.iter().map(|(_, v)| v).sum::<f64>();
    report.ledger.push(("residual", residual));
    report.ledger.push(("client.latency_p50", client_p50));
    report.spans = traced
        .tally
        .spans
        .iter()
        .take(20_000)
        .map(|(start, dur)| ("client.request", *start, *dur))
        .collect();
    report.params.extend([
        (
            "untraced_latency_samples".to_owned(),
            Json::Num(plain.tally.latencies_ns().len() as f64),
        ),
        ("untraced_latency_p50_us".to_owned(), Json::Num(plain_p50)),
        ("traced_latency_samples".to_owned(), Json::Num(ops)),
        ("flight_records".to_owned(), Json::Num(records as f64)),
        ("l1_us".to_owned(), Json::Num(l1)),
        ("l2_us".to_owned(), Json::Num(l2)),
    ]);
    report.metrics = layer_metrics(&[
        ("core.compiled.eval_ns", eval_ns),
        ("core.compiled.sweep_us", sweep_us),
        ("serve.json.parse_us", parse),
        ("serve.json.write_us", write),
        ("serve.protocol.decode_us", decode),
        ("serve.batcher.submit_wait_us", l1),
        (
            "serve.batch_size.mean",
            hist_mean(&snap, "serve.batch_size"),
        ),
        ("serve.stage.queue_us", stage("queue")),
        ("serve.stage.batch_us", stage("batch")),
        ("serve.stage.eval_us", stage("eval")),
        ("serve.server.rtt_us", l2 - l1),
        ("serve.stage.read_us", stage("read")),
        ("serve.stage.parse_us", stage("parse")),
        ("serve.stage.serialize_us", stage("serialize")),
        ("serve.stage.write_us", stage("write")),
        ("serve.request_us", request_us),
        ("serve.discovery_gap_us", client_p50 - request_us),
        (
            "serve.poll.wakeups_per_op",
            counter(&snap, "serve.poll.wakeups") / ops.max(1.0),
        ),
        ("fleet.router.hop_us", hop),
        ("fleet.router.broadcast_us", broadcast),
        (
            "fleet.backend_ejections",
            counter(&snap, "fleet.backend_ejections"),
        ),
        ("serve.registry.load_us", load_us),
        ("analyze.admit_us", admit_us),
        ("serve.registry.len", registry_len),
        ("obs.counter_add_ns", counter_ns),
        ("obs.observe_ns", observe_ns),
        ("client.busy_share", client_busy),
        ("host.steal_share", sys::steal_share(ticks)),
        ("ledger.residual_us", residual),
        ("ledger.residual_share", residual / client_p50.max(1e-9)),
        ("trace.overhead_us", client_p50 - plain_p50),
        (
            "trace.overhead_share",
            (client_p50 - plain_p50) / plain_p50.max(1e-9),
        ),
    ]);
    Ok(report)
}

/// `fleet.router.broadcast_us`: p50 of a `load` through the router minus
/// p50 of a direct `load` on one replica. Each direct load is repeated on
/// the other replica (untimed) so the registries stay converged.
fn broadcast_probe(
    inputs: &Inputs,
    topo: &mut Topology,
    report: &mut Report,
) -> Result<f64, String> {
    let mut rng = Rng::new(inputs.seed, 8000);
    let mut fresh = |tag: &str| -> Vec<Op> {
        (0..BROADCAST_PROBES)
            .map(|i| {
                let spec = ModelSpec::generate(&mut rng, &format!("{tag}{i}c"), 6);
                serving::load_op(i as u64 + 1, &spec)
            })
            .collect()
    };
    let routed = fresh("b");
    let direct = fresh("d");
    let through = round_trips(&mut topo.conns[0], &routed);
    let mut replicas: Vec<Conn> = topo
        .servers
        .iter()
        .map(|s| Conn::connect(s.addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let first = round_trips(&mut replicas[0], &direct);
    let second = round_trips(&mut replicas[1], &direct);
    for tally in [&through, &first, &second] {
        report.count(tally);
    }
    Ok(p50_us(&through) - p50_us(&first))
}

fn offline_params(args: &Args) -> Vec<(String, Json)> {
    vec![
        ("threads".to_owned(), Json::Num(offline::THREADS as f64)),
        ("sim_cases".to_owned(), Json::Num(offline::SIM_CASES as f64)),
        (
            "mc_samples".to_owned(),
            Json::Num(offline::MC_SAMPLES as f64),
        ),
        (
            "design_classes".to_owned(),
            Json::Num(offline::DESIGN_CLASSES as f64),
        ),
        (
            "design_budget".to_owned(),
            Json::Num(offline::BUDGET as f64),
        ),
        ("loop".to_owned(), Json::str("closed, one pass at a time")),
        ("seconds".to_owned(), Json::Num(args.seconds)),
    ]
}

/// What a stretch of offline passes measured.
#[derive(Debug, Default)]
struct OfflineRun {
    tally: Tally,
    process_cpu_ns: u64,
    stats: offline::PassStats,
    /// Per step (see [`offline::STEPS`]): `(start offset, duration)` in ns.
    steps: [Vec<(u64, u64)>; 4],
}

/// Times passes for `seconds`, one at a time, keeping each step's span.
fn offline_loop(off: &Offline, seconds: f64) -> OfflineRun {
    let mut run = OfflineRun::default();
    let cpu0 = sys::process_cpu_ns();
    let thread_cpu0 = sys::thread_cpu_ns();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let ns = |a: Instant, b: Instant| u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX);
    while Instant::now() < until {
        run.tally.attempted += 1;
        match off.pass() {
            Ok((stats, marks)) => {
                run.tally.reads_ns.push(ns(marks[0], marks[4]));
                for (i, step) in run.steps.iter_mut().enumerate() {
                    step.push((ns(start, marks[i]), ns(marks[i], marks[i + 1])));
                }
                run.stats = stats;
            }
            Err(e) => {
                eprintln!("paper_offline check failed: {e}");
                run.tally.failed += 1;
            }
        }
    }
    run.tally.wall = start.elapsed();
    run.tally.cpu_ns = sys::thread_cpu_ns().saturating_sub(thread_cpu0);
    run.process_cpu_ns = sys::process_cpu_ns().saturating_sub(cpu0);
    run
}

/// Sets up the offline pipeline: inputs, references, one warm-up pass.
/// Returns it with the set-up's duration in seconds.
fn offline_setup(seed: u64) -> Result<(Offline, f64), String> {
    let t = Instant::now();
    let off = Offline::generate(seed)?;
    off.pass()?;
    Ok((off, t.elapsed().as_secs_f64()))
}

fn offline_untraced(args: &Args) -> Result<Report, String> {
    let mut report = Report {
        params: offline_params(args),
        ..Report::default()
    };
    let mut w = Windows::default();
    let n = windows(args.seconds);
    for i in 0..n {
        let (off, setup) = offline_setup(args.seed)?;
        w.setups.push(setup);
        if i == 0 {
            w.rss_mib = sys::peak_rss_mib();
        }
        let ticks = sys::cpu_ticks();
        let run = offline_loop(&off, args.seconds / n as f64);
        let steal = sys::steal_share(ticks);
        w.add(&run.tally, run.process_cpu_ns, steal, &mut report);
    }
    w.report(&mut report, 1);
    Ok(report)
}

/// A traced offline run: half its time measured without keeping spans,
/// half keeping them, then the in-process rungs.
fn offline_traced(args: &Args) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let ticks = sys::cpu_ticks();
    let (off, _) = offline_setup(args.seed)?;
    let plain = offline_loop(&off, half);
    hmdiv_obs::reset();
    let traced = offline_loop(&off, half);
    let snap = hmdiv_obs::snapshot();
    let plain_p50 = p50_us(&plain.tally);
    let client_p50 = p50_us(&traced.tally);
    let step_us: Vec<f64> = traced
        .steps
        .iter()
        .map(|s| median(&s.iter().map(|(_, d)| *d as f64 / 1e3).collect::<Vec<_>>()))
        .collect();
    let mut report = Report {
        params: offline_params(args),
        ..Report::default()
    };
    report.count(&plain.tally);
    report.count(&traced.tally);
    report.ledger = offline::STEPS
        .iter()
        .copied()
        .zip(step_us.iter().copied())
        .collect();
    let residual = client_p50 - step_us.iter().sum::<f64>();
    report.ledger.push(("residual", residual));
    report.ledger.push(("client.latency_p50", client_p50));
    for (name, steps) in offline::STEPS.iter().zip(&traced.steps) {
        report
            .spans
            .extend(steps.iter().take(5000).map(|(s, d)| (*name, *s, *d)));
    }
    // Busy share of the parallel executor's workers, from its own
    // per-scope counters.
    let (busy, capacity) = ["sim.engine", "rbd.mc"]
        .iter()
        .map(|scope| {
            (
                counter(&snap, &format!("{scope}.busy_ns")),
                counter(&snap, &format!("{scope}.wall_ns")) * offline::THREADS as f64,
            )
        })
        .fold((0.0, 0.0), |(b, c), (b2, c2)| (b + b2, c + c2));
    let inputs = Inputs::generate(args.seed);
    let (counter_ns, observe_ns) = layers::obs_ns();
    report.params.extend([
        (
            "untraced_latency_samples".to_owned(),
            Json::Num(plain.tally.latencies_ns().len() as f64),
        ),
        ("untraced_latency_p50_us".to_owned(), Json::Num(plain_p50)),
        (
            "traced_latency_samples".to_owned(),
            Json::Num(traced.tally.latencies_ns().len() as f64),
        ),
    ]);
    let stats = traced.stats;
    report.metrics = layer_metrics(&[
        ("core.compiled.eval_ns", layers::eval_ns(&inputs)),
        (
            "core.compiled.sweep_us",
            layers::sweep_us(&inputs, offline::THREADS),
        ),
        ("obs.counter_add_ns", counter_ns),
        ("obs.observe_ns", observe_ns),
        (
            "sim.engine.cases_per_s",
            offline::SIM_CASES as f64 / (step_us[0] / 1e6),
        ),
        (
            "rbd.monte_carlo.samples_per_s",
            offline::MC_SAMPLES as f64 / (step_us[1] / 1e6),
        ),
        ("core.design.allocate_ms", step_us[3] / 1e3),
        (
            "core.design.evaluated_share",
            stats.evaluated as f64 / (stats.candidates as f64).max(1.0),
        ),
        ("prob.par.worker_busy_share", busy / capacity.max(1.0)),
        (
            "client.busy_share",
            plain.tally.cpu_ns as f64 / 1e9 / plain.tally.wall.as_secs_f64().max(1e-9),
        ),
        ("host.steal_share", sys::steal_share(ticks)),
        ("ledger.residual_us", residual),
        ("ledger.residual_share", residual / client_p50.max(1e-9)),
        ("trace.overhead_us", client_p50 - plain_p50),
        (
            "trace.overhead_share",
            (client_p50 - plain_p50) / plain_p50.max(1e-9),
        ),
    ]);
    Ok(report)
}

fn write_result(args: &Args, report: &Report, correct: bool) -> Result<String, String> {
    let base = report
        .ledger
        .iter()
        .find(|(n, _)| *n == "client.latency_p50")
        .map_or(0.0, |(_, v)| *v);
    let json = Json::Obj(vec![
        ("workload".to_owned(), Json::str(args.workload.as_str())),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("environment".to_owned(), sys::environment()),
        ("parameters".to_owned(), Json::Obj(report.params.clone())),
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(report.attempted as f64)),
        ("failed".to_owned(), Json::Num(report.failed as f64)),
        (
            "check_failures".to_owned(),
            Json::Arr(
                report
                    .check_failures
                    .iter()
                    .map(|s| Json::str(s.as_str()))
                    .collect(),
            ),
        ),
        ("metrics".to_owned(), metrics_json(&report.metrics)),
        (
            "ledger".to_owned(),
            Json::Arr(
                report
                    .ledger
                    .iter()
                    .map(|(layer, self_us)| {
                        Json::Obj(vec![
                            ("layer".to_owned(), Json::str(*layer)),
                            ("self_us".to_owned(), Json::Num(*self_us)),
                            (
                                "share_of_p50".to_owned(),
                                Json::Num(self_us / base.max(1e-9)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans".to_owned(),
            Json::Arr(
                report
                    .spans
                    .iter()
                    .map(|(name, start, dur)| {
                        Json::Arr(vec![
                            Json::str(*name),
                            Json::Num(*start as f64),
                            Json::Num(*dur as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir))?;
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        args.out_dir,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut text = String::new();
    json.write(&mut text);
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn print_human(args: &Args, report: &Report, correct: bool, file: &str) {
    eprintln!(
        "workload {} seed {} trace {}: correct {correct}, {} attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for f in &report.check_failures {
        eprintln!("  check failed: {f}");
    }
    for x in &report.metrics {
        eprintln!("  {:<32} {:>14.4} {}", x.name, x.value, x.unit);
    }
    if let Some((_, base)) = report
        .ledger
        .iter()
        .find(|(n, _)| *n == "client.latency_p50")
    {
        eprintln!("  ledger (self time, share of client p50 {base:.1} us):");
        for (layer, v) in &report.ledger {
            eprintln!(
                "    {layer:<20} {v:>12.2} us {:>7.1}%",
                100.0 * v / base.max(1e-9)
            );
        }
    }
    eprintln!("  result written to {file}");
}
