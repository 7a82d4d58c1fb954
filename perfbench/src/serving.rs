//! The three serving workloads: `evaluate_direct` and `sweep_direct`
//! against one in-process `Server`, and `fleet_mixed` through an
//! in-process `Router` in front of two single-thread replicas.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmdiv_core::SequentialModel;
use hmdiv_fleet::{mix64, HashRing, Router, RouterConfig};
use hmdiv_serve::{Json, Server, ServerConfig};

use crate::gen::{self, Change, ModelSpec, ProfileSpec, Rng};
use crate::wire::{self, Conn, Expect, Kind, Op, Tally, Value};

/// Client connections, one client thread each, one request in flight.
pub const CONNECTIONS: usize = 2;
/// Shard threads of a direct server, and its poller threads.
const SERVER_THREADS: usize = 2;
/// Small models behind `evaluate_direct` and the fleet's base set.
pub const EVAL_MODELS: usize = 4;
/// Profiles drawn per small model.
const PROFILES_PER_MODEL: usize = 16;
/// Classes of the sweep model.
pub const SWEEP_CLASSES: usize = 512;
/// Single-step scenarios per `scenarios` request: the batcher's parallel
/// threshold, so every request takes the sharded path.
pub const SWEEP_SCENARIOS: usize = 1024;
/// Distinct sweep requests cycled through.
const SWEEP_SETS: usize = 4;
/// Admission-cost bound of the sweep server: room for every connection's
/// request twice over, so a healthy run never sheds.
const SWEEP_QUEUE_CAPACITY: usize = 4 * CONNECTIONS * SWEEP_SCENARIOS;
/// One request in this many of `fleet_mixed` is a `load`.
pub const WRITE_EVERY: u64 = 10;
/// Recently written models a fleet connection keeps reading.
const RECENT: usize = 8;

/// The serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    EvaluateDirect,
    SweepDirect,
    FleetMixed,
}

/// Everything a serving workload sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub seed: u64,
    pub eval_models: Vec<ModelSpec>,
    pub eval_ids: Vec<String>,
    /// `(model index, profile)` behind each evaluate line.
    pub eval_pairs: Vec<(usize, ProfileSpec)>,
    pub evaluate_lines: Vec<Op>,
    pub sweep_model: ModelSpec,
    pub sweep_id: String,
    pub sweep_profile: ProfileSpec,
    pub sweep_sets: Vec<Vec<Change>>,
    pub sweep_lines: Vec<Op>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let eval_models: Vec<ModelSpec> = (0..EVAL_MODELS)
            .map(|_| {
                let n = 4 + rng.below(5) as usize;
                ModelSpec::generate(&mut rng, "k", n)
            })
            .collect();
        let eval_ids: Vec<String> = eval_models.iter().map(gen::content_id).collect();
        let mut eval_pairs = Vec::new();
        let mut evaluate_lines = Vec::new();
        for (m, spec) in eval_models.iter().enumerate() {
            let model = spec.model();
            for _ in 0..PROFILES_PER_MODEL {
                let profile = ProfileSpec::generate(&mut rng, spec);
                let id = evaluate_lines.len() as u64 + 1;
                evaluate_lines.push(evaluate_op(id, &eval_ids[m], &model, &profile));
                eval_pairs.push((m, profile));
            }
        }
        let mut rng = Rng::new(seed, 2);
        let sweep_model = ModelSpec::generate(&mut rng, "s", SWEEP_CLASSES);
        let sweep_id = gen::content_id(&sweep_model);
        let sweep_profile = ProfileSpec::generate(&mut rng, &sweep_model);
        let sweep_sets: Vec<Vec<Change>> = (0..SWEEP_SETS)
            .map(|_| {
                (0..SWEEP_SCENARIOS)
                    .map(|_| Change::generate(&mut rng, &sweep_model))
                    .collect()
            })
            .collect();
        let compiled = Arc::clone(sweep_model.model().compiled());
        let bound = compiled
            .bind_profile(&sweep_profile.profile())
            .expect("the sweep profile covers the sweep model");
        let sweep_lines = sweep_sets
            .iter()
            .enumerate()
            .map(|(i, changes)| {
                let scenarios: Vec<_> = changes.iter().map(Change::scenario).collect();
                let failures: Vec<f64> = compiled
                    .evaluate_scenarios(&scenarios, &bound)
                    .expect("generated scenarios target known classes")
                    .iter()
                    .map(|p| p.value())
                    .collect();
                let id = i as u64 + 1;
                Op {
                    line: gen::scenarios_line(id, &sweep_id, &sweep_profile, changes).into(),
                    expect: Expect {
                        reply: Some(gen::failures_reply(id, &failures).into()),
                        value: Value::Failures(failures.into()),
                    },
                    kind: Kind::Read,
                }
            })
            .collect();
        Inputs {
            seed,
            eval_models,
            eval_ids,
            eval_pairs,
            evaluate_lines,
            sweep_model,
            sweep_id,
            sweep_profile,
            sweep_sets,
            sweep_lines,
        }
    }

    /// The lines a workload cycles through in its closed loop.
    fn cycle(&self, workload: Serving) -> &[Op] {
        match workload {
            Serving::SweepDirect => &self.sweep_lines,
            Serving::EvaluateDirect | Serving::FleetMixed => &self.evaluate_lines,
        }
    }

    /// A seeded random walk over the workload's distinct read requests.
    fn reads(&self, workload: Serving, stream: u64) -> impl FnMut() -> Op + '_ {
        let cycle = self.cycle(workload);
        let mut rng = Rng::new(self.seed, stream);
        move || cycle[rng.below(cycle.len() as u64) as usize].clone()
    }

    /// The models a workload loads at set-up, with their content ids.
    fn preload(&self, workload: Serving) -> Vec<(&ModelSpec, &str)> {
        match workload {
            Serving::SweepDirect => vec![(&self.sweep_model, self.sweep_id.as_str())],
            Serving::EvaluateDirect | Serving::FleetMixed => self
                .eval_models
                .iter()
                .zip(&self.eval_ids)
                .map(|(m, id)| (m, id.as_str()))
                .collect(),
        }
    }
}

/// An `evaluate` request with its in-process eq. (8) oracle.
fn evaluate_op(id: u64, model_id: &str, model: &SequentialModel, profile: &ProfileSpec) -> Op {
    let failure = model
        .system_failure(&profile.profile())
        .expect("generated profiles cover their model")
        .value();
    Op {
        line: gen::evaluate_line(id, model_id, profile).into(),
        expect: Expect {
            reply: Some(gen::failure_reply(id, failure).into()),
            value: Value::Failure(failure),
        },
        kind: Kind::Read,
    }
}

/// A `load` request whose reply must carry the in-process content id.
pub fn load_op(id: u64, model: &ModelSpec) -> Op {
    Op {
        line: gen::load_line(id, model).into(),
        expect: Expect {
            reply: None,
            value: Value::ModelId(gen::content_id(model)),
        },
        kind: Kind::Write,
    }
}

/// One fleet connection's request stream: about one `load` of a fresh
/// model in [`WRITE_EVERY`], the rest `evaluate` reads of the base models
/// or of models this connection loaded recently.
#[derive(Debug)]
pub struct FleetStream<'a> {
    rng: Rng,
    conn: usize,
    next_id: u64,
    written: u64,
    inputs: &'a Inputs,
    recent: VecDeque<(String, ModelSpec, SequentialModel)>,
}

impl<'a> FleetStream<'a> {
    pub fn new(seed: u64, conn: usize, inputs: &'a Inputs) -> Self {
        FleetStream {
            rng: Rng::new(seed, 1000 + conn as u64),
            conn,
            next_id: 1_000_000,
            written: 0,
            inputs,
            recent: VecDeque::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.next_id += 1;
        let id = self.next_id;
        if self.rng.below(WRITE_EVERY) == 0 {
            let n = 4 + self.rng.below(5) as usize;
            let prefix = format!("w{}x{}c", self.conn, self.written);
            self.written += 1;
            let spec = ModelSpec::generate(&mut self.rng, &prefix, n);
            let op = load_op(id, &spec);
            let Value::ModelId(model_id) = &op.expect.value else {
                unreachable!("load_op expects a model id")
            };
            if self.recent.len() == RECENT {
                self.recent.pop_front();
            }
            let model = spec.model();
            self.recent.push_back((model_id.clone(), spec, model));
            return op;
        }
        if self.recent.is_empty() || self.rng.below(10) < 7 {
            let i = self.rng.below(self.inputs.evaluate_lines.len() as u64) as usize;
            return self.inputs.evaluate_lines[i].clone();
        }
        let k = self.rng.below(self.recent.len() as u64) as usize;
        let (model_id, spec, model) = &self.recent[k];
        let profile = ProfileSpec::generate(&mut self.rng, spec);
        evaluate_op(id, model_id, model, &profile)
    }
}

/// A running serving topology and its client connections.
pub struct Topology {
    pub servers: Vec<Server>,
    pub router: Option<Router>,
    pub conns: Vec<Conn>,
}

impl Topology {
    pub fn shutdown(self) {
        drop(self.conns);
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Shard and poller threads of each server of a workload: the direct
/// server gets one per CPU of the measuring host, the fleet replicas one
/// each.
pub fn server_threads(workload: Serving) -> usize {
    match workload {
        Serving::EvaluateDirect | Serving::SweepDirect => SERVER_THREADS,
        Serving::FleetMixed => 1,
    }
}

fn server_config(workload: Serving, traced: bool) -> ServerConfig {
    let threads = server_threads(workload);
    let queue_capacity = match workload {
        Serving::SweepDirect => SWEEP_QUEUE_CAPACITY,
        Serving::EvaluateDirect | Serving::FleetMixed => ServerConfig::default().queue_capacity,
    };
    ServerConfig {
        threads,
        poller_threads: threads,
        queue_capacity,
        trace_capacity: if traced { 8192 } else { 0 },
        ..ServerConfig::default()
    }
}

/// The backend the router's consistent-hash ring assigns to a client
/// connection from `local` (the router keys its ring on the peer address
/// exactly so).
fn ring_backend(ring: &HashRing, local: SocketAddr) -> u32 {
    let ip = match local.ip() {
        std::net::IpAddr::V4(ip) => u64::from(u32::from(ip)),
        std::net::IpAddr::V6(ip) => {
            let o = ip.octets();
            u64::from_le_bytes([o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]])
        }
    };
    ring.route(mix64(ip ^ (u64::from(local.port()) << 48)))
}

/// Opens one client connection to the router per replica, each hashed
/// onto a different replica, so every run has the same topology.
fn balanced_conns(front: SocketAddr, backends: usize) -> Result<Vec<Conn>, String> {
    let ring = HashRing::new(backends, RouterConfig::default().vnodes);
    let mut slots: Vec<Option<Conn>> = (0..backends).map(|_| None).collect();
    for _ in 0..256 {
        let conn = Conn::connect(front).map_err(|e| format!("connecting to router: {e}"))?;
        let local = conn.local_addr().map_err(|e| e.to_string())?;
        let b = ring_backend(&ring, local) as usize;
        if slots[b].is_none() {
            slots[b] = Some(conn);
        }
        if slots.iter().all(Option::is_some) {
            return Ok(slots.into_iter().flatten().collect());
        }
    }
    Err("could not spread connections over the replicas".to_owned())
}

/// Starts the workload's servers (and router), connects, loads the
/// models, checks every distinct request once by value, and warms up.
/// Replies that carry the right values but differ in bytes from the
/// rendered expectation become the byte-level expectation.
pub fn setup(workload: Serving, inputs: &mut Inputs, traced: bool) -> Result<Topology, String> {
    let err = |e: hmdiv_serve::ServeError| e.to_string();
    let mut topo = match workload {
        Serving::EvaluateDirect | Serving::SweepDirect => {
            let server = Server::start(server_config(workload, traced)).map_err(err)?;
            let conns = (0..CONNECTIONS)
                .map(|_| Conn::connect(server.addr()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            Topology {
                servers: vec![server],
                router: None,
                conns,
            }
        }
        Serving::FleetMixed => {
            let servers = (0..2)
                .map(|_| Server::start(server_config(workload, traced)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            let router = Router::start(RouterConfig {
                backends: servers.iter().map(Server::addr).collect(),
                ..RouterConfig::default()
            })
            .map_err(err)?;
            let conns = balanced_conns(router.addr(), servers.len())?;
            Topology {
                servers,
                router: Some(router),
                conns,
            }
        }
    };
    for (i, (spec, want)) in inputs.preload(workload).into_iter().enumerate() {
        let result = topo.conns[0].request(&gen::load_line(i as u64 + 1, spec))?;
        let got = result.get("model_id").and_then(Json::as_str);
        if got != Some(want) {
            return Err(format!("load returned {got:?}, expected {want}"));
        }
    }
    let lines = match workload {
        Serving::SweepDirect => &mut inputs.sweep_lines,
        Serving::EvaluateDirect | Serving::FleetMixed => &mut inputs.evaluate_lines,
    };
    for op in lines.iter_mut() {
        let reply = topo.conns[0].call(&op.line).map_err(|e| e.to_string())?;
        if !op.expect.check_value(reply) {
            return Err(format!("oracle mismatch at set-up: {}", reply.trim_end()));
        }
        // A tracing server mints a fresh `trace_id` per reply; the
        // expectation keeps the untraced bytes so the fast path holds.
        let plain = wire::strip_trace_id(reply).unwrap_or_else(|| reply.to_owned());
        if op.expect.reply.as_deref() != Some(plain.as_str()) {
            op.expect.reply = Some(plain.into());
        }
    }
    let warmup = match workload {
        Serving::SweepDirect => 16,
        Serving::EvaluateDirect | Serving::FleetMixed => 200,
    };
    let cycle = inputs.cycle(workload);
    for conn in &mut topo.conns {
        for op in cycle.iter().cycle().take(warmup) {
            let reply = conn.call(&op.line).map_err(|e| e.to_string())?;
            if !op.expect.check(reply) {
                return Err(format!("oracle mismatch in warm-up: {}", reply.trim_end()));
            }
        }
    }
    Ok(topo)
}

/// What one closed-loop window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub tally: Tally,
    /// Process CPU over the window, in nanoseconds.
    pub process_cpu_ns: u64,
}

/// Runs every connection's closed loop for `seconds` on its own client
/// thread.
pub fn closed_loop(
    workload: Serving,
    inputs: &Inputs,
    topo: &mut Topology,
    seconds: f64,
    spans: bool,
) -> Window {
    let cpu0 = crate::sys::process_cpu_ns();
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = topo
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let running = move || Instant::now() < until;
                scope.spawn(move || match workload {
                    Serving::FleetMixed => {
                        let mut stream = FleetStream::new(inputs.seed, c, inputs);
                        wire::drive(conn, || stream.next_op(), running, epoch, spans)
                    }
                    Serving::EvaluateDirect | Serving::SweepDirect => {
                        let next = inputs.reads(workload, 100 + c as u64);
                        wire::drive(conn, next, running, epoch, spans)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    Window {
        tally,
        process_cpu_ns: crate::sys::process_cpu_ns().saturating_sub(cpu0),
    }
}

/// A closed loop of `evaluate` requests sent straight to each replica of
/// a fleet, one connection per replica: the router-less rung under the
/// same load shape as the routed reads.
pub fn direct_loop(inputs: &Inputs, topo: &Topology, seconds: f64) -> Result<Tally, String> {
    let conns = topo
        .servers
        .iter()
        .map(|s| Conn::connect(s.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut direct = Topology {
        servers: Vec::new(),
        router: None,
        conns,
    };
    Ok(closed_loop(Serving::EvaluateDirect, inputs, &mut direct, seconds, false).tally)
}

/// End-of-run fleet oracles: the replicas' manifests must be
/// byte-identical, and router replies byte-equal to direct replies.
/// Returns the number of failed checks and how many were made.
pub fn fleet_checks(inputs: &Inputs, topo: &mut Topology) -> (u64, u64) {
    let mut failed = 0;
    let mut attempted = 0;
    let manifest = gen::request_line(1, "manifest", Vec::new());
    let mut direct: Vec<Conn> = topo
        .servers
        .iter()
        .filter_map(|s| Conn::connect(s.addr()).ok())
        .collect();
    if direct.len() != topo.servers.len() {
        return (1, 1);
    }
    let call = |c: &mut Conn, line: &str| {
        c.call(line)
            .ok()
            .map(|r| wire::strip_trace_id(r).unwrap_or_else(|| r.to_owned()))
    };
    let manifests: Vec<Option<String>> = direct.iter_mut().map(|c| call(c, &manifest)).collect();
    attempted += 1;
    if manifests.iter().any(Option::is_none) || manifests.windows(2).any(|w| w[0] != w[1]) {
        failed += 1;
    }
    for op in inputs.evaluate_lines.iter().step_by(4) {
        attempted += 1;
        let routed = call(&mut topo.conns[0], &op.line);
        let same = direct.iter_mut().all(|c| call(c, &op.line) == routed);
        if routed.is_none() || !same {
            failed += 1;
        }
    }
    (failed, attempted)
}
