//! In-process probes of single layers, each a span around the
//! benchmark's own call into one public function, reported as a median
//! over repeated batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hmdiv_core::{CompiledModel, CompiledProfile};
use hmdiv_serve::batcher::{Batcher, Work};
use hmdiv_serve::{json, protocol, Registry};

use crate::gen::{Change, ModelSpec, Rng};
use crate::serving::{Inputs, Serving, SWEEP_SCENARIOS};
use crate::stats::median;

/// Median over `batches` of the mean time per call of `f`, in
/// nanoseconds, each batch making `calls` calls.
pub fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn bound_pairs(inputs: &Inputs) -> Vec<(Arc<CompiledModel>, CompiledProfile)> {
    let models: Vec<Arc<CompiledModel>> = inputs
        .eval_models
        .iter()
        .map(|m| Arc::clone(m.model().compiled()))
        .collect();
    inputs
        .eval_pairs
        .iter()
        .map(|(m, p)| {
            let bound = models[*m]
                .bind_profile(&p.profile())
                .expect("generated profiles cover their model");
            (Arc::clone(&models[*m]), bound)
        })
        .collect()
}

fn sweep_binding(inputs: &Inputs) -> (Arc<CompiledModel>, CompiledProfile) {
    let compiled = Arc::clone(inputs.sweep_model.model().compiled());
    let bound = compiled
        .bind_profile(&inputs.sweep_profile.profile())
        .expect("the sweep profile covers the sweep model");
    (compiled, bound)
}

/// `core.compiled.eval_ns`: one `CompiledModel::system_failure`.
pub fn eval_ns(inputs: &Inputs) -> f64 {
    let pairs = bound_pairs(inputs);
    let mut i = 0;
    per_call_ns(21, 20_000, || {
        let (model, profile) = &pairs[i % pairs.len()];
        black_box(model.system_failure(black_box(profile)));
        i += 1;
    })
}

/// `core.compiled.sweep_us`: `evaluate_scenarios_par` on one sweep set.
pub fn sweep_us(inputs: &Inputs, threads: usize) -> f64 {
    let (model, profile) = sweep_binding(inputs);
    let scenarios: Vec<_> = inputs.sweep_sets[0].iter().map(Change::scenario).collect();
    per_call_ns(21, 4, || {
        black_box(
            model
                .evaluate_scenarios_par(black_box(&scenarios), &profile, threads)
                .expect("generated scenarios target known classes"),
        );
    }) / 1e3
}

/// The request and reply lines a workload's codec handles.
fn codec_lines(workload: Serving, inputs: &Inputs) -> (Vec<String>, Vec<String>) {
    let ops = match workload {
        Serving::SweepDirect => &inputs.sweep_lines,
        Serving::EvaluateDirect | Serving::FleetMixed => &inputs.evaluate_lines,
    };
    let mut requests: Vec<String> = ops.iter().map(|o| o.line.trim_end().to_owned()).collect();
    let replies: Vec<String> = ops
        .iter()
        .filter_map(|o| o.expect.reply.as_deref().map(|r| r.trim_end().to_owned()))
        .collect();
    if workload == Serving::FleetMixed {
        let mut rng = Rng::new(inputs.seed, 6000);
        for i in 0..8 {
            let spec = ModelSpec::generate(&mut rng, &format!("j{i}c"), 6);
            requests.push(crate::gen::load_line(1, &spec).trim_end().to_owned());
        }
    }
    (requests, replies)
}

/// `(serve.json.parse_us, serve.json.write_us, serve.protocol.decode_us)`
/// over the workload's own request and reply lines.
pub fn codec_us(workload: Serving, inputs: &Inputs) -> (f64, f64, f64) {
    let (requests, replies) = codec_lines(workload, inputs);
    let calls = if workload == Serving::SweepDirect {
        4
    } else {
        200
    };
    let mut i = 0;
    let parse = per_call_ns(21, calls, || {
        black_box(json::parse(black_box(&requests[i % requests.len()])).ok());
        i += 1;
    });
    let values: Vec<hmdiv_serve::Json> = replies
        .iter()
        .map(|r| json::parse(r).expect("expected replies are JSON"))
        .collect();
    let mut out = String::new();
    let write = per_call_ns(21, calls, || {
        out.clear();
        values[i % values.len()].write(&mut out);
        black_box(&out);
        i += 1;
    });
    let decode = per_call_ns(21, calls, || {
        let env = protocol::parse_request(black_box(&requests[i % requests.len()]))
            .expect("generated lines are requests");
        match env.verb.as_str() {
            "evaluate" => {
                black_box(protocol::parse_profile(&env.body).ok());
            }
            "scenarios" => {
                black_box(protocol::parse_profile(&env.body).ok());
                black_box(protocol::parse_scenarios(&env.body).ok());
            }
            _ => {
                black_box(protocol::parse_model_params(&env.body).ok());
            }
        }
        i += 1;
    });
    (parse / 1e3, write / 1e3, decode / 1e3)
}

/// `serve.batcher.submit_wait_us`: `Batcher::submit` plus `Ticket::wait`
/// with no socket, on the workload's kind of work.
pub fn submit_wait_us(workload: Serving, inputs: &Inputs, threads: usize) -> f64 {
    let batcher = Batcher::start(SWEEP_SCENARIOS * 8, threads).expect("spawning the batcher");
    let result = match workload {
        Serving::SweepDirect => {
            let (model, profile) = sweep_binding(inputs);
            let sets: Vec<Vec<_>> = inputs
                .sweep_sets
                .iter()
                .map(|s| s.iter().map(Change::scenario).collect())
                .collect();
            let mut i = 0;
            per_call_ns(21, 4, || {
                let work = Work::Scenarios {
                    model: Arc::clone(&model),
                    profile: profile.clone(),
                    scenarios: sets[i % sets.len()].clone(),
                };
                i += 1;
                let ticket = batcher
                    .submit(work, SWEEP_SCENARIOS, None, None, None)
                    .expect("the probe batcher has room");
                black_box(ticket.wait().ok());
            })
        }
        Serving::EvaluateDirect | Serving::FleetMixed => {
            let pairs = bound_pairs(inputs);
            let mut i = 0;
            per_call_ns(21, 200, || {
                let (model, profile) = &pairs[i % pairs.len()];
                i += 1;
                let work = Work::Profile {
                    model: Arc::clone(model),
                    profile: profile.clone(),
                };
                let ticket = batcher
                    .submit(work, 1, None, None, None)
                    .expect("the probe batcher has room");
                black_box(ticket.wait().ok());
            })
        }
    };
    batcher.drain();
    result / 1e3
}

/// `(serve.registry.load_us, analyze.admit_us)` on fresh models shaped
/// like the largest of `fleet_mixed`'s writes.
pub fn registry_us(inputs: &Inputs) -> (f64, f64) {
    let mut rng = Rng::new(inputs.seed, 7000);
    let specs: Vec<ModelSpec> = (0..64)
        .map(|i| ModelSpec::generate(&mut rng, &format!("r{i}c"), 8))
        .collect();
    let params: Vec<_> = specs.iter().map(ModelSpec::params).collect();
    let models: Vec<_> = specs.iter().map(ModelSpec::model).collect();
    let mut i = 0;
    let mut registry = Registry::new();
    let load = per_call_ns(21, specs.len(), || {
        if i % specs.len() == 0 {
            registry = Registry::new();
        }
        black_box(
            registry
                .load_sequential(params[i % specs.len()].clone(), None)
                .ok(),
        );
        i += 1;
    });
    let admit = per_call_ns(21, models.len(), || {
        black_box(hmdiv_analyze::analyze_sequential(&models[i % models.len()]));
        i += 1;
    });
    (load / 1e3, admit / 1e3)
}

/// `(obs.counter_add_ns, obs.observe_ns)` through the global registry.
pub fn obs_ns() -> (f64, f64) {
    let counter = per_call_ns(21, 10_000, || {
        hmdiv_obs::counter_add(black_box("perfbench.probe.counter"), 1);
    });
    let observe = per_call_ns(21, 10_000, || {
        hmdiv_obs::observe_ns(black_box("perfbench.probe.histogram"), 1_000);
    });
    (counter, observe)
}
