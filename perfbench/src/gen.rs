//! Seeded input generation: models, demand profiles, design-change
//! scenarios and the request lines built from them.
//!
//! Every input is a pure function of the `--seed` argument (and of a
//! stream label), so the same seed gives a byte-identical request stream
//! and the program under test receives only the generated inputs.

use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{ClassId, ClassParams, DemandProfile, ModelParams, SequentialModel};
use hmdiv_prob::Probability;
use hmdiv_serve::Json;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `[lo, hi]` on a grid of 1e-4, so it renders short.
    pub fn grid(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 10_000.0).round() as u64;
        lo + self.below(steps + 1) as f64 / 10_000.0
    }
}

/// One generated sequential model: its class names in order and its
/// per-class `(p_mf, p_hf_given_ms, p_hf_given_mf)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    pub classes: Vec<(String, [f64; 3])>,
}

impl ModelSpec {
    /// A coherent model (`p_hf_given_mf > p_hf_given_ms`) with `n` classes
    /// named `{prefix}{i}`.
    pub fn generate(rng: &mut Rng, prefix: &str, n: usize) -> ModelSpec {
        let classes = (0..n)
            .map(|i| {
                let p_mf = rng.grid(0.01, 0.6);
                let ms = rng.grid(0.01, 0.3);
                let mf = rng.grid(ms + 0.05, 0.95);
                (format!("{prefix}{i:02}"), [p_mf, ms, mf])
            })
            .collect();
        ModelSpec { classes }
    }

    pub fn params(&self) -> ModelParams {
        let p = |v: f64| Probability::new(v).expect("generated probabilities lie in [0, 1]");
        self.classes
            .iter()
            .fold(ModelParams::builder(), |b, (name, [a, c, d])| {
                b.class(name.as_str(), ClassParams::new(p(*a), p(*c), p(*d)))
            })
            .build()
            .expect("generated class names are distinct")
    }

    pub fn model(&self) -> SequentialModel {
        SequentialModel::new(self.params())
    }

    /// The `classes` member of a `load` request.
    pub fn classes_json(&self) -> Json {
        Json::Obj(
            self.classes
                .iter()
                .map(|(name, [a, c, d])| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("p_mf".to_owned(), Json::Num(*a)),
                            ("p_hf_given_ms".to_owned(), Json::Num(*c)),
                            ("p_hf_given_mf".to_owned(), Json::Num(*d)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A demand profile over every class of a model, in the model's class
/// order, with whole-number weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    pub weights: Vec<(String, f64)>,
}

impl ProfileSpec {
    pub fn generate(rng: &mut Rng, model: &ModelSpec) -> ProfileSpec {
        ProfileSpec {
            weights: model
                .classes
                .iter()
                .map(|(name, _)| (name.clone(), (1 + rng.below(99)) as f64))
                .collect(),
        }
    }

    pub fn profile(&self) -> DemandProfile {
        DemandProfile::from_weights(
            self.weights
                .iter()
                .map(|(name, w)| (ClassId::new(name.as_str()), *w)),
        )
        .expect("generated profiles are non-empty with distinct classes")
    }

    pub fn json(&self) -> Json {
        Json::Obj(
            self.weights
                .iter()
                .map(|(name, w)| (name.clone(), Json::Num(*w)))
                .collect(),
        )
    }
}

/// One single-step design change.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    ImproveMachine { class: String, factor: f64 },
    SetMachineFailure { class: String, p_mf: f64 },
    SetReader { class: String, ms: f64, mf: f64 },
    Everywhere { factor: f64 },
}

impl Change {
    pub fn generate(rng: &mut Rng, model: &ModelSpec) -> Change {
        let class = model.classes[rng.below(model.classes.len() as u64) as usize]
            .0
            .clone();
        match rng.below(10) {
            0..=3 => Change::Everywhere {
                factor: rng.grid(1.5, 10.0),
            },
            4..=6 => Change::ImproveMachine {
                class,
                factor: rng.grid(1.5, 10.0),
            },
            7 | 8 => Change::SetMachineFailure {
                class,
                p_mf: rng.grid(0.01, 0.6),
            },
            _ => {
                let ms = rng.grid(0.01, 0.3);
                Change::SetReader {
                    class,
                    ms,
                    mf: rng.grid(ms + 0.05, 0.95),
                }
            }
        }
    }

    pub fn scenario(&self) -> Scenario {
        let p = |v: f64| Probability::new(v).expect("generated probabilities lie in [0, 1]");
        match self {
            Change::ImproveMachine { class, factor } => {
                Scenario::new().improve_machine(ClassId::new(class.as_str()), *factor)
            }
            Change::SetMachineFailure { class, p_mf } => {
                Scenario::new().set_machine_failure(ClassId::new(class.as_str()), p(*p_mf))
            }
            Change::SetReader { class, ms, mf } => {
                Scenario::new().set_reader(ClassId::new(class.as_str()), p(*ms), p(*mf))
            }
            Change::Everywhere { factor } => Scenario::new().improve_machine_everywhere(*factor),
        }
    }

    /// The scenario as the wire's one-change array.
    pub fn json(&self) -> Json {
        let members = match self {
            Change::ImproveMachine { class, factor } => vec![
                ("op", Json::str("improve_machine")),
                ("class", Json::str(class.as_str())),
                ("factor", Json::Num(*factor)),
            ],
            Change::SetMachineFailure { class, p_mf } => vec![
                ("op", Json::str("set_machine_failure")),
                ("class", Json::str(class.as_str())),
                ("p_mf", Json::Num(*p_mf)),
            ],
            Change::SetReader { class, ms, mf } => vec![
                ("op", Json::str("set_reader")),
                ("class", Json::str(class.as_str())),
                ("p_hf_given_ms", Json::Num(*ms)),
                ("p_hf_given_mf", Json::Num(*mf)),
            ],
            Change::Everywhere { factor } => vec![
                ("op", Json::str("improve_machine_everywhere")),
                ("factor", Json::Num(*factor)),
            ],
        };
        Json::Arr(vec![Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )])
    }
}

/// Renders one request line (newline included).
pub fn request_line(id: u64, verb: &str, body: Vec<(&str, Json)>) -> String {
    let mut members = vec![
        ("id".to_owned(), Json::Num(id as f64)),
        ("verb".to_owned(), Json::str(verb)),
    ];
    members.extend(body.into_iter().map(|(k, v)| (k.to_owned(), v)));
    let mut out = String::new();
    Json::Obj(members).write(&mut out);
    out.push('\n');
    out
}

pub fn evaluate_line(id: u64, model_id: &str, profile: &ProfileSpec) -> String {
    request_line(
        id,
        "evaluate",
        vec![("model", Json::str(model_id)), ("profile", profile.json())],
    )
}

pub fn scenarios_line(
    id: u64,
    model_id: &str,
    profile: &ProfileSpec,
    changes: &[Change],
) -> String {
    request_line(
        id,
        "scenarios",
        vec![
            ("model", Json::str(model_id)),
            ("profile", profile.json()),
            (
                "scenarios",
                Json::Arr(changes.iter().map(Change::json).collect()),
            ),
        ],
    )
}

pub fn load_line(id: u64, model: &ModelSpec) -> String {
    request_line(id, "load", vec![("classes", model.classes_json())])
}

/// The reply line a server renders for a successful request (newline
/// included). Serves as the fast byte-level expectation; replies that
/// differ are re-checked by value.
pub fn ok_reply(id: u64, result: Json) -> String {
    hmdiv_serve::protocol::ok_line(&Json::Num(id as f64), None, result)
}

pub fn failure_reply(id: u64, failure: f64) -> String {
    ok_reply(
        id,
        Json::Obj(vec![("failure".to_owned(), Json::Num(failure))]),
    )
}

pub fn failures_reply(id: u64, failures: &[f64]) -> String {
    ok_reply(
        id,
        Json::Obj(vec![(
            "failures".to_owned(),
            Json::Arr(failures.iter().map(|f| Json::Num(*f)).collect()),
        )]),
    )
}

/// Content id a server assigns to a loaded model, computed in-process
/// through the same registry code.
pub fn content_id(model: &ModelSpec) -> String {
    hmdiv_serve::Registry::new()
        .load_sequential(model.params(), None)
        .expect("generated models pass admission")
        .id
}

#[cfg(test)]
mod tests {
    use crate::serving::{FleetStream, Inputs};

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let inputs = Inputs::generate(seed);
        let mut out = Vec::new();
        for line in inputs.evaluate_lines.iter().chain(&inputs.sweep_lines) {
            out.extend_from_slice(line.line.as_bytes());
        }
        for conn in 0..2 {
            let mut stream = FleetStream::new(seed, conn, &inputs);
            for _ in 0..500 {
                out.extend_from_slice(stream.next_op().line.as_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_request_stream() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
    }

    #[test]
    fn different_seed_gives_different_request_stream() {
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }

    #[test]
    fn generated_lines_parse_as_requests() {
        let inputs = Inputs::generate(3);
        for line in inputs.evaluate_lines.iter().chain(&inputs.sweep_lines) {
            let env = hmdiv_serve::protocol::parse_request(line.line.trim_end())
                .expect("generated line parses");
            assert!(env.verb == "evaluate" || env.verb == "scenarios");
        }
    }
}
