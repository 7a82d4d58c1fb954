//! The JSON-lines wire protocol: request envelopes, typed bodies, and
//! response rendering.
//!
//! Every request is one line of JSON, every response one line back:
//!
//! ```text
//! → {"id":1,"verb":"evaluate","model":"m…","profile":{"easy":0.9,"difficult":0.1}}
//! ← {"id":1,"ok":true,"result":{"failure":0.18902}}
//! ← {"id":2,"ok":false,"error":{"code":"unknown_class","message":"…"}}
//! ```
//!
//! The envelope fields are `id` (any JSON value, echoed verbatim), `verb`,
//! an optional `deadline_ms`, and an optional `trace_id` (a hex-u64
//! correlation id: when present it names the request's trace instead of a
//! server-minted id, and is echoed in the response envelope so pipelined
//! callers can correlate replies with flight-recorder records); the
//! remaining members are the verb's body. Demand profiles are JSON
//! objects whose **member order is the profile's class order** —
//! [`crate::json`] preserves it, so eq. (8) accumulates in exactly the
//! order a direct in-process caller would use, and server results are
//! bit-identical to local evaluation.
//!
//! `u64` content hashes travel as 16-digit hex strings (JSON numbers are
//! doubles and cannot carry 64 bits).

use std::io::{self, Read};

use hmdiv_core::cohort::CohortMember;
use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{
    ClassId, ClassParams, DemandProfile, DetectionParams, ModelParams, SequentialModel,
    UniverseManifest,
};
use hmdiv_prob::Probability;

use crate::error::ServeError;
use crate::json::{self, Json};

/// One framing event from the [`LineReader`]: a complete request line, or
/// a typed framing fault the connection can survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete newline-terminated line (terminator and any trailing
    /// `\r` stripped).
    Line(String),
    /// A line provably exceeded the configured limit. The offending bytes
    /// are discarded — through the terminating newline when one is in the
    /// buffer, or until one arrives (resync mode) — and framing resumes
    /// at the next line.
    TooLong {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// A complete line was not valid UTF-8. The line is discarded; the
    /// newline framing is intact, so the connection survives.
    InvalidUtf8,
}

/// Buffers raw socket bytes and yields newline-framed [`LineEvent`]s.
///
/// The reader is **resumable**: bytes can arrive one at a time (slow
/// clients, split TCP segments, UTF-8 sequences cut mid-codepoint) and
/// partial-line state carries across [`push`](LineReader::push) calls.
/// Scanning is incremental — each buffered byte is inspected once, so a
/// trickled 1 MiB line costs O(n), not O(n²).
///
/// Over-limit lines do not poison the stream: the reader reports
/// [`LineEvent::TooLong`] once and silently discards bytes until the next
/// newline, after which framing resumes. Memory stays bounded by the
/// limit plus one read chunk.
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    limit: usize,
    /// Index into `buf` up to which we already scanned for `\n`.
    scanned: usize,
    /// Discarding an over-limit line until the next newline.
    resync: bool,
}

impl LineReader {
    /// A reader that frames lines of at most `limit` bytes.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        LineReader {
            buf: Vec::new(),
            limit,
            scanned: 0,
            resync: false,
        }
    }

    /// Appends raw socket bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads a nonblocking `src` through `chunk` until it would block,
    /// at least `budget` bytes have arrived, or the stream ends. Returns
    /// the bytes buffered and whether the stream ended; frame them with
    /// [`next_event`](LineReader::next_event).
    ///
    /// # Errors
    ///
    /// Any read error other than would-block or an interrupt: the
    /// connection is broken.
    pub fn read_from(
        &mut self,
        src: &mut impl Read,
        chunk: &mut [u8],
        budget: usize,
    ) -> io::Result<(usize, bool)> {
        let mut total = 0;
        while total < budget {
            match src.read(chunk) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    self.push(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok((total, false))
    }

    /// Bytes buffered but not yet framed (bounded by the limit outside
    /// resync mode).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next framing event, or `None` if more bytes are needed.
    pub fn next_event(&mut self) -> Option<LineEvent> {
        loop {
            let newline = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|off| self.scanned + off);
            if self.resync {
                match newline {
                    Some(pos) => {
                        // The over-limit line ends here; drop it and
                        // resume normal framing on what follows.
                        self.buf.drain(..=pos);
                        self.scanned = 0;
                        self.resync = false;
                        continue;
                    }
                    None => {
                        // Still inside the oversized line: every buffered
                        // byte is garbage. Memory stays flat.
                        self.buf.clear();
                        self.scanned = 0;
                        return None;
                    }
                }
            }
            return match newline {
                Some(pos) if pos > self.limit => {
                    // Terminated but too long: framing survives, the
                    // payload does not.
                    self.buf.drain(..=pos);
                    self.scanned = 0;
                    Some(LineEvent::TooLong { limit: self.limit })
                }
                Some(pos) => {
                    let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                    self.scanned = 0;
                    line.pop(); // the \n
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    match String::from_utf8(line) {
                        Ok(text) => Some(LineEvent::Line(text)),
                        Err(_) => Some(LineEvent::InvalidUtf8),
                    }
                }
                None if self.buf.len() > self.limit => {
                    // Provably oversized before the terminator arrived:
                    // report once, then discard until the next newline.
                    self.buf.clear();
                    self.scanned = 0;
                    self.resync = true;
                    Some(LineEvent::TooLong { limit: self.limit })
                }
                None => {
                    self.scanned = self.buf.len();
                    None
                }
            };
        }
    }
}

/// A parsed request envelope; the body keeps the raw members for the
/// verb-specific extractors below.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Json,
    /// The verb.
    pub verb: String,
    /// Optional per-request deadline in milliseconds from receipt.
    pub deadline_ms: Option<u64>,
    /// Optional client-supplied trace correlation id (hex u64 on the
    /// wire), echoed in the response envelope.
    pub trace_id: Option<hmdiv_obs::TraceId>,
    /// The full request object (envelope fields included).
    pub body: Json,
}

/// Parses one request line into an envelope.
///
/// # Errors
///
/// * [`ServeError::Parse`] if the line is not valid JSON.
/// * [`ServeError::BadRequest`] if it is not an object with a string
///   `verb`, `deadline_ms` is present but not a whole number, or
///   `trace_id` is present but not a hex-u64 string.
pub fn parse_request(line: &str) -> Result<Envelope, ServeError> {
    let body = json::parse(line).map_err(|e| ServeError::Parse {
        detail: e.to_string(),
    })?;
    if body.as_obj().is_none() {
        return Err(ServeError::BadRequest {
            detail: "request must be a JSON object".into(),
        });
    }
    let verb = body
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "missing string field `verb`".into(),
        })?
        .to_owned();
    let id = body.get("id").cloned().unwrap_or(Json::Null);
    let deadline_ms = match body.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| ServeError::BadRequest {
            detail: "`deadline_ms` must be a non-negative integer".into(),
        })?),
    };
    let trace_id = match body.get("trace_id") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .and_then(hmdiv_obs::TraceId::parse)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: "`trace_id` must be a hex u64 string".into(),
                })?,
        ),
    };
    Ok(Envelope {
        id,
        verb,
        deadline_ms,
        trace_id,
        body,
    })
}

/// The `id` a reply to `line` echoes when [`parse_request`] rejected it:
/// the `id` member of any JSON object line, else `null`.
#[must_use]
pub fn fallback_id(line: &str) -> Json {
    json::parse(line)
        .ok()
        .and_then(|j| j.get("id").cloned())
        .unwrap_or(Json::Null)
}

/// Renders a success response line (newline included). A client-supplied
/// trace id is echoed as a `trace_id` envelope member.
#[must_use]
pub fn ok_line(id: &Json, trace: Option<hmdiv_obs::TraceId>, result: Json) -> String {
    let mut members = vec![("id".to_owned(), id.clone())];
    if let Some(t) = trace {
        members.push(("trace_id".to_owned(), Json::str(t.to_hex())));
    }
    members.push(("ok".to_owned(), Json::Bool(true)));
    members.push(("result".to_owned(), result));
    let mut out = String::new();
    Json::Obj(members).write(&mut out);
    out.push('\n');
    out
}

/// Renders an error response line (newline included), echoing a
/// client-supplied trace id like [`ok_line`].
#[must_use]
pub fn err_line(id: &Json, trace: Option<hmdiv_obs::TraceId>, error: &ServeError) -> String {
    let mut members = vec![("id".to_owned(), id.clone())];
    if let Some(t) = trace {
        members.push(("trace_id".to_owned(), Json::str(t.to_hex())));
    }
    members.push(("ok".to_owned(), Json::Bool(false)));
    members.push(("error".to_owned(), error.to_wire()));
    let mut out = String::new();
    Json::Obj(members).write(&mut out);
    out.push('\n');
    out
}

/// A required field of the request body.
pub(crate) fn required<'a>(body: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
    body.get(key).ok_or_else(|| ServeError::BadRequest {
        detail: format!("missing field `{key}`"),
    })
}

/// A required string field.
pub fn required_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    required(body, key)?
        .as_str()
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("field `{key}` must be a string"),
        })
}

/// A required number field.
pub(crate) fn required_f64(body: &Json, key: &str) -> Result<f64, ServeError> {
    required(body, key)?
        .as_f64()
        .ok_or_else(|| ServeError::BadRequest {
            detail: format!("field `{key}` must be a number"),
        })
}

/// A required probability field (validated into `[0, 1]`).
fn required_prob(body: &Json, key: &str) -> Result<Probability, ServeError> {
    Probability::new(required_f64(body, key)?)
        .map_err(|e| ServeError::Model(hmdiv_core::ModelError::from(e)))
}

/// Extracts a demand profile from the request's `profile` member: a JSON
/// object mapping class name to weight, **in class order**.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on shape violations; [`ServeError::Model`]
/// for empty/duplicate/invalid-weight profiles (typed `ModelError`s).
pub fn parse_profile(body: &Json) -> Result<DemandProfile, ServeError> {
    let members = required(body, "profile")?
        .as_obj()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`profile` must be an object of class: weight".into(),
        })?;
    let mut pairs = Vec::with_capacity(members.len());
    for (class, weight) in members {
        let w = weight.as_f64().ok_or_else(|| ServeError::BadRequest {
            detail: format!("profile weight for `{class}` must be a number"),
        })?;
        pairs.push((ClassId::new(class), w));
    }
    DemandProfile::from_weights(pairs).map_err(ServeError::Model)
}

/// Extracts a sequential parameter table from the request's `classes`
/// member: `{name: {"p_mf":…, "p_hf_given_ms":…, "p_hf_given_mf":…}}`.
///
/// # Errors
///
/// As [`parse_profile`], with probability validation per parameter.
pub fn parse_model_params(body: &Json) -> Result<ModelParams, ServeError> {
    let members = required(body, "classes")?
        .as_obj()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`classes` must be an object of class: parameter triple".into(),
        })?;
    let mut builder = ModelParams::builder();
    for (class, triple) in members {
        let cp = ClassParams::new(
            required_prob(triple, "p_mf")?,
            required_prob(triple, "p_hf_given_ms")?,
            required_prob(triple, "p_hf_given_mf")?,
        );
        builder = builder.class(class.as_str(), cp);
    }
    builder.build().map_err(ServeError::Model)
}

/// Extracts a parallel-detection parameter table from `classes`:
/// `{name: {"p_mf":…, "p_h_miss":…, "p_h_misclass":…}}`.
///
/// # Errors
///
/// As [`parse_model_params`].
pub fn parse_detection_params(body: &Json) -> Result<Vec<(ClassId, DetectionParams)>, ServeError> {
    let members = required(body, "classes")?
        .as_obj()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`classes` must be an object of class: parameter triple".into(),
        })?;
    let mut out = Vec::with_capacity(members.len());
    for (class, triple) in members {
        out.push((
            ClassId::new(class),
            DetectionParams::new(
                required_prob(triple, "p_mf")?,
                required_prob(triple, "p_h_miss")?,
                required_prob(triple, "p_h_misclass")?,
            ),
        ));
    }
    Ok(out)
}

/// Extracts the optional `universe` member: `{"classes": [names…],
/// "hash": "16-hex"}` — the serialized [`UniverseManifest`] a caller pins
/// the model's index space with.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on shape violations. Integrity (ordering,
/// duplicates, hash) is checked by `UniverseManifest::restore` at load.
pub fn parse_manifest(body: &Json) -> Result<Option<UniverseManifest>, ServeError> {
    let Some(universe) = body.get("universe") else {
        return Ok(None);
    };
    let classes = universe
        .get("classes")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`universe.classes` must be an array of names".into(),
        })?;
    let names = classes
        .iter()
        .map(|c| c.as_str().map(str::to_owned))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`universe.classes` entries must be strings".into(),
        })?;
    let hash = parse_hash(required_str(universe, "hash")?)?;
    Ok(Some(UniverseManifest::from_parts(names, hash)))
}

/// Parses a 16-digit hex content hash.
fn parse_hash(text: &str) -> Result<u64, ServeError> {
    u64::from_str_radix(text, 16).map_err(|_| ServeError::BadRequest {
        detail: format!("`hash` must be a hex u64, got `{text}`"),
    })
}

/// Renders a content hash the way the protocol expects it.
#[must_use]
pub fn render_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Extracts one scenario: an array of change objects, each tagged by `op`.
///
/// Supported ops mirror [`hmdiv_core::extrapolate::Change`]:
/// `improve_machine`, `improve_machine_everywhere`, `set_machine_failure`,
/// `set_reader`, `scale_reader_everywhere`.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on shape violations or unknown ops.
pub fn parse_scenario(value: &Json) -> Result<Scenario, ServeError> {
    let changes = value.as_arr().ok_or_else(|| ServeError::BadRequest {
        detail: "a scenario must be an array of change objects".into(),
    })?;
    let mut scenario = Scenario::new();
    for change in changes {
        let op = required_str(change, "op")?;
        scenario = match op {
            "improve_machine" => scenario.improve_machine(
                ClassId::new(required_str(change, "class")?),
                required_f64(change, "factor")?,
            ),
            "improve_machine_everywhere" => {
                scenario.improve_machine_everywhere(required_f64(change, "factor")?)
            }
            "set_machine_failure" => scenario.set_machine_failure(
                ClassId::new(required_str(change, "class")?),
                required_prob(change, "p_mf")?,
            ),
            "set_reader" => scenario.set_reader(
                ClassId::new(required_str(change, "class")?),
                required_prob(change, "p_hf_given_ms")?,
                required_prob(change, "p_hf_given_mf")?,
            ),
            "scale_reader_everywhere" => {
                scenario.scale_reader_everywhere(required_f64(change, "factor")?)
            }
            other => {
                return Err(ServeError::BadRequest {
                    detail: format!("unknown scenario op `{other}`"),
                })
            }
        };
    }
    Ok(scenario)
}

/// Extracts the `scenarios` member: an array of scenarios.
///
/// # Errors
///
/// As [`parse_scenario`]; an empty batch is rejected.
pub fn parse_scenarios(body: &Json) -> Result<Vec<Scenario>, ServeError> {
    let items = required(body, "scenarios")?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`scenarios` must be an array of scenarios".into(),
        })?;
    if items.is_empty() {
        return Err(ServeError::BadRequest {
            detail: "`scenarios` must not be empty".into(),
        });
    }
    items.iter().map(parse_scenario).collect()
}

/// Extracts the `members` array of a cohort request: each entry carries a
/// `name`, a `weight`, and the full per-class parameter map of a
/// sequential model. Shared by the `load_cohort` verb and snapshot
/// restore, so both paths accept exactly the same shape.
///
/// # Errors
///
/// [`ServeError::BadRequest`] when `members` is missing, not an array, or
/// an entry violates the member shape.
pub fn parse_cohort_members(body: &Json) -> Result<Vec<CohortMember>, ServeError> {
    let members = required(body, "members")?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest {
            detail: "`members` must be an array".to_owned(),
        })?;
    let mut parsed = Vec::with_capacity(members.len());
    for member in members {
        parsed.push(CohortMember {
            name: required_str(member, "name")?.to_owned(),
            weight: required_f64(member, "weight")?,
            model: SequentialModel::new(parse_model_params(member)?),
        });
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip_and_defaults() {
        let env = parse_request(r#"{"id":7,"verb":"ping"}"#).unwrap();
        assert_eq!(env.verb, "ping");
        assert_eq!(env.id, Json::Num(7.0));
        assert_eq!(env.deadline_ms, None);
        assert_eq!(env.trace_id, None);
        let env = parse_request(r#"{"verb":"ping","deadline_ms":250}"#).unwrap();
        assert_eq!(env.id, Json::Null);
        assert_eq!(env.deadline_ms, Some(250));
    }

    #[test]
    fn trace_ids_parse_and_reject_non_hex() {
        let env = parse_request(r#"{"verb":"ping","trace_id":"00000000000000ff"}"#).unwrap();
        assert_eq!(env.trace_id, Some(hmdiv_obs::TraceId(255)));
        assert!(matches!(
            parse_request(r#"{"verb":"ping","trace_id":"not-hex"}"#),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"verb":"ping","trace_id":7}"#),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn envelope_rejections_are_typed() {
        assert!(matches!(
            parse_request("not json"),
            Err(ServeError::Parse { .. })
        ));
        assert!(matches!(
            parse_request("[1,2]"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"id":1}"#),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"verb":"ping","deadline_ms":-1}"#),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn response_lines_are_golden() {
        assert_eq!(
            ok_line(
                &Json::Num(1.0),
                None,
                Json::Obj(vec![("pong".into(), Json::Bool(true))])
            ),
            "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}\n"
        );
        assert_eq!(
            err_line(&Json::Num(2.0), None, &ServeError::DeadlineExceeded),
            "{\"id\":2,\"ok\":false,\"error\":{\"code\":\"deadline_exceeded\",\
             \"message\":\"deadline expired before evaluation\"}}\n"
        );
        // A trace id echoes between `id` and `ok`, zero-padded hex.
        assert_eq!(
            ok_line(
                &Json::Num(3.0),
                Some(hmdiv_obs::TraceId(255)),
                Json::Obj(vec![("pong".into(), Json::Bool(true))])
            ),
            "{\"id\":3,\"trace_id\":\"00000000000000ff\",\"ok\":true,\
             \"result\":{\"pong\":true}}\n"
        );
        assert_eq!(
            err_line(
                &Json::Num(4.0),
                Some(hmdiv_obs::TraceId(16)),
                &ServeError::DeadlineExceeded
            ),
            "{\"id\":4,\"trace_id\":\"0000000000000010\",\"ok\":false,\
             \"error\":{\"code\":\"deadline_exceeded\",\
             \"message\":\"deadline expired before evaluation\"}}\n"
        );
    }

    #[test]
    fn profile_preserves_wire_order() {
        let body = json::parse(r#"{"profile":{"easy":0.9,"difficult":0.1}}"#).unwrap();
        let profile = parse_profile(&body).unwrap();
        let order: Vec<&str> = profile.classes().iter().map(ClassId::name).collect();
        assert_eq!(order, ["easy", "difficult"], "wire order, not sorted");
        // Reversed wire order yields the reversed profile order.
        let body = json::parse(r#"{"profile":{"difficult":0.1,"easy":0.9}}"#).unwrap();
        let profile = parse_profile(&body).unwrap();
        let order: Vec<&str> = profile.classes().iter().map(ClassId::name).collect();
        assert_eq!(order, ["difficult", "easy"]);
    }

    #[test]
    fn profile_errors_are_model_typed() {
        let dup = json::parse(r#"{"profile":{"easy":0.5,"easy":0.5}}"#).unwrap();
        assert!(matches!(
            parse_profile(&dup),
            Err(ServeError::Model(
                hmdiv_core::ModelError::DuplicateClass { .. }
            ))
        ));
        let empty = json::parse(r#"{"profile":{}}"#).unwrap();
        assert!(matches!(
            parse_profile(&empty),
            Err(ServeError::Model(hmdiv_core::ModelError::Empty { .. }))
        ));
        let shape = json::parse(r#"{"profile":[1]}"#).unwrap();
        assert!(matches!(
            parse_profile(&shape),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn model_params_parse_the_paper_table() {
        let body = json::parse(
            r#"{"classes":{
                "easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                "difficult":{"p_mf":0.41,"p_hf_given_ms":0.4,"p_hf_given_mf":0.9}
            }}"#,
        )
        .unwrap();
        let params = parse_model_params(&body).unwrap();
        assert_eq!(
            &params,
            hmdiv_core::paper::example_model().unwrap().params()
        );
        let invalid = json::parse(
            r#"{"classes":{"easy":{"p_mf":1.5,"p_hf_given_ms":0.1,"p_hf_given_mf":0.2}}}"#,
        )
        .unwrap();
        assert!(matches!(
            parse_model_params(&invalid),
            Err(ServeError::Model(hmdiv_core::ModelError::Prob(_)))
        ));
    }

    #[test]
    fn manifest_round_trips_through_the_wire_shape() {
        let universe = hmdiv_core::ClassUniverse::from_names(["difficult", "easy"]);
        let manifest = UniverseManifest::of(&universe);
        let wire = format!(
            r#"{{"universe":{{"classes":["difficult","easy"],"hash":"{}"}}}}"#,
            render_hash(manifest.hash())
        );
        let body = json::parse(&wire).unwrap();
        let parsed = parse_manifest(&body).unwrap().unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.restore().unwrap(), universe);
        // Absent member is simply None.
        assert_eq!(parse_manifest(&json::parse("{}").unwrap()).unwrap(), None);
        // Bad hex is a bad request, not a panic.
        let bad = json::parse(r#"{"universe":{"classes":["a"],"hash":"zz"}}"#).unwrap();
        assert!(matches!(
            parse_manifest(&bad),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn scenarios_parse_every_op() {
        let body = json::parse(
            r#"{"scenarios":[
                [{"op":"improve_machine","class":"difficult","factor":10}],
                [{"op":"improve_machine_everywhere","factor":2}],
                [{"op":"set_machine_failure","class":"easy","p_mf":0.01}],
                [{"op":"set_reader","class":"easy","p_hf_given_ms":0.1,"p_hf_given_mf":0.2}],
                [{"op":"scale_reader_everywhere","factor":1.5}],
                []
            ]}"#,
        )
        .unwrap();
        let scenarios = parse_scenarios(&body).unwrap();
        assert_eq!(scenarios.len(), 6);
        assert_eq!(scenarios[5], Scenario::new());
        assert_eq!(scenarios[0].changes().len(), 1);
        let unknown = json::parse(r#"{"scenarios":[[{"op":"warp","factor":2}]]}"#).unwrap();
        assert!(matches!(
            parse_scenarios(&unknown),
            Err(ServeError::BadRequest { detail }) if detail.contains("warp")
        ));
        let empty = json::parse(r#"{"scenarios":[]}"#).unwrap();
        assert!(parse_scenarios(&empty).is_err());
    }

    #[test]
    fn detection_params_parse() {
        let body =
            json::parse(r#"{"classes":{"easy":{"p_mf":0.07,"p_h_miss":0.2,"p_h_misclass":0.05}}}"#)
                .unwrap();
        let parsed = parse_detection_params(&body).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0.name(), "easy");
    }

    #[test]
    fn cohort_members_parse_and_reject_bad_shapes() {
        let body = json::parse(
            r#"{"members":[
                {"name":"alice","weight":2.0,
                 "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.003,"p_hf_given_mf":0.4}}},
                {"name":"bob","weight":1.0,
                 "classes":{"easy":{"p_mf":0.07,"p_hf_given_ms":0.01,"p_hf_given_mf":0.5}}}
            ]}"#,
        )
        .unwrap();
        let members = parse_cohort_members(&body).unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].name, "alice");
        assert_eq!(members[0].weight, 2.0);
        let not_array = json::parse(r#"{"members":{}}"#).unwrap();
        assert!(matches!(
            parse_cohort_members(&not_array),
            Err(ServeError::BadRequest { .. })
        ));
        let missing_weight = json::parse(r#"{"members":[{"name":"a","classes":{}}]}"#).unwrap();
        assert!(parse_cohort_members(&missing_weight).is_err());
    }

    #[test]
    fn line_reader_frames_across_split_pushes() {
        let mut reader = LineReader::new(64);
        reader.push(b"{\"verb\":\"pi");
        assert_eq!(reader.next_event(), None);
        reader.push(b"ng\"}\r\n{\"verb\"");
        assert_eq!(
            reader.next_event(),
            Some(LineEvent::Line("{\"verb\":\"ping\"}".into()))
        );
        assert_eq!(reader.next_event(), None);
        reader.push(b":\"metrics\"}\n");
        assert_eq!(
            reader.next_event(),
            Some(LineEvent::Line("{\"verb\":\"metrics\"}".into()))
        );
        assert_eq!(reader.next_event(), None);
    }

    #[test]
    fn line_reader_trickles_one_byte_at_a_time() {
        let mut reader = LineReader::new(32);
        for &b in b"hello" {
            reader.push(&[b]);
            assert_eq!(reader.next_event(), None);
        }
        reader.push(b"\n");
        assert_eq!(reader.next_event(), Some(LineEvent::Line("hello".into())));
    }

    #[test]
    fn line_reader_splits_utf8_across_pushes_and_flags_invalid() {
        // "é" is 0xC3 0xA9 — split the codepoint across two pushes.
        let mut reader = LineReader::new(32);
        reader.push(&[0xC3]);
        assert_eq!(reader.next_event(), None);
        reader.push(&[0xA9, b'\n']);
        assert_eq!(reader.next_event(), Some(LineEvent::Line("é".into())));
        // A lone continuation byte in a complete line is invalid UTF-8 but
        // does not break framing: the next line still parses.
        reader.push(&[0xA9, b'\n', b'o', b'k', b'\n']);
        assert_eq!(reader.next_event(), Some(LineEvent::InvalidUtf8));
        assert_eq!(reader.next_event(), Some(LineEvent::Line("ok".into())));
    }

    #[test]
    fn line_reader_reports_too_long_once_and_resyncs() {
        let mut reader = LineReader::new(4);
        // Unterminated overflow: reported as soon as it is provable, then
        // the reader silently discards until the newline arrives.
        reader.push(b"aaaaaaaa");
        assert_eq!(reader.next_event(), Some(LineEvent::TooLong { limit: 4 }));
        assert_eq!(reader.next_event(), None);
        reader.push(b"aaaa");
        assert_eq!(reader.next_event(), None, "still inside the bad line");
        assert_eq!(reader.buffered(), 0, "resync keeps memory flat");
        reader.push(b"a\nok\n");
        assert_eq!(reader.next_event(), Some(LineEvent::Line("ok".into())));
        // Terminated overflow in a single push: one event, framing intact.
        reader.push(b"bbbbbbbb\nfine\n");
        assert_eq!(reader.next_event(), Some(LineEvent::TooLong { limit: 4 }));
        assert_eq!(reader.next_event(), Some(LineEvent::Line("fine".into())));
        assert_eq!(reader.next_event(), None);
    }
}
