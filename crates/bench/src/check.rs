//! `repro check` — run the `hmdiv-analyze` static passes over artifact
//! files on disk and fail the process when any carries an error-severity
//! diagnostic.
//!
//! An artifact file is a JSON object in the same shape the serve wire
//! protocol uses, plus an optional `"kind"` discriminator:
//!
//! - `"sequential"` — `{"classes": {name: {"p_mf", "p_hf_given_ms",
//!   "p_hf_given_mf"}}}`, optionally with a `"profile"` object to also
//!   check the demand profile against the model's universe.
//! - `"detection"` — `{"classes": {name: {"p_mf", "p_h_miss",
//!   "p_h_misclass"}}}`.
//! - `"cohort"` — `{"members": [{"name", "weight", "classes": …}]}`.
//! - `"rbd"` — `{"block": …, "probabilities": {component: p | [lo, hi]}}`
//!   where a block is a component-name string, `{"series": […]}`,
//!   `{"parallel": […]}`, or `{"k_of_n": {"k": N, "of": […]}}`.
//!
//! When `"kind"` is absent it is inferred from the fields present. Build
//! failures (invalid probabilities, malformed diagrams) count as check
//! failures too — the typed error is the finding.

use hmdiv_analyze::{self as analyze, Interval, Report};
use hmdiv_core::cohort::{CohortMember, ReaderCohort};
use hmdiv_core::{ParallelDetectionModel, SequentialModel};
use hmdiv_rbd::compiled::CompiledBlock;
use hmdiv_rbd::Block;
use hmdiv_serve::json::{self, Json};
use hmdiv_serve::protocol;

/// The result of checking one artifact file.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Which artifact shape was checked.
    pub kind: &'static str,
    /// The analyzer's findings.
    pub report: Report,
    /// Static reliability bounds, for `rbd` artifacts that admit them.
    pub bounds: Option<Interval>,
}

impl CheckOutcome {
    /// Whether the artifact passed (no error-severity diagnostics).
    #[must_use]
    pub fn passed(&self) -> bool {
        !self.report.has_errors()
    }
}

/// Parses and checks one artifact source string.
///
/// # Errors
///
/// A human-readable message when the source cannot be parsed or the
/// artifact cannot be built at all (those are failures of the check,
/// distinct from error-severity diagnostics on a well-formed artifact).
pub fn check_source(source: &str) -> Result<CheckOutcome, String> {
    let body = json::parse(source).map_err(|e| format!("invalid JSON: {e}"))?;
    if body.as_obj().is_none() {
        return Err("artifact must be a JSON object".into());
    }
    match artifact_kind(&body)? {
        "sequential" => check_sequential(&body),
        "detection" => check_detection(&body),
        "cohort" => check_cohort(&body),
        "rbd" => check_rbd(&body),
        other => Err(format!("unknown artifact kind `{other}`")),
    }
}

/// Resolves the artifact kind: the explicit `"kind"` field, else inferred
/// from which top-level fields are present.
fn artifact_kind(body: &Json) -> Result<&'static str, String> {
    if let Some(kind) = body.get("kind") {
        let kind = kind
            .as_str()
            .ok_or_else(|| "`kind` must be a string".to_owned())?;
        return ["sequential", "detection", "cohort", "rbd"]
            .into_iter()
            .find(|k| *k == kind)
            .ok_or_else(|| format!("unknown artifact kind `{kind}`"));
    }
    if body.get("members").is_some() {
        return Ok("cohort");
    }
    if body.get("block").is_some() {
        return Ok("rbd");
    }
    let classes = body.get("classes").ok_or_else(|| {
        "artifact has neither `kind`, `classes`, `members`, nor `block`".to_owned()
    })?;
    let detection = classes
        .as_obj()
        .and_then(|entries| entries.first())
        .is_some_and(|(_, triple)| triple.get("p_h_miss").is_some());
    Ok(if detection { "detection" } else { "sequential" })
}

fn check_sequential(body: &Json) -> Result<CheckOutcome, String> {
    let params = protocol::parse_model_params(body).map_err(|e| e.to_string())?;
    let model = SequentialModel::new(params);
    let compiled = model.compiled();
    let bound = if body.get("profile").is_some() {
        let profile = protocol::parse_profile(body).map_err(|e| e.to_string())?;
        Some(compiled.bind_profile(&profile).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(CheckOutcome {
        kind: "sequential",
        report: analyze::analyze_model(compiled, bound.as_ref()),
        bounds: None,
    })
}

fn check_detection(body: &Json) -> Result<CheckOutcome, String> {
    let classes = protocol::parse_detection_params(body).map_err(|e| e.to_string())?;
    let mut builder = ParallelDetectionModel::builder();
    for (class, dp) in classes {
        builder = builder.class(class, dp);
    }
    let model = builder.build().map_err(|e| e.to_string())?;
    Ok(CheckOutcome {
        kind: "detection",
        report: analyze::analyze_detection(&model),
        bounds: None,
    })
}

fn check_cohort(body: &Json) -> Result<CheckOutcome, String> {
    let members = body
        .get("members")
        .and_then(Json::as_arr)
        .ok_or_else(|| "`members` must be an array".to_owned())?;
    let mut parsed = Vec::with_capacity(members.len());
    for member in members {
        let name = member
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "cohort member needs a string `name`".to_owned())?;
        let weight = member
            .get("weight")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("member `{name}` needs a numeric `weight`"))?;
        let params =
            protocol::parse_model_params(member).map_err(|e| format!("member `{name}`: {e}"))?;
        parsed.push(CohortMember {
            name: name.to_owned(),
            weight,
            model: SequentialModel::new(params),
        });
    }
    let cohort = ReaderCohort::new(parsed).map_err(|e| e.to_string())?;
    Ok(CheckOutcome {
        kind: "cohort",
        report: analyze::analyze_cohort(&cohort),
        bounds: None,
    })
}

fn check_rbd(body: &Json) -> Result<CheckOutcome, String> {
    let block = parse_block(
        body.get("block")
            .ok_or_else(|| "`rbd` artifact needs a `block`".to_owned())?,
    )?;
    let compiled = CompiledBlock::compile(&block).map_err(|e| e.to_string())?;
    let probabilities = body
        .get("probabilities")
        .and_then(Json::as_obj)
        .ok_or_else(|| "`rbd` artifact needs a `probabilities` object".to_owned())?;
    let mut bounds = Vec::with_capacity(compiled.component_count());
    for name in compiled.component_names() {
        let value = probabilities
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("no failure probability given for component `{name}`"))?;
        bounds.push(parse_interval(name, value)?);
    }
    let analysis = analyze::analyze_block(&compiled, &bounds);
    Ok(CheckOutcome {
        kind: "rbd",
        report: analysis.report,
        bounds: analysis.bounds,
    })
}

/// Parses a block spec: a component-name string, `{"series": […]}`,
/// `{"parallel": […]}`, or `{"k_of_n": {"k": N, "of": […]}}`.
fn parse_block(value: &Json) -> Result<Block, String> {
    if let Some(name) = value.as_str() {
        return Ok(Block::component(name));
    }
    let obj = value
        .as_obj()
        .ok_or_else(|| "a block is a component-name string or an object".to_owned())?;
    let [(key, inner)] = obj else {
        return Err("a block object has exactly one key".into());
    };
    let children = |v: &Json| -> Result<Vec<Block>, String> {
        v.as_arr()
            .ok_or_else(|| format!("`{key}` takes an array of blocks"))?
            .iter()
            .map(parse_block)
            .collect()
    };
    match key.as_str() {
        "series" => Ok(Block::series(children(inner)?)),
        "parallel" => Ok(Block::parallel(children(inner)?)),
        "k_of_n" => {
            let k = inner
                .get("k")
                .and_then(Json::as_u64)
                .ok_or_else(|| "`k_of_n` needs an integer `k`".to_owned())?;
            let of = children(
                inner
                    .get("of")
                    .ok_or_else(|| "`k_of_n` needs an `of` array".to_owned())?,
            )?;
            let k = usize::try_from(k).map_err(|_| "`k` does not fit usize".to_owned())?;
            Ok(Block::k_of_n(k, of))
        }
        other => Err(format!("unknown block kind `{other}`")),
    }
}

/// A failure probability is a point (number) or an interval `[lo, hi]`.
fn parse_interval(name: &str, value: &Json) -> Result<Interval, String> {
    if let Some(p) = value.as_f64() {
        return Ok(Interval::point(p));
    }
    if let Some([lo, hi]) = value.as_arr() {
        if let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) {
            return Ok(Interval::new(lo, hi));
        }
    }
    Err(format!(
        "probability for `{name}` must be a number or a [lo, hi] pair"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sequential_artifact_passes() {
        let src = r#"{"classes":
            {"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
             "difficult":{"p_mf":0.41,"p_hf_given_ms":0.4,"p_hf_given_mf":0.9}},
            "profile":{"easy":0.85,"difficult":0.15}}"#;
        let outcome = check_source(src).unwrap();
        assert_eq!(outcome.kind, "sequential");
        assert!(outcome.passed());
        assert!(outcome.report.is_empty());
    }

    #[test]
    fn kind_inference_spots_detection_tables() {
        let src = r#"{"classes":
            {"easy":{"p_mf":0.07,"p_h_miss":0.1,"p_h_misclass":0.05}}}"#;
        let outcome = check_source(src).unwrap();
        assert_eq!(outcome.kind, "detection");
        assert!(outcome.passed());
    }

    #[test]
    fn mismatched_cohort_fails_with_hm030() {
        let src = r#"{"members":[
            {"name":"r1","weight":1,"classes":
                {"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18}}},
            {"name":"r2","weight":1,"classes":
                {"alien":{"p_mf":0.1,"p_hf_given_ms":0.2,"p_hf_given_mf":0.3}}}]}"#;
        let outcome = check_source(src).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.report.first_error().unwrap().code, "HM030");
    }

    #[test]
    fn rbd_artifact_reports_interval_bounds() {
        let src = r#"{"kind":"rbd",
            "block":{"series":[{"parallel":["human","machine"]},"archive"]},
            "probabilities":{"human":[0.1,0.2],"machine":0.3,"archive":[0.01,0.02]}}"#;
        let outcome = check_source(src).unwrap();
        assert_eq!(outcome.kind, "rbd");
        assert!(outcome.passed());
        let bounds = outcome.bounds.unwrap();
        assert!(bounds.lo <= bounds.hi);
        assert!(bounds.lo > 0.9);
    }

    #[test]
    fn malformed_diagrams_are_check_failures() {
        let src = r#"{"kind":"rbd",
            "block":{"k_of_n":{"k":3,"of":["a","b"]}},
            "probabilities":{"a":0.1,"b":0.1}}"#;
        let err = check_source(src).unwrap_err();
        assert!(err.contains("threshold 3"), "got: {err}");
    }

    #[test]
    fn missing_component_probability_is_reported_by_name() {
        let src = r#"{"kind":"rbd","block":{"series":["a","b"]},
            "probabilities":{"a":0.1}}"#;
        let err = check_source(src).unwrap_err();
        assert!(err.contains('`'), "got: {err}");
        assert!(err.contains('b'), "got: {err}");
    }
}
