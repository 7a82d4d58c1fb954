//! Parameter-domain checks over compiled models, bound profiles, and
//! reader cohorts.
//!
//! The runtime types ([`hmdiv_prob::Probability`], `Categorical`,
//! `ReaderCohort::new`) already refuse most malformed values at
//! construction; this pass re-establishes those invariants *on the dense
//! slots an evaluator will actually read*, so an artifact of any
//! provenance — deserialized, patched, content-addressed from a registry —
//! is vouched for before it is admitted. On top of the domain checks it
//! decides the paper-level properties that are statically decidable:
//! the sign of the coherence index `t(x)` per class (eq. 9), classes whose
//! `P(Ms) = 0` would make Bayes conditioning fail at runtime, and class
//! slots a bound profile can never demand.

use hmdiv_core::cohort::ReaderCohort;
use hmdiv_core::{ClassUniverse, CompiledModel, CompiledProfile, ParallelDetectionModel};

use crate::diag::{codes, Report};

/// The pass name used in diagnostics from this module.
const PASS: &str = "params";

/// The pass name for cohort-level diagnostics.
const COHORT_PASS: &str = "cohort";

/// Profile weights must sum to 1 within this absolute tolerance.
pub const PROFILE_SUM_TOLERANCE: f64 = 1e-9;

/// Checks one dense slot value; emits at most one diagnostic.
fn check_slot(report: &mut Report, value: f64, class: &str, slot: &str) -> bool {
    if !value.is_finite() {
        report.emit(
            &codes::NON_FINITE_PARAM,
            PASS,
            format!("class `{class}`: {slot} is {value}"),
        );
        false
    } else if !(0.0..=1.0).contains(&value) {
        report.emit(
            &codes::PARAM_OUT_OF_RANGE,
            PASS,
            format!("class `{class}`: {slot} = {value} is outside [0,1]"),
        );
        false
    } else {
        true
    }
}

/// Checks a compiled sequential model's parameter slots and per-class
/// coherence properties.
#[must_use]
pub fn check_model(model: &CompiledModel) -> Report {
    let _span = hmdiv_obs::span("analyze.params");
    let mut report = Report::new();
    if model.is_empty() {
        report.emit(&codes::EMPTY_MODEL, PASS, "model has no classes".to_owned());
        return report;
    }
    let universe = model.universe();
    for (i, cp) in model.params_slice().iter().enumerate() {
        let class = universe.class(i as u32).name();
        let (p_mf, p_hf_ms, p_hf_mf) = (
            cp.p_mf().value(),
            cp.p_hf_given_ms().value(),
            cp.p_hf_given_mf().value(),
        );
        let ok = check_slot(&mut report, p_mf, class, "P(Mf)")
            & check_slot(&mut report, p_hf_ms, class, "P(Hf|Ms)")
            & check_slot(&mut report, p_hf_mf, class, "P(Hf|Mf)");
        if !ok {
            continue;
        }
        // Eq. (9): t(x) = P(Hf|Mf)(x) − P(Hf|Ms)(x). Ordered comparisons
        // keep the sign test inside the `float_cmp` house rule; both
        // slots are finite here, so trichotomy is exhaustive.
        let t = p_hf_mf - p_hf_ms;
        if t < 0.0 {
            report.emit(
                &codes::NEGATIVE_COHERENCE_INDEX,
                PASS,
                format!(
                    "class `{class}`: t(x) = {t:.9} < 0 — the human does better when the machine fails"
                ),
            );
        } else if t <= 0.0 {
            report.emit(
                &codes::ZERO_COHERENCE_INDEX,
                PASS,
                format!("class `{class}`: t(x) = 0 — human failure is independent of the advice"),
            );
        }
        if p_mf >= 1.0 {
            report.emit(
                &codes::MACHINE_NEVER_SUCCEEDS,
                PASS,
                format!(
                    "class `{class}`: P(Mf) = 1, so P(Hf|Ms) is conditioned on a zero-probability event"
                ),
            );
        }
    }
    report
}

/// Checks a bound profile against the universe of the model it will be
/// evaluated under: weight domain, normalisation, index range, and
/// reachability of the model's class slots.
#[must_use]
pub fn check_profile(model_universe: &ClassUniverse, profile: &CompiledProfile) -> Report {
    let _span = hmdiv_obs::span("analyze.params");
    let mut report = Report::new();
    if profile.universe().content_hash() != model_universe.content_hash() {
        report.emit(
            &codes::UNIVERSE_MISMATCH,
            PASS,
            format!(
                "profile is bound to a {}-class universe (hash {:016x}); the model interns {} classes (hash {:016x})",
                profile.universe().len(),
                profile.universe().content_hash(),
                model_universe.len(),
                model_universe.content_hash()
            ),
        );
        return report;
    }
    let mut sum = 0.0;
    let mut demanded = vec![false; model_universe.len()];
    for (idx, w) in profile.iter() {
        if (idx as usize) >= model_universe.len() {
            report.emit(
                &codes::BAD_PROFILE_WEIGHT,
                PASS,
                format!(
                    "profile index {idx} is outside the {}-class universe",
                    model_universe.len()
                ),
            );
            continue;
        }
        let class = model_universe.class(idx).name();
        if !w.is_finite() || w < 0.0 {
            report.emit(
                &codes::BAD_PROFILE_WEIGHT,
                PASS,
                format!("class `{class}`: weight {w} is not a finite non-negative number"),
            );
            continue;
        }
        if w > 0.0 {
            demanded[idx as usize] = true;
        }
        sum += w;
    }
    if report.is_empty() && (sum - 1.0).abs() > PROFILE_SUM_TOLERANCE {
        report.emit(
            &codes::PROFILE_SUM,
            PASS,
            format!(
                "profile weights sum to {sum:.12}, expected 1 \u{00b1} {PROFILE_SUM_TOLERANCE:e}"
            ),
        );
    }
    for (i, hit) in demanded.iter().enumerate() {
        if !hit {
            report.emit(
                &codes::UNREACHABLE_CLASS,
                PASS,
                format!(
                    "class `{}` carries parameters but zero demand under this profile",
                    model_universe.class(i as u32).name()
                ),
            );
        }
    }
    report
}

/// Checks a parallel-detection model's parameter slots.
#[must_use]
pub fn check_detection(model: &ParallelDetectionModel) -> Report {
    let _span = hmdiv_obs::span("analyze.params");
    let mut report = Report::new();
    let universe = model.universe();
    if universe.is_empty() {
        report.emit(&codes::EMPTY_MODEL, PASS, "model has no classes".to_owned());
        return report;
    }
    for i in 0..universe.len() {
        let class = universe.class(i as u32).name();
        let dp = model.params_at(i as u32);
        check_slot(&mut report, dp.p_mf.value(), class, "P(Mf)");
        check_slot(&mut report, dp.p_h_miss.value(), class, "P(Hmiss)");
        check_slot(&mut report, dp.p_h_misclass.value(), class, "P(Hmisclass)");
    }
    report
}

/// Checks a reader cohort: member weights, cross-member universe
/// agreement, and every member's parameter slots (scoped by member name).
#[must_use]
pub fn check_cohort(cohort: &ReaderCohort) -> Report {
    let _span = hmdiv_obs::span("analyze.params");
    let mut report = Report::new();
    let members = cohort.members();
    if members.is_empty() {
        report.emit(
            &codes::EMPTY_COHORT,
            COHORT_PASS,
            "cohort has no members".to_owned(),
        );
        return report;
    }
    let reference = members[0].model.compiled().universe().clone();
    for member in members {
        if !member.weight.is_finite() || member.weight <= 0.0 {
            report.emit(
                &codes::BAD_COHORT_WEIGHT,
                COHORT_PASS,
                format!(
                    "member `{}`: weight {} is not a finite positive number",
                    member.name, member.weight
                ),
            );
        }
        let universe = member.model.compiled().universe();
        if universe.content_hash() != reference.content_hash() {
            report.emit(
                &codes::COHORT_UNIVERSE_MISMATCH,
                COHORT_PASS,
                format!(
                    "member `{}` interns {} classes (hash {:016x}) but member `{}` interns {} (hash {:016x}); cohort aggregates are only meaningful over one universe",
                    member.name,
                    universe.len(),
                    universe.content_hash(),
                    members[0].name,
                    reference.len(),
                    reference.content_hash()
                ),
            );
        }
        report.merge_prefixed(
            check_model(member.model.compiled()),
            &format!("member `{}`: ", member.name),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::cohort::CohortMember;
    use hmdiv_core::{paper, ClassId, ClassParams, DemandProfile, ModelParams, SequentialModel};
    use hmdiv_prob::Probability;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn paper_model_and_profiles_are_clean_of_errors() {
        let model = paper::example_model().unwrap();
        let report = check_model(model.compiled());
        assert!(!report.has_errors(), "{}", report.render_text());
        for profile in [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ] {
            let bound = model.compiled().bind_profile(&profile).unwrap();
            let report = check_profile(model.compiled().universe(), &bound);
            assert!(!report.has_errors(), "{}", report.render_text());
        }
    }

    #[test]
    fn detection_model_is_clean() {
        let model = hmdiv_core::ParallelDetectionModel::builder()
            .class(
                "easy",
                hmdiv_core::DetectionParams::new(p(0.1), p(0.2), p(0.05)),
            )
            .class(
                "difficult",
                hmdiv_core::DetectionParams::new(p(0.4), p(0.5), p(0.2)),
            )
            .build()
            .unwrap();
        assert!(!check_detection(&model).has_errors());
    }

    #[test]
    fn coherence_index_signs_are_reported() {
        let params = ModelParams::builder()
            .class(
                ClassId::new("inverted"),
                ClassParams::new(p(0.3), p(0.4), p(0.1)),
            )
            .class(
                ClassId::new("indifferent"),
                ClassParams::new(p(0.2), p(0.25), p(0.25)),
            )
            .build()
            .unwrap();
        let model = SequentialModel::new(params);
        let report = check_model(model.compiled());
        let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"HM025"), "{codes:?}");
        assert!(codes.contains(&"HM026"), "{codes:?}");
        assert!(!report.has_errors());
    }

    #[test]
    fn machine_never_succeeding_warns() {
        let params = ModelParams::builder()
            .class(
                ClassId::new("hopeless"),
                ClassParams::new(p(1.0), p(0.5), p(0.6)),
            )
            .build()
            .unwrap();
        let model = SequentialModel::new(params);
        let report = check_model(model.compiled());
        assert_eq!(report.worst().unwrap().code, "HM027");
    }

    #[test]
    fn unreachable_classes_are_noted() {
        let model = paper::example_model().unwrap();
        // A profile that demands only the easy class.
        let profile = DemandProfile::builder().class("easy", 1.0).build().unwrap();
        let bound = model.compiled().bind_profile(&profile).unwrap();
        let report = check_profile(model.compiled().universe(), &bound);
        assert!(!report.has_errors());
        let unreachable: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "HM024")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(unreachable.len(), 1, "{report:?}");
        assert!(unreachable[0].contains("difficult"));
    }

    #[test]
    fn universe_mismatch_is_an_error() {
        let model = paper::example_model().unwrap();
        let other = ModelParams::builder()
            .class(
                ClassId::new("alien"),
                ClassParams::new(p(0.1), p(0.2), p(0.3)),
            )
            .build()
            .unwrap();
        let other = SequentialModel::new(other);
        let profile = DemandProfile::builder()
            .class("alien", 1.0)
            .build()
            .unwrap();
        let bound = other.compiled().bind_profile(&profile).unwrap();
        let report = check_profile(model.compiled().universe(), &bound);
        assert_eq!(report.first_error().unwrap().code, "HM029");
    }

    #[test]
    fn cohort_universe_mismatch_is_an_error() {
        let alien = ModelParams::builder()
            .class(
                ClassId::new("alien"),
                ClassParams::new(p(0.1), p(0.2), p(0.3)),
            )
            .build()
            .unwrap();
        let cohort = ReaderCohort::new(vec![
            CohortMember {
                name: "R1".into(),
                model: paper::example_model().unwrap(),
                weight: 1.0,
            },
            CohortMember {
                name: "R2".into(),
                model: SequentialModel::new(alien),
                weight: 1.0,
            },
        ])
        .unwrap();
        let report = check_cohort(&cohort);
        assert_eq!(report.first_error().unwrap().code, "HM030");
    }

    #[test]
    fn clean_cohort_passes() {
        let cohort = ReaderCohort::new(vec![
            CohortMember {
                name: "R1".into(),
                model: paper::example_model().unwrap(),
                weight: 2.0,
            },
            CohortMember {
                name: "R2".into(),
                model: paper::example_model().unwrap(),
                weight: 1.0,
            },
        ])
        .unwrap();
        assert!(!check_cohort(&cohort).has_errors());
    }
}
