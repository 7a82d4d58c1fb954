//! Trial-to-field extrapolation and what-if scenarios (§5).
//!
//! Eq. (8) "is the key to this kind of extrapolation": once per-class
//! parameters are estimated, changes in the conditions of use are
//! represented by changing parameter values —
//!
//! 1. a different demand profile (`p(x)`),
//! 2. different reader ability (`PHf|Ms(x)`, `PHf|Mf(x)`),
//! 3. reader behaviour evolving with experience of the CADT
//!    ([`AdaptationResponse`]),
//! 4. different machine reliability (`PMf(x)`): maintenance, film quality,
//!    algorithm tuning.
//!
//! A [`Scenario`] composes any of these changes; [`Scenario::apply`] yields
//! the predicted model, and [`Prediction`] packages the before/after system
//! failure probabilities.

use std::fmt;
use std::sync::Arc;

use hmdiv_prob::Probability;

use crate::adaptation::AdaptationResponse;
use crate::{ClassId, DemandProfile, ModelError, ModelParams, SequentialModel};

/// One change to apply to a model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Change {
    /// Divide `PMf(x)` by `factor >= 1` for one class (the paper's
    /// "reduction by 10 of the failure probability").
    ImproveMachine {
        /// The class to improve.
        class: ClassId,
        /// The division factor.
        factor: f64,
    },
    /// Divide `PMf(x)` by `factor >= 1` for every class.
    ImproveMachineEverywhere {
        /// The division factor.
        factor: f64,
    },
    /// Set `PMf(x)` for one class outright (e.g. re-tuned algorithm).
    SetMachineFailure {
        /// The class to change.
        class: ClassId,
        /// The new machine failure probability.
        p_mf: Probability,
    },
    /// Replace the reader conditionals for one class (e.g. different
    /// training or a different reader population).
    SetReader {
        /// The class to change.
        class: ClassId,
        /// New `PHf|Ms(x)`.
        p_hf_given_ms: Probability,
        /// New `PHf|Mf(x)`.
        p_hf_given_mf: Probability,
    },
    /// Scale both reader conditionals for every class by `factor`
    /// (crude "better/worse reader cohort" knob); results are clamped to
    /// `[0, 1]`.
    ScaleReaderEverywhere {
        /// Multiplier on both conditionals.
        factor: f64,
    },
}

/// A composite what-if scenario: an ordered list of [`Change`]s plus an
/// optional [`AdaptationResponse`] applied after all machine changes.
///
/// # Example
///
/// The paper's table 3, right half (improve the CADT ×10 on difficult
/// cases), evaluated under the field profile:
///
/// ```
/// use hmdiv_core::{paper, extrapolate::Scenario, ClassId};
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let base = paper::example_model()?;
/// let field = paper::field_profile()?;
/// let prediction = Scenario::new()
///     .improve_machine(ClassId::new("difficult"), 10.0)
///     .predict(&base, &field)?;
/// assert!((prediction.after.value() - 0.17057).abs() < 1e-9);
/// assert!(prediction.improvement() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    changes: Vec<Change>,
    adaptation: AdaptationResponse,
}

impl Scenario {
    /// An empty scenario (no changes).
    #[must_use]
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Adds a machine improvement on one class.
    #[must_use]
    pub fn improve_machine(mut self, class: ClassId, factor: f64) -> Self {
        self.changes.push(Change::ImproveMachine { class, factor });
        self
    }

    /// Adds a uniform machine improvement.
    #[must_use]
    pub fn improve_machine_everywhere(mut self, factor: f64) -> Self {
        self.changes
            .push(Change::ImproveMachineEverywhere { factor });
        self
    }

    /// Sets the machine failure probability for one class.
    #[must_use]
    pub fn set_machine_failure(mut self, class: ClassId, p_mf: Probability) -> Self {
        self.changes.push(Change::SetMachineFailure { class, p_mf });
        self
    }

    /// Replaces the reader conditionals for one class.
    #[must_use]
    pub fn set_reader(
        mut self,
        class: ClassId,
        p_hf_given_ms: Probability,
        p_hf_given_mf: Probability,
    ) -> Self {
        self.changes.push(Change::SetReader {
            class,
            p_hf_given_ms,
            p_hf_given_mf,
        });
        self
    }

    /// Scales both reader conditionals everywhere.
    #[must_use]
    pub fn scale_reader_everywhere(mut self, factor: f64) -> Self {
        self.changes.push(Change::ScaleReaderEverywhere { factor });
        self
    }

    /// Sets the reader-adaptation response applied after machine changes.
    #[must_use]
    pub fn with_adaptation(mut self, adaptation: AdaptationResponse) -> Self {
        self.adaptation = adaptation;
        self
    }

    /// The changes in application order.
    #[must_use]
    pub fn changes(&self) -> &[Change] {
        &self.changes
    }

    /// The reader-adaptation response applied after the changes.
    #[must_use]
    pub fn adaptation(&self) -> &AdaptationResponse {
        &self.adaptation
    }

    /// Applies the scenario to a model, producing the predicted model.
    ///
    /// The changes run through
    /// [`CompiledModel::apply_scenario_into`](crate::CompiledModel::apply_scenario_into) on
    /// the base model's slots, so the predicted model shares the base
    /// model's class universe.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownClass`] if a change targets an absent class.
    /// * [`ModelError::InvalidFactor`] for invalid factors/strengths.
    pub fn apply(&self, base: &SequentialModel) -> Result<SequentialModel, ModelError> {
        let compiled = base.compiled();
        let mut slots = Vec::with_capacity(compiled.len());
        compiled.apply_scenario_into(self, &mut slots)?;
        Ok(SequentialModel::new(ModelParams::from_slots(
            Arc::clone(compiled.universe()),
            slots,
        )))
    }

    /// Applies the scenario and evaluates before/after failure probabilities
    /// under a profile.
    ///
    /// # Errors
    ///
    /// As [`Scenario::apply`], plus profile-coverage errors from evaluation.
    pub fn predict(
        &self,
        base: &SequentialModel,
        profile: &DemandProfile,
    ) -> Result<Prediction, ModelError> {
        let model = self.apply(base)?;
        let before = base.system_failure(profile)?;
        let after = model.system_failure(profile)?;
        Ok(Prediction {
            before,
            after,
            model,
        })
    }
}

/// The outcome of a scenario evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// System failure probability before the change.
    pub before: Probability,
    /// System failure probability after the change.
    pub after: Probability,
    /// The full predicted model (for further analysis).
    pub model: SequentialModel,
}

impl Prediction {
    /// Absolute reduction in failure probability (positive = better).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        self.before.value() - self.after.value()
    }

    /// Relative reduction, `improvement / before`; `None` if `before` is 0.
    #[must_use]
    pub fn relative_improvement(&self) -> Option<f64> {
        (!self.before.is_zero()).then(|| self.improvement() / self.before.value())
    }
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PHf {:.5} -> {:.5} (improvement {:+.5})",
            self.before.value(),
            self.after.value(),
            self.improvement()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn empty_scenario_is_identity() {
        let base = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let pred = Scenario::new().predict(&base, &field).unwrap();
        assert_eq!(pred.before, pred.after);
        assert_eq!(pred.improvement(), 0.0);
    }

    #[test]
    fn paper_table3_via_scenarios() {
        let base = paper::example_model().unwrap();
        let trial = paper::trial_profile().unwrap();
        let field = paper::field_profile().unwrap();
        let easy = Scenario::new().improve_machine(ClassId::new("easy"), 10.0);
        let difficult = Scenario::new().improve_machine(ClassId::new("difficult"), 10.0);
        assert!(
            (easy.predict(&base, &trial).unwrap().after.value()
                - paper::published::TRIAL_FAILURE_IMPROVED_EASY)
                .abs()
                < 1e-9
        );
        assert!(
            (easy.predict(&base, &field).unwrap().after.value()
                - paper::published::FIELD_FAILURE_IMPROVED_EASY)
                .abs()
                < 1e-9
        );
        assert!(
            (difficult.predict(&base, &trial).unwrap().after.value()
                - paper::published::TRIAL_FAILURE_IMPROVED_DIFFICULT)
                .abs()
                < 1e-9
        );
        assert!(
            (difficult.predict(&base, &field).unwrap().after.value()
                - paper::published::FIELD_FAILURE_IMPROVED_DIFFICULT)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn changes_compose_in_order() {
        let base = paper::example_model().unwrap();
        let scenario = Scenario::new()
            .set_machine_failure(ClassId::new("easy"), p(0.5))
            .improve_machine(ClassId::new("easy"), 5.0);
        let model = scenario.apply(&base).unwrap();
        assert!((model.params().class_by_name("easy").unwrap().p_mf().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn set_reader_changes_conditionals() {
        let base = paper::example_model().unwrap();
        let scenario = Scenario::new().set_reader(ClassId::new("difficult"), p(0.3), p(0.7));
        let model = scenario.apply(&base).unwrap();
        let cp = model.params().class_by_name("difficult").unwrap();
        assert_eq!(cp.p_hf_given_ms(), p(0.3));
        assert_eq!(cp.p_hf_given_mf(), p(0.7));
        // Machine untouched.
        assert_eq!(cp.p_mf(), p(0.41));
    }

    #[test]
    fn scale_reader_everywhere_clamps() {
        let base = paper::example_model().unwrap();
        let model = Scenario::new()
            .scale_reader_everywhere(2.0)
            .apply(&base)
            .unwrap();
        let cp = model.params().class_by_name("difficult").unwrap();
        assert_eq!(cp.p_hf_given_mf(), Probability::ONE); // 1.8 clamped
        assert!((cp.p_hf_given_ms().value() - 0.8).abs() < 1e-12);
        assert!(Scenario::new()
            .scale_reader_everywhere(-1.0)
            .apply(&base)
            .is_err());
    }

    #[test]
    fn missing_class_rejected() {
        let base = paper::example_model().unwrap();
        let scenario = Scenario::new().improve_machine(ClassId::new("ghost"), 10.0);
        assert!(matches!(
            scenario.apply(&base),
            Err(ModelError::UnknownClass { class }) if class.name() == "ghost"
        ));
    }

    #[test]
    fn applied_model_shares_the_base_universe() {
        let base = paper::example_model().unwrap();
        let model = Scenario::new()
            .improve_machine(ClassId::new("difficult"), 10.0)
            .apply(&base)
            .unwrap();
        assert!(Arc::ptr_eq(
            model.compiled().universe(),
            base.compiled().universe()
        ));
    }

    #[test]
    fn complacency_erodes_the_predicted_benefit() {
        // The paper's §6.1 caveat, quantified: with a complacent reader the
        // ×10 improvement on difficult cases buys less than the naive model
        // predicts.
        let base = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let naive = Scenario::new()
            .improve_machine(ClassId::new("difficult"), 10.0)
            .predict(&base, &field)
            .unwrap();
        let complacent = Scenario::new()
            .improve_machine(ClassId::new("difficult"), 10.0)
            .with_adaptation(AdaptationResponse::Complacency { strength: 0.5 })
            .predict(&base, &field)
            .unwrap();
        assert!(complacent.improvement() < naive.improvement());
        assert!(
            complacent.improvement() > 0.0,
            "still an improvement, just smaller"
        );
    }

    #[test]
    fn vigilance_softens_a_degradation() {
        let base = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let naive = Scenario::new()
            .set_machine_failure(ClassId::new("difficult"), p(0.8))
            .predict(&base, &field)
            .unwrap();
        let vigilant = Scenario::new()
            .set_machine_failure(ClassId::new("difficult"), p(0.8))
            .with_adaptation(AdaptationResponse::Vigilance { strength: 0.5 })
            .predict(&base, &field)
            .unwrap();
        assert!(naive.after > naive.before, "degradation hurts");
        assert!(
            vigilant.after < naive.after,
            "vigilance recovers part of it"
        );
    }

    #[test]
    fn relative_improvement_and_display() {
        let base = paper::example_model().unwrap();
        let field = paper::field_profile().unwrap();
        let pred = Scenario::new()
            .improve_machine(ClassId::new("difficult"), 10.0)
            .predict(&base, &field)
            .unwrap();
        let rel = pred.relative_improvement().unwrap();
        assert!(rel > 0.0 && rel < 1.0);
        assert!(pred.to_string().contains("->"));
    }
}
