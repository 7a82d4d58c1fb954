use std::fmt;
use std::sync::Arc;

use hmdiv_prob::Probability;

use crate::compiled::CompiledModel;
use crate::{ClassId, ClassParams, DemandProfile, ModelError, ModelParams};

/// The paper's §4 "sequential operation" model (Fig. 3).
///
/// The reader processes the case together with the CADT's output, so no part
/// of the reader's task is assumed unaffected by the machine. All the model
/// needs per class of demands `x` is the triple
/// (`PMf(x)`, `PHf|Ms(x)`, `PHf|Mf(x)`); the system failure probability over
/// a demand profile `p(x)` is eq. (8):
///
/// ```text
/// PHf = Σ_x p(x)·[ PHf|Ms(x)·PMs(x) + PHf|Mf(x)·PMf(x) ]
/// ```
///
/// # Example
///
/// ```
/// use hmdiv_core::paper;
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let model = paper::example_model()?;
/// let trial = paper::trial_profile()?;
/// assert!((model.system_failure(&trial)?.value() - 0.23524).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialModel {
    /// The dense parameter table and its class-failure column, built once
    /// in [`SequentialModel::new`]; clones share it.
    compiled: Arc<CompiledModel>,
}

impl SequentialModel {
    /// Builds the model from a per-class parameter table.
    #[must_use]
    pub fn new(params: ModelParams) -> Self {
        SequentialModel::from(CompiledModel::new(params))
    }

    /// The parameter table.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        self.compiled.params()
    }

    /// The dense evaluation form of this model. Batch callers (design
    /// sweeps, uncertainty MC) should grab this once and bind profiles
    /// against its universe.
    #[must_use]
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// The class-conditional failure probability `PHf(x)` for one class.
    ///
    /// # Errors
    ///
    /// [`ModelError::MissingClass`] if the class has no parameters.
    pub fn class_failure(&self, class: &ClassId) -> Result<Probability, ModelError> {
        Ok(self.params().class(class)?.class_failure())
    }

    /// The system failure probability under a demand profile (eq. 8).
    ///
    /// The profile's classes resolve to dense universe indices and the sum
    /// runs over slices, in the profile's insertion order.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class with no
    /// parameters.
    pub fn system_failure(&self, profile: &DemandProfile) -> Result<Probability, ModelError> {
        let compiled = self.compiled();
        Ok(compiled.system_failure(&compiled.bind_profile(profile)?))
    }

    /// The marginal machine failure probability `PMf = E_x[PMf(x)]` under a
    /// profile.
    ///
    /// # Errors
    ///
    /// As [`SequentialModel::system_failure`].
    pub fn machine_failure(&self, profile: &DemandProfile) -> Result<Probability, ModelError> {
        let compiled = self.compiled();
        Ok(compiled.machine_failure(&compiled.bind_profile(profile)?))
    }

    /// The marginal reader failure probability conditional on machine
    /// success, `P(Hf|Ms)`, under a profile.
    ///
    /// Note this is **not** `E_x[PHf|Ms(x)]`: conditioning on `Ms` reweights
    /// the classes by `p(x)·PMs(x)/P(Ms)` (Bayes). The paper's eq. (4) uses
    /// the marginal conditionals; this method computes them correctly from
    /// the per-class table.
    ///
    /// # Errors
    ///
    /// * As [`SequentialModel::system_failure`].
    /// * [`ModelError::InvalidFactor`] if `P(Ms) = 0` under the profile (the
    ///   conditional is undefined).
    pub fn human_failure_given_machine_success(
        &self,
        profile: &DemandProfile,
    ) -> Result<Probability, ModelError> {
        let compiled = self.compiled();
        compiled.human_failure_given_machine_success(&compiled.bind_profile(profile)?)
    }

    /// The marginal reader failure probability conditional on machine
    /// failure, `P(Hf|Mf)`, under a profile. See the conditioning caveat on
    /// [`SequentialModel::human_failure_given_machine_success`].
    ///
    /// # Errors
    ///
    /// As [`SequentialModel::human_failure_given_machine_success`], with the
    /// undefined case being `P(Mf) = 0`.
    pub fn human_failure_given_machine_failure(
        &self,
        profile: &DemandProfile,
    ) -> Result<Probability, ModelError> {
        let compiled = self.compiled();
        compiled.human_failure_given_machine_failure(&compiled.bind_profile(profile)?)
    }

    /// Verifies the paper's eq. (4) at the marginal level:
    /// `P(Hf) = P(Hf|Ms)·P(Ms) + P(Hf|Mf)·P(Mf)`.
    ///
    /// Returns the two sides `(lhs, rhs)`; they agree up to floating-point
    /// error by construction — exposed for tests and demonstrations.
    ///
    /// # Errors
    ///
    /// As the component methods; requires `0 < P(Mf) < 1` under the profile.
    pub fn equation4_sides(&self, profile: &DemandProfile) -> Result<(f64, f64), ModelError> {
        let lhs = self.system_failure(profile)?.value();
        let p_mf = self.machine_failure(profile)?.value();
        let hf_ms = self.human_failure_given_machine_success(profile)?.value();
        let hf_mf = self.human_failure_given_machine_failure(profile)?.value();
        let rhs = hf_ms * (1.0 - p_mf) + hf_mf * p_mf;
        Ok((lhs, rhs))
    }

    /// Convenience: per-class breakdown rows `(class, params, PHf(x))`,
    /// in class order — the shape of the paper's tables.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(ClassId, ClassParams, Probability)> {
        self.params()
            .iter()
            .map(|(c, p)| (c.clone(), *p, p.class_failure()))
            .collect()
    }
}

/// Wraps an already-built dense table (e.g. a patched design candidate)
/// without recomputing it.
impl From<CompiledModel> for SequentialModel {
    fn from(compiled: CompiledModel) -> Self {
        SequentialModel {
            compiled: Arc::new(compiled),
        }
    }
}

impl fmt::Display for SequentialModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sequential model over {} classes:", self.params().len())?;
        for (class, params) in self.params().iter() {
            writeln!(
                f,
                "  {class}: {params} -> PHf(x)={:.4}",
                params.class_failure().value()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn model() -> SequentialModel {
        SequentialModel::new(
            ModelParams::builder()
                .class("easy", ClassParams::new(p(0.07), p(0.14), p(0.18)))
                .class("difficult", ClassParams::new(p(0.41), p(0.4), p(0.9)))
                .build()
                .unwrap(),
        )
    }

    fn trial() -> DemandProfile {
        DemandProfile::builder()
            .class("easy", 0.8)
            .class("difficult", 0.2)
            .build()
            .unwrap()
    }

    fn field() -> DemandProfile {
        DemandProfile::builder()
            .class("easy", 0.9)
            .class("difficult", 0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_table2_exact() {
        let m = model();
        assert!((m.class_failure(&ClassId::new("easy")).unwrap().value() - 0.1428).abs() < 1e-12);
        assert!(
            (m.class_failure(&ClassId::new("difficult")).unwrap().value() - 0.605).abs() < 1e-12
        );
        assert!((m.system_failure(&trial()).unwrap().value() - 0.23524).abs() < 1e-12);
        assert!((m.system_failure(&field()).unwrap().value() - 0.18902).abs() < 1e-12);
    }

    #[test]
    fn machine_failure_marginal() {
        let m = model();
        let pmf_trial = m.machine_failure(&trial()).unwrap().value();
        assert!((pmf_trial - (0.8 * 0.07 + 0.2 * 0.41)).abs() < 1e-12);
    }

    #[test]
    fn equation4_holds() {
        let m = model();
        for profile in [trial(), field()] {
            let (lhs, rhs) = m.equation4_sides(&profile).unwrap();
            assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn conditionals_are_bayes_weighted_not_plain_averages() {
        let m = model();
        let hf_mf = m
            .human_failure_given_machine_failure(&trial())
            .unwrap()
            .value();
        // Plain average would be 0.8·0.18 + 0.2·0.9 = 0.324. The correct
        // conditioning weights classes by their share of machine failures:
        // P(Mf) = 0.138; difficult contributes 0.2·0.41 = 0.082 of it.
        let p_mf = 0.8 * 0.07 + 0.2 * 0.41;
        let expected = (0.8 * 0.07 * 0.18 + 0.2 * 0.41 * 0.9) / p_mf;
        assert!((hf_mf - expected).abs() < 1e-12);
        assert!(
            (hf_mf - 0.324f64).abs() > 0.05,
            "must differ from the naive average"
        );
    }

    #[test]
    fn degenerate_machine_makes_conditional_undefined() {
        let m = SequentialModel::new(
            ModelParams::builder()
                .class("only", ClassParams::new(Probability::ZERO, p(0.1), p(0.9)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder().class("only", 1.0).build().unwrap();
        assert!(m.human_failure_given_machine_failure(&profile).is_err());
        assert!(m.human_failure_given_machine_success(&profile).is_ok());
        // System failure is still fine: the reader fails at PHf|Ms.
        assert!((m.system_failure(&profile).unwrap().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn missing_class_is_error() {
        let m = model();
        let profile = DemandProfile::builder()
            .class("unknown", 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            m.system_failure(&profile),
            Err(ModelError::UnknownClass { .. })
        ));
    }

    #[test]
    fn clones_share_one_table() {
        let m = model();
        let clone = m.clone();
        assert!(Arc::ptr_eq(m.compiled(), clone.compiled()));
        assert!(std::ptr::eq(m.params(), m.compiled().params()));
        assert_eq!(
            clone.system_failure(&trial()).unwrap(),
            m.system_failure(&trial()).unwrap()
        );
        assert_eq!(m, clone);
    }

    #[test]
    fn profile_with_subset_of_classes_is_fine() {
        // Parameters may cover more classes than the profile uses.
        let m = model();
        let only_easy = DemandProfile::builder().class("easy", 1.0).build().unwrap();
        assert!((m.system_failure(&only_easy).unwrap().value() - 0.1428).abs() < 1e-12);
    }

    #[test]
    fn breakdown_lists_all_classes() {
        let rows = model().breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0.name(), "difficult"); // sorted class order
        assert!((rows[0].2.value() - 0.605).abs() < 1e-12);
    }

    #[test]
    fn display_shows_classes() {
        let s = model().to_string();
        assert!(s.contains("easy") && s.contains("difficult"));
    }
}
