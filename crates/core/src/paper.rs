//! The paper's §5 worked example, as ready-made constructors and the
//! published numbers as constants.
//!
//! The example has two classes of cases, "easy" and "difficult", with the
//! parameter table (paper table 1):
//!
//! | class     | trial p(x) | field p(x) | PMf  | PHf\|Mf | PHf\|Ms |
//! |-----------|-----------|------------|------|---------|---------|
//! | easy      | 0.8       | 0.9        | 0.07 | 0.18    | 0.14    |
//! | difficult | 0.2       | 0.1        | 0.41 | 0.90    | 0.40    |
//!
//! and reports (tables 2–3, values rounded to three decimals in the paper):
//!
//! * baseline: easy 0.143, difficult 0.605, trial 0.235, field 0.189;
//! * CADT improved ×10 on easy: easy 0.140, trial 0.233, field 0.187;
//! * CADT improved ×10 on difficult: difficult 0.421, trial 0.198,
//!   field 0.171.

use hmdiv_prob::Probability;

use crate::extrapolate::Scenario;
use crate::{ClassId, ClassParams, DemandProfile, ModelError, ModelParams, SequentialModel};

/// Name of the "easy" class.
pub const EASY: &str = "easy";
/// Name of the "difficult" class.
pub const DIFFICULT: &str = "difficult";

/// Paper table 1 parameters for the easy class: `PMf = 0.07`,
/// `PHf|Ms = 0.14`, `PHf|Mf = 0.18`.
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity with the
/// composite constructors.
pub fn easy_params() -> Result<ClassParams, ModelError> {
    Ok(ClassParams::new(
        Probability::new(0.07)?,
        Probability::new(0.14)?,
        Probability::new(0.18)?,
    ))
}

/// Paper table 1 parameters for the difficult class: `PMf = 0.41`,
/// `PHf|Ms = 0.40`, `PHf|Mf = 0.90`.
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity.
pub fn difficult_params() -> Result<ClassParams, ModelError> {
    Ok(ClassParams::new(
        Probability::new(0.41)?,
        Probability::new(0.40)?,
        Probability::new(0.90)?,
    ))
}

/// The complete §5 example model.
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity.
pub fn example_model() -> Result<SequentialModel, ModelError> {
    Ok(SequentialModel::new(
        ModelParams::builder()
            .class(EASY, easy_params()?)
            .class(DIFFICULT, difficult_params()?)
            .build()?,
    ))
}

/// The trial demand profile: 80% easy, 20% difficult.
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity.
pub fn trial_profile() -> Result<DemandProfile, ModelError> {
    DemandProfile::builder()
        .class(EASY, 0.8)
        .class(DIFFICULT, 0.2)
        .build()
}

/// The field demand profile: 90% easy, 10% difficult.
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity.
pub fn field_profile() -> Result<DemandProfile, ModelError> {
    DemandProfile::builder()
        .class(EASY, 0.9)
        .class(DIFFICULT, 0.1)
        .build()
}

/// The model with the CADT improved by a factor of 10 on the easy class
/// (table 3, left half).
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity.
pub fn model_improved_on_easy() -> Result<SequentialModel, ModelError> {
    Scenario::new()
        .improve_machine(ClassId::new(EASY), 10.0)
        .apply(&example_model()?)
}

/// The model with the CADT improved by a factor of 10 on the difficult
/// class (table 3, right half).
///
/// # Errors
///
/// Never fails in practice; returns `Result` for uniformity.
pub fn model_improved_on_difficult() -> Result<SequentialModel, ModelError> {
    Scenario::new()
        .improve_machine(ClassId::new(DIFFICULT), 10.0)
        .apply(&example_model()?)
}

/// The published values, exact where the arithmetic is exact and as printed
/// (3 decimals) where the paper rounds.
pub mod published {
    /// Table 2: failure probability on easy cases (paper prints 0.143).
    pub const EASY_FAILURE: f64 = 0.1428;
    /// Table 2: failure probability on difficult cases.
    pub const DIFFICULT_FAILURE: f64 = 0.605;
    /// Table 2: all cases, trial profile (paper prints 0.235).
    pub const TRIAL_FAILURE: f64 = 0.23524;
    /// Table 2: all cases, field profile (paper prints 0.189).
    pub const FIELD_FAILURE: f64 = 0.18902;
    /// Table 3: easy cases with CADT improved on easy (paper prints 0.140).
    pub const EASY_FAILURE_IMPROVED_EASY: f64 = 0.14028;
    /// Table 3: all cases, trial profile, improved on easy (prints 0.233).
    pub const TRIAL_FAILURE_IMPROVED_EASY: f64 = 0.233_224;
    /// Table 3: all cases, field profile, improved on easy (prints 0.187).
    pub const FIELD_FAILURE_IMPROVED_EASY: f64 = 0.186_752;
    /// Table 3: difficult cases with CADT improved on difficult (prints 0.421).
    pub const DIFFICULT_FAILURE_IMPROVED_DIFFICULT: f64 = 0.4205;
    /// Table 3: all cases, trial profile, improved on difficult (prints 0.198).
    pub const TRIAL_FAILURE_IMPROVED_DIFFICULT: f64 = 0.198_34;
    /// Table 3: all cases, field profile, improved on difficult (prints 0.171).
    pub const FIELD_FAILURE_IMPROVED_DIFFICULT: f64 = 0.170_57;
    /// §6.1: coherence index of the easy class, `0.18 − 0.14`.
    pub const EASY_T: f64 = 0.04;
    /// §6.1: coherence index of the difficult class, `0.90 − 0.40`.
    pub const DIFFICULT_T: f64 = 0.5;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduced() {
        let m = example_model().unwrap();
        assert!(
            (m.class_failure(&ClassId::new(EASY)).unwrap().value() - published::EASY_FAILURE).abs()
                < 1e-12
        );
        assert!(
            (m.class_failure(&ClassId::new(DIFFICULT)).unwrap().value()
                - published::DIFFICULT_FAILURE)
                .abs()
                < 1e-12
        );
        assert!(
            (m.system_failure(&trial_profile().unwrap()).unwrap().value()
                - published::TRIAL_FAILURE)
                .abs()
                < 1e-12
        );
        assert!(
            (m.system_failure(&field_profile().unwrap()).unwrap().value()
                - published::FIELD_FAILURE)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn table3_improved_on_easy_reproduced() {
        let m = model_improved_on_easy().unwrap();
        assert!(
            (m.class_failure(&ClassId::new(EASY)).unwrap().value()
                - published::EASY_FAILURE_IMPROVED_EASY)
                .abs()
                < 1e-12
        );
        // Difficult class untouched.
        assert!(
            (m.class_failure(&ClassId::new(DIFFICULT)).unwrap().value()
                - published::DIFFICULT_FAILURE)
                .abs()
                < 1e-12
        );
        assert!(
            (m.system_failure(&trial_profile().unwrap()).unwrap().value()
                - published::TRIAL_FAILURE_IMPROVED_EASY)
                .abs()
                < 1e-9
        );
        assert!(
            (m.system_failure(&field_profile().unwrap()).unwrap().value()
                - published::FIELD_FAILURE_IMPROVED_EASY)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn table3_improved_on_difficult_reproduced() {
        let m = model_improved_on_difficult().unwrap();
        assert!(
            (m.class_failure(&ClassId::new(DIFFICULT)).unwrap().value()
                - published::DIFFICULT_FAILURE_IMPROVED_DIFFICULT)
                .abs()
                < 1e-12
        );
        assert!(
            (m.system_failure(&trial_profile().unwrap()).unwrap().value()
                - published::TRIAL_FAILURE_IMPROVED_DIFFICULT)
                .abs()
                < 1e-9
        );
        assert!(
            (m.system_failure(&field_profile().unwrap()).unwrap().value()
                - published::FIELD_FAILURE_IMPROVED_DIFFICULT)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn paper_headline_conclusion_holds() {
        // Improving the CADT on the rare difficult cases beats improving it
        // on the common easy cases, under both profiles — the §5 punchline.
        let field = field_profile().unwrap();
        let trial = trial_profile().unwrap();
        let easy_improved = model_improved_on_easy().unwrap();
        let difficult_improved = model_improved_on_difficult().unwrap();
        assert!(
            difficult_improved.system_failure(&field).unwrap()
                < easy_improved.system_failure(&field).unwrap()
        );
        assert!(
            difficult_improved.system_failure(&trial).unwrap()
                < easy_improved.system_failure(&trial).unwrap()
        );
    }

    #[test]
    fn published_values_round_to_paper_print() {
        // The paper prints 3 decimals; our exact values must round to them.
        let rounds_to = |x: f64, printed: f64| (x * 1000.0).round() / 1000.0 == printed;
        assert!(rounds_to(published::EASY_FAILURE, 0.143));
        assert!(rounds_to(published::TRIAL_FAILURE, 0.235));
        assert!(rounds_to(published::FIELD_FAILURE, 0.189));
        assert!(rounds_to(published::EASY_FAILURE_IMPROVED_EASY, 0.140));
        assert!(rounds_to(published::TRIAL_FAILURE_IMPROVED_EASY, 0.233));
        assert!(rounds_to(published::FIELD_FAILURE_IMPROVED_EASY, 0.187));
        assert!(rounds_to(
            published::DIFFICULT_FAILURE_IMPROVED_DIFFICULT,
            0.421
        ));
        assert!(rounds_to(
            published::TRIAL_FAILURE_IMPROVED_DIFFICULT,
            0.198
        ));
        assert!(rounds_to(
            published::FIELD_FAILURE_IMPROVED_DIFFICULT,
            0.171
        ));
    }
}
