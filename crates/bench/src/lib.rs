//! Shared helpers for the `hmdiv` benchmark harness and the `repro`
//! table/figure regeneration binary.

#![deny(missing_docs)]

use hmdiv_core::{paper, ClassId, DemandProfile, ModelError, SequentialModel};

pub mod check;
pub mod compare;
pub mod loadgen;

/// A named experiment row: paper value vs regenerated value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment label, e.g. `"table2/field/all-cases"`.
    pub label: String,
    /// The value printed in the paper (rounded as printed).
    pub paper: f64,
    /// The value this library regenerates.
    pub regenerated: f64,
}

impl Row {
    /// Absolute difference.
    #[must_use]
    pub fn error(&self) -> f64 {
        (self.paper - self.regenerated).abs()
    }

    /// Whether the regenerated value rounds (3 decimals) to the paper's.
    #[must_use]
    pub fn matches_print(&self) -> bool {
        (self.regenerated * 1000.0).round() / 1000.0 == self.paper
    }
}

/// All rows of the paper's table 2 (baseline failure probabilities).
///
/// # Errors
///
/// Never fails in practice.
pub fn table2_rows() -> Result<Vec<Row>, ModelError> {
    let model = paper::example_model()?;
    let trial = paper::trial_profile()?;
    let field = paper::field_profile()?;
    Ok(vec![
        Row {
            label: "table2/easy-cases".into(),
            paper: 0.143,
            regenerated: model.class_failure(&ClassId::new(paper::EASY))?.value(),
        },
        Row {
            label: "table2/difficult-cases".into(),
            paper: 0.605,
            regenerated: model
                .class_failure(&ClassId::new(paper::DIFFICULT))?
                .value(),
        },
        Row {
            label: "table2/trial/all-cases".into(),
            paper: 0.235,
            regenerated: model.system_failure(&trial)?.value(),
        },
        Row {
            label: "table2/field/all-cases".into(),
            paper: 0.189,
            regenerated: model.system_failure(&field)?.value(),
        },
    ])
}

/// All rows of the paper's table 3 (the two improvement scenarios).
///
/// # Errors
///
/// Never fails in practice.
pub fn table3_rows() -> Result<Vec<Row>, ModelError> {
    let trial = paper::trial_profile()?;
    let field = paper::field_profile()?;
    let improved_easy = paper::model_improved_on_easy()?;
    let improved_difficult = paper::model_improved_on_difficult()?;
    Ok(vec![
        Row {
            label: "table3/improved-easy/easy-cases".into(),
            paper: 0.140,
            regenerated: improved_easy
                .class_failure(&ClassId::new(paper::EASY))?
                .value(),
        },
        Row {
            label: "table3/improved-easy/difficult-cases".into(),
            paper: 0.605,
            regenerated: improved_easy
                .class_failure(&ClassId::new(paper::DIFFICULT))?
                .value(),
        },
        Row {
            label: "table3/improved-easy/trial/all-cases".into(),
            paper: 0.233,
            regenerated: improved_easy.system_failure(&trial)?.value(),
        },
        Row {
            label: "table3/improved-easy/field/all-cases".into(),
            paper: 0.187,
            regenerated: improved_easy.system_failure(&field)?.value(),
        },
        Row {
            label: "table3/improved-difficult/easy-cases".into(),
            paper: 0.143,
            regenerated: improved_difficult
                .class_failure(&ClassId::new(paper::EASY))?
                .value(),
        },
        Row {
            label: "table3/improved-difficult/difficult-cases".into(),
            paper: 0.421,
            regenerated: improved_difficult
                .class_failure(&ClassId::new(paper::DIFFICULT))?
                .value(),
        },
        Row {
            label: "table3/improved-difficult/trial/all-cases".into(),
            paper: 0.198,
            regenerated: improved_difficult.system_failure(&trial)?.value(),
        },
        Row {
            label: "table3/improved-difficult/field/all-cases".into(),
            paper: 0.171,
            regenerated: improved_difficult.system_failure(&field)?.value(),
        },
    ])
}

/// The Fig. 4 series for one class: `(PMf, P(system failure))` pairs.
///
/// # Errors
///
/// [`ModelError::MissingClass`] if the class is unknown;
/// [`ModelError::InvalidFactor`] if `points < 2`.
pub fn fig4_series(
    model: &SequentialModel,
    class: &ClassId,
    points: usize,
) -> Result<Vec<(f64, f64)>, ModelError> {
    let line = hmdiv_core::importance::machine_response_line(model, class)?;
    line.sweep(points)
}

/// Standard profiles + model bundle used by several benches.
///
/// # Errors
///
/// Never fails in practice.
pub fn paper_bundle() -> Result<(SequentialModel, DemandProfile, DemandProfile), ModelError> {
    Ok((
        paper::example_model()?,
        paper::trial_profile()?,
        paper::field_profile()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table_rows_match_paper_print() {
        for row in table2_rows()
            .unwrap()
            .iter()
            .chain(table3_rows().unwrap().iter())
        {
            assert!(
                row.matches_print(),
                "{}: {} vs {}",
                row.label,
                row.paper,
                row.regenerated
            );
            // The paper rounds to 3 decimals, so exact values sit within
            // half a unit in the last printed place.
            assert!(row.error() <= 5e-4 + 1e-12, "{}", row.label);
        }
    }

    #[test]
    fn fig4_series_has_correct_endpoints() {
        let (model, _, _) = paper_bundle().unwrap();
        let series = fig4_series(&model, &ClassId::new("difficult"), 5).unwrap();
        assert_eq!(series.len(), 5);
        assert!((series[0].1 - 0.4).abs() < 1e-12);
        assert!((series[4].1 - 0.9).abs() < 1e-12);
    }
}
