//! Reader cohorts: variability between humans (§5 item 2).
//!
//! "The readers have varying levels of ability … the trial data can indicate
//! the range of these abilities, show whether there are strong discrepancies
//! between humans, and if these affect different categories of demands
//! differently (as is believed to be the case)." A [`ReaderCohort`] holds a
//! weighted set of per-reader parameter tables over the *same* machine and
//! classes; it answers the programme-level questions: what is the average
//! system failure over the reader pool, how wide is the spread, who is the
//! weakest link, and does the improvement-targeting advice (§6.2) change
//! from reader to reader?

use std::fmt;

use hmdiv_prob::Probability;

use crate::{ClassId, DemandProfile, ModelError, SequentialModel};

/// One reader's entry in a cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortMember {
    /// Reader label (e.g. an anonymised ID).
    pub name: String,
    /// This reader's full sequential model (machine parameters included,
    /// shared across the cohort by construction convention).
    pub model: SequentialModel,
    /// The reader's share of the caseload (unnormalised weight).
    pub weight: f64,
}

/// A weighted pool of readers.
///
/// # Example
///
/// ```
/// use hmdiv_core::cohort::{CohortMember, ReaderCohort};
/// use hmdiv_core::paper;
///
/// # fn main() -> Result<(), hmdiv_core::ModelError> {
/// let cohort = ReaderCohort::new(vec![CohortMember {
///     name: "R1".into(),
///     model: paper::example_model()?,
///     weight: 1.0,
/// }])?;
/// let summary = cohort.evaluate(&paper::field_profile()?)?;
/// assert!((summary.mean.value() - 0.18902).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReaderCohort {
    members: Vec<CohortMember>,
}

/// Per-reader evaluation row.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortRow {
    /// Reader label.
    pub name: String,
    /// Caseload share (normalised).
    pub share: f64,
    /// This reader's system failure probability under the profile.
    pub failure: Probability,
}

/// Cohort-level summary under a demand profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSummary {
    /// Per-reader rows, worst (highest failure) first.
    pub rows: Vec<CohortRow>,
    /// Caseload-weighted mean failure probability (what the programme sees).
    pub mean: Probability,
    /// The best (lowest) individual failure probability.
    pub best: Probability,
    /// The worst (highest) individual failure probability.
    pub worst: Probability,
}

impl CohortSummary {
    /// The spread `worst − best`: the §5 "range of these abilities".
    #[must_use]
    pub fn spread(&self) -> f64 {
        self.worst.value() - self.best.value()
    }
}

impl ReaderCohort {
    /// Builds a cohort from members.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] if no members are given.
    /// * [`ModelError::InvalidFactor`] for non-positive or non-finite
    ///   weights.
    pub fn new(members: Vec<CohortMember>) -> Result<Self, ModelError> {
        if members.is_empty() {
            return Err(ModelError::Empty {
                context: "reader cohort",
            });
        }
        for m in &members {
            if m.weight.is_nan() || m.weight <= 0.0 || m.weight.is_infinite() {
                return Err(ModelError::InvalidFactor {
                    value: m.weight,
                    context: "cohort member weight",
                });
            }
        }
        Ok(ReaderCohort { members })
    }

    /// Number of readers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cohort is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members.
    #[must_use]
    pub fn members(&self) -> &[CohortMember] {
        &self.members
    }

    /// Evaluates the cohort under a profile. Each member's model is
    /// evaluated through its dense representation
    /// ([`SequentialModel::compiled`]).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class outside
    /// any member's class universe.
    pub fn evaluate(&self, profile: &DemandProfile) -> Result<CohortSummary, ModelError> {
        self.evaluate_par(profile, 1)
    }

    /// [`ReaderCohort::evaluate`] sharded across the `hmdiv_prob::par`
    /// executor: reader index is the task id and per-reader failure
    /// probabilities ride the in-order merge, so thousand-reader programmes
    /// evaluate in parallel while the summary — every bit of it — matches
    /// the sequential walk at any thread count.
    ///
    /// # Errors
    ///
    /// As [`ReaderCohort::evaluate`]; with several failing members, the
    /// lowest-indexed member's error is returned.
    pub fn evaluate_par(
        &self,
        profile: &DemandProfile,
        threads: usize,
    ) -> Result<CohortSummary, ModelError> {
        let failures: Vec<Result<Probability, ModelError>> = hmdiv_prob::par::run_tasks_scoped(
            "core.cohort",
            0,
            self.members.len() as u64,
            threads,
            Vec::new,
            |id, _rng, acc: &mut Vec<Result<Probability, ModelError>>| {
                let compiled = self.members[id as usize].model.compiled();
                acc.push(
                    compiled
                        .bind_profile(profile)
                        .map(|bound| compiled.system_failure(&bound)),
                );
            },
        );
        let failures = failures.into_iter().collect::<Result<Vec<_>, _>>()?;
        self.summarise(&failures)
    }

    /// Assembles a summary from per-member failures in member order — the
    /// accumulation order shared by the sequential and sharded paths.
    fn summarise(&self, failures: &[Probability]) -> Result<CohortSummary, ModelError> {
        let total_w: f64 = self.members.iter().map(|m| m.weight).sum();
        let mut rows = Vec::with_capacity(self.members.len());
        let mut mean = 0.0;
        for (m, &failure) in self.members.iter().zip(failures) {
            let share = m.weight / total_w;
            mean += share * failure.value();
            rows.push(CohortRow {
                name: m.name.clone(),
                share,
                failure,
            });
        }
        rows.sort_by(|a, b| {
            b.failure
                .value()
                .total_cmp(&a.failure.value())
                .then_with(|| a.name.cmp(&b.name))
        });
        // `new` rejects empty cohorts, so rows is non-empty; keep the error
        // typed anyway rather than panicking on an impossible state.
        let empty = || ModelError::Empty {
            context: "reader cohort",
        };
        let best = rows.last().map(|r| r.failure).ok_or_else(empty)?;
        let worst = rows.first().map(|r| r.failure).ok_or_else(empty)?;
        Ok(CohortSummary {
            rows,
            mean: Probability::clamped(mean),
            best,
            worst,
        })
    }

    /// For each reader, the class whose machine improvement would benefit
    /// them most (§6.2 per reader). Readers can disagree: a heavily biased
    /// reader may gain most from improving a class that barely matters to a
    /// careful one.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] on profile/universe mismatch;
    /// [`ModelError::Empty`] if the ranking comes back empty.
    pub fn preferred_targets(
        &self,
        profile: &DemandProfile,
    ) -> Result<Vec<(String, ClassId)>, ModelError> {
        let mut out = Vec::with_capacity(self.members.len());
        for m in &self.members {
            let ranked = crate::design::rank_improvement_targets(&m.model, profile)?;
            let top = ranked
                .first()
                .ok_or(ModelError::Empty {
                    context: "demand profile",
                })?
                .class
                .clone();
            out.push((m.name.clone(), top));
        }
        Ok(out)
    }
}

impl fmt::Display for ReaderCohort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cohort of {} readers", self.members.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper, ClassParams, ModelParams};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn reader_model(
        hf_ms_easy: f64,
        hf_mf_easy: f64,
        hf_ms_diff: f64,
        hf_mf_diff: f64,
    ) -> SequentialModel {
        SequentialModel::new(
            ModelParams::builder()
                .class(
                    "easy",
                    ClassParams::new(p(0.07), p(hf_ms_easy), p(hf_mf_easy)),
                )
                .class(
                    "difficult",
                    ClassParams::new(p(0.41), p(hf_ms_diff), p(hf_mf_diff)),
                )
                .build()
                .unwrap(),
        )
    }

    fn cohort() -> ReaderCohort {
        ReaderCohort::new(vec![
            CohortMember {
                name: "careful".into(),
                model: reader_model(0.10, 0.12, 0.30, 0.55),
                weight: 1.0,
            },
            CohortMember {
                name: "paper-average".into(),
                model: paper::example_model().unwrap(),
                weight: 2.0,
            },
            CohortMember {
                name: "bias-prone".into(),
                model: reader_model(0.14, 0.40, 0.40, 0.98),
                weight: 1.0,
            },
        ])
        .unwrap()
    }

    #[test]
    fn evaluation_orders_and_averages() {
        let field = paper::field_profile().unwrap();
        let summary = cohort().evaluate(&field).unwrap();
        assert_eq!(summary.rows.len(), 3);
        assert_eq!(summary.rows[0].name, "bias-prone");
        assert_eq!(summary.rows[2].name, "careful");
        assert!(summary.best < summary.mean && summary.mean < summary.worst);
        assert!(summary.spread() > 0.05);
        // Weighted mean respects caseload shares (paper-average has half).
        let manual: f64 = summary
            .rows
            .iter()
            .map(|r| r.share * r.failure.value())
            .sum();
        assert!((summary.mean.value() - manual).abs() < 1e-12);
        let shares: f64 = summary.rows.iter().map(|r| r.share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn targets_can_differ_between_readers() {
        // Give the careful reader a machine-insensitive difficult class but
        // a machine-sensitive easy class, so their best target flips.
        let contrarian = ReaderCohort::new(vec![
            CohortMember {
                name: "standard".into(),
                model: paper::example_model().unwrap(),
                weight: 1.0,
            },
            CohortMember {
                name: "easy-coupled".into(),
                model: reader_model(0.10, 0.60, 0.40, 0.42),
                weight: 1.0,
            },
        ])
        .unwrap();
        let field = paper::field_profile().unwrap();
        let targets = contrarian.preferred_targets(&field).unwrap();
        let of = |name: &str| {
            targets
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.name().to_owned())
                .unwrap()
        };
        assert_eq!(of("standard"), "difficult");
        assert_eq!(of("easy-coupled"), "easy");
    }

    #[test]
    fn sharded_evaluation_is_thread_count_invariant() {
        let big = ReaderCohort::new(
            (0..37)
                .map(|i| {
                    let f = f64::from(i) / 40.0;
                    CohortMember {
                        name: format!("r{i:02}"),
                        model: reader_model(
                            0.08 + f * 0.2,
                            0.1 + f * 0.3,
                            0.3 + f * 0.2,
                            0.5 + f * 0.4,
                        ),
                        weight: 1.0 + f,
                    }
                })
                .collect(),
        )
        .unwrap();
        let field = paper::field_profile().unwrap();
        let reference = big.evaluate(&field).unwrap();
        for threads in [2usize, 7] {
            let sharded = big.evaluate_par(&field, threads).unwrap();
            assert_eq!(sharded, reference, "threads={threads}");
            assert_eq!(
                sharded.mean.value().to_bits(),
                reference.mean.value().to_bits()
            );
        }
    }

    #[test]
    fn sharded_evaluation_surfaces_typed_errors() {
        let c = cohort();
        let odd = DemandProfile::builder().class("odd", 1.0).build().unwrap();
        for threads in [1usize, 3] {
            assert!(matches!(
                c.evaluate_par(&odd, threads),
                Err(ModelError::UnknownClass { ref class }) if class.name() == "odd"
            ));
        }
    }

    #[test]
    fn validation() {
        assert!(matches!(
            ReaderCohort::new(vec![]),
            Err(ModelError::Empty { .. })
        ));
        let bad = ReaderCohort::new(vec![CohortMember {
            name: "zero".into(),
            model: paper::example_model().unwrap(),
            weight: 0.0,
        }]);
        assert!(matches!(bad, Err(ModelError::InvalidFactor { .. })));
    }

    #[test]
    fn single_reader_cohort_degenerates() {
        let solo = ReaderCohort::new(vec![CohortMember {
            name: "only".into(),
            model: paper::example_model().unwrap(),
            weight: 3.0,
        }])
        .unwrap();
        let field = paper::field_profile().unwrap();
        let summary = solo.evaluate(&field).unwrap();
        assert_eq!(summary.best, summary.worst);
        assert!((summary.mean.value() - 0.18902).abs() < 1e-9);
        assert_eq!(summary.spread(), 0.0);
        assert_eq!(solo.len(), 1);
        assert!(!solo.is_empty());
    }
}
