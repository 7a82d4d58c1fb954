use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use hmdiv_prob::Probability;

use crate::{ClassId, ClassUniverse, ModelError};

/// The sequential model's parameters for one class of demands (paper §4):
///
/// * `p_mf` — probability of machine (CADT) false-negative failure,
///   `PMf(x)`;
/// * `p_hf_given_ms` — probability of reader failure given the machine
///   succeeded, `PHf|Ms(x)`;
/// * `p_hf_given_mf` — probability of reader failure given the machine
///   failed, `PHf|Mf(x)`.
///
/// # Example
///
/// The paper's "difficult" class (§5 table 1):
///
/// ```
/// use hmdiv_core::ClassParams;
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), hmdiv_prob::ProbError> {
/// let difficult = ClassParams::new(
///     Probability::new(0.41)?,
///     Probability::new(0.4)?,
///     Probability::new(0.9)?,
/// );
/// // Per-class failure: 0.4·0.59 + 0.9·0.41 = 0.605 (paper table 2).
/// assert!((difficult.class_failure().value() - 0.605).abs() < 1e-12);
/// // Coherence index t(x) = 0.9 − 0.4 = 0.5.
/// assert!((difficult.coherence_index() - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassParams {
    p_mf: Probability,
    p_hf_given_ms: Probability,
    p_hf_given_mf: Probability,
}

impl ClassParams {
    /// Creates the parameter triple for a class.
    #[must_use]
    pub fn new(p_mf: Probability, p_hf_given_ms: Probability, p_hf_given_mf: Probability) -> Self {
        ClassParams {
            p_mf,
            p_hf_given_ms,
            p_hf_given_mf,
        }
    }

    /// `PMf(x)`: machine false-negative probability.
    #[must_use]
    pub fn p_mf(&self) -> Probability {
        self.p_mf
    }

    /// `PMs(x) = 1 − PMf(x)`: machine success probability.
    #[must_use]
    pub fn p_ms(&self) -> Probability {
        self.p_mf.complement()
    }

    /// `PHf|Ms(x)`: reader failure probability when the machine succeeds.
    #[must_use]
    pub fn p_hf_given_ms(&self) -> Probability {
        self.p_hf_given_ms
    }

    /// `PHf|Mf(x)`: reader failure probability when the machine fails.
    #[must_use]
    pub fn p_hf_given_mf(&self) -> Probability {
        self.p_hf_given_mf
    }

    /// The class-conditional system failure probability (the bracket of the
    /// paper's eq. 7):
    ///
    /// ```text
    /// PHf(x) = PHf|Ms(x)·PMs(x) + PHf|Mf(x)·PMf(x)
    /// ```
    #[must_use]
    pub fn class_failure(&self) -> Probability {
        self.p_hf_given_mf.mix(self.p_hf_given_ms, self.p_mf)
    }

    /// The coherence / importance index `t(x) = PHf|Mf(x) − PHf|Ms(x)`
    /// (eq. 9): how much a machine failure raises the reader's failure
    /// probability. Signed, in `[-1, 1]`; negative values mean the reader
    /// does *better* when the machine fails (e.g. distrust-driven extra
    /// scrutiny).
    #[must_use]
    pub fn coherence_index(&self) -> f64 {
        self.p_hf_given_mf.value() - self.p_hf_given_ms.value()
    }

    /// The probability of the joint event "machine fails and human fails"
    /// for this class, `PMf(x)·PHf|Mf(x)`.
    #[must_use]
    pub fn p_both_fail(&self) -> Probability {
        self.p_mf * self.p_hf_given_mf
    }

    /// Returns a copy with the machine failure probability replaced.
    #[must_use]
    pub fn with_p_mf(&self, p_mf: Probability) -> Self {
        ClassParams { p_mf, ..*self }
    }

    /// Returns a copy with the machine failure probability divided by
    /// `factor` (the paper's "reduction by 10").
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFactor`] if `factor < 1.0` is not a
    /// genuine improvement, or is NaN/zero.
    pub fn with_machine_improved(&self, factor: f64) -> Result<Self, ModelError> {
        if factor.is_nan() || factor < 1.0 || factor.is_infinite() {
            return Err(ModelError::InvalidFactor {
                value: factor,
                context: "improvement factor",
            });
        }
        Ok(ClassParams {
            p_mf: Probability::clamped(self.p_mf.value() / factor),
            ..*self
        })
    }

    /// Returns a copy with both reader conditionals replaced.
    #[must_use]
    pub fn with_reader(&self, p_hf_given_ms: Probability, p_hf_given_mf: Probability) -> Self {
        ClassParams {
            p_hf_given_ms,
            p_hf_given_mf,
            ..*self
        }
    }
}

impl fmt::Display for ClassParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PMf={:.4}, PHf|Ms={:.4}, PHf|Mf={:.4}",
            self.p_mf.value(),
            self.p_hf_given_ms.value(),
            self.p_hf_given_mf.value()
        )
    }
}

/// A table of [`ClassParams`] per demand class — everything the sequential
/// model knows about the human–machine pair.
///
/// Stored densely: the class names are interned once into a sorted
/// [`ClassUniverse`] and the parameters sit in a `Vec` in universe order,
/// so `slots[i]` belongs to `universe.class(i)`. This is the only copy of
/// a model's per-class parameters; [`crate::CompiledModel`] and
/// [`crate::SequentialModel`] wrap it rather than mirror it.
///
/// # Example
///
/// ```
/// use hmdiv_core::{ModelParams, ClassParams};
/// use hmdiv_prob::Probability;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = |v| Probability::new(v).unwrap();
/// let params = ModelParams::builder()
///     .class("easy", ClassParams::new(p(0.07), p(0.14), p(0.18)))
///     .class("difficult", ClassParams::new(p(0.41), p(0.4), p(0.9)))
///     .build()?;
/// assert_eq!(params.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    universe: Arc<ClassUniverse>,
    /// `slots[i]` belongs to `universe.class(i)`; the lengths always agree.
    slots: Vec<ClassParams>,
}

impl ModelParams {
    /// Starts building a parameter table.
    #[must_use]
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder {
            table: BTreeMap::new(),
            duplicate: None,
        }
    }

    /// A table over an existing universe, one slot per class in universe
    /// order (shares the universe instead of re-interning it).
    pub(crate) fn from_slots(universe: Arc<ClassUniverse>, slots: Vec<ClassParams>) -> Self {
        debug_assert_eq!(universe.len(), slots.len());
        ModelParams { universe, slots }
    }

    /// The interned class universe the slots are laid out over.
    pub(crate) fn universe(&self) -> &Arc<ClassUniverse> {
        &self.universe
    }

    /// The parameter slots in universe order.
    pub(crate) fn slots(&self) -> &[ClassParams] {
        &self.slots
    }

    /// The parameter slots, mutable in place (never resized).
    pub(crate) fn slots_mut(&mut self) -> &mut [ClassParams] {
        &mut self.slots
    }

    /// Number of classes with parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The parameters for a class.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingClass`] if the class is absent.
    pub fn class(&self, class: &ClassId) -> Result<&ClassParams, ModelError> {
        self.class_by_name(class.name())
    }

    /// The parameters for a class by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingClass`] if the class is absent.
    pub fn class_by_name(&self, name: &str) -> Result<&ClassParams, ModelError> {
        self.universe
            .index_of(name)
            .map(|i| &self.slots[i as usize])
            .ok_or_else(|| ModelError::MissingClass {
                class: ClassId::new(name),
            })
    }

    /// Iterates `(class, params)` pairs in class order.
    pub fn iter(&self) -> impl Iterator<Item = (&ClassId, &ClassParams)> {
        self.universe.iter().zip(&self.slots)
    }

    /// The classes in the table, in order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassId> {
        self.universe.iter()
    }

    /// Returns a copy with every class's parameters transformed (same
    /// universe, slot for slot).
    ///
    /// # Errors
    ///
    /// Any error returned by `update`.
    pub fn map_classes(
        &self,
        mut update: impl FnMut(&ClassId, &ClassParams) -> Result<ClassParams, ModelError>,
    ) -> Result<Self, ModelError> {
        let slots = self
            .iter()
            .map(|(class, params)| update(class, params))
            .collect::<Result<_, _>>()?;
        Ok(ModelParams::from_slots(Arc::clone(&self.universe), slots))
    }
}

/// Builder for [`ModelParams`].
#[derive(Debug, Clone, Default)]
pub struct ModelParamsBuilder {
    table: BTreeMap<ClassId, ClassParams>,
    duplicate: Option<ClassId>,
}

impl ModelParamsBuilder {
    /// Adds parameters for a class.
    #[must_use]
    pub fn class(mut self, class: impl Into<ClassId>, params: ClassParams) -> Self {
        let class = class.into();
        if self.table.insert(class.clone(), params).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(class);
        }
        self
    }

    /// Builds the table: interns the class names and lays the parameters
    /// out in universe (sorted-name) order.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] if no classes were added.
    /// * [`ModelError::DuplicateClass`] if a class was added twice.
    pub fn build(self) -> Result<ModelParams, ModelError> {
        if let Some(class) = self.duplicate {
            return Err(ModelError::DuplicateClass { class });
        }
        if self.table.is_empty() {
            return Err(ModelError::Empty {
                context: "model parameter table",
            });
        }
        // The map iterates in sorted order, which is the universe's index
        // order, so the slots line up with the interned names.
        let universe = Arc::new(ClassUniverse::from_names(self.table.keys().cloned()));
        Ok(ModelParams::from_slots(
            universe,
            self.table.into_values().collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn easy() -> ClassParams {
        ClassParams::new(p(0.07), p(0.14), p(0.18))
    }

    fn difficult() -> ClassParams {
        ClassParams::new(p(0.41), p(0.4), p(0.9))
    }

    #[test]
    fn class_failure_matches_paper_table2() {
        assert!((easy().class_failure().value() - 0.1428).abs() < 1e-12);
        assert!((difficult().class_failure().value() - 0.605).abs() < 1e-12);
    }

    #[test]
    fn coherence_index_matches_paper() {
        assert!((easy().coherence_index() - 0.04).abs() < 1e-12);
        assert!((difficult().coherence_index() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coherence_index_can_be_negative() {
        // A reader who scrutinises harder when the machine (visibly) fails.
        let cp = ClassParams::new(p(0.3), p(0.5), p(0.2));
        assert!(cp.coherence_index() < 0.0);
    }

    #[test]
    fn machine_improvement_divides_p_mf() {
        let improved = easy().with_machine_improved(10.0).unwrap();
        assert!((improved.p_mf().value() - 0.007).abs() < 1e-12);
        // Reader behaviour unchanged (the paper's stated assumption).
        assert_eq!(improved.p_hf_given_ms(), easy().p_hf_given_ms());
        assert_eq!(improved.p_hf_given_mf(), easy().p_hf_given_mf());
    }

    #[test]
    fn improvement_factor_validated() {
        assert!(easy().with_machine_improved(0.5).is_err());
        assert!(easy().with_machine_improved(f64::NAN).is_err());
        assert!(easy().with_machine_improved(f64::INFINITY).is_err());
        assert!(easy().with_machine_improved(1.0).is_ok());
    }

    #[test]
    fn class_failure_is_mixture_bounds() {
        let cp = difficult();
        let f = cp.class_failure();
        assert!(f >= cp.p_hf_given_ms().min(cp.p_hf_given_mf()));
        assert!(f <= cp.p_hf_given_ms().max(cp.p_hf_given_mf()));
    }

    #[test]
    fn table_lookup_and_missing() {
        let params = ModelParams::builder()
            .class("easy", easy())
            .class("difficult", difficult())
            .build()
            .unwrap();
        assert_eq!(params.len(), 2);
        assert!(params.class_by_name("easy").is_ok());
        assert!(matches!(
            params.class_by_name("weird"),
            Err(ModelError::MissingClass { .. })
        ));
        assert!(matches!(
            params.class(&ClassId::new("weird")),
            Err(ModelError::MissingClass { .. })
        ));
    }

    #[test]
    fn builder_rejects_duplicates_and_empty() {
        assert!(matches!(
            ModelParams::builder()
                .class("a", easy())
                .class("a", easy())
                .build(),
            Err(ModelError::DuplicateClass { .. })
        ));
        assert!(matches!(
            ModelParams::builder().build(),
            Err(ModelError::Empty { .. })
        ));
    }

    #[test]
    fn map_classes_applies_everywhere() {
        let params = ModelParams::builder()
            .class("easy", easy())
            .class("difficult", difficult())
            .build()
            .unwrap();
        let all_improved = params
            .map_classes(|_, cp| cp.with_machine_improved(2.0))
            .unwrap();
        assert!((all_improved.class_by_name("easy").unwrap().p_mf().value() - 0.035).abs() < 1e-12);
        assert!(
            (all_improved
                .class_by_name("difficult")
                .unwrap()
                .p_mf()
                .value()
                - 0.205)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn displays_read_well() {
        let s = easy().to_string();
        assert!(s.contains("PMf=0.0700"), "{s}");
    }
}
