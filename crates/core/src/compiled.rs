//! Dense evaluation of the sequential model.
//!
//! Every hot path in the reproduction — eq. (8) `system_failure`, §5
//! scenario sweeps, §6.2 design ranking, uncertainty Monte-Carlo — runs on
//! one dense representation, the compile-then-evaluate architecture proven
//! on RBDs (`hmdiv_rbd::compiled`):
//!
//! * class names are interned once into a [`ClassUniverse`] of dense `u32`
//!   indices (sorted-name order), and a [`ModelParams`] table stores one
//!   [`ClassParams`] slot per index — the only copy of a model's
//!   parameters;
//! * a [`CompiledModel`] wraps that table and adds the one derived column
//!   the lane kernels read, `PHf(x)` per index;
//! * a [`CompiledProfile`] resolves a [`DemandProfile`]'s classes to indices
//!   once, keeping weights in **profile insertion order** so summation
//!   order — and therefore every result bit — matches a by-name walk of
//!   the table;
//! * [`CompiledModel::apply_scenario_into`] is the one implementation of
//!   [`Scenario`] semantics ([`Scenario::apply`] calls it);
//! * [`CompiledModel::patch`]/[`CompiledModel::restore`] mutate one class
//!   slot in place, so design ranking, budget allocation and importance
//!   sweeps evaluate candidates without cloning a model per candidate.
//!
//! Evaluation calls the *same* [`ClassParams`] methods as a by-name
//! reference walk (never algebraically-equivalent reformulations), which
//! is what makes results bit-identical to it — pinned against independent
//! map-based oracles by `crates/core/tests/compiled_equivalence.rs`.
//!
//! The batch entry points are **lane-blocked**: [`SCENARIO_LANES`] (or
//! [`PROFILE_LANES`]) *independent* evaluations advance per inner-loop
//! iteration over the dense slots, with fixed-width lane arrays the
//! compiler can autovectorize on stable rustc and a scalar remainder tail.
//! Lanes are whole evaluations, never pieces of one — each lane's
//! floating-point accumulation order is exactly the scalar order, so the
//! bit-identity contract survives the blocking. A lane block of scenarios
//! is patched into a strided scratch region (`[class][lane]` layout) by one
//! multi-patch sweep, then evaluated by one fused pass over the profile.
//!
//! Class-resolution failures surface uniformly as
//! [`ModelError::UnknownClass`].

use std::sync::Arc;

use hmdiv_prob::Probability;

use crate::adaptation::AdaptationResponse;
use crate::extrapolate::{Change, Scenario};
use crate::{ClassParams, ClassUniverse, DemandProfile, ModelError, ModelParams};

/// Independent scenario evaluations advanced per lane-blocked inner-loop
/// iteration. Eight `f64` lanes fill one 512-bit (or two 256-bit) vector
/// register rows, and a scenario block's strided scratch region stays small
/// (`classes × 8` values).
pub const SCENARIO_LANES: usize = 8;

/// Independent profile evaluations advanced per lane-blocked inner-loop
/// iteration. Profile lanes gather through per-lane index vectors (no
/// shared scratch rows), so a narrower width keeps the working set of
/// four index/weight slice pairs in registers.
pub const PROFILE_LANES: usize = 4;

/// A demand profile resolved against a [`ClassUniverse`]: dense indices plus
/// weights, in the profile's insertion order.
///
/// Binding is the only string work left on an evaluation path; once bound, a
/// profile can be evaluated against any patched state of the same compiled
/// model with pure slice indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProfile {
    universe: Arc<ClassUniverse>,
    indices: Vec<u32>,
    weights: Vec<f64>,
}

impl CompiledProfile {
    /// Resolves a profile's classes against a universe.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class the
    /// universe does not contain.
    pub fn bind(
        universe: &Arc<ClassUniverse>,
        profile: &DemandProfile,
    ) -> Result<Self, ModelError> {
        let mut indices = Vec::with_capacity(profile.len());
        let mut weights = Vec::with_capacity(profile.len());
        for (class, weight) in profile.iter() {
            indices.push(universe.resolve(class.name())?);
            weights.push(weight.value());
        }
        Ok(CompiledProfile {
            universe: Arc::clone(universe),
            indices,
            weights,
        })
    }

    /// The universe this profile is bound to.
    #[must_use]
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        &self.universe
    }

    /// The dense class indices, in profile insertion order.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The profile weights, parallel to [`CompiledProfile::indices`].
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of profile entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the profile has no entries (never true for a bound profile).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates `(index, weight)` pairs in profile insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
    }
}

/// The sequential model's dense parameter table plus its class-failure
/// column.
///
/// The table holds the exact [`ClassParams`] per universe index
/// (evaluation reuses their methods verbatim); the column caches
/// `PHf(x)` per index for the lane kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    table: ModelParams,
    /// `PHf(x)` per universe index: exactly the value
    /// `table.slots()[i].class_failure().value()` would produce, kept in
    /// sync by [`CompiledModel::patch`]. The lane kernels read this column
    /// instead of re-mixing the conditionals per evaluation.
    class_failure: Vec<f64>,
}

impl CompiledModel {
    /// Wraps a parameter table and computes its class-failure column.
    ///
    /// Recorded under the `core.compile` span with a
    /// `core.compile.classes` counter when observability is enabled.
    #[must_use]
    pub fn new(table: ModelParams) -> Self {
        let span = hmdiv_obs::span("core.compile");
        let class_failure = table
            .slots()
            .iter()
            .map(|cp| cp.class_failure().value())
            .collect();
        hmdiv_obs::counter_add("core.compile.classes", table.len() as u64);
        drop(span);
        CompiledModel {
            table,
            class_failure,
        }
    }

    /// The parameter table, in its name-keyed form.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        &self.table
    }

    /// The interned class universe.
    #[must_use]
    pub fn universe(&self) -> &Arc<ClassUniverse> {
        self.table.universe()
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the model has no classes (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The parameters at a universe index.
    #[must_use]
    pub fn params_at(&self, index: u32) -> ClassParams {
        self.table.slots()[index as usize]
    }

    /// The dense parameter slots in universe order.
    #[must_use]
    pub fn params_slice(&self) -> &[ClassParams] {
        self.table.slots()
    }

    /// `PHf(x)` per universe index — the class-failure column the lane
    /// kernels read (bit-for-bit `params_at(i).class_failure().value()`).
    #[must_use]
    pub fn class_failure_slice(&self) -> &[f64] {
        &self.class_failure
    }

    /// Binds a demand profile to this model's universe.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownClass`] if the profile mentions a class the
    /// model does not cover.
    pub fn bind_profile(&self, profile: &DemandProfile) -> Result<CompiledProfile, ModelError> {
        CompiledProfile::bind(self.universe(), profile)
    }

    /// Eq. (8) over a bound profile, summed in profile insertion order,
    /// reading the precomputed class-failure column.
    #[must_use]
    pub fn system_failure(&self, profile: &CompiledProfile) -> Probability {
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            total += w * self.class_failure[idx as usize];
        }
        Probability::clamped(total)
    }

    /// The marginal machine failure `PMf = E_x[PMf(x)]` over a bound
    /// profile.
    #[must_use]
    pub fn machine_failure(&self, profile: &CompiledProfile) -> Probability {
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            total += w * self.table.slots()[idx as usize].p_mf().value();
        }
        Probability::clamped(total)
    }

    /// The Bayes-weighted marginal `P(Hf|Ms)` over a bound profile.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if `P(Ms) = 0` under the profile.
    pub fn human_failure_given_machine_success(
        &self,
        profile: &CompiledProfile,
    ) -> Result<Probability, ModelError> {
        let mut joint = 0.0;
        let mut marginal = 0.0;
        for (idx, w) in profile.iter() {
            let cp = &self.table.slots()[idx as usize];
            joint += w * cp.p_ms().value() * cp.p_hf_given_ms().value();
            marginal += w * cp.p_ms().value();
        }
        if marginal <= 0.0 {
            return Err(ModelError::InvalidFactor {
                value: marginal,
                context: "P(Ms) for conditioning (machine never succeeds under this profile)",
            });
        }
        Ok(Probability::clamped(joint / marginal))
    }

    /// The Bayes-weighted marginal `P(Hf|Mf)` over a bound profile.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFactor`] if `P(Mf) = 0` under the profile.
    pub fn human_failure_given_machine_failure(
        &self,
        profile: &CompiledProfile,
    ) -> Result<Probability, ModelError> {
        let mut joint = 0.0;
        let mut marginal = 0.0;
        for (idx, w) in profile.iter() {
            let cp = &self.table.slots()[idx as usize];
            joint += w * cp.p_mf().value() * cp.p_hf_given_mf().value();
            marginal += w * cp.p_mf().value();
        }
        if marginal <= 0.0 {
            return Err(ModelError::InvalidFactor {
                value: marginal,
                context: "P(Mf) for conditioning (machine never fails under this profile)",
            });
        }
        Ok(Probability::clamped(joint / marginal))
    }

    /// Batch evaluation: eq. (8) for each bound profile, lane-blocked
    /// [`PROFILE_LANES`] evaluations at a time with a scalar tail.
    ///
    /// Records `core.compiled.profile_evals` plus the
    /// `core.compiled.lane_blocks` / `core.compiled.lane_tail` kernel
    /// dispatch counters (once per batch).
    #[must_use]
    pub fn evaluate_profiles(&self, profiles: &[CompiledProfile]) -> Vec<Probability> {
        let mut out = Vec::with_capacity(profiles.len());
        let mut blocks = profiles.chunks_exact(PROFILE_LANES);
        for block in &mut blocks {
            out.extend(self.profile_block_failures(block));
        }
        let tail = blocks.remainder();
        out.extend(tail.iter().map(|p| self.system_failure(p)));
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (profiles.len() / PROFILE_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.lane_tail", tail.len() as u64);
        hmdiv_obs::counter_add("core.compiled.profile_evals", profiles.len() as u64);
        out
    }

    /// One full lane block of bound profiles: the first `min(len)` entries
    /// of all lanes advance in a joint loop (one multiply-add per lane per
    /// iteration), then each lane finishes its remaining entries alone.
    /// Every lane accumulates its own entries in its own insertion order —
    /// exactly the scalar [`CompiledModel::system_failure`] order — so the
    /// block is bit-identical to four scalar calls.
    fn profile_block_failures(&self, block: &[CompiledProfile]) -> [Probability; PROFILE_LANES] {
        debug_assert_eq!(block.len(), PROFILE_LANES);
        let joint = block.iter().map(CompiledProfile::len).min().unwrap_or(0);
        let mut acc = [0.0_f64; PROFILE_LANES];
        for j in 0..joint {
            for (a, p) in acc.iter_mut().zip(block) {
                *a += p.weights[j] * self.class_failure[p.indices[j] as usize];
            }
        }
        for (a, p) in acc.iter_mut().zip(block) {
            for j in joint..p.len() {
                *a += p.weights[j] * self.class_failure[p.indices[j] as usize];
            }
        }
        acc.map(Probability::clamped)
    }

    /// [`CompiledModel::evaluate_profiles`] sharded across the
    /// `hmdiv_prob::par` executor: the lane-block index is the task id and
    /// dense result vectors ride the in-order merge, so results are
    /// bit-identical to the sequential batch at every thread count.
    ///
    /// `threads <= 1` (or a batch of fewer than two profiles) falls back to
    /// the sequential path.
    #[must_use]
    pub fn evaluate_profiles_par(
        &self,
        profiles: &[CompiledProfile],
        threads: usize,
    ) -> Vec<Probability> {
        if threads <= 1 || profiles.len() < 2 {
            return self.evaluate_profiles(profiles);
        }
        let blocks = profiles.len().div_ceil(PROFILE_LANES);
        // Pre-size each worker's results for its contiguous share of the
        // batch, so pushes never reallocate mid-run.
        let per_worker = blocks.div_ceil(threads) * PROFILE_LANES;
        let out = hmdiv_prob::par::run_tasks_scoped(
            "core.compiled.batch",
            0,
            blocks as u64,
            threads,
            || Vec::with_capacity(per_worker),
            |id, _rng, acc: &mut Vec<Probability>| {
                let start = id as usize * PROFILE_LANES;
                let block = &profiles[start..profiles.len().min(start + PROFILE_LANES)];
                if block.len() == PROFILE_LANES {
                    acc.extend(self.profile_block_failures(block));
                } else {
                    acc.extend(block.iter().map(|p| self.system_failure(p)));
                }
            },
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (profiles.len() / PROFILE_LANES) as u64,
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_tail",
            (profiles.len() % PROFILE_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.profile_evals", profiles.len() as u64);
        out
    }

    /// Batch evaluation: applies each scenario to the dense slots (batch
    /// patch/restore — the baseline is never cloned as a map) and evaluates
    /// eq. (8) under the bound profile, lane-blocked [`SCENARIO_LANES`]
    /// scenarios at a time with a scalar tail. A block's scenarios are
    /// multi-patched into a strided `[class][lane]` scratch region and
    /// evaluated by one fused pass.
    ///
    /// Records `core.compiled.scenario_evals` plus the
    /// `core.compiled.lane_blocks` / `core.compiled.lane_tail` kernel
    /// dispatch counters (once per batch, on success).
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownClass`] if a change targets a class outside
    ///   the universe.
    /// * [`ModelError::InvalidFactor`] for invalid factors/strengths.
    pub fn evaluate_scenarios(
        &self,
        scenarios: &[Scenario],
        profile: &CompiledProfile,
    ) -> Result<Vec<Probability>, ModelError> {
        let mut lanes = LaneScratch::for_model(self);
        let mut out = Vec::with_capacity(scenarios.len());
        let mut blocks = scenarios.chunks_exact(SCENARIO_LANES);
        for block in &mut blocks {
            out.extend(self.scenario_block_failures(block, profile, &mut lanes)?);
        }
        let tail = blocks.remainder();
        for scenario in tail {
            self.apply_scenario_into(scenario, &mut lanes.scratch)?;
            out.push(failure_over(&lanes.scratch, profile));
        }
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (scenarios.len() / SCENARIO_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.lane_tail", tail.len() as u64);
        hmdiv_obs::counter_add("core.compiled.scenario_evals", scenarios.len() as u64);
        Ok(out)
    }

    /// Evaluates one full lane block of scenarios against a bound profile.
    ///
    /// The multi-patch sweep first broadcasts the baseline class-failure
    /// column across every lane of the rows the profile reads, then each
    /// lane overwrites only the cells its scenario changes: targeted-change
    /// scenarios without adaptation go through a sparse overlay (no
    /// baseline copy, no per-slot adaptation pass), everything else through
    /// the general [`CompiledModel::apply_scenario_into`] path. One fused
    /// pass then walks the profile once, advancing all lanes per entry.
    ///
    /// Lanes are independent evaluations: each lane's additions happen in
    /// its own profile order, so every lane is bit-identical to the scalar
    /// path.
    ///
    /// # Errors
    ///
    /// The lowest-indexed lane's error, matching sequential fail-fast
    /// order.
    fn scenario_block_failures(
        &self,
        block: &[Scenario],
        profile: &CompiledProfile,
        lanes: &mut LaneScratch,
    ) -> Result<[Probability; SCENARIO_LANES], ModelError> {
        debug_assert_eq!(block.len(), SCENARIO_LANES);
        if lanes.cf_block.len() != self.len() * SCENARIO_LANES {
            lanes.cf_block.resize(self.len() * SCENARIO_LANES, 0.0);
        }
        for &idx in profile.indices() {
            let i = idx as usize;
            lanes.cf_block[i * SCENARIO_LANES..][..SCENARIO_LANES].fill(self.class_failure[i]);
        }
        for (lane, scenario) in block.iter().enumerate() {
            if self.try_overlay(scenario, &mut lanes.overlay)? {
                for &(i, cp) in &lanes.overlay {
                    lanes.cf_block[i * SCENARIO_LANES + lane] = cp.class_failure().value();
                }
            } else {
                self.apply_scenario_into(scenario, &mut lanes.scratch)?;
                for &idx in profile.indices() {
                    let i = idx as usize;
                    lanes.cf_block[i * SCENARIO_LANES + lane] =
                        lanes.scratch[i].class_failure().value();
                }
            }
        }
        let mut acc = [0.0_f64; SCENARIO_LANES];
        for (idx, w) in profile.iter() {
            let row = &lanes.cf_block[idx as usize * SCENARIO_LANES..][..SCENARIO_LANES];
            for (a, &cf) in acc.iter_mut().zip(row) {
                *a += w * cf;
            }
        }
        Ok(acc.map(Probability::clamped))
    }

    /// Tries to express a scenario as a sparse overlay of targeted slot
    /// updates on the baseline: possible exactly when the adaptation is
    /// [`AdaptationResponse::None`] (a proven identity, so skipping the
    /// per-slot pass is bit-exact) and every change addresses a single
    /// class. Returns `Ok(false)` — overlay contents unspecified — when the
    /// scenario needs the general path. Validation errors surface in change
    /// order, exactly as [`CompiledModel::apply_scenario_into`] raises
    /// them; a whole-table change aborts to the general path *before*
    /// validating later changes, so the general pass re-raises errors in
    /// the original order.
    fn try_overlay(
        &self,
        scenario: &Scenario,
        overlay: &mut Vec<(usize, ClassParams)>,
    ) -> Result<bool, ModelError> {
        if !matches!(scenario.adaptation(), AdaptationResponse::None) {
            return Ok(false);
        }
        overlay.clear();
        for change in scenario.changes() {
            let (i, updated) = match change {
                Change::ImproveMachine { class, factor } => {
                    let i = self.universe().resolve(class.name())? as usize;
                    (
                        i,
                        self.overlay_base(overlay, i)
                            .with_machine_improved(*factor)?,
                    )
                }
                Change::SetMachineFailure { class, p_mf } => {
                    let i = self.universe().resolve(class.name())? as usize;
                    (i, self.overlay_base(overlay, i).with_p_mf(*p_mf))
                }
                Change::SetReader {
                    class,
                    p_hf_given_ms,
                    p_hf_given_mf,
                } => {
                    let i = self.universe().resolve(class.name())? as usize;
                    (
                        i,
                        self.overlay_base(overlay, i)
                            .with_reader(*p_hf_given_ms, *p_hf_given_mf),
                    )
                }
                Change::ImproveMachineEverywhere { .. } | Change::ScaleReaderEverywhere { .. } => {
                    return Ok(false)
                }
            };
            match overlay.iter_mut().find(|(j, _)| *j == i) {
                Some(slot) => slot.1 = updated,
                None => overlay.push((i, updated)),
            }
        }
        Ok(true)
    }

    /// The current value of slot `i` under a partially-built overlay —
    /// successive changes to one class compose, as they do on the scratch
    /// copy in the general path.
    fn overlay_base(&self, overlay: &[(usize, ClassParams)], i: usize) -> ClassParams {
        overlay
            .iter()
            .find(|(j, _)| *j == i)
            .map_or(self.table.slots()[i], |(_, cp)| *cp)
    }

    /// [`CompiledModel::evaluate_scenarios`] sharded across the
    /// `hmdiv_prob::par` executor: the lane-block index is the task id,
    /// each worker keeps one private lane scratch, and per-scenario
    /// results ride the in-order merge — bit-identical to the sequential
    /// batch at every thread count, including which error surfaces first
    /// (blocks run in task order; lanes within a block in scenario order).
    ///
    /// `threads <= 1` (or a batch of fewer than two scenarios) falls back
    /// to the sequential path.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::evaluate_scenarios`]; when several scenarios are
    /// invalid, the error of the lowest-indexed one is returned, matching
    /// the sequential fail-fast order.
    pub fn evaluate_scenarios_par(
        &self,
        scenarios: &[Scenario],
        profile: &CompiledProfile,
        threads: usize,
    ) -> Result<Vec<Probability>, ModelError> {
        if threads <= 1 || scenarios.len() < 2 {
            return self.evaluate_scenarios(scenarios, profile);
        }
        let blocks = scenarios.len().div_ceil(SCENARIO_LANES);
        // Pre-size each worker's shard: the scratch covers every slot and
        // the results its contiguous share of the batch.
        let per_worker = blocks.div_ceil(threads) * SCENARIO_LANES;
        /// Per-worker accumulator: the lane scratch is worker-private
        /// working state and deliberately not merged; only the in-order
        /// per-scenario results are.
        struct Shard {
            lanes: LaneScratch,
            out: Vec<Result<Probability, ModelError>>,
        }
        impl hmdiv_prob::par::Merge for Shard {
            fn merge(&mut self, later: Self) {
                self.out.merge(later.out);
            }
        }
        let shard = hmdiv_prob::par::run_tasks_scoped(
            "core.compiled.batch",
            0,
            blocks as u64,
            threads,
            || Shard {
                lanes: LaneScratch::for_model(self),
                out: Vec::with_capacity(per_worker),
            },
            |id, _rng, acc| {
                let start = id as usize * SCENARIO_LANES;
                let block = &scenarios[start..scenarios.len().min(start + SCENARIO_LANES)];
                if block.len() == SCENARIO_LANES {
                    match self.scenario_block_failures(block, profile, &mut acc.lanes) {
                        Ok(vals) => acc.out.extend(vals.into_iter().map(Ok)),
                        // One entry suffices: the batch surfaces the first
                        // error in merge order, and within the block this
                        // is already the lowest-indexed lane's.
                        Err(e) => acc.out.push(Err(e)),
                    }
                } else {
                    // Scalar remainder tail (always the last task).
                    for scenario in block {
                        let result = self
                            .apply_scenario_into(scenario, &mut acc.lanes.scratch)
                            .map(|()| failure_over(&acc.lanes.scratch, profile));
                        acc.out.push(result);
                    }
                }
            },
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (scenarios.len() / SCENARIO_LANES) as u64,
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_tail",
            (scenarios.len() % SCENARIO_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.scenario_evals", scenarios.len() as u64);
        shard.out.into_iter().collect()
    }

    /// Applies a scenario's changes (and adaptation) to `scratch`, which is
    /// reset to this model's slots first: the one implementation of
    /// scenario semantics ([`Scenario::apply`] wraps the result in a model).
    ///
    /// The adaptation response is validated first, then the changes apply
    /// in order, then the reader adapts to the machine change slot by slot,
    /// referenced against this (the baseline) model's `PMf(x)`.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::evaluate_scenarios`].
    pub fn apply_scenario_into(
        &self,
        scenario: &Scenario,
        scratch: &mut Vec<ClassParams>,
    ) -> Result<(), ModelError> {
        scenario.adaptation().validate()?;
        scratch.clear();
        scratch.extend_from_slice(self.table.slots());
        for change in scenario.changes() {
            match change {
                Change::ImproveMachine { class, factor } => {
                    let i = self.universe().resolve(class.name())? as usize;
                    scratch[i] = scratch[i].with_machine_improved(*factor)?;
                }
                Change::ImproveMachineEverywhere { factor } => {
                    for cp in scratch.iter_mut() {
                        *cp = cp.with_machine_improved(*factor)?;
                    }
                }
                Change::SetMachineFailure { class, p_mf } => {
                    let i = self.universe().resolve(class.name())? as usize;
                    scratch[i] = scratch[i].with_p_mf(*p_mf);
                }
                Change::SetReader {
                    class,
                    p_hf_given_ms,
                    p_hf_given_mf,
                } => {
                    let i = self.universe().resolve(class.name())? as usize;
                    scratch[i] = scratch[i].with_reader(*p_hf_given_ms, *p_hf_given_mf);
                }
                Change::ScaleReaderEverywhere { factor } => {
                    if factor.is_nan() || *factor < 0.0 || factor.is_infinite() {
                        return Err(ModelError::InvalidFactor {
                            value: *factor,
                            context: "reader scale factor",
                        });
                    }
                    for cp in scratch.iter_mut() {
                        *cp = cp.with_reader(
                            Probability::clamped(cp.p_hf_given_ms().value() * factor),
                            Probability::clamped(cp.p_hf_given_mf().value() * factor),
                        );
                    }
                }
            }
        }
        // Indirect effects: the reader adapts to the machine change,
        // referenced against the *baseline* machine parameters.
        for (cp, base) in scratch.iter_mut().zip(self.table.slots()) {
            *cp = scenario.adaptation().apply(base.p_mf(), cp)?;
        }
        Ok(())
    }

    /// Replaces one class slot in place, returning the previous parameters
    /// (hand them back to [`CompiledModel::restore`] to undo). Keeps the
    /// class-failure column in sync.
    pub fn patch(&mut self, index: u32, params: ClassParams) -> ClassParams {
        let i = index as usize;
        self.class_failure[i] = params.class_failure().value();
        std::mem::replace(&mut self.table.slots_mut()[i], params)
    }

    /// Undoes a [`CompiledModel::patch`] by re-patching the saved slot.
    pub fn restore(&mut self, index: u32, params: ClassParams) {
        self.patch(index, params);
    }

    /// Eq. (8) with one class slot temporarily replaced — patch, evaluate,
    /// restore, without mutating `self` (the override is applied inline).
    #[must_use]
    pub fn system_failure_patched(
        &self,
        profile: &CompiledProfile,
        index: u32,
        params: ClassParams,
    ) -> Probability {
        let patched = params.class_failure().value();
        let mut total = 0.0;
        for (idx, w) in profile.iter() {
            let cf = if idx == index {
                patched
            } else {
                self.class_failure[idx as usize]
            };
            total += w * cf;
        }
        Probability::clamped(total)
    }

    /// Eq. (8) for a batch of single-slot candidate patches — the design
    /// sweep's inner loop, lane-blocked [`SCENARIO_LANES`] candidates at a
    /// time. Each lane selects between its candidate's class-failure value
    /// and the baseline column per profile entry, so every lane is
    /// bit-identical to [`CompiledModel::system_failure_patched`] (the
    /// scalar tail).
    ///
    /// Records the `core.compiled.lane_blocks` / `core.compiled.lane_tail`
    /// kernel dispatch counters (once per batch).
    #[must_use]
    pub fn system_failure_patched_batch(
        &self,
        profile: &CompiledProfile,
        candidates: &[(u32, ClassParams)],
    ) -> Vec<Probability> {
        let mut out = Vec::with_capacity(candidates.len());
        let mut blocks = candidates.chunks_exact(SCENARIO_LANES);
        for block in &mut blocks {
            let mut cand_idx = [0_u32; SCENARIO_LANES];
            let mut cand_cf = [0.0_f64; SCENARIO_LANES];
            for (lane, (i, cp)) in block.iter().enumerate() {
                cand_idx[lane] = *i;
                cand_cf[lane] = cp.class_failure().value();
            }
            let mut acc = [0.0_f64; SCENARIO_LANES];
            for (idx, w) in profile.iter() {
                let base = self.class_failure[idx as usize];
                for lane in 0..SCENARIO_LANES {
                    let cf = if cand_idx[lane] == idx {
                        cand_cf[lane]
                    } else {
                        base
                    };
                    acc[lane] += w * cf;
                }
            }
            out.extend(acc.map(Probability::clamped));
        }
        let tail = blocks.remainder();
        out.extend(
            tail.iter()
                .map(|(i, cp)| self.system_failure_patched(profile, *i, *cp)),
        );
        hmdiv_obs::counter_add(
            "core.compiled.lane_blocks",
            (candidates.len() / SCENARIO_LANES) as u64,
        );
        hmdiv_obs::counter_add("core.compiled.lane_tail", tail.len() as u64);
        out
    }
}

/// Reusable scratch for the lane-blocked scenario kernels.
///
/// `cf_block` is the strided multi-patch region: `classes ×
/// SCENARIO_LANES` class-failure values laid out `[class][lane]`, so the
/// fused evaluation pass loads one contiguous lane-wide row per profile
/// entry. `scratch` holds a full baseline copy for general-path lanes
/// (whole-table changes or adaptation); `overlay` the `(slot, params)`
/// pairs of sparse-path lanes.
struct LaneScratch {
    scratch: Vec<ClassParams>,
    overlay: Vec<(usize, ClassParams)>,
    cf_block: Vec<f64>,
}

impl LaneScratch {
    fn for_model(model: &CompiledModel) -> Self {
        LaneScratch {
            scratch: Vec::with_capacity(model.len()),
            overlay: Vec::new(),
            cf_block: vec![0.0; model.len() * SCENARIO_LANES],
        }
    }
}

/// Eq. (8) over scenario-patched scratch slots: the same accumulation
/// order and the same `ClassParams::class_failure` calls as
/// [`CompiledModel::system_failure`] over the precomputed column.
fn failure_over(params: &[ClassParams], profile: &CompiledProfile) -> Probability {
    let mut total = 0.0;
    for (idx, w) in profile.iter() {
        total += w * params[idx as usize].class_failure().value();
    }
    Probability::clamped(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::ClassId;

    #[test]
    fn universe_slots_and_column_are_aligned() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        assert_eq!(compiled.len(), 2);
        for (i, class) in compiled.universe().iter().enumerate() {
            let cp = model.params().class(class).unwrap();
            assert_eq!(compiled.params_at(i as u32), *cp);
            assert_eq!(
                compiled.class_failure_slice()[i].to_bits(),
                cp.class_failure().value().to_bits()
            );
        }
    }

    #[test]
    fn system_failure_bit_identical_to_map_walk() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        for profile in [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ] {
            let bound = compiled.bind_profile(&profile).unwrap();
            // The pre-compilation reference: walk the map in profile order.
            let mut total = 0.0;
            for (class, weight) in profile.iter() {
                total +=
                    weight.value() * model.params().class(class).unwrap().class_failure().value();
            }
            let reference = Probability::clamped(total);
            assert_eq!(
                compiled.system_failure(&bound).value().to_bits(),
                reference.value().to_bits()
            );
        }
    }

    #[test]
    fn bind_rejects_unknown_class() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let odd = DemandProfile::builder().class("odd", 1.0).build().unwrap();
        assert!(matches!(
            compiled.bind_profile(&odd),
            Err(ModelError::UnknownClass { class }) if class.name() == "odd"
        ));
    }

    #[test]
    fn patch_restore_round_trips() {
        let model = paper::example_model().unwrap();
        let mut compiled = CompiledModel::clone(model.compiled());
        let pristine = compiled.clone();
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let baseline = compiled.system_failure(&bound);

        let idx = compiled.universe().resolve("difficult").unwrap();
        let improved = compiled.params_at(idx).with_machine_improved(10.0).unwrap();
        let old = compiled.patch(idx, improved);
        let patched = compiled.system_failure(&bound);
        assert!(patched < baseline);
        assert!(
            (patched.value() - paper::published::FIELD_FAILURE_IMPROVED_DIFFICULT).abs() < 1e-9
        );
        compiled.restore(idx, old);
        assert_eq!(compiled, pristine);
        assert_eq!(
            compiled.system_failure(&bound).value().to_bits(),
            baseline.value().to_bits()
        );
        // The non-mutating variant agrees with patch/evaluate/restore.
        assert_eq!(
            compiled
                .system_failure_patched(&bound, idx, improved)
                .value()
                .to_bits(),
            patched.value().to_bits()
        );
    }

    #[test]
    fn scenario_batch_matches_scenario_apply() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let scenarios = vec![
            Scenario::new(),
            Scenario::new().improve_machine(ClassId::new("easy"), 10.0),
            Scenario::new().improve_machine(ClassId::new("difficult"), 10.0),
            Scenario::new().improve_machine_everywhere(2.0),
            Scenario::new().scale_reader_everywhere(1.5),
        ];
        let batch = compiled.evaluate_scenarios(&scenarios, &bound).unwrap();
        for (scenario, got) in scenarios.iter().zip(&batch) {
            let reference = scenario
                .apply(&model)
                .unwrap()
                .system_failure(&field)
                .unwrap();
            assert_eq!(got.value().to_bits(), reference.value().to_bits());
        }
    }

    #[test]
    fn scenario_unknown_class_is_typed() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let ghost = vec![Scenario::new().improve_machine(ClassId::new("ghost"), 10.0)];
        assert!(matches!(
            compiled.evaluate_scenarios(&ghost, &bound),
            Err(ModelError::UnknownClass { class }) if class.name() == "ghost"
        ));
    }

    #[test]
    fn evaluate_profiles_batches() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let bound: Vec<CompiledProfile> = [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ]
        .iter()
        .map(|p| compiled.bind_profile(p).unwrap())
        .collect();
        let out = compiled.evaluate_profiles(&bound);
        assert!((out[0].value() - 0.23524).abs() < 1e-9);
        assert!((out[1].value() - 0.18902).abs() < 1e-9);
    }

    #[test]
    fn par_batches_bit_identical_at_any_thread_count() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let bound: Vec<CompiledProfile> = [
            paper::trial_profile().unwrap(),
            paper::field_profile().unwrap(),
        ]
        .iter()
        .map(|p| compiled.bind_profile(p).unwrap())
        .collect();
        let field = bound[1].clone();
        let scenarios: Vec<Scenario> = (0..40)
            .map(|i| {
                Scenario::new().improve_machine(
                    ClassId::new(if i % 2 == 0 { "easy" } else { "difficult" }),
                    1.5 + f64::from(i) * 0.1,
                )
            })
            .collect();
        let seq_profiles = compiled.evaluate_profiles(&bound);
        let seq_scenarios = compiled.evaluate_scenarios(&scenarios, &field).unwrap();
        for threads in [1usize, 2, 7] {
            let par_profiles = compiled.evaluate_profiles_par(&bound, threads);
            let par_scenarios = compiled
                .evaluate_scenarios_par(&scenarios, &field, threads)
                .unwrap();
            for (a, b) in seq_profiles.iter().zip(&par_profiles) {
                assert_eq!(
                    a.value().to_bits(),
                    b.value().to_bits(),
                    "threads={threads}"
                );
            }
            for (a, b) in seq_scenarios.iter().zip(&par_scenarios) {
                assert_eq!(
                    a.value().to_bits(),
                    b.value().to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_scenarios_report_lowest_indexed_error() {
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let field = paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&field).unwrap();
        let mut scenarios: Vec<Scenario> = (0..10)
            .map(|_| Scenario::new().improve_machine(ClassId::new("easy"), 2.0))
            .collect();
        scenarios[7] = Scenario::new().improve_machine(ClassId::new("late-ghost"), 2.0);
        scenarios[3] = Scenario::new().improve_machine(ClassId::new("early-ghost"), 2.0);
        let sequential = compiled.evaluate_scenarios(&scenarios, &bound);
        for threads in [2usize, 7] {
            let par = compiled.evaluate_scenarios_par(&scenarios, &bound, threads);
            assert_eq!(par, sequential, "threads={threads}");
            assert!(matches!(
                par,
                Err(ModelError::UnknownClass { ref class }) if class.name() == "early-ghost"
            ));
        }
    }

    #[test]
    fn profile_subset_of_universe_is_fine() {
        // The profile may use fewer classes than the model knows.
        let model = paper::example_model().unwrap();
        let compiled = model.compiled();
        let only_easy = DemandProfile::builder().class("easy", 1.0).build().unwrap();
        let bound = compiled.bind_profile(&only_easy).unwrap();
        assert_eq!(bound.len(), 1);
        assert!(!bound.is_empty());
        assert!((compiled.system_failure(&bound).value() - 0.1428).abs() < 1e-12);
    }
}
