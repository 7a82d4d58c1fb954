//! Forward-mode interval algorithmic differentiation: certified per-slot
//! sensitivity (Birnbaum derivative) bounds and direction certificates.
//!
//! [`interp`](crate::interp) bounds the *value* of a structure function;
//! this pass bounds its *partial derivatives*. For each component slot it
//! computes a sound interval on `∂R/∂r_j` — the Birnbaum importance of
//! the slot — valid everywhere inside the per-component probability box,
//! and derives a **direction certificate** from the interval's sign:
//!
//! * both endpoints ≥ 0 → the slot is certified *nondecreasing*
//!   (coherent: improving the component never hurts the system);
//! * both endpoints ≤ 0 → certified *nonincreasing* — an anti-monotone,
//!   non-coherent slot ([`codes::NON_COHERENT_SLOT`]);
//! * a sign-straddling interval certifies nothing
//!   ([`codes::SIGN_INDETERMINATE`]).
//!
//! Two bounding engines, chosen by program shape:
//!
//! * **Forward-mode interval AD** when no component repeats: every stack
//!   entry carries a dual `(value interval, derivative-interval vector)`
//!   and each postfix op propagates both — products via prefix/suffix
//!   partial products for series/parallel, a count-distribution dynamic
//!   program for k-of-n. With no repeats the postfix program *is* the
//!   exact semantics, so the derivative enclosure needs no monotonicity
//!   assumption at all: the sign comes out of the arithmetic.
//! * **Corner-paired factoring** when components repeat: the naive
//!   program is then not the exact (factored) semantics, so the pass
//!   falls back on the same monotone-corner machinery the interval
//!   interpreter uses. `R` is multilinear in each `r_j`, hence
//!   `B_j = R(q_j=0, rest) − R(q_j=1, rest)` with each term monotone
//!   nonincreasing in the remaining failure probabilities — four exact
//!   corner evaluations per slot bound it soundly. When exact factoring
//!   refuses (too many repeats) the bounds widen to the trivial `[0,1]`
//!   with [`codes::SENSITIVITY_WIDENED`].
//!
//! The same derivative algebra applied to eq. (8) of the paper gives
//! closed-form per-class sensitivities of the *sequential model*:
//! `∂PHf/∂PMf(x) = p(x)·t(x)`, `∂PHf/∂PHf|Ms(x) = p(x)·(1−PMf(x))`,
//! `∂PHf/∂PHf|Mf(x) = p(x)·PMf(x)` — see [`model_sensitivity`].

use hmdiv_core::{CompiledModel, CompiledProfile};
use hmdiv_prob::Probability;
use hmdiv_rbd::compiled::{CompiledBlock, Op};

use crate::diag::{codes, Report};
use crate::interp::Interval;
use crate::params;
use crate::verifier::{verify, PostfixProgram};

/// The pass name used in diagnostics from this module.
const PASS: &str = "sens";

/// Derivative magnitudes below this are treated as numerical zero when
/// classifying a slot's direction (same spirit as the interval
/// interpreter's relevance epsilon): round-to-nearest interval arithmetic
/// accumulates at most a few hundred ulps of slack through any program
/// the evaluator accepts, far under this floor.
const SIGN_EPS: f64 = 1e-9;

/// The certified direction of one scalar output in one parameter slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Certified nondecreasing (derivative interval ≥ 0 up to the noise
    /// floor, with room above it).
    Increasing,
    /// Certified nonincreasing (derivative interval ≤ 0 up to the noise
    /// floor, with room below it).
    Decreasing,
    /// Certified numerically zero everywhere in the box.
    Flat,
    /// The derivative interval straddles zero: no certificate.
    Mixed,
}

impl Direction {
    /// The lowercase label used in messages and wire renders.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Direction::Increasing => "increasing",
            Direction::Decreasing => "decreasing",
            Direction::Flat => "flat",
            Direction::Mixed => "mixed",
        }
    }

    /// Classifies a derivative interval against the numerical noise floor.
    fn of(iv: Interval) -> Direction {
        let (neg, pos) = (iv.lo < -SIGN_EPS, iv.hi > SIGN_EPS);
        match (neg, pos) {
            (false, false) => Direction::Flat,
            (false, true) => Direction::Increasing,
            (true, false) => Direction::Decreasing,
            (true, true) => Direction::Mixed,
        }
    }
}

/// Sensitivity bounds for one component slot of a structure function.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSensitivity {
    /// The interned component name.
    pub name: String,
    /// Sound bounds on `∂R/∂r` — the Birnbaum importance of the slot —
    /// over the whole per-component probability box.
    pub derivative: Interval,
    /// The direction certificate derived from the interval's sign.
    pub direction: Direction,
}

/// The outcome of differentiating one structure function.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityAnalysis {
    /// Per-slot derivative bounds, in interned component order; empty if
    /// the program or its intervals were invalid.
    pub slots: Vec<SlotSensitivity>,
    /// Whether exact factoring refused and the bounds are trivial.
    pub widened: bool,
    /// Everything the verifier and the differentiator found.
    pub report: Report,
}

/// Bounds every slot's Birnbaum derivative `∂R/∂r_j` over the given
/// failure-probability box and certifies per-slot directions.
///
/// `failure_bounds[i]` is the failure-probability interval for the
/// component at interned index `i`, exactly as in
/// [`analyze_block`](crate::analyze_block).
///
/// # Panics
///
/// Panics if `failure_bounds.len() != compiled.component_count()`, like
/// every dense-slice API on [`CompiledBlock`].
#[must_use]
pub fn structure_sensitivity(
    compiled: &CompiledBlock,
    failure_bounds: &[Interval],
) -> SensitivityAnalysis {
    let _span = hmdiv_obs::span("analyze.sens");
    assert_eq!(
        failure_bounds.len(),
        compiled.component_count(),
        "interval vector length must equal component count"
    );
    let mut report = verify(&PostfixProgram::from(compiled));
    for (i, iv) in failure_bounds.iter().enumerate() {
        if !iv.is_valid() {
            report.emit(
                &codes::BAD_INTERVAL,
                PASS,
                format!(
                    "component `{}`: [{}, {}] is not a sub-interval of [0,1]",
                    compiled.component_names()[i],
                    iv.lo,
                    iv.hi
                ),
            );
        }
    }
    if report.has_errors() {
        return SensitivityAnalysis {
            slots: Vec::new(),
            widened: false,
            report,
        };
    }

    let n = compiled.component_count();
    let (derivatives, widened, engine) = if compiled.repeated_indices().is_empty() {
        (
            ad_derivatives(compiled, failure_bounds),
            false,
            "forward-mode interval AD",
        )
    } else {
        match corner_derivatives(compiled, failure_bounds) {
            Some(d) => (d, false, "corner-paired factoring"),
            None => (vec![Interval::UNIT; n], true, "widened"),
        }
    };

    if widened {
        report.emit(
            &codes::SENSITIVITY_WIDENED,
            PASS,
            format!(
                "{} repeated components exceed the exact-factoring limit; derivative bounds widened to [0,1]",
                compiled.repeated_indices().len()
            ),
        );
    } else {
        report.emit(
            &codes::SENSITIVITY_BOUNDS,
            PASS,
            format!("Birnbaum derivative bounds computed for {n} component slots via {engine}"),
        );
    }

    let mut slots = Vec::with_capacity(n);
    let mut uncertified = 0usize;
    for (i, derivative) in derivatives.into_iter().enumerate() {
        let name = compiled.component_names()[i].clone();
        let direction = if widened {
            Direction::Mixed
        } else {
            Direction::of(derivative)
        };
        match direction {
            Direction::Mixed if !widened => {
                uncertified += 1;
                report.emit(
                    &codes::SIGN_INDETERMINATE,
                    PASS,
                    format!(
                        "component `{name}`: derivative interval [{:.9}, {:.9}] spans zero; direction uncertified",
                        derivative.lo, derivative.hi
                    ),
                );
            }
            Direction::Decreasing => {
                report.emit(
                    &codes::NON_COHERENT_SLOT,
                    PASS,
                    format!(
                        "component `{name}`: reliability certified nonincreasing in the component ([{:.9}, {:.9}])",
                        derivative.lo, derivative.hi
                    ),
                );
            }
            _ => {}
        }
        slots.push(SlotSensitivity {
            name,
            derivative,
            direction,
        });
    }
    if !widened && uncertified == 0 {
        report.emit(
            &codes::DIRECTIONS_CERTIFIED,
            PASS,
            format!("all {n} component slots carry a direction certificate"),
        );
    }
    SensitivityAnalysis {
        slots,
        widened,
        report,
    }
}

// ---------------------------------------------------------------------------
// Interval algebra over plain `Interval` endpoints. These are *real*
// intervals (derivatives can be negative), unlike the `[0,1]` probability
// intervals the interpreter validates.

fn iv_add(a: Interval, b: Interval) -> Interval {
    Interval::new(a.lo + b.lo, a.hi + b.hi)
}

fn iv_mul(a: Interval, b: Interval) -> Interval {
    let p = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    let mut lo = p[0];
    let mut hi = p[0];
    for v in &p[1..] {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    Interval::new(lo, hi)
}

fn iv_sub(a: Interval, b: Interval) -> Interval {
    Interval::new(a.lo - b.hi, a.hi - b.lo)
}

/// `1 − a` for a probability interval.
fn iv_complement(a: Interval) -> Interval {
    Interval::new(1.0 - a.hi, 1.0 - a.lo)
}

/// Intersects a probability enclosure with `[0,1]` (sound: the true value
/// is a probability).
fn iv_clamp01(a: Interval) -> Interval {
    let lo = a.lo.max(0.0);
    Interval::new(lo, a.hi.min(1.0).max(lo))
}

/// Intersects a derivative enclosure with `[-1,1]` (sound: `R` is
/// multilinear in each slot, so every partial is a difference of two
/// probabilities).
fn iv_clamp_unit_ball(a: Interval) -> Interval {
    let lo = a.lo.max(-1.0);
    Interval::new(lo, a.hi.min(1.0).max(lo))
}

// ---------------------------------------------------------------------------
// Engine 1: vector forward-mode interval AD over the postfix program.

/// One abstract stack entry: a value enclosure plus the enclosure of its
/// gradient with respect to every component reliability.
struct Dual {
    val: Interval,
    grad: Vec<Interval>,
}

/// Derivative enclosures `∂R/∂r_j` for a repeat-free program. With no
/// repeated components the postfix program coincides with the exact
/// semantics, so differentiating the program differentiates the model.
fn ad_derivatives(compiled: &CompiledBlock, failure_bounds: &[Interval]) -> Vec<Interval> {
    let n = compiled.component_count();
    let zero_grad = || vec![Interval::point(0.0); n];
    let mut stack: Vec<Dual> = Vec::new();
    for op in compiled.ops() {
        match *op {
            Op::Comp(i) => {
                let mut grad = zero_grad();
                grad[i as usize] = Interval::point(1.0);
                stack.push(Dual {
                    val: iv_complement(failure_bounds[i as usize]),
                    grad,
                });
            }
            Op::Series(k) => {
                let children = stack.split_off(stack.len() - k as usize);
                // ∂(Π v_c)/∂x = Σ_c (Π_{m≠c} v_m) · ∂v_c/∂x, with the
                // partial products formed as prefix·suffix.
                let factors: Vec<Interval> = children.iter().map(|d| d.val).collect();
                let partials = partial_products(&factors);
                stack.push(combine(&children, &factors, &partials, zero_grad()));
            }
            Op::Parallel(k) => {
                let children = stack.split_off(stack.len() - k as usize);
                // R = 1 − Π(1−v_c): ∂R/∂x = Σ_c (Π_{m≠c}(1−v_m)) · ∂v_c/∂x.
                let factors: Vec<Interval> =
                    children.iter().map(|d| iv_complement(d.val)).collect();
                let partials = partial_products(&factors);
                let combined = combine(&children, &factors, &partials, zero_grad());
                stack.push(Dual {
                    val: iv_clamp01(iv_complement(iv_clamp01(product(&factors)))),
                    grad: combined.grad,
                });
            }
            Op::KOfN { k, n: arity } => {
                let children = stack.split_off(stack.len() - arity as usize);
                stack.push(k_of_n_dual(k as usize, &children, n));
            }
        }
    }
    let result = stack.pop().expect("verified program leaves one result");
    result.grad.into_iter().map(iv_clamp_unit_ball).collect()
}

/// `Π factors` as an interval.
fn product(factors: &[Interval]) -> Interval {
    factors
        .iter()
        .fold(Interval::point(1.0), |acc, f| iv_mul(acc, *f))
}

/// `partials[c] = Π_{m≠c} factors[m]` via prefix/suffix products.
fn partial_products(factors: &[Interval]) -> Vec<Interval> {
    let k = factors.len();
    let mut prefix = vec![Interval::point(1.0); k + 1];
    for (c, f) in factors.iter().enumerate() {
        prefix[c + 1] = iv_mul(prefix[c], *f);
    }
    let mut suffix = vec![Interval::point(1.0); k + 1];
    for c in (0..k).rev() {
        suffix[c] = iv_mul(suffix[c + 1], factors[c]);
    }
    (0..k).map(|c| iv_mul(prefix[c], suffix[c + 1])).collect()
}

/// The chain rule for an n-ary product-shaped group: value `Π factors`,
/// gradient `Σ_c partials[c]·grad_c`.
fn combine(
    children: &[Dual],
    factors: &[Interval],
    partials: &[Interval],
    zero: Vec<Interval>,
) -> Dual {
    let mut grad = zero;
    for (child, partial) in children.iter().zip(partials) {
        for (g, cg) in grad.iter_mut().zip(&child.grad) {
            *g = iv_add(*g, iv_mul(*partial, *cg));
        }
    }
    Dual {
        val: iv_clamp01(product(factors)),
        grad,
    }
}

/// Dual evaluation of a k-of-n group through the count-distribution
/// dynamic program: `b[c]` encloses `P(exactly c of the children seen so
/// far work)` and its gradient, updated per child as
/// `b'[c] = b[c−1]·v + b[c]·(1−v)`, whose derivative is
/// `b[c−1]'·v + b[c]'·(1−v) + (b[c−1] − b[c])·v'`.
fn k_of_n_dual(k: usize, children: &[Dual], n_slots: usize) -> Dual {
    let zero = Interval::point(0.0);
    let mut counts = vec![Dual {
        val: Interval::point(1.0),
        grad: vec![zero; n_slots],
    }];
    for child in children {
        let comp = iv_complement(child.val);
        let mut next = Vec::with_capacity(counts.len() + 1);
        for c in 0..=counts.len() {
            let from_below = c.checked_sub(1).and_then(|i| counts.get(i));
            let stay = counts.get(c);
            let val = iv_clamp01(iv_add(
                from_below.map_or(zero, |d| iv_mul(d.val, child.val)),
                stay.map_or(zero, |d| iv_mul(d.val, comp)),
            ));
            let jump = iv_sub(
                from_below.map_or(zero, |d| d.val),
                stay.map_or(zero, |d| d.val),
            );
            let grad = (0..n_slots)
                .map(|j| {
                    let mut g = iv_mul(jump, child.grad[j]);
                    if let Some(d) = from_below {
                        g = iv_add(g, iv_mul(d.grad[j], child.val));
                    }
                    if let Some(d) = stay {
                        g = iv_add(g, iv_mul(d.grad[j], comp));
                    }
                    iv_clamp_unit_ball(g)
                })
                .collect();
            next.push(Dual { val, grad });
        }
        counts = next;
    }
    let mut val = zero;
    let mut grad = vec![zero; n_slots];
    for d in counts.iter().skip(k) {
        val = iv_add(val, d.val);
        for (g, dg) in grad.iter_mut().zip(&d.grad) {
            *g = iv_add(*g, *dg);
        }
    }
    Dual {
        val: iv_clamp01(val),
        grad: grad.into_iter().map(iv_clamp_unit_ball).collect(),
    }
}

// ---------------------------------------------------------------------------
// Engine 2: corner-paired Birnbaum bounds through the exact evaluator.

/// Derivative enclosures for a program with repeated components: `R` is
/// multilinear in each `r_j`, so `∂R/∂r_j = R(q_j=0, rest) − R(q_j=1,
/// rest)`, and each term is monotone nonincreasing in the remaining
/// failure probabilities — four exact corner evaluations bound it.
/// Returns `None` when exact factoring refuses.
fn corner_derivatives(
    compiled: &CompiledBlock,
    failure_bounds: &[Interval],
) -> Option<Vec<Interval>> {
    let n = compiled.component_count();
    let corner = |pick: fn(&Interval) -> f64| -> Vec<Probability> {
        failure_bounds
            .iter()
            .map(|iv| Probability::clamped(pick(iv)))
            .collect()
    };
    let lo_q = corner(|iv| iv.lo);
    let hi_q = corner(|iv| iv.hi);
    let eval = |base: &[Probability], j: usize, pin: Probability| -> Option<f64> {
        let mut q = base.to_vec();
        q[j] = pin;
        compiled.reliability(&q).ok().map(|r| r.value())
    };
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let r0_lo = eval(&lo_q, j, Probability::ZERO)?;
        let r1_hi = eval(&hi_q, j, Probability::ONE)?;
        let r0_hi = eval(&hi_q, j, Probability::ZERO)?;
        let r1_lo = eval(&lo_q, j, Probability::ONE)?;
        // The corner-monotonicity theorem gives B_j ≥ 0, so the crossed
        // lower corner intersects with zero.
        let lo = (r0_hi - r1_lo).max(0.0);
        let hi = (r0_lo - r1_hi).min(1.0).max(lo);
        out.push(Interval::new(lo, hi));
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Eq. (8) sensitivities of the sequential model.

/// Closed-form per-class sensitivities of system failure under one
/// demand profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSensitivity {
    /// The class name.
    pub class: String,
    /// Its profile weight `p(x)` (zero when the profile never demands it).
    pub weight: f64,
    /// `∂PHf/∂PMf(x) = p(x)·t(x)` — the Birnbaum sensitivity of system
    /// failure to the machine's failure probability on this class.
    pub d_machine_failure: Interval,
    /// `∂PHf/∂PHf|Ms(x) = p(x)·(1−PMf(x))`.
    pub d_human_given_success: Interval,
    /// `∂PHf/∂PHf|Mf(x) = p(x)·PMf(x)`.
    pub d_human_given_failure: Interval,
    /// The direction of system failure in `PMf(x)`: `Increasing` is the
    /// coherent expectation (a worse machine makes a worse system).
    pub direction: Direction,
}

/// The outcome of differentiating eq. (8) for one model + profile pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSensitivity {
    /// Per-class sensitivities in interned class order; empty if the
    /// model or profile carried error-severity findings.
    pub classes: Vec<ClassSensitivity>,
    /// Everything the parameter pass and the differentiator found.
    pub report: Report,
}

/// Differentiates eq. (8) of the paper: per-class partial derivatives of
/// system failure in each parameter slot, with direction certificates.
///
/// Eq. (8) is linear in every slot, so the partials are exact closed
/// forms and every slot gets a certificate; the interesting finding is a
/// class whose `t(x) < 0` makes `PMf(x)` *anti-monotone* — improving the
/// machine there worsens the system ([`codes::NON_COHERENT_SLOT`],
/// echoing the parameter pass's [`codes::NEGATIVE_COHERENCE_INDEX`]).
#[must_use]
pub fn model_sensitivity(model: &CompiledModel, profile: &CompiledProfile) -> ModelSensitivity {
    let _span = hmdiv_obs::span("analyze.sens");
    let mut report = params::check_model(model);
    report.merge(params::check_profile(model.universe(), profile));
    if report.has_errors() {
        return ModelSensitivity {
            classes: Vec::new(),
            report,
        };
    }
    let n = model.len();
    let mut weights = vec![0.0f64; n];
    for (idx, w) in profile.iter() {
        weights[idx as usize] = w;
    }
    let mut classes = Vec::with_capacity(n);
    let mut non_coherent = 0usize;
    for (i, cp) in model.params_slice().iter().enumerate() {
        let class = model.universe().class(i as u32).name().to_owned();
        let p_mf = cp.p_mf().value();
        let t = cp.p_hf_given_mf().value() - cp.p_hf_given_ms().value();
        let d_mf = weights[i] * t;
        let direction = Direction::of(Interval::point(d_mf));
        if direction == Direction::Decreasing {
            non_coherent += 1;
            report.emit(
                &codes::NON_COHERENT_SLOT,
                PASS,
                format!(
                    "class `{class}`: ∂PHf/∂PMf = {d_mf:.9} < 0 — improving the machine here worsens the system"
                ),
            );
        }
        classes.push(ClassSensitivity {
            class,
            weight: weights[i],
            d_machine_failure: Interval::point(d_mf),
            d_human_given_success: Interval::point(weights[i] * (1.0 - p_mf)),
            d_human_given_failure: Interval::point(weights[i] * p_mf),
            direction,
        });
    }
    report.emit(
        &codes::SENSITIVITY_BOUNDS,
        PASS,
        format!(
            "eq. (8) sensitivity bounds computed for {n} class slots ({non_coherent} non-coherent)"
        ),
    );
    report.emit(
        &codes::DIRECTIONS_CERTIFIED,
        PASS,
        format!("all {n} class slots carry a direction certificate (eq. (8) is linear per slot)"),
    );
    ModelSensitivity { classes, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_rbd::Block;

    fn fig2() -> CompiledBlock {
        CompiledBlock::compile(&Block::series(vec![
            Block::parallel(vec![Block::component("Hd"), Block::component("Md")]),
            Block::component("Hc"),
        ]))
        .unwrap()
    }

    #[test]
    fn point_intervals_give_exact_birnbaum_derivatives() {
        let compiled = fig2();
        // Interned order Hc, Hd, Md with failure probs 0.1, 0.2, 0.07:
        // R = (1 − q_Hd·q_Md)·(1 − q_Hc).
        let iv = [
            Interval::point(0.1),
            Interval::point(0.2),
            Interval::point(0.07),
        ];
        let analysis = structure_sensitivity(&compiled, &iv);
        assert!(!analysis.widened);
        assert!(!analysis.report.has_errors());
        // ∂R/∂r_Hc = 1 − q_Hd·q_Md; ∂R/∂r_Hd = q_Md·(1−q_Hc);
        // ∂R/∂r_Md = q_Hd·(1−q_Hc).
        let expected = [1.0 - 0.2 * 0.07, 0.07 * 0.9, 0.2 * 0.9];
        for (slot, want) in analysis.slots.iter().zip(expected) {
            assert!(
                (slot.derivative.lo - want).abs() < 1e-12
                    && (slot.derivative.hi - want).abs() < 1e-12,
                "{}: [{}, {}] vs {want}",
                slot.name,
                slot.derivative.lo,
                slot.derivative.hi
            );
            assert_eq!(slot.direction, Direction::Increasing);
        }
        let codes: Vec<&str> = analysis
            .report
            .diagnostics()
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, ["HM033", "HM034"]);
    }

    #[test]
    fn wide_intervals_enclose_interior_derivatives() {
        let compiled = fig2();
        let iv = [
            Interval::new(0.05, 0.3),
            Interval::new(0.1, 0.4),
            Interval::new(0.0, 0.2),
        ];
        let analysis = structure_sensitivity(&compiled, &iv);
        // At the interior point (0.17, 0.25, 0.11):
        // ∂R/∂r_Hc = 1 − 0.25·0.11, ∂R/∂r_Hd = 0.11·0.83, ∂R/∂r_Md = 0.25·0.83.
        let interior = [1.0 - 0.25 * 0.11, 0.11 * 0.83, 0.25 * 0.83];
        for (slot, want) in analysis.slots.iter().zip(interior) {
            assert!(
                slot.derivative.lo - 1e-9 <= want && want <= slot.derivative.hi + 1e-9,
                "{}: {want} outside [{}, {}]",
                slot.name,
                slot.derivative.lo,
                slot.derivative.hi
            );
        }
    }

    #[test]
    fn k_of_n_wide_intervals_may_lose_the_sign_but_stay_sound() {
        let compiled = CompiledBlock::compile(&Block::k_of_n(
            2,
            vec![
                Block::component("x"),
                Block::component("y"),
                Block::component("z"),
            ],
        ))
        .unwrap();
        let iv = [Interval::UNIT; 3];
        let analysis = structure_sensitivity(&compiled, &iv);
        assert!(!analysis.widened);
        // Soundness: the true derivative at q = (0.5, 0.5, 0.5) is
        // P(exactly 1 of the others works) = 0.5.
        for slot in &analysis.slots {
            assert!(slot.derivative.contains(0.5), "{slot:?}");
        }
        // The DP subtraction can push the abstract lower bound below
        // zero on the full unit box; if it does, HM035 must say so.
        let has_mixed = analysis
            .slots
            .iter()
            .any(|s| s.direction == Direction::Mixed);
        let reported: Vec<&str> = analysis
            .report
            .diagnostics()
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(has_mixed, reported.contains(&"HM035"), "{reported:?}");
    }

    #[test]
    fn repeated_components_use_corner_bounds() {
        // parallel(series(a,b), series(a,c)): a repeated.
        let compiled = CompiledBlock::compile(&Block::parallel(vec![
            Block::series(vec![Block::component("a"), Block::component("b")]),
            Block::series(vec![Block::component("a"), Block::component("c")]),
        ]))
        .unwrap();
        let iv = [
            Interval::point(0.5),
            Interval::point(0.5),
            Interval::point(1.0),
        ];
        let analysis = structure_sensitivity(&compiled, &iv);
        assert!(!analysis.widened);
        // R = r_a(r_b + r_c − r_b·r_c) with r = (0.5, 0.5, 0.0):
        // ∂R/∂r_a = 0.5, ∂R/∂r_b = 0.5·1 = 0.5, ∂R/∂r_c = 0.5·0.5 = 0.25.
        let expected = [0.5, 0.5, 0.25];
        for (slot, want) in analysis.slots.iter().zip(expected) {
            assert!(
                (slot.derivative.lo - want).abs() < 1e-12
                    && (slot.derivative.hi - want).abs() < 1e-12,
                "{}: [{}, {}] vs {want}",
                slot.name,
                slot.derivative.lo,
                slot.derivative.hi
            );
        }
    }

    #[test]
    fn oversized_factoring_widens_sensitivity() {
        let shared: Vec<Block> = (0..25)
            .map(|i| Block::component(format!("c{i:02}")))
            .collect();
        let compiled = CompiledBlock::compile(&Block::parallel(vec![
            Block::series(shared.clone()),
            Block::series(shared),
        ]))
        .unwrap();
        let iv = vec![Interval::point(0.1); compiled.component_count()];
        let analysis = structure_sensitivity(&compiled, &iv);
        assert!(analysis.widened);
        assert!(analysis
            .slots
            .iter()
            .all(|s| s.derivative == Interval::UNIT));
        assert!(analysis
            .slots
            .iter()
            .all(|s| s.direction == Direction::Mixed));
        let codes: Vec<&str> = analysis
            .report
            .diagnostics()
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&"HM040"), "{codes:?}");
        assert!(!codes.contains(&"HM034"), "{codes:?}");
    }

    #[test]
    fn invalid_intervals_are_rejected() {
        let compiled = fig2();
        let iv = [
            Interval::point(0.1),
            Interval::new(0.5, 0.2),
            Interval::point(0.1),
        ];
        let analysis = structure_sensitivity(&compiled, &iv);
        assert!(analysis.slots.is_empty());
        assert_eq!(analysis.report.first_error().unwrap().code, "HM010");
    }

    #[test]
    fn model_sensitivity_matches_the_design_leverage_formula() {
        let model = hmdiv_core::paper::example_model().unwrap();
        let compiled = model.compiled();
        let profile = hmdiv_core::paper::field_profile().unwrap();
        let bound = compiled.bind_profile(&profile).unwrap();
        let sens = model_sensitivity(compiled, &bound);
        assert!(!sens.report.has_errors());
        for (i, cs) in sens.classes.iter().enumerate() {
            let cp = compiled.params_at(i as u32);
            let t = cp.p_hf_given_mf().value() - cp.p_hf_given_ms().value();
            let want = cs.weight * t;
            assert!((cs.d_machine_failure.lo - want).abs() < 1e-15);
            assert_eq!(cs.direction, Direction::Increasing, "{}", cs.class);
        }
        let codes: Vec<&str> = sens.report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"HM033"), "{codes:?}");
        assert!(codes.contains(&"HM034"), "{codes:?}");
    }

    #[test]
    fn negative_coherence_class_is_flagged_anti_monotone() {
        use hmdiv_core::{ClassParams, DemandProfile, ModelParams, SequentialModel};
        use hmdiv_prob::Probability;
        let p = |v: f64| Probability::new(v).unwrap();
        // t(x) = 0.1 − 0.4 < 0: the human does better when the machine fails.
        let model = SequentialModel::new(
            ModelParams::builder()
                .class("odd", ClassParams::new(p(0.3), p(0.4), p(0.1)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder().class("odd", 1.0).build().unwrap();
        let bound = model.compiled().bind_profile(&profile).unwrap();
        let sens = model_sensitivity(model.compiled(), &bound);
        assert_eq!(sens.classes[0].direction, Direction::Decreasing);
        let codes: Vec<&str> = sens.report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"HM036"), "{codes:?}");
    }

    #[test]
    fn mismatched_profile_universe_stops_the_pass() {
        use hmdiv_core::{ClassParams, DemandProfile, ModelParams, SequentialModel};
        use hmdiv_prob::Probability;
        let p = |v: f64| Probability::new(v).unwrap();
        let model = SequentialModel::new(
            ModelParams::builder()
                .class("only", ClassParams::new(p(0.1), p(0.2), p(0.3)))
                .build()
                .unwrap(),
        );
        let other = SequentialModel::new(
            ModelParams::builder()
                .class("alien", ClassParams::new(p(0.1), p(0.2), p(0.3)))
                .build()
                .unwrap(),
        );
        let profile = DemandProfile::builder()
            .class("alien", 1.0)
            .build()
            .unwrap();
        let bound = other.compiled().bind_profile(&profile).unwrap();
        let sens = model_sensitivity(model.compiled(), &bound);
        assert!(sens.classes.is_empty());
        assert_eq!(sens.report.first_error().unwrap().code, "HM029");
    }
}
