//! Clear-box reliability models of human–machine advisory systems.
//!
//! This crate implements the models of *Strigini, Povyakalo & Alberdi,
//! "Human-machine diversity in the use of computerised advisory systems: a
//! case study"* (DSN 2003). The system under study is a human expert (the
//! "reader") deciding whether to recall a screening patient, assisted by a
//! computer-aided detection tool (CADT) that prompts suspicious features on
//! the mammogram. Reader failures *are* system failures; the models describe
//! how the CADT's successes and failures shift the reader's failure
//! probability, per class of demand.
//!
//! # The two models
//!
//! * [`SequentialModel`] (§4, Fig. 3) — the general model: per class of
//!   cases `x`, the parameters are `PMf(x)` (machine false-negative
//!   probability), `PHf|Ms(x)` and `PHf|Mf(x)` (reader failure conditional
//!   on machine success/failure). The system failure probability over a
//!   [`DemandProfile`] is the paper's eq. (8).
//! * [`ParallelDetectionModel`] (§3, Fig. 2) — the more restrictive model
//!   derived from the intended procedure of use: 1-out-of-2 redundancy
//!   between human and machine *detection*, in series with human
//!   *classification* (eqs. 1–3, including the difficulty-covariance term).
//!
//! # The analysis toolkit
//!
//! * [`importance`] — the coherence/importance index
//!   `t(x) = PHf|Mf(x) − PHf|Ms(x)` (eq. 9), the Fig. 4 line, and the
//!   `PHf|Ms` lower bound on what machine improvement alone can achieve.
//! * [`decomposition`] — eq. (10):
//!   `PHf = E[PHf|Ms] + E[PMf]·E[t] + cov(PMf, t)`.
//! * [`extrapolate`] — §5: scenarios that re-weight the demand profile,
//!   improve the machine on chosen classes, shift reader skill, or couple
//!   reader parameters to machine reliability ([`adaptation`]).
//! * [`design`] — ranking classes by the system-level benefit of improving
//!   the CADT on them (§6.2's non-intuitive targeting result).
//! * [`tradeoff`] — false-negative/false-positive trade-offs and system
//!   ROC curves (the paper's announced next step).
//! * [`multi_reader`] — double reading, two readers + CADT, and
//!   lower-qualified-reader configurations (§7).
//! * [`uncertainty`] — Monte-Carlo propagation of parameter uncertainty
//!   into system predictions.
//! * [`paper`] — the paper's §5 worked example as ready-made constants.
//! * [`compiled`] — the dense model representation: a [`ModelParams`]
//!   table stores one slot per index of an interned [`ClassUniverse`],
//!   and the [`CompiledModel`] wrapping it (with its class-failure
//!   column) is what every hot path evaluates through — batch scenario
//!   sweeps, the one scenario applier, patch/restore candidate
//!   evaluation — bit-identical to a by-name map walk.
//!
//! # Example
//!
//! ```
//! use hmdiv_core::{paper, ModelError};
//!
//! # fn main() -> Result<(), ModelError> {
//! let model = paper::example_model()?;
//! let field = paper::field_profile()?;
//! // Paper table 2, "Field, all cases": 0.189.
//! let p = model.system_failure(&field)?;
//! assert!((p.value() - 0.18902).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adaptation;
pub mod advice;
pub mod aggregation;
mod class;
pub mod cohort;
pub mod compiled;
pub mod decomposition;
pub mod design;
pub mod economics;
mod error;
pub mod extrapolate;
pub mod importance;
pub mod interval;
pub mod multi_reader;
pub mod paper;
mod parallel;
mod params;
mod profile;
pub mod rounds;
pub mod sensitivity;
mod sequential;
pub mod tradeoff;
pub mod uncertainty;

pub use class::{ClassId, ClassUniverse, UniverseManifest};
pub use compiled::{CompiledModel, CompiledProfile};
pub use error::ModelError;
pub use parallel::{DetectionParams, ParallelDetectionModel};
pub use params::{ClassParams, ModelParams};
pub use profile::DemandProfile;
pub use sequential::SequentialModel;
