//! The shared diagnostics framework: stable codes, severities, and a
//! [`Report`] with human-text and JSON renderers.
//!
//! Every finding an analysis pass can produce is declared once in
//! [`codes`] with a fixed code and severity, so the wire protocol, the CLI,
//! DESIGN.md's table and the tests all agree on what `HM013` means. Codes
//! are append-only: a code is never reused for a different meaning.

use std::fmt;

use hmdiv_obs::export::write_json_string;

/// How bad a finding is. Ordering is `Info < Warn < Error`.
// Derived `PartialOrd` expands to `partial_cmp`, which clippy.toml disallows
// for hand-written float comparisons; the derive itself is fine.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A property worth reporting (e.g. computed reliability bounds).
    Info,
    /// Suspicious but evaluable; results may not mean what the caller
    /// thinks (dead components, negative coherence index).
    Warn,
    /// The artifact is unsound and must not be admitted for evaluation.
    Error,
}

impl Severity {
    /// The lowercase label used by both renderers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The declaration of a diagnostic code: its stable identifier, fixed
/// severity, and a short title (the generic form of the message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSpec {
    /// Stable identifier, `HM0xx`. Never reused across releases.
    pub code: &'static str,
    /// The severity every instance of this code carries.
    pub severity: Severity,
    /// Short generic description (for the code table).
    pub title: &'static str,
}

/// The full diagnostic code table. One entry per code, append-only.
pub mod codes {
    use super::{CodeSpec, Severity};

    /// A group operation pops more values than the stack holds.
    pub const STACK_UNDERFLOW: CodeSpec = CodeSpec {
        code: "HM001",
        severity: Severity::Error,
        title: "postfix program underflows its evaluation stack",
    };
    /// The program does not leave exactly one value on the stack.
    pub const BAD_RESULT_ARITY: CodeSpec = CodeSpec {
        code: "HM002",
        severity: Severity::Error,
        title: "postfix program must leave exactly one result",
    };
    /// A series/parallel/k-of-n instruction with zero children.
    pub const ZERO_ARITY_GROUP: CodeSpec = CodeSpec {
        code: "HM003",
        severity: Severity::Error,
        title: "group instruction has zero arity",
    };
    /// A k-of-n instruction with `k == 0` or `k > n`.
    pub const BAD_THRESHOLD: CodeSpec = CodeSpec {
        code: "HM004",
        severity: Severity::Error,
        title: "k-of-n threshold outside 0 < k \u{2264} n",
    };
    /// A component index at or beyond the declared component count.
    pub const COMPONENT_OUT_OF_RANGE: CodeSpec = CodeSpec {
        code: "HM005",
        severity: Severity::Error,
        title: "component index outside the interned range",
    };
    /// A declared component the program never reads.
    pub const UNREFERENCED_COMPONENT: CodeSpec = CodeSpec {
        code: "HM006",
        severity: Severity::Warn,
        title: "declared component is never referenced by the program",
    };

    /// A per-component probability interval that is not a sub-interval of
    /// `[0,1]` (or has `lo > hi`, or non-finite endpoints).
    pub const BAD_INTERVAL: CodeSpec = CodeSpec {
        code: "HM010",
        severity: Severity::Error,
        title: "component probability interval is not within [0,1]",
    };
    /// The statically computed reliability bounds.
    pub const RELIABILITY_BOUNDS: CodeSpec = CodeSpec {
        code: "HM011",
        severity: Severity::Info,
        title: "system reliability bounds",
    };
    /// Exact bounding was infeasible; bounds widened to `[0,1]`.
    pub const BOUNDS_WIDENED: CodeSpec = CodeSpec {
        code: "HM012",
        severity: Severity::Warn,
        title: "too many repeated components; bounds widened to [0,1]",
    };
    /// A component with zero Birnbaum importance: the structure function
    /// does not depend on it.
    pub const DEAD_COMPONENT: CodeSpec = CodeSpec {
        code: "HM013",
        severity: Severity::Warn,
        title: "component is irrelevant (zero Birnbaum importance)",
    };
    /// The structure function is coherent: monotone in every component and
    /// every component is relevant.
    pub const COHERENT_STRUCTURE: CodeSpec = CodeSpec {
        code: "HM014",
        severity: Severity::Info,
        title: "structure function is coherent",
    };

    /// A parameter slot that is NaN or infinite.
    pub const NON_FINITE_PARAM: CodeSpec = CodeSpec {
        code: "HM020",
        severity: Severity::Error,
        title: "parameter slot is NaN or infinite",
    };
    /// A parameter slot outside `[0,1]`.
    pub const PARAM_OUT_OF_RANGE: CodeSpec = CodeSpec {
        code: "HM021",
        severity: Severity::Error,
        title: "parameter slot outside [0,1]",
    };
    /// Profile weights do not sum to 1 within tolerance.
    pub const PROFILE_SUM: CodeSpec = CodeSpec {
        code: "HM022",
        severity: Severity::Error,
        title: "profile weights do not sum to 1",
    };
    /// A profile weight that is negative or non-finite, or an index
    /// outside the model universe.
    pub const BAD_PROFILE_WEIGHT: CodeSpec = CodeSpec {
        code: "HM023",
        severity: Severity::Error,
        title: "profile weight or index is invalid",
    };
    /// A model class the bound profile never demands.
    pub const UNREACHABLE_CLASS: CodeSpec = CodeSpec {
        code: "HM024",
        severity: Severity::Info,
        title: "class slot is unreachable under the profile",
    };
    /// A class whose coherence index `t(x)` is negative: the human does
    /// *better* when the machine fails (eq. 9 of the paper).
    pub const NEGATIVE_COHERENCE_INDEX: CodeSpec = CodeSpec {
        code: "HM025",
        severity: Severity::Warn,
        title: "negative coherence index t(x)",
    };
    /// A class whose coherence index `t(x)` is exactly zero: human
    /// failure is independent of machine advice.
    pub const ZERO_COHERENCE_INDEX: CodeSpec = CodeSpec {
        code: "HM026",
        severity: Severity::Info,
        title: "zero coherence index t(x)",
    };
    /// A class with `P(Ms) = 0`: conditioning on machine success is
    /// undefined and fails at runtime with `InvalidFactor`.
    pub const MACHINE_NEVER_SUCCEEDS: CodeSpec = CodeSpec {
        code: "HM027",
        severity: Severity::Warn,
        title: "P(Ms) = 0; conditionals on machine success are undefined",
    };
    /// A model with no classes.
    pub const EMPTY_MODEL: CodeSpec = CodeSpec {
        code: "HM028",
        severity: Severity::Error,
        title: "model has no classes",
    };
    /// A profile bound to a different class universe than the model.
    pub const UNIVERSE_MISMATCH: CodeSpec = CodeSpec {
        code: "HM029",
        severity: Severity::Error,
        title: "profile universe differs from the model universe",
    };

    /// Cohort members interned over different class universes.
    pub const COHORT_UNIVERSE_MISMATCH: CodeSpec = CodeSpec {
        code: "HM030",
        severity: Severity::Error,
        title: "cohort members disagree on the class universe",
    };
    /// A cohort member weight that is non-finite or not positive.
    pub const BAD_COHORT_WEIGHT: CodeSpec = CodeSpec {
        code: "HM031",
        severity: Severity::Error,
        title: "cohort member weight is invalid",
    };
    /// A cohort with no members.
    pub const EMPTY_COHORT: CodeSpec = CodeSpec {
        code: "HM032",
        severity: Severity::Error,
        title: "cohort has no members",
    };

    /// The statically computed per-slot sensitivity (partial-derivative)
    /// bounds.
    pub const SENSITIVITY_BOUNDS: CodeSpec = CodeSpec {
        code: "HM033",
        severity: Severity::Info,
        title: "per-slot sensitivity (Birnbaum derivative) bounds",
    };
    /// Every parameter slot carries a direction certificate: the sign of
    /// its derivative interval is determined over the whole input box.
    pub const DIRECTIONS_CERTIFIED: CodeSpec = CodeSpec {
        code: "HM034",
        severity: Severity::Info,
        title: "every parameter slot carries a direction certificate",
    };
    /// A derivative interval that straddles zero: the abstract
    /// interpretation cannot certify a monotone direction for the slot.
    pub const SIGN_INDETERMINATE: CodeSpec = CodeSpec {
        code: "HM035",
        severity: Severity::Warn,
        title: "derivative interval spans zero; slot direction uncertified",
    };
    /// A slot whose derivative is certified negative where coherence
    /// expects nonnegative: improving the component *worsens* the system.
    pub const NON_COHERENT_SLOT: CodeSpec = CodeSpec {
        code: "HM036",
        severity: Severity::Warn,
        title: "slot certified anti-monotone (non-coherent)",
    };
    /// Two compared artifacts intern different class universes; no
    /// slot-paired gap bound exists.
    pub const COMPARE_UNIVERSE_MISMATCH: CodeSpec = CodeSpec {
        code: "HM037",
        severity: Severity::Error,
        title: "compared artifacts intern different class universes",
    };
    /// A certified dominance verdict from the differential comparison.
    pub const DOMINANCE_VERDICT: CodeSpec = CodeSpec {
        code: "HM038",
        severity: Severity::Info,
        title: "certified dominance verdict",
    };
    /// The reliability gap interval spans zero (or profiles disagree on
    /// its sign): neither design dominates.
    pub const GAP_INDETERMINATE: CodeSpec = CodeSpec {
        code: "HM039",
        severity: Severity::Info,
        title: "reliability gap spans zero; designs incomparable",
    };
    /// Sensitivity bounding was infeasible (exact factoring refused);
    /// derivative bounds widened to the trivial interval.
    pub const SENSITIVITY_WIDENED: CodeSpec = CodeSpec {
        code: "HM040",
        severity: Severity::Warn,
        title: "too many repeated components; sensitivity bounds widened",
    };

    /// Every declared code, in code order. Backs the DESIGN.md table and
    /// the uniqueness test.
    pub const ALL: &[CodeSpec] = &[
        STACK_UNDERFLOW,
        BAD_RESULT_ARITY,
        ZERO_ARITY_GROUP,
        BAD_THRESHOLD,
        COMPONENT_OUT_OF_RANGE,
        UNREFERENCED_COMPONENT,
        BAD_INTERVAL,
        RELIABILITY_BOUNDS,
        BOUNDS_WIDENED,
        DEAD_COMPONENT,
        COHERENT_STRUCTURE,
        NON_FINITE_PARAM,
        PARAM_OUT_OF_RANGE,
        PROFILE_SUM,
        BAD_PROFILE_WEIGHT,
        UNREACHABLE_CLASS,
        NEGATIVE_COHERENCE_INDEX,
        ZERO_COHERENCE_INDEX,
        MACHINE_NEVER_SUCCEEDS,
        EMPTY_MODEL,
        UNIVERSE_MISMATCH,
        COHORT_UNIVERSE_MISMATCH,
        BAD_COHORT_WEIGHT,
        EMPTY_COHORT,
        SENSITIVITY_BOUNDS,
        DIRECTIONS_CERTIFIED,
        SIGN_INDETERMINATE,
        NON_COHERENT_SLOT,
        COMPARE_UNIVERSE_MISMATCH,
        DOMINANCE_VERDICT,
        GAP_INDETERMINATE,
        SENSITIVITY_WIDENED,
    ];
}

/// One finding: a stable code, its severity, the pass that produced it,
/// and a specific human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable `HM0xx` identifier (from [`codes`]).
    pub code: &'static str,
    /// Severity, fixed per code.
    pub severity: Severity,
    /// The analysis pass that emitted it ("verifier", "interval",
    /// "params", "cohort").
    pub pass: &'static str,
    /// The specific finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.pass, self.message
        )
    }
}

/// An ordered collection of diagnostics from one or more passes.
///
/// Reports are pure values: analysing the same artifact twice yields
/// byte-identical renders (no clock, no RNG, no host state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Emits a finding under a declared code.
    pub fn emit(&mut self, spec: &CodeSpec, pass: &'static str, message: String) {
        self.diags.push(Diagnostic {
            code: spec.code,
            severity: spec.severity,
            pass,
            message,
        });
    }

    /// All diagnostics, in emission order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Whether the report holds no findings at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any finding is error-severity — the artifact must be
    /// refused.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// The most severe finding, if any.
    #[must_use]
    pub fn worst(&self) -> Option<&Diagnostic> {
        self.diags.iter().max_by_key(|d| d.severity)
    }

    /// The first error-severity finding, if any — the one a load path
    /// reports on the wire.
    #[must_use]
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diags.iter().find(|d| d.severity == Severity::Error)
    }

    /// Counts by severity: `(errors, warnings, infos)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diags {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warn => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// Appends all findings of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Appends all findings of `other` with `prefix` prepended to each
    /// message — used to scope per-member findings inside a cohort.
    pub fn merge_prefixed(&mut self, other: Report, prefix: &str) {
        for mut d in other.diags {
            d.message = format!("{prefix}{}", d.message);
            self.diags.push(d);
        }
    }

    /// One-line summary: `"clean"` or e.g. `"2 errors, 1 warning, 3 notes"`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let (e, w, i) = self.counts();
        if e == 0 && w == 0 && i == 0 {
            return "clean".to_owned();
        }
        let plural = |n: usize, s: &str, p: &str| {
            if n == 1 {
                format!("1 {s}")
            } else {
                format!("{n} {p}")
            }
        };
        let mut parts = Vec::new();
        if e > 0 {
            parts.push(plural(e, "error", "errors"));
        }
        if w > 0 {
            parts.push(plural(w, "warning", "warnings"));
        }
        if i > 0 {
            parts.push(plural(i, "note", "notes"));
        }
        parts.join(", ")
    }

    /// The human renderer: one line per finding plus a summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// The JSON renderer:
    /// `{"diagnostics":[{"code":…,"severity":…,"pass":…,"message":…}],
    ///   "errors":N,"warnings":N,"notes":N}`.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code);
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.label());
            out.push_str("\",\"pass\":\"");
            out.push_str(d.pass);
            out.push_str("\",\"message\":");
            write_json_string(&mut out, &d.message);
            out.push('}');
        }
        let (e, w, i) = self.counts();
        out.push_str(&format!(
            "],\"errors\":{e},\"warnings\":{w},\"notes\":{i}}}"
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        for pair in codes::ALL.windows(2) {
            assert!(pair[0].code < pair[1].code, "{:?}", pair);
        }
        for spec in codes::ALL {
            assert!(spec.code.starts_with("HM"), "{}", spec.code);
            assert_eq!(spec.code.len(), 5);
            assert!(!spec.title.is_empty());
        }
    }

    #[test]
    fn severity_orders_and_labels() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn report_counts_and_queries() {
        let mut r = Report::new();
        assert!(r.is_empty());
        assert_eq!(r.summary_line(), "clean");
        r.emit(&codes::RELIABILITY_BOUNDS, "interval", "bounds".into());
        r.emit(&codes::DEAD_COMPONENT, "interval", "dead `b`".into());
        assert!(!r.has_errors());
        r.emit(&codes::STACK_UNDERFLOW, "verifier", "op 3".into());
        assert!(r.has_errors());
        assert_eq!(r.counts(), (1, 1, 1));
        assert_eq!(r.worst().unwrap().code, "HM001");
        assert_eq!(r.first_error().unwrap().code, "HM001");
        assert_eq!(r.summary_line(), "1 error, 1 warning, 1 note");
    }

    #[test]
    fn merge_prefixed_scopes_messages() {
        let mut outer = Report::new();
        let mut inner = Report::new();
        inner.emit(&codes::EMPTY_MODEL, "params", "no classes".into());
        outer.merge_prefixed(inner, "member `alice`: ");
        assert_eq!(outer.diagnostics()[0].message, "member `alice`: no classes");
    }

    #[test]
    fn renderers_are_deterministic_and_escaped() {
        let mut r = Report::new();
        r.emit(
            &codes::BAD_PROFILE_WEIGHT,
            "params",
            "weight \"w\"\n\tis -1".into(),
        );
        assert_eq!(r.render_text(), r.clone().render_text());
        let json = r.render_json();
        assert_eq!(json, r.render_json());
        assert!(json.contains("\\\"w\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\"errors\":1"));
        let text = r.render_text();
        assert!(text.starts_with("error [HM023] params:"));
        assert!(text.ends_with("1 error\n"));
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        let mut out = String::new();
        write_json_string(&mut out, "a\u{01}b");
        assert_eq!(out, "\"a\\u0001b\"");
    }
}
