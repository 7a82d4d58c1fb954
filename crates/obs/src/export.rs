//! Exporters: Prometheus text exposition and a JSON snapshot.
//!
//! Both render an immutable [`Snapshot`], whose `BTreeMap`s make the output
//! deterministic — golden tests pin the exact bytes. Neither pulls in a
//! serialisation dependency: the JSON writer escapes strings with
//! [`write_json_string`] (shared with the rest of the workspace) and the
//! Prometheus writer follows the text exposition format (counters and
//! gauges verbatim, histograms with cumulative `le` buckets in seconds).

use std::fmt::Write as _;

use crate::registry::{HistogramUnit, Snapshot};

/// Renders a snapshot as a JSON object:
///
/// ```json
/// {
///   "counters": {"name": 1},
///   "gauges": {"name": 1.5},
///   "histograms": {"name": {"unit": "ns", "bounds": [...], "counts": [...],
///                           "sum": 0, "count": 0, "p50": 0, "p95": 0, "p99": 0}}
/// }
/// ```
///
/// The `p50`/`p95`/`p99` members are the bucket-interpolated percentile
/// estimates ([`crate::HistogramSnapshot::quantile`]), in the histogram's
/// own unit. Non-finite gauge values serialise as `null` (JSON has no
/// NaN/Inf).
#[must_use]
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    {}: {value}", json_string(name));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {}: {}",
            json_string(name),
            json_number(*value)
        );
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {}: {{\"unit\": {}, \"bounds\": {}, \"counts\": {}, \
             \"sum\": {}, \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            json_string(name),
            json_string(h.unit.label()),
            json_u64_array(&h.bounds),
            json_u64_array(&h.counts),
            h.sum,
            h.count,
            json_number(h.p50()),
            json_number(h.p95()),
            json_number(h.p99()),
        );
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// Renders a snapshot in the Prometheus text exposition format. Metric
/// names are prefixed `hmdiv_` and sanitised to `[a-zA-Z0-9_]`; duration
/// histograms are exported in seconds with cumulative `le` buckets, count
/// histograms in their raw unit, and each histogram is followed by three
/// `_p50`/`_p95`/`_p99` gauges carrying the bucket-interpolated
/// percentile estimates.
#[must_use]
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_number(*value));
    }
    for (name, h) in &snapshot.histograms {
        // Durations follow the Prometheus convention of base-unit
        // seconds; count histograms keep their dimensionless values.
        // Dividing by 1e9 (exactly representable) keeps the rendered
        // decimals clean where multiplying by 1e-9 would not.
        let (name, divisor) = match h.unit {
            HistogramUnit::Nanos => (format!("{}_seconds", metric_name(name)), 1e9),
            HistogramUnit::Count => (metric_name(name), 1.0),
        };
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, count) in h.counts.iter().enumerate() {
            cumulative += count;
            let le = match h.bounds.get(i) {
                Some(&bound) => prom_number(bound as f64 / divisor),
                None => "+Inf".to_owned(),
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", prom_number(h.sum as f64 / divisor));
        let _ = writeln!(out, "{name}_count {}", h.count);
        for (suffix, q) in [("p50", h.p50()), ("p95", h.p95()), ("p99", h.p99())] {
            let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
            let _ = writeln!(out, "{name}_{suffix} {}", prom_number(q / divisor));
        }
    }
    out
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\\` are
/// backslash-escaped, `\n`/`\r`/`\t` take their short escapes, any other
/// control character below U+0020 becomes `\\u00xx`, and everything else
/// (non-BMP characters included) is copied verbatim.
///
/// This is the workspace's one JSON string escaper: the serve wire codec
/// and the analyzer's diagnostic renderer call it too, so every JSON
/// string the system emits is escaped the same way.
///
/// ```
/// let mut out = String::new();
/// hmdiv_obs::export::write_json_string(&mut out, "a\"b\u{1}");
/// assert_eq!(out, r#""a\"b\u0001""#);
/// ```
#[inline]
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`write_json_string`] into a fresh `String`.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// Formats an `f64` as a JSON number, or `null` when non-finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Formats an `f64` for Prometheus (which accepts `NaN`/`+Inf`/`-Inf`).
fn prom_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{v}")
    }
}

/// `[1, 2, 3]`
fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Sanitises a dotted metric name into a Prometheus identifier.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("hmdiv_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers_avoid_non_finite_literals() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn prometheus_names_are_sanitised() {
        assert_eq!(metric_name("sim.engine.cases"), "hmdiv_sim_engine_cases");
        assert_eq!(metric_name("a-b c"), "hmdiv_a_b_c");
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let json = to_json(&Snapshot::empty());
        assert_eq!(
            json,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
        assert_eq!(to_prometheus(&Snapshot::empty()), "");
    }
}
