//! A minimal JSON value type with a hand-rolled parser and renderer.
//!
//! The workspace has no serialization framework, so the wire layer rolls
//! its own JSON; strings are escaped by the one shared escaper,
//! [`hmdiv_obs::export::write_json_string`]. Two properties matter for the
//! serve protocol and are guaranteed here:
//!
//! * **Objects preserve key order** ([`Json::Obj`] is a `Vec` of pairs, not
//!   a map). A demand profile arrives as a JSON object, and
//!   [`hmdiv_core::DemandProfile`] accumulates eq. (8) in *insertion*
//!   order — preserving wire order end to end is what makes server results
//!   bit-identical to direct in-process evaluation.
//! * **Numbers round-trip.** Finite `f64`s render via Rust's shortest
//!   round-trip `Display`, so `parse(render(x)) == x` bit-for-bit.
//!
//! The parser is a recursive-descent scanner over bytes with a nesting
//! depth limit (a hostile request must exhaust the depth budget, not the
//! stack) and byte-offset error reporting.

use std::fmt;

use hmdiv_obs::export::write_json_string;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The member of an object, if this is an object containing `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number that
    /// fits `u64` exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in order, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders onto `out` (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Renders a number. Finite values use Rust's shortest round-trip `Display`
/// (so re-parsing restores the exact bits); non-finite values — which the
/// protocol never produces, since probabilities live in `[0, 1]` — degrade
/// to `null` rather than emitting invalid JSON.
fn write_number(v: f64, out: &mut String) {
    use fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub detail: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.detail, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with a byte offset on any syntax violation, nesting
/// beyond the depth limit, or trailing garbage.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            detail: detail.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // `hex4` pre-increments: it expects `pos` on the
                            // `u` (or on the last digit of a previous group)
                            // and leaves it on the final digit it read.
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired escape.
                                if self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2; // onto the second `u`
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // `hex4` leaves `pos` on the last digit; the
                            // common `pos += 1` below advances past it.
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume the maximal run of unescaped bytes in one
                    // slice. A run only stops at ASCII bytes (`"`, `\`,
                    // controls), never inside a multi-byte sequence, so
                    // both ends are char boundaries and the slice is
                    // valid UTF-8 (the input arrived as a `&str`).
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads four hex digits starting after the current position; leaves
    /// `pos` on the final digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            value = (value << 4) | d;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let v: f64 = text.parse().map_err(|_| JsonError {
            detail: format!("invalid number `{text}`"),
            at: start,
        })?;
        if !v.is_finite() {
            return Err(JsonError {
                detail: format!("number `{text}` overflows f64"),
                at: start,
            });
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1.5",
            "1e-9",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap();
            let rendered = v.to_string();
            assert_eq!(parse(&rendered).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse("{\"z\":1,\"a\":2,\"m\":3}").unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2,\"m\":3}");
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for v in [0.18902, 0.1428, 1.0 / 3.0, 1e-300, 123_456_789.123_456_78] {
            let mut s = String::new();
            Json::Num(v).write(&mut s);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t control\u{1} snowman\u{2603}";
        let mut s = String::new();
        write_json_string(&mut s, original);
        assert_eq!(parse(&s).unwrap().as_str().unwrap(), original);
        // Unicode escapes parse too, including surrogate pairs.
        assert_eq!(
            parse("\"\\u0041\\ud83d\\ude00\"")
                .unwrap()
                .as_str()
                .unwrap(),
            "A\u{1F600}"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "[1] trailing",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.detail.contains("deep"), "{err}");
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
