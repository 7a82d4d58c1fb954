//! Generative round-trip of the wire codec: whatever `Json::write`
//! renders, `json::parse` reads back exactly — strings through the shared
//! `hmdiv_obs` escaper (control characters, quotes, backslashes, non-BMP
//! characters) and finite `f64`s bit for bit.
// Integration tests are test code: the house `unwrap_used` ban (clippy.toml)
// exempts tests, but clippy only auto-detects `#[cfg(test)]` modules.
#![allow(clippy::unwrap_used)]

use hmdiv_serve::{json, Json};
use proptest::prelude::*;

/// One character, weighted toward the ones the escaper must handle.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        3 => 0u32..0x20,
        2 => prop_oneof![Just(u32::from('"')), Just(u32::from('\\'))],
        3 => 0x20u32..0x7f,
        1 => 0x7fu32..0xd800,
        1 => 0xe000u32..0x1_0000,
        2 => 0x1_0000u32..0x11_0000,
    ]
    .prop_map(|code| char::from_u32(code).unwrap())
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..24).prop_map(String::from_iter)
}

/// Any finite `f64`, drawn uniformly over bit patterns.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX)
        .prop_map(f64::from_bits)
        .prop_filter("finite", |v| v.is_finite())
}

fn render(value: &Json) -> String {
    let mut out = String::new();
    value.write(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip(s in arb_string()) {
        let back = json::parse(&render(&Json::str(s.clone()))).unwrap();
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    #[test]
    fn numbers_round_trip_bit_exactly(v in arb_f64()) {
        let back = json::parse(&render(&Json::Num(v))).unwrap().as_f64().unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }
}
