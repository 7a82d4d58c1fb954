//! Generative framing test for [`LineReader`]: however a byte stream is
//! split into pushes, the reader yields the same [`LineEvent`] sequence as
//! one push of the whole stream.
//!
//! The streams mix ASCII lines, multibyte UTF-8 (so splits cut
//! codepoints at every byte offset), invalid bytes, LF and CRLF endings,
//! and lines one below, at, and one above the limit, with an optional
//! unterminated tail.
// Integration tests are test code: the house `unwrap_used` ban (clippy.toml)
// exempts tests, but clippy only auto-detects `#[cfg(test)]` modules.
#![allow(clippy::unwrap_used)]

use hmdiv_serve::protocol::{LineEvent, LineReader};
use proptest::prelude::*;

const LIMIT: usize = 12;

/// Multibyte characters of every UTF-8 width (2, 3 and 4 bytes).
const MULTIBYTE: [&str; 4] = ["é", "€", "𝄞", "ß"];

/// One line's body (no terminator), drawn from a kind and a length.
fn body(kind: u8, len: usize, salt: usize) -> Vec<u8> {
    match kind {
        // ASCII of any length up to one past the limit.
        0 => (0..len).map(|i| b'a' + ((i + salt) % 26) as u8).collect(),
        // Exactly one below, at, and one above the limit.
        1 => vec![b'x'; LIMIT - 1 + len % 3],
        // Multibyte UTF-8 (possibly past the limit once encoded).
        2 => (0..len / 2 + 1)
            .flat_map(|i| MULTIBYTE[(i + salt) % MULTIBYTE.len()].bytes())
            .collect(),
        // Invalid UTF-8: a lone continuation byte, a truncated sequence,
        // or a byte that never occurs in UTF-8.
        _ => {
            let bad: &[u8] = [&[0x80][..], &[0xE2, 0x82][..], &[0xFF][..]][salt % 3];
            let mut line = b"ok".to_vec();
            line.extend_from_slice(bad);
            line.truncate(len.max(1) + 2);
            line
        }
    }
}

/// A stream of lines, each LF- or CRLF-terminated, plus an optional
/// unterminated tail.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec((0u8..4, 0usize..=LIMIT + 1, 0u8..2, 0usize..64), 0..10),
        0u8..3,
        0usize..=LIMIT + 2,
    )
        .prop_map(|(lines, tail, tail_len)| {
            let mut stream = Vec::new();
            for (kind, len, crlf, salt) in lines {
                stream.extend(body(kind, len, salt));
                if crlf == 1 {
                    stream.push(b'\r');
                }
                stream.push(b'\n');
            }
            if tail > 0 {
                stream.extend(body(tail, tail_len, tail_len));
            }
            stream
        })
}

/// Feeds `chunks` one push at a time, draining events after each.
fn frame<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<LineEvent> {
    let mut reader = LineReader::new(LIMIT);
    let mut events = Vec::new();
    for chunk in chunks {
        reader.push(chunk);
        while let Some(event) = reader.next_event() {
            events.push(event);
        }
    }
    events
}

/// Splits `stream` at the given cut points (taken modulo its length).
fn split_at(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    points.push(0);
    points.push(stream.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| stream[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_split_frames_like_one_push(
        stream in arb_stream(),
        cuts in proptest::collection::vec(0usize..1024, 0..12),
    ) {
        let whole = frame([stream.as_slice()]);
        let chunks = split_at(&stream, &cuts);
        let split = frame(chunks.iter().map(Vec::as_slice));
        prop_assert_eq!(&split, &whole);
        let trickled = frame(stream.chunks(1));
        prop_assert_eq!(&trickled, &whole);
    }
}

#[test]
fn the_generator_covers_every_event_kind() {
    // Sanity for the property above: the stream shapes it draws from do
    // produce lines, over-limit reports and invalid-UTF-8 reports.
    let mut stream = body(0, 3, 0);
    stream.extend(b"\r\n");
    stream.extend(body(1, 2, 0)); // one above the limit
    stream.push(b'\n');
    stream.extend(body(3, 1, 2));
    stream.push(b'\n');
    stream.extend(body(2, 2, 0));
    stream.push(b'\n');
    let events = frame([stream.as_slice()]);
    assert_eq!(
        events,
        [
            LineEvent::Line("abc".to_owned()),
            LineEvent::TooLong { limit: LIMIT },
            LineEvent::InvalidUtf8,
            LineEvent::Line("é€".to_owned()),
        ]
    );
}
