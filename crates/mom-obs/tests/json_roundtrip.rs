//! The parser/emitter contract: every document the workspace emits parses
//! back to an equal tree and re-emits byte-identically; malformed input
//! produces positioned errors, never a panic.

use mom_obs::json::{parse, Json, ParseError};
use proptest::prelude::*;

/// Every committed report the sweep (and the perf harness) emits.
const COMMITTED: &[&str] = &[
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig4.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig5.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tables.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_apps.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ablations.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json"),
];

#[test]
fn committed_reports_round_trip_byte_identically() {
    for path in COMMITTED {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
        assert_eq!(
            doc.pretty(),
            text,
            "{path} must re-emit byte-identically (the replay endpoint depends on it)"
        );
    }
}

#[test]
fn truncation_at_every_byte_errors_cleanly() {
    let text = std::fs::read_to_string(COMMITTED[0]).expect("fig4 report");
    // Truncating a valid document anywhere must produce an error (a JSON
    // document is never a prefix of itself), with a sane position.
    for cut in 0..text.len().min(2048) {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let err = parse(&text[..cut]).expect_err("every prefix is incomplete");
        assert!(err.offset <= cut, "offset {} past cut {cut}", err.offset);
        assert!(err.line >= 1 && err.column >= 1);
    }
    // And from the tail, covering the deep end of the document.  A cut
    // that only strips trailing whitespace leaves a complete document, so
    // only cuts dropping real content must fail.
    for cut in text.len().saturating_sub(2048)..text.len() {
        if !text.is_char_boundary(cut) || text[cut..].trim().is_empty() {
            continue;
        }
        parse(&text[..cut]).expect_err("every content-dropping prefix is incomplete");
    }
}

#[test]
fn malformed_documents_produce_structured_errors() {
    let cases: &[(&str, &str)] = &[
        ("", "end of input"),
        ("{\"a\": 1, \"a\": 2}", "duplicate"),
        ("{\"a\" 1}", "expected ':'"),
        ("[1 2]", "','"),
        ("\"\\x41\"", "bad escape"),
        ("\"\\u12\"", "four hex digits"),
        ("\"unterminated", "unterminated"),
        ("\"tab\there\"", "control byte"),
        ("01", "leading zero"),
        ("1.", "digit after the decimal point"),
        ("1e", "exponent"),
        ("1e999", "overflows"),
        ("nul", "expected 'null'"),
        ("[1], []", "trailing"),
        ("{\"k\": }", "value was expected"),
    ];
    for (input, needle) in cases {
        let err: ParseError = parse(input).expect_err(input);
        assert!(
            err.message.contains(needle),
            "{input:?}: expected {needle:?} in {:?}",
            err.message
        );
        let rendered = err.to_string();
        assert!(
            rendered.starts_with(&format!("line {} column {}", err.line, err.column)),
            "{rendered}"
        );
    }
}

/// A deterministic tree builder driven by one seed: finite numbers that
/// survive the emitter's shortest-roundtrip printing, strings over the
/// escaped alphabet, unique object keys, bounded depth.
fn json_tree(seed: u64) -> Json {
    fn next(state: &mut u64) -> u64 {
        // xorshift64* — cheap, deterministic, good enough for shapes.
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn node(state: &mut u64, depth: usize) -> Json {
        let pick = next(state) % if depth >= 3 { 5 } else { 7 };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(next(state) & 1 == 1),
            2 => Json::Num(next(state) as i32 as f64),
            3 => Json::Num((next(state) as i32 as f64) / 8.0),
            4 => {
                const ALPHABET: &[char] = &['a', 'z', '"', '\\', '\n', '\t', '\u{1F600}', '\u{7}'];
                let len = (next(state) % 12) as usize;
                Json::Str(
                    (0..len)
                        .map(|_| ALPHABET[(next(state) as usize) % ALPHABET.len()])
                        .collect(),
                )
            }
            5 => Json::Arr(
                (0..next(state) % 4)
                    .map(|_| node(state, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..next(state) % 4)
                    .map(|i| (format!("k{i}"), node(state, depth + 1)))
                    .collect(),
            ),
        }
    }
    let mut state = seed | 1;
    node(&mut state, 0)
}

proptest! {
    #[test]
    fn emitted_trees_parse_back_equal(seed in any::<u64>()) {
        let doc = json_tree(seed);
        let text = doc.pretty();
        let parsed = parse(&text).expect("emitted documents always parse");
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.pretty(), text, "stable under re-emission");
    }

    #[test]
    fn mangled_documents_never_panic(seed in any::<u64>()) {
        // Flip one byte of a valid document; the parser must error or
        // reinterpret, never panic.
        let text = json_tree(seed).pretty();
        if text.len() > 1 {
            let mut bytes = text.clone().into_bytes();
            let at = (seed as usize) % bytes.len();
            bytes[at] = bytes[at].wrapping_add(1 + (seed >> 8) as u8 % 64);
            if let Ok(mangled) = String::from_utf8(bytes) {
                let _ = parse(&mangled);
            }
        }
    }
}
