//! Oracle tests for the wire protocol's fast paths.
//!
//! `json_escape` copies unescaped byte runs whole and `Obj` writes fields
//! straight into its buffer. The char-by-char escaper below is the
//! encoder they replaced; both must produce the same bytes, and every
//! escaped string must decode back to itself through `json_unquote`.
//!
//! `json_unquote` scans for the bytes that end a run and copies the runs
//! between them whole. The char-by-char decoder below is the decoder it
//! replaced; on well-formed, truncated and malformed input alike both
//! must return the same result, error message included.

use lambda_join_runtime::server::protocol::{json_escape, json_unquote, FlatReply, Obj};
use proptest::prelude::*;

/// The reference escaper: one `char` at a time, `format!` for control
/// characters.
fn oracle_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The reference decoder: one `char` at a time into a `String` that
/// starts empty.
fn oracle_unquote(s: &str) -> Result<(String, &str), String> {
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| "expected opening quote".to_string())?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + h.to_digit(16).ok_or("bad hex in \\u escape")?;
                    }
                    let c = char::from_u32(code).ok_or("\\u escape is not a scalar value")?;
                    out.push(c);
                }
                Some((_, other)) => return Err(format!("unknown escape \\{other}")),
                None => return Err("truncated escape".into()),
            },
            c if (c as u32) < 0x20 => return Err("raw control character in string".into()),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn assert_decodes_like_oracle(input: &str) {
    assert_eq!(
        json_unquote(input),
        oracle_unquote(input),
        "decoding {input:?}"
    );
}

fn assert_escapes_like_oracle(s: &str) {
    let escaped = json_escape(s);
    assert_eq!(escaped, oracle_escape(s), "escaping {s:?}");
    let quoted = format!("\"{escaped}\"");
    let (back, rest) = json_unquote(&quoted).expect("escaped text decodes");
    assert_eq!(back, s);
    assert!(rest.is_empty());
}

/// Characters drawn from every class the escaper treats differently:
/// control characters, the two quoted ASCII characters, the rest of
/// ASCII, and multi-byte UTF-8 of two, three and four bytes.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        3 => '\u{0}'..'\u{20}',
        2 => prop_oneof![Just('"'), Just('\\')],
        4 => '\u{20}'..'\u{80}',
        1 => '\u{80}'..'\u{800}',
        1 => '\u{800}'..'\u{10000}',
        1 => '\u{10000}'..char::MAX,
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..64).prop_map(|cs| cs.into_iter().collect())
}

/// Escapes and near-escapes the decoder must treat exactly as the
/// oracle does: every valid escape; `\u` with short, signed, spaced,
/// non-hex and multi-byte digits; surrogate codes; unknown escapes,
/// including a `\` before a multi-byte character; escapes next to
/// multi-byte text; a lone `\`, raw quotes and raw control bytes.
const FRAGMENTS: &[&str] = &[
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0041",
    "\\u00e9",
    "\\u03BB",
    "\\uffff",
    "\\u001f",
    "\\u",
    "\\u0",
    "\\u12",
    "\\u123",
    "\\u12\"",
    "\\u+041",
    "\\u-041",
    "\\u 041",
    "\\uZZZZ",
    "\\u00é9",
    "\\uλ",
    "\\ud800",
    "\\uDBFF",
    "\\udc00",
    "\\uDFFF",
    "\\x",
    "\\U0041",
    "\\0",
    "\\é",
    "\\λ",
    "\\🦀",
    "é\\\"",
    "\\\"λ",
    "λ\\n日本",
    "🦀\\\\🦀",
    "\\",
    "\"",
    "\u{0}",
    "\u{1f}",
    "\n",
    "\u{7f}",
];

/// One piece of a decoder input: an escaped character, a raw one (which
/// may be a quote, a backslash or a control byte), or a fragment.
fn any_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => any_char().prop_map(|c| oracle_escape(&c.to_string())),
        1 => any_char().prop_map(String::from),
        2 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
    ]
}

/// The byte offset of char boundary number `pick` (modulo their count,
/// the end of `s` included).
fn boundary(s: &str, pick: usize) -> usize {
    let mut cuts: Vec<usize> = s.char_indices().map(|(i, _)| i).collect();
    cuts.push(s.len());
    cuts[pick % cuts.len()]
}

/// Inputs for `json_unquote`: escaped strings closed and followed by more
/// of the line, the same strings truncated or with a raw control byte
/// spliced in, soups of pieces with and without a closing quote, and
/// input with no opening quote.
fn decoder_input() -> impl Strategy<Value = String> {
    let quoted = || any_string().prop_map(|s| format!("\"{}\",\"k\":1}}", oracle_escape(&s)));
    prop_oneof![
        2 => quoted(),
        2 => (quoted(), 0usize..256).prop_map(|(q, cut)| q[..boundary(&q, cut)].to_string()),
        2 => (quoted(), 1usize..256, '\u{0}'..'\u{20}').prop_map(|(mut q, at, c)| {
            q.insert(boundary(&q, at).max(1), c);
            q
        }),
        4 => (prop::collection::vec(any_piece(), 0..24), 0u8..3).prop_map(|(pieces, close)| {
            let body: String = pieces.concat();
            match close {
                0 => format!("\"{body}"),
                1 => format!("\"{body}\" tail"),
                _ => format!("\"{body}\""),
            }
        }),
        1 => any_piece(),
    ]
}

#[test]
fn every_control_character_escapes_like_the_oracle() {
    for b in (0u8..0x20).chain([0x7f]) {
        let c = char::from(b);
        assert_escapes_like_oracle(&c.to_string());
        assert_escapes_like_oracle(&format!("a{c}λ{c}{c}∨"));
    }
}

#[test]
fn every_fragment_decodes_like_the_oracle() {
    // `u32::from_str_radix` would take `\u+041` as 0x41; the oracle
    // rejects the `+` as a bad hex digit, and so must the decoder.
    assert_eq!(
        json_unquote("\"\\u+041\""),
        Err("bad hex in \\u escape".to_string())
    );
    for f in FRAGMENTS {
        for input in [
            format!("\"{f}"),
            format!("\"{f}\""),
            format!("\"{f}\" rest"),
            format!("\"λ{f}日本\""),
            format!("\"{f}{f}\""),
            format!("\"0123456789abcdef{f}0123456789abcdef\""),
        ] {
            assert_decodes_like_oracle(&input);
        }
    }
}

#[test]
fn strings_needing_no_escape_are_copied_whole() {
    for s in ["", "plain", "unicode ⊥ ⋁ λ∨ 🦀", "{1, 2, 3}"] {
        assert_eq!(json_escape(s), s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_escape_matches_the_oracle_and_round_trips(s in any_string()) {
        assert_escapes_like_oracle(&s);
    }

    // `FlatReply` reads numbers as `i64`, so `n` stays below `i64::MAX`.
    #[test]
    fn obj_fields_round_trip_through_flat_reply(k in any_string(), v in any_string(), n in 0u64..i64::MAX as u64) {
        let mut o = Obj::kind("ok");
        o.push_str(&k, &v).push_num("n", n).push_bool("b", n % 2 == 0);
        let finished = o.finish();
        prop_assert_eq!(
            &finished,
            &format!(
                "{{\"kind\":\"ok\",\"{}\":\"{}\",\"n\":{n},\"b\":{}}}",
                oracle_escape(&k),
                oracle_escape(&v),
                n % 2 == 0
            )
        );
        let line = o.into_line();
        prop_assert_eq!(line.strip_suffix('\n'), Some(finished.as_str()));
        let r = FlatReply::parse(&line).expect("the encoder writes flat JSON");
        prop_assert_eq!(r.kind(), Some("ok"));
        prop_assert_eq!(r.num_of("n"), Some(n as i64));
        if k != "kind" && k != "n" && k != "b" {
            prop_assert_eq!(r.str_of(&k), Some(v.as_str()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn json_unquote_matches_the_oracle(input in decoder_input()) {
        assert_decodes_like_oracle(&input);
    }
}
