//! Oracle tests for the reply encoder's fast paths.
//!
//! `json_escape` copies unescaped byte runs whole and `Obj` writes fields
//! straight into its buffer. The char-by-char escaper below is the
//! encoder they replaced; both must produce the same bytes, and every
//! escaped string must decode back to itself through `json_unquote`.

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

#[test]
fn every_control_character_escapes_like_the_oracle() {
    for b in (0u8..0x20).chain([0x7f]) {
        let c = char::from(b);
        assert_escapes_like_oracle(&c.to_string());
        assert_escapes_like_oracle(&format!("a{c}λ{c}{c}∨"));
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
