//! Deterministic fuzzing of the wire protocol's two parsers: the server's
//! `parse_request`, which reads untrusted request lines, and the client's
//! `FlatReply::parse`, which reads every reply line.
//!
//! A fixed-seed loop feeds `parse_request` two kinds of input: soups of
//! request tokens (verbs, well- and ill-formed `key=value` options,
//! numbers past `u64`, quoted programs with valid, truncated and malformed
//! escapes, stray quotes and backslashes, control bytes, non-ASCII text)
//! and byte mutations of valid `eval`, `watch` and `ping` lines
//! (truncation anywhere, deletion, duplication and splicing of byte
//! ranges, single-byte overwrites). `FlatReply::parse` gets the same
//! mutations of reply lines built with `Obj`, one of them the §4
//! two-phase commit's 24 KB `fuel_exhausted` reply. The property: each
//! parser returns `Ok` or its typed error, and never panics; a request
//! error carries the `malformed` code and a message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lambda_join_core::display::pretty;
use lambda_join_core::encodings;
use lambda_join_runtime::server::protocol::{
    json_escape, parse_request, ErrorCode, FlatReply, Obj,
};
use lambda_join_runtime::MemoEval;
use proptest::rng::TestRng;

/// Cases that always run, whatever the host's speed.
const MIN_CASES: usize = 10_000;
/// Cases past `MIN_CASES` run only while the loop is inside its budget.
const MAX_CASES: usize = 1_000_000;
const BUDGET: Duration = Duration::from_millis(1_500);

const TOKENS: &[&str] = &[
    "eval",
    "watch",
    "ping",
    "stats",
    "quit",
    "shutdown",
    "explode",
    "fuel=40",
    "fuel=",
    "fuel=-1",
    "fuel=abc",
    "fuel=18446744073709551615",
    "fuel=18446744073709551616",
    "deadline_ms=500",
    "quota=1000",
    "betas=3",
    "step=4",
    "feul=40",
    "=",
    "fuel",
    " ",
    "\t",
    "\"1 \\\\/ {2}\"",
    "\"for x in {1, 2} . {x + 10}\"",
    "\"\"",
    "\"unterminated",
    "\"",
    "\\",
    "\\\"",
    "\\\\",
    "\\n",
    "\\u0041",
    "\\u12",
    "\\u+041",
    "\\ud800",
    "\\uZZZZ",
    "\\é",
    "\\x",
    "\u{0}",
    "\u{1f}",
    "\n",
    "\r",
    "é",
    "λ∨",
    "日本",
    "🦀",
    "\u{feff}",
    "{",
    "}",
    ":",
    ",",
];

/// Valid request lines, the seeds of the request mutations.
fn valid_requests() -> Vec<String> {
    let quote = |src: &str| format!("\"{}\"", json_escape(src));
    vec![
        format!(
            "eval fuel=40 deadline_ms=500 {}",
            quote("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()")
        ),
        format!(
            "watch fuel=24 step=4 {}",
            quote("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()")
        ),
        format!(
            "eval fuel=16 quota=100000 betas=9 {}",
            quote("\"accepted\" \\/ {\"λ∨\"}\n\t\u{1}")
        ),
        "ping".to_string(),
        "stats".to_string(),
    ]
}

/// Valid reply lines, the seeds of the reply mutations: one of each
/// kind, and the 2PC reply at fuel 16 as the server builds it.
fn valid_replies() -> Vec<String> {
    let mut ok = Obj::kind("ok");
    ok.push_str("result", "{11, 12}")
        .push_num("fuel", 40)
        .push_num("wall_us", 3);
    let mut err = Obj::kind("err");
    err.push_str("code", "overloaded")
        .push_str("msg", "λ∨ says \"try later\"\n")
        .push_num("retry_after_ms", 75);
    let mut stats = Obj::kind("stats");
    stats
        .push_num("requests", 12)
        .push_bool("draining", false)
        .push_str("note", "\\/ \u{1f} 🦀");
    let obs = pretty(&MemoEval::new().eval_fuel(&encodings::two_phase_commit(), 16));
    let mut tpc = Obj::kind("err");
    tpc.push_str("code", ErrorCode::FuelExhausted.as_str())
        .push_str("msg", "fuel ran out; result is the partial observation")
        .push_escaped("result", &json_escape(&obs))
        .push_num("fuel", 16);
    vec![
        ok.into_line(),
        err.into_line(),
        stats.into_line(),
        Obj::kind("pong").into_line(),
        tpc.into_line(),
    ]
}

fn check_request(line: &str) {
    match catch_unwind(AssertUnwindSafe(|| parse_request(line))) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => assert!(
            e.code == ErrorCode::Malformed && !e.msg.is_empty(),
            "untyped request error {e:?} for {line:?}"
        ),
        Err(_) => panic!("parse_request panicked on {line:?}"),
    }
}

fn check_reply(line: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| FlatReply::parse(line)));
    assert!(outcome.is_ok(), "FlatReply::parse panicked on {line:?}");
}

fn token_soup(rng: &mut TestRng) -> String {
    let n = rng.below(16) as usize;
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
        if rng.below(2) == 0 {
            out.push(' ');
        }
    }
    out
}

fn mutated(rng: &mut TestRng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let len = bytes.len() as u64;
        let at = rng.below(len + 1) as usize;
        match rng.below(5) {
            0 => bytes.truncate(at),
            1 => {
                let end = (at + rng.below(8) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let end = (at + rng.below(16) as usize).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                let to = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(to..to, copy);
            }
            3 => {
                let tok = TOKENS[rng.below(TOKENS.len() as u64) as usize].as_bytes();
                bytes.splice(at..at, tok.iter().copied());
            }
            _ => {
                if at < bytes.len() {
                    bytes[at] = rng.below(256) as u8;
                }
            }
        }
    }
    // Byte surgery may split a multi-byte character; both parsers take
    // `&str`, so map invalid sequences to U+FFFD (more non-ASCII input).
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn wire_parsers_never_panic_and_errors_are_typed() {
    let requests = valid_requests();
    let replies = valid_replies();
    for line in &requests {
        parse_request(line).expect("the request seeds are valid requests");
    }
    for line in &replies {
        FlatReply::parse(line).expect("the reply seeds are valid replies");
    }
    let mut rng = TestRng::new(0x0057_1BE5);
    let start = Instant::now();
    let mut cases = 0usize;
    while cases < MIN_CASES || (cases < MAX_CASES && start.elapsed() < BUDGET) {
        match cases % 3 {
            0 => check_request(&token_soup(&mut rng)),
            1 => {
                let seed = &requests[rng.below(requests.len() as u64) as usize];
                check_request(&mutated(&mut rng, seed));
            }
            _ => {
                let seed = &replies[rng.below(replies.len() as u64) as usize];
                check_reply(&mutated(&mut rng, seed));
            }
        }
        cases += 1;
    }
    assert!(cases >= MIN_CASES);
}

#[test]
fn every_prefix_of_a_valid_line_parses_or_errs() {
    // Truncation at every char boundary of every short seed: each cut
    // mid-verb, mid-option, mid-escape and mid-field is covered.
    for line in valid_requests() {
        for (cut, _) in line.char_indices() {
            check_request(&line[..cut]);
        }
    }
    for line in valid_replies().iter().filter(|l| l.len() < 4096) {
        for (cut, _) in line.char_indices() {
            check_reply(&line[..cut]);
        }
    }
}
