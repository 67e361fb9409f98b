//! Deterministic fuzzing of the Datalog surface parser, the entry point
//! for untrusted program text — including the byte-level path that
//! interns ground facts straight into columns.
//!
//! A fixed-seed loop feeds `parse_program` two kinds of input: soups of
//! grammar tokens (identifiers, variables, `_`, integers up to and past
//! the `i64` range, bare `-`, quoted and unterminated strings, `:-`,
//! `not`, `!`, `%` and `--` comments, non-ASCII text) and byte mutations
//! of valid programs (truncation anywhere, including mid-fact; deletion,
//! duplication and splicing of byte ranges; single-byte overwrites). The
//! property: the parser returns `Ok` or a `DatalogParseError` whose
//! position lies inside the input, and never panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lambda_join_datalog::parse_program;
use proptest::rng::TestRng;

/// Cases that always run, whatever the host's speed.
const MIN_CASES: usize = 10_000;
/// Cases past `MIN_CASES` run only while the loop is inside its budget.
const MAX_CASES: usize = 1_000_000;
const BUDGET: Duration = Duration::from_millis(1_500);

const TOKENS: &[&str] = &[
    "edge",
    "path",
    "p",
    "q",
    "node",
    "not",
    "alice",
    "Bob",
    "X",
    "Y",
    "Z",
    "_",
    "_Y",
    "_0",
    "0",
    "1",
    "-1",
    "42",
    "-",
    "--",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "99999999999999999999999",
    "\"hello world\"",
    "\"a, b.\"",
    "\"\"",
    "\"unterminated",
    "(",
    ")",
    ",",
    ".",
    ":-",
    ":",
    "not ",
    "!",
    " ",
    "\n",
    "\t",
    "% comment\n",
    "-- comment\n",
    "%",
    "é",
    "λ",
    "日本",
    "\u{feff}",
    "\u{0}",
];

const VALID: &[&str] = &[
    "edge(0, 1). edge(1, 2). -- a chain\n\
     path(X, Y) :- edge(X, Y).\n\
     path(X, Z) :- path(X, Y), edge(Y, Z).\n",
    "% people\nparent(\"homer\", bart). parent(abe, \"homer\").\n\
     anc(X, Y) :- parent(X, Y). anc(X, Z) :- anc(X, Y), parent(Y, Z).\n",
    "node(-3). node(9223372036854775807). node(-9223372036854775808).\n\
     start(-3). reach(X) :- start(X). reach(Y) :- reach(X), edge(X, Y).\n\
     unreached(X) :- node(X), not reach(X).\n",
    "e(1, 2). e(3, 1). p(X) :- e(X, _), e(_, X). q(X) :- p(X), !e(X, X).\n",
    "t(1, \"λ and 日本\"). t(2, x). t(2, x). -- duplicate\n% trailing comment",
];

fn check(src: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_program(src)));
    match outcome {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => assert!(
            e.pos <= src.len(),
            "error position {} past the input's {} bytes ({}) for {src:?}",
            e.pos,
            src.len(),
            e.msg
        ),
        Err(_) => panic!("parse_program panicked on {src:?}"),
    }
}

fn token_soup(rng: &mut TestRng) -> String {
    let n = rng.below(24) as usize;
    (0..n)
        .map(|_| TOKENS[rng.below(TOKENS.len() as u64) as usize])
        .collect()
}

fn mutated(rng: &mut TestRng) -> String {
    let mut bytes = VALID[rng.below(VALID.len() as u64) as usize]
        .as_bytes()
        .to_vec();
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
    // Byte surgery may split a multi-byte character; the parser takes
    // `&str`, so map invalid sequences to U+FFFD (more non-ASCII input).
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn parser_never_panics_and_errors_stay_in_bounds() {
    let mut rng = TestRng::new(0x0DA7_A106);
    for src in VALID {
        parse_program(src).expect("the mutation seeds are valid programs");
    }
    let start = Instant::now();
    let mut cases = 0usize;
    while cases < MIN_CASES || (cases < MAX_CASES && start.elapsed() < BUDGET) {
        let src = if cases % 2 == 0 {
            token_soup(&mut rng)
        } else {
            mutated(&mut rng)
        };
        check(&src);
        cases += 1;
    }
    assert!(cases >= MIN_CASES);
}

#[test]
fn every_prefix_of_a_valid_program_parses_or_errs_in_bounds() {
    // Truncation at every byte (every char boundary) of every seed: each
    // cut mid-fact, mid-string, mid-comment and mid-`:-` is covered.
    for src in VALID {
        for (cut, _) in src.char_indices() {
            check(&src[..cut]);
        }
    }
}
