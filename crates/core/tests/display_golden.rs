//! Golden renderings of the paper's encodings.
//!
//! `lambdav watch` and the `watch` verb of `lambdav serve` deduplicate
//! observations by their rendered text, and clients compare replies
//! byte for byte, so the renderer's output is part of the wire contract.
//! The fixtures under `tests/golden/` were captured from the renderer
//! before it was rewritten to write into a `String`; every rendering must
//! stay byte-identical to them.

use lambda_join_core::bigstep::eval_fuel;
use lambda_join_core::display::pretty;
use lambda_join_core::encodings::{self, Graph};
use lambda_join_core::engine::{self, Budget};
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::term::TermRef;

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_renders(t: &TermRef, name: &str) {
    let want = golden(name);
    let got = t.to_string();
    assert!(got == want, "{name}: rendering drifted from the fixture");
    assert_eq!(pretty(t), want, "{name}: pretty disagrees with Display");
    assert_eq!(format!("{t}"), want, "{name}: format! disagrees");
}

#[test]
fn encodings_render_byte_identically() {
    assert_renders(
        &encodings::reaches(&Graph::cycle(6), 0),
        "reaches_cycle6.txt",
    );
    assert_renders(&encodings::evens(), "evens.txt");
    assert_renders(&encodings::two_phase_commit(), "two_phase_commit.txt");
}

#[test]
fn two_phase_commit_results_render_byte_identically() {
    // The reference evaluator's result extracts canonical binder names,
    // which print as `%%N`.
    let tpc = encodings::two_phase_commit();
    assert_renders(&eval_fuel(&tpc, 16), "two_phase_commit_fuel16.txt");

    // The serving path: `engine::run` over a fresh shared memo, as
    // `lambdav serve` runs it, renders the same bytes.
    let table = SharedInternTable::new();
    let mut budget = Budget::new(usize::MAX);
    let served = engine::run(&tpc, 16, &mut budget, &table);
    assert_renders(&served, "two_phase_commit_fuel16.txt");
}
