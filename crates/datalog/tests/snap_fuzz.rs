//! Deterministic fuzzing of the Datalog snapshot decoder, the entry point
//! for untrusted store bytes.
//!
//! Bit flips and truncations of a whole file mostly die on a section
//! checksum (`snap_props` covers those). This suite goes past the
//! checksums: fixed-seed loops take the constants or the relations
//! payload of real evaluated stores, mutate it (bit flips, byte
//! overwrites, truncation, deletion, duplication and splicing of byte
//! ranges, inserted varints up to `u64::MAX`; for constants also a copy
//! of one whole entry inserted at another entry boundary, with the count
//! raised to match) and re-wrap both payloads through `snap::Writer`, so
//! every section checksum is valid and the decoders themselves must
//! decide. The property: `from_bytes` returns a typed
//! `SnapError`, or `Ok` with a store whose `rows`, `fact_count`,
//! `contains`, `to_database` and re-serialisation all run without a
//! panic and agree — every row it holds is found by `contains`, each
//! predicate's `fact_count` equals its distinct tuples in `to_database`,
//! and the re-serialised bytes load back to the same bytes. A repeated
//! constant must always be rejected. Relations
//! sections under the retired tags 17 and 18 must fail with
//! `SectionOrder`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lambda_join_core::snap::{put_v64, tag, Cur, Reader, Writer};
use lambda_join_datalog::ast::cst;
use lambda_join_datalog::eval::{eval_ids, Strategy};
use lambda_join_datalog::snap::SnapError;
use lambda_join_datalog::{parse_program, Atom, Const, IdDatabase, Program};
use proptest::rng::TestRng;

/// Cases that always run, whatever the host's speed.
const MIN_CASES: usize = 5_000;
/// Cases past `MIN_CASES` run only while the loop is inside its budget.
const MAX_CASES: usize = 1_000_000;
const BUDGET: Duration = Duration::from_millis(1_500);

/// Seed programs: recursion, strings, negation, and several arities of
/// one name ([`seeds`] adds zero-arity relations, which the surface
/// syntax cannot write).
const PROGRAMS: &[&str] = &[
    "edge(0, 1). edge(1, 2). edge(2, 3). edge(3, 1). \
     path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).",
    "par(0, 1). par(0, 2). par(1, 3). par(2, 4). \
     sg(X, Y) :- par(P, X), par(P, Y). sg(X, Y) :- par(P, X), sg(P, Q), par(Q, Y).",
    "node(0). node(1). node(2). edge(0, 1). start(0). \
     reach(X) :- start(X). reach(Y) :- reach(X), edge(X, Y). \
     unreached(X) :- node(X), not reach(X).",
    "p(1). p(1, \"λ\"). p(2, x). q(X) :- p(X, _).",
];

/// The two payloads of a Datalog snapshot: constants, then relations.
fn payloads(bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut r = Reader::new(bytes).expect("a written snapshot");
    let mut consts = r.section(tag::DL_CONSTS).expect("constants section");
    let consts = consts.bytes(consts.remaining()).expect("payload").to_vec();
    let mut rels = r.section(tag::DL_RELS).expect("relations section");
    let rels = rels.bytes(rels.remaining()).expect("payload").to_vec();
    (consts, rels)
}

fn wrap(consts: &[u8], rels_tag: u16, rels: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.section(tag::DL_CONSTS, consts);
    w.section(rels_tag, rels);
    w.finish()
}

fn mutate(rng: &mut TestRng, p: &mut Vec<u8>) {
    for _ in 0..=rng.below(3) {
        let at = rng.below(p.len() as u64 + 1) as usize;
        match rng.below(7) {
            0 => p.truncate(at),
            1 => {
                let end = (at + 1 + rng.below(8) as usize).min(p.len());
                p.drain(at.min(end)..end);
            }
            2 => {
                let end = (at + rng.below(16) as usize).min(p.len());
                let copy = p[at.min(end)..end].to_vec();
                let to = rng.below(p.len() as u64 + 1) as usize;
                p.splice(to..to, copy);
            }
            3 => {
                // A varint of any magnitude: small counts, the edges of
                // the u32 and usize ranges, and everything between.
                let v = match rng.below(4) {
                    0 => rng.below(16),
                    1 => u64::from(u32::MAX) - rng.below(2),
                    2 => u64::MAX - rng.below(2),
                    _ => rng.next_u64() >> rng.below(64),
                };
                let mut enc = Vec::new();
                put_v64(&mut enc, v);
                if rng.below(2) == 0 && at < p.len() {
                    let end = (at + enc.len()).min(p.len());
                    p.splice(at..end, enc);
                } else {
                    p.splice(at..at, enc);
                }
            }
            4 => {
                if at < p.len() {
                    p[at] ^= 1 << rng.below(8);
                }
            }
            5 => {
                if at < p.len() {
                    p[at] = [0, 1, 0x7f, 0x80, 0xff][rng.below(5) as usize];
                }
            }
            _ => {
                if at < p.len() {
                    p[at] = rng.below(256) as u8;
                }
            }
        }
    }
}

/// The structure-aware constants mutation: parses the payload into its
/// count and entries, copies one entry to another entry boundary, and
/// re-encodes the count one higher — a well-formed table with one
/// constant twice.
fn duplicate_entry(rng: &mut TestRng, p: &[u8]) -> Vec<u8> {
    let mut cur = Cur::new(p);
    let n = cur.count(1).expect("a written constants payload");
    let mut bounds = vec![p.len() - cur.remaining()];
    for _ in 0..n {
        match cur.u8().expect("variant") {
            0 => drop(cur.zig().expect("int")),
            _ => drop(cur.str_().expect("string")),
        }
        bounds.push(p.len() - cur.remaining());
    }
    let from = rng.below(n as u64) as usize;
    let entry = &p[bounds[from]..bounds[from + 1]];
    let at = bounds[rng.below(n as u64 + 1) as usize];
    let mut out = Vec::new();
    put_v64(&mut out, n as u64 + 1);
    out.extend_from_slice(&p[bounds[0]..at]);
    out.extend_from_slice(entry);
    out.extend_from_slice(&p[at..]);
    out
}

/// Drives every query of a loaded store and its re-serialisation.
fn exercise(db: &IdDatabase) {
    let mut absent = vec![Const::Int(-1)];
    let tuples = db.to_database();
    for name in db.relation_names() {
        let rows = db.rows(&name);
        assert_eq!(db.fact_count(&name), rows.len());
        assert_eq!(
            db.fact_count(&name),
            tuples.get(&name).map_or(0, |set| set.len()),
            "{name}: a row is counted twice"
        );
        for row in rows.iter().take(4) {
            assert!(
                db.contains(&name, row),
                "{name}{row:?}: a present row is missed"
            );
        }
        let _ = db.contains(&name, &absent);
        absent.push(Const::Int(-2));
    }
    let _ = db.total_facts();
    let again = db.to_snapshot_bytes(false);
    let back = IdDatabase::from_snapshot_bytes(&again)
        .unwrap_or_else(|e| panic!("re-serialised store fails to load: {e}"));
    assert_eq!(
        back.to_snapshot_bytes(false),
        again,
        "re-serialisation is not a fixpoint"
    );
}

fn check(bytes: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(db) = IdDatabase::from_snapshot_bytes(bytes) {
            exercise(&db);
        }
    }));
    assert!(outcome.is_ok(), "panic on {what}: {bytes:?}");
}

fn seeds() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut programs: Vec<Program> = PROGRAMS
        .iter()
        .map(|src| parse_program(src).expect("seed parses"))
        .collect();
    let mut p = parse_program("q(1). q(2).").expect("seed parses");
    p.fact(Atom::new("ok", vec![]));
    p.rule(
        Atom::new("done", vec![]),
        vec![Atom::new("ok", vec![]), Atom::new("q", vec![cst(1)])],
    );
    programs.push(p);
    programs
        .iter()
        .map(|p| payloads(&eval_ids(p, Strategy::Seminaive).0.to_snapshot_bytes(false)))
        .collect()
}

#[test]
fn checksummed_mutations_of_relations_payloads_never_panic() {
    let seeds = seeds();
    for (consts, rels) in &seeds {
        let db = IdDatabase::from_snapshot_bytes(&wrap(consts, tag::DL_RELS, rels))
            .expect("unmutated seeds load");
        exercise(&db);
    }
    let mut rng = TestRng::new(0x5EA1_F022);
    let start = Instant::now();
    let mut cases = 0usize;
    while cases < MIN_CASES || (cases < MAX_CASES && start.elapsed() < BUDGET) {
        let (consts, rels) = &seeds[rng.below(seeds.len() as u64) as usize];
        let mut p = rels.clone();
        mutate(&mut rng, &mut p);
        check(&wrap(consts, tag::DL_RELS, &p), &format!("case {cases}"));
        cases += 1;
    }
    assert!(cases >= MIN_CASES);
}

#[test]
fn checksummed_mutations_of_constants_payloads_never_panic() {
    let mut rng = TestRng::new(0xC025_7A27);
    let seeds = seeds();
    let start = Instant::now();
    let mut cases = 0usize;
    while cases < MIN_CASES || (cases < MAX_CASES && start.elapsed() < BUDGET) {
        let (consts, rels) = &seeds[rng.below(seeds.len() as u64) as usize];
        if rng.below(4) == 0 {
            let bytes = wrap(&duplicate_entry(&mut rng, consts), tag::DL_RELS, rels);
            assert!(
                matches!(
                    IdDatabase::from_snapshot_bytes(&bytes),
                    Err(SnapError::Malformed(_))
                ),
                "case {cases}: a repeated constant loads"
            );
        } else {
            let mut p = consts.clone();
            mutate(&mut rng, &mut p);
            check(&wrap(&p, tag::DL_RELS, rels), &format!("case {cases}"));
        }
        cases += 1;
    }
    assert!(cases >= MIN_CASES);
}

#[test]
fn every_prefix_of_a_relations_payload_is_rejected_or_loads() {
    for (i, (consts, rels)) in seeds().iter().enumerate() {
        for cut in 0..rels.len() {
            let bytes = wrap(consts, tag::DL_RELS, &rels[..cut]);
            check(&bytes, &format!("seed {i} cut at {cut}"));
            assert!(
                IdDatabase::from_snapshot_bytes(&bytes).is_err(),
                "seed {i}: a payload cut at byte {cut} loads"
            );
        }
    }
}

#[test]
fn relations_under_the_retired_tag_fail_with_section_order() {
    for (consts, rels) in seeds() {
        for old in [17, 18] {
            match IdDatabase::from_snapshot_bytes(&wrap(&consts, old, &rels)) {
                Err(SnapError::SectionOrder { expected, found }) => {
                    assert_eq!((expected, found), (tag::DL_RELS, old));
                }
                other => panic!("tag {old} must fail with SectionOrder, got {other:?}"),
            }
        }
    }
}
