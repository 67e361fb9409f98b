//! Property tests for the Datalog store snapshot (`datalog::snap`):
//! round-tripping a computed fixpoint through bytes preserves every
//! relation row-for-row (checked against the same `rows()` oracle the
//! wcoj suite uses), a loaded store re-serialises to the bytes it was
//! loaded from, and adversarially corrupted snapshots — bit flips,
//! truncations, stale versions, reordered sections — are rejected with a
//! typed `SnapError`, never a panic or silent partial state.

use std::collections::BTreeSet;

use lambda_join_datalog::eval::{
    eval_ids, same_generation_program, transitive_closure_program, triangle_program,
    Strategy as DlStrategy,
};
use lambda_join_datalog::snap::SnapError;
use lambda_join_datalog::IdDatabase;
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..12, 0i64..12), 0..40)
}

/// All relations of a database as name → sorted row set, the oracle the
/// roundtrip is checked against.
fn all_rows(db: &IdDatabase) -> Vec<(String, BTreeSet<Vec<lambda_join_datalog::Const>>)> {
    let mut names = db.relation_names();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let rows: BTreeSet<_> = db.rows(&n).into_iter().collect();
            (n, rows)
        })
        .collect()
}

/// Round-trips `db` through bytes and checks the `rows()` oracle plus
/// byte-equality of the re-serialised store (the inert `store_derived`
/// flag writes the same bytes either way).
fn assert_roundtrip(db: &IdDatabase) {
    let reference = all_rows(db);
    let bytes = db.to_snapshot_bytes(false);
    assert_eq!(
        db.to_snapshot_bytes(true),
        bytes,
        "the flag changed the bytes"
    );
    let loaded = IdDatabase::from_snapshot_bytes(&bytes).expect("roundtrip");
    assert_eq!(all_rows(&loaded), reference, "rows diverged");
    // The membership tables are rebuilt on load, but nothing a store
    // serialises depends on them: re-saving gives the loaded bytes.
    assert_eq!(
        loaded.to_snapshot_bytes(false),
        bytes,
        "re-serialization diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transitive closure (the linear-recursive merge path) survives the
    /// roundtrip row-for-row.
    #[test]
    fn tc_roundtrips(edges in arb_edges()) {
        let (db, _) = eval_ids(&transitive_closure_program(&edges), DlStrategy::Seminaive);
        assert_roundtrip(&db);
    }

    /// Triangle counting (the leapfrog-triejoin path) survives the
    /// roundtrip: an evaluated store holds no tries, so neither does the
    /// snapshot, and the loaded store answers identically.
    #[test]
    fn triangles_roundtrip(edges in arb_edges()) {
        let (db, _) = eval_ids(&triangle_program(&edges), DlStrategy::Seminaive);
        assert_roundtrip(&db);
    }

    /// Same-generation (cyclic recursive rule + acyclic base rule — both
    /// plan kinds in one program) survives the roundtrip.
    #[test]
    fn sg_roundtrips(edges in prop::collection::vec((0i64..8, 0i64..8), 0..20)) {
        let (db, _) = eval_ids(&same_generation_program(&edges), DlStrategy::Seminaive);
        assert_roundtrip(&db);
    }

    /// A flipped bit anywhere in the snapshot is rejected with a typed
    /// error — no panic, no partial state.
    #[test]
    fn single_bit_flips_are_rejected(
        edges in prop::collection::vec((0i64..8, 0i64..8), 1..16),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let (db, _) = eval_ids(&transitive_closure_program(&edges), DlStrategy::Seminaive);
        let bytes = db.to_snapshot_bytes(false);
        let mut evil = bytes.clone();
        let i = pos % evil.len();
        evil[i] ^= 1 << bit;
        prop_assert!(
            IdDatabase::from_snapshot_bytes(&evil).is_err(),
            "flipped bit {bit} of byte {i} went unnoticed"
        );
    }

    /// Every strict prefix of a snapshot is rejected.
    #[test]
    fn truncations_are_rejected(
        edges in prop::collection::vec((0i64..8, 0i64..8), 1..16),
        cut in 0usize..1 << 20,
    ) {
        let (db, _) = eval_ids(&transitive_closure_program(&edges), DlStrategy::Seminaive);
        let bytes = db.to_snapshot_bytes(false);
        let n = cut % bytes.len();
        prop_assert!(
            IdDatabase::from_snapshot_bytes(&bytes[..n]).is_err(),
            "truncation to {n} of {} bytes went unnoticed",
            bytes.len()
        );
    }
}

/// A future format version is rejected with the typed `Version` error
/// (the version field is bytes 4..8, little-endian, after the magic).
#[test]
fn stale_version_is_rejected() {
    let (db, _) = eval_ids(
        &transitive_closure_program(&[(0, 1), (1, 2)]),
        DlStrategy::Seminaive,
    );
    let mut bytes = db.to_snapshot_bytes(false);
    bytes[4] += 1;
    match IdDatabase::from_snapshot_bytes(&bytes) {
        Err(SnapError::Version { found }) => assert_eq!(found, 2),
        other => panic!("expected a version error, got {other:?}"),
    }
}

/// Sections in the wrong order are rejected with the typed
/// `SectionOrder` error: a well-formed writer emitting relations before
/// constants produces a checksummed, length-correct file that the reader
/// still refuses.
#[test]
fn swapped_sections_are_rejected() {
    use lambda_join_core::snap::{tag, Writer};
    let mut w = Writer::new();
    w.section(tag::DL_RELS, &[0, 0]);
    w.section(tag::DL_CONSTS, &[0]);
    match IdDatabase::from_snapshot_bytes(&w.finish()) {
        Err(SnapError::SectionOrder { expected, found }) => {
            assert_eq!((expected, found), (tag::DL_CONSTS, tag::DL_RELS));
        }
        other => panic!("expected a section-order error, got {other:?}"),
    }
}
