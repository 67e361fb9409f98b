//! Property tests for the snapshot format (`core::snap`): round-tripping
//! an arena + memo through bytes preserves canonical ids exactly (so
//! `canon_id` still decides α-equivalence afterwards, against the same
//! ids the saved process handed out), serialization is deterministic
//! (byte-equal on re-save), and adversarially corrupted snapshots —
//! random bit flips, truncations — are rejected with a typed error,
//! never a panic or silent partial state.

use lambda_join_core::builder as b;
use lambda_join_core::engine::IdBetaTable;
use lambda_join_core::intern::{InternTable, Interner};
use lambda_join_core::snap::{memo_from_bytes, memo_to_bytes};
use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::TermRef;
use proptest::prelude::*;

/// Random terms rich in binders (shared names across binders on purpose,
/// so shadowing and capture structure get exercised) and free variables.
fn arb_term() -> impl Strategy<Value = TermRef> {
    let name = prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")];
    let leaf = prop_oneof![
        Just(b::bot()),
        Just(b::top()),
        Just(b::botv()),
        (0i64..4).prop_map(b::int),
        (0u64..3).prop_map(|n| b::sym(Symbol::Level(n))),
        name.clone().prop_map(b::var),
    ];
    leaf.prop_recursive(4, 24, 3, move |inner| {
        let name = prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")];
        prop_oneof![
            3 => (name.clone(), inner.clone()).prop_map(|(x, e)| b::lam(x, e)),
            2 => (inner.clone(), inner.clone()).prop_map(|(f, a)| b::app(f, a)),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::pair(a, e)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::join(a, e)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::lex(a, e)),
            1 => prop::collection::vec(inner.clone(), 0..3).prop_map(b::set),
            2 => (name.clone(), name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x1, x2, e, body)| b::let_pair(x1, x2, e, body)),
            2 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::big_join(x, e, body)),
            1 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::let_frz(x, e, body)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::add(a, e)),
            1 => inner.clone().prop_map(b::frz),
        ]
    })
}

/// A populated arena + memo: every term interned, consecutive term pairs
/// turned into memo entries (the stamp pattern mixes generations).
fn build_state(terms: &[TermRef]) -> (Interner, InternTable) {
    let mut arena = Interner::new();
    let mut table = InternTable::new();
    let ids: Vec<_> = terms.iter().map(|t| arena.canon_id(t)).collect();
    for (i, w) in ids.windows(2).enumerate() {
        if i % 2 == 0 {
            table.begin_generation();
        }
        table.store(w[0], w[1], i % 5, ids[i % ids.len()], i % 3 == 0);
    }
    (arena, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole invariant: after save/load, `canon_id` hands out the
    /// *same* ids the saved arena did, so id equality still decides
    /// α-equivalence against every persisted id — memo keys included.
    #[test]
    fn roundtrip_preserves_canon_ids(ts in prop::collection::vec(arb_term(), 2..8)) {
        let (mut arena, table) = build_state(&ts);
        let bytes = memo_to_bytes(&arena, &table);
        let (mut arena2, table2) = memo_from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(arena2.len(), arena.len());
        prop_assert_eq!(table2.len(), table.len());
        prop_assert_eq!(table2.stats(), table.stats());
        for (t, u) in ts.iter().zip(ts.iter().rev()) {
            // Ids are preserved exactly across the roundtrip...
            prop_assert_eq!(arena2.canon_id(t), arena.canon_id(t));
            // ...and still decide α-equivalence in the restored arena.
            let ids_equal = arena2.canon_id(t) == arena2.canon_id(u);
            prop_assert_eq!(ids_equal, t.alpha_eq(u), "t = {}, u = {}", t, u);
        }
        // Interning anything new must not have been needed for the checks
        // above: the restored arena already contains every saved node.
        prop_assert_eq!(arena2.len(), arena.len());
    }

    /// Serialization is a pure function of the state: saving the restored
    /// state reproduces the bytes exactly (the oracle the CI two-process
    /// gate leans on).
    #[test]
    fn reserialization_is_byte_identical(ts in prop::collection::vec(arb_term(), 2..8)) {
        let (arena, table) = build_state(&ts);
        let bytes = memo_to_bytes(&arena, &table);
        let (arena2, table2) = memo_from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(memo_to_bytes(&arena2, &table2), bytes);
    }

    /// Adversarial corruption: a single flipped bit anywhere in the
    /// snapshot is rejected with a typed error — no panic, no partial
    /// state. (Every region is guarded: magic/version by direct compare,
    /// payloads by checksum, framing by tag/length validation.)
    #[test]
    fn single_bit_flips_are_rejected(
        ts in prop::collection::vec(arb_term(), 2..6),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let (arena, table) = build_state(&ts);
        let bytes = memo_to_bytes(&arena, &table);
        let mut evil = bytes.clone();
        let i = pos % evil.len();
        evil[i] ^= 1 << bit;
        prop_assert!(
            memo_from_bytes(&evil).is_err(),
            "flipped bit {bit} of byte {i} went unnoticed"
        );
    }

    /// Every strict prefix of a snapshot is rejected (truncation at any
    /// byte boundary), again with a typed error rather than a panic.
    #[test]
    fn truncations_are_rejected(
        ts in prop::collection::vec(arb_term(), 2..6),
        cut in 0usize..1 << 20,
    ) {
        let (arena, table) = build_state(&ts);
        let bytes = memo_to_bytes(&arena, &table);
        let n = cut % bytes.len();
        prop_assert!(
            memo_from_bytes(&bytes[..n]).is_err(),
            "truncation to {n} of {} bytes went unnoticed",
            bytes.len()
        );
    }
}

/// A shared-memo checkpoint written by `snap::save_shared` before the
/// shared memo moved onto the owned arena (`tests/golden/shared_memo_v1.snap`:
/// three entries over generations 1–3, one hit, one miss) still loads,
/// answers the same α-variant probes, restores its counters, and
/// re-serialises to the same bytes.
#[test]
fn shared_checkpoint_from_the_sharded_arena_still_loads() {
    use lambda_join_core::engine::BetaTable;
    use lambda_join_core::snap::{load_shared, shared_to_bytes};

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/shared_memo_v1.snap");
    let mut table = load_shared(&path).expect("golden checkpoint loads");
    assert_eq!(table.stats(), (1, 1));
    assert_eq!(table.generation(), 3);
    assert_eq!(table.len(), 3);
    assert_eq!(
        shared_to_bytes(&table, u64::MAX),
        std::fs::read(&path).unwrap(),
        "the memo rows re-encode byte-identically"
    );

    let join_one = b::lam("v", b::join(b::var("v"), b::int(1)));
    let (r, exhausted) = table
        .lookup(&join_one, &b::int(10), 8)
        .expect("α-variant hits");
    assert!(r.alpha_eq(&b::set(vec![b::int(10), b::int(1)])), "{r}");
    assert!(!exhausted);
    let dup = b::lam("w", b::pair(b::var("w"), b::var("w")));
    let (r, exhausted) = table.lookup(&dup, &b::int(3), 4).expect("α-variant hits");
    assert!(r.alpha_eq(&b::pair(b::int(3), b::int(3))), "{r}");
    assert!(exhausted);
    assert!(
        table.lookup(&join_one, &b::int(10), 9).is_none(),
        "fuel is part of the key"
    );
    assert_eq!(table.stats(), (3, 2));
}
