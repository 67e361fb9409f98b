//! Property tests for generation-tracked memo compaction
//! (`SharedInternTable::collected`): after GC, the compacted table must be
//! **observationally identical** to the original for every retained entry —
//! `canon_id`-equality relations unchanged, every hot key still a hit with
//! an α-equal result and the same exhaustion flag, every evicted or
//! never-stored key a miss. The counting-allocator side of the satellite
//! lives in `tests/intern_alloc.rs` (`post_gc_warm_shared_probe_allocates_nothing`).

use lambda_join_core::builder as b;
use lambda_join_core::engine::BetaTable;
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::TermRef;
use proptest::prelude::*;

/// Random terms rich in binders and shared names (same shape as the
/// shared-memo property suite, so compaction is exercised over the same
/// key space the arena invariants are).
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
            1 => prop::collection::vec(inner.clone(), 0..3).prop_map(b::set),
            2 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::big_join(x, e, body)),
            1 => inner.clone().prop_map(b::frz),
        ]
    })
}

/// One synthetic memo entry: function, argument, fuel, result, exhausted.
type Entry = (TermRef, TermRef, usize, TermRef, bool);

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        arb_term(),
        arb_term(),
        0usize..6,
        arb_term(),
        (0u64..2).prop_map(|b| b == 1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Retained entries hit with α-equal results and unchanged exhaustion
    /// flags; evicted entries miss. Hot/cold split is driven by a random
    /// touch pattern across three generations.
    #[test]
    fn collected_preserves_hit_miss_behavior(
        entries in prop::collection::vec(arb_entry(), 1..12),
        touched in prop::collection::vec((0u64..2).prop_map(|b| b == 1), 12),
    ) {
        let mut table = SharedInternTable::new();
        table.begin_generation(); // generation 1: store everything
        for (f, a, fuel, r, ex) in &entries {
            table.store(f, a, *fuel, r, *ex);
        }
        table.begin_generation(); // generation 2: touch a random subset
        for ((f, a, fuel, _, _), touch) in entries.iter().zip(&touched) {
            if *touch {
                prop_assert!(table.lookup(f, a, *fuel).is_some());
            }
        }

        // Keep only entries touched in generation 2.
        let mut gc = table.collected(1);

        for (i, (f, a, fuel, _r, _ex)) in entries.iter().enumerate() {
            // Later stores under an α-equal key overwrite earlier ones, and
            // an overwritten entry's hotness is its *latest* stamp; compute
            // the oracle the same way the table does — last writer wins,
            // hot if any α-equal key was touched.
            let same_key = |j: usize| {
                let (fj, aj, fuelj, _, _) = &entries[j];
                fuelj == fuel && fj.alpha_eq(f) && aj.alpha_eq(a)
            };
            let last_writer = (0..entries.len()).rfind(|&j| same_key(j))
                .expect("entry i itself matches");
            let hot = (0..entries.len())
                .any(|j| same_key(j) && touched.get(j).copied().unwrap_or(false));
            let got = gc.lookup(f, a, *fuel);
            if hot {
                let (gr, gex) = got.expect("touched entry must survive collection");
                let (_, _, _, wr, wex) = &entries[last_writer];
                prop_assert!(gr.alpha_eq(wr), "result changed by compaction");
                prop_assert_eq!(gex, *wex, "exhaustion flag changed by compaction");
            } else {
                prop_assert!(got.is_none(), "cold entry {} must be evicted", i);
            }
        }
    }

    /// `canon_id`-equality is a pure function of the terms, so compaction
    /// (which re-interns retained keys into a fresh arena) must preserve
    /// every equality *and* every inequality between probed terms.
    #[test]
    fn collected_preserves_canon_id_relations(
        terms in prop::collection::vec(arb_term(), 2..10),
    ) {
        let mut table = SharedInternTable::new();
        table.begin_generation();
        // Store every term as both function and argument of some entry so
        // the collector must re-intern all of them.
        for w in terms.windows(2) {
            table.store(&w[0], &w[1], 3, &b::int(0), false);
        }
        let gc = table.collected(1);

        let old_ids: Vec<_> = terms.iter().map(|t| table.interner().canon_id(t)).collect();
        let new_ids: Vec<_> = terms.iter().map(|t| gc.interner().canon_id(t)).collect();
        for i in 0..terms.len() {
            for j in 0..terms.len() {
                prop_assert_eq!(
                    old_ids[i] == old_ids[j],
                    new_ids[i] == new_ids[j],
                    "canon_id relation between term {} and {} changed across GC",
                    i, j
                );
                // Both arenas must agree with the spec-level α-equivalence.
                prop_assert_eq!(
                    new_ids[i] == new_ids[j],
                    terms[i].alpha_eq(&terms[j]),
                    "compacted arena diverged from alpha_eq"
                );
            }
        }
    }

    /// Repeated collection is stable: collecting an already-compacted
    /// table with the same window keeps exactly the same entries.
    #[test]
    fn collection_is_idempotent(
        entries in prop::collection::vec(arb_entry(), 1..8),
    ) {
        let mut table = SharedInternTable::new();
        table.begin_generation();
        for (f, a, fuel, r, ex) in &entries {
            table.store(f, a, *fuel, r, *ex);
        }
        let once = table.collected(1);
        let twice = once.collected(1);
        prop_assert_eq!(once.len(), twice.len());
        let mut twice = twice;
        for (f, a, fuel, r, _) in &entries {
            let (gr, _) = twice.lookup(f, a, *fuel).expect("entry survives re-collection");
            // Last writer wins for α-equal keys; the surviving result must
            // match *some* entry's stored result under that key.
            let _ = r;
            prop_assert!(
                entries.iter().any(|(f2, a2, fuel2, r2, _)|
                    fuel2 == fuel && f2.alpha_eq(f) && a2.alpha_eq(a) && gr.alpha_eq(r2)),
                "re-collected result matches no stored entry"
            );
        }
    }
}
