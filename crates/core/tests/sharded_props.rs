//! Concurrency tests for the shared β-memo (`core::sharded`): k racing
//! threads store and probe α-variants of terms through clones of one
//! `SharedInternTable`. Each α-class ends up as exactly one entry, every
//! hit/miss verdict matches the owned `Interner::canon_id` equality, a
//! compaction (`collected`) running during the probes never yields a
//! wrong result, and a long `engine::run` leaves the lock free between
//! its slices.

mod common;
mod probe;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::rename_binders;
use lambda_join_core::builder as b;
use lambda_join_core::encodings;
use lambda_join_core::engine::{self, Budget, StopCause};
use lambda_join_core::intern::Interner;
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::TermRef;
use probe::{lookup, store};
use proptest::prelude::*;

/// Random terms rich in binders and shared names (same shape as the owned
/// arena's property suite, so the two suites exercise the same key space).
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
            2 => (name.clone(), name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x1, x2, e, body)| b::let_pair(x1, x2, e, body)),
            2 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::big_join(x, e, body)),
            1 => inner.clone().prop_map(b::frz),
        ]
    })
}

/// The same term (and α-variants of it) stored and probed from k racing
/// threads lands in exactly one entry, and every thread's canonical id
/// for it agrees.
#[test]
fn concurrent_interning_agrees_on_one_id() {
    // A term with binders, shadowing, and closed subtrees big enough to
    // hit the interior pointer cache.
    let t = b::lam(
        "x",
        b::app(
            b::lam("x", b::big_join("y", b::var("x"), b::var("y"))),
            b::set((0..24).map(b::int).collect()),
        ),
    );
    let arg = b::int(1);
    for round in 0..8 {
        let table = SharedInternTable::new();
        let ids: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let table = table.clone();
                    let arg = arg.clone();
                    // Each thread builds its own α-variant tree (distinct
                    // allocations, distinct binder names for odd k).
                    let mine = if k % 2 == 0 {
                        t.clone()
                    } else {
                        rename_binders(&t, &format!("_{round}_{k}"))
                    };
                    s.spawn(move || {
                        store(&table, &mine, &arg, 4, &b::int(k), false);
                        let id = table.interner().canon_id(&mine);
                        for _ in 0..50 {
                            std::thread::yield_now();
                            assert!(lookup(&table, &mine, &arg, 4).is_some(), "own store lost");
                            assert_eq!(table.interner().canon_id(&mine), id, "id changed");
                        }
                        id
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "threads disagree on the canonical id: {ids:?}"
        );
        assert_eq!(table.len(), 1, "one α-class, one entry");
        assert_eq!(table.stats(), (8 * 50, 0));
    }
}

/// Distinct terms keep distinct entries under concurrency: no spurious
/// sharing when different keys race into the table.
#[test]
fn concurrent_interning_keeps_distinct_terms_distinct() {
    let table = SharedInternTable::new();
    let terms: Vec<TermRef> = (0..64)
        .map(|i| b::pair(b::int(i), b::lam("x", b::app(b::var("x"), b::int(i)))))
        .collect();
    let arg = b::int(0);
    std::thread::scope(|s| {
        for k in 0..6 {
            let table = table.clone();
            let (terms, arg) = (&terms, &arg);
            s.spawn(move || {
                // Different threads visit in different orders.
                for j in 0..terms.len() {
                    let idx = (j * 7 + k * 13) % terms.len();
                    store(&table, &terms[idx], arg, 1, &b::int(idx as i64), false);
                    let (r, _) = lookup(&table, &terms[idx], arg, 1).expect("own store lost");
                    assert!(r.alpha_eq(&b::int(idx as i64)), "entry {idx} answered {r}");
                    if j % 5 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(table.len(), terms.len(), "distinct terms collided");
    let mut owned = Interner::new();
    let mut ids: Vec<_> = terms.iter().map(|t| owned.canon_id(t)).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), terms.len());
}

/// A deadline-budgeted `engine::run` releases the table's lock between
/// its slices: while one clone runs the non-converging `evens` at high
/// fuel, another thread's warm `engine::run` plus `stats()` finishes long
/// before that run's deadline.
#[test]
fn long_run_releases_the_lock_between_slices() {
    const DEADLINE: Duration = Duration::from_secs(2);
    let table = SharedInternTable::new();
    let warm = b::app(
        b::lam(
            "x",
            b::join(b::set(vec![b::var("x")]), b::set(vec![b::int(1)])),
        ),
        b::int(0),
    );
    let want = engine::run(&warm, 8, &mut Budget::new(usize::MAX), &table).to_string();
    let (_, warm_misses) = table.stats();
    std::thread::scope(|s| {
        let long = {
            let table = table.clone();
            s.spawn(move || {
                let mut budget = Budget::new(usize::MAX).with_deadline(Instant::now() + DEADLINE);
                engine::run(&encodings::evens(), 1 << 20, &mut budget, &table);
                budget.stop_cause()
            })
        };
        // The long run is under way once it has missed the memo.
        while table.stats().1 == warm_misses {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut slowest = Duration::ZERO;
        for _ in 0..50 {
            let t0 = Instant::now();
            let got = engine::run(&warm, 8, &mut Budget::new(usize::MAX), &table);
            let _ = table.stats();
            slowest = slowest.max(t0.elapsed());
            assert_eq!(got.to_string(), want);
        }
        assert!(
            !long.is_finished(),
            "the long run ended before the warm runs did"
        );
        assert!(
            slowest < DEADLINE / 4,
            "a warm run waited {slowest:?} behind a long one"
        );
        assert_eq!(long.join().unwrap(), Some(StopCause::Deadline));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Racing workers store α-variants of `t` and probe `u`: every probe
    /// hits exactly when the owned arena gives `t` and `u` one canonical
    /// id (which is exactly `alpha_eq`), and all stores share one entry.
    #[test]
    fn canon_ids_decide_alpha_equivalence_under_threads(t in arb_term(), u in arb_term()) {
        let mut owned = Interner::new();
        let same = owned.canon_id(&t) == owned.canon_id(&u);
        prop_assert_eq!(same, t.alpha_eq(&u), "t = {}, u = {}", t, u);
        let table = SharedInternTable::new();
        let arg = b::int(2);
        let verdicts: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let table = table.clone();
                    let mine = rename_binders(&t, &format!("_{k}"));
                    let (u, arg) = (&u, &arg);
                    s.spawn(move || {
                        store(&table, &mine, arg, 3, &b::int(9), false);
                        std::thread::yield_now();
                        lookup(&table, u, arg, 3).is_some()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for hit in verdicts {
            prop_assert_eq!(hit, same, "t = {}, u = {}", t, u);
        }
        prop_assert_eq!(table.len(), 1);
    }

    /// Workers store and probe random terms while a collector repeatedly
    /// compacts the table and publishes the result, as the server does.
    /// A probe may miss after a collection, but every hit answers the
    /// result stored for the probe's α-class.
    #[test]
    fn collected_during_probes_never_yields_a_wrong_result(
        terms in prop::collection::vec(arb_term(), 1..8),
    ) {
        // Each α-class's result is its owned canonical id.
        let mut owned = Interner::new();
        let expected: Vec<TermRef> = terms
            .iter()
            .map(|t| b::int(owned.canon_id(t).index() as i64))
            .collect();
        let classes = {
            let mut ids: Vec<_> = terms.iter().map(|t| owned.canon_id(t)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        let current = Mutex::new(SharedInternTable::new());
        let arg = b::int(0);
        let wrong: Vec<String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|k| {
                    let (current, terms, expected, arg) = (&current, &terms, &expected, &arg);
                    s.spawn(move || {
                        let mut wrong = Vec::new();
                        for round in 0..20 {
                            let table = current.lock().unwrap().clone();
                            table.begin_generation();
                            for (i, t) in terms.iter().enumerate() {
                                let mine = rename_binders(t, &format!("_{k}_{round}"));
                                match lookup(&table, &mine, arg, 5) {
                                    Some((r, _)) if !r.alpha_eq(&expected[i]) => {
                                        wrong.push(format!("{mine} answered {r}"));
                                    }
                                    Some(_) => {}
                                    None => store(&table, &mine, arg, 5, &expected[i], false),
                                }
                            }
                        }
                        wrong
                    })
                })
                .collect();
            let collector = s.spawn(|| {
                for keep in [1, 2, 4, 8].iter().cycle().take(24) {
                    let old = current.lock().unwrap().clone();
                    let fresh = old.collected(*keep);
                    assert!(fresh.len() <= classes, "an α-class split across entries");
                    *current.lock().unwrap() = fresh;
                    std::thread::yield_now();
                }
            });
            collector.join().unwrap();
            workers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        prop_assert!(wrong.is_empty(), "wrong results: {:?}", wrong);
        let last = current.lock().unwrap().clone();
        prop_assert!(last.len() <= classes);
    }
}
