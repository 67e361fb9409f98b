//! Property tests for the hash-consing arena (`core::intern`): canonical
//! ids decide α-equivalence, interned metadata matches the term-layer
//! implementations, and deep terms intern (and the arena tears down) on a
//! 512 KiB thread.

mod common;

use common::rename_binders;
use lambda_join_core::builder as b;
use lambda_join_core::engine::{self, Budget, NoIdTable};
use lambda_join_core::intern::{InternTable, Interner};
use lambda_join_core::snap::{memo_from_bytes, memo_to_bytes};
use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::TermRef;
use proptest::prelude::*;

/// Random terms rich in binders (shared names across binders on purpose, so
/// shadowing and capture structure get exercised) and free variables.
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
            1 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::lex_bind(x, e, body)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::add(a, e)),
            1 => inner.clone().prop_map(b::frz),
        ]
    })
}

proptest! {
    /// The tentpole correctness spec: canonical interned ids coincide
    /// exactly when the terms are α-equivalent.
    #[test]
    fn canon_ids_decide_alpha_equivalence(t in arb_term(), u in arb_term()) {
        let mut arena = Interner::new();
        let ids_equal = arena.canon_id(&t) == arena.canon_id(&u);
        prop_assert_eq!(ids_equal, t.alpha_eq(&u), "t = {}, u = {}", t, u);
    }

    /// Binder renaming preserves meaning, canonical ids of renamed
    /// α-variants decide α-equivalence exactly as `Term::alpha_eq` does,
    /// and a renamed variant keeps the original's canonical id.
    #[test]
    fn canon_is_alpha_preserving_and_consistent(t in arb_term(), u in arb_term()) {
        let mut arena = Interner::new();
        let (rt, ru) = (rename_binders(&t, "_t"), rename_binders(&u, "_u"));
        prop_assert!(rt.alpha_eq(&t), "renaming changed meaning: {} vs {}", t, rt);
        let renamed = arena.canon_id(&rt) == arena.canon_id(&ru);
        prop_assert_eq!(renamed, t.alpha_eq(&u), "t = {}, u = {}", t, u);
        let fused = arena.canon_id(&t) == arena.canon_id(&u);
        prop_assert_eq!(fused, t.alpha_eq(&u));
        prop_assert_eq!(arena.canon_id(&rt), arena.canon_id(&t));
    }

    /// Interned metadata agrees with the iterative term-layer walks
    /// (bound occurrences are de Bruijn indices, which the binders above
    /// them shift away, so the free variables are exactly the term's).
    #[test]
    fn metadata_matches_term_layer(t in arb_term()) {
        let mut arena = Interner::new();
        let id = arena.canon_id(&t);
        let meta = arena.meta(id).clone();
        prop_assert_eq!(meta.size, t.size());
        prop_assert_eq!(meta.is_value, t.is_value());
        let mut fv = t.free_vars();
        fv.sort();
        prop_assert_eq!(meta.free_vars.to_vec(), fv);
        prop_assert_eq!(meta.is_closed(), t.is_closed());
    }

    /// The metadata also describes the id's canonical representative:
    /// the tree [`Interner::extract`] rebuilds has canonical binder names
    /// in place of the source's, and the same size, valueness and free
    /// variables.
    #[test]
    fn canon_metadata_matches_term_layer(t in arb_term()) {
        let mut arena = Interner::new();
        let id = arena.canon_id(&t);
        let meta = arena.meta(id).clone();
        let rep = arena.extract(id);
        prop_assert_eq!(meta.size, rep.size());
        prop_assert_eq!(meta.is_value, rep.is_value());
        let mut fv = rep.free_vars();
        fv.sort();
        prop_assert_eq!(meta.free_vars.to_vec(), fv);
        prop_assert_eq!(meta.is_closed(), rep.is_closed());
    }

    /// Interning twice (same or α-equivalent handles) never grows the
    /// arena the second time, and re-probing is stable.
    #[test]
    fn reinterning_is_stable(t in arb_term()) {
        let mut arena = Interner::new();
        let id1 = arena.canon_id(&t);
        let len = arena.len();
        let id2 = arena.canon_id(&t.clone());
        prop_assert_eq!(id1, id2);
        prop_assert_eq!(arena.len(), len);
    }

    /// The tabled cache hits on α-variant keys: α-variants canonicalise to
    /// the *same id*, so one table entry serves the whole α-class, and the
    /// fuel stays part of the key.
    #[test]
    fn intern_table_is_alpha_insensitive(f in arb_term(), a in arb_term()) {
        use lambda_join_core::engine::IdBetaTable;
        let mut table = InternTable::new();
        let mut arena = Interner::new();
        let (fid, aid) = (arena.canon_id(&f), arena.canon_id(&a));
        let r = arena.canon_id(&b::int(1));
        table.store(fid, aid, 7, r, false);
        // Probing with the ids of freshly renamed α-variants hits.
        let fc = rename_binders(&f, "_f");
        let ac = rename_binders(&a, "_a");
        let (fid2, aid2) = (arena.canon_id(&fc), arena.canon_id(&ac));
        prop_assert_eq!((fid2, aid2), (fid, aid), "α-variant ids differ: {} / {}", f, a);
        prop_assert!(table.lookup(fid2, aid2, 7).is_some(), "α-variant probe missed");
        prop_assert!(table.lookup(fid2, aid2, 8).is_none(), "fuel is part of the key");
    }

    /// Extraction is a section of canonical interning: `extract(canon_id(t))`
    /// is α-equivalent to `t` and re-interns to the same id. The arena
    /// has one key space: after interning, evaluating and extracting,
    /// every binder in it is the canonical sentinel (snapshot replay
    /// admits no other).
    #[test]
    fn extract_round_trips(t in arb_term()) {
        let mut arena = Interner::new();
        let id = arena.canon_id(&t);
        let back = arena.extract(id);
        prop_assert!(back.alpha_eq(&t), "{} extracted as {}", t, back);
        prop_assert_eq!(arena.canon_id(&back), id);
        let r = engine::run_id(&mut arena, id, 4, &mut Budget::new(10_000), &mut NoIdTable);
        let _ = arena.extract(r);
        prop_assert!(memo_from_bytes(&memo_to_bytes(&arena, &InternTable::new())).is_ok());
    }
}

/// Runs `f` on a 512 KiB thread, propagating panics (mirrors the
/// deep-recursion suites: overflow aborts fail the join).
fn on_tiny_stack(name: &str, f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name(name.to_string())
        .stack_size(512 * 1024)
        .spawn(f)
        .expect("spawn tiny-stack thread")
        .join()
        .expect("interning must fit a 512 KiB stack");
}

#[test]
fn deep_term_interning_fits_tiny_stack() {
    // A 100 000-deep application spine and a 50 000-binder lambda chain:
    // interning, canonicalisation, and the arena teardown must all be
    // iterative (the teardown drops the representative handles — the term
    // layer's worklist destructor takes over past its stack budget).
    on_tiny_stack("deep-intern", || {
        let mut deep: TermRef = b::int(1);
        for _ in 0..100_000 {
            deep = b::app(b::lam("x", b::var("x")), deep);
        }
        let mut lams: TermRef = b::var("x");
        for i in 0..50_000 {
            lams = b::lam(if i % 2 == 0 { "x" } else { "y" }, lams);
        }
        let mut arena = Interner::new();
        let d = arena.canon_id(&deep);
        assert_eq!(arena.meta(d).size, 300_001);
        let l1 = arena.canon_id(&lams);
        // The α-variant with uniformly renamed binders canonicalises to
        // the same id.
        let mut lams2: TermRef = b::var("a");
        for i in 0..50_000 {
            lams2 = b::lam(if i % 2 == 0 { "a" } else { "b" }, lams2);
        }
        assert_eq!(arena.canon_id(&lams2), l1);
        drop(arena); // teardown of 10⁵ representatives must not recurse
        drop(deep);
        drop(lams);
        drop(lams2);
    });
}

#[test]
fn canon_id_agrees_with_alpha_eq_on_handwritten_cases() {
    let mut arena = Interner::new();
    let cases: Vec<(TermRef, TermRef, bool)> = vec![
        (b::lam("x", b::var("x")), b::lam("y", b::var("y")), true),
        (b::lam("x", b::var("x")), b::lam("y", b::var("x")), false),
        (
            b::big_join("a", b::set(vec![]), b::var("a")),
            b::big_join("b", b::set(vec![]), b::var("b")),
            true,
        ),
        (
            b::let_pair("a", "b", b::var("p"), b::pair(b::var("a"), b::var("b"))),
            b::let_pair("u", "v", b::var("p"), b::pair(b::var("u"), b::var("v"))),
            true,
        ),
        (
            b::let_pair("a", "b", b::var("p"), b::pair(b::var("a"), b::var("b"))),
            b::let_pair("u", "v", b::var("p"), b::pair(b::var("v"), b::var("u"))),
            false,
        ),
        // Free variables are not renamed.
        (b::var("x"), b::var("y"), false),
        // Shadowing.
        (
            b::lam("x", b::lam("x", b::var("x"))),
            b::lam("p", b::lam("q", b::var("q"))),
            true,
        ),
        (
            b::lam("x", b::lam("x", b::var("x"))),
            b::lam("p", b::lam("q", b::var("p"))),
            false,
        ),
    ];
    for (t, u, expect) in cases {
        assert_eq!(
            arena.canon_id(&t) == arena.canon_id(&u),
            expect,
            "{t} vs {u}"
        );
        assert_eq!(t.alpha_eq(&u), expect, "spec disagrees on {t} vs {u}");
    }
}

#[test]
fn cached_subtrees_reused_across_binder_depths_stay_alpha_correct() {
    // Regression: canonical binder names are absolute de Bruijn levels, so
    // an id cached for a closed subtree at one depth must NOT be reused
    // verbatim at another depth when the subtree contains binders. Here
    // `c = λz.z` is canonicalised standalone (level 0) and then embedded
    // one binder deep via the same shared handle; a fresh structural copy
    // embedded identically must get the same id.
    let mut arena = Interner::new();
    let c = b::lam("z", b::var("z"));
    let _ = arena.canon_id(&c); // prime the pointer cache at depth 0
    let shared = b::lam("a", b::pair(b::var("a"), c.clone()));
    let fresh = b::lam("a", b::pair(b::var("a"), b::lam("z", b::var("z"))));
    assert!(shared.alpha_eq(&fresh));
    assert_eq!(arena.canon_id(&shared), arena.canon_id(&fresh));

    // And the other direction: a binder-containing subtree first seen (and
    // interior-cached — it is large and closed) at depth 1, then probed
    // standalone at depth 0.
    let mut arena = Interner::new();
    let big = |x: &str| b::lam(x, b::set((0..20).map(b::int).chain([b::var(x)]).collect()));
    let inner = big("z");
    let outer = b::lam("a", b::pair(b::var("a"), inner.clone()));
    let _ = arena.canon_id(&outer);
    assert_eq!(arena.canon_id(&inner), arena.canon_id(&big("q")));
}

proptest! {
    /// Sharing one handle across different binder depths (as the
    /// subtree-sharing substitution routinely does) never changes the
    /// α-equivalence verdict of canonical ids.
    #[test]
    fn shared_handles_across_depths_keep_ids_alpha_correct(t in arb_term()) {
        let mut arena = Interner::new();
        let _ = arena.canon_id(&t); // prime caches at depth 0
        // Embed the same handle at depths 1 and 2, next to a fresh
        // α-variant embedding (different binder names and allocations).
        let shared1 = b::lam("a", b::pair(b::var("a"), t.clone()));
        let shared2 = b::lam("a", b::lam("b", t.clone()));
        let fresh_t = rename_binders(&t, "_r");
        let fresh1 = b::lam("k", b::pair(b::var("k"), fresh_t.clone()));
        let fresh2 = b::lam("k", b::lam("l", fresh_t));
        prop_assert_eq!(arena.canon_id(&shared1), arena.canon_id(&fresh1));
        prop_assert_eq!(arena.canon_id(&shared2), arena.canon_id(&fresh2));
    }
}
