//! Tests for the §5.2 extension features: frozen values (`frz`) and
//! lexicographic versioned pairs (`lex` / `bind`).
//!
//! Freezing follows LVish's freeze-after-write discipline: a frozen value
//! promises no further growth, unlocking the non-monotone queries `member`,
//! `diff`, and `size`; any later growth surfaces as the ambiguity error `⊤`
//! (quasi-determinism). Versioned pairs follow the Dynamo-style design the
//! paper sketches: the payload may change arbitrarily as long as the version
//! increases.

use lambda_join_core::builder::*;
use lambda_join_core::machine::Machine;
use lambda_join_core::observe::{observe, result_equiv, result_leq};
use lambda_join_core::parser::parse;
use lambda_join_core::reduce::{head_step, join_results};
use lambda_join_core::term::{Term, TermRef};
use std::sync::Arc;

fn run(t: TermRef) -> TermRef {
    let mut m = Machine::new(t);
    m.run(512);
    m.observe()
}

fn run_src(src: &str) -> TermRef {
    run(parse(src).expect("parse"))
}

// ------------------------------------------------------------- freezing --

#[test]
fn frz_of_value_is_a_value() {
    assert!(frz(int(1)).is_value());
    assert!(frz(set(vec![int(1), int(2)])).is_value());
    assert!(!frz(app(lam("x", var("x")), int(1))).is_value());
}

#[test]
fn frz_evaluates_its_payload_first() {
    let t = frz(add(int(1), int(2)));
    let r = run(t);
    assert!(r.alpha_eq(&frz(int(3))));
}

#[test]
fn join_of_equal_frozen_values_is_idempotent() {
    let a = frz(set(vec![int(1), int(2)]));
    let b = frz(set(vec![int(2), int(1)]));
    // Same set up to ordering: equivalent payloads, so the join succeeds.
    let r = join_results(&a, &b);
    assert!(result_equiv(&r, &a));
}

#[test]
fn join_of_distinct_frozen_values_is_top() {
    let a = frz(set(vec![int(1)]));
    let b = frz(set(vec![int(1), int(2)]));
    assert!(join_results(&a, &b).alpha_eq(&top()));
    // Even for symbols: frozen values are discretely ordered.
    assert!(join_results(&frz(level(1)), &frz(level(2))).alpha_eq(&top()));
}

#[test]
fn late_write_below_frozen_payload_is_absorbed() {
    // A write of {1} after freezing {1,2} is already covered by the freeze.
    let frozen = frz(set(vec![int(1), int(2)]));
    let late = set(vec![int(1)]);
    let r = join_results(&frozen, &late);
    assert!(result_equiv(&r, &frozen));
    let r = join_results(&late, &frozen);
    assert!(result_equiv(&r, &frozen));
}

#[test]
fn late_growth_after_freeze_is_a_freeze_violation() {
    // A write of {3} after freezing {1,2} is the quasi-determinism error.
    let frozen = frz(set(vec![int(1), int(2)]));
    let late = set(vec![int(3)]);
    assert!(join_results(&frozen, &late).alpha_eq(&top()));
    assert!(join_results(&late, &frozen).alpha_eq(&top()));
}

#[test]
fn botv_is_below_every_frozen_value() {
    let frozen = frz(set(vec![int(1)]));
    assert!(result_leq(&botv(), &frozen));
    let r = join_results(&botv(), &frozen);
    assert!(result_equiv(&r, &frozen));
}

#[test]
fn unfrozen_value_is_below_its_freeze() {
    // v ⪯ frz v (§5.2).
    let v = set(vec![int(1), int(2)]);
    assert!(result_leq(&v, &frz(v.clone())));
    // But not conversely, and frozen values are incomparable unless equal.
    assert!(!result_leq(&frz(v.clone()), &v));
    assert!(!result_leq(&frz(set(vec![int(1)])), &frz(v)));
}

#[test]
fn let_frz_thaws_the_payload() {
    let t = let_frz("x", frz(int(5)), add(var("x"), int(1)));
    assert!(run(t).alpha_eq(&int(6)));
}

#[test]
fn let_frz_on_unfrozen_scrutinee_stays_stuck() {
    // The payload may still grow, so the query is unanswered: observed ⊥.
    let t = let_frz("x", set(vec![int(1)]), var("x"));
    assert!(head_step(&t).is_none());
    assert!(run(t).alpha_eq(&bot()));
}

#[test]
fn member_on_frozen_sets() {
    let s = frz(set(vec![int(1), int(2)]));
    assert!(run(member(frz(int(1)), s.clone())).alpha_eq(&tt()));
    assert!(run(member(frz(int(7)), s)).alpha_eq(&ff()));
}

#[test]
fn member_blocks_on_unfrozen_operands() {
    // Membership on a still-streaming set would be non-monotone: the query
    // *waits for the freeze* (⊥), like an LVish exact read of an unfrozen
    // LVar — it does not error, because the set may legitimately freeze
    // later at a bigger value.
    let t = member(frz(int(1)), set(vec![int(1)]));
    assert!(run(t).alpha_eq(&bot()));
    let t = member(int(1), frz(set(vec![int(1)])));
    assert!(run(t).alpha_eq(&bot()));
}

#[test]
fn diff_on_frozen_sets() {
    let s1 = frz(set(vec![int(1), int(2), int(3)]));
    let s2 = frz(set(vec![int(2)]));
    let r = run(diff(s1, s2));
    assert!(result_equiv(&r, &set(vec![int(1), int(3)])));
}

#[test]
fn diff_result_streams_onward() {
    // The difference is a plain set again: it can be joined with more data.
    let d = diff(frz(set(vec![int(1), int(2)])), frz(set(vec![int(1)])));
    let t = join(d, set(vec![int(9)]));
    let r = run(t);
    assert!(result_equiv(&r, &set(vec![int(2), int(9)])));
}

#[test]
fn size_of_frozen_set_counts_distinct_elements() {
    assert!(run(set_size(frz(set(vec![int(1), int(2), int(1)])))).alpha_eq(&int(2)));
    assert!(run(set_size(frz(set(vec![])))).alpha_eq(&int(0)));
    // Unfrozen sets have no size yet (non-monotone): the query blocks.
    assert!(run(set_size(set(vec![int(1)]))).alpha_eq(&bot()));
    // A frozen non-set can never have a size: error.
    assert!(run(set_size(frz(int(7)))).alpha_eq(&top()));
}

#[test]
fn freeze_surface_syntax() {
    assert!(run_src("let frz x = frz {1, 2} in size(frz {1, 2})").alpha_eq(&int(2)));
    assert!(run_src("member(frz 2, frz {1, 2})").alpha_eq(&tt()));
    assert!(run_src("diff(frz {1, 2}, frz {2})").alpha_eq(&set(vec![int(1)])));
    // Thawing gives back the payload for ordinary monotone use.
    assert!(run_src("let frz x = frz 41 in x + 1").alpha_eq(&int(42)));
}

#[test]
fn freeze_syntax_round_trips() {
    for src in [
        "frz {1, 2}",
        "let frz x = frz 1 in x",
        "member(frz 1, frz {1})",
        "diff(frz {1}, frz {2})",
        "size(frz {1})",
    ] {
        let t = parse(src).expect("parse");
        let printed = t.to_string();
        let t2 = parse(&printed).unwrap_or_else(|e| panic!("reparse {printed}: {e}"));
        assert!(t.alpha_eq(&t2), "{src} → {printed}");
    }
}

#[test]
fn frozen_aggregate_example_end_to_end() {
    // Tally a fixed election: freeze the ballot set, then count.
    let src = r#"
        let ballots = {'alice, 'bob, 'carol} in
        size(frz ballots)
    "#;
    assert!(run_src(src).alpha_eq(&int(3)));
}

#[test]
fn observe_of_running_freeze_is_bot() {
    // frz applied to a still-running computation is all-or-nothing.
    let running = app(
        lam("x", app(var("x"), var("x"))),
        lam("x", app(var("x"), var("x"))),
    );
    assert!(observe(&frz(running)).alpha_eq(&bot()));
}

#[test]
fn top_propagates_through_freeze() {
    assert!(run(frz(join(int(1), int(2)))).alpha_eq(&top()));
    assert!(run(let_frz("x", top(), var("x"))).alpha_eq(&top()));
}

// ------------------------------------------------------ versioned pairs --

#[test]
fn lex_pair_is_a_value_and_evaluates_components() {
    assert!(lex(level(1), int(5)).is_value());
    let t = lex(level(1), add(int(2), int(3)));
    assert!(run(t).alpha_eq(&lex(level(1), int(5))));
}

#[test]
fn newer_version_wins_outright() {
    // ⟨2, "b"⟩ ⊔ ⟨1, "a"⟩ = ⟨2, "b"⟩ — the payload changed non-monotonically
    // but the version increased, so the join is still deterministic.
    let newer = lex(level(2), string("b"));
    let older = lex(level(1), string("a"));
    assert!(join_results(&newer, &older).alpha_eq(&newer));
    assert!(join_results(&older, &newer).alpha_eq(&newer));
}

#[test]
fn equal_versions_join_payloads() {
    let a = lex(level(1), set(vec![int(1)]));
    let b = lex(level(1), set(vec![int(2)]));
    let r = join_results(&a, &b);
    assert!(r.alpha_eq(&lex(level(1), set(vec![int(1), int(2)]))));
    // Conflicting payloads at the same version are ambiguous.
    let a = lex(level(1), string("x"));
    let b = lex(level(1), string("y"));
    assert!(join_results(&a, &b).alpha_eq(&top()));
}

#[test]
fn incomparable_versions_join_componentwise() {
    // Vector-clock-like concurrent versions: sets {1} and {2} are
    // incomparable; the join merges versions and payloads.
    let a = lex(set(vec![int(1)]), set(vec![string("x")]));
    let b = lex(set(vec![int(2)]), set(vec![string("y")]));
    let r = join_results(&a, &b);
    let expect = lex(
        set(vec![int(1), int(2)]),
        set(vec![string("x"), string("y")]),
    );
    assert!(result_equiv(&r, &expect));
}

#[test]
fn concurrent_conflicting_scalars_are_ambiguous() {
    // Incomparable versions with irreconcilable scalar payloads: ⊤ — the
    // situation §5.2 resolves by multiversioning (set payloads).
    let a = lex(set(vec![int(1)]), string("x"));
    let b = lex(set(vec![int(2)]), string("y"));
    assert!(join_results(&a, &b).alpha_eq(&top()));
}

#[test]
fn lex_streaming_order() {
    // Strictly smaller version: below regardless of payload.
    assert!(result_leq(
        &lex(level(1), string("a")),
        &lex(level(2), string("b"))
    ));
    // Equal versions compare payloads.
    assert!(result_leq(
        &lex(level(1), set(vec![int(1)])),
        &lex(level(1), set(vec![int(1), int(2)]))
    ));
    assert!(!result_leq(
        &lex(level(1), string("a")),
        &lex(level(1), string("b"))
    ));
    // Never downward.
    assert!(!result_leq(
        &lex(level(2), string("b")),
        &lex(level(1), string("a"))
    ));
}

#[test]
fn bind_threads_versions() {
    // bind x <- ⟨1, 10⟩ in ⟨2, x + 1⟩  ⇒  ⟨1 ⊔ 2, 11⟩ = ⟨2, 11⟩.
    let t = lex_bind(
        "x",
        lex(level(1), int(10)),
        lex(level(2), add(var("x"), int(1))),
    );
    assert!(run(t).alpha_eq(&lex(level(2), int(11))));
}

#[test]
fn extension_rules_fire_as_single_head_steps() {
    // let-frz: `let frz x = frz v in e ↦ e[v/x]`.
    let t = let_frz("x", frz(int(5)), pair(var("x"), int(1)));
    let r = head_step(&t).expect("let-frz fires");
    assert!(r.alpha_eq(&pair(int(5), int(1))), "{r}");
    // lex-bind: `x ← ⟨v1, v1'⟩; e ↦ merge(v1, e[v1'/x])`.
    let t = lex_bind("x", lex(level(1), int(10)), lex(level(2), var("x")));
    let merge = head_step(&t).expect("lex-bind fires");
    let want = Arc::new(Term::LexMerge(level(1), lex(level(2), int(10))));
    assert!(merge.alpha_eq(&want), "{merge}");
    // lex-merge: `merge(v1, ⟨v2, v2'⟩) ↦ ⟨v1 ⊔ v2, v2'⟩`.
    let r = head_step(&merge).expect("lex-merge fires");
    assert!(r.alpha_eq(&lex(level(2), int(10))), "{r}");
}

#[test]
fn bind_version_join_keeps_monotonicity() {
    // The body reports an *older* version; the bind result still carries the
    // newer input version, so downstream consumers never see time move
    // backwards.
    let t = lex_bind("x", lex(level(5), int(10)), lex(level(1), var("x")));
    assert!(run(t).alpha_eq(&lex(level(5), int(10))));
}

#[test]
fn bind_on_non_lex_value_is_ambiguous() {
    let t = lex_bind("x", int(3), lex(level(1), var("x")));
    assert!(run(t).alpha_eq(&top()));
}

#[test]
fn bind_on_botv_is_botv() {
    let t = lex_bind("x", botv(), lex(level(1), var("x")));
    assert!(run(t).alpha_eq(&botv()));
}

#[test]
fn bind_surface_syntax() {
    let r = run_src("bind x <- lex(`1, 10) in lex(`2, x + 1)");
    assert!(r.alpha_eq(&lex(level(2), int(11))));
}

#[test]
fn lex_syntax_round_trips() {
    for src in [
        "lex(`1, 10)",
        "bind x <- lex(`1, 10) in lex(`2, x)",
        "lexmerge(`1, lex(`2, 3))",
    ] {
        let t = parse(src).expect("parse");
        let printed = t.to_string();
        let t2 = parse(&printed).unwrap_or_else(|e| panic!("reparse {printed}: {e}"));
        assert!(t.alpha_eq(&t2), "{src} → {printed}");
    }
}

#[test]
fn versioned_register_last_writer_wins() {
    // A register receiving writes in any order converges on the
    // highest-versioned value: join all writes pairwise in both orders.
    let writes = [
        lex(level(1), string("a")),
        lex(level(3), string("c")),
        lex(level(2), string("b")),
    ];
    let mut acc = botv();
    for w in &writes {
        acc = join_results(&acc, w);
    }
    assert!(acc.alpha_eq(&lex(level(3), string("c"))));
    let mut acc_rev = botv();
    for w in writes.iter().rev() {
        acc_rev = join_results(&acc_rev, w);
    }
    assert!(acc_rev.alpha_eq(&acc), "register is order-sensitive");
}

#[test]
fn lex_join_is_associative_and_commutative_on_examples() {
    let vals = [
        lex(level(1), string("a")),
        lex(level(2), string("b")),
        lex(level(2), string("b")),
        lex(level(4), string("d")),
    ];
    for a in &vals {
        for b in &vals {
            let ab = join_results(a, b);
            let ba = join_results(b, a);
            assert!(ab.alpha_eq(&ba), "join not commutative: {a} vs {b}");
            for c in &vals {
                let l = join_results(&join_results(a, b), c);
                let r = join_results(a, &join_results(b, c));
                assert!(l.alpha_eq(&r), "join not associative: {a} {b} {c}");
            }
        }
    }
}

#[test]
fn frozen_lex_interplay() {
    // Freezing a versioned pair pins both version and payload.
    let v = lex(level(1), string("a"));
    let f = frz(v.clone());
    assert!(join_results(&f, &v).alpha_eq(&f));
    // A later version is growth past the freeze: violation.
    let newer = lex(level(2), string("b"));
    assert!(join_results(&f, &newer).alpha_eq(&top()));
}

// -------------------------------------------------- machine integration --

#[test]
fn machine_runs_freeze_programs_to_quiescence() {
    let t = parse("let frz x = frz (1 + 2) in {x} \\/ {4}").expect("parse");
    let mut m = Machine::new(t);
    m.run(256);
    assert!(m.is_quiescent());
    assert!(result_equiv(&m.observe(), &set(vec![int(3), int(4)])));
}

#[test]
fn machine_observations_stay_monotone_with_extensions() {
    let t = parse("bind x <- lex(`1, {1}) in lex(`1, x \\/ {2, 3})").expect("parse");
    let mut m = Machine::new(t);
    let mut prev = m.observe();
    for _ in 0..64 {
        m.run(1);
        let cur = m.observe();
        assert!(
            result_leq(&prev, &cur),
            "observation not monotone: {prev} → {cur}"
        );
        prev = cur;
    }
    assert!(prev.alpha_eq(&lex(level(1), set(vec![int(1), int(2), int(3)]))));
}

// ------------------------------------------------ freeze completeness --

#[test]
fn freeze_seals_only_complete_payloads() {
    // Regression (found by the fuel-monotonicity proptest): freezing a
    // fuel-truncated payload would let two runs seal *incomparable* values
    // (frz {} at low fuel vs frz {⊥v} at high fuel). The evaluators
    // therefore refuse to seal until the payload evaluation is complete.
    use lambda_join_core::bigstep::eval_fuel;
    let t = frz(set(vec![app(lam("x", var("x")), botv())]));
    // Fuel 0: the β inside the payload cannot fire — the freeze is
    // *pending* (⊥), not a sealed empty set.
    assert!(eval_fuel(&t, 0).alpha_eq(&bot()));
    // With fuel, the payload completes and seals.
    assert!(eval_fuel(&t, 2).alpha_eq(&frz(set(vec![botv()]))));
    // Monotone across the sweep.
    let mut prev = eval_fuel(&t, 0);
    for n in 1..6 {
        let cur = eval_fuel(&t, n);
        assert!(result_leq(&prev, &cur), "fuel {n}: {prev} → {cur}");
        prev = cur;
    }
}

#[test]
fn approximation_cannot_fire_inside_a_freeze() {
    use lambda_join_core::reduce::approx_at;
    let t = frz(set(vec![app(lam("x", var("x")), int(1))]));
    // Approximating the whole pending freeze is fine…
    assert!(approx_at(&t, &[]).is_some());
    // …but discarding *within* the payload is not a legal step.
    assert_eq!(approx_at(&t, &[0]), None);
    assert_eq!(approx_at(&t, &[0, 0]), None);
}

#[test]
fn monotone_eliminations_see_through_frz() {
    // v ⪯ frz v requires every monotone observer of v to work on frz v.
    assert!(run(let_sym(
        lambda_join_core::symbol::Symbol::Int(1),
        frz(int(1)),
        name("hit")
    ))
    .alpha_eq(&name("hit")));
    assert!(run(let_pair("a", "b", frz(pair(int(1), int(2))), var("b"))).alpha_eq(&int(2)));
    assert!(run(big_join(
        "x",
        frz(set(vec![int(1), int(2)])),
        set(vec![var("x")])
    ))
    .alpha_eq(&set(vec![int(1), int(2)])));
    assert!(run(app(frz(lam("x", add(var("x"), int(1)))), int(4))).alpha_eq(&int(5)));
    assert!(run(add(frz(int(2)), int(3))).alpha_eq(&int(5)));
}

#[test]
fn version_thresholds_fire_on_lex_pairs() {
    // `let `2 = e in body` fires once e's *version* reaches `2 — the
    // observer that makes versions (but not payloads) contextually
    // observable.
    let t = let_sym(
        lambda_join_core::symbol::Symbol::Level(2),
        lex(level(3), name("whatever")),
        name("fired"),
    );
    assert!(run(t).alpha_eq(&name("fired")));
    let t = let_sym(
        lambda_join_core::symbol::Symbol::Level(2),
        lex(level(1), name("whatever")),
        name("fired"),
    );
    assert!(run(t).alpha_eq(&bot()));
}

#[test]
fn silent_bind_bodies_keep_the_input_version() {
    // bind x <- ⟨`2, 7⟩ in (let 9 = x in …): the payload threshold never
    // fires, but the result still carries version `2 over ⊥v — without
    // this, bind would be non-monotone (an older input ⟨`1, 9⟩ *does* fire
    // the body, and ⟨`1, …⟩ ⊑ ⟨`2, ⊥v⟩ must hold).
    let body = |scrut: TermRef| {
        lex_bind(
            "x",
            scrut,
            let_sym(
                lambda_join_core::symbol::Symbol::Int(9),
                var("x"),
                lex(level(1), unit()),
            ),
        )
    };
    let old_out = run(body(lex(level(1), int(9))));
    let new_out = run(body(lex(level(2), int(7))));
    assert!(old_out.alpha_eq(&lex(level(1), unit())));
    assert!(new_out.alpha_eq(&lex(level(2), botv())));
    assert!(
        result_leq(&old_out, &new_out),
        "bind output went backwards: {old_out} vs {new_out}"
    );
}
