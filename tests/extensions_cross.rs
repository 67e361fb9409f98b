//! Cross-crate integration for the §5.2 extensions: the same freeze /
//! versioned-pair programs run through every evaluator (fair machine,
//! id-machine big-step, memoised big-step, recursive big-step spec), are
//! vetted by the static ambiguity analysis, and line up with the CRDT
//! substrate's lattice counterparts.

use lambda_join::core::bigstep::{eval_fuel, spec};
use lambda_join::core::builder::*;
use lambda_join::core::machine::Machine;
use lambda_join::core::observe::{result_equiv, result_leq};
use lambda_join::core::parser::parse;
use lambda_join::core::term::TermRef;
use lambda_join::crdt::{LBool, LMap, LMax, LexPair, MvMap};
use lambda_join::filter::ambiguity::{check_ambiguity, Verdict};
use lambda_join::runtime::semilattice::{Flat, JoinSemilattice};
use lambda_join::runtime::seminaive::SeminaiveEngine;
use lambda_join::runtime::MemoEval;

/// Runs a source program through all four evaluators and asserts they
/// agree (on first-order results) at generous fuel.
fn all_evaluators(src: &str) -> TermRef {
    let t = parse(src).unwrap_or_else(|e| panic!("parse {src}: {e}"));
    let mut m = Machine::new(t.clone());
    m.run(1024);
    let machine = m.observe();
    let big = eval_fuel(&t, 64);
    let mut memo = MemoEval::new();
    let memoed = memo.eval_fuel(&t, 64);
    let spec = spec::eval_fuel_recursive(&t, 64);
    assert!(
        result_equiv(&machine, &big),
        "{src}: machine {machine} vs bigstep {big}"
    );
    assert!(
        result_equiv(&big, &memoed),
        "{src}: bigstep {big} vs memo {memoed}"
    );
    assert!(
        result_equiv(&big, &spec),
        "{src}: bigstep {big} vs spec {spec}"
    );
    machine
}

#[test]
fn freeze_programs_agree_across_evaluators() {
    for (src, expect) in [
        ("size(frz ({1} \\/ {2, 3}))", int(3)),
        ("member(frz 2, frz ({1} \\/ {2}))", tt()),
        ("diff(frz {1, 2, 3}, frz {2, 9})", set(vec![int(1), int(3)])),
        ("let frz x = frz (10 - 3) in x * x", int(49)),
        ("frz {1} \\/ {2}", top()),
        ("frz 5 \\/ 5", frz(int(5))),
    ] {
        let got = all_evaluators(src);
        assert!(result_equiv(&got, &expect), "{src}: got {got}");
    }
}

#[test]
fn versioned_programs_agree_across_evaluators() {
    for (src, expect) in [
        ("lex(`1, 'a) \\/ lex(`2, 'b)", lex(level(2), name("b"))),
        (
            "lex(`1, {1}) \\/ lex(`1, {2})",
            lex(level(1), set(vec![int(1), int(2)])),
        ),
        (
            "bind x <- lex(`1, 4) in lex(`2, x * x)",
            lex(level(2), int(16)),
        ),
        ("bind x <- lex(`9, 1) in lex(`2, x)", lex(level(9), int(1))),
        ("lex(`1, 'a) \\/ lex(`1, 'b)", top()),
    ] {
        let got = all_evaluators(src);
        assert!(result_equiv(&got, &expect), "{src}: got {got}");
    }
}

#[test]
fn ambiguity_analysis_matches_runtime_on_the_corpus() {
    // Safe-verdict programs must never top out at runtime; runtime-⊤
    // programs must be flagged.
    for src in [
        "size(frz {1, 2})",
        "member(frz 1, frz {1})",
        "let frz x = frz 3 in x + 1",
        "lex(`1, {1}) \\/ lex(`2, {2})",
        "if true then 'a else 'b",
    ] {
        let t = parse(src).unwrap();
        assert_eq!(
            check_ambiguity(&t),
            Verdict::Safe,
            "{src} should be provably safe"
        );
        let r = all_evaluators(src);
        assert!(!r.alpha_eq(&top()), "{src} topped at runtime");
    }
    for src in [
        "frz {1} \\/ {2}",
        "lex(`1, 'a) \\/ lex(`1, 'b)",
        "1 \\/ 2",
        "bind x <- 3 in lex(`1, x)",
    ] {
        let t = parse(src).unwrap();
        let r = all_evaluators(src);
        if r.alpha_eq(&top()) {
            assert!(
                matches!(check_ambiguity(&t), Verdict::MayAmbiguous(_)),
                "{src} tops at runtime but the analysis said Safe"
            );
        }
    }
}

#[test]
fn lex_pairs_mirror_the_crdt_substrate() {
    // The calculus-level lexicographic join and the substrate's LexPair
    // lattice implement the same order: compare on a write matrix.
    for (v1, v2) in [(1u64, 2u64), (2, 1), (3, 3), (1, 9)] {
        // Calculus.
        let a = lex(level(v1), string("a"));
        let b = lex(level(v2), string("b"));
        let calculus = lambda_join::core::reduce::join_results(&a, &b);
        // Substrate.
        let sa = LexPair::new(LMax(v1), Flat::Known("a"));
        let sb = LexPair::new(LMax(v2), Flat::Known("b"));
        let substrate = sa.join(&sb);
        match &substrate.value {
            Flat::Known(payload) => {
                let expect = lex(level(substrate.version.0), string(payload));
                assert!(
                    result_equiv(&calculus, &expect),
                    "v1={v1} v2={v2}: calculus {calculus} vs substrate {expect}"
                );
            }
            Flat::Conflict => {
                assert!(
                    calculus.alpha_eq(&top()),
                    "v1={v1} v2={v2}: substrate conflicted, calculus gave {calculus}"
                );
            }
            Flat::Empty => panic!("join of known values cannot be empty"),
        }
    }
}

#[test]
fn frozen_set_queries_mirror_the_lattice_morphisms() {
    // λ∨'s frozen `size` and the Bloom-style LMap size morphism compute
    // the same monotone quantity over the same inserts.
    let mut m: LMap<i64, LBool> = LMap::new();
    let mut elems = Vec::new();
    for k in [3i64, 1, 4, 1, 5] {
        m.insert(k, LBool(true));
        if !elems.iter().any(|e: &TermRef| e.alpha_eq(&int(k))) {
            elems.push(int(k));
        }
    }
    let t = set_size(frz(set(elems)));
    let r = eval_fuel(&t, 8);
    assert!(r.alpha_eq(&int(m.size().0 as i64)));
}

#[test]
fn mvmap_resolves_like_machine_level_multiversioning() {
    // Multiversion siblings at the substrate level correspond to set
    // payloads at incomparable versions in the calculus.
    let mut a = MvMap::new();
    let mut b = MvMap::new();
    a.write(0, "k", "alice");
    b.write(1, "k", "bob");
    let merged = a.join(&b);
    assert_eq!(merged.read(&"k").unwrap().len(), 2);

    let ca = lex(set(vec![int(0)]), set(vec![string("alice")]));
    let cb = lex(set(vec![int(1)]), set(vec![string("bob")]));
    let cm = lambda_join::core::reduce::join_results(&ca, &cb);
    let expect = lex(
        set(vec![int(0), int(1)]),
        set(vec![string("alice"), string("bob")]),
    );
    assert!(result_equiv(&cm, &expect));
}

#[test]
fn seminaive_engine_matches_machine_reaches() {
    use lambda_join::core::encodings::{self, Graph};
    for g in [Graph::line(5), Graph::cycle(4), Graph::binary_tree(3)] {
        // Engine.
        let mut e = SeminaiveEngine::new(g.neighbors_fn(), 64);
        e.push(vec![int(0)]);
        let engine_fix = e.run(10_000);
        // Machine on the paper's reaches program (converged via fuel).
        let t = encodings::reaches(&g, 0);
        let machine_fix = lambda_join::core::bigstep::eval_converged(&t, 8_192, 512, 3).0;
        assert!(
            result_equiv(&engine_fix, &machine_fix),
            "graph {g:?}: engine {engine_fix} vs machine {machine_fix}"
        );
    }
}

#[test]
fn frozen_observation_is_all_or_nothing_under_scheduling() {
    // Freeze must never expose a partially computed payload, no matter how
    // the machine schedules: observations are ⊥ strictly until the payload
    // is a value, then exactly `frz v`.
    let t = parse("frz ({1} \\/ ((\\x. {x + 1}) 1 \\/ {3}))").unwrap();
    let mut m = Machine::new(t);
    let mut prev = bot();
    for _ in 0..64 {
        let obs = m.observe();
        assert!(
            obs.alpha_eq(&bot()) || matches!(&*obs, lambda_join::core::term::Term::Frz(_)),
            "partial freeze observed: {obs}"
        );
        assert!(result_leq(&prev, &obs), "non-monotone: {prev} → {obs}");
        prev = obs;
        m.run(1);
    }
    assert!(result_equiv(&prev, &frz(set(vec![int(1), int(2), int(3)]))));
}

#[test]
fn calculus_freeze_mirrors_the_runtime_freeze_lattice() {
    // The term-level `frz` join and the runtime's `Freeze<GSet>` lattice
    // implement the same order: compare joins across a payload matrix.
    use lambda_join::crdt::GSet;
    use lambda_join::runtime::freeze::Freeze;

    let payloads: Vec<Vec<i64>> = vec![vec![], vec![1], vec![1, 2], vec![3]];
    let to_term = |xs: &Vec<i64>| set(xs.iter().map(|n| int(*n)).collect());
    let to_gset = |xs: &Vec<i64>| {
        let mut s = GSet::new();
        for x in xs {
            s.insert(*x);
        }
        s
    };
    for a in &payloads {
        for b in &payloads {
            // frozen-vs-thawed in both systems.
            let term_join = lambda_join::core::reduce::join_results(&frz(to_term(a)), &to_term(b));
            let rt_join = Freeze::Frozen(to_gset(a)).join(&Freeze::Thawed(to_gset(b)));
            match rt_join {
                Freeze::Conflict => assert!(
                    term_join.alpha_eq(&top()),
                    "{a:?}/{b:?}: runtime conflicted, calculus gave {term_join}"
                ),
                Freeze::Frozen(v) => {
                    let expect = frz(set(v.iter().map(|n| int(*n)).collect()));
                    assert!(
                        result_equiv(&term_join, &expect),
                        "{a:?}/{b:?}: calculus {term_join} vs runtime {expect}"
                    );
                }
                Freeze::Thawed(_) => panic!("join with a frozen side cannot thaw"),
            }
            // frozen-vs-frozen in both systems.
            let term_ff =
                lambda_join::core::reduce::join_results(&frz(to_term(a)), &frz(to_term(b)));
            let rt_ff = Freeze::Frozen(to_gset(a)).join(&Freeze::Frozen(to_gset(b)));
            match rt_ff {
                Freeze::Conflict => assert!(term_ff.alpha_eq(&top())),
                Freeze::Frozen(v) => {
                    let expect = frz(set(v.iter().map(|n| int(*n)).collect()));
                    assert!(result_equiv(&term_ff, &expect));
                }
                Freeze::Thawed(_) => unreachable!(),
            }
        }
    }
}

#[test]
fn frozen_queries_mirror_the_runtime_queries() {
    use lambda_join::runtime::freeze::{queries, Freeze};
    use std::collections::BTreeSet;

    let xs: BTreeSet<i64> = [1, 2, 3].into_iter().collect();
    let ys: BTreeSet<i64> = [2, 9].into_iter().collect();
    let fx = Freeze::Frozen(xs.clone());
    let fy = Freeze::Frozen(ys.clone());

    let term_set = |s: &BTreeSet<i64>| set(s.iter().map(|n| int(*n)).collect());

    // member
    for probe in [1i64, 2, 7] {
        let rt = queries::member(&fx, &probe).expect("consistent");
        let tm = eval_fuel(&member(frz(int(probe)), frz(term_set(&xs))), 8);
        let expect = if rt { tt() } else { ff() };
        assert!(tm.alpha_eq(&expect), "member {probe}");
    }
    // difference (the runtime query freezes only the subtrahend)
    let rt_diff = queries::difference(&xs, &fy).expect("consistent");
    let tm_diff = eval_fuel(&diff(frz(term_set(&xs)), frz(term_set(&ys))), 8);
    assert!(result_equiv(&tm_diff, &term_set(&rt_diff)));
    // cardinality
    let rt_card = queries::cardinality(&fx).expect("consistent");
    let tm_card = eval_fuel(&set_size(frz(term_set(&xs))), 8);
    assert!(tm_card.alpha_eq(&int(rt_card as i64)));
}
