//! Differential oracles for the two fast paths facts and linear recursion
//! take:
//!
//! * **the fact store** — a program parsed from source text and the same
//!   program assembled with the builders put their facts through one
//!   interning path, so they must evaluate to the same rows with the same
//!   [`EvalStats`] under every strategy and join mode. The facts cover
//!   negative and extreme integers, quoted and bare string constants,
//!   duplicates, one name at two arities, and facts of a predicate that
//!   rules also derive in a higher stratum;
//! * **the sorted merge** — linear-recursive rules whose probed relation
//!   is complete walk a sorted trie instead of probing a hash index. They
//!   are checked against naive evaluation, against forced binary joins
//!   where the planner would pick a triejoin, against a brute-force
//!   closure computed here, and against a non-linear formulation whose
//!   probe stays on the hash index. The graphs carry self-loops, duplicate
//!   edges, a constant in the probe key and two-level probe keys, one of
//!   them two delta columns in order.

use std::collections::BTreeSet;

use lambda_join_datalog::ast::{cst, var};
use lambda_join_datalog::eval::{eval_ids_mode, JoinMode, Strategy as DlStrategy};
use lambda_join_datalog::{parse_program, Atom, Const, EvalStats, IdDatabase, Program};
use proptest::prelude::*;

const MODES: [(DlStrategy, JoinMode); 4] = [
    (DlStrategy::Naive, JoinMode::Auto),
    (DlStrategy::Naive, JoinMode::Binary),
    (DlStrategy::Seminaive, JoinMode::Auto),
    (DlStrategy::Seminaive, JoinMode::Binary),
];

/// Every predicate's rows, decoded and sorted.
type Rows = Vec<(String, Vec<Vec<Const>>)>;

fn all_rows(db: &IdDatabase) -> Rows {
    db.relation_names()
        .into_iter()
        .map(|n| {
            let rows = db.rows(&n);
            (n, rows)
        })
        .collect()
}

fn run(p: &Program, strategy: DlStrategy, mode: JoinMode) -> (Rows, EvalStats) {
    let (db, stats) = eval_ids_mode(p, strategy, mode);
    (all_rows(&db), stats)
}

/// Source text for a constant; strings come bare when they lex as a
/// lowercase identifier and `quoted` does not force quotes.
fn render(c: &Const, quoted: bool) -> String {
    match c {
        Const::Int(n) => n.to_string(),
        Const::Str(s)
            if !quoted
                && s.starts_with(|ch: char| ch.is_ascii_lowercase())
                && s.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_') =>
        {
            s.clone()
        }
        Const::Str(s) => format!("\"{s}\""),
    }
}

fn arb_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        (-3i64..4).prop_map(Const::Int),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(-1_000_000_007i64)].prop_map(Const::Int),
        prop_oneof![
            Just("alice"),
            Just("bob"),
            Just("x_1"),
            Just("Upper Case"),
            Just("a, b. c"),
            Just("λ"),
            Just(""),
        ]
        .prop_map(Const::from),
    ]
}

/// A fact over the program's vocabulary: `e/2` (recursive base), `p/1`
/// and `p/2` (one name, two arities), and `q/1`, which rules also derive
/// in stratum 1.
fn arb_fact() -> impl Strategy<Value = (&'static str, Vec<Const>)> {
    prop_oneof![
        (arb_const(), arb_const()).prop_map(|(a, b)| ("e", vec![a, b])),
        arb_const().prop_map(|a| ("p", vec![a])),
        (arb_const(), arb_const()).prop_map(|(a, b)| ("p", vec![a, b])),
        arb_const().prop_map(|a| ("q", vec![a])),
    ]
}

const RULES: &str = "\
    t(X, Y) :- e(X, Y).\n\
    t(X, Z) :- t(X, Y), e(Y, Z).\n\
    q(X) :- p(X, Y), not t(X, Y).\n\
    r(X) :- q(X), p(X).\n";

fn built(facts: &[(&str, Vec<Const>)]) -> Program {
    let mut p = Program::new();
    for (pred, args) in facts {
        p.fact(Atom::new(pred, args.iter().cloned().map(cst).collect()));
    }
    let (x, y, z) = (|| var("X"), || var("Y"), || var("Z"));
    p.rule(
        Atom::new("t", vec![x(), y()]),
        vec![Atom::new("e", vec![x(), y()])],
    );
    p.rule(
        Atom::new("t", vec![x(), z()]),
        vec![
            Atom::new("t", vec![x(), y()]),
            Atom::new("e", vec![y(), z()]),
        ],
    );
    p.rule_neg(
        Atom::new("q", vec![x()]),
        vec![Atom::new("p", vec![x(), y()])],
        vec![Atom::new("t", vec![x(), y()])],
    );
    p.rule(
        Atom::new("r", vec![x()]),
        vec![Atom::new("q", vec![x()]), Atom::new("p", vec![x()])],
    );
    p
}

fn source(facts: &[(&str, Vec<Const>)], quoted: bool) -> String {
    let mut src = String::new();
    for (pred, args) in facts {
        let args: Vec<String> = args.iter().map(|c| render(c, quoted)).collect();
        src.push_str(&format!("{pred}({}).\n", args.join(", ")));
    }
    src + RULES
}

/// Reachability closure of `edges`, computed directly.
fn closure(edges: &BTreeSet<(i64, i64)>) -> BTreeSet<(i64, i64)> {
    let mut tc = edges.clone();
    loop {
        let next: Vec<(i64, i64)> = tc
            .iter()
            .flat_map(|&(a, b)| {
                edges
                    .range((b, i64::MIN)..=(b, i64::MAX))
                    .map(move |&(_, c)| (a, c))
            })
            .filter(|pair| !tc.contains(pair))
            .collect();
        if next.is_empty() {
            return tc;
        }
        tc.extend(next);
    }
}

fn int_rows(db: &IdDatabase, pred: &str) -> BTreeSet<Vec<i64>> {
    db.rows(pred)
        .into_iter()
        .map(|r| {
            r.iter()
                .map(|c| match c {
                    Const::Int(n) => *n,
                    other => panic!("int-only relation, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Source text and builders put facts through one path: identical
    /// rows and statistics in every mode, quoted or bare strings alike.
    #[test]
    fn parsed_and_built_programs_agree(
        facts in prop::collection::vec(arb_fact(), 0..40),
    ) {
        let p_built = built(&facts);
        prop_assert_eq!(p_built.fact_count(), facts.len());
        let decoded: Vec<(&str, Vec<Const>)> = p_built.facts().collect();
        for quoted in [false, true] {
            let p_parsed = parse_program(&source(&facts, quoted)).expect("rendered source parses");
            prop_assert_eq!(p_parsed.fact_count(), facts.len());
            prop_assert_eq!(&p_parsed.facts().collect::<Vec<_>>(), &decoded);
            let mut reference = None;
            for (strategy, mode) in MODES {
                let (rows, stats) = run(&p_parsed, strategy, mode);
                prop_assert_eq!(&(rows.clone(), stats), &run(&p_built, strategy, mode));
                // Rows agree across modes too (stats differ between
                // naive and seminaive by design).
                match &reference {
                    None => reference = Some(rows),
                    Some(want) => prop_assert_eq!(&rows, want),
                }
            }
        }
        // The decoded facts are exactly the ones added, grouped by
        // (predicate, arity) in first-appearance order.
        let mut want = facts.clone();
        let mut keys: Vec<(&str, usize)> = Vec::new();
        for (p, a) in &facts {
            let k = (*p, a.len());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        want.sort_by_key(|(p, a)| keys.iter().position(|k| *k == (*p, a.len())));
        prop_assert_eq!(decoded, want);
    }

    /// Linear recursion over a complete relation runs the sorted merge;
    /// it must agree with every other way of computing the closure.
    #[test]
    fn trie_merge_matches_every_oracle(
        edges in prop::collection::vec((0i64..8, 0i64..8), 0..30),
        loops in prop::collection::vec(0i64..8, 0..3),
    ) {
        let mut p = Program::new();
        let mut edge_set = BTreeSet::new();
        for &(a, b) in edges.iter().chain(&edges[..edges.len() / 3]) {
            // The first third of the edges arrive twice.
            p.fact(Atom::new("e", vec![cst(a), cst(b)]));
            p.fact(Atom::new("lab", vec![cst(a), cst(7), cst(b)]));
            p.fact(Atom::new("lab", vec![cst(a), cst(8), cst(b + 1)]));
            // `f(Y, X, Z)` continues a path from X only where the edge
            // Y → Z carries X's label (X mod 3).
            p.fact(Atom::new("f", vec![cst(a), cst(b % 3), cst(b)]));
            edge_set.insert((a, b));
        }
        for &n in &loops {
            p.fact(Atom::new("e", vec![cst(n), cst(n)]));
            p.fact(Atom::new("lab", vec![cst(n), cst(7), cst(n)]));
            edge_set.insert((n, n));
        }
        let src = "\
            t(X, Y) :- e(X, Y).\n\
            t(X, Z) :- t(X, Y), e(Y, Z).\n\
            h(X, Y) :- e(X, Y).\n\
            h(X, Z) :- h(X, Y), h(Y, Z).\n\
            l(X, Y) :- lab(X, 7, Y).\n\
            l(X, Z) :- l(X, Y), lab(Y, 7, Z).\n\
            c(X, Y) :- e(X, Y).\n\
            c(X, Z) :- c(X, Y), e(Y, Z), e(X, Z).\n\
            k(X, Y) :- e(X, Y).\n\
            k(X, Z) :- k(X, Y), f(Y, X, Z).\n";
        let rules = parse_program(src).unwrap();
        p.rules = rules.rules;

        // `k` merges on a two-level key (Y, X); its reference closure:
        let f: BTreeSet<(i64, i64, i64)> =
            edges.iter().map(|&(a, b)| (a, b % 3, b)).collect();
        let mut k: BTreeSet<(i64, i64)> = edge_set.clone();
        loop {
            let next: Vec<(i64, i64)> = k
                .iter()
                .flat_map(|&(x, y)| {
                    f.iter()
                        .filter(move |&&(a, l, _)| a == y && l == x)
                        .map(move |&(_, _, z)| (x, z))
                })
                .filter(|pair| !k.contains(pair))
                .collect();
            if next.is_empty() {
                break;
            }
            k.extend(next);
        }
        let want_k: BTreeSet<Vec<i64>> = k.into_iter().map(|(a, b)| vec![a, b]).collect();
        let want: BTreeSet<Vec<i64>> = closure(&edge_set).into_iter().map(|(a, b)| vec![a, b]).collect();
        let mut rows_by_mode = Vec::new();
        for (strategy, mode) in MODES {
            let (db, _) = eval_ids_mode(&p, strategy, mode);
            // `t` merges Δt against `e`'s trie; `h` probes `h` itself,
            // which grows within the stratum, so it stays on the hash
            // index; `l` carries the constant 7 in its probe key.
            prop_assert_eq!(&int_rows(&db, "t"), &want);
            prop_assert_eq!(&int_rows(&db, "h"), &want);
            prop_assert_eq!(&int_rows(&db, "l"), &want);
            prop_assert_eq!(&int_rows(&db, "k"), &want_k);
            rows_by_mode.push(int_rows(&db, "c"));
        }
        // `c` is cyclic: Auto runs the triejoin, Binary the merge.
        prop_assert!(rows_by_mode.windows(2).all(|w| w[0] == w[1]));
        let (_, auto) = eval_ids_mode(&p, DlStrategy::Seminaive, JoinMode::Auto);
        let (_, binary) = eval_ids_mode(&p, DlStrategy::Seminaive, JoinMode::Binary);
        prop_assert_eq!(auto, binary);
    }

    /// A merge keyed by two delta columns: `r`'s delta plan probes `hop`
    /// by (X, Y), both bound by Δr. Forced binary joins run that merge;
    /// Auto runs the triejoin (two shared join variables). Both must
    /// equal naive evaluation and a brute-force closure.
    #[test]
    fn two_column_merge_key_matches_every_oracle(
        edges in prop::collection::vec((0i64..8, 0i64..8), 0..24),
        hops in prop::collection::vec((0i64..8, 0i64..8, 0i64..8), 0..40),
    ) {
        let mut p = parse_program("r(X, Y) :- e(X, Y).\nr(X, Z) :- r(X, Y), hop(X, Y, Z).\n")
            .unwrap();
        for &(a, b) in &edges {
            p.fact(Atom::new("e", vec![cst(a), cst(b)]));
        }
        for &(a, b, c) in hops.iter().chain(&hops[..hops.len() / 3]) {
            // The first third of the hops arrive twice.
            p.fact(Atom::new("hop", vec![cst(a), cst(b), cst(c)]));
        }
        let mut r: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
        loop {
            let next: Vec<(i64, i64)> = r
                .iter()
                .flat_map(|&(x, y)| {
                    hops.iter()
                        .filter(move |&&(a, b, _)| (a, b) == (x, y))
                        .map(move |&(_, _, z)| (x, z))
                })
                .filter(|pair| !r.contains(pair))
                .collect();
            if next.is_empty() {
                break;
            }
            r.extend(next);
        }
        let want: BTreeSet<Vec<i64>> = r.into_iter().map(|(a, b)| vec![a, b]).collect();
        for (strategy, mode) in MODES {
            let (db, _) = eval_ids_mode(&p, strategy, mode);
            prop_assert_eq!(&int_rows(&db, "r"), &want, "{:?} {:?}", strategy, mode);
        }
        let (_, auto) = eval_ids_mode(&p, DlStrategy::Seminaive, JoinMode::Auto);
        let (_, binary) = eval_ids_mode(&p, DlStrategy::Seminaive, JoinMode::Binary);
        prop_assert_eq!(auto, binary);
    }
}

#[test]
fn one_fact_path_for_source_and_builders() {
    // Facts of a predicate that rules derive in stratum 1 load with that
    // stratum; nullary facts are ordinary one-row blocks.
    let src = "n(1). n(2). n(3). e(1, 2). q(3). q(3).\n\
               t(X, Y) :- e(X, Y). q(X) :- n(X), not t(1, X).";
    let parsed = parse_program(src).unwrap();
    let mut built = Program::new();
    for n in [1, 2, 3] {
        built.fact(Atom::new("n", vec![cst(n)]));
    }
    built.fact(Atom::new("e", vec![cst(1), cst(2)]));
    built.fact(Atom::new("q", vec![cst(3)]));
    built.fact(Atom::new("q", vec![cst(3)]));
    built.rules = parsed.rules.clone();
    for (strategy, mode) in MODES {
        let (rows, stats) = run(&parsed, strategy, mode);
        assert_eq!((rows.clone(), stats), run(&built, strategy, mode));
        let q = &rows.iter().find(|(n, _)| n == "q").unwrap().1;
        assert_eq!(q, &vec![vec![Const::Int(1)], vec![Const::Int(3)]]);
    }
    let mut nullary = Program::new();
    nullary.fact(Atom::new("go", vec![]));
    nullary.fact(Atom::new("go", vec![]));
    nullary.rule(Atom::new("ok", vec![cst(1)]), vec![Atom::new("go", vec![])]);
    assert_eq!(nullary.fact_count(), 2);
    for (strategy, mode) in MODES {
        let (db, _) = eval_ids_mode(&nullary, strategy, mode);
        assert_eq!((db.fact_count("go"), db.fact_count("ok")), (1, 1));
    }
}
