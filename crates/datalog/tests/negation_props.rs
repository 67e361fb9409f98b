//! Property tests for stratified negation: random stratified programs
//! evaluated against an independent reference evaluator (naive
//! assignment enumeration over the constant domain, one fixpoint per
//! stratum), agreement across all engine strategies and join modes, and
//! surface-syntax round-trips for `not` / `!`.

use std::collections::{BTreeMap, BTreeSet};

use lambda_join_datalog::ast::{cst, var, AtomTerm};
use lambda_join_datalog::eval::{eval, eval_mode, JoinMode, Strategy as DlStrategy};
use lambda_join_datalog::{parse_program, stratify, Atom, Const, Program};
use proptest::prelude::*;

const DOMAIN: i64 = 5;

/// Reference evaluation: stratify (the stratifier has its own unit
/// suite), then per stratum run a naive fixpoint where each rule is
/// applied by enumerating *every* assignment of its variables to the
/// constant domain `0..DOMAIN` and checking the body literally. No
/// plans, no indexes, no tries — a genuinely different mechanism. The
/// facts come from [`Program::facts`], decoded from the fact store.
fn reference_eval(p: &Program) -> BTreeMap<(String, usize), BTreeSet<Vec<i64>>> {
    let strata = stratify(p).expect("reference_eval takes stratified programs");
    let mut db: BTreeMap<(String, usize), BTreeSet<Vec<i64>>> = BTreeMap::new();
    let as_int = |c: &Const| match c {
        Const::Int(n) => *n,
        other => panic!("reference handles int constants only, got {other:?}"),
    };
    let vars_of = |rule: &lambda_join_datalog::Rule| {
        let mut vs: Vec<String> = Vec::new();
        for a in rule.body.iter().chain(rule.neg.iter()).chain([&rule.head]) {
            for t in &a.args {
                if let AtomTerm::Var(v) = t {
                    if !vs.contains(v) {
                        vs.push(v.clone());
                    }
                }
            }
        }
        vs
    };
    let ground = |a: &Atom, env: &BTreeMap<String, i64>| -> Vec<i64> {
        a.args
            .iter()
            .map(|t| match t {
                AtomTerm::Const(c) => as_int(c),
                AtomTerm::Var(v) => env[v],
            })
            .collect()
    };
    // Ground facts are not rules; seed them all before the first stratum.
    // That is the same model as loading each with its predicate's
    // stratum: a positive dependency never goes up a stratum and a
    // negated one goes strictly down, so no stratum below a fact's own
    // can read its predicate.
    for (pred, tuple) in p.facts() {
        db.entry((pred.to_string(), tuple.len()))
            .or_default()
            .insert(tuple.iter().map(as_int).collect());
    }
    for stratum in 0..strata.count {
        loop {
            let mut new: Vec<((String, usize), Vec<i64>)> = Vec::new();
            for rule in &p.rules {
                if strata.rule_stratum(rule) != stratum {
                    continue;
                }
                let vs = vars_of(rule);
                let mut env: BTreeMap<String, i64> = BTreeMap::new();
                let mut counter = vec![0i64; vs.len()];
                'assignments: loop {
                    for (v, c) in vs.iter().zip(&counter) {
                        env.insert(v.clone(), *c);
                    }
                    let holds = |a: &Atom| {
                        db.get(&(a.pred.clone(), a.args.len()))
                            .is_some_and(|s| s.contains(&ground(a, &env)))
                    };
                    if rule.body.iter().all(holds) && !rule.neg.iter().any(holds) {
                        let key = (rule.head.pred.clone(), rule.head.args.len());
                        new.push((key, ground(&rule.head, &env)));
                    }
                    // Odometer over the domain; empty vs = one assignment.
                    for c in counter.iter_mut() {
                        *c += 1;
                        if *c < DOMAIN {
                            continue 'assignments;
                        }
                        *c = 0;
                    }
                    break;
                }
            }
            let mut changed = false;
            for (key, row) in new {
                changed |= db.entry(key).or_default().insert(row);
            }
            if !changed {
                break;
            }
        }
    }
    db
}

/// The engine's database as the reference's representation. Predicates
/// are merged by name at the tree boundary, so re-key by (name, arity).
fn engine_as_sets(
    db: &lambda_join_datalog::Database,
) -> BTreeMap<(String, usize), BTreeSet<Vec<i64>>> {
    let mut out: BTreeMap<(String, usize), BTreeSet<Vec<i64>>> = BTreeMap::new();
    for (pred, tuples) in db {
        for t in tuples {
            let row: Vec<i64> = t
                .iter()
                .map(|c| match c {
                    Const::Int(n) => *n,
                    other => panic!("int-only programs, got {other:?}"),
                })
                .collect();
            out.entry((pred.clone(), row.len()))
                .or_default()
                .insert(row);
        }
    }
    out
}

/// Random stratified-by-construction programs over a layered vocabulary:
/// base facts `b/1`, `e/2`; derived `p0/1`, `p1/1`, `p2/1` where `pi`'s
/// rules may use any base or `pj` (j ≤ i) positively but negate only
/// `pj` with j < i — so negation always points strictly down and every
/// draw is stratifiable, while positive recursion within a layer is
/// allowed.
fn arb_stratified_program() -> impl Strategy<Value = Program> {
    let fact_b = prop::collection::vec(0i64..DOMAIN, 0..6usize);
    let fact_e = prop::collection::vec((0i64..DOMAIN, 0i64..DOMAIN), 0..8usize);
    // A rule draw: (layer, head var selector, positive atoms, negated layers).
    let pos_atom = (0usize..5, 0usize..2, 0usize..2); // pred code, two var selectors
    let rule = (
        0usize..3,
        0usize..2,
        prop::collection::vec(pos_atom, 1..4usize),
        prop::collection::vec(0usize..3, 0..2usize),
    );
    (fact_b, fact_e, prop::collection::vec(rule, 0..6usize)).prop_map(|(bs, es, rules)| {
        const VARS: [&str; 2] = ["X", "Y"];
        let mut p = Program::new();
        for b in bs {
            p.fact(Atom::new("b", vec![cst(b)]));
        }
        for (s, t) in es {
            p.fact(Atom::new("e", vec![cst(s), cst(t)]));
        }
        for (layer, hsel, pos, neg_layers) in rules {
            // Positive predicate codes: 0 = b/1, 1 = e/2, 2..5 = p0..p2
            // clamped to layers ≤ this rule's layer.
            let body: Vec<Atom> = pos
                .into_iter()
                .map(|(code, v0, v1)| match code {
                    0 => Atom::new("b", vec![var(VARS[v0])]),
                    1 => Atom::new("e", vec![var(VARS[v0]), var(VARS[v1])]),
                    c => {
                        let l = (c - 2).min(layer);
                        Atom::new(&format!("p{l}"), vec![var(VARS[v0])])
                    }
                })
                .collect();
            let bound: Vec<&str> = VARS
                .iter()
                .copied()
                .filter(|v| {
                    body.iter().any(|a| {
                        a.args
                            .iter()
                            .any(|t| matches!(t, AtomTerm::Var(w) if w == v))
                    })
                })
                .collect();
            // Negated atoms: strictly lower layers, vars from the
            // positive body (safety by construction). Layer 0 rules
            // get no negation.
            let neg: Vec<Atom> = if layer == 0 {
                vec![]
            } else {
                neg_layers
                    .into_iter()
                    .map(|nl| Atom::new(&format!("p{}", nl % layer), vec![var(bound[0])]))
                    .collect()
            };
            let head = Atom::new(&format!("p{layer}"), vec![var(bound[hsel % bound.len()])]);
            p.rule_neg(head, body, neg);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stratified_programs_match_reference(p in arb_stratified_program()) {
        let want = reference_eval(&p);
        let (naive, _) = eval(&p, DlStrategy::Naive);
        let (semi, _) = eval(&p, DlStrategy::Seminaive);
        let (binary, _) = eval_mode(&p, DlStrategy::Seminaive, JoinMode::Binary);
        prop_assert_eq!(engine_as_sets(&naive), want.clone(), "naive != reference");
        prop_assert_eq!(engine_as_sets(&semi), want.clone(), "seminaive != reference");
        prop_assert_eq!(engine_as_sets(&binary), want, "binary != reference");
    }
}

#[test]
fn parsed_negation_round_trips() {
    let p = parse_program(
        "node(0). node(1). node(2). edge(0, 1). reach(0). \
         reach(Y) :- reach(X), edge(X, Y). \
         unreached(X) :- node(X), not reach(X). \
         also(X) :- node(X), !reach(X).",
    )
    .unwrap();
    let (db, _) = eval(&p, DlStrategy::Seminaive);
    let want: BTreeSet<Vec<Const>> = [vec![Const::Int(2)]].into_iter().collect();
    assert_eq!(db["unreached"], want);
    assert_eq!(db["also"], want, "`!` and `not` must parse identically");
}

#[test]
fn predicate_named_not_still_parses() {
    // `not(...)` as a predicate is positive; `not foo(...)` is negation.
    let p = parse_program("not(1). q(X) :- not(X).").unwrap();
    let (db, _) = eval(&p, DlStrategy::Seminaive);
    assert_eq!(db["q"].len(), 1);
}

#[test]
fn parser_rejects_unsafe_negation() {
    let err = parse_program("b(0). u(X) :- b(X), not r(X, Y).").unwrap_err();
    assert!(
        err.to_string().contains("unbound in positive body"),
        "{err}"
    );
}

#[test]
fn non_stratifiable_is_a_checkable_error() {
    let p = parse_program("n(0). p(X) :- n(X), not q(X). q(X) :- n(X), p(X).").unwrap();
    let err = stratify(&p).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not stratifiable"), "{msg}");
    assert!(msg.contains("p/1"), "{msg}");
    assert!(msg.contains("q/1"), "{msg}");
}

#[test]
fn window_negation_example_all_strategies() {
    // Deterministic end-to-end sanity: "nodes not on any cycle through 0"
    // style double negation across three strata.
    let p = parse_program(
        "node(0). node(1). node(2). node(3). \
         edge(0, 1). edge(1, 0). edge(1, 2). \
         fwd(0). fwd(Y) :- fwd(X), edge(X, Y). \
         dead(X) :- node(X), not fwd(X). \
         live(X) :- node(X), not dead(X).",
    )
    .unwrap();
    let want = reference_eval(&p);
    for db in [
        eval(&p, DlStrategy::Naive).0,
        eval(&p, DlStrategy::Seminaive).0,
        eval_mode(&p, DlStrategy::Seminaive, JoinMode::Binary).0,
    ] {
        assert_eq!(engine_as_sets(&db), want);
    }
    let live: Vec<Vec<Const>> = eval(&p, DlStrategy::Seminaive).0["live"]
        .iter()
        .cloned()
        .collect();
    assert_eq!(
        live,
        vec![
            vec![Const::Int(0)],
            vec![Const::Int(1)],
            vec![Const::Int(2)]
        ]
    );
}
