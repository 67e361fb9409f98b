//! Property tests for the worst-case-optimal leapfrog triejoin: on every
//! body the planner routes to the trie path, the result — database,
//! round count, and derivation count — must be identical to the forced
//! binary nested-loop join and to a brute-force reference, across naive
//! and seminaive evaluation.
//!
//! The random generators stay small, so no trie run below the root grows
//! past the linear-scan length of `store::seek`. A fixed hub-heavy graph
//! (one node of out-degree 220 among sparse ones, 300 root keys) runs the
//! galloping branches too: the leapfrog seeks on long runs and the
//! probe-the-longer final-level intersection on triangles and
//! same-generation, the forward merge seeks on transitive closure.

use std::collections::{BTreeMap, BTreeSet};

use lambda_join_core::rng::XorShift64;
use lambda_join_datalog::ast::{cst, var};
use lambda_join_datalog::eval::{
    eval_ids, eval_ids_mode, eval_mode, same_generation_program, transitive_closure_program,
    triangle_program, EvalStats, JoinMode, Strategy as DlStrategy,
};
use lambda_join_datalog::{Atom, Const, Program};
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..12, 0i64..12), 0..40)
}

/// Every `(x, y, z)` with `e(x,y)`, `e(y,z)`, `e(x,z)` — the reference
/// the triejoin and the binary planner must both reproduce.
fn brute_triangles(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64, i64)> {
    let set: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    let mut out = BTreeSet::new();
    for &(x, y) in &set {
        for &(y2, z) in &set {
            if y2 == y && set.contains(&(x, z)) {
                out.insert((x, y, z));
            }
        }
    }
    out
}

/// All strategies and both join modes on one program, returning the
/// seminaive/auto database for reference checks. Stats are compared
/// exactly: the two plan kinds enumerate the same satisfying assignments
/// round for round.
fn assert_modes_agree(p: &Program) -> lambda_join_datalog::IdDatabase {
    let (auto_db, auto_stats) = eval_ids(p, DlStrategy::Seminaive);
    let (bin_db, bin_stats) = eval_ids_mode(p, DlStrategy::Seminaive, JoinMode::Binary);
    assert_eq!(
        auto_db.to_database(),
        bin_db.to_database(),
        "wcoj != binary (seminaive)"
    );
    assert_eq!(auto_stats, bin_stats, "wcoj/binary stats diverge");
    let (naive_db, _) = eval_ids(p, DlStrategy::Naive);
    assert_eq!(
        naive_db.to_database(),
        auto_db.to_database(),
        "wcoj naive != seminaive"
    );
    let (nb_db, _) = eval_ids_mode(p, DlStrategy::Naive, JoinMode::Binary);
    assert_eq!(
        nb_db.to_database(),
        naive_db.to_database(),
        "wcoj != binary (naive)"
    );
    auto_db
}

/// A random program of cyclic conjunctive queries: rule `i` derives
/// `out{i}/2`, and each body atom reads `e/2` or the head of an earlier
/// rule or of rule `i` itself — so a rule may be recursive — over
/// variables `X,Y,Z,W`. Most draws share ≥ 2 join variables and run under
/// the triejoin, while degenerate draws (chains, single shared variable,
/// ground repeats) fall back to the binary path — the planner's routing
/// decision is part of what's tested. Some rules also carry a negated
/// premise over a facts-only relation: unary `not blocked(V)`, or ground
/// `not off()` with the `off()` fact present in some programs and absent
/// in others.
fn arb_cyclic_program() -> impl Strategy<Value = Program> {
    const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
    // (relation selector, first variable, second variable)
    let body_atom = (0usize..8, 0usize..4, 0usize..4);
    let rule = (
        (0usize..4, 0usize..4), // head variable selectors
        prop::collection::vec(body_atom, 2..5usize),
        (0usize..3, 0usize..4), // negation: none/blocked/off, variable selector
    );
    let blocked = prop::collection::vec(0i64..12, 0..6usize);
    (
        arb_edges(),
        prop::collection::vec(rule, 1..4usize),
        blocked,
        0u8..3,
    )
        .prop_map(|(edges, rules, blocked, off)| {
            let mut p = Program::new();
            for (s, t) in edges {
                p.fact(Atom::new("e", vec![cst(s), cst(t)]));
            }
            for b in blocked {
                p.fact(Atom::new("blocked", vec![cst(b)]));
            }
            if off > 0 {
                p.fact(Atom::new("off", vec![]));
            }
            for (ri, ((h0, h1), body, (neg, nv))) in rules.into_iter().enumerate() {
                let body: Vec<Atom> = body
                    .into_iter()
                    .map(|(r, a, b)| {
                        // Relation 0 is `e`, relation `j + 1` is `out{j}`.
                        let name = match r % (ri + 2) {
                            0 => "e".to_string(),
                            j => format!("out{}", j - 1),
                        };
                        Atom::new(&name, vec![var(VARS[a]), var(VARS[b])])
                    })
                    .collect();
                let mut body_vars: Vec<&'static str> = Vec::new();
                for atom in &body {
                    for t in &atom.args {
                        if let lambda_join_datalog::AtomTerm::Var(v) = t {
                            let v = VARS.iter().find(|w| **w == v.as_str()).unwrap();
                            if !body_vars.contains(v) {
                                body_vars.push(v);
                            }
                        }
                    }
                }
                let pick = |i: usize| var(body_vars[i % body_vars.len()]);
                let head = Atom::new(&format!("out{ri}"), vec![pick(h0), pick(h1)]);
                let negs = match neg {
                    0 => vec![],
                    1 => vec![Atom::new("blocked", vec![pick(nv)])],
                    _ => vec![Atom::new("off", vec![])],
                };
                p.rule_neg(head, body, negs);
            }
            p
        })
}

/// Random parent edges forming a forest: node `i`'s parent is drawn from
/// `0..i`, with some nodes left as roots. Drives the recursive
/// same-generation program, whose triejoin rule derives new facts every
/// round — the property that pins incremental trie refresh across
/// seminaive rounds.
fn arb_forest() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(0u64..u64::MAX, 1..16usize).prop_map(|draws| {
        draws
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| {
                let child = (i + 1) as i64;
                // ~1 in 4 nodes is a root.
                (d % 4 != 0).then(|| ((d % (child as u64)) as i64, child))
            })
            .collect()
    })
}

/// Reference same-generation closure by least-fixpoint iteration over
/// tuple sets.
fn brute_sg(parents: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let par: BTreeSet<(i64, i64)> = parents.iter().copied().collect();
    let mut sg: BTreeSet<(i64, i64)> = BTreeSet::new();
    for &(p1, x) in &par {
        for &(p2, y) in &par {
            if p1 == p2 {
                sg.insert((x, y));
            }
        }
    }
    loop {
        let mut next = sg.clone();
        for &(p, x) in &par {
            for &(pp, qq) in &sg {
                if pp == p {
                    for &(q, y) in &par {
                        if q == qq {
                            next.insert((x, y));
                        }
                    }
                }
            }
        }
        if next == sg {
            return sg;
        }
        sg = next;
    }
}

fn int_pairs(db: &lambda_join_datalog::IdDatabase, pred: &str) -> BTreeSet<(i64, i64)> {
    db.rows(pred)
        .into_iter()
        .map(|row| match row.as_slice() {
            [lambda_join_datalog::Const::Int(a), lambda_join_datalog::Const::Int(b)] => (*a, *b),
            other => panic!("expected int pair, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn triangles_match_bruteforce_in_both_modes(edges in arb_edges()) {
        let p = triangle_program(&edges);
        let db = assert_modes_agree(&p);
        let got: BTreeSet<(i64, i64, i64)> = db
            .rows("triangle")
            .into_iter()
            .map(|row| match row.as_slice() {
                [lambda_join_datalog::Const::Int(a),
                 lambda_join_datalog::Const::Int(b),
                 lambda_join_datalog::Const::Int(c)] => (*a, *b, *c),
                other => panic!("expected int triple, got {other:?}"),
            })
            .collect();
        prop_assert_eq!(got, brute_triangles(&edges));
    }

    #[test]
    fn random_cyclic_queries_agree_across_modes(p in arb_cyclic_program()) {
        assert_modes_agree(&p);
    }

    #[test]
    fn recursive_sg_matches_reference_and_refreshes_tries(parents in arb_forest()) {
        // The recursive rule runs under the triejoin and derives new sg
        // facts round after round; agreement with the reference closure
        // (and with forced binary) pins trie invalidation + incremental
        // rebuild across seminaive rounds.
        let p = same_generation_program(&parents);
        let db = assert_modes_agree(&p);
        prop_assert_eq!(int_pairs(&db, "sg"), brute_sg(&parents));
    }
}

/// The hub-heavy graph: node 0 points at nodes 1..=220; every other node
/// below 300 has one or two short forward edges inside its block of 20;
/// and four nodes point back at the hub, so the closure runs through it.
fn hub_graph() -> Vec<(i64, i64)> {
    let mut rng = XorShift64::new(0x0048_5542);
    let mut edges: BTreeSet<(i64, i64)> = (1..=220).map(|i| (0, i)).collect();
    for i in 1..300i64 {
        for _ in 0..1 + rng.below(2) {
            let j = i + 1 + rng.below(6) as i64;
            if j < 300 && j / 20 == i / 20 {
                edges.insert((i, j));
            }
        }
    }
    edges.extend([(5, 0), (47, 0), (133, 0), (250, 0)]);
    edges.into_iter().collect()
}

fn successors(edges: &[(i64, i64)]) -> BTreeMap<i64, Vec<i64>> {
    let mut succ: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(a, b) in edges {
        succ.entry(a).or_default().push(b);
    }
    succ
}

/// The relation `pred` of every strategy and join mode, after checking
/// that each equals `want` and that the two join modes report equal
/// stats under each strategy. Returns the seminaive stats.
fn check_every_mode(p: &Program, pred: &str, want: &BTreeSet<Vec<Const>>) -> EvalStats {
    let mut seminaive = None;
    for strategy in [DlStrategy::Seminaive, DlStrategy::Naive] {
        let (auto_db, auto_stats) = eval_mode(p, strategy, JoinMode::Auto);
        let (bin_db, bin_stats) = eval_mode(p, strategy, JoinMode::Binary);
        for (mode, db) in [("auto", &auto_db), ("binary", &bin_db)] {
            let got = db.get(pred).cloned().unwrap_or_default();
            assert!(
                got == *want,
                "{pred}, {strategy:?}/{mode}: {} rows, want {}",
                got.len(),
                want.len()
            );
        }
        assert_eq!(auto_stats, bin_stats, "{pred}, {strategy:?}: stats diverge");
        seminaive.get_or_insert(auto_stats);
    }
    seminaive.expect("seminaive ran")
}

fn ints(t: &[i64]) -> Vec<Const> {
    t.iter().map(|&n| Const::Int(n)).collect()
}

#[test]
fn hub_heavy_graph_matches_bruteforce_in_every_mode() {
    let edges = hub_graph();
    let succ = successors(&edges);
    assert!(succ[&0].len() >= 200 && succ.len() > 32);
    let outdeg = |n: i64| succ.get(&n).map_or(0, Vec::len);

    let tri: BTreeSet<Vec<Const>> = brute_triangles(&edges)
        .into_iter()
        .map(|(x, y, z)| ints(&[x, y, z]))
        .collect();
    assert!(!tri.is_empty());
    let stats = check_every_mode(&triangle_program(&edges), "triangle", &tri);
    // One naive triejoin over facts-only `e`: each fact and each triangle
    // is one derivation.
    assert_eq!(stats.derivations, edges.len() + tri.len());

    // Reachability by depth-first search from every node.
    let mut tc: BTreeSet<Vec<Const>> = BTreeSet::new();
    let mut tc_work = 0;
    for &from in succ.keys() {
        let mut seen = BTreeSet::new();
        let mut stack = succ[&from].clone();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(succ.get(&n).into_iter().flatten());
            }
        }
        for n in seen {
            tc.insert(ints(&[from, n]));
            tc_work += outdeg(n);
        }
    }
    let stats = check_every_mode(&transitive_closure_program(&edges), "path", &tc);
    // Seminaive linear closure: each fact, each base-rule path, and each
    // path `(x, y)` joined once against `y`'s out-edges.
    assert_eq!(stats.derivations, 2 * edges.len() + tc_work);

    // Same-generation over the reversed edges, so the hub is the child of
    // 220 parents and its run of sg partners is long; the reference is a
    // worklist closure.
    let par: Vec<(i64, i64)> = edges.iter().map(|&(a, b)| (b, a)).collect();
    let children = successors(&par);
    let mut sg: BTreeSet<(i64, i64)> = BTreeSet::new();
    let mut work: Vec<(i64, i64)> = Vec::new();
    for kids in children.values() {
        for &x in kids {
            for &y in kids {
                if sg.insert((x, y)) {
                    work.push((x, y));
                }
            }
        }
    }
    while let Some((p, q)) = work.pop() {
        for &x in children.get(&p).into_iter().flatten() {
            for &y in children.get(&q).into_iter().flatten() {
                if sg.insert((x, y)) {
                    work.push((x, y));
                }
            }
        }
    }
    assert!(sg.iter().filter(|&&(x, _)| x == 0).count() >= 200);
    let sg: BTreeSet<Vec<Const>> = sg.into_iter().map(|(x, y)| ints(&[x, y])).collect();
    check_every_mode(&same_generation_program(&par), "sg", &sg);
}
