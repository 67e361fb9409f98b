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
use lambda_join_datalog::{Atom, AtomTerm, Const, Program};
use proptest::prelude::*;

mod common;
use common::{arb_cyclic_program, arb_edges, arb_forest};

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
