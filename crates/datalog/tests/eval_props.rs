//! Property tests for the Datalog engine: naive and seminaive evaluation
//! agree on random programs and random graph families; results
//! match a reference reachability computation; seminaive never does more
//! work.

use std::collections::BTreeSet;

use lambda_join_datalog::ast::{cst, var};
use lambda_join_datalog::eval::{
    eval, eval_ids, eval_mode, reaches_program, transitive_closure_program, JoinMode,
    Strategy as DlStrategy,
};
use lambda_join_datalog::{Atom, Const, Program};
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..10, 0i64..10), 0..25)
}

/// Reduced-size copies of the bench crate's graph generator families
/// (`bench/src/workloads.rs`) — the bench crate depends on this one, so
/// the originals can't be imported here. Kept structurally identical so
/// the property exercises the same shapes the scale benchmarks run.
mod families {
    pub struct XorShift64(u64);
    impl XorShift64 {
        pub fn new(seed: u64) -> Self {
            XorShift64(if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            })
        }
        pub fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    pub fn random_sparse(nodes: i64, edges: usize, seed: u64) -> Vec<(i64, i64)> {
        let mut rng = XorShift64::new(seed);
        (0..edges)
            .map(|_| {
                (
                    rng.below(nodes as u64) as i64,
                    rng.below(nodes as u64) as i64,
                )
            })
            .collect()
    }

    pub fn grid(w: i64, h: i64) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let n = y * w + x;
                if x + 1 < w {
                    out.push((n, n + 1));
                }
                if y + 1 < h {
                    out.push((n, n + w));
                }
            }
        }
        out
    }

    pub fn scale_free(nodes: i64, per_node: usize, seed: u64) -> Vec<(i64, i64)> {
        let mut rng = XorShift64::new(seed);
        let mut out: Vec<(i64, i64)> = vec![(0, 1)];
        let mut pool: Vec<i64> = vec![0, 1];
        for t in 2..nodes {
            for _ in 0..per_node {
                let src = pool[rng.below(pool.len() as u64) as usize];
                out.push((src, t));
                pool.push(src);
                pool.push(t);
            }
        }
        out
    }

    pub fn chain_forest(chains: i64, len: i64) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for c in 0..chains {
            let base = c * (len + 1);
            for i in 0..len {
                out.push((base + i, base + i + 1));
            }
        }
        out
    }
}

/// A random negation-free program over a 3-predicate vocabulary —
/// `p/2`, `q/1`, `r/2` — with constants `0..5` and up to three variables
/// per rule. Head arguments are drawn from the rule's body variables (or
/// constants when the body binds none), so range restriction always
/// holds; with a finite constant vocabulary and arity ≤ 2, every program
/// has a finite fixpoint.
#[allow(clippy::type_complexity)]
fn arb_program() -> impl Strategy<Value = Program> {
    const VARS: [&str; 3] = ["X", "Y", "Z"];
    fn arity(pred: usize) -> usize {
        if pred == 1 {
            1
        } else {
            2
        }
    }
    fn pred_name(pred: usize) -> &'static str {
        ["p", "q", "r"][pred]
    }
    // An argument code: 0..5 a constant, 5..8 a variable.
    fn arg(code: usize) -> lambda_join_datalog::AtomTerm {
        if code < 5 {
            cst(code as i64)
        } else {
            var(VARS[code - 5])
        }
    }
    let fact = (0usize..3, 0i64..5, 0i64..5);
    let body_atom = (0usize..3, 0usize..8, 0usize..8);
    let rule = (
        0usize..3,              // head predicate
        (0usize..8, 0usize..8), // head argument selectors
        prop::collection::vec(body_atom, 1..4usize),
    );
    (
        prop::collection::vec(fact, 0..12usize),
        prop::collection::vec(rule, 0..5usize),
    )
        .prop_map(|(facts, rules)| {
            let mut p = Program::new();
            for (pred, a, b) in facts {
                let args = (0..arity(pred))
                    .map(|i| cst(if i == 0 { a } else { b }))
                    .collect();
                p.fact(Atom::new(pred_name(pred), args));
            }
            for (head_pred, (h0, h1), body) in rules {
                let body: Vec<Atom> = body
                    .into_iter()
                    .map(|(pred, a, b)| {
                        let codes = [a, b];
                        let args = (0..arity(pred)).map(|i| arg(codes[i])).collect();
                        Atom::new(pred_name(pred), args)
                    })
                    .collect();
                // Body variables in deterministic order, for head selection.
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
                let head_arg = |sel: usize| {
                    if body_vars.is_empty() {
                        cst((sel % 5) as i64)
                    } else {
                        var(body_vars[sel % body_vars.len()])
                    }
                };
                let selectors = [h0, h1];
                let head_args = (0..arity(head_pred))
                    .map(|i| head_arg(selectors[i]))
                    .collect();
                p.rule(Atom::new(pred_name(head_pred), head_args), body);
            }
            p
        })
}

/// Asserts the strategies agree — as tree databases (sorted fact sets by
/// construction) and as id-native row sets — and that stats match
/// between the tree and id boundaries of the seminaive engine; the whole
/// suite re-runs with the leapfrog triejoin disabled ([`JoinMode::Binary`]) to
/// pin WCOJ ≡ binary-join on every body the planner routes either way.
fn assert_strategies_agree(p: &Program) {
    let (naive, _) = eval(p, DlStrategy::Naive);
    let (semi, semi_stats) = eval(p, DlStrategy::Seminaive);
    assert_eq!(naive, semi, "naive != seminaive");
    let (idb, id_stats) = eval_ids(p, DlStrategy::Seminaive);
    assert_eq!(idb.to_database(), semi, "id boundary decode disagrees");
    assert_eq!(id_stats, semi_stats);
    let (binary, _) = eval_mode(p, DlStrategy::Seminaive, JoinMode::Binary);
    assert_eq!(binary, semi, "forced binary join diverges from auto");
}

fn reference_reachable(edges: &[(i64, i64)], start: i64) -> BTreeSet<i64> {
    let mut seen: BTreeSet<i64> = [start].into_iter().collect();
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        for (s, t) in edges {
            if *s == n && seen.insert(*t) {
                stack.push(*t);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn naive_equals_seminaive_on_tc(edges in arb_edges()) {
        let p = transitive_closure_program(&edges);
        let (naive, _) = eval(&p, DlStrategy::Naive);
        let (semi, _) = eval(&p, DlStrategy::Seminaive);
        prop_assert_eq!(naive, semi);
    }

    #[test]
    fn reaches_matches_reference(edges in arb_edges(), start in 0i64..10) {
        let p = reaches_program(&edges, start);
        let (db, _) = eval(&p, DlStrategy::Seminaive);
        let got: BTreeSet<i64> = db["reaches"]
            .iter()
            .filter_map(|t| match &t[0] {
                Const::Int(n) => Some(*n),
                _ => None,
            })
            .collect();
        prop_assert_eq!(got, reference_reachable(&edges, start));
    }

    #[test]
    fn seminaive_never_does_more_work(edges in arb_edges()) {
        let p = transitive_closure_program(&edges);
        let (_, naive) = eval(&p, DlStrategy::Naive);
        let (_, semi) = eval(&p, DlStrategy::Seminaive);
        prop_assert!(semi.derivations <= naive.derivations,
            "seminaive {} > naive {}", semi.derivations, naive.derivations);
    }

    #[test]
    fn strategies_agree_on_random_programs(p in arb_program()) {
        assert_strategies_agree(&p);
    }

    #[test]
    fn strategies_agree_on_generator_families(
        seed in 1u64..u64::MAX,
        nodes in 4i64..24,
        (w, h) in (2i64..7, 2i64..7),
        (chains, len) in (1i64..5, 1i64..6),
        start in 0i64..4,
    ) {
        // The bench generator families at property-test sizes: the same
        // shapes as the 10⁵–10⁶-edge scale benchmarks, checked across all
        // three strategies against the reference closure.
        let sparse = families::random_sparse(nodes, 2 * nodes as usize, seed);
        let cases: Vec<Vec<(i64, i64)>> = vec![
            sparse,
            families::grid(w, h),
            families::scale_free(nodes.max(2), 2, seed),
            families::chain_forest(chains, len),
        ];
        for edges in cases {
            assert_strategies_agree(&transitive_closure_program(&edges));
            let p = reaches_program(&edges, start);
            assert_strategies_agree(&p);
            let (db, _) = eval(&p, DlStrategy::Seminaive);
            let got: BTreeSet<i64> = db["reaches"]
                .iter()
                .filter_map(|t| match &t[0] {
                    Const::Int(n) => Some(*n),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(got, reference_reachable(&edges, start));
        }
    }

    #[test]
    fn tc_is_monotone_in_the_edge_set(
        edges in arb_edges(),
        extra in (0i64..10, 0i64..10),
    ) {
        // Adding an edge can only add paths — Datalog's monotonicity, the
        // property λ∨ generalises.
        let p1 = transitive_closure_program(&edges);
        let mut bigger = edges.clone();
        bigger.push(extra);
        let p2 = transitive_closure_program(&bigger);
        let (db1, _) = eval(&p1, DlStrategy::Seminaive);
        let (db2, _) = eval(&p2, DlStrategy::Seminaive);
        let paths1 = db1.get("path").cloned().unwrap_or_default();
        let paths2 = db2.get("path").cloned().unwrap_or_default();
        prop_assert!(paths1.is_subset(&paths2));
    }
}
