//! The paper's example programs and standard encodings (§2.2–§2.3),
//! pre-built as closed λ∨ terms.
//!
//! These are used by the examples, integration tests, and the benchmark
//! harness that regenerates the paper's figures.

use crate::builder::*;
use crate::symbol::Symbol;
use crate::term::TermRef;

/// `Ω = (λx. x x) (λx. x x)` — the canonical divergent term.
pub fn omega() -> TermRef {
    let half = lam("x", app(var("x"), var("x")));
    app(half.clone(), half)
}

/// A divergent *function*: `loop = fix loop. λu. loop u`.
pub fn diverge_fn() -> TermRef {
    fix("loop", lam("u", app(var("loop"), var("u"))))
}

/// `fromN` (§2.3): `fromN n = (n :: fromN (n + 1)) ∨ ⊥v` — streams the
/// infinite list of naturals starting at `n`.
pub fn from_n() -> TermRef {
    fix(
        "fromN",
        lam(
            "n",
            join(
                cons(var("n"), app(var("fromN"), add(var("n"), int(1)))),
                botv(),
            ),
        ),
    )
}

/// `head = λl. let (_, (h, _)) = l in h` for the `'cons` encoding.
pub fn head() -> TermRef {
    lam(
        "l",
        let_pair(
            "%tag",
            "%payload",
            var("l"),
            let_pair("h", "_", var("%payload"), var("h")),
        ),
    )
}

/// `plus2all xs = ⋁_{x ∈ xs} {x + 2}` (§1).
pub fn plus2all() -> TermRef {
    lam(
        "xs",
        big_join("x", var("xs"), set(vec![add(var("x"), int(2))])),
    )
}

/// `evens` (§1): the thunked fixed point
/// `evens _ = {0} ∨ plus2all (evens ())`, streaming the set of even
/// naturals. Returns the *applied* program `evens ()`.
pub fn evens() -> TermRef {
    let evens_fn = fix(
        "evens",
        lam(
            "_",
            join(set(vec![int(0)]), app(plus2all(), force(var("evens")))),
        ),
    );
    force(evens_fn)
}

/// The §3.2 search: `⋁_{x ∈ evens()} let 2 = x in "success"`.
pub fn evens_search() -> TermRef {
    big_join(
        "x",
        evens(),
        let_sym(Symbol::Int(2), var("x"), string("success")),
    )
}

/// Parallel or (§2.3): takes two thunks; converges to `'true` if either
/// forces to `'true` (even if the other diverges), to `'false` if both
/// force to `'false`.
pub fn por() -> TermRef {
    lams(
        &["x", "y"],
        joins(vec![
            let_sym(Symbol::tt(), force(var("x")), tt()),
            let_sym(Symbol::tt(), force(var("y")), tt()),
            let_sym(
                Symbol::ff(),
                force(var("x")),
                let_sym(Symbol::ff(), force(var("y")), ff()),
            ),
        ]),
    )
}

/// A description of a finite directed graph on integer node names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// Adjacency lists: `edges[i] = (source, targets)`.
    pub edges: Vec<(i64, Vec<i64>)>,
}

impl Graph {
    /// A line `0 → 1 → … → n-1`.
    pub fn line(n: i64) -> Self {
        Graph {
            edges: (0..n)
                .map(|i| (i, if i + 1 < n { vec![i + 1] } else { vec![] }))
                .collect(),
        }
    }

    /// A cycle `0 → 1 → … → n-1 → 0`.
    pub fn cycle(n: i64) -> Self {
        Graph {
            edges: (0..n).map(|i| (i, vec![(i + 1) % n])).collect(),
        }
    }

    /// A binary out-tree of the given depth (node `i` points to `2i+1`,
    /// `2i+2`).
    pub fn binary_tree(depth: u32) -> Self {
        let n = (1i64 << (depth + 1)) - 1;
        let leaves_start = (1i64 << depth) - 1;
        Graph {
            edges: (0..n)
                .map(|i| {
                    if i < leaves_start {
                        (i, vec![2 * i + 1, 2 * i + 2])
                    } else {
                        (i, vec![])
                    }
                })
                .collect(),
        }
    }

    /// The set of nodes reachable from `start` (including `start`),
    /// computed directly in Rust — the ground truth for tests.
    pub fn reachable(&self, start: i64) -> Vec<i64> {
        let mut seen = vec![start];
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if let Some((_, ts)) = self.edges.iter().find(|(s, _)| *s == n) {
                for t in ts {
                    if !seen.contains(t) {
                        seen.push(*t);
                        stack.push(*t);
                    }
                }
            }
        }
        seen.sort_unstable();
        seen
    }

    /// Encodes the graph as a λ∨ `neighbors` function:
    /// `λn. (let i = n in {targets…}) ∨ …`.
    pub fn neighbors_fn(&self) -> TermRef {
        let clauses: Vec<TermRef> = self
            .edges
            .iter()
            .map(|(src, tgts)| {
                let_sym(
                    Symbol::Int(*src),
                    var("%n"),
                    set(tgts.iter().map(|t| int(*t)).collect()),
                )
            })
            .collect();
        lam("%n", joins(clauses))
    }
}

/// `reaches` (§2.3): `reaches x = {x} ∨ ⋁_{n ∈ neighbors x} reaches n`,
/// specialised to the given graph and applied to `start`.
pub fn reaches(graph: &Graph, start: i64) -> TermRef {
    let reaches_fn = fix(
        "reaches",
        lam(
            "x",
            join(
                set(vec![var("x")]),
                big_join(
                    "n",
                    app(graph.neighbors_fn(), var("x")),
                    app(var("reaches"), var("n")),
                ),
            ),
        ),
    );
    app(reaches_fn, int(start))
}

/// The two-phase-commit system of Figure 3.
///
/// Three nodes — two peers and a coordinator — exchange record-typed state;
/// the system is the recursive thunk
/// `system () = {||} ∨ peer1 (system ()) ∨ peer2 (system ()) ∨ coordinator (system ())`.
///
/// Returns the applied program `system ()`, whose observations evolve as in
/// Figure 4 and reach the fixed point
/// `{res = "accepted", ok1 = true, ok2 = true, proposal = 5}`.
pub fn two_phase_commit() -> TermRef {
    // peer1 {proposal} = {ok1 = proposal > 4}
    let peer1 = lam(
        "state",
        record(vec![("ok1", lt(int(4), project(var("state"), "proposal")))]),
    );
    // peer2 {proposal} = {ok2 = proposal <= 6}
    let peer2 = lam(
        "state",
        record(vec![("ok2", le(project(var("state"), "proposal"), int(6)))]),
    );
    // displayResult result = if result then "accepted" else "rejected"
    let display_result = lam(
        "result",
        ite(var("result"), string("accepted"), string("rejected")),
    );
    // and r1 r2 = if r1 then r2 else false
    let and = lams(&["a", "b"], ite(var("a"), var("b"), ff()));
    // coordinator state = {proposal = 5}
    //   ∨ (let {ok1, ok2} = state in {res = displayResult (ok1 && ok2)})
    let coordinator = lam(
        "state",
        join(
            record(vec![("proposal", int(5))]),
            let_in(
                "ok1",
                project(var("state"), "ok1"),
                let_in(
                    "ok2",
                    project(var("state"), "ok2"),
                    record(vec![(
                        "res",
                        app(display_result, apps(and, vec![var("ok1"), var("ok2")])),
                    )]),
                ),
            ),
        ),
    );
    // system () = {||} ∨ peer1 (system()) ∨ peer2 (system()) ∨ coord (system())
    let system = fix(
        "system",
        lam(
            "_",
            joins(vec![
                record(vec![]),
                app(peer1, force(var("system"))),
                app(peer2, force(var("system"))),
                app(coordinator, force(var("system"))),
            ]),
        ),
    );
    force(system)
}

/// Peano encodings of naturals as ADTs (§2.2): `zero = ('zero, ⊥v)`,
/// `succ n = ('succ, n)`. These carry the discrete streaming order, like
/// the primitive integer symbols.
pub mod peano {
    use super::*;

    /// The numeral for `n`.
    pub fn numeral(n: u64) -> TermRef {
        let mut t = pair(name("zero"), botv());
        for _ in 0..n {
            t = pair(name("succ"), t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigstep::{eval_converged, eval_fuel};
    use crate::observe::{result_equiv, result_leq};

    #[test]
    fn from_n_streams_zero_one_two() {
        let t = app(from_n(), int(0));
        let r = eval_fuel(&t, 12);
        // 0 :: 1 :: 2 :: … ⊥v — check the first two elements.
        let prefix = cons(int(0), cons(int(1), botv()));
        assert!(result_leq(&prefix, &r), "got {r}");
    }

    #[test]
    fn head_from_n_is_zero() {
        let t = app(head(), app(from_n(), int(0)));
        assert!(eval_fuel(&t, 10).alpha_eq(&int(0)));
    }

    #[test]
    fn evens_contains_evens_only() {
        let r = eval_fuel(&evens(), 40);
        assert!(result_leq(&set(vec![int(0), int(2), int(4)]), &r));
        assert!(!result_leq(&set(vec![int(1)]), &r));
    }

    #[test]
    fn evens_search_finds_two() {
        assert!(eval_fuel(&evens_search(), 40).alpha_eq(&string("success")));
    }

    #[test]
    fn por_truth_table_with_divergence() {
        let tthunk = thunk(tt());
        let fthunk = thunk(ff());
        let dthunk = thunk(app(diverge_fn(), unit()));
        let cases: Vec<(TermRef, TermRef, TermRef)> = vec![
            (tthunk.clone(), dthunk.clone(), tt()),
            (dthunk.clone(), tthunk.clone(), tt()),
            (tthunk.clone(), fthunk.clone(), tt()),
            (fthunk.clone(), fthunk.clone(), ff()),
            (dthunk.clone(), dthunk.clone(), bot()),
            (fthunk.clone(), dthunk.clone(), bot()),
        ];
        for (x, y, expect) in cases {
            let t = apps(por(), vec![x, y]);
            let r = eval_fuel(&t, 40);
            assert!(r.alpha_eq(&expect), "por gave {r}, wanted {expect}");
        }
    }

    #[test]
    fn reaches_on_line_and_cycle() {
        for g in [Graph::line(4), Graph::cycle(4)] {
            let t = reaches(&g, 0);
            let (r, _) = eval_converged(&t, 400, 10, 4);
            let expect = set(g.reachable(0).into_iter().map(int).collect());
            assert!(result_equiv(&r, &expect), "graph {g:?}: got {r}");
        }
    }

    #[test]
    fn reaches_subgraph_from_middle() {
        let g = Graph::line(5);
        let t = reaches(&g, 3);
        let (r, _) = eval_converged(&t, 200, 10, 4);
        let expect = set(vec![int(3), int(4)]);
        assert!(result_equiv(&r, &expect), "got {r}");
    }

    #[test]
    fn two_phase_commit_reaches_accepted() {
        let t = two_phase_commit();
        let r = eval_fuel(&t, 24);
        // The final state is a record (a function); project its fields.
        // Since eval produces a value, re-apply projections.
        for (fld, want) in [
            ("proposal", int(5)),
            ("ok1", tt()),
            ("ok2", tt()),
            ("res", string("accepted")),
        ] {
            let proj = eval_fuel(&project(r.clone(), fld), 8);
            assert!(proj.alpha_eq(&want), "field {fld}: got {proj}");
        }
    }

    /// Peano addition `add m n`, by recursion on the first argument.
    fn peano_add() -> TermRef {
        fix(
            "add",
            lams(
                &["m", "n"],
                let_pair(
                    "%tag",
                    "%pred",
                    var("m"),
                    join(
                        let_sym(Symbol::name("zero"), var("%tag"), var("n")),
                        let_sym(
                            Symbol::name("succ"),
                            var("%tag"),
                            pair(name("succ"), apps(var("add"), vec![var("%pred"), var("n")])),
                        ),
                    ),
                ),
            ),
        )
    }

    /// Converts a Peano value back to `u64`; `None` if the term is not a
    /// numeral.
    fn peano_value(t: &TermRef) -> Option<u64> {
        use crate::term::Term;
        let mut n = 0;
        let mut cur = t.clone();
        loop {
            match &*cur {
                Term::Pair(tag, rest) => match &**tag {
                    Term::Sym(s) if s.is_name("zero") => return Some(n),
                    Term::Sym(s) if s.is_name("succ") => {
                        n += 1;
                        cur = rest.clone();
                    }
                    _ => return None,
                },
                _ => return None,
            }
        }
    }

    #[test]
    fn peano_addition() {
        let t = apps(peano_add(), vec![peano::numeral(3), peano::numeral(4)]);
        let r = eval_fuel(&t, 30);
        assert_eq!(peano_value(&r), Some(7));
    }

    #[test]
    fn peano_matches_prim_arithmetic() {
        for (a, b) in [(0u64, 0u64), (1, 2), (3, 4), (5, 0)] {
            let peano_r = eval_fuel(
                &apps(peano_add(), vec![peano::numeral(a), peano::numeral(b)]),
                60,
            );
            let prim_r = eval_fuel(&add(int(a as i64), int(b as i64)), 2);
            assert_eq!(
                peano_value(&peano_r).map(|n| n as i64),
                prim_r_as_int(&prim_r)
            );
        }
    }

    fn prim_r_as_int(t: &TermRef) -> Option<i64> {
        match &**t {
            crate::term::Term::Sym(s) => s.as_int(),
            _ => None,
        }
    }

    #[test]
    fn graph_ground_truth() {
        assert_eq!(Graph::line(3).reachable(0), vec![0, 1, 2]);
        assert_eq!(Graph::cycle(3).reachable(1), vec![0, 1, 2]);
        assert_eq!(
            Graph::binary_tree(2).reachable(0),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
        assert_eq!(Graph::line(3).reachable(2), vec![2]);
    }
}
