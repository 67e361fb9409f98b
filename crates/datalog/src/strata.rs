//! Stratification: ordering predicates so negation is well-defined.
//!
//! A program with negated body atoms has a clear meaning only when no
//! predicate depends on its own *absence*: the dependency graph over
//! predicates (an edge from each rule head to each body predicate, marked
//! negative when the body atom is negated) must have no cycle through a
//! negative edge. [`stratify`] checks exactly that and, for accepted
//! programs, assigns every predicate a **stratum** such that positive
//! dependencies never go up and negative dependencies go strictly down.
//! Evaluation then runs one monotone fixpoint per stratum, in order — by
//! the time a rule asks "is this fact absent?", the queried relation is
//! complete and the answer is final.
//!
//! Predicates are identified by `(name, arity)`, matching the engine's
//! relation keying: the same name at two arities is two independent
//! predicates.

use std::collections::HashMap;
use std::fmt;

use crate::ast::Program;

/// A predicate key: name and arity.
pub type Pred = (String, usize);

/// The error produced for non-stratifiable programs: a dependency cycle
/// that passes through a negated premise, reported as the cycle itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratificationError {
    /// The predicates on the offending cycle, in dependency order,
    /// starting and ending at the same predicate.
    pub cycle: Vec<Pred>,
}

impl fmt::Display for StratificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program is not stratifiable: negation inside a recursive cycle ("
        )?;
        for (i, (name, arity)) in self.cycle.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{name}/{arity}")?;
        }
        f.write_str(
            "); break the loop so every negated premise is fully derived in an earlier stratum",
        )
    }
}

impl std::error::Error for StratificationError {}

/// The result of a successful stratification.
#[derive(Debug, Clone)]
pub struct Strata {
    /// Stratum of every predicate occurring in the program, fact
    /// predicates included.
    pub stratum_of: HashMap<Pred, usize>,
    /// Number of strata (`1` for negation-free programs).
    pub count: usize,
}

impl Strata {
    /// The stratum of a rule: its head predicate's stratum.
    pub fn rule_stratum(&self, rule: &crate::ast::Rule) -> usize {
        self.stratum_of[&(rule.head.pred.clone(), rule.head.args.len())]
    }
}

/// Computes the stratification of a program, or the negative cycle that
/// makes one impossible.
///
/// Strata satisfy: for every rule, `stratum(body pred) <= stratum(head)`
/// and `stratum(negated pred) < stratum(head)`. Negation-free programs
/// always succeed with a single stratum.
///
/// # Errors
///
/// Returns a [`StratificationError`] naming a cycle through a negated
/// dependency when no stratification exists.
pub fn stratify(program: &Program) -> Result<Strata, StratificationError> {
    // Collect predicates and dependency edges head -> body pred.
    // Keyed on names borrowed from the program: a name is cloned only
    // when its predicate is first seen, not once per atom.
    let mut ids: HashMap<(&str, usize), usize> = HashMap::new();
    let mut preds: Vec<Pred> = Vec::new();
    let mut id_of = |name, arity, preds: &mut Vec<Pred>| -> usize {
        *ids.entry((name, arity)).or_insert_with(|| {
            preds.push((name.to_string(), arity));
            preds.len() - 1
        })
    };
    // edges[h] = (positive deps, negative deps)
    let mut edges: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for rule in &program.rules {
        let h = id_of(&rule.head.pred, rule.head.args.len(), &mut preds);
        edges.resize(preds.len().max(edges.len()), (vec![], vec![]));
        for a in &rule.body {
            let b = id_of(&a.pred, a.args.len(), &mut preds);
            edges.resize(preds.len().max(edges.len()), (vec![], vec![]));
            edges[h].0.push(b);
        }
        for a in &rule.neg {
            let b = id_of(&a.pred, a.args.len(), &mut preds);
            edges.resize(preds.len().max(edges.len()), (vec![], vec![]));
            edges[h].1.push(b);
        }
    }
    // Fact predicates are nodes without dependencies of their own: a
    // facts-only predicate lands in stratum 0, one that rules also derive
    // in its rules' stratum — where its facts are loaded.
    for b in &program.facts.blocks {
        id_of(&b.pred, b.arity, &mut preds);
    }
    let n = preds.len();
    edges.resize(n, (vec![], vec![]));

    // Iterative stratum assignment (Bellman-Ford style over max):
    //   stratum(h) >= stratum(b)      for positive deps b
    //   stratum(h) >= stratum(b) + 1  for negative deps b
    // A finite fixpoint exists iff no cycle contains a negative edge. In a
    // stratifiable program every stratum is < n (each step up consumes a
    // distinct negative edge), so any value reaching n proves a negative
    // cycle; each changed pass raises some value, so the loop terminates
    // within n*n passes either way.
    let mut s = vec![0usize; n];
    loop {
        let mut changed = false;
        for h in 0..n {
            for &b in &edges[h].0 {
                if s[b] > s[h] {
                    s[h] = s[b];
                    changed = true;
                }
            }
            for &b in &edges[h].1 {
                if s[b] + 1 > s[h] {
                    s[h] = s[b] + 1;
                    changed = true;
                }
            }
        }
        if s.iter().any(|&x| x >= n) {
            return Err(find_negative_cycle(&preds, &edges));
        }
        if !changed {
            let count = s.iter().map(|x| x + 1).max().unwrap_or(1);
            let stratum_of = preds.into_iter().zip(s).collect();
            return Ok(Strata { stratum_of, count });
        }
    }
}

/// Walks the dependency graph to name one cycle containing a negative
/// edge (which exists whenever stratum assignment diverges).
fn find_negative_cycle(preds: &[Pred], edges: &[(Vec<usize>, Vec<usize>)]) -> StratificationError {
    let n = preds.len();
    // reach[u] = nodes reachable from u along any dependency edge.
    let reach: Vec<Vec<bool>> = (0..n)
        .map(|u| {
            let mut seen = vec![false; n];
            let mut stack = vec![u];
            while let Some(x) = stack.pop() {
                for &y in edges[x].0.iter().chain(&edges[x].1) {
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            seen
        })
        .collect();
    // A negative edge h -> b inside a cycle: b reaches h back.
    for h in 0..n {
        for &b in &edges[h].1 {
            if reach[b][h] {
                // Reconstruct a path b ->* h by greedy DFS.
                let mut path = vec![h, b];
                let mut cur = b;
                let mut guard = 0;
                while cur != h && guard <= n {
                    guard += 1;
                    let next = edges[cur]
                        .0
                        .iter()
                        .chain(&edges[cur].1)
                        .copied()
                        .find(|&y| y == h || reach[y][h])
                        .expect("reach table admits a next hop");
                    path.push(next);
                    cur = next;
                }
                let cycle = path.into_iter().map(|i| preds[i].clone()).collect();
                return StratificationError { cycle };
            }
        }
    }
    unreachable!("divergent stratum assignment implies a negative cycle")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{cst, var, Atom};

    #[test]
    fn negation_free_is_one_stratum() {
        let mut p = Program::new();
        p.fact(Atom::new("e", vec![cst(0), cst(1)]));
        p.rule(
            Atom::new("t", vec![var("X"), var("Y")]),
            vec![Atom::new("e", vec![var("X"), var("Y")])],
        );
        let s = stratify(&p).unwrap();
        assert_eq!(s.count, 1);
    }

    #[test]
    fn negation_raises_stratum() {
        let mut p = Program::new();
        p.fact(Atom::new("n", vec![cst(0)]));
        p.rule(
            Atom::new("r", vec![var("X")]),
            vec![Atom::new("n", vec![var("X")])],
        );
        p.rule_neg(
            Atom::new("u", vec![var("X")]),
            vec![Atom::new("n", vec![var("X")])],
            vec![Atom::new("r", vec![var("X")])],
        );
        let s = stratify(&p).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.stratum_of[&("u".to_string(), 1)], 1);
        assert_eq!(s.stratum_of[&("r".to_string(), 1)], 0);
    }

    #[test]
    fn direct_negative_self_loop_rejected() {
        let mut p = Program::new();
        p.fact(Atom::new("n", vec![cst(0)]));
        p.rule_neg(
            Atom::new("p", vec![var("X")]),
            vec![Atom::new("n", vec![var("X")])],
            vec![Atom::new("p", vec![var("X")])],
        );
        let err = stratify(&p).unwrap_err();
        assert!(err.cycle.contains(&("p".to_string(), 1)));
        let msg = err.to_string();
        assert!(msg.contains("not stratifiable"), "{msg}");
        assert!(msg.contains("p/1"), "{msg}");
    }

    #[test]
    fn negative_cycle_through_two_predicates_rejected() {
        // p :- n, not q.   q :- n, p.   (p -> ¬q -> p)
        let mut p = Program::new();
        p.fact(Atom::new("n", vec![cst(0)]));
        p.rule_neg(
            Atom::new("p", vec![var("X")]),
            vec![Atom::new("n", vec![var("X")])],
            vec![Atom::new("q", vec![var("X")])],
        );
        p.rule(
            Atom::new("q", vec![var("X")]),
            vec![
                Atom::new("n", vec![var("X")]),
                Atom::new("p", vec![var("X")]),
            ],
        );
        let err = stratify(&p).unwrap_err();
        assert!(err.cycle.contains(&("p".to_string(), 1)), "{err}");
        assert!(err.cycle.contains(&("q".to_string(), 1)), "{err}");
    }

    #[test]
    fn same_name_distinct_arity_are_distinct_predicates() {
        // p/1 negatively depends on p/2 — different predicates, fine.
        let mut p = Program::new();
        p.fact(Atom::new("n", vec![cst(0)]));
        p.rule_neg(
            Atom::new("p", vec![var("X")]),
            vec![Atom::new("n", vec![var("X")])],
            vec![Atom::new("p", vec![var("X"), var("X")])],
        );
        assert!(stratify(&p).is_ok());
    }

    #[test]
    fn positive_recursion_stays_in_one_stratum() {
        let p = crate::eval::transitive_closure_program(&[(0, 1), (1, 2)]);
        let s = stratify(&p).unwrap();
        assert_eq!(s.count, 1);
    }
}
