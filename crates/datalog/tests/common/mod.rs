//! Random program generators shared by the leapfrog property suites:
//! `wcoj_props` checks the triejoin against the binary join and brute
//! force on them, `parallel_props` checks that splitting the triejoin's
//! root level across workers changes nothing. Each includer imports the
//! names used here, so the module reads the same from an integration
//! test and from the library's own tests.

use super::{cst, prop, var, Atom, AtomTerm, Program, Strategy};

/// Random edges over 12 nodes.
pub fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..12, 0i64..12), 0..40)
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
pub fn arb_cyclic_program() -> impl Strategy<Value = Program> {
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
                        if let AtomTerm::Var(v) = t {
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
pub fn arb_forest() -> impl Strategy<Value = Vec<(i64, i64)>> {
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
