//! Abstract syntax for Datalog programs (§6 "Datalog"), with stratified
//! negation.
//!
//! The negation-free fragment "epitomizes monotonic-by-construction program
//! semantics": facts only accumulate, and rule application is monotone in
//! the database — the same streaming order λ∨ generalises. Negated body
//! atoms ([`Rule::neg`]) break monotonicity *locally*, which is why the
//! engine only accepts **stratified** programs (see
//! [`stratify`](crate::strata::stratify)): each negated premise must be
//! fully derived by a lower stratum before any rule reads its absence, so
//! evaluation is a sequence of monotone fixpoints rather than one.
//!
//! Only genuine rules are syntax trees. Ground facts go straight into the
//! program's column store (see the private `facts` module): interned `u32`
//! rows in one block per `(predicate, arity)`, which compilation adopts as
//! they are. [`Program::facts`] decodes them again for boundary code and
//! oracles.

use std::fmt;

use crate::facts::{ConstRef, FactStore};

/// A constant: an integer or an interned string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Const {
    /// Integer constant.
    Int(i64),
    /// String constant.
    Str(String),
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(n) => write!(f, "{n}"),
            Const::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Const {
    fn from(n: i64) -> Self {
        Const::Int(n)
    }
}

impl From<&str> for Const {
    fn from(s: &str) -> Self {
        Const::Str(s.to_string())
    }
}

/// A term in an atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomTerm {
    /// A variable, scoped to its rule.
    Var(String),
    /// A constant.
    Const(Const),
}

/// Whether a variable name is one the parser minted for an occurrence of
/// `_`: each such occurrence is its own variable, and `#` cannot appear in
/// a written name, so none of them can collide with a named variable.
pub(crate) fn is_anonymous(name: &str) -> bool {
    name.starts_with("_#")
}

/// Builds a variable term.
pub fn var(name: &str) -> AtomTerm {
    AtomTerm::Var(name.to_string())
}

/// Builds a constant term.
pub fn cst(c: impl Into<Const>) -> AtomTerm {
    AtomTerm::Const(c.into())
}

/// An atom `pred(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate name.
    pub pred: String,
    /// The argument terms.
    pub args: Vec<AtomTerm>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(pred: &str, args: Vec<AtomTerm>) -> Self {
        Atom {
            pred: pred.to_string(),
            args,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match a {
                AtomTerm::Var(v) if is_anonymous(v) => f.write_str("_")?,
                AtomTerm::Var(v) => write!(f, "{v}")?,
                AtomTerm::Const(c) => write!(f, "{c}")?,
            }
        }
        f.write_str(")")
    }
}

/// A clause `head :- body1, …, bodyn, not neg1, …, not negm`
/// (negation-free rules have an empty `neg`). Ground facts are not rules:
/// they live in the program's fact store (see [`Program::fact`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The derived atom.
    pub head: Atom,
    /// The positive premises.
    pub body: Vec<Atom>,
    /// The negated premises: the rule fires only for bindings under which
    /// none of these atoms is in the database. Programs with negation must
    /// be stratified (checked at evaluation time).
    pub neg: Vec<Atom>,
}

impl Rule {
    /// Builds a negation-free rule, checking range restriction (every head
    /// variable occurs in the body).
    ///
    /// # Panics
    ///
    /// Panics if the rule is not range-restricted — such rules would derive
    /// infinitely many facts.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        Rule::with_neg(head, body, vec![])
    }

    /// Builds a rule with negated premises, checking range restriction and
    /// **safety**: every variable of the head and of each negated atom must
    /// occur in a *positive* body atom, so negation is a finite anti-join,
    /// never a complement over an infinite domain.
    ///
    /// # Panics
    ///
    /// Panics if a head or negated-atom variable is unbound in the positive
    /// body.
    pub fn with_neg(head: Atom, body: Vec<Atom>, neg: Vec<Atom>) -> Self {
        let bound = |v: &str| {
            body.iter().any(|a| {
                a.args
                    .iter()
                    .any(|bt| matches!(bt, AtomTerm::Var(w) if w == v))
            })
        };
        for t in &head.args {
            if let AtomTerm::Var(v) = t {
                assert!(bound(v), "head variable {v} unbound in rule body");
            }
        }
        for a in &neg {
            for t in &a.args {
                if let AtomTerm::Var(v) = t {
                    assert!(
                        bound(v),
                        "variable {v} of negated atom {a} unbound in positive body"
                    );
                }
            }
        }
        Rule { head, body, neg }
    }
}

/// A Datalog program: a set of rules plus ground facts.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The rules. Ground facts are not here: they are stored column-wise
    /// (see [`Program::fact`] and [`Program::facts`]).
    pub rules: Vec<Rule>,
    /// The ground facts, interned at the moment they are added.
    pub(crate) facts: FactStore,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a negation-free rule.
    pub fn rule(&mut self, head: Atom, body: Vec<Atom>) -> &mut Self {
        self.rules.push(Rule::new(head, body));
        self
    }

    /// Adds a rule with negated premises (see [`Rule::with_neg`]).
    pub fn rule_neg(&mut self, head: Atom, body: Vec<Atom>, neg: Vec<Atom>) -> &mut Self {
        self.rules.push(Rule::with_neg(head, body, neg));
        self
    }

    /// Adds a ground fact to the fact store — the same path the parser
    /// takes, so a built program and its source text compile alike.
    ///
    /// # Panics
    ///
    /// Panics if the atom contains variables.
    pub fn fact(&mut self, atom: Atom) -> &mut Self {
        assert!(
            atom.args.iter().all(|t| matches!(t, AtomTerm::Const(_))),
            "facts must be ground"
        );
        let args = atom.args.iter().map(|t| match t {
            AtomTerm::Const(Const::Int(n)) => ConstRef::Int(*n),
            AtomTerm::Const(Const::Str(s)) => ConstRef::Str(s),
            AtomTerm::Var(_) => unreachable!("checked ground above"),
        });
        self.facts.push(&atom.pred, args);
        self
    }

    /// The ground facts, decoded: `(predicate, tuple)` per fact, duplicates
    /// included, grouped by `(predicate, arity)` in order of first
    /// appearance and in insertion order within a group.
    pub fn facts(&self) -> impl Iterator<Item = (&str, Vec<Const>)> + '_ {
        self.facts.iter()
    }

    /// Number of ground facts, duplicates included.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_atoms() {
        let a = Atom::new("edge", vec![cst(1), var("X")]);
        assert_eq!(a.to_string(), "edge(1, X)");
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn range_restriction_enforced() {
        Rule::new(Atom::new("p", vec![var("X")]), vec![]);
    }

    #[test]
    #[should_panic(expected = "ground")]
    fn facts_must_be_ground() {
        let mut p = Program::new();
        p.fact(Atom::new("p", vec![var("X")]));
    }

    #[test]
    #[should_panic(expected = "unbound in positive body")]
    fn negation_safety_enforced() {
        // p(X) :- q(X), not r(Y): Y occurs only under negation.
        Rule::with_neg(
            Atom::new("p", vec![var("X")]),
            vec![Atom::new("q", vec![var("X")])],
            vec![Atom::new("r", vec![var("Y")])],
        );
    }

    #[test]
    fn negated_rules_build() {
        let r = Rule::with_neg(
            Atom::new("p", vec![var("X")]),
            vec![Atom::new("q", vec![var("X")])],
            vec![Atom::new("r", vec![var("X"), cst(1)])],
        );
        assert_eq!(r.neg.len(), 1);
    }

    #[test]
    fn program_builders() {
        let mut p = Program::new();
        p.fact(Atom::new("edge", vec![cst(0), cst(1)]));
        p.rule(
            Atom::new("path", vec![var("X"), var("Y")]),
            vec![Atom::new("edge", vec![var("X"), var("Y")])],
        );
        assert_eq!((p.rules.len(), p.fact_count()), (1, 1));
        let facts: Vec<(&str, Vec<Const>)> = p.facts().collect();
        assert_eq!(facts, vec![("edge", vec![Const::Int(0), Const::Int(1)])]);
    }
}
