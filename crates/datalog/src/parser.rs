//! A surface parser for Datalog programs.
//!
//! ```text
//! edge(0, 1).                     -- ground fact
//! path(X, Y) :- edge(X, Y).      -- rule
//! path(X, Z) :- path(X, Y), edge(Y, Z).
//! unreached(X) :- node(X), not path(0, X).   -- stratified negation
//! linked(X) :- edge(X, _), edge(_, X).       -- each `_` is its own variable
//! % line comments with '%' or '--'
//! ```
//!
//! Identifiers starting with an uppercase letter or `_` are variables
//! (Prolog convention); a lone `_` is **anonymous** — every occurrence is
//! a fresh variable, so `e(X, _), e(_, X)` does not join the two `_`
//! positions. Lowercase identifiers and quoted strings are string
//! constants; integer literals are integer constants. A body literal may
//! be negated with `not` or `!`; every variable of a negated atom must
//! also occur in a positive body atom (safety — an anonymous variable
//! under negation or in a head never does), and the whole program must
//! be stratified — the parser checks safety, the evaluator (or
//! [`stratify`](crate::strata::stratify)) checks stratification.
//!
//! **Facts become columns at parse time.** A clause's head is first read
//! into a reusable buffer of borrowed terms. If a `.` follows and every
//! term is a constant, the terms are interned straight into the program's
//! fact store — one `u32` per column in the block of the fact's
//! `(predicate, arity)`, the predicate name copied only when it opens a
//! new block — and no [`Atom`] or [`Rule`](crate::ast::Rule) is ever
//! built for it. Only rules become syntax trees.

use std::fmt;

use crate::ast::{is_anonymous, Atom, AtomTerm, Const, Program};
use crate::facts::ConstRef;

/// A Datalog parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogParseError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for DatalogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "datalog parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for DatalogParseError {}

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first syntax error; also rejects non-range-restricted rules,
/// unsafe negation and non-ground facts.
pub fn parse_program(src: &str) -> Result<Program, DatalogParseError> {
    let mut p = P {
        text: src,
        src: src.as_bytes(),
        pos: 0,
        anon: 0,
    };
    let mut program = Program::new();
    // The head atom's terms, reused from clause to clause: a fact goes
    // from here into the fact store without ever becoming an `Atom`.
    let mut head: Vec<Tok<'_>> = Vec::new();
    loop {
        p.skip_ws();
        if p.eof() {
            return Ok(program);
        }
        let pred = p.atom_terms(&mut head)?;
        p.skip_ws();
        if p.eat_str(":-") {
            let head = p.rule_atom(pred, &head);
            let mut body = vec![];
            let mut neg = vec![];
            let mut terms = Vec::new();
            loop {
                p.skip_ws();
                let negated = p.eat_negation();
                if negated {
                    p.skip_ws();
                }
                let pred = p.atom_terms(&mut terms)?;
                let atom = p.rule_atom(pred, &terms);
                if negated {
                    neg.push(atom);
                } else {
                    body.push(atom);
                }
                p.skip_ws();
                if !p.eat(b',') {
                    break;
                }
            }
            p.skip_ws();
            p.expect(b'.')?;
            // Range restriction and negation safety are checked by
            // Rule::with_neg; surface errors should be Results, so
            // pre-check here.
            let bound = |v: &str| {
                body.iter().any(|a| {
                    a.args
                        .iter()
                        .any(|bt| matches!(bt, AtomTerm::Var(w) if w == v))
                })
            };
            let shown = |v: &str| if is_anonymous(v) { "_" } else { v }.to_string();
            for t in &head.args {
                if let AtomTerm::Var(v) = t {
                    if !bound(v) {
                        return Err(DatalogParseError {
                            pos: p.pos,
                            msg: format!("head variable {} unbound in body", shown(v)),
                        });
                    }
                }
            }
            for a in &neg {
                for t in &a.args {
                    if let AtomTerm::Var(v) = t {
                        if !bound(v) {
                            return Err(DatalogParseError {
                                pos: p.pos,
                                msg: format!(
                                    "variable {} of negated atom {a} unbound in positive body",
                                    shown(v)
                                ),
                            });
                        }
                    }
                }
            }
            program.rule_neg(head, body, neg);
        } else {
            p.expect(b'.')?;
            if head.iter().any(|t| !matches!(t, Tok::Const(_))) {
                return Err(DatalogParseError {
                    pos: p.pos,
                    msg: "facts must be ground".into(),
                });
            }
            let args = head.iter().map(|t| match *t {
                Tok::Const(c) => c,
                _ => unreachable!("checked ground above"),
            });
            program.facts.push(pred, args);
        }
    }
}

/// A term as read from the source, borrowing its text.
#[derive(Debug, Clone, Copy)]
enum Tok<'a> {
    Const(ConstRef<'a>),
    Var(&'a str),
    /// `_`: a fresh variable at each occurrence.
    Anon,
}

struct P<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Anonymous variables minted so far; each `_` gets the next number.
    anon: usize,
}

impl<'a> P<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        if self.eof() {
            0
        } else {
            self.src[self.pos]
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while !self.eof() && (self.peek() as char).is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.peek() == b'%'
                || (self.peek() == b'-' && self.src.get(self.pos + 1) == Some(&b'-'))
            {
                while !self.eof() && self.peek() != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Consumes a negation marker: `!`, or the keyword `not` followed by
    /// whitespace (so a predicate actually named `not` — `not(...)` —
    /// still parses as an atom).
    fn eat_negation(&mut self) -> bool {
        if self.eat(b'!') {
            return true;
        }
        if self.src[self.pos..].starts_with(b"not")
            && self
                .src
                .get(self.pos + 3)
                .is_some_and(|c| (*c as char).is_ascii_whitespace())
        {
            self.pos += 3;
            return true;
        }
        false
    }

    fn expect(&mut self, c: u8) -> Result<(), DatalogParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(DatalogParseError {
                pos: self.pos,
                msg: format!("expected {:?}", c as char),
            })
        }
    }

    fn ident(&mut self) -> Result<&'a str, DatalogParseError> {
        let start = self.pos;
        while !self.eof() && ((self.peek() as char).is_ascii_alphanumeric() || self.peek() == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(DatalogParseError {
                pos: start,
                msg: "expected identifier".into(),
            });
        }
        // Identifier bytes are ASCII, so both ends are char boundaries.
        Ok(&self.text[start..self.pos])
    }

    /// Parses `pred(t1, …, tn)`, leaving the terms in `terms`; returns the
    /// predicate name.
    fn atom_terms(&mut self, terms: &mut Vec<Tok<'a>>) -> Result<&'a str, DatalogParseError> {
        let pred = self.ident()?;
        if !pred.as_bytes()[0].is_ascii_lowercase() {
            return Err(DatalogParseError {
                pos: self.pos,
                msg: format!("predicate {pred} must start lowercase"),
            });
        }
        self.skip_ws();
        self.expect(b'(')?;
        terms.clear();
        loop {
            self.skip_ws();
            terms.push(self.term()?);
            self.skip_ws();
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b')')?;
        Ok(pred)
    }

    /// Builds a rule atom, minting a fresh variable for each `_`.
    fn rule_atom(&mut self, pred: &str, terms: &[Tok<'_>]) -> Atom {
        let args = terms
            .iter()
            .map(|t| match *t {
                Tok::Const(ConstRef::Int(n)) => AtomTerm::Const(Const::Int(n)),
                Tok::Const(ConstRef::Str(s)) => AtomTerm::Const(Const::Str(s.to_string())),
                Tok::Var(v) => AtomTerm::Var(v.to_string()),
                Tok::Anon => {
                    self.anon += 1;
                    AtomTerm::Var(format!("_#{}", self.anon))
                }
            })
            .collect();
        Atom::new(pred, args)
    }

    fn term(&mut self) -> Result<Tok<'a>, DatalogParseError> {
        let c = self.peek() as char;
        if c == '-' || c.is_ascii_digit() {
            let start = self.pos;
            if c == '-' {
                self.pos += 1;
            }
            while (self.peek() as char).is_ascii_digit() {
                self.pos += 1;
            }
            let n: i64 = self.text[start..self.pos]
                .parse()
                .map_err(|_| DatalogParseError {
                    pos: start,
                    msg: "bad integer".into(),
                })?;
            return Ok(Tok::Const(ConstRef::Int(n)));
        }
        if c == '"' {
            self.pos += 1;
            let start = self.pos;
            while !self.eof() && self.peek() != b'"' {
                self.pos += 1;
            }
            if self.eof() {
                return Err(DatalogParseError {
                    pos: start,
                    msg: "unterminated string".into(),
                });
            }
            // Both quotes are ASCII, so the contents are whole chars.
            let s = &self.text[start..self.pos];
            self.pos += 1;
            return Ok(Tok::Const(ConstRef::Str(s)));
        }
        let word = self.ident()?;
        if word == "_" {
            Ok(Tok::Anon)
        } else if word.as_bytes()[0].is_ascii_uppercase() || word.starts_with('_') {
            Ok(Tok::Var(word))
        } else {
            Ok(Tok::Const(ConstRef::Str(word)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, rows, Strategy};

    #[test]
    fn parses_facts_rules_comments() {
        let src = "
            % a graph
            edge(0, 1).  edge(1, 2). -- trailing comment
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
        ";
        let p = parse_program(src).unwrap();
        assert_eq!((p.rules.len(), p.fact_count()), (2, 2));
        let (db, _) = eval(&p, Strategy::Seminaive);
        assert_eq!(rows(&db, "path").len(), 3);
    }

    #[test]
    fn prolog_variable_convention() {
        let src = "likes(alice, bob). knows(X, Y) :- likes(X, Y).";
        let p = parse_program(src).unwrap();
        let (db, _) = eval(&p, Strategy::Naive);
        assert!(db["knows"].contains(&vec![Const::from("alice"), Const::from("bob")]));
    }

    #[test]
    fn rejects_bad_programs() {
        assert!(parse_program("p(X).").is_err()); // non-ground fact
        assert!(parse_program("p(X) :- q(Y).").is_err()); // unbound head var
        assert!(parse_program("P(x).").is_err()); // uppercase predicate
        assert!(parse_program("p(1,").is_err());
        assert!(parse_program("p(\"abc).").is_err());
    }

    #[test]
    fn negative_integers_and_strings() {
        let src = "t(-3, \"hello world\").";
        let p = parse_program(src).unwrap();
        let (db, _) = eval(&p, Strategy::Naive);
        assert!(db["t"].contains(&vec![Const::Int(-3), Const::Str("hello world".into())]));
    }

    #[test]
    fn parsed_reaches_matches_builder() {
        let src = "
            edge(0,1). edge(1,2). edge(2,0).
            reaches(0).
            reaches(Y) :- reaches(X), edge(X, Y).
        ";
        let parsed = parse_program(src).unwrap();
        let built = crate::eval::reaches_program(&[(0, 1), (1, 2), (2, 0)], 0);
        let (db1, _) = eval(&parsed, Strategy::Seminaive);
        let (db2, _) = eval(&built, Strategy::Seminaive);
        assert_eq!(db1["reaches"], db2["reaches"]);
    }

    #[test]
    fn underscore_is_anonymous() {
        // Each `_` is its own variable: e(1, 2) gives the first atom with
        // X = 1 and e(3, 1) the second, so p(1) holds. Were the two `_`
        // one variable, it would need a single value for both, and p
        // would be empty.
        let anon = parse_program("e(1, 2). e(3, 1). p(X) :- e(X, _), e(_, X).").unwrap();
        let named = parse_program("e(1, 2). e(3, 1). p(X) :- e(X, A), e(B, X).").unwrap();
        for strategy in [Strategy::Naive, Strategy::Seminaive] {
            let (db, _) = eval(&anon, strategy);
            assert_eq!(rows(&db, "p"), vec![&vec![Const::Int(1)]], "{strategy:?}");
            assert_eq!(db, eval(&named, strategy).0, "{strategy:?}");
        }
        // Named underscore variables still join.
        let shared = parse_program("e(1, 2). e(3, 1). p(X) :- e(X, _Y), e(_Y, X).").unwrap();
        assert!(rows(&eval(&shared, Strategy::Naive).0, "p").is_empty());
        // An anonymous variable is never bound where it must be.
        for (src, msg) in [
            ("p(_) :- e(X, Y).", "head variable _ unbound in body"),
            (
                "p(X) :- e(X, Y), not e(Y, _).",
                "variable _ of negated atom e(Y, _) unbound in positive body",
            ),
            ("e(1, _).", "facts must be ground"),
        ] {
            let src = format!("e(1, 2). {src}");
            assert_eq!(parse_program(&src).unwrap_err().msg, msg, "{src}");
        }
    }

    #[test]
    fn error_positions_are_pinned() {
        for (src, pos, msg) in [
            ("p(X).", 5, "facts must be ground"),
            ("p(X) :- q(Y).", 13, "head variable X unbound in body"),
            ("P(x).", 1, "predicate P must start lowercase"),
            ("p(1,", 4, "expected identifier"),
            ("p(\"abc).", 3, "unterminated string"),
            ("p(-).", 2, "bad integer"),
            ("p(99999999999999999999).", 2, "bad integer"),
            ("p(1) q(2).", 5, "expected '.'"),
            ("p (1) :- q(1) r.", 14, "expected '.'"),
        ] {
            let err = parse_program(src).unwrap_err();
            assert_eq!((err.pos, err.msg.as_str()), (pos, msg), "{src}");
        }
    }
}
