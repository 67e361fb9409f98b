//! Pretty printing of λ∨ terms in the surface syntax accepted by
//! [`crate::parser`].
//!
//! The printer is precedence-aware and round-trips with the parser on the
//! core grammar (property-tested in the parser module).

use std::fmt;

use crate::term::{Prim, Term, TermRef};

/// Precedence levels, loosest to tightest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    /// let/lambda/big-join bodies extend to the right.
    Lowest,
    /// `∨`
    Join,
    /// comparisons
    Cmp,
    /// `+` `-`
    Add,
    /// `*`
    Mul,
    /// application
    App,
    /// atoms
    Atom,
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&pretty(self))
    }
}

fn write_paren(out: &mut String, cond: bool, inner: impl FnOnce(&mut String)) {
    if cond {
        out.push('(');
        inner(out);
        out.push(')');
    } else {
        inner(out);
    }
}

/// Renders a variable name, spelling canonical binder names (the reserved
/// `'\u{1}'` prefix the arena extraction uses; unreachable from source
/// programs) as `%%N` so extracted terms print readably.
fn write_var(out: &mut String, x: &str) {
    match x.strip_prefix('\u{1}') {
        Some(rest) => {
            out.push_str("%%");
            out.push_str(rest);
        }
        None => out.push_str(x),
    }
}

/// Writes `items` separated by `", "`.
fn write_list(out: &mut String, items: &[TermRef]) {
    for (i, e) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_term(out, e, Prec::Lowest);
    }
}

/// `open a, b)` — pairs and the call-style binary forms.
fn write_call(out: &mut String, open: &str, a: &Term, b: &Term) {
    out.push_str(open);
    write_term(out, a, Prec::Lowest);
    out.push_str(", ");
    write_term(out, b, Prec::Lowest);
    out.push(')');
}

/// `kw x sep e in b` — the binding forms whose bound expression sits at
/// join precedence and whose body extends to the right.
fn write_binder(out: &mut String, prec: Prec, kw: &str, x: &str, sep: &str, e: &Term, b: &Term) {
    write_paren(out, prec > Prec::Lowest, |out| {
        out.push_str(kw);
        write_var(out, x);
        out.push_str(sep);
        write_term(out, e, Prec::Join);
        out.push_str(" in ");
        write_term(out, b, Prec::Lowest);
    });
}

/// Appends the surface syntax of `t`, parenthesised for context `prec`,
/// to `out`. This is the one renderer: [`fmt::Display`] and [`pretty`]
/// both go through it.
fn write_term(out: &mut String, t: &Term, prec: Prec) {
    match t {
        Term::Bot => out.push_str("bot"),
        Term::Top => out.push_str("top"),
        Term::BotV => out.push_str("botv"),
        Term::Var(x) => write_var(out, x),
        Term::Sym(s) => {
            let _ = s.write_to(out);
        }
        Term::Lam(x, b) => write_paren(out, prec > Prec::Lowest, |out| {
            out.push('\\');
            write_var(out, x);
            out.push_str(". ");
            write_term(out, b, Prec::Lowest);
        }),
        Term::Pair(a, b) => write_call(out, "(", a, b),
        Term::Set(es) => {
            out.push('{');
            write_list(out, es);
            out.push('}');
        }
        Term::App(a, b) => write_paren(out, prec > Prec::App, |out| {
            write_term(out, a, Prec::App);
            out.push(' ');
            write_term(out, b, Prec::Atom);
        }),
        Term::LetPair(x1, x2, e, b) => write_paren(out, prec > Prec::Lowest, |out| {
            out.push_str("let (");
            write_var(out, x1);
            out.push_str(", ");
            write_var(out, x2);
            out.push_str(") = ");
            write_term(out, e, Prec::Join);
            out.push_str(" in ");
            write_term(out, b, Prec::Lowest);
        }),
        Term::LetSym(s, e, b) => write_paren(out, prec > Prec::Lowest, |out| {
            out.push_str("let ");
            let _ = s.write_to(out);
            out.push_str(" = ");
            write_term(out, e, Prec::Join);
            out.push_str(" in ");
            write_term(out, b, Prec::Lowest);
        }),
        Term::BigJoin(x, e, b) => write_paren(out, prec > Prec::Lowest, |out| {
            out.push_str("for ");
            write_var(out, x);
            out.push_str(" in ");
            write_term(out, e, Prec::Join);
            out.push_str(". ");
            write_term(out, b, Prec::Lowest);
        }),
        Term::Join(a, b) => write_paren(out, prec > Prec::Join, |out| {
            write_term(out, a, Prec::Cmp);
            out.push_str(" \\/ ");
            write_term(out, b, Prec::Join);
        }),
        Term::Prim(op, es) => {
            let (my, left, right) = match op {
                Prim::Add | Prim::Sub => (Prec::Add, Prec::Add, Prec::Mul),
                Prim::Mul => (Prec::Mul, Prec::Mul, Prec::App),
                Prim::Le | Prim::Lt | Prim::Eq => (Prec::Cmp, Prec::Add, Prec::Add),
                // Frozen-set queries print in call style: `member(a, b)`.
                Prim::Member | Prim::Diff | Prim::SetSize => {
                    out.push_str(op.symbol());
                    out.push('(');
                    write_list(out, es);
                    out.push(')');
                    return;
                }
            };
            write_paren(out, prec > my, |out| {
                write_term(out, &es[0], left);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                write_term(out, &es[1], right);
            });
        }
        Term::Frz(e) => write_paren(out, prec > Prec::App, |out| {
            out.push_str("frz ");
            write_term(out, e, Prec::Atom);
        }),
        Term::LetFrz(x, e, b) => write_binder(out, prec, "let frz ", x, " = ", e, b),
        Term::Lex(a, b) => write_call(out, "lex(", a, b),
        Term::LexBind(x, e, b) => write_binder(out, prec, "bind ", x, " <- ", e, b),
        Term::LexMerge(a, b) => write_call(out, "lexmerge(", a, b),
    }
}

/// Renders a term to a `String` (the same text as `to_string`, without
/// the formatter round trip).
pub fn pretty(t: &Term) -> String {
    let mut out = String::new();
    write_term(&mut out, t, Prec::Lowest);
    out
}

#[cfg(test)]
mod tests {
    use crate::builder::*;

    #[test]
    fn atoms() {
        assert_eq!(bot().to_string(), "bot");
        assert_eq!(top().to_string(), "top");
        assert_eq!(botv().to_string(), "botv");
        assert_eq!(int(42).to_string(), "42");
        assert_eq!(name("true").to_string(), "'true");
        assert_eq!(string("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn lambda_and_app() {
        assert_eq!(lam("x", var("x")).to_string(), "\\x. x");
        assert_eq!(app(var("f"), var("x")).to_string(), "f x");
        assert_eq!(app(app(var("f"), var("x")), var("y")).to_string(), "f x y");
        assert_eq!(
            app(var("f"), app(var("g"), var("x"))).to_string(),
            "f (g x)"
        );
        assert_eq!(app(lam("x", var("x")), int(1)).to_string(), "(\\x. x) 1");
    }

    #[test]
    fn joins_and_sets() {
        assert_eq!(join(int(1), int(2)).to_string(), "1 \\/ 2");
        assert_eq!(
            join(int(1), join(int(2), int(3))).to_string(),
            "1 \\/ 2 \\/ 3"
        );
        assert_eq!(
            join(join(int(1), int(2)), int(3)).to_string(),
            "(1 \\/ 2) \\/ 3"
        );
        assert_eq!(set(vec![int(1), int(2)]).to_string(), "{1, 2}");
        assert_eq!(set(vec![]).to_string(), "{}");
    }

    #[test]
    fn lets_and_big_join() {
        assert_eq!(
            let_pair("a", "b", var("p"), var("a")).to_string(),
            "let (a, b) = p in a"
        );
        assert_eq!(
            let_sym(crate::symbol::Symbol::tt(), var("c"), int(1)).to_string(),
            "let 'true = c in 1"
        );
        assert_eq!(
            big_join("x", var("s"), set(vec![var("x")])).to_string(),
            "for x in s. {x}"
        );
    }

    #[test]
    fn prim_precedence() {
        assert_eq!(add(int(1), mul(int(2), int(3))).to_string(), "1 + 2 * 3");
        assert_eq!(mul(add(int(1), int(2)), int(3)).to_string(), "(1 + 2) * 3");
        assert_eq!(le(add(int(1), int(2)), int(3)).to_string(), "1 + 2 <= 3");
        assert_eq!(
            join(le(int(1), int(2)), tt()).to_string(),
            "1 <= 2 \\/ 'true"
        );
    }

    #[test]
    fn pairs_always_parenthesised() {
        assert_eq!(pair(int(1), int(2)).to_string(), "(1, 2)");
        assert_eq!(app(var("f"), pair(int(1), int(2))).to_string(), "f (1, 2)");
    }
}
