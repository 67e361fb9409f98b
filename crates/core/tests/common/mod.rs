//! Helpers shared by the core integration suites.

use std::sync::Arc;

use lambda_join_core::builder as b;
use lambda_join_core::term::{Term, TermRef, Var};

/// An α-renaming of `t`: every binder `x` becomes `x{salt}`, so the result
/// is a different tree (and allocation) in the same α-class. Covers every
/// binder form; under `let (x, x)` the inner binder shadows the outer one
/// and both get the same fresh name, which keeps the shadowing intact.
///
/// `salt` must make the new names fresh for `t` (the generators spell
/// variables as single letters, so any non-empty suffix does).
pub fn rename_binders(t: &TermRef, salt: &str) -> TermRef {
    let go = |e: &TermRef| rename_binders(e, salt);
    let fresh = |x: &Var| -> Var { Arc::from(format!("{x}{salt}").as_str()) };
    // Renames the occurrences `x` binds in `body`, then recurses into it.
    let under = |x: &Var, body: &TermRef| -> (Var, TermRef) {
        let nx = fresh(x);
        (nx.clone(), go(&body.subst(x, &b::var(&nx))))
    };
    Arc::new(match &**t {
        Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_) => return t.clone(),
        Term::Lam(x, body) => {
            let (nx, nb) = under(x, body);
            Term::Lam(nx, nb)
        }
        Term::LetPair(x1, x2, e, body) => {
            // `x2` first: when `x1 == x2` it binds every occurrence and
            // the second renaming finds none left.
            let (n1, n2) = (fresh(x1), fresh(x2));
            let body = body.subst(x2, &b::var(&n2)).subst(x1, &b::var(&n1));
            Term::LetPair(n1, n2, go(e), go(&body))
        }
        Term::BigJoin(x, e, body) => {
            let (nx, nb) = under(x, body);
            Term::BigJoin(nx, go(e), nb)
        }
        Term::LetFrz(x, e, body) => {
            let (nx, nb) = under(x, body);
            Term::LetFrz(nx, go(e), nb)
        }
        Term::LexBind(x, e, body) => {
            let (nx, nb) = under(x, body);
            Term::LexBind(nx, go(e), nb)
        }
        Term::Pair(a, c) => Term::Pair(go(a), go(c)),
        Term::App(f, a) => Term::App(go(f), go(a)),
        Term::Join(a, c) => Term::Join(go(a), go(c)),
        Term::Lex(a, c) => Term::Lex(go(a), go(c)),
        Term::LexMerge(a, c) => Term::LexMerge(go(a), go(c)),
        Term::LetSym(s, e, body) => Term::LetSym(s.clone(), go(e), go(body)),
        Term::Frz(e) => Term::Frz(go(e)),
        Term::Set(es) => Term::Set(es.iter().map(go).collect()),
        Term::Prim(op, es) => Term::Prim(*op, es.iter().map(go).collect()),
    })
}
