//! A small λ∨ standard library: streaming-friendly list, set, and stream
//! combinators, built from the core syntax.
//!
//! Everything here is an ordinary closed λ∨ value; all functions are
//! monotone by construction (there is nothing else). List functions follow
//! the `'cons`/`'nil` encoding of §2.2, operate correctly on *partial*
//! lists (tails may still be `⊥v` or running), and stream their output —
//! e.g. [`list_map`] produces the image of a prefix as soon as the prefix
//! is available.

use crate::builder::*;
use crate::symbol::Symbol;
use crate::term::TermRef;

/// `map : (a → b) → list a → list b`, streaming.
pub fn list_map() -> TermRef {
    fix(
        "map",
        lams(
            &["f", "xs"],
            case_list(
                var("xs"),
                nil(),
                "h",
                "t",
                join(
                    cons(
                        app(var("f"), var("h")),
                        apps(var("map"), vec![var("f"), var("t")]),
                    ),
                    botv(),
                ),
            ),
        ),
    )
}

/// `set_map : (a → b) → set a → set b` via big join (Datafun's `map`).
pub fn set_map() -> TermRef {
    lams(
        &["f", "s"],
        big_join("x", var("s"), set(vec![app(var("f"), var("x"))])),
    )
}

/// `set_filter : (a → bool) → set a → set a` — keeps elements whose test
/// streams `'true`; a threshold query, so never observes absence.
pub fn set_filter() -> TermRef {
    lams(
        &["p", "s"],
        big_join(
            "x",
            var("s"),
            let_sym(Symbol::tt(), app(var("p"), var("x")), set(vec![var("x")])),
        ),
    )
}

/// `set_union_all : set (set a) → set a` — the monadic join of the
/// powerdomain.
pub fn set_union_all() -> TermRef {
    lam("ss", big_join("s", var("ss"), var("s")))
}

/// `iterate : (a → set a) → a → set a` — the reflexive-transitive closure
/// of a step function: `reaches` generalised away from graphs.
pub fn iterate() -> TermRef {
    lam(
        "step",
        fix(
            "go",
            lam(
                "x",
                join(
                    set(vec![var("x")]),
                    big_join("y", app(var("step"), var("x")), app(var("go"), var("y"))),
                ),
            ),
        ),
    )
}

/// `nats_upto : int → set int` — `{0, 1, …, n-1}` as a streaming set.
pub fn nats_upto() -> TermRef {
    fix(
        "upto",
        lam(
            "n",
            ite(
                le(var("n"), int(0)),
                set(vec![]),
                join(
                    set(vec![sub(var("n"), int(1))]),
                    app(var("upto"), sub(var("n"), int(1))),
                ),
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigstep::eval_fuel;
    use crate::encodings::from_n;
    use crate::observe::{result_equiv, result_leq};

    fn ints(xs: &[i64]) -> TermRef {
        list(xs.iter().map(|n| int(*n)).collect())
    }

    fn intset(xs: &[i64]) -> TermRef {
        set(xs.iter().map(|n| int(*n)).collect())
    }

    #[test]
    fn map_applies_and_streams() {
        let double = lam("x", mul(var("x"), int(2)));
        let t = apps(list_map(), vec![double.clone(), ints(&[1, 2, 3])]);
        let r = eval_fuel(&t, 40);
        assert!(result_leq(&ints(&[2, 4, 6]), &r), "got {r}");
        // On the infinite stream, a prefix of the image appears.
        let t = apps(list_map(), vec![double, app(from_n(), int(0))]);
        let r = eval_fuel(&t, 30);
        assert!(
            result_leq(&cons(int(0), cons(int(2), botv())), &r),
            "got {r}"
        );
    }

    #[test]
    fn set_map_filter_union_cross() {
        let sq = lam("x", mul(var("x"), var("x")));
        let t = apps(set_map(), vec![sq, intset(&[1, 2, 3])]);
        assert!(result_equiv(&eval_fuel(&t, 30), &intset(&[1, 4, 9])));

        let is_small = lam("x", le(var("x"), int(2)));
        let t = apps(set_filter(), vec![is_small, intset(&[1, 2, 3])]);
        assert!(result_equiv(&eval_fuel(&t, 30), &intset(&[1, 2])));

        let t = app(set_union_all(), set(vec![intset(&[1]), intset(&[2, 3])]));
        assert!(result_equiv(&eval_fuel(&t, 30), &intset(&[1, 2, 3])));
    }

    #[test]
    fn iterate_is_generalised_reaches() {
        // step x = {x+1} below 3, {} at 3+: closure of 0 is {0,1,2,3}.
        let step = lam(
            "x",
            ite(
                lt(var("x"), int(3)),
                set(vec![add(var("x"), int(1))]),
                set(vec![]),
            ),
        );
        let t = app(app(iterate(), step), int(0));
        let r = eval_fuel(&t, 60);
        assert!(result_equiv(&r, &intset(&[0, 1, 2, 3])), "got {r}");
    }

    #[test]
    fn nats_upto_streams_downward() {
        let t = app(nats_upto(), int(4));
        assert!(result_equiv(&eval_fuel(&t, 40), &intset(&[0, 1, 2, 3])));
        assert!(result_equiv(
            &eval_fuel(&app(nats_upto(), int(0)), 10),
            &intset(&[])
        ));
    }

    #[test]
    fn stdlib_values_are_closed() {
        for f in [
            list_map(),
            set_map(),
            set_filter(),
            set_union_all(),
            iterate(),
            nats_upto(),
        ] {
            assert!(f.is_closed());
        }
    }
}
