//! Contextual approximation and equivalence (§3.2), bounded.
//!
//! `e1 ⪯ctx e2` iff `C[e1]⇓ ⇒ C[e2]⇓` for every program context `C`.
//! Quantifying over all contexts is impossible; this module provides
//! (a) a generator of small closing contexts built from the calculus's own
//! constructors, and (b) a bounded checker that searches them for a
//! *counterexample* — sound for refutation, evidence otherwise. Together
//! with `semantics::logical_leq_fragment` it gives both directions of
//! Theorem 4.18 an executable face.

use lambda_join_core::builder as b;
use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::TermRef;

use crate::semantics::converges;

/// A context: a function that closes a term. The `name` describes it in
/// counterexamples.
pub struct Context {
    /// Human-readable description of the context.
    pub name: String,
    fill: Box<dyn Fn(TermRef) -> TermRef>,
}

impl Context {
    /// Builds a context from a closure.
    pub fn new(name: &str, fill: impl Fn(TermRef) -> TermRef + 'static) -> Self {
        Context {
            name: name.to_string(),
            fill: Box::new(fill),
        }
    }

    /// Fills the hole.
    pub fn fill(&self, e: TermRef) -> TermRef {
        (self.fill)(e)
    }
}

/// A standard battery of discriminating contexts: identity, eliminators for
/// every data shape, join frames, and threshold observers.
pub fn standard_contexts() -> Vec<Context> {
    let mut out: Vec<Context> = vec![
        Context::new("[·]", |h| h),
        Context::new("([·], 0)", |h| b::pair(h, b::int(0))),
        Context::new("(0, [·])", |h| b::pair(b::int(0), h)),
        Context::new("{[·]}", |h| b::set(vec![h])),
        Context::new("[·] ∨ {9}", |h| b::join(h, b::set(vec![b::int(9)]))),
        Context::new("(λx.x) [·]", |h| b::app(b::lam("x", b::var("x")), h)),
        Context::new("[·] 0", |h| b::app(h, b::int(0))),
        Context::new("let (a,b) = [·] in a", |h| {
            b::let_pair("a", "b", h, b::var("a"))
        }),
        Context::new("⋁_{x∈[·]} {x}", |h| {
            b::big_join("x", h, b::set(vec![b::var("x")]))
        }),
        Context::new("⋁_{x∈[·]} (let 1 = x in 'hit)", |h| {
            b::big_join(
                "x",
                h,
                b::let_sym(Symbol::Int(1), b::var("x"), b::name("hit")),
            )
        }),
    ];
    // Threshold observers for a few symbols — both directly and through
    // set elements (the big-join observers are what separate {1,2} from
    // {1}).
    for s in [
        Symbol::tt(),
        Symbol::ff(),
        Symbol::Int(0),
        Symbol::Int(1),
        Symbol::Int(2),
        Symbol::Level(1),
        Symbol::Level(2),
    ] {
        let name = format!("let {s} = [·] in ()");
        let s2 = s.clone();
        out.push(Context::new(&name, move |h| {
            b::let_sym(s2.clone(), h, b::unit())
        }));
        let name = format!("⋁_{{x∈[·]}} (let {s} = x in ())");
        out.push(Context::new(&name, move |h| {
            b::big_join("x", h, b::let_sym(s.clone(), b::var("x"), b::unit()))
        }));
    }
    // §5.2 extension observers — eliminations only. The introduction
    // context `frz [·]` is deliberately absent: it is the non-monotone
    // `λx. frz x` the paper excludes ("prevent unfrozen streaming
    // variables from appearing inside a frozen value").
    out.push(Context::new("let frz x = [·] in ()", |h| {
        b::let_frz("x", h, b::unit())
    }));
    out.push(Context::new("let 1 = size([·]) in ()", |h| {
        b::let_sym(Symbol::Int(1), b::set_size(h), b::unit())
    }));
    out.push(Context::new("let 2 = size([·]) in ()", |h| {
        b::let_sym(Symbol::Int(2), b::set_size(h), b::unit())
    }));
    out.push(Context::new("let 'true = member(frz 1, [·]) in ()", |h| {
        b::let_sym(Symbol::tt(), b::member(b::frz(b::int(1)), h), b::unit())
    }));
    out.push(Context::new("bind x <- [·] in lex(`1, x)", |h| {
        b::lex_bind("x", h, b::lex(b::level(1), b::var("x")))
    }));
    out
}

/// Searches the standard contexts (and their two-fold compositions) for a
/// witness that `e1 ⋠ctx e2`: a context where `C[e1]` converges but
/// `C[e2]` does not.
///
/// Returns the offending context's name, or `None` if no counterexample
/// was found within the budget (evidence for `e1 ⪯ctx e2`).
pub fn find_ctx_counterexample(e1: &TermRef, e2: &TermRef, fuel: usize) -> Option<String> {
    let ctxs = standard_contexts();
    for c in &ctxs {
        let c1 = c.fill(e1.clone());
        let c2 = c.fill(e2.clone());
        if converges(&c1, fuel) && !converges(&c2, fuel) {
            return Some(c.name.clone());
        }
    }
    // Two-fold compositions.
    for outer in &ctxs {
        for inner in &ctxs {
            let c1 = outer.fill(inner.fill(e1.clone()));
            let c2 = outer.fill(inner.fill(e2.clone()));
            if converges(&c1, fuel) && !converges(&c2, fuel) {
                return Some(format!("{}∘{}", outer.name, inner.name));
            }
        }
    }
    None
}

/// Bounded contextual equivalence: no counterexample in either direction.
pub fn ctx_equiv_bounded(e1: &TermRef, e2: &TermRef, fuel: usize) -> bool {
    find_ctx_counterexample(e1, e2, fuel).is_none()
        && find_ctx_counterexample(e2, e1, fuel).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_join_core::parser::parse;

    fn p(s: &str) -> TermRef {
        parse(s).unwrap()
    }

    #[test]
    fn streaming_order_has_no_counterexamples() {
        // {1} ⪯ctx {1} ∨ {2}: more output can only unlock more contexts.
        assert_eq!(
            find_ctx_counterexample(&p("{1}"), &p("{1} \\/ {2}"), 30),
            None
        );
        // botv ⪯ctx 'true.
        assert_eq!(find_ctx_counterexample(&p("botv"), &p("true"), 30), None);
        // bot ⪯ctx anything.
        assert_eq!(find_ctx_counterexample(&p("bot"), &p("{1}"), 30), None);
    }

    #[test]
    fn counterexamples_are_found_for_non_approximations() {
        // {1} ⋠ctx {2}: the threshold observer ⋁_{x∈[·]} let 1 = x …
        // separates them.
        let witness = find_ctx_counterexample(&p("{1}"), &p("{2}"), 30);
        assert!(witness.is_some(), "expected a separating context");
        // 'true ⋠ctx 'false.
        assert!(find_ctx_counterexample(&p("true"), &p("false"), 30).is_some());
        // A pair is not approximated by a function.
        assert!(find_ctx_counterexample(&p("(1, 2)"), &p("\\x. x"), 30).is_some());
    }

    #[test]
    fn equivalent_programs_pass_both_directions() {
        // β-equivalent programs.
        assert!(ctx_equiv_bounded(&p("(\\x. x) {1}"), &p("{1}"), 30));
        // Join is commutative and idempotent contextually.
        assert!(ctx_equiv_bounded(&p("{1} \\/ {2}"), &p("{2} \\/ {1}"), 30));
        assert!(ctx_equiv_bounded(&p("{1} \\/ {1}"), &p("{1}"), 30));
        // ⊥ is a unit for join.
        assert!(ctx_equiv_bounded(&p("{1} \\/ bot"), &p("{1}"), 30));
    }

    #[test]
    fn inequivalent_programs_fail() {
        assert!(!ctx_equiv_bounded(&p("{1}"), &p("{1, 2}"), 30));
        assert!(!ctx_equiv_bounded(&p("1"), &p("(1, 1)"), 30));
    }

    /// The law behind the §5.2 freezing order, checked contextually: a
    /// value approximates its consistent joins, `v ⪯ctx v ∨ v'`.
    #[test]
    fn values_approximate_their_joins() {
        for (a, bb) in [("{1}", "{2}"), ("botv", "'x"), ("(1, botv)", "(1, 2)")] {
            let joined = b::join(p(a), p(bb));
            assert_eq!(
                find_ctx_counterexample(&p(a), &joined, 30),
                None,
                "{a} should approximate {a} ∨ {bb}"
            );
        }
    }
}
