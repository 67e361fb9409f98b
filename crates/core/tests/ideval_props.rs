//! Property tests for the id-native toolkit (`core::ideval`) and the id
//! frame machine: every id-level metafunction agrees with its tree
//! counterpart *under canonical interning*, and the id machine is
//! observationally equal to the recursive executable specification —
//! results α-equal **and** β-counts identical.

use lambda_join_core::bigstep::{self, spec};
use lambda_join_core::builder as b;
use lambda_join_core::ideval;
use lambda_join_core::intern::Interner;
use lambda_join_core::reduce;
use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::{Prim, TermRef};
use proptest::prelude::*;

/// Random terms rich in binders (shared names on purpose, so shadowing is
/// exercised) and free variables.
fn arb_term() -> impl Strategy<Value = TermRef> {
    let name = prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")];
    let leaf = prop_oneof![
        Just(b::bot()),
        Just(b::top()),
        Just(b::botv()),
        (0i64..4).prop_map(b::int),
        (0u64..3).prop_map(|n| b::sym(Symbol::Level(n))),
        name.clone().prop_map(b::var),
    ];
    leaf.prop_recursive(4, 24, 3, move |inner| {
        let name = prop_oneof![Just("x"), Just("y"), Just("z"), Just("w")];
        prop_oneof![
            3 => (name.clone(), inner.clone()).prop_map(|(x, e)| b::lam(x, e)),
            3 => (inner.clone(), inner.clone()).prop_map(|(f, a)| b::app(f, a)),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::pair(a, e)),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::join(a, e)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::lex(a, e)),
            1 => prop::collection::vec(inner.clone(), 0..3).prop_map(b::set),
            2 => (name.clone(), name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x1, x2, e, body)| b::let_pair(x1, x2, e, body)),
            2 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::big_join(x, e, body)),
            1 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::let_frz(x, e, body)),
            1 => (name.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, e, body)| b::lex_bind(x, e, body)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::add(a, e)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::le(a, e)),
            1 => inner.clone().prop_map(b::frz),
        ]
    })
}

/// Random *closed* values, for substitution arguments and join operands.
fn arb_value() -> impl Strategy<Value = TermRef> {
    let leaf = prop_oneof![
        Just(b::botv()),
        (0i64..4).prop_map(b::int),
        (0u64..3).prop_map(|n| b::sym(Symbol::Level(n))),
        Just(b::lam("v", b::var("v"))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            2 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::pair(a, e)),
            2 => prop::collection::vec(inner.clone(), 0..3).prop_map(b::set),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, e)| b::lex(a, e)),
            1 => inner.clone().prop_map(b::frz),
        ]
    })
}

/// Random *results* (values plus ⊥/⊤), for join and ordering operands.
fn arb_result() -> impl Strategy<Value = TermRef> {
    prop_oneof![
        1 => Just(b::bot()),
        1 => Just(b::top()),
        8 => arb_value(),
    ]
}

proptest! {
    /// β-substitution over ids ≡ tree substitution under `canon_id`:
    /// `beta_subst(canon(λx.t), canon(v))` is the canonical id of
    /// `t[v/x]`.
    #[test]
    fn subst_id_agrees_with_tree_subst(t in arb_term(), v in arb_value()) {
        let mut ar = Interner::new();
        let lam_t = b::lam("x", t.clone());
        let lam_id = ar.canon_id(&lam_t);
        let v_id = ar.canon_id(&v);
        let got = ideval::beta_subst(&mut ar, lam_id, v_id);
        let want = ar.canon_id(&t.subst("x", &v));
        prop_assert_eq!(got, want, "({})[{}/x]", t, v);
    }

    /// `join_results_id` ≡ `join_results` under `canon_id`.
    #[test]
    fn join_id_agrees_with_tree_join(a in arb_result(), c in arb_result()) {
        let mut ar = Interner::new();
        let (ai, ci) = (ar.canon_id(&a), ar.canon_id(&c));
        let got = ideval::join_results_id(&mut ar, ai, ci);
        let want = ar.canon_id(&reduce::join_results(&a, &c));
        prop_assert_eq!(got, want, "{} ⊔ {}", a, c);
    }

    /// `result_leq_id` decides exactly the tree streaming order.
    #[test]
    fn leq_id_agrees_with_tree_leq(a in arb_result(), c in arb_result()) {
        let mut ar = Interner::new();
        let (ai, ci) = (ar.canon_id(&a), ar.canon_id(&c));
        prop_assert_eq!(
            ideval::result_leq_id(&ar, ai, ci),
            lambda_join_core::observe::result_leq(&a, &c),
            "{} ⊑ {}", a, c
        );
    }

    /// `delta_id` ≡ `delta` under `canon_id`, across every primitive.
    #[test]
    fn delta_id_agrees_with_tree_delta(
        op in prop_oneof![
            Just(Prim::Add), Just(Prim::Sub), Just(Prim::Mul),
            Just(Prim::Le), Just(Prim::Lt), Just(Prim::Eq),
            Just(Prim::Member), Just(Prim::Diff), Just(Prim::SetSize),
        ],
        a in arb_value(),
        c in arb_value(),
    ) {
        // Frozen-set queries want frozen operands at least some of the
        // time; wrap deterministically so every arm is exercised.
        let (a, c) = match op {
            Prim::Member | Prim::Diff | Prim::SetSize => (b::frz(a), b::frz(c)),
            _ => (a, c),
        };
        let args: Vec<TermRef> = match op.arity() {
            1 => vec![a.clone()],
            _ => vec![a.clone(), c.clone()],
        };
        let mut ar = Interner::new();
        let arg_ids: Vec<_> = args.iter().map(|t| ar.canon_id(t)).collect();
        let got = ideval::delta_id(&mut ar, op, &arg_ids);
        let want = ar.canon_id(&reduce::delta(op, &args));
        prop_assert_eq!(got, want, "{}({:?})", op, args);
    }

    /// The full boundary: the id frame machine behind `eval_fuel` is
    /// observationally equal to the recursive executable specification —
    /// results α-equal and β-counts identical — at every fuel.
    #[test]
    fn id_engine_matches_spec(t in arb_term(), fuel in 0usize..9) {
        let (got, got_betas) = bigstep::eval_with_budget(&t, fuel, usize::MAX);
        let (want, want_betas) = spec::eval_with_budget_recursive(&t, fuel, usize::MAX);
        prop_assert!(
            got.alpha_eq(&want),
            "{} at fuel {}: id engine {} vs spec {}", t, fuel, got, want
        );
        prop_assert_eq!(got_betas, want_betas, "β-counts diverge on {} at fuel {}", t, fuel);
    }

    /// The global β valve behaves identically through the id boundary.
    #[test]
    fn id_engine_matches_spec_under_budget(t in arb_term(), fuel in 0usize..7, betas in 0usize..12) {
        let (got, got_used) = bigstep::eval_with_budget(&t, fuel, betas);
        let (want, want_used) = spec::eval_with_budget_recursive(&t, fuel, betas);
        prop_assert!(got.alpha_eq(&want), "{}: {} vs {}", t, got, want);
        prop_assert_eq!(got_used, want_used);
    }
}
