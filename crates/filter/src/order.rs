//! The streaming order `φ ⊑ φ'` on formulae (Figure 6).
//!
//! The order coincides with Scott's order of approximation on denotations
//! and is the opposite of the classic subtyping order of filter models. The
//! interesting case is `TApxFun`: `⋁_{i∈I}(τi → φi) ⊑ ⋁_{j∈J}(τ'j → φ'j)`
//! demands, for every clause `i`, a subset `J' ⊆ J` whose inputs join below
//! `τi` and whose outputs join above `φi`.
//!
//! Rather than searching all subsets, [`vleq`] uses the *canonical* subset
//! `J* = {j | τ'j ⊑ τi}`: every admissible `J'` is contained in `J*`
//! (each `τ'j ⊑ ⊔J' τ' ⊑ τi`), and because the join is a least upper bound
//! (Lemma 4.2) `⊔J* τ' ⊑ τi` holds as well, while its output join dominates
//! every other subset's. Checking `J*` alone is therefore sound *and*
//! complete, and keeps the decision procedure polynomial.

use crate::formula::{CForm, VForm, VFormRef};
use crate::join::cjoin_all;

/// Decides `φ1 ⊑ φ2` (streaming order on computation formulae).
pub fn cleq(a: &CForm, b: &CForm) -> bool {
    match (a, b) {
        (CForm::Bot, _) => true,  // TApxBot
        (_, CForm::Top) => true,  // TApxTop
        (CForm::Top, _) => false, // only ⊤ above ⊤
        (_, CForm::Bot) => false, // only ⊥ below ⊥
        (CForm::Val(v1), CForm::Val(v2)) => vleq(v1, v2),
    }
}

/// Decides `τ1 ⊑ τ2` (streaming order on value formulae).
pub fn vleq(a: &VFormRef, b: &VFormRef) -> bool {
    match (&**a, &**b) {
        (VForm::BotV, _) => true,                       // TApxBotV
        (VForm::Sym(s1), VForm::Sym(s2)) => s1.leq(s2), // TApxSym
        (VForm::Pair(a1, b1), VForm::Pair(a2, b2)) => vleq(a1, a2) && vleq(b1, b2), // TApxPair
        // TApxSet: ∀i ∃j. τi ⊑ τ'j
        (VForm::Set(e1), VForm::Set(e2)) => e1.iter().all(|t| e2.iter().any(|t2| vleq(t, t2))),
        // TApxFun, via the canonical-subset argument (module docs).
        (VForm::Fun(c1), VForm::Fun(c2)) => c1.iter().all(|(ti, pi)| {
            let triggered: Vec<&(VFormRef, CForm)> =
                c2.iter().filter(|(tj, _)| vleq(tj, ti)).collect();
            let out = cjoin_all(triggered.iter().map(|(_, pj)| pj));
            cleq(pi, &out)
        }),
        _ => false,
    }
}

/// An environment `Γ`: a finite map from variables to value formulae.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    bindings: Vec<(String, VFormRef)>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Extends the environment, shadowing any previous binding of `x`.
    pub fn extend(&self, x: &str, t: VFormRef) -> Env {
        let mut bindings = self.bindings.clone();
        bindings.push((x.to_string(), t));
        Env { bindings }
    }

    /// Looks up `Γ(x)` (innermost binding wins).
    pub fn lookup(&self, x: &str) -> Option<&VFormRef> {
        self.bindings
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, t)| t)
    }

    /// The pointwise order `Γ ⊑ Γ'`: `dom Γ ⊆ dom Γ'` and each binding
    /// grows.
    pub fn leq(&self, other: &Env) -> bool {
        self.bindings
            .iter()
            .all(|(x, t)| other.lookup(x).map(|t2| vleq(t, t2)).unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::build::*;
    use crate::formula::enumerate_vforms;
    use crate::join::vjoin;
    use lambda_join_core::symbol::Symbol;

    fn universe() -> Vec<VFormRef> {
        enumerate_vforms(
            &[
                Symbol::tt(),
                Symbol::ff(),
                Symbol::Level(1),
                Symbol::Level(2),
            ],
            2,
        )
    }

    #[test]
    fn reflexivity_lemma_4_4() {
        for v in universe() {
            assert!(vleq(&v, &v), "{v} not reflexive");
        }
    }

    #[test]
    fn transitivity_lemma_4_5() {
        let u: Vec<_> = universe().into_iter().take(40).collect();
        for a in &u {
            for b in &u {
                if !vleq(a, b) {
                    continue;
                }
                for c in &u {
                    if vleq(b, c) {
                        assert!(vleq(a, c), "transitivity fails: {a} ⊑ {b} ⊑ {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn bot_least_top_greatest() {
        for v in universe().into_iter().take(30) {
            let cv = val(v);
            assert!(cleq(&bot(), &cv));
            assert!(cleq(&cv, &top()));
            assert!(!cleq(&top(), &cv));
            assert!(!cleq(&cv, &bot()));
        }
    }

    #[test]
    fn botv_below_every_value() {
        for v in universe().into_iter().take(30) {
            assert!(vleq(&botv_v(), &v));
        }
    }

    #[test]
    fn symbol_order_follows_symbol_leq() {
        assert!(vleq(&vsym(Symbol::Level(1)), &vsym(Symbol::Level(2))));
        assert!(!vleq(&vsym(Symbol::Level(2)), &vsym(Symbol::Level(1))));
        assert!(!vleq(&vsym(Symbol::tt()), &vsym(Symbol::ff())));
    }

    #[test]
    fn set_order_forall_exists() {
        let small = vset(vec![vint(1)]);
        let big = vset(vec![vint(2), vint(1)]);
        assert!(vleq(&small, &big));
        assert!(!vleq(&big, &small));
        assert!(vleq(&vset(vec![]), &small));
        // Element growth.
        let s1 = vset(vec![vsym(Symbol::Level(1))]);
        let s2 = vset(vec![vsym(Symbol::Level(5))]);
        assert!(vleq(&s1, &s2));
    }

    #[test]
    fn fun_order_singleton_specialisation() {
        // τ' ⊑ τ and φ ⊑ φ' imply τ→φ ⊑ τ'→φ' (contravariant inputs).
        let lo_in = vsym(Symbol::Level(1));
        let hi_in = vsym(Symbol::Level(2));
        let lo_out = val(vsym(Symbol::Level(3)));
        let hi_out = val(vsym(Symbol::Level(4)));
        // (hi_in → lo_out) ⊑ (lo_in → hi_out): lo_in ⊑ hi_in, lo_out ⊑ hi_out.
        assert!(vleq(
            &varrow(hi_in.clone(), lo_out.clone()),
            &varrow(lo_in.clone(), hi_out.clone())
        ));
        assert!(!vleq(&varrow(lo_in, lo_out), &varrow(hi_in, hi_out)));
    }

    #[test]
    fn fun_order_needs_clause_combination() {
        // τ → (ψ1 ⊔ ψ2) ⊑ (τ → ψ1) ∨ (τ → ψ2): the canonical subset must
        // combine both clauses of the right side.
        let t = vname("a");
        let (v1, v2) = (vset(vec![vint(1)]), vset(vec![vint(2)]));
        let joined = vjoin(&v1, &v2);
        let (p1, p2) = (val(v1), val(v2));
        let lhs = varrow(t.clone(), joined);
        let rhs = vfun(vec![(t.clone(), p1), (t, p2)]);
        assert!(vleq(&lhs, &rhs), "Lemma 4.1 distributivity");
    }

    #[test]
    fn empty_fun_is_least_function() {
        for v in universe() {
            if matches!(&*v, VForm::Fun(_)) {
                assert!(vleq(&VForm::empty_fun(), &v));
            }
        }
    }

    #[test]
    fn join_is_least_upper_bound_lemma_4_2() {
        let u: Vec<_> = universe().into_iter().take(25).collect();
        for a in &u {
            for b in &u {
                let j = vjoin(a, b);
                // Upper bound.
                assert!(cleq(&val(a.clone()), &j), "{a} ⋢ {a} ⊔ {b} = {j}");
                assert!(cleq(&val(b.clone()), &j));
                // Least: any common upper bound dominates the join.
                for c in &u {
                    if vleq(a, c) && vleq(b, c) {
                        assert!(
                            cleq(&j, &val(c.clone())),
                            "{a} ⊔ {b} = {j} ⋢ upper bound {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn env_order() {
        let g1 = Env::new().extend("x", vsym(Symbol::Level(1)));
        let g2 = Env::new()
            .extend("x", vsym(Symbol::Level(2)))
            .extend("y", vint(0));
        assert!(g1.leq(&g2));
        assert!(!g2.leq(&g1));
        assert_eq!(g2.lookup("y"), Some(&vint(0)));
        // Shadowing: innermost wins.
        let g3 = g1.extend("x", vsym(Symbol::Level(9)));
        assert_eq!(g3.lookup("x"), Some(&vsym(Symbol::Level(9))));
    }
}
