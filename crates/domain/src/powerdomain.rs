//! The Hoare powerdomain (Definition B.3).
//!
//! `P_H(D)` is the set of downward-closed subsets of the compact elements
//! `K(D)`, ordered by inclusion. It is the denotation of λ∨'s set data
//! type: a set value denotes the downward closure of (the denotations of)
//! its elements, and set join is union.
//!
//! We represent an element by a finite set of *generators* (compact
//! elements); the represented set is the union of their principal ideals.
//! Order and equality are decided generator-wise, which is sound because
//! downward closures are determined by their maximal points in the finite
//! case.

use crate::basis::FinitaryBasis;

/// A finitely-generated element of the Hoare powerdomain over basis `B`.
#[derive(Debug, Clone)]
pub struct HoareSet<E> {
    gens: Vec<E>,
}

impl<E: Clone + PartialEq + std::fmt::Debug> HoareSet<E> {
    /// The empty set (the least element of the powerdomain).
    pub fn empty() -> Self {
        HoareSet { gens: vec![] }
    }

    /// The downward closure of the given generators.
    pub fn from_generators(gens: Vec<E>) -> Self {
        HoareSet { gens }
    }

    /// Membership of a compact element in the represented down-set.
    pub fn contains<B: FinitaryBasis<Elem = E>>(&self, basis: &B, x: &E) -> bool {
        self.gens.iter().any(|g| basis.leq(x, g))
    }

    /// Inclusion (the powerdomain order).
    pub fn subset<B: FinitaryBasis<Elem = E>>(&self, basis: &B, other: &Self) -> bool {
        self.gens.iter().all(|g| other.contains(basis, g))
    }

    /// Order-equality of represented sets.
    pub fn set_eq<B: FinitaryBasis<Elem = E>>(&self, basis: &B, other: &Self) -> bool {
        self.subset(basis, other) && other.subset(basis, self)
    }

    /// The join (union) — total: the powerdomain is a lattice.
    pub fn union(&self, other: &Self) -> Self {
        let mut gens = self.gens.clone();
        for g in &other.gens {
            if !gens.contains(g) {
                gens.push(g.clone());
            }
        }
        HoareSet { gens }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{SymBasis, VFormBasis};
    use lambda_join_core::Symbol;
    use lambda_join_filter::formula::build::*;

    #[test]
    fn empty_is_least() {
        let e = HoareSet::<Symbol>::empty();
        let s = HoareSet::from_generators(vec![Symbol::tt()]);
        assert!(e.subset(&SymBasis, &s));
        assert!(!s.subset(&SymBasis, &e));
    }

    #[test]
    fn union_is_join() {
        let a = HoareSet::from_generators(vec![Symbol::tt()]);
        let b = HoareSet::from_generators(vec![Symbol::ff()]);
        let u = a.union(&b);
        assert!(a.subset(&SymBasis, &u));
        assert!(b.subset(&SymBasis, &u));
        // Least among upper bounds.
        let ub = HoareSet::from_generators(vec![Symbol::tt(), Symbol::ff(), Symbol::Int(3)]);
        assert!(u.subset(&SymBasis, &ub));
        assert!(!ub.subset(&SymBasis, &u));
    }

    #[test]
    fn downward_closure_membership() {
        let s = HoareSet::from_generators(vec![Symbol::Level(3)]);
        assert!(s.contains(&SymBasis, &Symbol::Level(0)));
        assert!(s.contains(&SymBasis, &Symbol::Level(3)));
        assert!(!s.contains(&SymBasis, &Symbol::Level(4)));
    }

    #[test]
    fn generator_redundancy_is_invisible() {
        let a = HoareSet::from_generators(vec![Symbol::Level(3)]);
        let b = HoareSet::from_generators(vec![Symbol::Level(1), Symbol::Level(3)]);
        assert!(a.set_eq(&SymBasis, &b));
    }

    #[test]
    fn powerdomain_over_vforms_models_lambda_sets() {
        // {1} and {1,2} as set formulae vs as powerdomain elements: the
        // orders agree (this is Lemma B.7 in miniature; the full
        // isomorphism check lives in vform_basis.rs).
        let s1 = HoareSet::from_generators(vec![vint(1)]);
        let s2 = HoareSet::from_generators(vec![vint(1), vint(2)]);
        assert!(s1.subset(&VFormBasis, &s2));
        assert!(!s2.subset(&VFormBasis, &s1));
        let f1 = vset(vec![vint(1)]);
        let f2 = vset(vec![vint(1), vint(2)]);
        assert_eq!(
            s1.subset(&VFormBasis, &s2),
            lambda_join_filter::vleq(&f1, &f2)
        );
        assert_eq!(
            s2.subset(&VFormBasis, &s1),
            lambda_join_filter::vleq(&f2, &f1)
        );
    }

    #[test]
    fn union_assoc_comm_idem_laws() {
        let syms = [
            Symbol::tt(),
            Symbol::ff(),
            Symbol::Level(1),
            Symbol::Level(2),
        ];
        let sets: Vec<HoareSet<Symbol>> = vec![
            HoareSet::empty(),
            HoareSet::from_generators(vec![syms[0].clone()]),
            HoareSet::from_generators(vec![syms[1].clone(), syms[2].clone()]),
            HoareSet::from_generators(vec![syms[3].clone()]),
        ];
        for a in &sets {
            assert!(a.union(a).set_eq(&SymBasis, a));
            for b in &sets {
                assert!(a.union(b).set_eq(&SymBasis, &b.union(a)));
                for c in &sets {
                    assert!(a.union(&b.union(c)).set_eq(&SymBasis, &a.union(b).union(c)));
                }
            }
        }
    }
}
