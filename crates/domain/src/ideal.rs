//! Ideals and the ideal completion (§4.5, Appendix B.1).
//!
//! An ideal over a preorder is a non-empty, downward-closed, directed
//! subset. The ideal completion `I(B)` of a finitary basis is a Scott
//! domain; the compact elements of `I(B)` are exactly the principal ideals
//! `↓x`.
//!
//! Finitely-generated ideals of a finitary basis are principal (close the
//! generators under joins and take the maximum), so [`Ideal`] stores a
//! single generator. Properly infinite elements of the completion — the
//! "limits" such as the full stream of naturals — are represented by
//! [`Chain`]s: monotone sequences of basis elements, exactly the shape in
//! which the λ∨ machine emits observations.

use crate::basis::FinitaryBasis;

/// A finitely-generated (hence principal) ideal `↓gen` of a basis.
#[derive(Debug, Clone, PartialEq)]
pub struct Ideal<E> {
    generator: E,
}

impl<E: Clone + PartialEq + std::fmt::Debug> Ideal<E> {
    /// The principal ideal `↓x`.
    pub fn principal(x: E) -> Self {
        Ideal { generator: x }
    }

    /// The ideal generated by a non-empty set of elements, if they are
    /// bounded (their join exists); `None` otherwise — an unbounded set
    /// generates no ideal (it would not be directed).
    pub fn generated<B: FinitaryBasis<Elem = E>>(basis: &B, gens: &[E]) -> Option<Self> {
        basis.join_all(gens).map(Ideal::principal)
    }

    /// The generator (the maximum of the ideal).
    pub fn generator(&self) -> &E {
        &self.generator
    }

    /// Membership: `x ∈ ↓gen` iff `x ⊑ gen`.
    pub fn contains<B: FinitaryBasis<Elem = E>>(&self, basis: &B, x: &E) -> bool {
        basis.leq(x, &self.generator)
    }

    /// Inclusion of ideals (the order of the completion): `↓a ⊆ ↓b` iff
    /// `a ⊑ b`.
    pub fn subset<B: FinitaryBasis<Elem = E>>(&self, basis: &B, other: &Self) -> bool {
        basis.leq(&self.generator, &other.generator)
    }

    /// The join of two ideals, when their generators are bounded.
    pub fn join<B: FinitaryBasis<Elem = E>>(&self, basis: &B, other: &Self) -> Option<Self> {
        basis
            .join(&self.generator, &other.generator)
            .map(Ideal::principal)
    }
}

/// An ω-chain of basis elements: a monotone sequence representing a
/// (possibly non-principal) element of the ideal completion — the union of
/// the principal ideals of its entries.
///
/// This is the domain-theoretic shape of a λ∨ *observation stream*: the
/// machine's outputs at increasing fuel form exactly such a chain (see
/// `lambda-join-runtime`).
#[derive(Debug, Clone)]
pub struct Chain<E> {
    entries: Vec<E>,
}

impl<E: Clone + PartialEq + std::fmt::Debug> Chain<E> {
    /// Creates a chain from entries, checking monotonicity.
    ///
    /// Returns `Err(i)` if entry `i+1` is not above entry `i`.
    pub fn new<B: FinitaryBasis<Elem = E>>(basis: &B, entries: Vec<E>) -> Result<Self, usize> {
        for (i, w) in entries.windows(2).enumerate() {
            if !basis.leq(&w[0], &w[1]) {
                return Err(i);
            }
        }
        Ok(Chain { entries })
    }

    /// The entries of the chain.
    pub fn entries(&self) -> &[E] {
        &self.entries
    }

    /// Membership in the represented ideal: below some entry.
    pub fn contains<B: FinitaryBasis<Elem = E>>(&self, basis: &B, x: &E) -> bool {
        self.entries.iter().any(|e| basis.leq(x, e))
    }

    /// Chain inclusion: every entry of `self` is below some entry of
    /// `other` (i.e. the represented ideals are included).
    pub fn subset<B: FinitaryBasis<Elem = E>>(&self, basis: &B, other: &Self) -> bool {
        self.entries
            .iter()
            .all(|e| other.entries.iter().any(|f| basis.leq(e, f)))
    }
}

/// Checks that a finite set is an ideal of the given fragment: non-empty,
/// downward closed (within the fragment), and directed.
///
/// Used to validate that term meanings are ideals (Lemmas 4.8–4.10).
pub fn is_ideal_in_fragment<B: FinitaryBasis>(
    basis: &B,
    set: &[B::Elem],
    fragment: &[B::Elem],
) -> Result<(), String> {
    if set.is_empty() {
        return Err("empty".into());
    }
    // Downward closure within the fragment.
    for x in fragment {
        for y in set {
            if basis.leq(x, y) && !set.iter().any(|z| basis.equiv(z, x)) {
                return Err(format!("not downward closed: {x:?} ⊑ {y:?} missing"));
            }
        }
    }
    // Directedness.
    for a in set {
        for b in set {
            let has_bound = set.iter().any(|c| basis.leq(a, c) && basis.leq(b, c));
            if !has_bound {
                return Err(format!("not directed: {a:?}, {b:?} unbounded in set"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{SymBasis, VFormBasis};
    use lambda_join_core::Symbol;
    use lambda_join_filter::formula::build::*;
    use lambda_join_filter::formula::VFormRef;

    #[test]
    fn principal_ideal_membership() {
        let i = Ideal::principal(Symbol::Level(3));
        assert!(i.contains(&SymBasis, &Symbol::Level(1)));
        assert!(i.contains(&SymBasis, &Symbol::Level(3)));
        assert!(!i.contains(&SymBasis, &Symbol::Level(4)));
        assert!(!i.contains(&SymBasis, &Symbol::tt()));
    }

    #[test]
    fn generated_ideals_are_principal() {
        let i = Ideal::generated(&SymBasis, &[Symbol::Level(1), Symbol::Level(5)]).unwrap();
        assert_eq!(i.generator(), &Symbol::Level(5));
        assert!(Ideal::generated(&SymBasis, &[Symbol::tt(), Symbol::ff()]).is_none());
    }

    #[test]
    fn ideal_order_is_generator_order() {
        let a = Ideal::principal(vset(vec![vint(1)]));
        let b = Ideal::principal(vset(vec![vint(1), vint(2)]));
        assert!(a.subset(&VFormBasis, &b));
        assert!(!b.subset(&VFormBasis, &a));
        let j = a.join(&VFormBasis, &b).unwrap();
        assert!(VFormBasis.equiv(j.generator(), b.generator()));
    }

    #[test]
    fn chains_require_monotonicity() {
        let ok = Chain::new(
            &SymBasis,
            vec![Symbol::Level(0), Symbol::Level(1), Symbol::Level(4)],
        );
        assert!(ok.is_ok());
        let bad = Chain::new(&SymBasis, vec![Symbol::Level(2), Symbol::Level(1)]);
        assert_eq!(bad.unwrap_err(), 0);
    }

    #[test]
    fn chain_represents_growing_set() {
        // The evens-style chain {} ⊑ {0} ⊑ {0,2} ⊑ {0,2,4}…
        let entries = vec![
            vset(vec![]),
            vset(vec![vint(0)]),
            vset(vec![vint(0), vint(2)]),
            vset(vec![vint(0), vint(2), vint(4)]),
        ];
        let c = Chain::new(&VFormBasis, entries).unwrap();
        // Compact elements below the limit are reached at finite stages
        // (this is what compactness means): the first stage above `x`.
        let stage = |x: &VFormRef| c.entries.iter().position(|e| VFormBasis.leq(x, e));
        assert_eq!(stage(&vset(vec![vint(2)])), Some(2));
        assert_eq!(stage(&vset(vec![vint(4)])), Some(3));
        assert_eq!(stage(&vset(vec![vint(1)])), None);
        assert!(c.contains(&VFormBasis, &vset(vec![vint(0), vint(4)])));
    }

    #[test]
    fn chain_inclusion() {
        let small = Chain::new(&VFormBasis, vec![vset(vec![vint(0)])]).unwrap();
        let big = Chain::new(
            &VFormBasis,
            vec![vset(vec![vint(0)]), vset(vec![vint(0), vint(2)])],
        )
        .unwrap();
        assert!(small.subset(&VFormBasis, &big));
        assert!(!big.subset(&VFormBasis, &small));
    }

    #[test]
    fn ideal_fragment_check() {
        let frag = vec![
            Symbol::Level(0),
            Symbol::Level(1),
            Symbol::Level(2),
            Symbol::tt(),
        ];
        // ↓Level(1) within the fragment.
        let good = vec![Symbol::Level(0), Symbol::Level(1)];
        is_ideal_in_fragment(&SymBasis, &good, &frag).unwrap();
        // Not downward closed.
        let bad = vec![Symbol::Level(1)];
        assert!(is_ideal_in_fragment(&SymBasis, &bad, &frag).is_err());
        // Not directed.
        let bad = vec![Symbol::Level(0), Symbol::Level(1), Symbol::tt()];
        assert!(is_ideal_in_fragment(&SymBasis, &bad, &frag).is_err());
    }
}
