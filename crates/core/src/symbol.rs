//! Symbols: the base values of the λ∨ calculus.
//!
//! Symbols (§2.1 of the paper) are constants equipped with a *partial*,
//! associative, commutative, idempotent join operation `s1 ⊔ s2`. The
//! streaming order on symbols is derived from the join:
//! `s1 ≤ s2` iff `s1 ⊔ s2 = s2`.
//!
//! Four symbol families are provided:
//!
//! * **Names** — atomic constants such as `true`, `false`, `unit`, or record
//!   field labels. Distinct names have *undefined* join, so they are
//!   incomparable; this is exactly what makes the paper's `if` encoding work.
//! * **Strings** — string literals, also discretely ordered.
//! * **Integers** — primitive `i64` symbols with the discrete order. The
//!   paper encodes naturals as algebraic data types with the discrete order
//!   (§2.2); primitive integer symbols realise the same order directly and
//!   are interchangeable with the encoding (see `encodings::peano`).
//! * **Levels** — a totally ordered family `Level(n)` whose join is `max`.
//!   This exercises the non-trivial case of threshold queries
//!   (`let s = e in e'` fires for any result ≥ `s`) and models Dynamo-style
//!   version counters from §5.2.

use std::fmt;
use std::sync::Arc;

/// A λ∨ symbol: an atomic constant with a partial join.
///
/// # Examples
///
/// ```
/// use lambda_join_core::symbol::Symbol;
///
/// let t = Symbol::name("true");
/// let f = Symbol::name("false");
/// assert_eq!(t.join(&t), Some(t.clone()));
/// assert_eq!(t.join(&f), None); // incomparable, join undefined
///
/// let a = Symbol::Level(1);
/// let b = Symbol::Level(3);
/// assert_eq!(a.join(&b), Some(Symbol::Level(3)));
/// assert!(a.leq(&b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Symbol {
    /// A named atomic constant (e.g. `true`, `nil`, a record label).
    Name(Arc<str>),
    /// A string literal.
    Str(Arc<str>),
    /// A primitive integer with the discrete streaming order.
    Int(i64),
    /// A level in a totally ordered chain; join is `max`.
    Level(u64),
}

impl Symbol {
    /// Creates a name symbol.
    pub fn name(s: &str) -> Self {
        Symbol::Name(Arc::from(s))
    }

    /// Creates a string-literal symbol.
    pub fn string(s: &str) -> Self {
        Symbol::Str(Arc::from(s))
    }

    /// The unit value `()`, represented as the name `unit`.
    pub fn unit() -> Self {
        Symbol::name("unit")
    }

    /// The boolean `true` name.
    pub fn tt() -> Self {
        Symbol::name("true")
    }

    /// The boolean `false` name.
    pub fn ff() -> Self {
        Symbol::name("false")
    }

    /// The partial join `s1 ⊔ s2`.
    ///
    /// Defined when the symbols are equal (idempotence) or both are
    /// [`Symbol::Level`]s (join is `max`). `None` means the join is
    /// *undefined*: joining such symbols in a program is an ambiguity error
    /// and produces `⊤`.
    pub fn join(&self, other: &Symbol) -> Option<Symbol> {
        match (self, other) {
            _ if self == other => Some(self.clone()),
            (Symbol::Level(a), Symbol::Level(b)) => Some(Symbol::Level(*a.max(b))),
            _ => None,
        }
    }

    /// The streaming order `s1 ≤ s2`, defined as `s1 ⊔ s2 = s2`.
    pub fn leq(&self, other: &Symbol) -> bool {
        self.join(other).as_ref() == Some(other)
    }

    /// Returns the integer payload if this is an [`Symbol::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Symbol::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns `true` if this symbol is the name `b` stands for.
    pub fn is_name(&self, n: &str) -> bool {
        matches!(self, Symbol::Name(s) if &**s == n)
    }

    /// Writes the symbol's surface syntax to `w`. This is the one
    /// printer: `Display` and the term renderer (which writes into a
    /// `String`, skipping the formatter for names) both use it.
    pub fn write_to<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            Symbol::Name(s) => {
                w.write_char('\'')?;
                w.write_str(s)
            }
            Symbol::Str(s) => write!(w, "{s:?}"),
            Symbol::Int(n) => write!(w, "{n}"),
            Symbol::Level(n) => write!(w, "`{n}"),
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<i64> for Symbol {
    fn from(n: i64) -> Self {
        Symbol::Int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_idempotent() {
        for s in [
            Symbol::name("a"),
            Symbol::string("hi"),
            Symbol::Int(7),
            Symbol::Level(2),
        ] {
            assert_eq!(s.join(&s), Some(s.clone()));
        }
    }

    #[test]
    fn join_is_commutative() {
        let cases = [
            (Symbol::name("a"), Symbol::name("b")),
            (Symbol::Int(1), Symbol::Int(2)),
            (Symbol::Level(1), Symbol::Level(5)),
            (Symbol::name("a"), Symbol::Int(0)),
        ];
        for (a, b) in cases {
            assert_eq!(a.join(&b), b.join(&a));
        }
    }

    #[test]
    fn join_is_associative_on_levels() {
        let (a, b, c) = (Symbol::Level(1), Symbol::Level(9), Symbol::Level(4));
        let left = a.join(&b).unwrap().join(&c);
        let right = a.join(&b.join(&c).unwrap());
        assert_eq!(left, right);
    }

    #[test]
    fn distinct_names_are_incomparable() {
        let t = Symbol::tt();
        let f = Symbol::ff();
        assert_eq!(t.join(&f), None);
        assert!(!t.leq(&f));
        assert!(!f.leq(&t));
    }

    #[test]
    fn ints_are_discrete() {
        assert!(!Symbol::Int(1).leq(&Symbol::Int(2)));
        assert!(Symbol::Int(1).leq(&Symbol::Int(1)));
    }

    #[test]
    fn levels_are_totally_ordered() {
        assert!(Symbol::Level(1).leq(&Symbol::Level(2)));
        assert!(!Symbol::Level(2).leq(&Symbol::Level(1)));
    }

    #[test]
    fn cross_family_joins_are_undefined() {
        assert_eq!(Symbol::Int(1).join(&Symbol::Level(1)), None);
        assert_eq!(Symbol::name("1").join(&Symbol::Int(1)), None);
        assert_eq!(Symbol::string("a").join(&Symbol::name("a")), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Symbol::name("true").to_string(), "'true");
        assert_eq!(Symbol::Int(-3).to_string(), "-3");
        assert_eq!(Symbol::string("hi").to_string(), "\"hi\"");
        assert_eq!(Symbol::Level(4).to_string(), "`4");
    }
}
