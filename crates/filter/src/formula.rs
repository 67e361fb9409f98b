//! Logical formulae of the filter model (Figure 6).
//!
//! A *computation formula* `φ` describes the behaviour of an arbitrary term;
//! a *value formula* `τ` describes the behaviour of a term that produces a
//! successful result. Formulae are the compact elements of the model's
//! domain: a single formula is a *finite* behaviour ("a set containing at
//! least 1 and 2", "a function mapping at least `'true` to `'false`"), and
//! the meaning of a term is the set of all formulae assignable to it.
//!
//! ```text
//! φ, ψ ::= ⊥ | ⊤ | τ
//! τ, σ ::= ⊥v | s | (τ1, τ2) | {τi | i ∈ I} | ⋁_{i∈I} (τi → φi)
//! ```

use std::fmt;
use std::sync::Arc;

use lambda_join_core::symbol::Symbol;
use lambda_join_core::term::{Term, TermRef};

/// A shared value formula.
pub type VFormRef = Arc<VForm>;

/// A value formula `τ` (Figure 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VForm {
    /// `⊥v` — "some value, nothing more known".
    BotV,
    /// A symbol behaviour: "a symbol at least `s`".
    Sym(Symbol),
    /// A pair behaviour, componentwise.
    Pair(VFormRef, VFormRef),
    /// A set behaviour `{τi | i ∈ I}`: "contains at least these elements".
    Set(Vec<VFormRef>),
    /// A function behaviour `⋁ (τi → φi)`: a finite join of threshold
    /// clauses — when the input meets `τi`, the output is at least `φi`.
    Fun(Vec<(VFormRef, CForm)>),
}

/// A computation formula `φ` (Figure 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CForm {
    /// `⊥` — no output.
    Bot,
    /// `⊤` — the inconsistent behaviour.
    Top,
    /// A successful behaviour.
    Val(VFormRef),
}

impl VForm {
    /// The empty-set formula `{}`.
    pub fn empty_set() -> VFormRef {
        Arc::new(VForm::Set(vec![]))
    }

    /// The empty function formula (the 0-clause join), least among function
    /// behaviours.
    pub fn empty_fun() -> VFormRef {
        Arc::new(VForm::Fun(vec![]))
    }

    /// The *size* of a formula: its height as a syntax tree (Lemma 4.3's
    /// induction metric, under which `|φ ⊔ ψ| ≤ max(|φ|, |ψ|)`).
    pub fn size(&self) -> usize {
        match self {
            VForm::BotV | VForm::Sym(_) => 1,
            VForm::Pair(a, b) => 1 + a.size().max(b.size()),
            VForm::Set(es) => 1 + es.iter().map(|e| e.size()).max().unwrap_or(0),
            VForm::Fun(cs) => {
                1 + cs
                    .iter()
                    .map(|(t, p)| t.size().max(p.size()))
                    .max()
                    .unwrap_or(0)
            }
        }
    }
}

impl CForm {
    /// Wraps a value formula.
    pub fn val(v: VFormRef) -> CForm {
        CForm::Val(v)
    }

    /// The size metric, extended to computation formulae.
    pub fn size(&self) -> usize {
        match self {
            CForm::Bot | CForm::Top => 1,
            CForm::Val(v) => v.size(),
        }
    }
}

impl From<VFormRef> for CForm {
    fn from(v: VFormRef) -> CForm {
        CForm::Val(v)
    }
}

impl From<Symbol> for CForm {
    fn from(s: Symbol) -> CForm {
        CForm::Val(Arc::new(VForm::Sym(s)))
    }
}

impl fmt::Display for VForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VForm::BotV => f.write_str("⊥v"),
            VForm::Sym(s) => write!(f, "{s}"),
            VForm::Pair(a, b) => write!(f, "({a}, {b})"),
            VForm::Set(es) => {
                f.write_str("{")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("}")
            }
            VForm::Fun(cs) => {
                if cs.is_empty() {
                    return f.write_str("(→)");
                }
                for (i, (t, p)) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∨ ")?;
                    }
                    write!(f, "({t} → {p})")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for CForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CForm::Bot => f.write_str("⊥"),
            CForm::Top => f.write_str("⊤"),
            CForm::Val(v) => write!(f, "{v}"),
        }
    }
}

/// Convenient constructors for formulae.
pub mod build {
    use super::*;

    /// `⊥`.
    pub fn bot() -> CForm {
        CForm::Bot
    }

    /// `⊤`.
    pub fn top() -> CForm {
        CForm::Top
    }

    /// `⊥v` as a computation formula.
    pub fn botv() -> CForm {
        CForm::Val(Arc::new(VForm::BotV))
    }

    /// `⊥v` as a value formula.
    pub fn botv_v() -> VFormRef {
        Arc::new(VForm::BotV)
    }

    /// A symbol value formula.
    pub fn vsym(s: Symbol) -> VFormRef {
        Arc::new(VForm::Sym(s))
    }

    /// An integer-symbol value formula.
    pub fn vint(n: i64) -> VFormRef {
        vsym(Symbol::Int(n))
    }

    /// A name-symbol value formula.
    pub fn vname(n: &str) -> VFormRef {
        vsym(Symbol::name(n))
    }

    /// A pair value formula.
    pub fn vpair(a: VFormRef, b: VFormRef) -> VFormRef {
        Arc::new(VForm::Pair(a, b))
    }

    /// A set value formula.
    pub fn vset(es: Vec<VFormRef>) -> VFormRef {
        Arc::new(VForm::Set(es))
    }

    /// A single-clause function formula `τ → φ`.
    pub fn varrow(t: VFormRef, p: CForm) -> VFormRef {
        Arc::new(VForm::Fun(vec![(t, p)]))
    }

    /// A multi-clause function formula.
    pub fn vfun(cs: Vec<(VFormRef, CForm)>) -> VFormRef {
        Arc::new(VForm::Fun(cs))
    }

    /// Lifts a value formula into a computation formula.
    pub fn val(v: VFormRef) -> CForm {
        CForm::Val(v)
    }
}

/// The principal value formula of a *first-order* result value.
///
/// λ-abstractions are mapped to `⊥v` — a sound under-approximation
/// (`⊥v` is derivable for every value by rule TBotV); their full behaviour
/// is recovered on demand by the assignment checker.
///
/// Returns `None` for open values (free variables).
pub fn value_formula(v: &TermRef) -> Option<VFormRef> {
    match &**v {
        Term::BotV => Some(Arc::new(VForm::BotV)),
        Term::Sym(s) => Some(Arc::new(VForm::Sym(s.clone()))),
        Term::Pair(a, b) => Some(Arc::new(VForm::Pair(value_formula(a)?, value_formula(b)?))),
        Term::Set(es) => {
            let ts: Option<Vec<VFormRef>> = es.iter().map(value_formula).collect();
            Some(Arc::new(VForm::Set(ts?)))
        }
        Term::Lam(..) => Some(Arc::new(VForm::BotV)),
        // Extension values (§5.2 frozen values and versioned pairs) are
        // under-approximated by ⊥v, like lambdas: the formula language of
        // Figure 6 describes the core calculus only.
        Term::Frz(_) | Term::Lex(..) => {
            if v.is_value() {
                Some(Arc::new(VForm::BotV))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The principal computation formula of a result (`⊥`, `⊤`, or a value).
///
/// Returns `None` if the term is not a closed result.
pub fn result_formula(r: &TermRef) -> Option<CForm> {
    match &**r {
        Term::Bot => Some(CForm::Bot),
        Term::Top => Some(CForm::Top),
        _ if r.is_value() => value_formula(r).map(CForm::Val),
        _ => None,
    }
}

/// Enumerates all value formulae of height `≤ depth` over the given symbol
/// universe (used by property tests and the domain-equation checks).
///
/// The output grows quickly with depth; keep `depth ≤ 3` and the universe
/// small.
pub fn enumerate_vforms(symbols: &[Symbol], depth: usize) -> Vec<VFormRef> {
    if depth == 0 {
        return vec![];
    }
    let mut out: Vec<VFormRef> = vec![Arc::new(VForm::BotV)];
    out.extend(symbols.iter().map(|s| Arc::new(VForm::Sym(s.clone()))));
    if depth == 1 {
        out.push(VForm::empty_set());
        out.push(VForm::empty_fun());
        return out;
    }
    let smaller = enumerate_vforms(symbols, depth - 1);
    // Pairs.
    for a in &smaller {
        for b in &smaller {
            out.push(Arc::new(VForm::Pair(a.clone(), b.clone())));
        }
    }
    // Sets of size ≤ 2.
    out.push(VForm::empty_set());
    for a in &smaller {
        out.push(Arc::new(VForm::Set(vec![a.clone()])));
        for b in &smaller {
            if !Arc::ptr_eq(a, b) {
                out.push(Arc::new(VForm::Set(vec![a.clone(), b.clone()])));
            }
        }
    }
    // Functions with ≤ 2 clauses; outputs drawn from ⊥/⊤/smaller values.
    let mut outputs: Vec<CForm> = vec![CForm::Bot, CForm::Top];
    outputs.extend(smaller.iter().map(|v| CForm::Val(v.clone())));
    out.push(VForm::empty_fun());
    for t in &smaller {
        for p in &outputs {
            out.push(Arc::new(VForm::Fun(vec![(t.clone(), p.clone())])));
        }
    }
    for t1 in smaller.iter().take(4) {
        for p1 in outputs.iter().take(4) {
            for t2 in smaller.iter().take(4) {
                for p2 in outputs.iter().take(4) {
                    out.push(Arc::new(VForm::Fun(vec![
                        (t1.clone(), p1.clone()),
                        (t2.clone(), p2.clone()),
                    ])));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use lambda_join_core::builder as tb;

    #[test]
    fn sizes_follow_height() {
        assert_eq!(CForm::Bot.size(), 1);
        assert_eq!(botv().size(), 1);
        assert_eq!(vpair(vint(1), vint(2)).size(), 2);
        assert_eq!(vset(vec![vpair(vint(1), vint(2))]).size(), 3);
        assert_eq!(varrow(vint(1), top()).size(), 2);
        assert_eq!(VForm::empty_fun().size(), 1);
        assert_eq!(VForm::empty_set().size(), 1);
    }

    #[test]
    fn value_formula_of_results() {
        assert_eq!(value_formula(&tb::int(5)), Some(vint(5)));
        assert_eq!(
            value_formula(&tb::pair(tb::int(1), tb::botv())),
            Some(vpair(vint(1), botv_v()))
        );
        assert_eq!(
            value_formula(&tb::set(vec![tb::int(1)])),
            Some(vset(vec![vint(1)]))
        );
        // Lambdas become ⊥v.
        assert_eq!(value_formula(&tb::lam("x", tb::var("x"))), Some(botv_v()));
        // Open values have no closed formula.
        assert_eq!(value_formula(&tb::var("x")), None);
    }

    #[test]
    fn result_formula_of_bot_top() {
        assert_eq!(result_formula(&tb::bot()), Some(CForm::Bot));
        assert_eq!(result_formula(&tb::top()), Some(CForm::Top));
        assert_eq!(result_formula(&tb::app(tb::bot(), tb::bot())), None);
    }

    #[test]
    fn enumeration_is_nonempty_and_bounded() {
        let syms = [Symbol::tt(), Symbol::Int(0)];
        let d1 = enumerate_vforms(&syms, 1);
        assert!(d1.iter().all(|v| v.size() <= 1));
        let d2 = enumerate_vforms(&syms, 2);
        assert!(d2.len() > d1.len());
        assert!(d2.iter().all(|v| v.size() <= 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(bot().to_string(), "⊥");
        assert_eq!(vpair(vint(1), botv_v()).to_string(), "(1, ⊥v)");
        assert_eq!(
            varrow(vname("true"), val(vname("false"))).to_string(),
            "('true → 'false)"
        );
        assert_eq!(VForm::empty_fun().to_string(), "(→)");
    }
}
