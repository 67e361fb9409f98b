//! The id-native evaluation toolkit: λ∨ metafunctions computed directly
//! over arena nodes, for the id frame machine ([`crate::engine::run_id`]).
//!
//! Each of the metafunctions the machine needs — substitution, result
//! join, the streaming order, primitive delta rules — has an id-level
//! counterpart here that pattern-matches on cached node keys, consults
//! the per-node metadata ([`crate::intern::TermMeta`]: size, value-ness,
//! free-variable summaries), and allocates **tree nodes never and arena
//! nodes only for genuinely new terms**. Untouched subtrees are shared by
//! returning the same `Copy` id — no refcount traffic at all.
//!
//! # The canonical id space
//!
//! All functions here operate on **canonical** ids
//! ([`Interner::canon_id`]): binders are keyed with a reserved sentinel and
//! bound occurrences with their de Bruijn *index* (distance to the binder),
//! so α-equivalence is id equality and closed subtrees key identically at
//! any ambient binder depth. That compositionality is what makes id-native
//! evaluation sound: a canonical id spliced under more binders is still
//! canonical, so [`subst`] can graft the (closed) argument value anywhere
//! without shifting, and can *share* every subtree whose free-variable
//! summary shows no occurrence of the substituted binder.
//!
//! Every function is property-tested against its tree counterpart in
//! `tests/ideval_props.rs` (equality of canonical ids with the tree
//! result's `canon_id`).

use crate::intern::{canon_binder, canon_index, Interner, NodeKey, TermId};
use crate::symbol::Symbol;
use crate::term::Prim;

// ---------------------------------------------------------------------------
// Node constructors (the id-level `builder`)
// ---------------------------------------------------------------------------

/// Interns a symbol literal.
pub fn sym_id(ar: &mut Interner, s: Symbol) -> TermId {
    ar.intern_node(NodeKey::Sym(s))
}

/// Interns an integer symbol literal.
pub fn int_id(ar: &mut Interner, n: i64) -> TermId {
    sym_id(ar, Symbol::Int(n))
}

/// Interns an application node `f a`.
pub fn app_id(ar: &mut Interner, f: TermId, a: TermId) -> TermId {
    ar.intern_node(NodeKey::App(f, a))
}

/// Interns a canonical λ-abstraction over an id body (sentinel binder:
/// the body's bound occurrences are de Bruijn indices).
pub fn lam_id(ar: &mut Interner, body: TermId) -> TermId {
    ar.intern_node(NodeKey::Lam(canon_binder(), body))
}

fn is_bot(ar: &Interner, id: TermId) -> bool {
    matches!(ar.key(id), NodeKey::Bot)
}

fn is_top(ar: &Interner, id: TermId) -> bool {
    matches!(ar.key(id), NodeKey::Top)
}

/// Sees through a `frz` wrapper to the payload id (monotone eliminations
/// are freeze-transparent), mirroring `reduce::thaw`.
pub fn thaw_id(ar: &Interner, id: TermId) -> TermId {
    match ar.key(id) {
        NodeKey::Frz(p) => *p,
        _ => id,
    }
}

// ---------------------------------------------------------------------------
// Substitution
// ---------------------------------------------------------------------------

/// β-instantiates a canonical λ-abstraction: `beta_subst(λ.b, v)` is the
/// canonical id of `b[v/·]`. The function id may be a `frz`-wrapped
/// abstraction (β sees through freezing).
///
/// # Panics
///
/// Panics if (the thawed) `lam` is not an abstraction.
pub fn beta_subst(ar: &mut Interner, lam: TermId, arg: TermId) -> TermId {
    let body = match ar.key(thaw_id(ar, lam)) {
        NodeKey::Lam(_, b) => *b,
        _ => panic!("beta_subst on a non-abstraction"),
    };
    subst(ar, body, &[arg])
}

/// Substitutes `vals` for the body's innermost `vals.len()` de Bruijn
/// binders — the id-native counterpart of the engine's β / `let (x1, x2)` /
/// `⋁` / `let frz` / bind eliminations. `vals[0]` replaces the *innermost*
/// binder (`x2` of a `let (x1, x2)`), `vals[1]` the next one out.
///
/// The substituted values must not contain free de Bruijn indices (values
/// produced by evaluating a term whose open positions are named variables
/// never do; debug-asserted). Free *named* variables in `vals` are safe:
/// sentinel binders bind indices, so names cannot be captured.
///
/// Subtrees whose free-variable summary contains none of the target
/// indices are shared — the same `Copy` id, zero allocation — so a β-step
/// costs O(changed spine) arena probes.
pub fn subst(ar: &mut Interner, body: TermId, vals: &[TermId]) -> TermId {
    subst_walk(ar, body, vals, false)
}

/// [`subst`] *fused with dispatch evaluation* — the instantiation the
/// engine's elimination forms use. Produces a term that **evaluates to the
/// same result, with the same β-count, fuel use, and exhaustion behaviour**
/// as the plain substitution (property-tested through the engine-vs-spec
/// suite), but resolves the zero-work evaluation steps the engine would
/// perform immediately afterwards, *during* the rebuild:
///
/// * a threshold clause `let s = v in e` whose scrutinee became a value is
///   decided on the spot — a failed threshold collapses the clause to `⊥`
///   **without substituting into its body at all**, a passing one yields
///   the substituted body directly;
/// * `⊥`-sides of joins are dropped while the spine rebuilds.
///
/// This is what makes the λ∨ dispatch idiom — records and `neighbors`
/// functions are joins of threshold clauses over the argument — O(live
/// clause) per instantiation instead of O(body): dead clauses mint no
/// arena nodes, and the join spine over them vanishes. Both fused steps
/// correspond to evaluation steps that consume no fuel and no β-budget and
/// cannot set the exhaustion flag, which is why the engine's bookkeeping
/// is unaffected.
pub(crate) fn subst_eval(ar: &mut Interner, body: TermId, vals: &[TermId]) -> TermId {
    subst_walk(ar, body, vals, true)
}

fn subst_walk(ar: &mut Interner, body: TermId, vals: &[TermId], fused: bool) -> TermId {
    debug_assert!(
        vals.iter().all(|v| ar
            .meta(*v)
            .free_vars
            .iter()
            .all(|x| canon_index(x).is_none())),
        "substituted values must not contain free de Bruijn indices"
    );
    let arity = vals.len();
    if arity == 0 || !needs_subst(ar, body, 0, arity) {
        return body;
    }
    let bot = if fused {
        ar.bot_id()
    } else {
        TermId::from_raw(u32::MAX)
    };
    enum Job {
        /// Visit `id` at binder `depth`; the flag is whether dispatch
        /// fusion applies at this position (true only outside λ-bodies —
        /// a λ-body survives verbatim into the result value, so fusing
        /// there would change the value's α-class, while every non-λ
        /// position is either evaluated or discarded unobserved).
        Visit(TermId, usize, bool),
        /// Rebuild `id` from the last `n` ids on the output stack.
        Build(TermId, usize),
        /// Fused: rebuild a join, dropping `⊥` sides (zero-step joins).
        BuildJoin(TermId),
        /// Fused: decide the threshold clause `id` once its substituted
        /// scrutinee (top of the output stack) is available.
        LetSymDecide(TermId, usize),
        /// Fused: rebuild the clause `id` around the recorded scrutinee
        /// and the substituted body on the output stack.
        LetSymRebuild(TermId, TermId),
    }
    let mut jobs: Vec<Job> = vec![Job::Visit(body, 0, fused)];
    let mut out: Vec<TermId> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Visit(id, depth, fuse) => {
                if !needs_subst(ar, id, depth, arity) {
                    out.push(id);
                    continue;
                }
                match ar.key(id) {
                    NodeKey::Var(x) => match canon_index(x) {
                        Some(i) if i >= depth && i - depth < arity => out.push(vals[i - depth]),
                        _ => out.push(id),
                    },
                    NodeKey::Bot | NodeKey::Top | NodeKey::BotV | NodeKey::Sym(_) => out.push(id),
                    NodeKey::Lam(_, b) => {
                        let b = *b;
                        jobs.push(Job::Build(id, 1));
                        // λ-bodies become part of the value: plain mode.
                        jobs.push(Job::Visit(b, depth + 1, false));
                    }
                    NodeKey::Frz(e) => {
                        let e = *e;
                        jobs.push(Job::Build(id, 1));
                        jobs.push(Job::Visit(e, depth, fuse));
                    }
                    NodeKey::LetSym(_, a, _) if fuse => {
                        let a = *a;
                        jobs.push(Job::LetSymDecide(id, depth));
                        jobs.push(Job::Visit(a, depth, true));
                    }
                    NodeKey::Join(a, b) if fuse => {
                        let (a, b) = (*a, *b);
                        jobs.push(Job::BuildJoin(id));
                        jobs.push(Job::Visit(b, depth, true));
                        jobs.push(Job::Visit(a, depth, true));
                    }
                    NodeKey::Pair(a, b)
                    | NodeKey::App(a, b)
                    | NodeKey::Join(a, b)
                    | NodeKey::Lex(a, b)
                    | NodeKey::LexMerge(a, b)
                    | NodeKey::LetSym(_, a, b) => {
                        let (a, b) = (*a, *b);
                        jobs.push(Job::Build(id, 2));
                        jobs.push(Job::Visit(b, depth, fuse));
                        jobs.push(Job::Visit(a, depth, fuse));
                    }
                    NodeKey::LetPair(_, _, e, b) => {
                        let (e, b) = (*e, *b);
                        jobs.push(Job::Build(id, 2));
                        jobs.push(Job::Visit(b, depth + 2, fuse));
                        jobs.push(Job::Visit(e, depth, fuse));
                    }
                    NodeKey::BigJoin(_, e, b)
                    | NodeKey::LetFrz(_, e, b)
                    | NodeKey::LexBind(_, e, b) => {
                        let (e, b) = (*e, *b);
                        jobs.push(Job::Build(id, 2));
                        jobs.push(Job::Visit(b, depth + 1, fuse));
                        jobs.push(Job::Visit(e, depth, fuse));
                    }
                    NodeKey::Set(ids) | NodeKey::Prim(_, ids) => {
                        let n = ids.len();
                        let ids: Vec<TermId> = ids.to_vec();
                        jobs.push(Job::Build(id, n));
                        jobs.extend(ids.into_iter().rev().map(|c| Job::Visit(c, depth, fuse)));
                    }
                }
            }
            Job::LetSymDecide(id, depth) => {
                let scrut = out.pop().expect("clause lost its scrutinee");
                // The verdict is only stable under later substitutions (and
                // α-faithful) for *closed* values: open values — a bare
                // occurrence of an outer binder, say — may still change.
                let decidable = {
                    let m = ar.meta(scrut);
                    m.is_value && m.is_closed()
                };
                if !decidable {
                    // Rebuild the clause with both positions substituted,
                    // like the plain walk.
                    let sym_body = match ar.key(id) {
                        NodeKey::LetSym(_, _, b) => *b,
                        _ => unreachable!("LetSymDecide holds a LetSym"),
                    };
                    jobs.push(Job::LetSymRebuild(id, scrut));
                    jobs.push(Job::Visit(sym_body, depth, true));
                    continue;
                }
                // Closed value scrutinee: the threshold decides *now*,
                // exactly as the engine's `let s = v in e` continuation
                // would — zero fuel, zero β, no approximation.
                enum V {
                    Fire(TermId),
                    CheckVersion(Symbol, TermId, TermId),
                    Dead,
                }
                let thawed = thaw_id(ar, scrut);
                let verdict = match (ar.key(id), ar.key(thawed)) {
                    (NodeKey::LetSym(s, _, b), NodeKey::Sym(s2)) if s.leq(s2) => V::Fire(*b),
                    (NodeKey::LetSym(s, _, b), NodeKey::Lex(ver, _)) => {
                        V::CheckVersion(s.clone(), *ver, *b)
                    }
                    _ => V::Dead,
                };
                match verdict {
                    V::Fire(b) => jobs.push(Job::Visit(b, depth, true)),
                    V::CheckVersion(s, ver, b) => {
                        let s_id = sym_id(ar, s);
                        if result_leq_id(ar, s_id, ver) {
                            jobs.push(Job::Visit(b, depth, true));
                        } else {
                            out.push(bot);
                        }
                    }
                    V::Dead => out.push(bot),
                }
            }
            Job::LetSymRebuild(id, scrut) => {
                let clause_body = out.pop().expect("clause lost its body");
                let (old_scrut, old_body) = match ar.key(id) {
                    NodeKey::LetSym(_, a, b) => (*a, *b),
                    _ => unreachable!("LetSymRebuild holds a LetSym"),
                };
                if old_scrut == scrut && old_body == clause_body {
                    out.push(id);
                } else {
                    let s = match ar.key(id) {
                        NodeKey::LetSym(s, ..) => s.clone(),
                        _ => unreachable!(),
                    };
                    let new = ar.intern_node(NodeKey::LetSym(s, scrut, clause_body));
                    out.push(new);
                }
            }
            Job::BuildJoin(id) => {
                // Fused join collapse: a side that became `⊥` evaluates in
                // zero steps and is the join identity — drop it instead of
                // rebuilding the spine node.
                let b = out.pop().expect("join lost a side");
                let a = out.pop().expect("join lost a side");
                if a == bot {
                    out.push(b);
                } else if b == bot {
                    out.push(a);
                } else {
                    let (oa, ob) = match ar.key(id) {
                        NodeKey::Join(oa, ob) => (*oa, *ob),
                        _ => unreachable!("BuildJoin holds a Join"),
                    };
                    if oa == a && ob == b {
                        out.push(id);
                    } else {
                        let new = ar.intern_node(NodeKey::Join(a, b));
                        out.push(new);
                    }
                }
            }
            Job::Build(id, n) => {
                let start = out.len() - n;
                let unchanged = key_children_eq(ar.key(id), &out[start..]);
                if unchanged {
                    out.truncate(start);
                    out.push(id);
                } else {
                    let key = rebuild_key(ar.key(id), &out[start..]);
                    out.truncate(start);
                    let new = ar.intern_node(key);
                    out.push(new);
                }
            }
        }
    }
    debug_assert_eq!(out.len(), 1);
    out.pop().expect("substitution produced no id")
}

/// Whether any of the target indices `depth..depth + arity` occurs free in
/// the node — one metadata read plus a linear scan of the (tiny, usually
/// zero- or one-element) free-variable summary. Scanning with
/// [`canon_index`] parses beats binary-searching for spelled index names:
/// no thread-local access, no `Arc` clone, no string comparison.
fn needs_subst(ar: &Interner, id: TermId, depth: usize, arity: usize) -> bool {
    let fv = &ar.meta(id).free_vars;
    if fv.is_empty() {
        return false;
    }
    fv.iter()
        .any(|x| canon_index(x).is_some_and(|i| i >= depth && i - depth < arity))
}

/// Compares a key's child ids against a freshly built child list.
fn key_children_eq(key: &NodeKey, new: &[TermId]) -> bool {
    match key {
        NodeKey::Bot | NodeKey::Top | NodeKey::BotV | NodeKey::Var(_) | NodeKey::Sym(_) => true,
        NodeKey::Lam(_, b) | NodeKey::Frz(b) => *b == new[0],
        NodeKey::Pair(a, b)
        | NodeKey::App(a, b)
        | NodeKey::Join(a, b)
        | NodeKey::Lex(a, b)
        | NodeKey::LexMerge(a, b)
        | NodeKey::LetSym(_, a, b)
        | NodeKey::LetPair(_, _, a, b)
        | NodeKey::BigJoin(_, a, b)
        | NodeKey::LetFrz(_, a, b)
        | NodeKey::LexBind(_, a, b) => *a == new[0] && *b == new[1],
        NodeKey::Set(ids) | NodeKey::Prim(_, ids) => ids.iter().copied().eq(new.iter().copied()),
    }
}

/// Rebuilds a node key around new child ids (binder spellings and local
/// data copied from the original).
fn rebuild_key(key: &NodeKey, c: &[TermId]) -> NodeKey {
    match key {
        NodeKey::Bot => NodeKey::Bot,
        NodeKey::Top => NodeKey::Top,
        NodeKey::BotV => NodeKey::BotV,
        NodeKey::Var(x) => NodeKey::Var(x.clone()),
        NodeKey::Sym(s) => NodeKey::Sym(s.clone()),
        NodeKey::Lam(x, _) => NodeKey::Lam(x.clone(), c[0]),
        NodeKey::Frz(_) => NodeKey::Frz(c[0]),
        NodeKey::Pair(..) => NodeKey::Pair(c[0], c[1]),
        NodeKey::App(..) => NodeKey::App(c[0], c[1]),
        NodeKey::Join(..) => NodeKey::Join(c[0], c[1]),
        NodeKey::Lex(..) => NodeKey::Lex(c[0], c[1]),
        NodeKey::LexMerge(..) => NodeKey::LexMerge(c[0], c[1]),
        NodeKey::LetSym(s, ..) => NodeKey::LetSym(s.clone(), c[0], c[1]),
        NodeKey::LetPair(x1, x2, ..) => NodeKey::LetPair(x1.clone(), x2.clone(), c[0], c[1]),
        NodeKey::BigJoin(x, ..) => NodeKey::BigJoin(x.clone(), c[0], c[1]),
        NodeKey::LetFrz(x, ..) => NodeKey::LetFrz(x.clone(), c[0], c[1]),
        NodeKey::LexBind(x, ..) => NodeKey::LexBind(x.clone(), c[0], c[1]),
        NodeKey::Set(_) => NodeKey::Set(c.into()),
        NodeKey::Prim(op, _) => NodeKey::Prim(*op, c.into()),
    }
}

// ---------------------------------------------------------------------------
// The streaming order
// ---------------------------------------------------------------------------

/// Decides the streaming order `r1 ⊑ r2` between result ids — the id-native
/// counterpart of `observe::result_leq`. Reflexivity is one id comparison;
/// α-equivalence of abstractions is id equality (canonical ids), so the
/// λ-fallback needs no tree walk.
pub fn result_leq_id(ar: &Interner, r1: TermId, r2: TermId) -> bool {
    if r1 == r2 {
        return true;
    }
    match (ar.key(r1), ar.key(r2)) {
        (NodeKey::Bot, _) => true,
        (_, NodeKey::Top) => true,
        (NodeKey::Top, _) => false,
        (_, NodeKey::Bot) => false,
        (NodeKey::BotV, _) => ar.meta(r2).is_value,
        (_, NodeKey::BotV) => false,
        (NodeKey::Sym(a), NodeKey::Sym(b)) => a.leq(b),
        (NodeKey::Frz(a), NodeKey::Frz(b)) => {
            result_leq_id(ar, *a, *b) && result_leq_id(ar, *b, *a)
        }
        (NodeKey::Frz(_), _) => false,
        (_, NodeKey::Frz(b)) => result_leq_id(ar, r1, *b),
        (NodeKey::Lex(a1, b1), NodeKey::Lex(a2, b2)) => {
            result_leq_id(ar, *a1, *a2)
                && (!result_leq_id(ar, *a2, *a1) || result_leq_id(ar, *b1, *b2))
        }
        (NodeKey::Pair(a1, b1), NodeKey::Pair(a2, b2)) => {
            result_leq_id(ar, *a1, *a2) && result_leq_id(ar, *b1, *b2)
        }
        (NodeKey::Set(e1), NodeKey::Set(e2)) => e1
            .iter()
            .all(|x| e2.iter().any(|y| result_leq_id(ar, *x, *y))),
        // α-equivalent canonical abstractions and equal free variables are
        // the *same id* (caught above); distinct ids are unrelated.
        _ => false,
    }
}

/// Equivalence in the streaming order: `r1 ⊑ r2 ∧ r2 ⊑ r1`.
pub fn result_equiv_id(ar: &Interner, r1: TermId, r2: TermId) -> bool {
    result_leq_id(ar, r1, r2) && result_leq_id(ar, r2, r1)
}

// ---------------------------------------------------------------------------
// Joins and computational liftings
// ---------------------------------------------------------------------------

/// The computational lifting `(r, r')c` over ids (see `reduce::pair_lift`).
pub fn pair_lift_id(ar: &mut Interner, r1: TermId, r2: TermId) -> TermId {
    if is_bot(ar, r1) || is_bot(ar, r2) {
        return ar.bot_id();
    }
    if is_top(ar, r1) || is_top(ar, r2) {
        return ar.top_id();
    }
    ar.intern_node(NodeKey::Pair(r1, r2))
}

/// The computational lifting of lexicographic pairs over ids.
pub fn lex_lift_id(ar: &mut Interner, r1: TermId, r2: TermId) -> TermId {
    if is_bot(ar, r1) || is_bot(ar, r2) {
        return ar.bot_id();
    }
    if is_top(ar, r1) || is_top(ar, r2) {
        return ar.top_id();
    }
    ar.intern_node(NodeKey::Lex(r1, r2))
}

/// The computational lifting of freezing over ids.
pub fn frz_lift_id(ar: &mut Interner, r: TermId) -> TermId {
    match ar.key(r) {
        NodeKey::Bot | NodeKey::Top => r,
        _ => ar.intern_node(NodeKey::Frz(r)),
    }
}

/// A shallow owned view used by the join/merge dispatchers (owning the
/// `Copy` child ids ends the arena borrow before minting).
enum JKind {
    Bot,
    Top,
    BotV,
    Sym(Symbol),
    Pair(TermId, TermId),
    Set,
    Lam(TermId),
    Frz(TermId),
    Lex(TermId, TermId),
    Other,
}

fn jkind(ar: &Interner, id: TermId) -> JKind {
    match ar.key(id) {
        NodeKey::Bot => JKind::Bot,
        NodeKey::Top => JKind::Top,
        NodeKey::BotV => JKind::BotV,
        NodeKey::Sym(s) => JKind::Sym(s.clone()),
        NodeKey::Pair(a, b) => JKind::Pair(*a, *b),
        NodeKey::Set(_) => JKind::Set,
        NodeKey::Lam(_, b) => JKind::Lam(*b),
        NodeKey::Frz(p) => JKind::Frz(*p),
        NodeKey::Lex(a, b) => JKind::Lex(*a, *b),
        _ => JKind::Other,
    }
}

/// The `r ⊔ r'` metafunction over ids — the id-native counterpart of
/// `reduce::join_results`. Idempotent re-joins (`r ⊔ r` and set unions that
/// add nothing new, the steady state of a converging fixpoint) return an
/// existing id without allocating anything (pinned by a counting-allocator
/// test). Set dedup is id equality — O(1) per comparison — instead of the
/// tree walk `alpha_eq` performs.
///
/// The Pair/Lex spine recurses natively to a depth cap and hands deeper
/// spines to a worklist, so joining two deeply accumulated *pair/lex*
/// stream values is safe on a 512 KiB thread and shallow joins stay
/// allocation-free. (The frozen-value and version arms compare operands
/// with [`result_leq_id`], which — like the tree-level
/// `observe::result_leq` it mirrors — recurses natively: ordering checks
/// on frozen payloads deeper than the stack share the tree path's
/// pre-existing exposure.)
pub fn join_results_id(ar: &mut Interner, r1: TermId, r2: TermId) -> TermId {
    join_rec_id(ar, r1, r2, 128)
}

fn join_rec_id(ar: &mut Interner, a: TermId, b: TermId, depth: u32) -> TermId {
    // Idempotence: α-equivalent results are the same id.
    if a == b {
        return a;
    }
    if depth == 0 {
        return join_iter_id(ar, a, b);
    }
    let d = depth - 1;
    match (jkind(ar, a), jkind(ar, b)) {
        (JKind::Bot, _) => b,
        (_, JKind::Bot) => a,
        (JKind::Top, _) | (_, JKind::Top) => ar.top_id(),
        (JKind::BotV, _) => b,
        (_, JKind::BotV) => a,
        (JKind::Sym(s1), JKind::Sym(s2)) => match s1.join(&s2) {
            Some(s) => sym_id(ar, s),
            None => ar.top_id(),
        },
        (JKind::Pair(a1, b1), JKind::Pair(a2, b2)) => {
            let fst = join_rec_id(ar, a1, a2, d);
            let snd = join_rec_id(ar, b1, b2, d);
            pair_lift_id(ar, fst, snd)
        }
        (JKind::Set, JKind::Set) => join_sets(ar, a, b),
        // Abstractions join to an abstraction whose body is the
        // (unevaluated) join of the bodies — both bodies live in the same
        // de Bruijn index space, so no renaming is needed.
        (JKind::Lam(b1), JKind::Lam(b2)) => {
            let body = ar.intern_node(NodeKey::Join(b1, b2));
            lam_id(ar, body)
        }
        (JKind::Frz(p1), JKind::Frz(p2)) => {
            if result_equiv_id(ar, p1, p2) {
                a
            } else {
                ar.top_id()
            }
        }
        (JKind::Frz(p1), _) => {
            if result_leq_id(ar, b, p1) {
                a
            } else {
                ar.top_id()
            }
        }
        (_, JKind::Frz(p2)) => {
            if result_leq_id(ar, a, p2) {
                b
            } else {
                ar.top_id()
            }
        }
        (JKind::Lex(a1, b1), JKind::Lex(a2, b2)) => {
            match (result_leq_id(ar, a1, a2), result_leq_id(ar, a2, a1)) {
                (true, false) => b,
                (false, true) => a,
                (true, true) => {
                    let payload = join_rec_id(ar, b1, b2, d);
                    lex_lift_id(ar, a1, payload)
                }
                (false, false) => {
                    let version = join_rec_id(ar, a1, a2, d);
                    let payload = join_rec_id(ar, b1, b2, d);
                    lex_lift_id(ar, version, payload)
                }
            }
        }
        // Distinct variables, unlike values: ambiguity error.
        _ => ar.top_id(),
    }
}

/// The worklist continuation of [`join_rec_id`] past the recursion cap:
/// the Pair/Lex spine is defunctionalised so native stack stays O(1) in
/// spine depth. Non-spine arms terminate within a fresh recursion cap.
#[cold]
fn join_iter_id(ar: &mut Interner, r1: TermId, r2: TermId) -> TermId {
    enum Job {
        Visit(TermId, TermId),
        /// Combine the last two results with [`pair_lift_id`].
        PairLift,
        /// `lex_lift` the carried (equivalent) version onto the last result.
        LexGrow(TermId),
        /// `lex_lift` the last two results (joined version, joined payload).
        LexBoth,
    }
    let mut jobs: Vec<Job> = vec![Job::Visit(r1, r2)];
    let mut out: Vec<TermId> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Visit(a, b) => {
                if a == b {
                    out.push(a);
                    continue;
                }
                match (jkind(ar, a), jkind(ar, b)) {
                    (JKind::Pair(a1, b1), JKind::Pair(a2, b2)) => {
                        jobs.push(Job::PairLift);
                        jobs.push(Job::Visit(b1, b2));
                        jobs.push(Job::Visit(a1, a2));
                    }
                    (JKind::Lex(a1, b1), JKind::Lex(a2, b2)) => {
                        match (result_leq_id(ar, a1, a2), result_leq_id(ar, a2, a1)) {
                            (true, false) => out.push(b),
                            (false, true) => out.push(a),
                            (true, true) => {
                                jobs.push(Job::LexGrow(a1));
                                jobs.push(Job::Visit(b1, b2));
                            }
                            (false, false) => {
                                jobs.push(Job::LexBoth);
                                jobs.push(Job::Visit(b1, b2));
                                jobs.push(Job::Visit(a1, a2));
                            }
                        }
                    }
                    // Non-spine arms cannot re-enter the spine recursion.
                    _ => {
                        let r = join_rec_id(ar, a, b, 128);
                        out.push(r);
                    }
                }
            }
            Job::PairLift => {
                let snd = out.pop().expect("pair join lost its second");
                let fst = out.pop().expect("pair join lost its first");
                let lifted = pair_lift_id(ar, fst, snd);
                out.push(lifted);
            }
            Job::LexGrow(version) => {
                let payload = out.pop().expect("lex join lost its payload");
                let lifted = lex_lift_id(ar, version, payload);
                out.push(lifted);
            }
            Job::LexBoth => {
                let payload = out.pop().expect("lex join lost its payload");
                let version = out.pop().expect("lex join lost its version");
                let lifted = lex_lift_id(ar, version, payload);
                out.push(lifted);
            }
        }
    }
    debug_assert_eq!(out.len(), 1);
    out.pop().expect("join produced no id")
}

/// Set union with id-equality dedup, preserving first-occurrence order.
/// When the right side adds nothing new the left id is returned unchanged
/// (no allocation) — the warm path of every converging fixpoint.
fn join_sets(ar: &mut Interner, s1: TermId, s2: TermId) -> TermId {
    let has_new = {
        let (NodeKey::Set(e1), NodeKey::Set(e2)) = (ar.key(s1), ar.key(s2)) else {
            unreachable!("join_sets on non-sets");
        };
        e2.iter().any(|e| !e1.contains(e))
    };
    if !has_new {
        return s1;
    }
    let (mut out, extra) = {
        let (NodeKey::Set(e1), NodeKey::Set(e2)) = (ar.key(s1), ar.key(s2)) else {
            unreachable!("join_sets on non-sets");
        };
        (e1.to_vec(), e2.to_vec())
    };
    for e in extra {
        if !out.contains(&e) {
            out.push(e);
        }
    }
    ar.intern_node(NodeKey::Set(out.into()))
}

/// Folds an accumulated version into the result of a versioned-bind body
/// (the id counterpart of `engine::merge_version`).
pub fn merge_version_id(ar: &mut Interner, v1: TermId, r: TermId) -> TermId {
    match jkind(ar, r) {
        JKind::Lex(v2, v2p) => {
            let v = join_results_id(ar, v1, v2);
            lex_lift_id(ar, v, v2p)
        }
        JKind::Bot | JKind::BotV => {
            let bv = ar.botv_id();
            lex_lift_id(ar, v1, bv)
        }
        _ => ar.top_id(),
    }
}

// ---------------------------------------------------------------------------
// Delta rules
// ---------------------------------------------------------------------------

fn bool_id(ar: &mut Interner, b: bool) -> TermId {
    sym_id(ar, if b { Symbol::tt() } else { Symbol::ff() })
}

/// Applies a primitive's delta rule to value operand ids — the id-native
/// counterpart of `reduce::delta`. Equivalence tests on frozen-set elements
/// use [`result_equiv_id`]; distinct-element counting is id equality.
pub fn delta_id(ar: &mut Interner, op: Prim, args: &[TermId]) -> TermId {
    debug_assert_eq!(args.len(), op.arity());
    if args.iter().any(|a| matches!(ar.key(*a), NodeKey::BotV)) {
        return ar.botv_id();
    }
    let as_int = |ar: &Interner, id: TermId| -> Option<i64> {
        match ar.key(thaw_id(ar, id)) {
            NodeKey::Sym(s) => s.as_int(),
            _ => None,
        }
    };
    match op {
        Prim::Add | Prim::Sub | Prim::Mul | Prim::Le | Prim::Lt => {
            match (as_int(ar, args[0]), as_int(ar, args[1])) {
                (Some(a), Some(b)) => match op {
                    Prim::Add => int_id(ar, a.wrapping_add(b)),
                    Prim::Sub => int_id(ar, a.wrapping_sub(b)),
                    Prim::Mul => int_id(ar, a.wrapping_mul(b)),
                    Prim::Le => bool_id(ar, a <= b),
                    Prim::Lt => bool_id(ar, a < b),
                    _ => unreachable!(),
                },
                _ => ar.top_id(),
            }
        }
        Prim::Eq => {
            let verdict = {
                let (ta, tb) = (thaw_id(ar, args[0]), thaw_id(ar, args[1]));
                match (ar.key(ta), ar.key(tb)) {
                    (NodeKey::Sym(a), NodeKey::Sym(b)) => Some(a == b),
                    _ => None,
                }
            };
            match verdict {
                Some(b) => bool_id(ar, b),
                None => ar.top_id(),
            }
        }
        Prim::Member => match (jkind(ar, args[0]), jkind(ar, args[1])) {
            (JKind::Frz(x), JKind::Frz(s)) => {
                let verdict = match ar.key(s) {
                    NodeKey::Set(es) => {
                        let es: Vec<TermId> = es.to_vec();
                        Some(es.iter().any(|e| result_equiv_id(ar, *e, x)))
                    }
                    _ => None,
                };
                match verdict {
                    Some(b) => bool_id(ar, b),
                    None => ar.top_id(),
                }
            }
            _ => ar.bot_id(),
        },
        Prim::Diff => match (jkind(ar, args[0]), jkind(ar, args[1])) {
            (JKind::Frz(s1), JKind::Frz(s2)) => {
                let kept: Option<Vec<TermId>> = match (ar.key(s1), ar.key(s2)) {
                    (NodeKey::Set(e1), NodeKey::Set(e2)) => Some(
                        e1.iter()
                            .filter(|e| !e2.iter().any(|o| result_equiv_id(ar, *o, **e)))
                            .copied()
                            .collect(),
                    ),
                    _ => None,
                };
                match kept {
                    Some(es) => ar.intern_node(NodeKey::Set(es.into())),
                    None => ar.top_id(),
                }
            }
            _ => ar.bot_id(),
        },
        Prim::SetSize => match jkind(ar, args[0]) {
            JKind::Frz(s) => {
                let count: Option<i64> = match ar.key(s) {
                    NodeKey::Set(es) => {
                        // Distinct elements by id (ids decide α-equivalence).
                        let mut distinct: Vec<TermId> = Vec::new();
                        for e in es.iter() {
                            if !distinct.contains(e) {
                                distinct.push(*e);
                            }
                        }
                        Some(distinct.len() as i64)
                    }
                    _ => None,
                };
                match count {
                    Some(n) => int_id(ar, n),
                    None => ar.top_id(),
                }
            }
            _ => ar.bot_id(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn subst_shares_untouched_subtrees() {
        let mut ar = Interner::new();
        // λx. (x, {1, 2}) applied to 7: the set subtree must be shared.
        let lam_t = lam("x", pair(var("x"), set(vec![int(1), int(2)])));
        let lam_id = ar.canon_id(&lam_t);
        let set_before = ar.canon_id(&set(vec![int(1), int(2)]));
        let arg = ar.canon_id(&int(7));
        let inst = beta_subst(&mut ar, lam_id, arg);
        let expect = ar.canon_id(&pair(int(7), set(vec![int(1), int(2)])));
        assert_eq!(inst, expect);
        // The set child of the instantiated pair is the same id.
        let NodeKey::Pair(_, snd) = ar.key(inst) else {
            panic!("expected a pair")
        };
        assert_eq!(*snd, set_before);
    }

    #[test]
    fn join_is_idempotent_and_allocation_shy() {
        let mut ar = Interner::new();
        let s = ar.canon_id(&set(vec![int(1), int(2)]));
        assert_eq!(join_results_id(&mut ar, s, s), s);
        let sub = ar.canon_id(&set(vec![int(2)]));
        // Subset union returns the left id unchanged.
        assert_eq!(join_results_id(&mut ar, s, sub), s);
        let bigger = join_results_id(&mut ar, sub, s);
        let expect = ar.canon_id(&set(vec![int(2), int(1)]));
        assert_eq!(bigger, expect);
    }

    #[test]
    fn leq_matches_tree_order_on_examples() {
        let mut ar = Interner::new();
        let mut id = |t: &crate::term::TermRef| ar.canon_id(t);
        let pairs = [
            (bot(), int(1), true),
            (int(1), top(), true),
            (botv(), int(5), true),
            (botv(), bot(), false),
            (set(vec![int(1)]), set(vec![int(2), int(1)]), true),
            (set(vec![int(3)]), set(vec![int(2), int(1)]), false),
            (pair(int(1), botv()), pair(int(1), int(2)), true),
        ];
        let ids: Vec<(TermId, TermId, bool)> =
            pairs.iter().map(|(a, b, w)| (id(a), id(b), *w)).collect();
        for (a, b, want) in ids {
            assert_eq!(result_leq_id(&ar, a, b), want);
        }
    }

    #[test]
    fn delta_mirrors_tree_delta() {
        let mut ar = Interner::new();
        let two = ar.canon_id(&int(2));
        let three = ar.canon_id(&int(3));
        let five = ar.canon_id(&int(5));
        assert_eq!(delta_id(&mut ar, Prim::Add, &[two, three]), five);
        let tt_id = ar.canon_id(&tt());
        assert_eq!(delta_id(&mut ar, Prim::Le, &[two, three]), tt_id);
        let bv = ar.canon_id(&botv());
        assert_eq!(delta_id(&mut ar, Prim::Add, &[bv, three]), bv);
    }
}
