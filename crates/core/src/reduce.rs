//! The approximate operational semantics of λ∨ (Figure 5).
//!
//! Reduction is a *nondeterministic* relation: evaluation contexts allow
//! stepping on either side of a join and at any position of a set literal,
//! and the approximation rule `e ↦ ⊥` may fire anywhere. This module
//! implements the relation faithfully:
//!
//! * [`join_results`] — the `r ⊔ r'` metafunction,
//! * [`pair_lift`] — the computational lifting `(r, r')c`,
//! * [`head_step`] — head reduction of a redex,
//! * [`redex_positions`] / [`step_at`] — the full position-indexed relation,
//! * [`approx_at`] — the approximation rule at a chosen position.
//!
//! A deterministic *fair* strategy on top of this relation lives in
//! [`crate::machine`].

use std::sync::Arc;

use crate::builder;
use crate::term::{Prim, Term, TermRef};

/// The `r ⊔ r'` metafunction from Figure 5: join of two results.
///
/// Both arguments must be results (`⊥`, `⊤`, or values); the output is a
/// result. Joins of unlike values (a pair with a function, incomparable
/// symbols, …) produce the ambiguity error `⊤`.
///
/// As an optimisation that is justified by idempotence of joins, set joins
/// deduplicate α-equivalent elements; this does not change the meaning of
/// any program (`v ⊔ v = v`).
///
/// # Panics
///
/// In debug builds, panics if either argument is not a result; callers
/// obtain arguments from reduction, which only produces results in join
/// position. (Release builds skip the check: it re-walks both operands —
/// `O(|acc|)` per element when a big join folds into a growing accumulator
/// — purely to restate an invariant the reduction rules already maintain.)
pub fn join_results(r1: &TermRef, r2: &TermRef) -> TermRef {
    debug_assert!(
        r1.is_result() && r2.is_result(),
        "join_results on non-results"
    );
    join_rec(r1, r2, 128)
}

/// [`join_results`] with bounded native recursion: the self-recursive arms
/// (pointwise pairs, lexicographic pairs) descend natively to the cap and
/// hand deeper spines to the worklist in [`join_iter`], so joining two
/// deeply accumulated stream values cannot overflow the thread stack.
/// (The arguments are subterms of checked results, so re-asserting
/// `is_result` on every level is unnecessary — and would itself be
/// quadratic on deep values.)
fn join_rec(r1: &TermRef, r2: &TermRef, depth: u32) -> TermRef {
    // Id fast path: results are idempotent under join (`r ⊔ r = r`), so one
    // shared handle — the common case once hash-consing shares spines —
    // answers without descending.
    if Arc::ptr_eq(r1, r2) {
        return r1.clone();
    }
    if depth == 0 {
        return join_iter(r1, r2);
    }
    let d = depth - 1;
    match (&**r1, &**r2) {
        // Laws of bounded semilattices for ⊥, ⊤, ⊥v.
        (Term::Bot, _) => r2.clone(),
        (_, Term::Bot) => r1.clone(),
        (Term::Top, _) | (_, Term::Top) => builder::top(),
        (Term::BotV, _) => r2.clone(),
        (_, Term::BotV) => r1.clone(),
        // Symbols join via the primitive (partial) symbol join.
        (Term::Sym(s1), Term::Sym(s2)) => match s1.join(s2) {
            Some(s) => builder::sym(s),
            None => builder::top(),
        },
        // Pairs join pointwise, through the computational lifting.
        (Term::Pair(a1, b1), Term::Pair(a2, b2)) => {
            let a = join_rec(a1, a2, d);
            let b = join_rec(b1, b2, d);
            pair_lift(&a, &b)
        }
        // Sets join by union (deduplicated up to α-equivalence).
        (Term::Set(es1), Term::Set(es2)) => {
            let mut out: Vec<TermRef> = es1.clone();
            for e in es2 {
                if !out.iter().any(|o| Arc::ptr_eq(o, e) || o.alpha_eq(e)) {
                    out.push(e.clone());
                }
            }
            builder::set(out)
        }
        // Abstractions join to an abstraction whose body is the join;
        // α-equivalent abstractions join to themselves (idempotence — the
        // id-space join decides this by id equality, and the tree join
        // must agree α-for-α, property-tested in `tests/ideval_props.rs`).
        (Term::Lam(x, e1), Term::Lam(y, e2)) => {
            if r1.alpha_eq(r2) {
                return r1.clone();
            }
            let e2_renamed = if x == y {
                e2.clone()
            } else {
                e2.subst(y, &builder::var(x))
            };
            Arc::new(Term::Lam(
                x.clone(),
                Arc::new(Term::Join(e1.clone(), e2_renamed)),
            ))
        }
        // Frozen values: joining equivalent frozen values is idempotent;
        // joining a frozen value with any value at or below its payload is
        // absorbed (a late write that the freeze already covers, LVish
        // freeze-after-write); anything else is a freeze violation, ⊤.
        (Term::Frz(a), Term::Frz(b)) => {
            if crate::observe::result_equiv(a, b) {
                r1.clone()
            } else {
                builder::top()
            }
        }
        (Term::Frz(a), _) => {
            if crate::observe::result_leq(r2, a) {
                r1.clone()
            } else {
                builder::top()
            }
        }
        (_, Term::Frz(b)) => {
            if crate::observe::result_leq(r1, b) {
                r2.clone()
            } else {
                builder::top()
            }
        }
        // Versioned pairs join lexicographically: a strictly newer version
        // wins outright; equivalent versions join their payloads;
        // incomparable versions join componentwise (conflicting payloads
        // then surface as ⊤ — the situation §5.2 resolves by
        // multiversioning).
        (Term::Lex(a1, b1), Term::Lex(a2, b2)) => {
            use crate::observe::result_leq;
            let le = result_leq(a1, a2);
            let ge = result_leq(a2, a1);
            match (le, ge) {
                (true, false) => r2.clone(),
                (false, true) => r1.clone(),
                (true, true) => lex_lift(a1, &join_rec(b1, b2, d)),
                (false, false) => lex_lift(&join_rec(a1, a2, d), &join_rec(b1, b2, d)),
            }
        }
        // Identical free variables join to themselves (idempotence); this
        // case only arises for open terms.
        (Term::Var(x), Term::Var(y)) if x == y => r1.clone(),
        // Anything else is an ambiguity error.
        _ => builder::top(),
    }
}

/// The worklist continuation of [`join_rec`] past the recursion cap: the
/// Pair/Lex spine structure is defunctionalised into visit/combine jobs, so
/// native stack stays O(1) in spine depth. Non-spine arms terminate within
/// [`join_rec`]'s fresh cap.
#[cold]
fn join_iter(r1: &TermRef, r2: &TermRef) -> TermRef {
    enum Job {
        Visit(TermRef, TermRef),
        /// Combine the last two results with [`pair_lift`].
        PairLift,
        /// `lex_lift` the carried (equivalent) version onto the last result.
        LexGrow(TermRef),
        /// `lex_lift` the last two results (joined version, joined payload).
        LexBoth,
    }
    let mut jobs: Vec<Job> = vec![Job::Visit(r1.clone(), r2.clone())];
    let mut results: Vec<TermRef> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Visit(a, b) => match (&*a, &*b) {
                _ if Arc::ptr_eq(&a, &b) => results.push(a.clone()),
                (Term::Pair(a1, b1), Term::Pair(a2, b2)) => {
                    jobs.push(Job::PairLift);
                    jobs.push(Job::Visit(b1.clone(), b2.clone()));
                    jobs.push(Job::Visit(a1.clone(), a2.clone()));
                }
                (Term::Lex(a1, b1), Term::Lex(a2, b2)) => {
                    use crate::observe::result_leq;
                    match (result_leq(a1, a2), result_leq(a2, a1)) {
                        (true, false) => results.push(b.clone()),
                        (false, true) => results.push(a.clone()),
                        (true, true) => {
                            jobs.push(Job::LexGrow(a1.clone()));
                            jobs.push(Job::Visit(b1.clone(), b2.clone()));
                        }
                        (false, false) => {
                            jobs.push(Job::LexBoth);
                            jobs.push(Job::Visit(b1.clone(), b2.clone()));
                            jobs.push(Job::Visit(a1.clone(), a2.clone()));
                        }
                    }
                }
                // Non-spine arms cannot re-enter the spine recursion.
                _ => results.push(join_rec(&a, &b, 128)),
            },
            Job::PairLift => {
                let snd = results.pop().expect("pair join lost its second");
                let fst = results.pop().expect("pair join lost its first");
                results.push(pair_lift(&fst, &snd));
            }
            Job::LexGrow(version) => {
                let payload = results.pop().expect("lex join lost its payload");
                results.push(lex_lift(&version, &payload));
            }
            Job::LexBoth => {
                let payload = results.pop().expect("lex join lost its payload");
                let version = results.pop().expect("lex join lost its version");
                results.push(lex_lift(&version, &payload));
            }
        }
    }
    results.pop().expect("join produced no result")
}

/// The computational lifting `(r, r')c` from Figure 5.
///
/// Asymmetric, following left-to-right evaluation of pairs: a `⊥`/`⊤` on the
/// left wins; on the right it is consulted only once the left is a value.
pub fn pair_lift(r1: &TermRef, r2: &TermRef) -> TermRef {
    match (&**r1, &**r2) {
        (Term::Bot, _) => builder::bot(),
        (Term::Top, _) => builder::top(),
        (_, Term::Bot) => builder::bot(),
        (_, Term::Top) => builder::top(),
        _ => Arc::new(Term::Pair(r1.clone(), r2.clone())),
    }
}

/// The computational lifting of lexicographic pairs, analogous to
/// [`pair_lift`]: a `⊥`/`⊤` in either component absorbs the pair.
pub fn lex_lift(r1: &TermRef, r2: &TermRef) -> TermRef {
    match (&**r1, &**r2) {
        (Term::Bot, _) => builder::bot(),
        (Term::Top, _) => builder::top(),
        (_, Term::Bot) => builder::bot(),
        (_, Term::Top) => builder::top(),
        _ => Arc::new(Term::Lex(r1.clone(), r2.clone())),
    }
}

/// The computational lifting of freezing: `⊥`/`⊤` pass through, a value is
/// wrapped in `frz`.
pub fn frz_lift(r: &TermRef) -> TermRef {
    match &**r {
        Term::Bot => builder::bot(),
        Term::Top => builder::top(),
        _ => Arc::new(Term::Frz(r.clone())),
    }
}

/// Sees through a `frz` wrapper to the payload (monotone eliminations are
/// freeze-transparent; see [`head_step`]).
pub fn thaw(v: &TermRef) -> &Term {
    match &**v {
        Term::Frz(p) => p,
        other => other,
    }
}

/// The *simultaneous* substitution `body[v1/x1, v2/x2]` of a pair
/// elimination, with `x2` the inner binder.
///
/// Sequencing two single substitutions gets this wrong in two corners that
/// α-equivalence cares about: with `x1 == x2` the inner binder shadows the
/// outer entirely (so only `v2` may be substituted — substituting `x1`
/// first resolves occurrences to the *outer* binder, disagreeing with
/// [`Term::alpha_eq`] and the canonical interner, which resolve to the
/// innermost); and when one value mentions the other binder's name free, a
/// naive sequencing rewrites occurrences it just introduced. Evaluation
/// must respect α-equivalence — the id-native engine keys work on canonical
/// ids, where α-variants are literally the same term — so the elimination
/// forms route through this helper.
pub(crate) fn subst_pair(
    body: &TermRef,
    x1: &str,
    v1: &TermRef,
    x2: &str,
    v2: &TermRef,
) -> TermRef {
    if x1 == x2 {
        // The inner binder shadows the outer one everywhere.
        return body.subst(x2, v2);
    }
    let mentions = |v: &TermRef, x: &str| v.free_vars().iter().any(|w| &**w == x);
    if !mentions(v2, x1) {
        body.subst(x2, v2).subst(x1, v1)
    } else if !mentions(v1, x2) {
        body.subst(x1, v1).subst(x2, v2)
    } else {
        // Both values mention the other binder: detour through a reserved
        // placeholder (the '\u{1}' prefix is unreachable from source
        // programs, so it cannot occur free in `body` or the values).
        let tmp: crate::term::Var = Arc::from("\u{1}swap");
        body.subst(x2, &builder::var(&tmp))
            .subst(x1, v1)
            .subst(&tmp, v2)
    }
}

/// Applies a primitive's delta rule to value operands.
///
/// Returns the reduct, or `None` if some operand is `⊥v` on the left of a
/// strict position — never: delta rules are total on values. Ill-typed
/// operands produce `⊤` (an ambiguity error), and `⊥v` operands produce
/// `⊥v` (the primitive cannot inspect them, but monotonicity demands the
/// output be below every possible refinement).
pub fn delta(op: Prim, args: &[TermRef]) -> TermRef {
    debug_assert_eq!(args.len(), op.arity());
    if args.iter().any(|a| matches!(&**a, Term::BotV)) {
        return builder::botv();
    }
    // Arithmetic and comparison are monotone, so they see through `frz`
    // (frozen operands carry the discrete order, on which everything is
    // monotone); the frozen-set queries below handle `frz` themselves.
    let ints: Option<Vec<i64>> = args
        .iter()
        .map(|a| match thaw(a) {
            Term::Sym(s) => s.as_int(),
            _ => None,
        })
        .collect();
    match op {
        Prim::Add | Prim::Sub | Prim::Mul | Prim::Le | Prim::Lt => match ints {
            Some(ns) => match op {
                Prim::Add => builder::int(ns[0].wrapping_add(ns[1])),
                Prim::Sub => builder::int(ns[0].wrapping_sub(ns[1])),
                Prim::Mul => builder::int(ns[0].wrapping_mul(ns[1])),
                Prim::Le => bool_term(ns[0] <= ns[1]),
                Prim::Lt => bool_term(ns[0] < ns[1]),
                _ => unreachable!(),
            },
            None => builder::top(),
        },
        Prim::Eq => match (thaw(&args[0]), thaw(&args[1])) {
            (Term::Sym(a), Term::Sym(b)) => bool_term(a == b),
            _ => builder::top(),
        },
        // Frozen-set queries (§5.2): non-monotone on streaming sets, safe
        // on frozen ones because frozen values are discretely ordered.
        // Unfrozen operands *block* (⊥ — the query waits for the freeze,
        // exactly like a threshold query below its threshold or an LVish
        // exact read of an unfrozen LVar); only a frozen non-set, which can
        // never become right, is the error ⊤.
        Prim::Member => match (&*args[0], &*args[1]) {
            (Term::Frz(x), Term::Frz(s)) => match &**s {
                Term::Set(es) => bool_term(es.iter().any(|e| crate::observe::result_equiv(e, x))),
                _ => builder::top(),
            },
            _ => builder::bot(),
        },
        Prim::Diff => match (&*args[0], &*args[1]) {
            (Term::Frz(s1), Term::Frz(s2)) => match (&**s1, &**s2) {
                (Term::Set(es1), Term::Set(es2)) => builder::set(
                    es1.iter()
                        .filter(|e| !es2.iter().any(|o| crate::observe::result_equiv(o, e)))
                        .cloned()
                        .collect(),
                ),
                _ => builder::top(),
            },
            _ => builder::bot(),
        },
        Prim::SetSize => match &*args[0] {
            Term::Frz(s) => match &**s {
                Term::Set(es) => {
                    // Count distinct elements (set literals may repeat).
                    let mut distinct: Vec<&TermRef> = Vec::new();
                    for e in es {
                        if !distinct.iter().any(|o| o.alpha_eq(e)) {
                            distinct.push(e);
                        }
                    }
                    builder::int(distinct.len() as i64)
                }
                _ => builder::top(),
            },
            _ => builder::bot(),
        },
    }
}

fn bool_term(b: bool) -> TermRef {
    if b {
        builder::tt()
    } else {
        builder::ff()
    }
}

/// Attempts a head step of the term: contracts the outermost redex if the
/// term itself is one.
///
/// Returns `None` when the term is not a head redex (it may still have
/// redexes inside, or be a result, or be stuck — e.g.
/// `let 2 = 0 in e`, which the approximate semantics discards via `e ↦ ⊥`).
///
/// The `E[⊤] ↦ ⊤` rule is implemented one context frame at a time: a node
/// with `⊤` in an evaluation position steps to `⊤`.
pub fn head_step(t: &Term) -> Option<TermRef> {
    // ⊤-propagation through one evaluation-context frame.
    if top_in_eval_position(t) {
        return Some(builder::top());
    }
    match t {
        // Frozen values are *transparent to monotone eliminations* (as
        // LVish reads work on frozen LVars): every elimination form below
        // sees through `frz v` to the payload, which is what makes
        // `v ⪯ctx frz v` (§5.2) hold. Only the non-monotone queries
        // (member/diff/size) and the thaw form demand frozenness itself.
        Term::App(f, a) if a.is_value() => match thaw(f) {
            Term::Lam(x, body) => Some(body.subst(x, a)),
            _ => None,
        },
        Term::LetPair(x1, x2, e, body) if e.is_value() => match thaw(e) {
            Term::Pair(v1, v2) => Some(subst_pair(body, x1, v1, x2, v2)),
            _ => None,
        },
        Term::LetSym(s, e, body) if e.is_value() => match thaw(e) {
            Term::Sym(s2) if s.leq(s2) => Some(body.clone()),
            // Version threshold (§5.2): a symbol threshold fires on a
            // versioned pair once the *version* reaches it. Monotone —
            // versions only grow — and what makes versions observable.
            Term::Lex(v, _) if crate::observe::result_leq(&builder::sym(s.clone()), v) => {
                Some(body.clone())
            }
            _ => None,
        },
        Term::BigJoin(x, e, body) if e.is_value() => match thaw(e) {
            Term::Set(vs) => Some(builder::joins(
                vs.iter().map(|v| body.subst(x, v)).collect(),
            )),
            _ => None,
        },
        Term::Join(r1, r2) if r1.is_result() && r2.is_result() => Some(join_results(r1, r2)),
        Term::LetFrz(x, e, body) if e.is_value() => match &**e {
            Term::Frz(v) => Some(body.subst(x, v)),
            // Non-frozen scrutinees are unanswered threshold queries: the
            // payload may still grow, so the query stays stuck (observed ⊥).
            _ => None,
        },
        Term::LexBind(x, e, body) if e.is_value() => match thaw(e) {
            Term::Lex(v1, v1p) => Some(Arc::new(Term::LexMerge(v1.clone(), body.subst(x, v1p)))),
            // ⊥v may still refine to a versioned pair; the least sound
            // answer is ⊥v itself (it is below every possible output).
            Term::BotV => Some(builder::botv()),
            _ => Some(builder::top()),
        },
        Term::LexMerge(v1, e) if e.is_value() => match &**e {
            Term::Lex(v2, v2p) => Some(lex_lift(&join_results(v1, v2), v2p)),
            Term::BotV => Some(lex_lift(v1, &builder::botv())),
            _ => Some(builder::top()),
        },
        // A silent bind body still yields the input version over ⊥v: this
        // is what keeps `bind` monotone when its body thresholds on a
        // payload that a newer version has replaced (§5.2) — the output
        // version may never fall behind the input version.
        Term::LexMerge(v1, e) if matches!(&**e, Term::Bot) => Some(lex_lift(v1, &builder::botv())),
        Term::Set(es) if es.iter().any(|e| matches!(&**e, Term::Bot)) => Some(builder::set(
            es.iter()
                .filter(|e| !matches!(&***e, Term::Bot))
                .cloned()
                .collect(),
        )),
        Term::Prim(op, args) if args.iter().all(|a| a.is_value()) => Some(delta(*op, args)),
        _ => None,
    }
}

/// Returns `true` when a *direct* evaluation-position child of the node is
/// `⊤` (so the node steps to `⊤` by the context rule).
///
/// Sets and joins are handled specially: their evaluation contexts include
/// every element / both sides, so a `⊤` anywhere there propagates even
/// though `⊤` is a result (and hence not scheduled by [`eval_children`]).
fn top_in_eval_position(t: &Term) -> bool {
    match t {
        Term::Set(es) => es.iter().any(|e| matches!(&**e, Term::Top)),
        Term::Join(a, b) => matches!(&**a, Term::Top) || matches!(&**b, Term::Top),
        _ => eval_children(t)
            .iter()
            .any(|(_, c)| matches!(&***c, Term::Top)),
    }
}

/// The evaluation-position children of a node, as `(slot, child)` pairs.
///
/// Slots index into the node's children; they are used to build
/// [`Path`]s. Sequential forms expose only their currently active position
/// (left-to-right); parallel forms (sets, joins) expose every non-result
/// position.
pub fn eval_children(t: &Term) -> Vec<(usize, &TermRef)> {
    match t {
        Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_) | Term::Lam(..) => {
            vec![]
        }
        Term::Pair(a, b) | Term::Lex(a, b) => {
            if !a.is_value() {
                vec![(0, a)]
            } else if !b.is_value() {
                vec![(1, b)]
            } else {
                vec![]
            }
        }
        Term::Frz(e) => {
            if !e.is_value() {
                vec![(0, e)]
            } else {
                vec![]
            }
        }
        Term::LexMerge(a, e) => {
            if !a.is_value() {
                vec![(0, a)]
            } else if !e.is_value() {
                vec![(1, e)]
            } else {
                vec![]
            }
        }
        Term::App(f, a) => {
            if !f.is_value() {
                vec![(0, f)]
            } else if !a.is_value() {
                vec![(1, a)]
            } else {
                vec![]
            }
        }
        Term::Prim(_, es) => {
            for (i, e) in es.iter().enumerate() {
                if !e.is_value() {
                    return vec![(i, e)];
                }
            }
            vec![]
        }
        Term::LetPair(_, _, e, _)
        | Term::LetSym(_, e, _)
        | Term::BigJoin(_, e, _)
        | Term::LetFrz(_, e, _)
        | Term::LexBind(_, e, _) => {
            if !e.is_value() {
                vec![(0, e)]
            } else {
                vec![]
            }
        }
        // Parallel forms: both sides of a join, every element of a set.
        Term::Join(a, b) => {
            let mut v = Vec::new();
            if !a.is_result() {
                v.push((0, a));
            }
            if !b.is_result() {
                v.push((1, b));
            }
            v
        }
        Term::Set(es) => es
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_result())
            .collect(),
    }
}

/// Returns the child of `t` at evaluation slot `slot`, if meaningful.
pub fn child_at(t: &Term, slot: usize) -> Option<&TermRef> {
    match (t, slot) {
        (Term::Pair(a, _), 0) | (Term::App(a, _), 0) | (Term::Lex(a, _), 0) => Some(a),
        (Term::Pair(_, b), 1) | (Term::App(_, b), 1) | (Term::Lex(_, b), 1) => Some(b),
        (Term::Join(a, _), 0) => Some(a),
        (Term::Join(_, b), 1) => Some(b),
        (Term::Frz(e), 0) => Some(e),
        (Term::LexMerge(a, _), 0) => Some(a),
        (Term::LexMerge(_, e), 1) => Some(e),
        (Term::Set(es), i) | (Term::Prim(_, es), i) => es.get(i),
        (Term::LetPair(_, _, e, _), 0)
        | (Term::LetSym(_, e, _), 0)
        | (Term::BigJoin(_, e, _), 0)
        | (Term::LetFrz(_, e, _), 0)
        | (Term::LexBind(_, e, _), 0) => Some(e),
        _ => None,
    }
}

/// Rebuilds `t` with the child at slot `slot` replaced by `new`.
fn replace_child(t: &Term, slot: usize, new: TermRef) -> TermRef {
    match (t, slot) {
        (Term::Pair(_, b), 0) => Arc::new(Term::Pair(new, b.clone())),
        (Term::Pair(a, _), 1) => Arc::new(Term::Pair(a.clone(), new)),
        (Term::App(_, b), 0) => Arc::new(Term::App(new, b.clone())),
        (Term::App(a, _), 1) => Arc::new(Term::App(a.clone(), new)),
        (Term::Join(_, b), 0) => Arc::new(Term::Join(new, b.clone())),
        (Term::Join(a, _), 1) => Arc::new(Term::Join(a.clone(), new)),
        (Term::Set(es), i) => {
            let mut es = es.clone();
            es[i] = new;
            Arc::new(Term::Set(es))
        }
        (Term::Prim(op, es), i) => {
            let mut es = es.clone();
            es[i] = new;
            Arc::new(Term::Prim(*op, es))
        }
        (Term::LetPair(x1, x2, _, b), 0) => {
            Arc::new(Term::LetPair(x1.clone(), x2.clone(), new, b.clone()))
        }
        (Term::LetSym(s, _, b), 0) => Arc::new(Term::LetSym(s.clone(), new, b.clone())),
        (Term::BigJoin(x, _, b), 0) => Arc::new(Term::BigJoin(x.clone(), new, b.clone())),
        (Term::Lex(_, b), 0) => Arc::new(Term::Lex(new, b.clone())),
        (Term::Lex(a, _), 1) => Arc::new(Term::Lex(a.clone(), new)),
        (Term::Frz(_), 0) => Arc::new(Term::Frz(new)),
        (Term::LexMerge(_, e), 0) => Arc::new(Term::LexMerge(new, e.clone())),
        (Term::LexMerge(a, _), 1) => Arc::new(Term::LexMerge(a.clone(), new)),
        (Term::LetFrz(x, _, b), 0) => Arc::new(Term::LetFrz(x.clone(), new, b.clone())),
        (Term::LexBind(x, _, b), 0) => Arc::new(Term::LexBind(x.clone(), new, b.clone())),
        _ => panic!("replace_child: invalid slot {slot}"),
    }
}

/// A path into a term: the sequence of evaluation slots from the root.
pub type Path = Vec<usize>;

/// Enumerates the positions of all currently enabled (non-approximation)
/// redexes, in leftmost-outermost order.
///
/// Every returned path `p` satisfies `step_at(t, &p).is_some()`.
pub fn redex_positions(t: &TermRef) -> Vec<Path> {
    let mut out = Vec::new();
    fn go(t: &TermRef, here: &mut Path, out: &mut Vec<Path>) {
        if head_step(t).is_some() {
            out.push(here.clone());
        }
        for (slot, c) in eval_children(t) {
            here.push(slot);
            go(c, here, out);
            here.pop();
        }
    }
    go(t, &mut Vec::new(), &mut out);
    out
}

/// Steps the redex at path `p`, returning the new term.
///
/// Returns `None` if `p` does not address an enabled redex (e.g. the path
/// was invalidated by a previous step elsewhere).
pub fn step_at(t: &TermRef, p: &[usize]) -> Option<TermRef> {
    match p.split_first() {
        None => head_step(t),
        Some((&slot, rest)) => {
            let child = child_at(t, slot)?;
            let stepped = step_at(child, rest)?;
            Some(replace_child(t, slot, stepped))
        }
    }
}

/// The approximation rule `e ↦ ⊥` applied at path `p` (any subterm in an
/// evaluation position may be discarded).
///
/// Returns `None` if the path is invalid, or if it descends into a `frz`
/// payload: freezing is all-or-nothing, so approximating *inside* a frozen
/// computation would seal a truncated payload — two runs could then freeze
/// incomparable values, breaking determinism of observations. A pending
/// freeze may still be discarded *wholesale* (the path ending at the `frz`
/// node itself).
pub fn approx_at(t: &TermRef, p: &[usize]) -> Option<TermRef> {
    match p.split_first() {
        None => Some(builder::bot()),
        Some((&slot, rest)) => {
            if matches!(&**t, Term::Frz(_)) {
                return None;
            }
            let child = child_at(t, slot)?;
            let stepped = approx_at(child, rest)?;
            Some(replace_child(t, slot, stepped))
        }
    }
}

/// One *full parallel step*: contracts every enabled redex once, bottom-up,
/// in a single pass.
///
/// This is the deterministic, maximally parallel strategy used by the
/// machine: it is fair (every enabled redex fires within one pass) and each
/// pass performs finitely many reductions, so every machine state is
/// reachable by the paper's nondeterministic relation.
///
/// Returns the new term and whether anything changed.
pub fn parallel_step(t: &TermRef) -> (TermRef, bool) {
    let mut changed = false;
    // First step within evaluation positions, then try the (possibly newly
    // enabled) head redex.
    let mut cur = t.clone();
    let kids = eval_children(&cur)
        .into_iter()
        .map(|(slot, c)| (slot, c.clone()))
        .collect::<Vec<_>>();
    for (slot, c) in kids {
        let (c2, ch) = parallel_step(&c);
        if ch {
            cur = replace_child(&cur, slot, c2);
            changed = true;
        }
    }
    if let Some(next) = head_step(&cur) {
        cur = next;
        changed = true;
    }
    (cur, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn step_closure(mut t: TermRef, max: usize) -> TermRef {
        for _ in 0..max {
            let (t2, changed) = parallel_step(&t);
            if !changed {
                return t2;
            }
            t = t2;
        }
        t
    }

    #[test]
    fn beta_reduction() {
        let t = app(lam("x", var("x")), int(5));
        assert!(head_step(&t).unwrap().alpha_eq(&int(5)));
    }

    #[test]
    fn beta_requires_value_argument() {
        let t = app(lam("x", var("x")), app(lam("y", var("y")), int(5)));
        // Head is not a redex yet (argument not a value)…
        assert!(head_step(&t).is_none());
        // …but the inner application is.
        let ps = redex_positions(&t);
        assert_eq!(ps, vec![vec![1]]);
    }

    #[test]
    fn let_pair_substitutes_both() {
        let t = let_pair("a", "b", pair(int(1), int(2)), pair(var("b"), var("a")));
        assert!(head_step(&t).unwrap().alpha_eq(&pair(int(2), int(1))));
    }

    #[test]
    fn let_sym_threshold_fires_at_or_above() {
        // Exact match.
        let t = let_sym(Symbol::tt(), tt(), int(1));
        assert!(head_step(&t).unwrap().alpha_eq(&int(1)));
        // Above the threshold (levels are ordered).
        let t = let_sym(Symbol::Level(2), level(5), int(1));
        assert!(head_step(&t).unwrap().alpha_eq(&int(1)));
        // Below the threshold: stuck.
        let t = let_sym(Symbol::Level(5), level(2), int(1));
        assert!(head_step(&t).is_none());
        // Incomparable: stuck (this is what makes `if` work).
        let t = let_sym(Symbol::ff(), tt(), int(1));
        assert!(head_step(&t).is_none());
    }

    #[test]
    fn big_join_expands_to_joins() {
        let t = big_join("x", set(vec![int(1), int(2)]), set(vec![var("x")]));
        let r = head_step(&t).unwrap();
        assert!(r.alpha_eq(&join(set(vec![int(1)]), set(vec![int(2)]))));
    }

    #[test]
    fn big_join_over_empty_set_is_bot() {
        let t = big_join("x", set(vec![]), set(vec![var("x")]));
        assert!(head_step(&t).unwrap().alpha_eq(&bot()));
    }

    #[test]
    fn join_of_results_uses_metafunction() {
        assert!(head_step(&join(int(1), bot())).unwrap().alpha_eq(&int(1)));
        assert!(head_step(&join(bot(), int(1))).unwrap().alpha_eq(&int(1)));
        assert!(head_step(&join(int(1), int(2))).unwrap().alpha_eq(&top()));
        assert!(head_step(&join(int(1), int(1))).unwrap().alpha_eq(&int(1)));
        assert!(head_step(&join(botv(), int(1))).unwrap().alpha_eq(&int(1)));
    }

    #[test]
    fn join_of_sets_is_union_with_dedup() {
        let r = join_results(&set(vec![int(1), int(2)]), &set(vec![int(2), int(3)]));
        assert!(r.alpha_eq(&set(vec![int(1), int(2), int(3)])));
    }

    #[test]
    fn join_of_pairs_is_pointwise() {
        let r = join_results(&pair(int(1), botv()), &pair(botv(), int(2)));
        assert!(r.alpha_eq(&pair(int(1), int(2))));
    }

    #[test]
    fn join_of_incompatible_pairs_is_top() {
        let r = join_results(&pair(int(1), int(9)), &pair(int(2), int(9)));
        assert!(r.alpha_eq(&top()));
    }

    #[test]
    fn join_of_lambdas_joins_bodies() {
        let f = lam("x", int(1));
        let g = lam("y", int(2));
        let r = join_results(&f, &g);
        assert!(r.alpha_eq(&lam("x", join(int(1), int(2)))));
    }

    #[test]
    fn join_unlike_values_is_top() {
        assert!(join_results(&int(1), &lam("x", var("x"))).alpha_eq(&top()));
        assert!(join_results(&set(vec![]), &pair(int(1), int(2))).alpha_eq(&top()));
        assert!(join_results(&tt(), &ff()).alpha_eq(&top()));
    }

    #[test]
    fn pair_lift_is_asymmetric() {
        assert!(pair_lift(&bot(), &top()).alpha_eq(&bot()));
        assert!(pair_lift(&top(), &bot()).alpha_eq(&top()));
        assert!(pair_lift(&int(1), &bot()).alpha_eq(&bot()));
        assert!(pair_lift(&int(1), &top()).alpha_eq(&top()));
        assert!(pair_lift(&int(1), &int(2)).alpha_eq(&pair(int(1), int(2))));
    }

    #[test]
    fn set_drops_bot_elements() {
        let t = set(vec![int(1), bot(), int(2), bot()]);
        assert!(head_step(&t).unwrap().alpha_eq(&set(vec![int(1), int(2)])));
    }

    #[test]
    fn top_propagates_through_contexts() {
        assert!(head_step(&app(top(), int(1))).unwrap().alpha_eq(&top()));
        assert!(head_step(&pair(top(), int(1))).unwrap().alpha_eq(&top()));
        assert!(head_step(&pair(int(1), top())).unwrap().alpha_eq(&top()));
        assert!(head_step(&set(vec![int(1), top()]))
            .unwrap()
            .alpha_eq(&top()));
        assert!(head_step(&let_sym(Symbol::tt(), top(), int(1)))
            .unwrap()
            .alpha_eq(&top()));
        // ⊤ in a *join* is a result, not an eval position; the join rule
        // handles it.
        assert!(head_step(&join(top(), int(1))).unwrap().alpha_eq(&top()));
    }

    #[test]
    fn top_does_not_escape_lambda() {
        let t = lam("x", top());
        assert!(head_step(&t).is_none());
        assert!(t.is_value());
    }

    #[test]
    fn values_have_no_redex() {
        for v in [int(5), lam("x", app(var("x"), var("x")))] {
            assert!(redex_positions(&v).is_empty(), "{v} has a redex");
        }
    }

    #[test]
    fn delta_rules() {
        assert!(head_step(&add(int(2), int(3))).unwrap().alpha_eq(&int(5)));
        assert!(head_step(&mul(int(2), int(3))).unwrap().alpha_eq(&int(6)));
        assert!(head_step(&le(int(2), int(3))).unwrap().alpha_eq(&tt()));
        assert!(head_step(&lt(int(3), int(3))).unwrap().alpha_eq(&ff()));
        assert!(head_step(&eq(int(3), int(3))).unwrap().alpha_eq(&tt()));
        assert!(head_step(&eq(tt(), ff())).unwrap().alpha_eq(&ff()));
        // ⊥v flows through monotonically.
        assert!(head_step(&add(botv(), int(1))).unwrap().alpha_eq(&botv()));
        // Ill-typed operands are ambiguity errors.
        assert!(head_step(&add(tt(), int(1))).unwrap().alpha_eq(&top()));
    }

    #[test]
    fn parallel_step_contracts_both_join_sides() {
        let t = join(
            app(lam("x", var("x")), int(1)),
            app(lam("y", var("y")), int(2)),
        );
        let (t2, changed) = parallel_step(&t);
        assert!(changed);
        // Both betas fire in one pass, and then the join of results fires too
        // (bottom-up contraction can cascade within a pass).
        let r = step_closure(t2, 4);
        assert!(r.alpha_eq(&top())); // 1 ⊔ 2 is an ambiguity error
    }

    #[test]
    fn if_encoding_selects_branch() {
        let t = ite(tt(), int(1), int(2));
        let r = step_closure(t, 10);
        // The false branch is stuck at `let 'false = 'true in 2` (observed ⊥),
        // so the whole thing is `1 ∨ <stuck>`: not a result syntactically,
        // but its observation is 1 — checked in observe.rs. Here we check the
        // true branch fired.
        let obs = crate::observe::observe(&r);
        assert!(obs.alpha_eq(&int(1)));
    }

    #[test]
    fn step_at_respects_paths() {
        let t = join(app(lam("x", var("x")), int(1)), bot());
        let ps = redex_positions(&t);
        assert!(ps.contains(&vec![0]));
        let t2 = step_at(&t, &[0]).unwrap();
        assert!(t2.alpha_eq(&join(int(1), bot())));
        // Now the head join is a redex.
        let t3 = step_at(&t2, &[]).unwrap();
        assert!(t3.alpha_eq(&int(1)));
    }

    #[test]
    fn approx_at_discards_subterms() {
        let t = join(int(1), app(lam("x", var("x")), int(2)));
        let t2 = approx_at(&t, &[1]).unwrap();
        assert!(t2.alpha_eq(&join(int(1), bot())));
        assert!(approx_at(&t, &[]).unwrap().alpha_eq(&bot()));
    }

    #[test]
    fn sequential_forms_expose_single_position() {
        // Application: function first.
        let t = app(
            app(lam("x", var("x")), lam("y", var("y"))),
            app(lam("z", var("z")), int(1)),
        );
        let kids = eval_children(&t);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].0, 0);
        // Sets: all non-result elements in parallel.
        let s = set(vec![
            int(1),
            app(lam("x", var("x")), int(2)),
            force(lam("_", int(3))),
        ]);
        let kids = eval_children(&s);
        assert_eq!(kids.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![1, 2]);
    }

    use crate::symbol::Symbol;
}
