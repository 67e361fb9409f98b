//! A fuel-indexed big-step evaluator: the deterministic face of the
//! approximate semantics (§3.2, §5.1).
//!
//! The paper's approximation rule `e ↦ ⊥` lets a trace cut off infinite
//! recursion and discard stuck subterms, which is what allows
//! `head (fromN 0) ↦* 0` and the `evens()` search to succeed — but the rule
//! is nondeterministic and "not realizable in practice" (§5.1). This module
//! realises it with *fuel*: [`eval_fuel`]`(e, n)` evaluates call-by-value,
//! spending one unit of fuel at each β-step, and returns `⊥` when the fuel
//! runs out or a subterm is stuck. Each run corresponds to a trace of the
//! paper's relation in which approximation fires exactly where fuel was
//! exhausted, so:
//!
//! * every output is a legitimate observation (`e ↦* eval_fuel(e, n)`), and
//! * outputs are **monotone in `n`** (more fuel, more output) — the
//!   streaming behaviour — which is property-tested.
//!
//! Sweeping `n = 0, 1, 2, …` yields the diagonal of Figure 10: at stage `n`
//! both the input a function receives and the output it produces are
//! computed to depth `n`.
//!
//! Since the explicit-stack refactor, the functions here are thin wrappers
//! over the defunctionalised frame machine in [`crate::engine`]: evaluation
//! depth scales with the heap, not the OS thread stack. The original
//! recursive evaluator survives as the executable specification in
//! [`spec`], and the engine is property-tested against it.

use std::cell::RefCell;

use crate::engine::{self, Budget, NoIdTable};
use crate::intern::Interner;
use crate::term::TermRef;

thread_local! {
    /// The arena behind the tree-level evaluation API: `eval_fuel` and
    /// friends convert tree → canonical id once on the way in, run the
    /// id-native frame machine, and extract a tree once on the way out.
    /// Keeping the arena per-thread (rather than per-call) makes repeated
    /// evaluations of related terms — fuel sweeps, fixpoint rounds, the
    /// figures — hit the interner's pointer caches, so the warm boundary
    /// conversion is O(1).
    static EVAL_ARENA: RefCell<Interner> = RefCell::new(Interner::new());
}

/// Size at which the thread-local evaluation arena is dropped and
/// restarted: a safety valve so a long-lived thread evaluating unboundedly
/// many terms (e.g. a fuzzing loop) cannot grow the arena without bound.
/// The size counts nodes *and* pointer-cache entries, as the server's GC
/// watermark does: every fresh root allocation adds an entry that pins its
/// tree, even when its α-class is already interned and the node count
/// stays put. Re-interning after a reset is O(term).
const EVAL_ARENA_RESET_SIZE: usize = 1 << 20;

/// Evaluates `e` to a result with the given fuel budget.
///
/// Fuel is consumed at β-reductions (the only rule that can be applied
/// infinitely often from a fixed term); when it reaches zero the evaluator
/// answers `⊥`, mirroring the paper's approximation step. Stuck
/// configurations (failed threshold queries, applications of non-functions,
/// eliminations of `⊥v`) also answer `⊥`, and `⊤` propagates.
///
/// The returned term is always a result (`⊥`, `⊤`, or a value).
///
/// # Examples
///
/// ```
/// use lambda_join_core::builder::*;
/// use lambda_join_core::bigstep::eval_fuel;
/// use lambda_join_core::encodings;
///
/// // head (fromN 0) evaluates to 0 — the paper's §3.2 example.
/// let t = app(encodings::head(), app(encodings::from_n(), int(0)));
/// assert!(eval_fuel(&t, 10).alpha_eq(&int(0)));
/// ```
pub fn eval_fuel(e: &TermRef, fuel: usize) -> TermRef {
    eval_with_budget(e, fuel, usize::MAX).0
}

/// Evaluates and also reports how many β-steps were performed.
pub fn eval_fuel_counting(e: &TermRef, fuel: usize) -> (TermRef, usize) {
    let (r, used) = eval_with_budget(e, fuel, usize::MAX);
    (r, used)
}

/// Like [`eval_fuel`], but additionally bounds the *total* number of
/// β-steps across all parallel branches with `max_betas` (a safety valve
/// against the exponential recomputation §5.1 warns about — e.g. `reaches`
/// on dense graphs). When the global budget runs dry the evaluator answers
/// `⊥` for the remaining work, which is still a valid approximation.
///
/// Returns the result and the number of β-steps performed.
///
/// Since the arena-native refactor this is a thin boundary over the id
/// frame machine ([`engine::run_id`]): the term is canonically interned
/// once (pointer-cached across calls on the same thread), evaluated
/// entirely over `Copy` ids, and the result id extracted back to a tree.
pub fn eval_with_budget(e: &TermRef, fuel: usize, max_betas: usize) -> (TermRef, usize) {
    // Values evaluate to themselves: keep the caller's handle untouched.
    if e.is_value() {
        return (e.clone(), 0);
    }
    EVAL_ARENA.with(|arena| {
        let mut ar = arena.borrow_mut();
        if ar.len() + ar.canon_ptr_len() > EVAL_ARENA_RESET_SIZE {
            *ar = Interner::new();
        }
        let id = ar.canon_id(e);
        let mut budget = Budget::new(max_betas);
        let r = engine::run_id(&mut ar, id, fuel, &mut budget, &mut NoIdTable);
        (ar.extract(r), budget.used())
    })
}

/// The recursive reference evaluator — the executable specification.
///
/// This is the direct transcription of the fuel-indexed big-step relation:
/// one Rust stack frame per pending evaluation context, which makes the
/// code an auditable mirror of the semantics but bounds evaluation depth by
/// the OS thread stack. Production callers use [`crate::bigstep::eval_fuel`] (the
/// frame machine in [`crate::engine`]); this module exists so property
/// tests and benches can compare the engine against the specification.
pub mod spec {
    use crate::builder;
    use crate::engine::merge_version;
    use crate::reduce::{delta, join_results, lex_lift, pair_lift};
    use crate::term::{Term, TermRef};

    /// Recursive counterpart of [`crate::bigstep::eval_fuel`].
    ///
    /// Native stack usage grows with fuel: callers are responsible for
    /// running it on a thread with a stack proportional to the budget.
    pub fn eval_fuel_recursive(e: &TermRef, fuel: usize) -> TermRef {
        eval_with_budget_recursive(e, fuel, usize::MAX).0
    }

    /// Recursive counterpart of [`crate::bigstep::eval_with_budget`].
    pub fn eval_with_budget_recursive(
        e: &TermRef,
        fuel: usize,
        max_betas: usize,
    ) -> (TermRef, usize) {
        let mut budget = Budget {
            beta: max_betas,
            used: 0,
            exhausted: false,
        };
        let r = eval(e, fuel, &mut budget);
        (r, budget.used)
    }

    struct Budget {
        /// Remaining global β-steps; a safety valve against exponential blowup
        /// when the per-path `depth` alone would admit huge terms.
        beta: usize,
        /// β-steps performed so far.
        used: usize,
        /// Whether any approximation step fired (fuel/β-budget exhaustion)
        /// since the flag was last cleared. Freezing consults this: `frz e`
        /// may only seal a payload whose evaluation was *complete* — stuck
        /// subterms are exact (they never fire), but a fuel cut-off is not,
        /// and sealing it would break monotonicity in fuel.
        exhausted: bool,
    }

    fn eval(e: &TermRef, depth: usize, budget: &mut Budget) -> TermRef {
        match &**e {
            _ if e.is_value() => e.clone(),
            Term::Bot => builder::bot(),
            Term::Top => builder::top(),
            Term::Pair(a, b) => {
                let va = eval(a, depth, budget);
                match &*va {
                    Term::Bot => builder::bot(),
                    Term::Top => builder::top(),
                    _ => {
                        let vb = eval(b, depth, budget);
                        pair_lift(&va, &vb)
                    }
                }
            }
            Term::Set(es) => {
                let mut out: Vec<TermRef> = Vec::new();
                for el in es {
                    let v = eval(el, depth, budget);
                    match &*v {
                        Term::Top => return builder::top(),
                        Term::Bot => {}
                        _ => {
                            if !out.iter().any(|o| o.alpha_eq(&v)) {
                                out.push(v);
                            }
                        }
                    }
                }
                builder::set(out)
            }
            Term::Join(a, b) => {
                let va = eval(a, depth, budget);
                let vb = eval(b, depth, budget);
                join_results(&va, &vb)
            }
            Term::App(f, a) => {
                let vf = eval(f, depth, budget);
                match &*vf {
                    Term::Bot => return builder::bot(),
                    Term::Top => return builder::top(),
                    _ => {}
                }
                let va = eval(a, depth, budget);
                match &*va {
                    Term::Bot => return builder::bot(),
                    Term::Top => return builder::top(),
                    _ => {}
                }
                apply(&vf, &va, depth, budget)
            }
            Term::LetPair(x1, x2, scrut, body) => {
                let v = eval(scrut, depth, budget);
                match thaw_or(&v) {
                    Term::Top => builder::top(),
                    Term::Pair(v1, v2) => {
                        let body = crate::reduce::subst_pair(body, x1, v1, x2, v2);
                        eval(&body, depth, budget)
                    }
                    // ⊥, ⊥v, and non-pairs: nothing to stream yet / stuck.
                    _ => builder::bot(),
                }
            }
            Term::LetSym(s, scrut, body) => {
                let v = eval(scrut, depth, budget);
                match thaw_or(&v) {
                    Term::Top => builder::top(),
                    Term::Sym(s2) if s.leq(s2) => eval(body, depth, budget),
                    // Version threshold (§5.2): fires once the version reaches
                    // the symbol threshold.
                    Term::Lex(ver, _)
                        if crate::observe::result_leq(&builder::sym(s.clone()), ver) =>
                    {
                        eval(body, depth, budget)
                    }
                    _ => builder::bot(),
                }
            }
            Term::BigJoin(x, scrut, body) => {
                let v = eval(scrut, depth, budget);
                match thaw_or(&v) {
                    Term::Top => builder::top(),
                    Term::Set(vs) => {
                        let mut acc = builder::bot();
                        for el in vs {
                            let b = body.subst(x, el);
                            let r = eval(&b, depth, budget);
                            acc = join_results(&acc, &r);
                            if matches!(&*acc, Term::Top) {
                                return acc;
                            }
                        }
                        acc
                    }
                    _ => builder::bot(),
                }
            }
            Term::Prim(op, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let v = eval(a, depth, budget);
                    match &*v {
                        Term::Bot => return builder::bot(),
                        Term::Top => return builder::top(),
                        _ => vals.push(v),
                    }
                }
                delta(*op, &vals)
            }
            Term::Frz(inner) => {
                // Freeze is all-or-nothing: the payload must evaluate without
                // any approximation (fuel cut-off) before it may be sealed;
                // otherwise the freeze is still pending (⊥).
                let saved = budget.exhausted;
                budget.exhausted = false;
                let v = eval(inner, depth, budget);
                let complete = !budget.exhausted;
                budget.exhausted |= saved;
                if complete {
                    crate::reduce::frz_lift(&v)
                } else {
                    builder::bot()
                }
            }
            Term::LetFrz(x, scrut, body) => {
                let v = eval(scrut, depth, budget);
                match &*v {
                    Term::Top => builder::top(),
                    Term::Frz(payload) => {
                        let body = body.subst(x, payload);
                        eval(&body, depth, budget)
                    }
                    // Unfrozen scrutinees leave the query unanswered.
                    _ => builder::bot(),
                }
            }
            Term::Lex(a, b) => {
                let va = eval(a, depth, budget);
                match &*va {
                    Term::Bot => builder::bot(),
                    Term::Top => builder::top(),
                    _ => {
                        let vb = eval(b, depth, budget);
                        lex_lift(&va, &vb)
                    }
                }
            }
            Term::LexBind(x, scrut, body) => {
                let v = eval(scrut, depth, budget);
                match thaw_or(&v) {
                    Term::Top => builder::top(),
                    Term::BotV => builder::botv(),
                    Term::Lex(v1, v1p) => {
                        let body = body.subst(x, v1p);
                        let r = eval(&body, depth, budget);
                        merge_version(v1, &r)
                    }
                    Term::Bot => builder::bot(),
                    _ => builder::top(),
                }
            }
            Term::LexMerge(v1, comp) => {
                let r = eval(comp, depth, budget);
                merge_version(v1, &r)
            }
            // Covered by the is_value guard, but kept for exhaustiveness.
            Term::Var(_) | Term::BotV | Term::Sym(_) | Term::Lam(..) => e.clone(),
        }
    }

    /// Sees through `frz` for monotone eliminations (see `reduce::thaw`);
    /// unlike `thaw` this does not wrap the borrow in `Arc` plumbing.
    fn thaw_or(v: &TermRef) -> &Term {
        crate::reduce::thaw(v)
    }

    fn apply(vf: &TermRef, va: &TermRef, depth: usize, budget: &mut Budget) -> TermRef {
        match thaw_or(vf) {
            Term::Lam(x, body) => {
                if depth == 0 || budget.beta == 0 {
                    budget.exhausted = true;
                    return builder::bot(); // approximation step: out of fuel
                }
                budget.beta -= 1;
                budget.used += 1;
                let body = body.subst(x, va);
                eval(&body, depth - 1, budget)
            }
            // Inspecting ⊥v yields ⊥ (§2.1).
            Term::BotV => builder::bot(),
            // Applying a non-function is stuck; the approximate semantics
            // discards it.
            _ => builder::bot(),
        }
    }
}

/// The stream of observations of `e` as fuel increases: evaluates at fuel
/// `0, step, 2·step, …` up to `max_fuel`, returning the distinct results in
/// order.
///
/// By monotonicity the sequence increases in the streaming order; this is
/// the practical counterpart of the observation columns in Figure 2.
pub fn fuel_trace(e: &TermRef, max_fuel: usize, step: usize) -> Vec<TermRef> {
    let step = step.max(1);
    let mut out: Vec<TermRef> = Vec::new();
    let mut fuel = 0;
    loop {
        let r = eval_fuel(e, fuel);
        if out.last().is_none_or(|last| !last.alpha_eq(&r)) {
            out.push(r);
        }
        if fuel >= max_fuel {
            break;
        }
        fuel += step;
    }
    out
}

/// Evaluates with increasing fuel until the result stabilises for
/// `patience` consecutive fuel increments, or `max_fuel` is reached.
///
/// Returns the final result and the fuel at which it was last observed to
/// change. Stabilisation is a heuristic fixed-point detector — sound for
/// programs whose output is finite (e.g. `reaches` on a finite graph), where
/// it implements the "tabling" termination behaviour §5.1 asks for.
pub fn eval_converged(
    e: &TermRef,
    max_fuel: usize,
    step: usize,
    patience: usize,
) -> (TermRef, usize) {
    let step = step.max(1);
    let mut last = eval_fuel(e, 0);
    let mut last_change = 0;
    let mut fuel = 0;
    let mut stable = 0;
    while fuel < max_fuel && stable < patience {
        fuel += step;
        let r = eval_fuel(e, fuel);
        if r.alpha_eq(&last) {
            stable += 1;
        } else {
            stable = 0;
            last = r;
            last_change = fuel;
        }
    }
    (last, last_change)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::observe::result_leq;
    use crate::parser::parse;

    #[test]
    fn arena_valve_bounds_alpha_equal_roots() {
        // Fresh allocations of one α-class add no node but one pointer
        // entry each; the valve must count those too. Runs on its own
        // thread so it starts from (and leaves behind) a fresh arena.
        std::thread::spawn(|| {
            let shared = int(1);
            let size = || EVAL_ARENA.with(|a| a.borrow().len() + a.borrow().canon_ptr_len());
            for _ in 0..EVAL_ARENA_RESET_SIZE + 16 {
                let fresh = join(shared.clone(), shared.clone());
                assert!(eval_fuel(&fresh, 0).alpha_eq(&shared));
                assert!(size() <= EVAL_ARENA_RESET_SIZE + 1, "{}", size());
            }
        })
        .join()
        .expect("the arena stays within its bound");
    }

    #[test]
    fn values_need_no_fuel() {
        assert!(eval_fuel(&int(3), 0).alpha_eq(&int(3)));
        assert!(eval_fuel(&lam("x", var("x")), 0).alpha_eq(&lam("x", var("x"))));
    }

    #[test]
    fn beta_consumes_fuel() {
        let t = app(lam("x", var("x")), int(1));
        assert!(eval_fuel(&t, 0).alpha_eq(&bot()));
        assert!(eval_fuel(&t, 1).alpha_eq(&int(1)));
    }

    #[test]
    fn omega_is_bot_at_every_fuel() {
        let omega = app(
            lam("x", app(var("x"), var("x"))),
            lam("x", app(var("x"), var("x"))),
        );
        for n in [0, 1, 5, 50] {
            assert!(eval_fuel(&omega, n).alpha_eq(&bot()));
        }
    }

    #[test]
    fn evens_streams_the_even_numbers() {
        let evens =
            parse("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()").unwrap();
        let r = eval_fuel(&evens, 40);
        // Result is a set containing at least 0, 2, 4.
        for n in [0, 2, 4] {
            assert!(result_leq(&set(vec![int(n)]), &r), "expected {n} ∈ {r}");
        }
        // And nothing odd.
        assert!(!result_leq(&set(vec![int(1)]), &r));
        assert!(!result_leq(&set(vec![int(3)]), &r));
    }

    #[test]
    fn evens_search_succeeds() {
        // §3.2: ⋁_{x ∈ evens()} let 2 = x in "success"
        let t = parse(
            "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in \
             for x in evens () . let 2 = x in \"success\"",
        )
        .unwrap();
        let r = eval_fuel(&t, 40);
        assert!(r.alpha_eq(&string("success")), "got {r}");
    }

    #[test]
    fn head_of_from_n_is_zero() {
        // §3.2: head (fromN 0) ↦* 0.
        let t = parse(
            "let rec fromN n = (n :: fromN (n + 1)) \\/ botv in \
             let (%tag, %payload) = fromN 0 in \
             let (h, _) = %payload in h",
        )
        .unwrap();
        let r = eval_fuel(&t, 30);
        assert!(r.alpha_eq(&int(0)), "got {r}");
    }

    #[test]
    fn outputs_are_monotone_in_fuel() {
        let progs = [
            "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()",
            "let rec fromN n = (n :: fromN (n + 1)) \\/ botv in fromN 0",
            "(\\x. x \\/ {2}) {1}",
            "if 1 <= 2 then \"a\" else \"b\"",
        ];
        for p in progs {
            let t = parse(p).unwrap();
            let mut prev = eval_fuel(&t, 0);
            for n in 1..25 {
                let cur = eval_fuel(&t, n);
                assert!(
                    result_leq(&prev, &cur),
                    "{p}: fuel {} gave {prev}, fuel {n} gave {cur}",
                    n - 1
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn por_converges_with_one_diverging_argument() {
        // §2.3 parallel or. One thunk diverges; por still answers true.
        let por = "let por = \\x y. (let 'true = x () in true) \\/ \
                              (let 'true = y () in true) \\/ \
                              (let 'false = x () in let 'false = y () in false) in ";
        let loop_ = "let rec loop u = loop u in ";
        let t = parse(&format!("{loop_}{por}por (\\_. true) (\\_. loop ())")).unwrap();
        assert!(eval_fuel(&t, 30).alpha_eq(&tt()));
        let t = parse(&format!("{loop_}{por}por (\\_. loop ()) (\\_. true)")).unwrap();
        assert!(eval_fuel(&t, 30).alpha_eq(&tt()));
        let t = parse(&format!("{loop_}{por}por (\\_. false) (\\_. false)")).unwrap();
        assert!(eval_fuel(&t, 30).alpha_eq(&ff()));
        // Both diverging: ⊥ forever.
        let t = parse(&format!("{loop_}{por}por (\\_. loop ()) (\\_. loop ())")).unwrap();
        assert!(eval_fuel(&t, 30).alpha_eq(&bot()));
    }

    #[test]
    fn fuel_trace_is_increasing_and_distinct() {
        let t = parse("let rec fromN n = (n :: fromN (n + 1)) \\/ botv in fromN 0").unwrap();
        let tr = fuel_trace(&t, 20, 1);
        assert!(tr.len() >= 3);
        for w in tr.windows(2) {
            assert!(result_leq(&w[0], &w[1]));
            assert!(!w[0].alpha_eq(&w[1]));
        }
    }

    #[test]
    fn eval_converged_detects_fixpoints() {
        // reaches on a 3-cycle: the set stabilises at {0, 1, 2}.
        let t = parse(
            "let neighbors = \\n. (let 0 = n in {1}) \\/ (let 1 = n in {2}) \\/ (let 2 = n in {0}) in \
             let rec reaches x = {x} \\/ (for n in neighbors x . reaches n) in \
             reaches 0",
        )
        .unwrap();
        let (r, _) = eval_converged(&t, 200, 5, 4);
        let expect = set(vec![int(0), int(1), int(2)]);
        assert!(crate::observe::result_equiv(&r, &expect), "got {r}");
    }

    #[test]
    fn two_plus_two() {
        let t = parse("2 + 2").unwrap();
        assert!(eval_fuel(&t, 1).alpha_eq(&int(4)));
    }
}
