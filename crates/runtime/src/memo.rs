//! Memoised ("tabled") evaluation (§5.1).
//!
//! The naive fuel interpreter recomputes a function's output from scratch
//! for every fuel level and for every duplicated call — the inefficiency
//! the paper points out for the diagonal strategy, and the reason `reaches`
//! "does not terminate on cyclic inputs" without tabling. This module adds
//! a memo table keyed on `(function value, argument value, remaining
//! depth)`: the λ∨ analogue of logic-programming tabling, which the paper
//! identifies with memoisation in the functional setting.
//!
//! The table plugs into the explicit-stack engine
//! ([`lambda_join_core::engine`]) through its
//! [`IdBetaTable`](lambda_join_core::engine::IdBetaTable) hook: the engine
//! consults the cache exactly where it would perform a β-step, so the
//! memoised evaluator is the *same* frame machine as
//! [`lambda_join_core::bigstep::eval_fuel`] — heap-bounded depth included —
//! plus a cache lookup per application.
//!
//! [`MemoEval`] is observationally equivalent to
//! [`lambda_join_core::bigstep::eval_fuel`] (tested), but shares work
//! across duplicated calls — turning the exponential recomputation of
//! `reaches` on dense graphs into polynomial work.
//!
//! The evaluator runs the machine ([`lambda_join_core::engine::run_id`])
//! over a persistent arena: terms are canonically interned once at the API
//! boundary, every frame carries `Copy` ids, and the cache —
//! [`lambda_join_core::intern::InternTable`] — is probed with the
//! `(function, argument, fuel)` ids the engine already holds in hand.
//! A warm memo hit therefore performs **no tree traversal, no `canon_id`
//! walk, and no tree-node allocation** (pinned by the counting-allocator
//! test in `lambda-join-core/tests/intern_alloc.rs`), and α-equivalent
//! calls share one entry by construction. `lambdav serve` shares the same
//! pair — arena and `InternTable` — between sessions behind one lock
//! ([`lambda_join_core::sharded::SharedInternTable`]).

use std::path::Path;

use lambda_join_core::engine::{self, Budget, NoIdTable};
use lambda_join_core::intern::{InternTable, Interner, TermId};
use lambda_join_core::snap::{self, SnapError};
use lambda_join_core::term::TermRef;

/// A memoising evaluator with a persistent call cache and its backing
/// arena.
///
/// Reusing one `MemoEval` across fuel levels makes converging sweeps
/// (`eval_converged`-style) cheap: level `n+1` re-derives only what
/// changed.
///
/// Both the cache and the arena grow monotonically for the evaluator's
/// lifetime — that persistence *is* the memoisation. A service evaluating
/// unboundedly many unrelated programs should scope one `MemoEval` per
/// program (or generation) and drop it to release both.
#[derive(Default)]
pub struct MemoEval {
    interner: Interner,
    table: InternTable,
}

impl MemoEval {
    /// Creates an evaluator with an empty cache.
    pub fn new() -> Self {
        MemoEval::default()
    }

    /// Cache statistics `(hits, misses)`.
    pub fn stats(&self) -> (usize, usize) {
        self.table.stats()
    }

    /// The arena backing the evaluator's ids (shared with callers that
    /// want to intern related data, e.g. the diagonal-table builder).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Canonically interns a term into the evaluator's arena.
    pub fn canon_id(&mut self, e: &TermRef) -> TermId {
        self.interner.canon_id(e)
    }

    /// Extracts a named tree for an id of the evaluator's arena.
    pub fn extract(&mut self, id: TermId) -> TermRef {
        self.interner.extract(id)
    }

    /// Checkpoints the evaluator — arena and memo table — to `path`
    /// (atomically; see [`lambda_join_core::snap`]); returns the byte
    /// size. A later [`MemoEval::load_snapshot`] resumes with every
    /// derivation this evaluator has paid for.
    pub fn save_snapshot(&self, path: &Path) -> Result<u64, SnapError> {
        snap::save_memo(&self.interner, &self.table, path)
    }

    /// Resumes an evaluator from a snapshot: ids, memo entries, and cache
    /// statistics come back exactly as saved, so previously evaluated
    /// programs answer from the warm cache. Corrupt snapshots are
    /// rejected with a typed [`SnapError`].
    pub fn load_snapshot(path: &Path) -> Result<MemoEval, SnapError> {
        let (interner, table) = snap::load_memo(path)?;
        Ok(MemoEval { interner, table })
    }

    /// Evaluates with the given fuel (β-depth), memoising β-calls.
    pub fn eval_fuel(&mut self, e: &TermRef, fuel: usize) -> TermRef {
        self.eval_budgeted(e, fuel, &mut Budget::new(usize::MAX))
    }

    /// [`MemoEval::eval_fuel`] under a caller-supplied [`Budget`] (β valve,
    /// deadline, cancellation, node quota). A run stopped by a request
    /// limit returns `⊥`; check [`Budget::stop_cause`] before trusting
    /// the result.
    pub fn eval_budgeted(&mut self, e: &TermRef, fuel: usize, budget: &mut Budget) -> TermRef {
        // Values evaluate to themselves: keep the caller's handle.
        if e.is_value() {
            return e.clone();
        }
        let id = self.interner.canon_id(e);
        let r = engine::run_id(&mut self.interner, id, fuel, budget, &mut self.table);
        self.interner.extract(r)
    }

    /// Id-native evaluation: runs the frame machine directly on a
    /// canonical id of this evaluator's arena, returning the result id.
    /// No trees are touched anywhere on this path.
    pub fn eval_fuel_id(&mut self, e: TermId, fuel: usize) -> TermId {
        let mut budget = Budget::new(usize::MAX);
        engine::run_id(&mut self.interner, e, fuel, &mut budget, &mut self.table)
    }

    /// Plain (untabled) id-native evaluation on this evaluator's arena,
    /// reporting β-steps — useful for workloads that want the arena
    /// sharing but not the cache.
    pub fn eval_fuel_id_untabled(&mut self, e: TermId, fuel: usize) -> (TermId, usize) {
        let mut budget = Budget::new(usize::MAX);
        let r = engine::run_id(&mut self.interner, e, fuel, &mut budget, &mut NoIdTable);
        (r, budget.used())
    }

    /// Evaluates with increasing fuel until the result stabilises for
    /// `patience` increments or `max_fuel` is reached — the tabled
    /// fixed-point strategy that terminates on cyclic `reaches`.
    ///
    /// The whole sweep runs at the id level: the per-level α-comparison is
    /// one id equality, and a tree is extracted only for the final answer.
    pub fn eval_converged(
        &mut self,
        e: &TermRef,
        max_fuel: usize,
        step: usize,
        patience: usize,
    ) -> (TermRef, usize) {
        let step = step.max(1);
        let id = self.interner.canon_id(e);
        let mut last = self.eval_fuel_id(id, 0);
        let mut last_change = 0;
        let mut fuel = 0;
        let mut stable = 0;
        while fuel < max_fuel && stable < patience {
            fuel += step;
            let r = self.eval_fuel_id(id, fuel);
            if r == last {
                stable += 1;
            } else {
                stable = 0;
                last = r;
                last_change = fuel;
            }
        }
        (self.interner.extract(last), last_change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_join_core::bigstep::eval_fuel;
    use lambda_join_core::builder::*;
    use lambda_join_core::encodings::{self, Graph};
    use lambda_join_core::observe::result_equiv;
    use lambda_join_core::parser::parse;

    #[test]
    fn agrees_with_plain_bigstep() {
        let programs = [
            "(\\x. x) 5",
            "{1} \\/ {2}",
            "if true then 'a else 'b",
            "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()",
            "let rec fromN n = (n :: fromN (n + 1)) \\/ botv in fromN 0",
        ];
        for p in programs {
            let e = parse(p).unwrap();
            for fuel in [0, 3, 10, 25] {
                let plain = eval_fuel(&e, fuel);
                let memo = MemoEval::new().eval_fuel(&e, fuel);
                assert!(
                    plain.alpha_eq(&memo),
                    "{p} at fuel {fuel}: {plain} vs {memo}"
                );
            }
        }
    }

    #[test]
    fn memoisation_hits_on_duplicate_calls() {
        // A diamond: f is called twice on the same argument.
        let e = parse("let f = \\x. x + 1 in (f 10, f 10)").unwrap();
        let mut m = MemoEval::new();
        m.eval_fuel(&e, 10);
        let (hits, _misses) = m.stats();
        assert!(hits >= 1, "expected at least one cache hit");
    }

    #[test]
    fn reaches_on_cycle_converges_and_matches_ground_truth() {
        let g = Graph::cycle(5);
        let t = encodings::reaches(&g, 0);
        let mut m = MemoEval::new();
        let (r, _) = m.eval_converged(&t, 400, 10, 4);
        let expect = set(g.reachable(0).into_iter().map(int).collect());
        assert!(result_equiv(&r, &expect), "got {r}");
    }

    #[test]
    fn memo_shares_work_on_dags() {
        // A diamond-shaped DAG where naive evaluation recomputes shared
        // suffixes exponentially; the memoised evaluator's β-count stays
        // small.
        let mut edges = Vec::new();
        let layers = 6i64;
        for l in 0..layers {
            // Nodes 2l, 2l+1 both point to 2(l+1) and 2(l+1)+1.
            edges.push((2 * l, vec![2 * (l + 1), 2 * (l + 1) + 1]));
            edges.push((2 * l + 1, vec![2 * (l + 1), 2 * (l + 1) + 1]));
        }
        edges.push((2 * layers, vec![]));
        edges.push((2 * layers + 1, vec![]));
        let g = Graph { edges };
        let t = encodings::reaches(&g, 0);
        let mut m = MemoEval::new();
        let r = m.eval_fuel(&t, 80);
        let (hits, misses) = m.stats();
        assert!(hits > 0, "expected sharing on the diamond DAG");
        // The plain evaluator re-explores every path: exponentially more
        // β-steps than the memoised evaluator performs cache misses.
        let (_, plain_betas) = lambda_join_core::bigstep::eval_fuel_counting(&t, 80);
        assert!(
            plain_betas > 2 * misses,
            "plain {plain_betas} β-steps vs memo {misses} misses ({hits} hits)"
        );
        let expect = set(g.reachable(0).into_iter().map(int).collect());
        assert!(result_equiv(&r, &expect), "got {r}");
    }

    #[test]
    fn snapshot_resume_answers_from_warm_cache() {
        let path = std::env::temp_dir().join(format!(
            "lambdav-memo-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let e = parse("let f = \\x. x + 1 in (f 10, f 10)").unwrap();
        let mut m = MemoEval::new();
        let cold = m.eval_fuel(&e, 10);
        m.save_snapshot(&path).expect("save");
        let mut warm = MemoEval::load_snapshot(&path).expect("load");
        assert_eq!(warm.stats(), m.stats(), "statistics restored verbatim");
        let (_, misses_before) = warm.stats();
        let again = warm.eval_fuel(&e, 10);
        let (_, misses_after) = warm.stats();
        assert!(again.alpha_eq(&cold));
        assert_eq!(
            misses_before, misses_after,
            "resumed evaluation should be pure cache hits"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persistent_cache_helps_fuel_sweeps() {
        let e = encodings::evens();
        let mut m = MemoEval::new();
        m.eval_fuel(&e, 10);
        let (_, misses_before) = m.stats();
        m.eval_fuel(&e, 10); // identical query: pure hits
        let (_, misses_after) = m.stats();
        assert_eq!(misses_before, misses_after);
    }

    #[test]
    fn memoised_engine_agrees_with_recursive_spec() {
        // The tabled engine must be observationally equal to the recursive
        // executable specification, not just to the plain frame machine.
        use lambda_join_core::bigstep::spec::eval_fuel_recursive;
        let programs = [
            "let f = \\x. x + 1 in (f 10, f 10)",
            "frz {1, 2}",
            "let frz x = frz (1 + 2) in x * 2",
            "bind x <- lex(`1, 10) in lex(`2, x + 1)",
            "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()",
        ];
        for p in programs {
            let e = parse(p).unwrap();
            for fuel in [0, 1, 5, 12] {
                let spec = eval_fuel_recursive(&e, fuel);
                let memo = MemoEval::new().eval_fuel(&e, fuel);
                assert!(spec.alpha_eq(&memo), "{p} at fuel {fuel}: {spec} vs {memo}");
            }
        }
    }
}
