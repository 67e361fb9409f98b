//! Deterministic thread parallelism over semilattices.
//!
//! The paper's thesis is that monotone computation over join semilattices
//! is *deterministic by construction*: however threads interleave, the
//! final state is the same. This module provides the two runtime shapes
//! that claim takes in practice:
//!
//! * [`join_all`] — λ∨'s `e1 ∨ … ∨ en`: run independent computations in
//!   parallel and join their results (determinism is immediate from
//!   commutativity/associativity). Tasks are chunked over the bounded
//!   worker pool ([`lambda_join_core::pool`]) — submitting ten thousand
//!   tasks spawns `available_parallelism` threads, not ten thousand;
//! * [`chaotic_fixpoint`] — concurrent *chaotic iteration*: worker threads
//!   repeatedly apply monotone rules to a shared state cell until
//!   quiescence. The result equals the sequential Kleene fixed point no
//!   matter the schedule (property-tested with randomised yields).
//!   Quiescence is detected through a **state version counter**: a pass is
//!   clean iff the version at its end equals the version at its start, one
//!   integer comparison instead of re-running every rule just to deep-
//!   compare lattice values that nobody changed.

use std::sync::atomic::{AtomicBool, Ordering};

use lambda_join_core::pool;
use parking_lot::Mutex;

use crate::semilattice::JoinSemilattice;

/// A set of monotone state-transformer rules over `T`, shareable across
/// worker threads.
pub type Rules<T> = [Box<dyn Fn(&T) -> T + Sync>];

/// Runs the closures on a bounded set of worker threads and joins all
/// results in task order.
///
/// Deterministic: the result is the semilattice join of the individual
/// results, independent of completion order (and, by commutativity, would
/// be the same under any other order). The worker count is
/// [`pool::default_workers`]; tasks are chunked, so the thread count never
/// exceeds the machine's parallelism regardless of `tasks.len()`.
pub fn join_all<T, F>(tasks: Vec<F>) -> Option<T>
where
    T: JoinSemilattice + Send,
    F: FnOnce() -> T + Send,
{
    join_all_with(tasks, pool::default_workers())
}

/// [`join_all`] with an explicit worker bound (`<= 1` runs inline).
pub fn join_all_with<T, F>(tasks: Vec<F>, workers: usize) -> Option<T>
where
    T: JoinSemilattice + Send,
    F: FnOnce() -> T + Send,
{
    let results = pool::map_items(tasks, workers, |t| t());
    let mut it = results.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, x| acc.join(&x)))
}

/// A lattice value paired with its monotonically increasing version: the
/// version bumps exactly when the value strictly grows, so "nothing
/// changed since I last looked" is one integer comparison.
#[derive(Debug)]
struct Versioned<T> {
    value: T,
    version: u64,
}

/// Concurrent chaotic iteration: `workers` threads repeatedly pick rules
/// (monotone state transformers) and join their output into the shared
/// state, until a full pass of every rule changes nothing.
///
/// Returns the stabilised state. Equal to the sequential Kleene fixed point
/// of `x ↦ x ∨ ⋁ᵢ ruleᵢ(x)` for monotone rules (tested).
///
/// Quiescence: each worker records the state *version* before a pass and
/// declares the pass clean iff the version is unchanged after it — i.e. no
/// worker (itself included) grew the state at any point during the pass,
/// in which case the pass just witnessed every rule fixed at the current
/// state, which is therefore the fixed point. The version bumps only on
/// strict growth, so detection costs one lock + integer compare per pass
/// instead of a deep lattice comparison per rule application round.
pub fn chaotic_fixpoint<T>(bottom: T, rules: &Rules<T>, workers: usize, max_passes: usize) -> T
where
    T: JoinSemilattice + PartialEq + Send + Sync,
{
    let state = Mutex::new(Versioned {
        value: bottom,
        version: 0,
    });
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..workers.max(1) {
            let state = &state;
            let done = &done;
            s.spawn(move || {
                let mut pass = 0usize;
                while !done.load(Ordering::SeqCst) && pass < max_passes {
                    pass += 1;
                    let v_start = state.lock().version;
                    // Each worker sweeps the rules in a different rotation,
                    // exercising different interleavings.
                    for i in 0..rules.len() {
                        let rule = &rules[(i + w) % rules.len()];
                        let snapshot = state.lock().value.clone();
                        let out = rule(&snapshot);
                        let mut guard = state.lock();
                        let joined = guard.value.join(&out);
                        if joined != guard.value {
                            guard.value = joined;
                            guard.version += 1;
                        }
                    }
                    // Version unchanged across the whole pass ⇒ every rule
                    // was applied to the (constant) current state and
                    // produced nothing new: fixed point reached.
                    if state.lock().version == v_start {
                        done.store(true, Ordering::SeqCst);
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    state.into_inner().value
}

/// The sequential reference for [`chaotic_fixpoint`].
pub fn sequential_fixpoint<T>(bottom: T, rules: &Rules<T>, max_rounds: usize) -> T
where
    T: JoinSemilattice + PartialEq,
{
    let mut cur = bottom;
    for _ in 0..max_rounds {
        let mut next = cur.clone();
        for r in rules {
            next = next.join(&r(&cur));
        }
        if next == cur {
            return cur;
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semilattice::Max;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn join_all_is_deterministic() {
        for _ in 0..10 {
            let tasks: Vec<Box<dyn FnOnce() -> BTreeSet<i64> + Send>> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        // Stagger completion to shuffle arrival order.
                        std::thread::sleep(std::time::Duration::from_micros((7 - i as u64) * 50));
                        [i, i + 10].into_iter().collect::<BTreeSet<i64>>()
                    }) as Box<dyn FnOnce() -> BTreeSet<i64> + Send>
                })
                .collect();
            let r = join_all(tasks).unwrap();
            let expect: BTreeSet<i64> = (0..8).flat_map(|i| [i, i + 10]).collect();
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn join_all_empty_is_none() {
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = vec![];
        assert_eq!(join_all(tasks), None);
    }

    #[test]
    fn join_all_bounds_thread_count() {
        // Many more tasks than workers: all results still arrive, joined
        // in a deterministic total. (The bound itself is structural —
        // `pool::map_items` chunks over at most `workers` threads.)
        let tasks: Vec<Box<dyn FnOnce() -> Max<u64> + Send>> = (0..10_000u64)
            .map(|i| Box::new(move || Max(i)) as Box<dyn FnOnce() -> Max<u64> + Send>)
            .collect();
        assert_eq!(join_all_with(tasks, 4), Some(Max(9_999)));
    }

    type RuleVec = Vec<Box<dyn Fn(&BTreeSet<i64>) -> BTreeSet<i64> + Sync>>;

    fn reachability_rules(edges: Vec<(i64, i64)>) -> RuleVec {
        edges
            .into_iter()
            .map(|(s, t)| {
                Box::new(move |acc: &BTreeSet<i64>| {
                    if acc.contains(&s) {
                        [t].into_iter().collect()
                    } else {
                        BTreeSet::new()
                    }
                }) as Box<dyn Fn(&BTreeSet<i64>) -> BTreeSet<i64> + Sync>
            })
            .collect::<RuleVec>()
    }

    #[test]
    fn chaotic_equals_sequential_fixpoint() {
        let edges = vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)];
        let rules = reachability_rules(edges);
        let seed: BTreeSet<i64> = [0].into_iter().collect();
        let seq = sequential_fixpoint(seed.clone(), &rules, 100);
        for workers in [1, 2, 4] {
            let par = chaotic_fixpoint(seed.clone(), &rules, workers, 10_000);
            assert_eq!(par, seq, "with {workers} workers");
        }
        assert_eq!(seq, (0..=5).collect::<BTreeSet<i64>>());
    }

    #[test]
    fn two_phase_commit_as_chaotic_iteration() {
        // Figure 3/4 at the runtime level: the global state is a record
        // (map) of Flat cells; the three nodes are monotone rules.
        use crate::semilattice::Flat;
        type State = BTreeMap<&'static str, Flat<String>>;
        type StateRules = Vec<Box<dyn Fn(&State) -> State + Sync>>;
        let rules: StateRules = vec![
            // coordinator: propose 5; once both oks are in, publish res.
            Box::new(|s: &State| {
                let mut out = State::new();
                out.insert("proposal", Flat::Known("5".into()));
                if let (Some(Flat::Known(a)), Some(Flat::Known(b))) = (s.get("ok1"), s.get("ok2")) {
                    let accepted = a == "true" && b == "true";
                    out.insert(
                        "res",
                        Flat::Known(if accepted { "accepted" } else { "rejected" }.into()),
                    );
                }
                out
            }),
            // peer1: ok1 = proposal > 4.
            Box::new(|s: &State| {
                let mut out = State::new();
                if let Some(Flat::Known(p)) = s.get("proposal") {
                    let ok = p.parse::<i64>().map(|n| n > 4).unwrap_or(false);
                    out.insert("ok1", Flat::Known(ok.to_string()));
                }
                out
            }),
            // peer2: ok2 = proposal <= 6.
            Box::new(|s: &State| {
                let mut out = State::new();
                if let Some(Flat::Known(p)) = s.get("proposal") {
                    let ok = p.parse::<i64>().map(|n| n <= 6).unwrap_or(false);
                    out.insert("ok2", Flat::Known(ok.to_string()));
                }
                out
            }),
        ];
        let seq = sequential_fixpoint(State::new(), &rules, 100);
        assert_eq!(seq.get("res"), Some(&Flat::Known("accepted".into())));
        for workers in [1, 3] {
            let par = chaotic_fixpoint(State::new(), &rules, workers, 10_000);
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn chaotic_with_max_rules() {
        type MaxRules = Vec<Box<dyn Fn(&Max<u64>) -> Max<u64> + Sync>>;
        let rules: MaxRules = vec![
            Box::new(|Max(x)| Max((x + 2).min(20))),
            Box::new(|Max(x)| Max((x + 3).min(20))),
        ];
        let r = chaotic_fixpoint(Max(0), &rules, 4, 10_000);
        assert_eq!(r, Max(20));
    }

    #[test]
    fn chaotic_with_no_rules_is_bottom() {
        let rules: RuleVec = vec![];
        let seed: BTreeSet<i64> = [1].into_iter().collect();
        assert_eq!(chaotic_fixpoint(seed.clone(), &rules, 3, 100), seed);
    }
}
