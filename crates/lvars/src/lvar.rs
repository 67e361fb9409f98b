//! LVars: lattice-based shared state for deterministic parallelism
//! (Kuper & Newton 2013; §6 of the paper).
//!
//! An [`LVar`] holds an element of a join semilattice. Writes (`put`) join
//! the new value into the current state — commutative, so racing writes are
//! deterministic. Reads are *threshold reads*: the caller supplies a set of
//! pairwise-incompatible thresholds and blocks until the state passes one
//! of them, receiving the *threshold* (not the full state) — which keeps
//! reads deterministic under racing writes. This is exactly λ∨'s
//! `let s = e in e'` (§2.1), re-exposed as a library.
//!
//! [`LVar::freeze`] implements LVish-style freeze-after-write
//! (Kuper et al. 2014, discussed in §5.2 "Frozen Values"): freezing
//! returns the exact current state and makes any later state-changing `put`
//! an error — the quasi-determinism trade-off.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use lambda_join_runtime::semilattice::JoinSemilattice;

/// Error returned by [`LVar::put`] after a conflicting freeze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenError;

impl std::fmt::Display for FrozenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("put would change a frozen LVar")
    }
}

impl std::error::Error for FrozenError {}

struct Inner<T> {
    state: Mutex<(T, bool)>, // (value, frozen)
    cond: Condvar,
}

/// A shared, monotonically growing lattice variable.
///
/// Cheap to clone (all clones share state). Safe to use from many threads.
///
/// # Examples
///
/// ```
/// use lambda_join_lvars::LVar;
/// use std::collections::BTreeSet;
///
/// let lv: LVar<BTreeSet<i64>> = LVar::new(BTreeSet::new());
/// lv.put(&[1].into_iter().collect()).unwrap();
/// lv.put(&[2].into_iter().collect()).unwrap();
/// // Threshold read: fires once {1} ⊑ state.
/// let seen = lv.get(&[[1].into_iter().collect::<BTreeSet<i64>>()]);
/// assert_eq!(seen, [1].into_iter().collect());
/// ```
pub struct LVar<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for LVar<T> {
    fn clone(&self) -> Self {
        LVar {
            inner: self.inner.clone(),
        }
    }
}

impl<T: JoinSemilattice + PartialEq + Send> LVar<T> {
    /// Creates an LVar with the given initial (usually bottom) state.
    pub fn new(initial: T) -> Self {
        LVar {
            inner: Arc::new(Inner {
                state: Mutex::new((initial, false)),
                cond: Condvar::new(),
            }),
        }
    }

    /// Joins `v` into the state.
    ///
    /// # Errors
    ///
    /// Returns [`FrozenError`] if the LVar is frozen and the put would
    /// change its value (puts below the frozen state are no-ops and
    /// succeed).
    pub fn put(&self, v: &T) -> Result<(), FrozenError> {
        let mut guard = self.inner.state.lock();
        let joined = guard.0.join(v);
        if joined != guard.0 {
            if guard.1 {
                return Err(FrozenError);
            }
            guard.0 = joined;
            self.inner.cond.notify_all();
        }
        Ok(())
    }

    /// Threshold read: blocks until the state is at or above one of the
    /// `thresholds`, then returns *that threshold*.
    ///
    /// For the read to be deterministic the thresholds must be pairwise
    /// incompatible (no two can ever both be below the state) — the same
    /// side condition as the paper's `'true`/`'false` branches.
    pub fn get(&self, thresholds: &[T]) -> T {
        let mut guard = self.inner.state.lock();
        loop {
            if let Some(hit) = thresholds.iter().find(|t| t.leq(&guard.0)) {
                return hit.clone();
            }
            self.inner.cond.wait(&mut guard);
        }
    }

    /// Non-blocking threshold read.
    pub fn try_get(&self, thresholds: &[T]) -> Option<T> {
        let guard = self.inner.state.lock();
        thresholds.iter().find(|t| t.leq(&guard.0)).cloned()
    }

    /// Freezes the LVar and returns the exact current state.
    ///
    /// After freezing, any `put` that would change the state fails — the
    /// LVish quasi-determinism contract: either the program is free of
    /// put-after-freeze races and is deterministic, or it errs.
    pub fn freeze(&self) -> T {
        let mut guard = self.inner.state.lock();
        guard.1 = true;
        guard.0.clone()
    }

    /// Whether the LVar has been frozen.
    pub fn is_frozen(&self) -> bool {
        self.inner.state.lock().1
    }

    /// A snapshot of the current state (for tests and debugging; using this
    /// for control flow reintroduces nondeterminism — prefer [`LVar::get`]).
    pub fn peek(&self) -> T {
        self.inner.state.lock().0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn s(xs: &[i64]) -> BTreeSet<i64> {
        xs.iter().cloned().collect()
    }

    #[test]
    fn puts_join() {
        let lv = LVar::new(s(&[]));
        lv.put(&s(&[1])).unwrap();
        lv.put(&s(&[2])).unwrap();
        assert_eq!(lv.peek(), s(&[1, 2]));
    }

    #[test]
    fn racing_puts_are_deterministic() {
        for _ in 0..20 {
            let lv = LVar::new(s(&[]));
            std::thread::scope(|sc| {
                for i in 0..8i64 {
                    let lv = lv.clone();
                    sc.spawn(move || {
                        lv.put(&s(&[i])).unwrap();
                    });
                }
            });
            assert_eq!(lv.peek(), (0..8).collect::<BTreeSet<i64>>());
        }
    }

    #[test]
    fn threshold_get_blocks_until_met() {
        let lv: LVar<BTreeSet<i64>> = LVar::new(s(&[]));
        let lv2 = lv.clone();
        let handle = std::thread::spawn(move || lv2.get(&[s(&[7])]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        lv.put(&s(&[1])).unwrap(); // not enough
        lv.put(&s(&[7])).unwrap(); // crosses the threshold
        assert_eq!(handle.join().unwrap(), s(&[7]));
    }

    #[test]
    fn threshold_get_returns_threshold_not_state() {
        let lv = LVar::new(s(&[1, 2, 3]));
        assert_eq!(lv.get(&[s(&[2])]), s(&[2]));
    }

    #[test]
    fn try_get_is_nonblocking() {
        let lv = LVar::new(s(&[1]));
        assert_eq!(lv.try_get(&[s(&[1])]), Some(s(&[1])));
        assert_eq!(lv.try_get(&[s(&[9])]), None);
    }

    #[test]
    fn freeze_then_compatible_put_ok() {
        let lv = LVar::new(s(&[1]));
        let frozen = lv.freeze();
        assert_eq!(frozen, s(&[1]));
        // Re-putting existing information is fine.
        lv.put(&s(&[1])).unwrap();
        // Growing is not.
        assert_eq!(lv.put(&s(&[2])), Err(FrozenError));
        assert!(lv.is_frozen());
    }

    #[test]
    fn boolean_lvar_models_por() {
        // Parallel or via an LVar: two writers race to set `true`.
        let lv: LVar<bool> = LVar::new(false);
        let l1 = lv.clone();
        let l2 = lv.clone();
        std::thread::scope(|sc| {
            sc.spawn(move || l1.put(&true).unwrap());
            sc.spawn(move || {
                // This writer "diverges" (never writes true).
                let _ = l2;
            });
        });
        assert!(lv.get(&[true]));
    }
}
