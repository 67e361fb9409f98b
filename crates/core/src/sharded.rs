//! The thread-shared β-memo behind `lambdav serve`: one owned
//! [`Interner`] and its [`InternTable`] behind a single lock.
//!
//! λ∨ evaluation is deterministic under any interleaving, so sessions
//! that share a memo need its updates to be atomic, not its interning to
//! run in parallel. [`SharedInternTable`] therefore wraps the owned arena
//! and the memo keyed on its canonical `(function, argument, fuel)` ids —
//! exactly what `MemoEval` owns — in one `parking_lot::Mutex`. Sessions
//! evaluate through [`crate::engine::run`], which runs the id machine
//! under the lock and offers the lock to waiting sessions between
//! dispatches, so a long evaluation does not shut out warm requests.
//!
//! Lock discipline: every method takes the lock and releases it before
//! returning. [`SharedInternTable::collected`] extracts the surviving
//! entries as trees under the lock and re-interns them into a fresh arena
//! outside it. The one hazard is [`SharedInternTable::interner`] (and
//! [`SharedInternTable::try_interner`]), which returns a guard: calling
//! any other method of the same table while that guard is alive
//! deadlocks, so read what you need from it in one scoped block.
//!
//! # Example
//!
//! ```
//! use lambda_join_core::builder::*;
//! use lambda_join_core::engine::{self, Budget};
//! use lambda_join_core::sharded::SharedInternTable;
//!
//! let table = SharedInternTable::new();
//! let id = |x: &str| lam(x, var(x));
//! std::thread::scope(|s| {
//!     let table = table.clone();
//!     s.spawn(move || engine::run(&app(id("x"), int(1)), 4, &mut Budget::new(usize::MAX), &table));
//! });
//! // Clones share one memo, and α-variants share one entry.
//! let r = engine::run(&app(id("y"), int(1)), 4, &mut Budget::new(usize::MAX), &table);
//! assert_eq!(r.to_string(), "1");
//! assert_eq!(table.len(), 1);
//! assert_eq!(table.stats(), (1, 1));
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::intern::{InternTable, Interner};

/// Everything the lock guards.
#[derive(Debug, Default)]
struct Memo {
    interner: Interner,
    table: InternTable,
}

/// An arena and its β-memo shared across threads. See the module docs.
///
/// Cloning the handle is cheap (`Arc`); every clone shares the same arena
/// and memo, so β-results computed by one session are replayed by all
/// others. Keys are canonical `(TermId, TermId, fuel)` triples.
///
/// Determinism: evaluation is a pure function of the term and fuel, so
/// whichever session stores a key first stores the same result any other
/// would have; store races are benign.
#[derive(Debug, Clone, Default)]
pub struct SharedInternTable {
    memo: Arc<Mutex<Memo>>,
}

// Compile-time assertion: the table is usable from any thread.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<SharedInternTable>();
};

/// The locked arena of a [`SharedInternTable`], from
/// [`SharedInternTable::interner`]. The table's lock is held until the
/// guard drops.
pub struct InternerGuard<'a>(MutexGuard<'a, Memo>);

impl InternerGuard<'_> {
    /// The arena and the memo keyed on its ids, borrowed together (what
    /// [`crate::engine::run_id`] takes).
    pub fn parts(&mut self) -> (&mut Interner, &mut InternTable) {
        let memo = &mut *self.0;
        (&mut memo.interner, &mut memo.table)
    }

    /// Lets a thread that has waited `parking_lot::FAIR_WAIT` for the
    /// table take the lock first, then takes it back.
    pub(crate) fn bump(&mut self) {
        MutexGuard::bump(&mut self.0);
    }
}

impl Deref for InternerGuard<'_> {
    type Target = Interner;

    fn deref(&self) -> &Interner {
        &self.0.interner
    }
}

impl DerefMut for InternerGuard<'_> {
    fn deref_mut(&mut self) -> &mut Interner {
        &mut self.0.interner
    }
}

impl SharedInternTable {
    /// Creates an empty shared table.
    pub fn new() -> Self {
        SharedInternTable::default()
    }

    /// Shares an arena and the memo keyed on its ids (a loaded snapshot).
    pub(crate) fn from_parts(interner: Interner, table: InternTable) -> Self {
        SharedInternTable {
            memo: Arc::new(Mutex::new(Memo { interner, table })),
        }
    }

    /// Cache statistics `(hits, misses)`, summed across all handles.
    pub fn stats(&self) -> (usize, usize) {
        self.memo.lock().table.stats()
    }

    /// The arena, locked, with the memo reachable through
    /// [`InternerGuard::parts`]. Every other method of this table
    /// deadlocks while the guard lives.
    pub fn interner(&self) -> InternerGuard<'_> {
        InternerGuard(self.memo.lock())
    }

    /// [`SharedInternTable::interner`], unless another thread holds the
    /// table.
    pub fn try_interner(&self) -> Option<InternerGuard<'_>> {
        self.memo.try_lock().map(InternerGuard)
    }

    /// The number of cached β-entries.
    pub fn len(&self) -> usize {
        self.memo.lock().table.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.memo.lock().table.is_empty()
    }

    /// The current request generation.
    pub fn generation(&self) -> u64 {
        self.memo.lock().table.generation()
    }

    /// Advances the request generation and returns the new value.
    ///
    /// A long-lived server calls this once per admitted request; every
    /// entry stored or hit afterwards is stamped with the new generation,
    /// which is what "touched in the last N requests" means to
    /// [`SharedInternTable::collected`].
    pub fn begin_generation(&self) -> u64 {
        self.memo.lock().table.begin_generation()
    }

    /// Generation-tracked compaction: builds a **new** table (fresh arena,
    /// fresh memo) containing exactly the entries touched in the last
    /// `keep_last` generations, re-interning their keys and results. The
    /// hot memo survives; everything colder — and every arena node only
    /// cold entries referenced — is dropped with the old table's last
    /// handle. Only the extraction of the survivors holds the lock.
    ///
    /// `keep_last = 0` keeps nothing; `keep_last = 1` keeps only entries
    /// touched in the current generation. The new table continues the old
    /// generation counter and hit/miss statistics. Entries keep their
    /// stamps, so repeated collections age entries out rather than
    /// refreshing them.
    ///
    /// Concurrent use is safe but racy in the benign direction: a store
    /// into the old table after the survivors were copied out misses the
    /// cut, which costs a future recomputation, never a wrong result.
    #[must_use = "collection returns the compacted table; the old one lives until its handles drop"]
    pub fn collected(&self, keep_last: u64) -> SharedInternTable {
        let (mut table, survivors) = {
            let mut guard = self.memo.lock();
            let memo = &mut *guard;
            memo.table.survivors(keep_last, &mut memo.interner)
        };
        let mut interner = Interner::new();
        table.adopt(survivors, &mut interner);
        SharedInternTable::from_parts(interner, table)
    }
}

#[cfg(test)]
use crate::{engine::IdBetaTable, term::TermRef};

/// Tree-level probes of the memo for unit tests: `store` and `lookup`
/// canonicalise their terms in the table's own arena.
#[cfg(test)]
impl SharedInternTable {
    pub(crate) fn store(&self, f: &TermRef, a: &TermRef, fuel: usize, r: &TermRef, ex: bool) {
        let mut guard = self.interner();
        let (ar, memo) = guard.parts();
        let (f, a, r) = (ar.canon_id(f), ar.canon_id(a), ar.canon_id(r));
        memo.store(f, a, fuel, r, ex);
    }

    pub(crate) fn lookup(&self, f: &TermRef, a: &TermRef, fuel: usize) -> Option<(TermRef, bool)> {
        let mut guard = self.interner();
        let (ar, memo) = guard.parts();
        let (f, a) = (ar.canon_id(f), ar.canon_id(a));
        let (r, ex) = memo.lookup(f, a, fuel)?;
        Some((ar.extract(r), ex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn canon_identifies_alpha_variants_across_threads() {
        let table = SharedInternTable::new();
        let t = lam("x", app(var("x"), var("free")));
        let u = lam("y", app(var("y"), var("free")));
        let v = lam("y", app(var("y"), var("other")));
        std::thread::scope(|s| {
            let (writer, t) = (table.clone(), t.clone());
            s.spawn(move || writer.store(&t, &int(1), 3, &int(2), false));
        });
        let reader = table.clone();
        let hit = std::thread::scope(|s| s.spawn(|| reader.lookup(&u, &int(1), 3)).join());
        assert!(hit.unwrap().is_some(), "α-variant hits from another thread");
        assert!(table.lookup(&v, &int(1), 3).is_none());
        let mut arena = table.interner();
        assert_eq!(arena.canon_id(&t), arena.canon_id(&u));
        assert_ne!(arena.canon_id(&t), arena.canon_id(&v));
    }

    #[test]
    fn ids_are_stable_across_repeat_probes() {
        let table = SharedInternTable::new();
        let t = set(vec![int(1), pair(int(2), int(3))]);
        table.store(&t, &t, 2, &t, false);
        let nodes = table.interner().len();
        for probe in [
            t.clone(),
            t.clone(),
            set(vec![int(1), pair(int(2), int(3))]),
        ] {
            assert!(table.lookup(&probe, &probe, 2).is_some());
        }
        assert_eq!(table.len(), 1);
        assert_eq!(table.interner().len(), nodes, "repeat probes mint no ids");
    }

    #[test]
    fn shared_table_hits_on_alpha_variants() {
        let table = SharedInternTable::new();
        let f1 = lam("x", var("x"));
        let f2 = lam("y", var("y"));
        let arg = int(3);
        assert!(table.lookup(&f1, &arg, 5).is_none());
        table.store(&f1, &arg, 5, &arg, false);
        let (r, ex) = table.lookup(&f2, &arg, 5).expect("α-variant must hit");
        assert!(r.alpha_eq(&arg));
        assert!(!ex);
        assert!(
            table.clone().lookup(&f2, &arg, 5).is_some(),
            "clones share the cache"
        );
    }

    #[test]
    fn collected_keeps_recently_touched_entries_only() {
        let table = SharedInternTable::new();
        let hot_f = lam("x", var("x"));
        let cold_f = lam("x", pair(var("x"), var("x")));
        let arg = int(7);

        table.begin_generation(); // request 1
        table.store(&cold_f, &arg, 5, &int(1), false);
        table.store(&hot_f, &arg, 5, &int(2), true);
        table.begin_generation(); // request 2: touches only hot_f
        assert!(table.lookup(&hot_f, &arg, 5).is_some());
        table.begin_generation(); // request 3: touches only hot_f
        assert!(table.lookup(&hot_f, &arg, 5).is_some());

        // Keep the last 2 generations: hot_f (stamp 3) survives, cold_f
        // (stamp 1) is dropped.
        let gc = table.collected(2);
        assert_eq!(gc.len(), 1);
        assert_eq!(gc.generation(), table.generation());
        // The compacted arena holds only the retained footprint (measured
        // before any probe re-interns its key terms).
        assert!(gc.interner().len() < table.interner().len());
        let (r, ex) = gc.lookup(&hot_f, &arg, 5).expect("hot entry survives");
        assert!(r.alpha_eq(&int(2)));
        assert!(ex, "exhaustion flag preserved");
        assert!(gc.lookup(&cold_f, &arg, 5).is_none(), "cold entry dropped");
    }

    #[test]
    fn collected_hits_alpha_variants_like_the_original() {
        let table = SharedInternTable::new();
        table.begin_generation();
        table.store(&lam("x", var("x")), &int(3), 9, &int(3), false);
        let gc = table.collected(1);
        let (r, _) = gc
            .lookup(&lam("y", var("y")), &int(3), 9)
            .expect("α-variant hits after compaction");
        assert!(r.alpha_eq(&int(3)));
    }

    #[test]
    fn collected_zero_keeps_nothing() {
        let table = SharedInternTable::new();
        table.begin_generation();
        table.store(&lam("x", var("x")), &int(3), 9, &int(3), false);
        let gc = table.collected(0);
        assert!(gc.is_empty());
        assert_eq!(gc.generation(), table.generation());
    }
}
