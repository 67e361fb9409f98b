//! The thread-shared β-memo behind `lambdav serve`: one owned
//! [`Interner`] and one tree-result cache behind a single lock.
//!
//! λ∨ evaluation is deterministic under any interleaving, so sessions
//! that share a memo need its updates to be atomic, not its interning to
//! run in parallel. [`SharedInternTable`] therefore wraps the owned arena
//! — the same canonical [`TermId`]s deciding α-equivalence by `u32`
//! comparison — in one `parking_lot::Mutex`, next to the cache of
//! `(function, argument, fuel) → result` trees, the hit/miss counters and
//! the request generation.
//!
//! Lock discipline: every operation takes the lock once and releases it
//! before returning. A probe ([`BetaTable::lookup`]/[`BetaTable::store`])
//! holds it for two `canon_id`s and one map access, never across engine
//! work; [`SharedInternTable::collected`] and the snapshot export copy the
//! surviving entries out under the lock and re-intern them outside it.
//! The one hazard is [`SharedInternTable::interner`], which returns a
//! guard: calling any other method of the same table while that guard is
//! alive deadlocks, so read what you need from it in one scoped block.
//!
//! # Example
//!
//! ```
//! use lambda_join_core::builder::*;
//! use lambda_join_core::engine::BetaTable;
//! use lambda_join_core::sharded::SharedInternTable;
//!
//! let table = SharedInternTable::new();
//! std::thread::scope(|s| {
//!     let mut writer = table.clone();
//!     s.spawn(move || writer.store(&lam("x", var("x")), &int(1), 4, &int(1), false));
//! });
//! // Clones share one memo, and α-variants share one entry.
//! let mut reader = table.clone();
//! assert!(reader.lookup(&lam("y", var("y")), &int(1), 4).is_some());
//! assert_eq!(table.len(), 1);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::engine::BetaTable;
use crate::intern::{FastMap, Interner, TermId};
use crate::term::TermRef;

/// One β-memo key: canonical function id, canonical argument id, fuel.
type BetaKey = (TermId, TermId, usize);

/// One cached β-result with its recency stamp.
#[derive(Debug, Clone)]
struct CachedBeta {
    result: TermRef,
    exhausted: bool,
    /// The generation this entry was last stored *or hit* in — the
    /// recency signal [`SharedInternTable::collected`] keeps hot entries by.
    stamp: u64,
}

/// One surviving entry copied out of the memo, with its key terms.
struct Survivor {
    key: BetaKey,
    f: TermRef,
    a: TermRef,
    entry: CachedBeta,
}

/// Everything the lock guards.
#[derive(Debug, Default)]
struct Memo {
    interner: Interner,
    cache: FastMap<BetaKey, CachedBeta>,
    hits: usize,
    misses: usize,
    /// The current request generation (see [`SharedInternTable::begin_generation`]).
    generation: u64,
}

impl Memo {
    /// The canonical β-key of `(f, a, fuel)`.
    fn key(&mut self, f: &TermRef, a: &TermRef, fuel: usize) -> BetaKey {
        (self.interner.canon_id(f), self.interner.canon_id(a), fuel)
    }
}

/// A memoising [`BetaTable`] shared across threads: the thread-shared
/// counterpart of [`crate::intern::InternTable`]. See the module docs.
///
/// Cloning the handle is cheap (`Arc`); every clone shares the same arena
/// and cache, so β-results computed by one session are replayed by all
/// others. Keys are canonical `(TermId, TermId, fuel)` triples.
///
/// Determinism: evaluation through the engine is a pure function of the
/// term and fuel, so whichever session stores a key first stores the same
/// result any other would have; store races are benign.
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

    /// Cache statistics `(hits, misses)`, summed across all handles.
    pub fn stats(&self) -> (usize, usize) {
        let memo = self.memo.lock();
        (memo.hits, memo.misses)
    }

    /// The arena backing the table's keys, locked. Every other method of
    /// this table deadlocks while the guard lives.
    pub fn interner(&self) -> InternerGuard<'_> {
        InternerGuard(self.memo.lock())
    }

    /// The number of cached β-entries.
    pub fn len(&self) -> usize {
        self.memo.lock().cache.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.memo.lock().cache.is_empty()
    }

    /// The current request generation.
    pub fn generation(&self) -> u64 {
        self.memo.lock().generation
    }

    /// Advances the request generation and returns the new value.
    ///
    /// A long-lived server calls this once per admitted request; every
    /// entry stored or hit afterwards is stamped with the new generation,
    /// which is what "touched in the last N requests" means to
    /// [`SharedInternTable::collected`].
    pub fn begin_generation(&self) -> u64 {
        let mut memo = self.memo.lock();
        memo.generation += 1;
        memo.generation
    }

    /// Copies out, under the lock, the entries touched within the last
    /// `keep_last` generations with their key terms, and an empty memo
    /// that continues this one's counters.
    fn survivors(&self, keep_last: u64) -> (Vec<Survivor>, Memo) {
        let mut guard = self.memo.lock();
        let memo = &mut *guard;
        let cur = memo.generation;
        let survivors = memo
            .cache
            .iter()
            .filter(|(_, v)| v.stamp.saturating_add(keep_last) > cur)
            .map(|(key, entry)| Survivor {
                key: *key,
                f: memo.interner.extract(key.0),
                a: memo.interner.extract(key.1),
                entry: entry.clone(),
            })
            .collect();
        let counters = Memo {
            hits: memo.hits,
            misses: memo.misses,
            generation: cur,
            ..Memo::default()
        };
        (survivors, counters)
    }

    /// Generation-tracked compaction: builds a **new** table (fresh arena,
    /// fresh cache) containing exactly the entries touched in the last
    /// `keep_last` generations, re-interning their keys. The hot memo
    /// survives; everything colder — and every arena node only cold
    /// entries referenced — is dropped with the old table's last handle.
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
        let (survivors, mut fresh) = self.survivors(keep_last);
        for s in survivors {
            let key = fresh.key(&s.f, &s.a, s.key.2);
            fresh.cache.insert(key, s.entry);
        }
        SharedInternTable {
            memo: Arc::new(Mutex::new(fresh)),
        }
    }

    /// Snapshot export (see [`crate::snap`]): the entries touched within
    /// the last `keep_last` generations — the same recency filter
    /// [`SharedInternTable::collected`] uses; pass `u64::MAX` to keep
    /// everything — with their key/result terms extracted, plus the
    /// table's counters. Sorted by key ids so equal tables serialise to
    /// identical bytes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snap_export(
        &self,
        keep_last: u64,
    ) -> (
        Vec<(TermRef, TermRef, usize, TermRef, bool, u64)>,
        usize,
        usize,
        u64,
    ) {
        let (mut survivors, counters) = self.survivors(keep_last);
        survivors.sort_unstable_by_key(|s| s.key);
        let rows = survivors
            .into_iter()
            .map(|s| {
                let e = s.entry;
                (s.f, s.a, s.key.2, e.result, e.exhausted, e.stamp)
            })
            .collect();
        (rows, counters.hits, counters.misses, counters.generation)
    }

    /// Restores one snapshot entry: keys are canonically re-interned into
    /// this table's arena, the stamp is kept verbatim.
    pub(crate) fn snap_restore(
        &self,
        f: &TermRef,
        a: &TermRef,
        fuel: usize,
        r: &TermRef,
        exhausted: bool,
        stamp: u64,
    ) {
        let mut memo = self.memo.lock();
        let key = memo.key(f, a, fuel);
        let entry = CachedBeta {
            result: r.clone(),
            exhausted,
            stamp,
        };
        memo.cache.insert(key, entry);
    }

    /// Restores snapshot counters (statistics and the generation clock).
    pub(crate) fn snap_set_counters(&self, hits: usize, misses: usize, generation: u64) {
        let mut memo = self.memo.lock();
        memo.hits = hits;
        memo.misses = misses;
        memo.generation = generation;
    }
}

impl BetaTable for SharedInternTable {
    fn lookup(&mut self, f: &TermRef, a: &TermRef, fuel: usize) -> Option<(TermRef, bool)> {
        let mut guard = self.memo.lock();
        let memo = &mut *guard;
        let key = memo.key(f, a, fuel);
        match memo.cache.get_mut(&key) {
            Some(v) => {
                // Touch: a hit keeps the entry hot for the collector.
                v.stamp = memo.generation;
                memo.hits += 1;
                Some((v.result.clone(), v.exhausted))
            }
            None => {
                memo.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, f: &TermRef, a: &TermRef, fuel: usize, r: &TermRef, exhausted: bool) {
        let mut memo = self.memo.lock();
        let key = memo.key(f, a, fuel);
        let entry = CachedBeta {
            result: r.clone(),
            exhausted,
            stamp: memo.generation,
        };
        memo.cache.insert(key, entry);
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
            let mut writer = table.clone();
            let t = t.clone();
            s.spawn(move || writer.store(&t, &int(1), 3, &int(2), false));
        });
        let mut reader = table.clone();
        let hit = std::thread::scope(|s| s.spawn(|| reader.lookup(&u, &int(1), 3)).join());
        assert!(hit.unwrap().is_some(), "α-variant hits from another thread");
        assert!(table.clone().lookup(&v, &int(1), 3).is_none());
        let mut arena = table.interner();
        assert_eq!(arena.canon_id(&t), arena.canon_id(&u));
        assert_ne!(arena.canon_id(&t), arena.canon_id(&v));
    }

    #[test]
    fn ids_are_stable_across_repeat_probes() {
        let mut table = SharedInternTable::new();
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
        let mut table = SharedInternTable::new();
        let f1 = lam("x", var("x"));
        let f2 = lam("y", var("y"));
        let arg = int(3);
        assert!(table.lookup(&f1, &arg, 5).is_none());
        table.store(&f1, &arg, 5, &arg, false);
        let (r, ex) = table.lookup(&f2, &arg, 5).expect("α-variant must hit");
        assert!(r.alpha_eq(&arg));
        assert!(!ex);
        let mut clone = table.clone();
        assert!(
            clone.lookup(&f2, &arg, 5).is_some(),
            "clones share the cache"
        );
    }

    #[test]
    fn collected_keeps_recently_touched_entries_only() {
        let mut table = SharedInternTable::new();
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
        let mut gc = table.collected(2);
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
        let mut table = SharedInternTable::new();
        table.begin_generation();
        table.store(&lam("x", var("x")), &int(3), 9, &int(3), false);
        let mut gc = table.collected(1);
        let (r, _) = gc
            .lookup(&lam("y", var("y")), &int(3), 9)
            .expect("α-variant hits after compaction");
        assert!(r.alpha_eq(&int(3)));
    }

    #[test]
    fn collected_zero_keeps_nothing() {
        let mut table = SharedInternTable::new();
        table.begin_generation();
        table.store(&lam("x", var("x")), &int(3), 9, &int(3), false);
        let gc = table.collected(0);
        assert!(gc.is_empty());
        assert_eq!(gc.generation(), table.generation());
    }
}
