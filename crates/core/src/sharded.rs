//! The thread-shared hash-consing interner: sharded arenas behind one
//! handle, usable concurrently from worker threads.
//!
//! [`crate::intern::Interner`] is the owned, single-threaded arena. The
//! parallel fixpoint engines need the *same* service — canonical
//! [`TermId`]s deciding α-equivalence by `u32` comparison — but probed
//! concurrently from every worker of a round. [`SharedInterner`] provides
//! it by sharding:
//!
//! * the hash-cons map is split into [`SHARDS`] shards **keyed by the
//!   structural hash of the node key**, each a `parking_lot::Mutex` around
//!   an append-only arena slice. Concurrent interning contends only when
//!   two workers touch nodes that land in the same shard;
//! * ids are global: the shard tag lives in the low `SHARD_BITS` bits of
//!   the `u32`, the shard-local index above them, so child ids minted by
//!   any shard can appear in any other shard's node keys;
//! * the pointer caches (amortised-O(1) repeat probes, exactly as in the
//!   owned arena) are sharded separately **by allocation address**.
//!
//! The defining invariant of the owned arena carries over *globally*:
//!
//! ```text
//! canon_id(t) == canon_id(u)  ⟺  t.alpha_eq(&u)
//! ```
//!
//! for any two terms probed from any threads of the process (stress- and
//! property-tested under concurrency in `tests/sharded_props.rs`). The
//! argument: canonical node keys are a pure function of the term (de
//! Bruijn-index key space, identical to the owned arena's), the key → id
//! mapping is consistent because a given key always hashes to the same
//! shard and each shard's get-or-insert is linearizable under its lock,
//! and metadata is a deterministic function of the key and the children's
//! metadata, so racing workers that compute it twice agree and the loser
//! of an insert race simply adopts the winner's id.
//!
//! Numeric id *values* are schedule-dependent (insertion order differs run
//! to run); only id **equality** is meaningful, which is all the engines
//! use. Lock discipline: at most one shard lock is ever held at a time
//! (child metadata is gathered before the parent's shard is locked), so
//! the structure is deadlock-free by construction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::BetaTable;
use crate::intern::{
    canon_binder, canonical_name, compute_meta_from, key_children, node_key_of, FastMap, NodeKey,
    PtrKey, TermId, TermMeta, CANON_PTR_CACHE_MIN_SIZE,
};
use crate::term::{Term, TermRef, Var};

/// Number of hash-cons shards (a power of two; the tag fits `SHARD_BITS`).
pub const SHARDS: usize = 16;

/// Bits of the id reserved for the shard tag.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// One hash-cons shard: a slice of the global arena.
#[derive(Debug, Default)]
struct Shard {
    /// Node key → global id, for keys that hash into this shard.
    nodes: FastMap<NodeKey, TermId>,
    /// Representative terms by shard-local index.
    terms: Vec<TermRef>,
    /// Cached metadata by shard-local index.
    metas: Vec<TermMeta>,
}

/// One canonical pointer-cache entry (see [`crate::intern::Interner`] for
/// the reuse rule): the canonical id minted for this allocation, whether
/// the subtree is closed (environment-independent, reusable at any binder
/// depth), and the retained handle pinning the address.
#[derive(Debug, Clone)]
struct CanonPtrEntry {
    id: TermId,
    closed: bool,
    _retained: TermRef,
}

/// A sharded hash-consing arena shared across threads. See module docs.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use lambda_join_core::builder::*;
/// use lambda_join_core::sharded::SharedInterner;
///
/// let arena = Arc::new(SharedInterner::new());
/// let id = std::thread::scope(|s| {
///     let handles: Vec<_> = (0..4)
///         .map(|_| {
///             let arena = arena.clone();
///             s.spawn(move || arena.canon_id(&lam("x", var("x"))))
///         })
///         .collect();
///     let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
///     ids
/// });
/// assert!(id.windows(2).all(|w| w[0] == w[1])); // one id across threads
/// ```
#[derive(Debug)]
pub struct SharedInterner {
    shards: Box<[Mutex<Shard>]>,
    /// Canonical pointer cache, sharded by allocation address.
    canon_ptr: Box<[Mutex<FastMap<PtrKey, CanonPtrEntry>>]>,
    /// Entries across all `canon_ptr` shards, kept without a lock sweep.
    canon_ptr_len: AtomicUsize,
    /// The shared empty free-variable slice.
    no_vars: Arc<[Var]>,
}

// Compile-time assertion: the shared arena and table are usable from any
// thread behind an `Arc`.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<SharedInterner>();
    require_send_sync::<SharedInternTable>();
};

impl Default for SharedInterner {
    fn default() -> Self {
        SharedInterner::new()
    }
}

/// The shard a node key hashes into.
fn shard_of(key: &NodeKey) -> usize {
    use std::hash::{BuildHasher, BuildHasherDefault};
    let h = BuildHasherDefault::<crate::intern::FastHasher>::default().hash_one(key);
    (h as usize) & (SHARDS - 1)
}

/// The pointer-cache shard for an allocation address.
fn ptr_shard_of(p: PtrKey) -> usize {
    use std::hash::{BuildHasher, BuildHasherDefault};
    let h = BuildHasherDefault::<crate::intern::FastHasher>::default().hash_one(p);
    (h as usize) & (SHARDS - 1)
}

impl SharedInterner {
    /// Creates an empty shared arena.
    pub fn new() -> Self {
        SharedInterner {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            canon_ptr: (0..SHARDS).map(|_| Mutex::default()).collect(),
            canon_ptr_len: AtomicUsize::new(0),
            no_vars: Arc::from(Vec::new()),
        }
    }

    /// The number of distinct nodes interned so far, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().terms.len()).sum()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().terms.is_empty())
    }

    /// The number of canonical pointer-cache entries. Each pins the tree
    /// it was probed with, so this grows with every distinct allocation
    /// canonicalised, even when [`len`](SharedInterner::len) does not.
    pub fn canon_ptr_len(&self) -> usize {
        self.canon_ptr_len.load(Ordering::Relaxed)
    }

    /// Records `id` for the allocation `t` in the canonical pointer cache.
    fn cache_canon_ptr(&self, t: &TermRef, id: TermId, closed: bool) {
        let pk = PtrKey::of(t);
        let entry = CanonPtrEntry {
            id,
            closed,
            _retained: t.clone(),
        };
        if self.canon_ptr[ptr_shard_of(pk)]
            .lock()
            .insert(pk, entry)
            .is_none()
        {
            self.canon_ptr_len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The representative term of an id (α-equivalent to every term that
    /// canonicalises to `id`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn term(&self, id: TermId) -> TermRef {
        let (shard, local) = unpack(id);
        self.shards[shard].lock().terms[local].clone()
    }

    /// The cached metadata of an id (cloned out of the shard; the clone is
    /// a few scalars plus one `Arc` bump).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn meta(&self, id: TermId) -> TermMeta {
        let (shard, local) = unpack(id);
        self.shards[shard].lock().metas[local].clone()
    }

    /// O(1) α-equivalence through the shared arena.
    pub fn alpha_eq(&self, t: &TermRef, u: &TermRef) -> bool {
        Arc::ptr_eq(t, u) || self.canon_id(t) == self.canon_id(u)
    }

    /// Get-or-insert one node key whose children are already interned.
    /// Returns the id with the node's closedness and size (so callers can
    /// decide pointer-caching without re-locking the shard).
    ///
    /// Lock discipline: probes the target shard, releases it to gather the
    /// children's metadata from their own shards, then re-locks and
    /// double-checks before inserting — at most one lock held at any time.
    fn intern_key(&self, key: NodeKey, t: &TermRef) -> (TermId, bool, usize) {
        let shard_idx = shard_of(&key);
        {
            let shard = self.shards[shard_idx].lock();
            if let Some(&id) = shard.nodes.get(&key) {
                let m = &shard.metas[unpack(id).1];
                return (id, m.is_closed(), m.size);
            }
        }
        // Miss: compute the metadata outside the lock. Children live in
        // arbitrary shards; `meta` locks each briefly, one at a time.
        let child_ids = key_children(&key);
        let child_metas: Vec<TermMeta> = child_ids.iter().map(|&c| self.meta(c)).collect();
        let children: Vec<&TermMeta> = child_metas.iter().collect();
        let meta = compute_meta_from(&key, &children, &self.no_vars);
        let mut shard = self.shards[shard_idx].lock();
        // Double-check: a racing worker may have inserted the key while we
        // computed the (identical, deterministic) metadata.
        if let Some(&id) = shard.nodes.get(&key) {
            let m = &shard.metas[unpack(id).1];
            return (id, m.is_closed(), m.size);
        }
        let local = shard.terms.len();
        let id = pack(shard_idx, local);
        let (closed, size) = (meta.is_closed(), meta.size);
        shard.terms.push(t.clone());
        shard.metas.push(meta);
        shard.nodes.insert(key, id);
        (id, closed, size)
    }

    /// Interns a term *structurally* (binder names included), exactly like
    /// [`crate::intern::Interner::intern`] but callable concurrently.
    pub fn intern(&self, t: &TermRef) -> TermId {
        enum Job {
            Visit(TermRef),
            Build(TermRef, usize),
        }
        let mut jobs: Vec<Job> = vec![Job::Visit(t.clone())];
        let mut ids: Vec<TermId> = Vec::new();
        while let Some(job) = jobs.pop() {
            match job {
                Job::Visit(t) => {
                    let children: Vec<TermRef> = t.children().cloned().collect();
                    if children.is_empty() {
                        let key = node_key_of(&t, &[]);
                        ids.push(self.intern_key(key, &t).0);
                    } else {
                        jobs.push(Job::Build(t, children.len()));
                        jobs.extend(children.into_iter().rev().map(Job::Visit));
                    }
                }
                Job::Build(t, n) => {
                    let child_ids = ids.split_off(ids.len() - n);
                    let key = node_key_of(&t, &child_ids);
                    ids.push(self.intern_key(key, &t).0);
                }
            }
        }
        debug_assert_eq!(ids.len(), 1);
        ids.pop().expect("interning produced no id")
    }

    /// Interns the canonical form of a term: the id is the same for all
    /// α-equivalent terms, **across all threads of the process**. This is
    /// the id the parallel engines key their accumulators and caches on.
    ///
    /// Amortised O(1) per repeated handle via the sharded pointer cache;
    /// the walk itself is the owned arena's fused de Bruijn-index pass
    /// (worklist-based, O(1) native stack).
    pub fn canon_id(&self, t: &TermRef) -> TermId {
        let pk = PtrKey::of(t);
        if let Some(e) = self.canon_ptr[ptr_shard_of(pk)].lock().get(&pk) {
            // Root probes run with an empty ambient binder environment,
            // which is exactly the reuse condition for root-minted entries;
            // interior-minted entries are closed (see `CanonPtrEntry`).
            return e.id;
        }
        let (id, closed) = self.canon_intern(t);
        self.cache_canon_ptr(t, id, closed);
        id
    }

    /// The fused canonicalise-and-intern walk (see
    /// [`crate::intern::Interner::canon_id`] for the key-space details).
    /// Returns the id and whether the root is closed.
    fn canon_intern(&self, root: &TermRef) -> (TermId, bool) {
        enum Job<'a> {
            Visit(&'a TermRef),
            Bind(&'a Var),
            Unbind(usize),
            Build(&'a TermRef, usize),
        }
        // Canonical occurrence names by de Bruijn index, cached per walk.
        let mut names: Vec<Var> = Vec::new();
        let mut name_at = |i: usize| -> Var {
            while names.len() <= i {
                names.push(canonical_name(names.len()));
            }
            names[i].clone()
        };
        let mut bound: Vec<&Var> = Vec::new();
        let mut jobs: Vec<Job<'_>> = vec![Job::Visit(root)];
        let mut ids: Vec<TermId> = Vec::new();
        let mut root_closed = false;
        while let Some(job) = jobs.pop() {
            match job {
                Job::Bind(x) => bound.push(x),
                Job::Unbind(n) => {
                    let keep = bound.len() - n;
                    bound.truncate(keep);
                }
                Job::Visit(t) => {
                    let pk = PtrKey::of(t);
                    if let Some(e) = self.canon_ptr[ptr_shard_of(pk)].lock().get(&pk) {
                        // Reusable when the keys cannot depend on the
                        // ambient environment: closed subtrees anywhere,
                        // anything when the environment is empty.
                        if bound.is_empty() || e.closed {
                            ids.push(e.id);
                            continue;
                        }
                    }
                    match &**t {
                        Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => {
                            let key = node_key_of(t, &[]);
                            ids.push(self.intern_key(key, t).0);
                        }
                        Term::Var(x) => {
                            let key = match bound.iter().rposition(|b| *b == x) {
                                Some(pos) => NodeKey::Var(name_at(bound.len() - 1 - pos)),
                                None => NodeKey::Var(x.clone()),
                            };
                            ids.push(self.intern_key(key, t).0);
                        }
                        Term::Lam(x, b) => {
                            jobs.push(Job::Build(t, 1));
                            jobs.push(Job::Unbind(1));
                            jobs.push(Job::Visit(b));
                            jobs.push(Job::Bind(x));
                        }
                        Term::Pair(a, b)
                        | Term::App(a, b)
                        | Term::Join(a, b)
                        | Term::Lex(a, b)
                        | Term::LexMerge(a, b)
                        | Term::LetSym(_, a, b) => {
                            jobs.push(Job::Build(t, 2));
                            jobs.push(Job::Visit(b));
                            jobs.push(Job::Visit(a));
                        }
                        Term::Frz(e) => {
                            jobs.push(Job::Build(t, 1));
                            jobs.push(Job::Visit(e));
                        }
                        Term::Set(es) | Term::Prim(_, es) => {
                            jobs.push(Job::Build(t, es.len()));
                            jobs.extend(es.iter().rev().map(Job::Visit));
                        }
                        Term::LetPair(x1, x2, e, body) => {
                            jobs.push(Job::Build(t, 2));
                            jobs.push(Job::Unbind(2));
                            jobs.push(Job::Visit(body));
                            jobs.push(Job::Bind(x2));
                            jobs.push(Job::Bind(x1));
                            jobs.push(Job::Visit(e));
                        }
                        Term::BigJoin(x, e, body)
                        | Term::LetFrz(x, e, body)
                        | Term::LexBind(x, e, body) => {
                            jobs.push(Job::Build(t, 2));
                            jobs.push(Job::Unbind(1));
                            jobs.push(Job::Visit(body));
                            jobs.push(Job::Bind(x));
                            jobs.push(Job::Visit(e));
                        }
                    }
                }
                Job::Build(t, n) => {
                    let c = ids.split_off(ids.len() - n);
                    let key = match &**t {
                        Term::Lam(..) => NodeKey::Lam(canon_binder(), c[0]),
                        Term::Frz(_) => NodeKey::Frz(c[0]),
                        Term::Pair(..) => NodeKey::Pair(c[0], c[1]),
                        Term::App(..) => NodeKey::App(c[0], c[1]),
                        Term::Join(..) => NodeKey::Join(c[0], c[1]),
                        Term::Lex(..) => NodeKey::Lex(c[0], c[1]),
                        Term::LexMerge(..) => NodeKey::LexMerge(c[0], c[1]),
                        Term::LetSym(s, ..) => NodeKey::LetSym(s.clone(), c[0], c[1]),
                        Term::LetPair(..) => {
                            NodeKey::LetPair(canon_binder(), canon_binder(), c[0], c[1])
                        }
                        Term::BigJoin(..) => NodeKey::BigJoin(canon_binder(), c[0], c[1]),
                        Term::LetFrz(..) => NodeKey::LetFrz(canon_binder(), c[0], c[1]),
                        Term::LexBind(..) => NodeKey::LexBind(canon_binder(), c[0], c[1]),
                        Term::Set(_) => NodeKey::Set(c.into()),
                        Term::Prim(op, _) => NodeKey::Prim(*op, c.into()),
                        Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_) => {
                            unreachable!("leaves are keyed in place")
                        }
                    };
                    let (id, closed, size) = self.intern_key(key, t);
                    root_closed = closed;
                    // Pointer-cache large closed interior nodes, mirroring
                    // the owned arena (substitution shares untouched
                    // subtrees, so rebuilt terms re-probe in O(changed
                    // spine) across the whole worker fleet).
                    if closed && size >= CANON_PTR_CACHE_MIN_SIZE && !jobs.is_empty() {
                        self.cache_canon_ptr(t, id, closed);
                    }
                    ids.push(id);
                }
            }
        }
        debug_assert_eq!(ids.len(), 1);
        let id = ids.pop().expect("canonical interning produced no id");
        // Leaf roots never ran a Build job; fetch closedness from the meta.
        if matches!(
            &**root,
            Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_)
        ) {
            root_closed = !matches!(&**root, Term::Var(_));
        }
        (id, root_closed)
    }
}

/// Packs a shard tag and local index into a global id.
///
/// # Panics
///
/// Panics once a shard exceeds 2^28 nodes (`checked_shl` would *not*
/// catch this — it only rejects shift amounts ≥ 32, not bits shifted
/// off the top — so the bound is checked explicitly; silently wrapping
/// would alias two different terms to one id and corrupt every dedup
/// set and memo keyed on it).
fn pack(shard: usize, local: usize) -> TermId {
    let local = u32::try_from(local)
        .ok()
        .filter(|&l| l < (1u32 << (32 - SHARD_BITS)))
        .expect("shared interner shard full");
    TermId::from_raw((local << SHARD_BITS) | shard as u32)
}

/// Splits a global id into `(shard, local index)`.
fn unpack(id: TermId) -> (usize, usize) {
    let raw = id.raw();
    ((raw as usize) & (SHARDS - 1), (raw >> SHARD_BITS) as usize)
}

/// A concurrent, memoising [`BetaTable`] over a [`SharedInterner`]: the
/// thread-shared counterpart of [`crate::intern::InternTable`].
///
/// Cloning the handle is cheap (`Arc`); every clone shares the same arena
/// and cache, so β-results computed by one worker are replayed by all
/// others — the property that lets the parallel diagonal table share one
/// memo across grid cells. Keys are canonical `(TermId, TermId, fuel)`
/// triples; the cache itself is sharded by key hash, so concurrent probes
/// contend only per-shard.
///
/// Determinism: evaluation through the engine is a pure function of the
/// term and fuel, so whichever worker stores a key first stores the same
/// result any other worker would have; cache races are benign.
#[derive(Debug, Clone, Default)]
pub struct SharedInternTable {
    inner: Arc<SharedTableInner>,
}

#[derive(Debug, Default)]
struct SharedTableInner {
    interner: SharedInterner,
    cache: CacheShards,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// The current request generation (see [`SharedInternTable::begin_generation`]).
    generation: AtomicU64,
}

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

/// One cache shard: a locked map from β-keys to cached results.
type CacheShard = Mutex<FastMap<BetaKey, CachedBeta>>;

#[derive(Debug)]
struct CacheShards(Box<[CacheShard]>);

impl Default for CacheShards {
    fn default() -> Self {
        CacheShards((0..SHARDS).map(|_| Mutex::default()).collect())
    }
}

impl CacheShards {
    fn shard(&self, key: &BetaKey) -> &CacheShard {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let h = BuildHasherDefault::<crate::intern::FastHasher>::default().hash_one(key);
        &self.0[(h as usize) & (SHARDS - 1)]
    }
}

impl SharedInternTable {
    /// Creates an empty shared table.
    pub fn new() -> Self {
        SharedInternTable::default()
    }

    /// Cache statistics `(hits, misses)`, summed across all handles.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
        )
    }

    /// The arena backing the table's keys.
    pub fn interner(&self) -> &SharedInterner {
        &self.inner.interner
    }

    /// The number of cached β-entries, across all shards.
    pub fn len(&self) -> usize {
        self.inner.cache.0.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.cache.0.iter().all(|s| s.lock().is_empty())
    }

    /// The current request generation.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Advances the request generation and returns the new value.
    ///
    /// A long-lived server calls this once per admitted request; every
    /// entry stored or hit afterwards is stamped with the new generation,
    /// which is what "touched in the last N requests" means to
    /// [`SharedInternTable::collected`].
    pub fn begin_generation(&self) -> u64 {
        self.inner.generation.fetch_add(1, Ordering::Relaxed) + 1
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
    /// into the old table that lands while collection walks the shards may
    /// miss the cut — i.e. be treated as cold — which costs a future
    /// recomputation, never a wrong result.
    #[must_use = "collection returns the compacted table; the old one lives until its handles drop"]
    pub fn collected(&self, keep_last: u64) -> SharedInternTable {
        let cur = self.generation();
        let fresh = SharedInternTable::new();
        fresh.inner.generation.store(cur, Ordering::Relaxed);
        fresh
            .inner
            .hits
            .store(self.inner.hits.load(Ordering::Relaxed), Ordering::Relaxed);
        fresh
            .inner
            .misses
            .store(self.inner.misses.load(Ordering::Relaxed), Ordering::Relaxed);
        for shard in self.inner.cache.0.iter() {
            // Snapshot the shard, then intern outside its lock (canon_id
            // takes the *new* table's shard locks; never hold both).
            let entries: Vec<(BetaKey, CachedBeta)> = shard
                .lock()
                .iter()
                .filter(|(_, v)| v.stamp.saturating_add(keep_last) > cur)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            for ((f, a, fuel), v) in entries {
                let f_term = self.inner.interner.term(f);
                let a_term = self.inner.interner.term(a);
                let key = (
                    fresh.inner.interner.canon_id(&f_term),
                    fresh.inner.interner.canon_id(&a_term),
                    fuel,
                );
                fresh.inner.cache.shard(&key).lock().insert(key, v);
            }
        }
        fresh
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
        let cur = self.generation();
        let mut raw: Vec<(BetaKey, CachedBeta)> = Vec::new();
        for shard in self.inner.cache.0.iter() {
            raw.extend(
                shard
                    .lock()
                    .iter()
                    .filter(|(_, v)| v.stamp.saturating_add(keep_last) > cur)
                    .map(|(k, v)| (*k, v.clone())),
            );
        }
        raw.sort_unstable_by_key(|((f, a, fuel), _)| (f.index(), a.index(), *fuel));
        let out = raw
            .into_iter()
            .map(|((f, a, fuel), v)| {
                (
                    self.inner.interner.term(f),
                    self.inner.interner.term(a),
                    fuel,
                    v.result,
                    v.exhausted,
                    v.stamp,
                )
            })
            .collect();
        let (hits, misses) = self.stats();
        (out, hits, misses, cur)
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
        let key = (
            self.inner.interner.canon_id(f),
            self.inner.interner.canon_id(a),
            fuel,
        );
        let entry = CachedBeta {
            result: r.clone(),
            exhausted,
            stamp,
        };
        self.inner.cache.shard(&key).lock().insert(key, entry);
    }

    /// Restores snapshot counters (statistics and the generation clock).
    pub(crate) fn snap_set_counters(&self, hits: usize, misses: usize, generation: u64) {
        self.inner.hits.store(hits, Ordering::Relaxed);
        self.inner.misses.store(misses, Ordering::Relaxed);
        self.inner.generation.store(generation, Ordering::Relaxed);
    }
}

impl BetaTable for SharedInternTable {
    fn lookup(&mut self, f: &TermRef, a: &TermRef, fuel: usize) -> Option<(TermRef, bool)> {
        let key = (
            self.inner.interner.canon_id(f),
            self.inner.interner.canon_id(a),
            fuel,
        );
        let generation = self.generation();
        match self.inner.cache.shard(&key).lock().get_mut(&key) {
            Some(v) => {
                // Touch: a hit keeps the entry hot for the collector.
                v.stamp = generation;
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some((v.result.clone(), v.exhausted))
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&mut self, f: &TermRef, a: &TermRef, fuel: usize, r: &TermRef, exhausted: bool) {
        let key = (
            self.inner.interner.canon_id(f),
            self.inner.interner.canon_id(a),
            fuel,
        );
        let entry = CachedBeta {
            result: r.clone(),
            exhausted,
            stamp: self.generation(),
        };
        self.inner.cache.shard(&key).lock().insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::intern::Interner;

    #[test]
    fn canon_identifies_alpha_variants_across_threads() {
        let arena = Arc::new(SharedInterner::new());
        let t = lam("x", app(var("x"), var("free")));
        let u = lam("y", app(var("y"), var("free")));
        let v = lam("y", app(var("y"), var("other")));
        assert_eq!(arena.canon_id(&t), arena.canon_id(&u));
        assert_ne!(arena.canon_id(&t), arena.canon_id(&v));
        // Same equivalence as the owned arena.
        let mut owned = Interner::new();
        assert_eq!(
            arena.canon_id(&t) == arena.canon_id(&u),
            owned.canon_id(&t) == owned.canon_id(&u),
        );
    }

    #[test]
    fn metadata_matches_term_layer() {
        let arena = SharedInterner::new();
        for t in [
            lam("x", app(var("x"), var("y"))),
            pair(int(1), app(var("f"), int(2))),
            big_join("x", var("s"), var("x")),
            set(vec![int(1), lam("x", var("x"))]),
        ] {
            let id = arena.intern(&t);
            let meta = arena.meta(id);
            assert_eq!(meta.size, t.size());
            assert_eq!(meta.is_value, t.is_value());
            let mut fv = t.free_vars();
            fv.sort();
            assert_eq!(meta.free_vars.to_vec(), fv);
        }
    }

    #[test]
    fn ids_are_stable_across_repeat_probes() {
        let arena = SharedInterner::new();
        let t = set(vec![int(1), pair(int(2), int(3))]);
        let id1 = arena.canon_id(&t);
        let id2 = arena.canon_id(&t);
        let id3 = arena.canon_id(&set(vec![int(1), pair(int(2), int(3))]));
        assert_eq!(id1, id2);
        assert_eq!(id1, id3);
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
