//! Hash-consed term interning: O(1) equality, hashing, and set membership.
//!
//! Every hot path of the reproduction used to pay for deep term traversals:
//! the tabling hook and memo cache hashed entire `(function, argument)`
//! trees on every probe, and the fixpoint engines deduplicated streamed
//! elements by linear α-comparison. The standard remedy in tabled
//! logic-programming engines is *interning*: map every distinct term to a
//! small integer id once, and from then on equality, hashing, and set
//! membership are id comparisons.
//!
//! [`Interner`] is that arena. It has **one key space**, the canonical
//! one, so ids are α-equivalence classes: [`Interner::canon_id`] keys
//! every binder with one reserved sentinel and every bound occurrence with
//! its de Bruijn *index* (the distance to its binder), and α-equivalent
//! terms intern to the *same* `Copy` [`TermId`] (`u32`):
//!
//! ```text
//! canon_id(t) == canon_id(u)  ⟺  t.alpha_eq(&u)      (property-tested)
//! ```
//!
//! The only other way into the arena is id-native minting: evaluation
//! ([`crate::ideval`], [`crate::engine`]) builds nodes over child ids that
//! are already canonical, and snapshot replay ([`crate::snap`]) rejects
//! any other binder. Every id is therefore a valid memo/tabling key (see
//! [`InternTable`]): α-variants of one call cannot under-share. Canonical
//! binder names use the `'\u{1}'` prefix, which the surface parser cannot
//! produce, so they never collide with free variables of source programs.
//!
//! Each id carries metadata computed once, bottom-up, at minting time —
//! size, value-ness and the free-variable summary ([`TermMeta`]).
//!
//! All traversals here (canonicalisation, extraction) are worklist-based
//! and the arena's storage is flat `Vec`s of shared handles, so interning
//! a term deeper than the OS stack and dropping the arena afterwards both
//! run in O(1) native stack (regression-tested on 512 KiB threads; term
//! teardown itself is handled by [`Term`]'s iterative destructor).
//!
//! # Example
//!
//! ```
//! use lambda_join_core::builder::*;
//! use lambda_join_core::intern::Interner;
//!
//! let mut arena = Interner::new();
//! let t = lam("x", var("x"));
//! let u = lam("y", var("y"));
//! let id = arena.canon_id(&t);
//! assert_eq!(arena.canon_id(&u), id); // α-equivalent: one id
//! assert_ne!(arena.canon_id(&lam("x", var("y"))), id);
//! assert!(arena.meta(id).is_value);
//! assert!(arena.extract(id).alpha_eq(&t));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::engine::IdBetaTable;
use crate::symbol::Symbol;
use crate::term::{Prim, Term, TermRef, Var};

/// A fast FxHash-style hasher for the arena's small fixed-width keys
/// (pointers, `TermId` tuples). The std SipHash default is DoS-hardened,
/// which the probe path does not need — these maps are process-local and
/// keyed by allocation pointers / dense ids.
#[derive(Default)]
pub struct FastHasher(u64);

const FAST_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FAST_SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // Final avalanche so dense ids spread across buckets.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A fast-hashed set of [`TermId`]s — the dedup-set type of the fixpoint
/// engines (`Copy` keys, process-local, no DoS surface: the std SipHash
/// default would pay for hardening the hot membership probe cannot use).
pub type IdSet = std::collections::HashSet<TermId, BuildHasherDefault<FastHasher>>;

/// A raw allocation address used as an identity key in the pointer cache.
///
/// Every entry keyed by a `PtrKey` also retains a handle to the
/// allocation (see [`CanonEntry`]), so the address cannot be recycled by a
/// different term while the entry lives. The pointer is never
/// dereferenced — it is an identity token — which is what makes the cache
/// safe to move between threads along with the arena that owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PtrKey(*const Term);

impl PtrKey {
    pub(crate) fn of(t: &TermRef) -> Self {
        PtrKey(Arc::as_ptr(t))
    }
}

// SAFETY: `PtrKey` is an identity token; it is hashed and compared but
// never dereferenced, and the allocation it names is retained by the entry
// that carries it.
unsafe impl Send for PtrKey {}
unsafe impl Sync for PtrKey {}

/// The interned id of a term: a dense `u32` index into the arena.
///
/// `Copy`, O(1) equality and hashing. Ids from *different* arenas are
/// unrelated; keep one arena per table/engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The dense index of the id (0-based insertion order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from its raw index (snapshot decoding and sentinels).
    pub(crate) fn from_raw(raw: u32) -> TermId {
        TermId(raw)
    }

    /// The raw index of the id.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// Cached subterm metadata, computed bottom-up at interning time.
#[derive(Debug, Clone)]
pub struct TermMeta {
    /// AST node count (saturating), matching [`Term::size`].
    pub size: usize,
    /// Whether the term is a value, matching [`Term::is_value`].
    pub is_value: bool,
    /// The free variables, sorted and deduplicated (set view of
    /// [`Term::free_vars`]). Shared: closed terms all point at one empty
    /// slice.
    pub free_vars: Arc<[Var]>,
}

impl TermMeta {
    /// Whether the term is closed (no free variables).
    pub fn is_closed(&self) -> bool {
        self.free_vars.is_empty()
    }
}

/// The shallow shape of a node over already-interned children — the arena's
/// hash-consing key. One probe of `HashMap<NodeKey, TermId>` replaces a
/// full-tree hash + full-tree comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum NodeKey {
    Bot,
    Top,
    BotV,
    Var(Var),
    Sym(Symbol),
    Lam(Var, TermId),
    Frz(TermId),
    Pair(TermId, TermId),
    App(TermId, TermId),
    Join(TermId, TermId),
    Lex(TermId, TermId),
    LexMerge(TermId, TermId),
    LetSym(Symbol, TermId, TermId),
    LetPair(Var, Var, TermId, TermId),
    BigJoin(Var, TermId, TermId),
    LetFrz(Var, TermId, TermId),
    LexBind(Var, TermId, TermId),
    Set(Box<[TermId]>),
    Prim(Prim, Box<[TermId]>),
}

/// A public, borrow-light view of an arena node's shallow shape: the
/// arena-native counterpart of pattern-matching on [`Term`]. Child
/// positions hold `Copy` [`TermId`]s; binder spellings are omitted (in the
/// canonical id space every binder is the same sentinel — binding structure
/// lives in the occurrences' de Bruijn indices).
#[derive(Debug, Clone, Copy)]
pub enum TermView<'a> {
    /// `⊥`.
    Bot,
    /// `⊤`.
    Top,
    /// `⊥v`.
    BotV,
    /// A free variable (canonical bound occurrences are spelled as de
    /// Bruijn indices with a reserved prefix and never escape evaluation).
    Var(&'a Var),
    /// A symbol literal.
    Sym(&'a Symbol),
    /// `λ. body`.
    Lam(TermId),
    /// `frz e`.
    Frz(TermId),
    /// `(a, b)`.
    Pair(TermId, TermId),
    /// `f a`.
    App(TermId, TermId),
    /// `a ∨ b`.
    Join(TermId, TermId),
    /// `⟨a, b⟩`.
    Lex(TermId, TermId),
    /// The administrative version-merge frame.
    LexMerge(TermId, TermId),
    /// `let s = e in body`.
    LetSym(&'a Symbol, TermId, TermId),
    /// `let (x1, x2) = e in body`.
    LetPair(TermId, TermId),
    /// `⋁_{x ∈ e} body`.
    BigJoin(TermId, TermId),
    /// `let frz x = e in body`.
    LetFrz(TermId, TermId),
    /// `x ← e; body`.
    LexBind(TermId, TermId),
    /// `{e1, …, en}`.
    Set(&'a [TermId]),
    /// A saturated primitive application.
    Prim(Prim, &'a [TermId]),
}

/// One canonical pointer-cache entry: the id minted for this allocation
/// and the retained handle (which pins the allocation so the pointer key
/// can never be recycled).
///
/// The fused canonical key space uses de Bruijn *indices* (binder
/// distance), so a **closed** subtree keys identically under any ambient
/// binder environment and its entry is reusable everywhere. An *open*
/// subtree's keys depend on the environment (free occurrences may be
/// captured and renamed), so open entries — which only roots mint — are
/// reusable only where the environment is empty.
#[derive(Debug, Clone)]
struct CanonEntry {
    id: TermId,
    _retained: TermRef,
}

// Compile-time assertion: the owned arena (and the tables and engines
// built on it) can move between worker threads — `PtrKey` carries the
// `Send` obligation for the pointer cache.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<Interner>();
    require_send::<InternTable>();
};

/// The hash-cons index: an open-addressing table mapping node-key hashes
/// to ids, with the keys themselves stored **once** in the arena's `keys`
/// vector. The id engine probes this on every node it mints (substitution
/// rebuilds, set collection, joins), so the table is purpose-built for
/// that path: one hash per operation, no key clone on insert (a std map
/// would store a second copy of every `NodeKey`), linear probing over a
/// flat `(hash, id)` slot vector, and the arena's fast hasher throughout
/// (keys are process-local — SipHash's DoS hardening buys nothing).
#[derive(Debug, Clone, Default)]
struct NodeIndex {
    /// `(hash, id + 1)` slots; 0 in the second field marks an empty slot.
    slots: Vec<(u64, u32)>,
    /// Occupied slot count.
    len: usize,
}

impl NodeIndex {
    /// Looks up the id whose stored hash matches and whose key satisfies
    /// `eq` (called only on hash-equal candidates).
    fn find(&self, hash: u64, mut eq: impl FnMut(TermId) -> bool) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, tag) = self.slots[i];
            if tag == 0 {
                return None;
            }
            if h == hash {
                let id = TermId(tag - 1);
                if eq(id) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `hash → id` (the caller has already checked absence).
    fn insert(&mut self, hash: u64, id: TermId) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id.0 + 1);
        self.len += 1;
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); new_cap]);
        let mask = new_cap - 1;
        for (h, tag) in old {
            if tag != 0 {
                let mut i = (h as usize) & mask;
                while self.slots[i].1 != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (h, tag);
            }
        }
    }
}

/// The fast structural hash of a node key (one [`FastHasher`] pass).
fn hash_node_key(key: &NodeKey) -> u64 {
    use std::hash::BuildHasher;
    BuildHasherDefault::<FastHasher>::default().hash_one(key)
}

/// A hash-consing arena for λ∨ terms. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Shallow node shape → id (see [`NodeIndex`]).
    nodes: NodeIndex,
    /// Per-id shallow node shape (the inverse of `nodes`): this is what
    /// makes the arena *evaluable in place* — the id-native toolkit
    /// ([`crate::ideval`]) and the id frame machine ([`crate::engine`])
    /// pattern-match on these keys instead of walking trees.
    keys: Vec<NodeKey>,
    /// Per-id representative term, **lazy**: ids minted by
    /// [`Interner::canon_id`] record the tree they came from (one member
    /// of the id's α-class); ids minted by id-native evaluation
    /// (substitution results, joins, delta reducts) record `None` until a
    /// tree keys to them or [`Interner::extract`] materialises one. This
    /// is what lets the hot paths allocate arena nodes only, tree nodes
    /// never.
    terms: Vec<Option<TermRef>>,
    /// Per-id cached metadata.
    metas: Vec<TermMeta>,
    /// Cached ids of the shared result leaves (`⊥`, `⊤`, `⊥v`), minted on
    /// first use: the id engine returns these on every stuck or exhausted
    /// path, and a field read beats a map probe.
    leaf_bot: Option<TermId>,
    leaf_top: Option<TermId>,
    leaf_botv: Option<TermId>,
    /// Allocation-pointer → id cache for [`Interner::canon_id`]. Each
    /// entry retains its allocation, so a key pointer can never be reused
    /// by a different term while the entry lives; see [`CanonEntry`] for
    /// the reuse rule.
    ptr_cache: FastMap<PtrKey, CanonEntry>,
    /// Canonical binder names by de Bruijn level, allocated once.
    canon_names: Vec<Var>,
    /// The shared empty free-variable slice.
    no_vars: Arc<[Var]>,
}

impl Interner {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Interner::default()
    }

    /// The number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The number of canonical pointer-cache entries. Each pins the tree
    /// it was probed with, so this grows with every distinct allocation
    /// canonicalised, even when [`len`](Interner::len) does not.
    pub fn canon_ptr_len(&self) -> usize {
        self.ptr_cache.len()
    }

    /// The cached metadata of an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn meta(&self, id: TermId) -> &TermMeta {
        &self.metas[id.index()]
    }

    /// The shallow shape of an id's node, over child *ids*: the arena-native
    /// replacement for pattern-matching on [`Term`]. O(1), no tree access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn view(&self, id: TermId) -> TermView<'_> {
        match &self.keys[id.index()] {
            NodeKey::Bot => TermView::Bot,
            NodeKey::Top => TermView::Top,
            NodeKey::BotV => TermView::BotV,
            NodeKey::Var(x) => TermView::Var(x),
            NodeKey::Sym(s) => TermView::Sym(s),
            NodeKey::Lam(_, b) => TermView::Lam(*b),
            NodeKey::Frz(e) => TermView::Frz(*e),
            NodeKey::Pair(a, b) => TermView::Pair(*a, *b),
            NodeKey::App(a, b) => TermView::App(*a, *b),
            NodeKey::Join(a, b) => TermView::Join(*a, *b),
            NodeKey::Lex(a, b) => TermView::Lex(*a, *b),
            NodeKey::LexMerge(a, b) => TermView::LexMerge(*a, *b),
            NodeKey::LetSym(s, a, b) => TermView::LetSym(s, *a, *b),
            NodeKey::LetPair(_, _, a, b) => TermView::LetPair(*a, *b),
            NodeKey::BigJoin(_, a, b) => TermView::BigJoin(*a, *b),
            NodeKey::LetFrz(_, a, b) => TermView::LetFrz(*a, *b),
            NodeKey::LexBind(_, a, b) => TermView::LexBind(*a, *b),
            NodeKey::Set(ids) => TermView::Set(ids),
            NodeKey::Prim(op, ids) => TermView::Prim(*op, ids),
        }
    }

    /// The raw node key of an id (crate-internal: the id toolkit and the
    /// frame machine need binder spellings, not just child ids).
    pub(crate) fn key(&self, id: TermId) -> &NodeKey {
        &self.keys[id.index()]
    }

    /// The id at a dense index, for re-materialising persisted ids (ids
    /// are stable across [`crate::snap`] save/load, so a stored
    /// `TermId::index` round-trips through here).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn id_at(&self, index: usize) -> TermId {
        assert!(index < self.keys.len(), "id index out of range");
        TermId::from_raw(index as u32)
    }

    /// The cached id of `⊥`, minted on first use.
    pub fn bot_id(&mut self) -> TermId {
        if let Some(id) = self.leaf_bot {
            return id;
        }
        let id = self.intern_node(NodeKey::Bot);
        self.leaf_bot = Some(id);
        id
    }

    /// The cached id of `⊤`, minted on first use.
    pub fn top_id(&mut self) -> TermId {
        if let Some(id) = self.leaf_top {
            return id;
        }
        let id = self.intern_node(NodeKey::Top);
        self.leaf_top = Some(id);
        id
    }

    /// The cached id of `⊥v`, minted on first use.
    pub fn botv_id(&mut self) -> TermId {
        if let Some(id) = self.leaf_botv {
            return id;
        }
        let id = self.intern_node(NodeKey::BotV);
        self.leaf_botv = Some(id);
        id
    }

    /// Hash-conses a node over already-interned children. The node gets no
    /// representative tree — a tree is materialised only if
    /// [`Interner::extract`] ever reaches it.
    pub(crate) fn intern_node(&mut self, key: NodeKey) -> TermId {
        let hash = hash_node_key(&key);
        let (nodes, keys) = (&self.nodes, &self.keys);
        match nodes.find(hash, |id| keys[id.index()] == key) {
            Some(id) => id,
            None => self.insert_node(hash, key, None),
        }
    }

    /// Encodes the node key of `id` for a snapshot (see [`crate::snap`]):
    /// one variant tag byte, then binder strings, symbols, and varint child
    /// ids. Lives here because `NodeKey` is crate-private.
    pub(crate) fn snap_encode_key(&self, id: TermId, buf: &mut Vec<u8>) {
        use crate::snap::{put_str, put_v32, put_v64, put_zig};
        fn sym(buf: &mut Vec<u8>, s: &Symbol) {
            match s {
                Symbol::Name(n) => {
                    buf.push(0);
                    put_str(buf, n);
                }
                Symbol::Str(n) => {
                    buf.push(1);
                    put_str(buf, n);
                }
                Symbol::Int(i) => {
                    buf.push(2);
                    put_zig(buf, *i);
                }
                Symbol::Level(l) => {
                    buf.push(3);
                    put_v64(buf, *l);
                }
            }
        }
        let two = |buf: &mut Vec<u8>, a: TermId, b: TermId| {
            put_v32(buf, a.raw());
            put_v32(buf, b.raw());
        };
        match &self.keys[id.index()] {
            NodeKey::Bot => buf.push(0),
            NodeKey::Top => buf.push(1),
            NodeKey::BotV => buf.push(2),
            NodeKey::Var(v) => {
                buf.push(3);
                put_str(buf, v);
            }
            NodeKey::Sym(s) => {
                buf.push(4);
                sym(buf, s);
            }
            NodeKey::Lam(v, b) => {
                buf.push(5);
                put_str(buf, v);
                put_v32(buf, b.raw());
            }
            NodeKey::Frz(a) => {
                buf.push(6);
                put_v32(buf, a.raw());
            }
            NodeKey::Pair(a, b) => {
                buf.push(7);
                two(buf, *a, *b);
            }
            NodeKey::App(a, b) => {
                buf.push(8);
                two(buf, *a, *b);
            }
            NodeKey::Join(a, b) => {
                buf.push(9);
                two(buf, *a, *b);
            }
            NodeKey::Lex(a, b) => {
                buf.push(10);
                two(buf, *a, *b);
            }
            NodeKey::LexMerge(a, b) => {
                buf.push(11);
                two(buf, *a, *b);
            }
            NodeKey::LetSym(s, a, b) => {
                buf.push(12);
                sym(buf, s);
                two(buf, *a, *b);
            }
            NodeKey::LetPair(x, y, a, b) => {
                buf.push(13);
                put_str(buf, x);
                put_str(buf, y);
                two(buf, *a, *b);
            }
            NodeKey::BigJoin(v, a, b) => {
                buf.push(14);
                put_str(buf, v);
                two(buf, *a, *b);
            }
            NodeKey::LetFrz(v, a, b) => {
                buf.push(15);
                put_str(buf, v);
                two(buf, *a, *b);
            }
            NodeKey::LexBind(v, a, b) => {
                buf.push(16);
                put_str(buf, v);
                two(buf, *a, *b);
            }
            NodeKey::Set(ids) => {
                buf.push(17);
                put_v64(buf, ids.len() as u64);
                for i in ids.iter() {
                    put_v32(buf, i.raw());
                }
            }
            NodeKey::Prim(op, ids) => {
                buf.push(18);
                buf.push(match op {
                    Prim::Add => 0,
                    Prim::Sub => 1,
                    Prim::Mul => 2,
                    Prim::Le => 3,
                    Prim::Lt => 4,
                    Prim::Eq => 5,
                    Prim::Member => 6,
                    Prim::Diff => 7,
                    Prim::SetSize => 8,
                });
                put_v64(buf, ids.len() as u64);
                for i in ids.iter() {
                    put_v32(buf, i.raw());
                }
            }
        }
    }

    /// Decodes one snapshot node key and replays it through
    /// [`Interner::intern_node`], re-deriving metadata and the hash-cons
    /// index entry. Child ids must already exist (keys are saved in id
    /// order, children first) and the replayed node must mint the next
    /// dense id — a corrupt duplicate key would otherwise dedup to an
    /// existing id and silently shift every later id. Every binder must be
    /// the canonical sentinel: the arena has one key space, and a named
    /// binder would mint an id no canonical probe can reach.
    pub(crate) fn snap_decode_push(
        &mut self,
        cur: &mut crate::snap::Cur<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        let len = self.keys.len();
        let key = snap_decode_key(cur, len)?;
        let canonical = match &key {
            NodeKey::Lam(x, _)
            | NodeKey::BigJoin(x, ..)
            | NodeKey::LetFrz(x, ..)
            | NodeKey::LexBind(x, ..) => is_canon_binder(x),
            NodeKey::LetPair(x1, x2, ..) => is_canon_binder(x1) && is_canon_binder(x2),
            _ => true,
        };
        if !canonical {
            return Err(SnapError::Malformed("non-canonical binder"));
        }
        let got = self.intern_node(key);
        if got.index() != len {
            return Err(SnapError::Malformed("duplicate node key"));
        }
        Ok(())
    }

    /// Interns the canonical form of a term: the id is the same for all
    /// α-equivalent terms. **This is the id to key memo/tabling caches
    /// and fixpoint accumulators on.** Amortised O(1) per repeated handle.
    ///
    /// Decides α-equivalence (property-tested against
    /// [`Term::alpha_eq`]) in one id-producing pass over a *de Bruijn-index*
    /// key space: no canonical tree is materialised, bound occurrences are
    /// keyed by binder *distance* (so closed subtrees key identically at
    /// any ambient depth), and already canonicalised closed subtrees
    /// short-circuit by pointer.
    pub fn canon_id(&mut self, t: &TermRef) -> TermId {
        if let Some(e) = self.ptr_cache.get(&PtrKey::of(t)) {
            // Root probes run with an empty ambient environment: root
            // entries were minted the same way, and interior-minted
            // entries are closed (environment-independent).
            return e.id;
        }
        let id = self.canon_intern(t);
        self.ptr_cache.insert(
            PtrKey::of(t),
            CanonEntry {
                id,
                _retained: t.clone(),
            },
        );
        id
    }

    /// The single-pass worker behind [`Interner::canon_id`]: walks the term
    /// with a binder environment, mapping every node directly to the id of
    /// its canonical form. Binders are keyed with the reserved `'\u{1}'`
    /// sentinel name and bound occurrences with their de Bruijn *index*
    /// (distance to the binder), so the key of a closed subtree does not
    /// depend on the ambient binder depth.
    fn canon_intern(&mut self, root: &TermRef) -> TermId {
        enum Job<'a> {
            Visit(&'a TermRef),
            Bind(&'a Var),
            Unbind(usize),
            /// Key `node` from the last `n` ids on the stack.
            Build(&'a TermRef, usize),
        }
        // Original binder names by level; canonical names are positional.
        let mut bound: Vec<&Var> = Vec::new();
        let mut jobs: Vec<Job<'_>> = vec![Job::Visit(root)];
        let mut ids: Vec<TermId> = Vec::new();
        while let Some(job) = jobs.pop() {
            match job {
                Job::Bind(x) => bound.push(x),
                Job::Unbind(n) => {
                    let keep = bound.len() - n;
                    bound.truncate(keep);
                }
                Job::Visit(t) => {
                    // A cached entry is reusable when the subtree's keys
                    // cannot depend on the ambient environment: closed
                    // subtrees (indices are internal, free names absent)
                    // at any depth, and anything when the environment is
                    // empty (the minting context). See [`CanonEntry`].
                    if let Some(e) = self.ptr_cache.get(&PtrKey::of(t)) {
                        let id = e.id;
                        if bound.is_empty() || self.metas[id.index()].is_closed() {
                            ids.push(id);
                            continue;
                        }
                    }
                    match &**t {
                        Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => {
                            ids.push(self.intern_leaf(t));
                        }
                        Term::Var(x) => {
                            let key = match bound.iter().rposition(|b| *b == x) {
                                // De Bruijn index: distance to the binder.
                                Some(pos) => NodeKey::Var(self.canon_name(bound.len() - 1 - pos)),
                                None => NodeKey::Var(x.clone()),
                            };
                            ids.push(self.intern_key(key, t));
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
                    let t_ptr = PtrKey::of(t);
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
                    let id = self.intern_key(key, t);
                    // Pointer-cache *large closed* interior nodes:
                    // substitution shares untouched subtrees across
                    // β-unfoldings, so a rebuilt term re-probes in
                    // O(changed spine). Closed subtrees key identically at
                    // any ambient depth (indices are internal), so the
                    // entry is reusable everywhere. Interior entries alias
                    // subtrees the retained root keeps alive anyway, so
                    // each costs one map entry, and the size threshold
                    // keeps leaf-heavy churn out of the map.
                    let meta = &self.metas[id.index()];
                    if meta.size >= CANON_PTR_CACHE_MIN_SIZE && meta.is_closed() {
                        self.ptr_cache.insert(
                            t_ptr,
                            CanonEntry {
                                id,
                                _retained: t.clone(),
                            },
                        );
                    }
                    ids.push(id);
                }
            }
        }
        debug_assert_eq!(ids.len(), 1);
        ids.pop().expect("canonical interning produced no id")
    }

    /// The cached canonical binder name for a de Bruijn level.
    fn canon_name(&mut self, level: usize) -> Var {
        while self.canon_names.len() <= level {
            self.canon_names
                .push(canonical_name(self.canon_names.len()));
        }
        self.canon_names[level].clone()
    }

    /// Interns a leaf term (no children, no binders).
    fn intern_leaf(&mut self, t: &TermRef) -> TermId {
        let key = match &**t {
            Term::Bot => NodeKey::Bot,
            Term::Top => NodeKey::Top,
            Term::BotV => NodeKey::BotV,
            Term::Sym(s) => NodeKey::Sym(s.clone()),
            _ => unreachable!("only childless, non-variable terms are leaves"),
        };
        self.intern_key(key, t)
    }

    /// Interns a canonical node key, with `t` as
    /// the α-equivalent representative if the node has none yet. Nodes
    /// minted without a tree (id-native evaluation, snapshot replay) adopt
    /// the first tree that keys to them, so a program re-interned into a
    /// restored arena extracts with its own binder names, exactly as it
    /// does in a fresh one.
    fn intern_key(&mut self, key: NodeKey, t: &TermRef) -> TermId {
        let hash = hash_node_key(&key);
        let (nodes, keys) = (&self.nodes, &self.keys);
        match nodes.find(hash, |id| keys[id.index()] == key) {
            Some(id) => {
                let rep = &mut self.terms[id.index()];
                if rep.is_none() {
                    *rep = Some(t.clone());
                }
                id
            }
            None => self.insert_node(hash, key, Some(t)),
        }
    }

    /// Materialises a named tree for an id — the tree↔id boundary in the
    /// outbound direction. The result is α-equivalent to the interned node:
    /// ids minted from trees return the recorded representative; ids minted
    /// by id-native evaluation rebuild a tree from the node keys, renaming
    /// sentinel binders to fresh canonical level names and de Bruijn-index
    /// occurrences to the matching binder name.
    ///
    /// Rebuilt **closed** subtrees are memoised per id (binder names inside
    /// a closed subtree are self-contained, so the cached tree splices
    /// correctly under any ambient binder depth): extracting the same
    /// fixpoint accumulator round after round costs one handle clone per
    /// already-extracted element. Iterative; safe on 512 KiB threads.
    pub fn extract(&mut self, id: TermId) -> TermRef {
        if let (true, Some(t)) = (self.metas[id.index()].is_closed(), &self.terms[id.index()]) {
            return t.clone();
        }
        enum Job {
            Visit(TermId),
            Bind(usize),
            Unbind(usize),
            /// Rebuild `id`'s node from the last `n` results.
            Build(TermId, usize),
        }
        let mut depth: usize = 0;
        let mut jobs: Vec<Job> = vec![Job::Visit(id)];
        let mut results: Vec<TermRef> = Vec::new();
        while let Some(job) = jobs.pop() {
            match job {
                Job::Bind(n) => depth += n,
                Job::Unbind(n) => depth -= n,
                Job::Visit(id) => {
                    if let (true, Some(t)) =
                        (self.metas[id.index()].is_closed(), &self.terms[id.index()])
                    {
                        results.push(t.clone());
                        continue;
                    }
                    match &self.keys[id.index()] {
                        NodeKey::Bot => results.push(crate::builder::bot()),
                        NodeKey::Top => results.push(crate::builder::top()),
                        NodeKey::BotV => results.push(crate::builder::botv()),
                        NodeKey::Sym(s) => results.push(Arc::new(Term::Sym(s.clone()))),
                        NodeKey::Var(x) => {
                            // A bound occurrence names the binder that is
                            // `index` levels up, i.e. the one introduced at
                            // level `depth - 1 - index`.
                            let name = match canon_index(x) {
                                Some(i) if i < depth => canonical_name(depth - 1 - i),
                                _ => x.clone(),
                            };
                            results.push(Arc::new(Term::Var(name)));
                        }
                        NodeKey::Lam(_, b) | NodeKey::Frz(b) => {
                            let binds =
                                usize::from(matches!(&self.keys[id.index()], NodeKey::Lam(..)));
                            let b = *b;
                            jobs.push(Job::Build(id, 1));
                            jobs.push(Job::Unbind(binds));
                            jobs.push(Job::Visit(b));
                            jobs.push(Job::Bind(binds));
                        }
                        NodeKey::Pair(a, b)
                        | NodeKey::App(a, b)
                        | NodeKey::Join(a, b)
                        | NodeKey::Lex(a, b)
                        | NodeKey::LexMerge(a, b)
                        | NodeKey::LetSym(_, a, b) => {
                            let (a, b) = (*a, *b);
                            jobs.push(Job::Build(id, 2));
                            jobs.push(Job::Visit(b));
                            jobs.push(Job::Visit(a));
                        }
                        NodeKey::LetPair(_, _, e, body) => {
                            let (e, body) = (*e, *body);
                            jobs.push(Job::Build(id, 2));
                            jobs.push(Job::Unbind(2));
                            jobs.push(Job::Visit(body));
                            jobs.push(Job::Bind(2));
                            jobs.push(Job::Visit(e));
                        }
                        NodeKey::BigJoin(_, e, body)
                        | NodeKey::LetFrz(_, e, body)
                        | NodeKey::LexBind(_, e, body) => {
                            let (e, body) = (*e, *body);
                            jobs.push(Job::Build(id, 2));
                            jobs.push(Job::Unbind(1));
                            jobs.push(Job::Visit(body));
                            jobs.push(Job::Bind(1));
                            jobs.push(Job::Visit(e));
                        }
                        NodeKey::Set(ids) | NodeKey::Prim(_, ids) => {
                            let n = ids.len();
                            let ids: Vec<TermId> = ids.to_vec();
                            jobs.push(Job::Build(id, n));
                            jobs.extend(ids.into_iter().rev().map(Job::Visit));
                        }
                    }
                }
                Job::Build(id, n) => {
                    let mut children = results.split_off(results.len() - n);
                    // Sentinel binders are named after their level.
                    let binder = |offset: usize| canonical_name(depth + offset);
                    let built: TermRef = match &self.keys[id.index()] {
                        NodeKey::Lam(..) => {
                            let b = children.pop().expect("extract lost a body");
                            Arc::new(Term::Lam(binder(0), b))
                        }
                        NodeKey::Frz(_) => {
                            Arc::new(Term::Frz(children.pop().expect("extract lost a payload")))
                        }
                        NodeKey::Pair(..)
                        | NodeKey::App(..)
                        | NodeKey::Join(..)
                        | NodeKey::Lex(..)
                        | NodeKey::LexMerge(..)
                        | NodeKey::LetSym(..) => {
                            let b = children.pop().expect("extract lost a child");
                            let a = children.pop().expect("extract lost a child");
                            Arc::new(match &self.keys[id.index()] {
                                NodeKey::Pair(..) => Term::Pair(a, b),
                                NodeKey::App(..) => Term::App(a, b),
                                NodeKey::Join(..) => Term::Join(a, b),
                                NodeKey::Lex(..) => Term::Lex(a, b),
                                NodeKey::LexMerge(..) => Term::LexMerge(a, b),
                                NodeKey::LetSym(s, ..) => Term::LetSym(s.clone(), a, b),
                                _ => unreachable!(),
                            })
                        }
                        NodeKey::LetPair(..) => {
                            let body = children.pop().expect("extract lost a body");
                            let e = children.pop().expect("extract lost a scrutinee");
                            Arc::new(Term::LetPair(binder(0), binder(1), e, body))
                        }
                        NodeKey::BigJoin(..) | NodeKey::LetFrz(..) | NodeKey::LexBind(..) => {
                            let body = children.pop().expect("extract lost a body");
                            let e = children.pop().expect("extract lost a scrutinee");
                            let x = binder(0);
                            Arc::new(match &self.keys[id.index()] {
                                NodeKey::BigJoin(..) => Term::BigJoin(x, e, body),
                                NodeKey::LetFrz(..) => Term::LetFrz(x, e, body),
                                _ => Term::LexBind(x, e, body),
                            })
                        }
                        NodeKey::Set(_) => Arc::new(Term::Set(children)),
                        NodeKey::Prim(op, _) => Arc::new(Term::Prim(*op, children)),
                        NodeKey::Bot
                        | NodeKey::Top
                        | NodeKey::BotV
                        | NodeKey::Var(_)
                        | NodeKey::Sym(_) => unreachable!("leaves are built in place"),
                    };
                    // Memoise closed rebuilds: their binder names are
                    // self-contained, so the tree is reusable at any depth.
                    let slot = id.index();
                    if self.metas[slot].is_closed() && self.terms[slot].is_none() {
                        self.terms[slot] = Some(built.clone());
                    }
                    results.push(built);
                }
            }
        }
        debug_assert_eq!(results.len(), 1);
        results.pop().expect("extraction produced no result")
    }
}

/// The spelling of de Bruijn index `depth` in the canonical key space,
/// doubling as the name [`Interner::extract`] gives the binder introduced
/// with `depth` binders already in scope. The `'\u{1}'` prefix is not
/// producible by the surface parser, so canonical names never collide
/// with source-program variables.
fn canonical_name(depth: usize) -> Var {
    // Per-thread cache: the free-variable shift in `compute_meta_from`
    // spells an index per shifted occurrence on every fresh node insert,
    // and allocating a string each time would reintroduce the traffic the
    // owned arena's `canon_names` cache exists to remove. Names from
    // different threads are distinct allocations but compare (and hash)
    // equal as strings, which is all the node keys need.
    use std::cell::RefCell;
    thread_local! {
        static CACHE: RefCell<Vec<Var>> = const { RefCell::new(Vec::new()) };
    }
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        while c.len() <= depth {
            let next: Var = Arc::from(format!("\u{1}{}", c.len()).as_str());
            c.push(next);
        }
        c[depth].clone()
    })
}

/// The reserved sentinel binder name of the fused de Bruijn-index key
/// space: every binder keys identically (occurrences carry the binding
/// structure as indices). Distinct from every [`canonical_name`] (which
/// always appends digits). Process-wide so all arenas alias one
/// allocation.
static CANON_BINDER: std::sync::LazyLock<Var> = std::sync::LazyLock::new(|| Arc::from("\u{1}"));

/// The shared sentinel binder name (see [`CANON_BINDER`]).
pub(crate) fn canon_binder() -> Var {
    CANON_BINDER.clone()
}

/// Whether a binder name is the key space's sentinel (snapshot replay
/// admits no other).
fn is_canon_binder(x: &Var) -> bool {
    &**x == "\u{1}"
}

/// The de Bruijn index spelled by a canonical occurrence name, if it is
/// one.
pub(crate) fn canon_index(x: &Var) -> Option<usize> {
    x.strip_prefix('\u{1}').and_then(|d| d.parse().ok())
}

/// Decodes one snapshot node key written by [`Interner::snap_encode_key`];
/// its child ids must be below `len`. Lives here because `NodeKey` is
/// crate-private.
pub(crate) fn snap_decode_key(
    cur: &mut crate::snap::Cur<'_>,
    len: usize,
) -> Result<NodeKey, crate::snap::SnapError> {
    use crate::snap::{Cur, SnapError};
    let child = |cur: &mut Cur<'_>| -> Result<TermId, SnapError> {
        let raw = cur.v32()?;
        if (raw as usize) < len {
            Ok(TermId::from_raw(raw))
        } else {
            Err(SnapError::Malformed("child id out of range"))
        }
    };
    fn sym(cur: &mut Cur<'_>) -> Result<Symbol, SnapError> {
        Ok(match cur.u8()? {
            0 => Symbol::Name(Arc::from(cur.str_()?)),
            1 => Symbol::Str(Arc::from(cur.str_()?)),
            2 => Symbol::Int(cur.zig()?),
            3 => Symbol::Level(cur.v64()?),
            _ => return Err(SnapError::Malformed("unknown symbol variant")),
        })
    }
    fn binder(cur: &mut Cur<'_>) -> Result<Var, SnapError> {
        Ok(Arc::from(cur.str_()?))
    }
    Ok(match cur.u8()? {
        0 => NodeKey::Bot,
        1 => NodeKey::Top,
        2 => NodeKey::BotV,
        3 => NodeKey::Var(binder(cur)?),
        4 => NodeKey::Sym(sym(cur)?),
        5 => NodeKey::Lam(binder(cur)?, child(cur)?),
        6 => NodeKey::Frz(child(cur)?),
        7 => NodeKey::Pair(child(cur)?, child(cur)?),
        8 => NodeKey::App(child(cur)?, child(cur)?),
        9 => NodeKey::Join(child(cur)?, child(cur)?),
        10 => NodeKey::Lex(child(cur)?, child(cur)?),
        11 => NodeKey::LexMerge(child(cur)?, child(cur)?),
        12 => NodeKey::LetSym(sym(cur)?, child(cur)?, child(cur)?),
        13 => NodeKey::LetPair(binder(cur)?, binder(cur)?, child(cur)?, child(cur)?),
        14 => NodeKey::BigJoin(binder(cur)?, child(cur)?, child(cur)?),
        15 => NodeKey::LetFrz(binder(cur)?, child(cur)?, child(cur)?),
        16 => NodeKey::LexBind(binder(cur)?, child(cur)?, child(cur)?),
        17 => {
            let n = cur.count(1)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(child(cur)?);
            }
            NodeKey::Set(ids.into_boxed_slice())
        }
        18 => {
            let op = match cur.u8()? {
                0 => Prim::Add,
                1 => Prim::Sub,
                2 => Prim::Mul,
                3 => Prim::Le,
                4 => Prim::Lt,
                5 => Prim::Eq,
                6 => Prim::Member,
                7 => Prim::Diff,
                8 => Prim::SetSize,
                _ => return Err(SnapError::Malformed("unknown prim")),
            };
            let n = cur.count(1)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(child(cur)?);
            }
            NodeKey::Prim(op, ids.into_boxed_slice())
        }
        _ => return Err(SnapError::Malformed("unknown node variant")),
    })
}

/// The tree of a *structural* node key — one with named binders and
/// named bound occurrences, as legacy shared-memo checkpoints stored
/// them — over its children's trees, indexed by id. Such keys are never
/// interned: the legacy reader ([`crate::snap::shared_from_bytes`]) builds
/// their trees and canonicalises those.
pub(crate) fn structural_tree(key: NodeKey, trees: &[TermRef]) -> TermRef {
    let t = |id: TermId| trees[id.index()].clone();
    let all = |ids: &[TermId]| ids.iter().map(|&id| t(id)).collect();
    Arc::new(match key {
        NodeKey::Bot => Term::Bot,
        NodeKey::Top => Term::Top,
        NodeKey::BotV => Term::BotV,
        NodeKey::Var(x) => Term::Var(x),
        NodeKey::Sym(s) => Term::Sym(s),
        NodeKey::Lam(x, b) => Term::Lam(x, t(b)),
        NodeKey::Frz(e) => Term::Frz(t(e)),
        NodeKey::Pair(a, b) => Term::Pair(t(a), t(b)),
        NodeKey::App(a, b) => Term::App(t(a), t(b)),
        NodeKey::Join(a, b) => Term::Join(t(a), t(b)),
        NodeKey::Lex(a, b) => Term::Lex(t(a), t(b)),
        NodeKey::LexMerge(a, b) => Term::LexMerge(t(a), t(b)),
        NodeKey::LetSym(s, a, b) => Term::LetSym(s, t(a), t(b)),
        NodeKey::LetPair(x1, x2, e, b) => Term::LetPair(x1, x2, t(e), t(b)),
        NodeKey::BigJoin(x, e, b) => Term::BigJoin(x, t(e), t(b)),
        NodeKey::LetFrz(x, e, b) => Term::LetFrz(x, t(e), t(b)),
        NodeKey::LexBind(x, e, b) => Term::LexBind(x, t(e), t(b)),
        NodeKey::Set(ids) => Term::Set(all(&ids)),
        NodeKey::Prim(op, ids) => Term::Prim(op, all(&ids)),
    })
}

/// Minimum cached size for closed interior nodes in the canonical pointer
/// cache (see [`Interner::canon_intern`]). Small nodes re-key cheaply;
/// caching them would cost more memory than the probes they save.
const CANON_PTR_CACHE_MIN_SIZE: usize = 16;

impl Interner {
    /// Allocates a fresh id for a new node key, computing the cached
    /// metadata bottom-up from the children recorded in the key. The
    /// representative tree is optional: id-native evaluation mints nodes
    /// with `None` and a tree exists only if extraction ever needs one.
    ///
    /// This is the allocation site of every arena node the id engine
    /// mints, so the ≤ 2-children common case gathers child metadata on
    /// the stack and the key is stored exactly once (moved into `keys`;
    /// the hash-cons index holds only `(hash, id)`).
    fn insert_node(&mut self, hash: u64, key: NodeKey, rep: Option<&TermRef>) -> TermId {
        let m = |id: &TermId| &self.metas[id.index()];
        let meta = match &key {
            NodeKey::Bot | NodeKey::Top | NodeKey::BotV | NodeKey::Var(_) | NodeKey::Sym(_) => {
                compute_meta_from(&key, &[], &self.no_vars)
            }
            NodeKey::Lam(_, b) | NodeKey::Frz(b) => compute_meta_from(&key, &[m(b)], &self.no_vars),
            NodeKey::Pair(a, b)
            | NodeKey::App(a, b)
            | NodeKey::Join(a, b)
            | NodeKey::Lex(a, b)
            | NodeKey::LexMerge(a, b)
            | NodeKey::LetSym(_, a, b)
            | NodeKey::LetPair(_, _, a, b)
            | NodeKey::BigJoin(_, a, b)
            | NodeKey::LetFrz(_, a, b)
            | NodeKey::LexBind(_, a, b) => compute_meta_from(&key, &[m(a), m(b)], &self.no_vars),
            NodeKey::Set(ids) | NodeKey::Prim(_, ids) => {
                let children: Vec<&TermMeta> = ids.iter().map(m).collect();
                compute_meta_from(&key, &children, &self.no_vars)
            }
        };
        let id = TermId(u32::try_from(self.terms.len()).expect("interner full: > u32::MAX nodes"));
        self.terms.push(rep.cloned());
        self.metas.push(meta);
        self.keys.push(key);
        self.nodes.insert(hash, id);
        id
    }
}

/// Computes a node's metadata from its children's metadata (in
/// [`Term::children`] order).
fn compute_meta_from(key: &NodeKey, children: &[&TermMeta], no_vars: &Arc<[Var]>) -> TermMeta {
    let size = 1 + children
        .iter()
        .fold(0usize, |n, m| n.saturating_add(m.size));
    let is_value = match key {
        NodeKey::Var(_) | NodeKey::BotV | NodeKey::Sym(_) | NodeKey::Lam(..) => true,
        NodeKey::Pair(..) | NodeKey::Lex(..) | NodeKey::Frz(_) | NodeKey::Set(_) => {
            children.iter().all(|m| m.is_value)
        }
        _ => false,
    };
    let free_vars = compute_free_vars(key, children, no_vars);
    TermMeta {
        size,
        is_value,
        free_vars,
    }
}

/// De Bruijn-shifts a free-variable summary through `k` sentinel binders:
/// indexed occurrences below `k` are bound here and dropped, deeper ones
/// shift down by `k`, named (free) variables pass through.
fn shift_indices(fv: &[Var], k: usize) -> Vec<Var> {
    let mut out: Vec<Var> = Vec::with_capacity(fv.len());
    for x in fv {
        match canon_index(x) {
            Some(i) if i < k => {}
            Some(i) => out.push(canonical_name(i - k)),
            None => out.push(x.clone()),
        }
    }
    out.sort_unstable();
    out
}

/// The free variables of a node, from its children's summaries:
/// sorted-merge of child sets, with each binder's body shifted past it
/// (binders are sentinels; bound occurrences are de Bruijn indices).
fn compute_free_vars(key: &NodeKey, children: &[&TermMeta], no_vars: &Arc<[Var]>) -> Arc<[Var]> {
    let child = |i: usize| -> &[Var] { &children[i].free_vars };
    let out: Vec<Var> = match key {
        NodeKey::Bot | NodeKey::Top | NodeKey::BotV | NodeKey::Sym(_) => Vec::new(),
        NodeKey::Var(x) => vec![x.clone()],
        NodeKey::Lam(..) => shift_indices(child(0), 1),
        NodeKey::LetPair(..) => merge(child(0), &shift_indices(child(1), 2)),
        NodeKey::BigJoin(..) | NodeKey::LetFrz(..) | NodeKey::LexBind(..) => {
            merge(child(0), &shift_indices(child(1), 1))
        }
        NodeKey::Frz(_) => child(0).to_vec(),
        NodeKey::Pair(..)
        | NodeKey::App(..)
        | NodeKey::Join(..)
        | NodeKey::Lex(..)
        | NodeKey::LexMerge(..)
        | NodeKey::LetSym(..) => merge(child(0), child(1)),
        NodeKey::Set(_) | NodeKey::Prim(..) => {
            let mut acc: Vec<Var> = Vec::new();
            for i in 0..children.len() {
                let fv = child(i);
                if !fv.is_empty() {
                    acc = merge(&acc, fv);
                }
            }
            acc
        }
    };
    if out.is_empty() {
        no_vars.clone()
    } else {
        Arc::from(out)
    }
}

/// Sorted-set union of two sorted, deduplicated slices.
fn merge(a: &[Var], b: &[Var]) -> Vec<Var> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One memo entry in transit between arenas: its key and result as
/// trees, with its exhaustion flag and recency stamp.
pub(crate) struct Survivor {
    pub(crate) f: TermRef,
    pub(crate) a: TermRef,
    pub(crate) fuel: usize,
    pub(crate) r: TermRef,
    pub(crate) exhausted: bool,
    pub(crate) stamp: u64,
}

/// The memoising β-table of the id-native engine, keyed on **canonical
/// interned ids** with *zero translation*: the engine holds the function
/// and argument ids in hand at every β-step, so a probe is exactly one
/// `Copy`-key map access — no tree traversal, no `canon_id` walk, no `Arc`
/// clones, no allocation (regression-tested with a counting allocator).
/// α-equivalent `(function, argument)` pairs share one entry by
/// construction, since α-equivalent terms *are* the same id.
///
/// The table does not own the arena: the engine's caller keeps one arena
/// and threads it alongside (see `lambda-join-runtime`'s `MemoEval`, and
/// [`crate::sharded::SharedInternTable`], which locks both together).
///
/// Entries carry a generation *stamp*, refreshed on every hit, so
/// [`InternTable::collected`] can migrate just the recently-touched
/// working set into a compacted arena (the server's shared memo,
/// [`crate::sharded::SharedInternTable`], collects the same way), and
/// snapshots ([`crate::snap`]) persist recency alongside each entry.
#[derive(Debug, Clone, Default)]
pub struct InternTable {
    cache: FastMap<(TermId, TermId, usize), (TermId, bool, u64)>,
    hits: usize,
    misses: usize,
    generation: u64,
}

impl InternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        InternTable::default()
    }

    /// Cache statistics `(hits, misses)`.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// The number of cached β-results.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Advances the recency clock: entries stored or hit from now on are
    /// stamped with the new generation. Callers bump this at natural
    /// work boundaries (the seminaive engine once per round).
    pub fn begin_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The working set of the table: a new table holding only the entries
    /// stored or hit within the last `keep_last` generations, with every
    /// id re-interned from `old` into `fresh`. Statistics, the generation
    /// clock, and per-entry stamps carry over, so recency keeps working
    /// across a compaction.
    pub fn collected(
        &self,
        keep_last: u64,
        old: &mut Interner,
        fresh: &mut Interner,
    ) -> InternTable {
        let (mut out, survivors) = self.survivors(keep_last, old);
        out.adopt(survivors, fresh);
        out
    }

    /// The first half of [`InternTable::collected`]: the entries stored or
    /// hit within the last `keep_last` generations, extracted from `arena`
    /// as trees, and an empty table that continues this one's statistics
    /// and clock. Only this half reads the old arena.
    pub(crate) fn survivors(
        &self,
        keep_last: u64,
        arena: &mut Interner,
    ) -> (InternTable, Vec<Survivor>) {
        let cur = self.generation;
        let mut entries: Vec<_> = self
            .cache
            .iter()
            .filter(|(_, (_, _, stamp))| stamp.saturating_add(keep_last) > cur)
            .map(|(k, v)| (*k, *v))
            .collect();
        // Deterministic migration order keeps the fresh arena's id
        // assignment reproducible run-to-run.
        entries.sort_unstable_by_key(|((f, a, fuel), _)| (f.index(), a.index(), *fuel));
        let survivors = entries
            .into_iter()
            .map(|((f, a, fuel), (r, exhausted, stamp))| Survivor {
                f: arena.extract(f),
                a: arena.extract(a),
                fuel,
                r: arena.extract(r),
                exhausted,
                stamp,
            })
            .collect();
        let empty = InternTable {
            cache: FastMap::default(),
            hits: self.hits,
            misses: self.misses,
            generation: self.generation,
        };
        (empty, survivors)
    }

    /// The second half of [`InternTable::collected`]: canonically interns
    /// each survivor into `arena` and stores it with its stamp. The
    /// survivors' roots stay out of the pointer cache: nothing probes
    /// with these freshly extracted allocations again.
    pub(crate) fn adopt(&mut self, survivors: Vec<Survivor>, arena: &mut Interner) {
        for s in survivors {
            let key = (arena.canon_intern(&s.f), arena.canon_intern(&s.a), s.fuel);
            let r = arena.canon_intern(&s.r);
            self.cache.insert(key, (r, s.exhausted, s.stamp));
        }
    }

    /// Snapshot view of all entries (see [`crate::snap`]).
    #[allow(clippy::type_complexity)]
    pub(crate) fn snap_entries(&self) -> Vec<((TermId, TermId, usize), (TermId, bool, u64))> {
        self.cache.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Restores one snapshot entry verbatim (ids validated by the caller).
    pub(crate) fn snap_insert(
        &mut self,
        f: TermId,
        a: TermId,
        fuel: usize,
        r: TermId,
        exhausted: bool,
        stamp: u64,
    ) {
        self.cache.insert((f, a, fuel), (r, exhausted, stamp));
    }

    /// Restores snapshot counters.
    pub(crate) fn snap_set_counters(&mut self, hits: usize, misses: usize, generation: u64) {
        self.hits = hits;
        self.misses = misses;
        self.generation = generation;
    }
}

impl IdBetaTable for InternTable {
    fn lookup(&mut self, f: TermId, a: TermId, fuel: usize) -> Option<(TermId, bool)> {
        match self.cache.get_mut(&(f, a, fuel)) {
            Some(entry) => {
                entry.2 = self.generation;
                self.hits += 1;
                Some((entry.0, entry.1))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, f: TermId, a: TermId, fuel: usize, r: TermId, exhausted: bool) {
        self.cache
            .insert((f, a, fuel), (r, exhausted, self.generation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn structural_sharing() {
        // Equal trees in distinct allocations get one id.
        let mut arena = Interner::new();
        let a = pair(int(1), int(2));
        let b = pair(int(1), int(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(arena.canon_id(&a), arena.canon_id(&b));
        assert_ne!(arena.canon_id(&a), arena.canon_id(&pair(int(2), int(1))));
    }

    #[test]
    fn canon_identifies_alpha_variants() {
        let mut arena = Interner::new();
        let t = lam("x", app(var("x"), var("free")));
        let u = lam("y", app(var("y"), var("free")));
        let v = lam("y", app(var("y"), var("other")));
        assert_eq!(arena.canon_id(&t), arena.canon_id(&u));
        assert_ne!(arena.canon_id(&t), arena.canon_id(&v));
        // Shadowing: λx.λx.x ≡ λa.λb.b, ≢ λa.λb.a.
        let s1 = lam("x", lam("x", var("x")));
        let s2 = lam("a", lam("b", var("b")));
        let s3 = lam("a", lam("b", var("a")));
        assert_eq!(arena.canon_id(&s1), arena.canon_id(&s2));
        assert_ne!(arena.canon_id(&s1), arena.canon_id(&s3));
    }

    #[test]
    fn metadata_matches_term_layer() {
        let mut arena = Interner::new();
        for t in [
            lam("x", app(var("x"), var("y"))),
            pair(int(1), app(var("f"), int(2))),
            big_join("x", var("s"), var("x")),
            set(vec![int(1), lam("x", var("x"))]),
            let_pair("a", "b", var("p"), app(var("a"), var("c"))),
        ] {
            let id = arena.canon_id(&t);
            let meta = arena.meta(id).clone();
            assert_eq!(meta.size, t.size());
            assert_eq!(meta.is_value, t.is_value());
            let mut fv = t.free_vars();
            fv.sort();
            assert_eq!(meta.free_vars.to_vec(), fv);
        }
    }

    #[test]
    fn intern_table_hits_on_alpha_variants() {
        let mut arena = Interner::new();
        let mut table = InternTable::new();
        let f1 = arena.canon_id(&lam("x", var("x")));
        let f2 = arena.canon_id(&lam("y", var("y")));
        assert_eq!(f1, f2, "α-variants intern to one id");
        let arg = arena.canon_id(&int(3));
        assert!(table.lookup(f1, arg, 5).is_none());
        table.store(f1, arg, 5, arg, false);
        let (r, ex) = table.lookup(f2, arg, 5).expect("α-variant must hit");
        assert_eq!(r, arg);
        assert!(!ex);
        assert_eq!(table.stats(), (1, 1));
    }

    #[test]
    fn extract_round_trips_alpha_classes() {
        let mut arena = Interner::new();
        for t in [
            lam("x", app(var("x"), var("free"))),
            lam("x", lam("x", var("x"))),
            let_pair("a", "b", pair(int(1), int(2)), app(var("a"), var("b"))),
            big_join("x", set(vec![int(1)]), set(vec![var("x")])),
            set(vec![int(1), pair(int(2), int(3))]),
        ] {
            let id = arena.canon_id(&t);
            let back = arena.extract(id);
            assert!(back.alpha_eq(&t), "{t} extracted as {back}");
            assert_eq!(arena.canon_id(&back), id);
        }
    }
}
