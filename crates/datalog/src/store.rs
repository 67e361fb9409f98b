//! Flat, interned tuple storage — the id-native database substrate.
//!
//! Every constant and every `(predicate, arity)` pair is interned to a
//! `u32` id — a fact's when it is parsed or built (the private `facts`
//! module), a rule's at compile time (the private `plan` module) — so a
//! tuple is a fixed-width run of `u32`s and a relation is one contiguous
//! `Vec<u32>` in derivation order, only ever appended to. Tuple equality
//! is a word-by-word compare, and membership is one probe of an
//! open-addressed hash table whose slots keep a hash fingerprint beside
//! each row index, so a probe reads a stored row only when the
//! fingerprints match. Rows go in by the batch: the batch is hashed
//! first, and each probe reads a later row's home slot early. Every
//! keyed lookup the join plans make reads a sorted trie — the store's
//! one secondary index — which merges in only the rows added since its
//! last refresh, and is refreshed only before a round whose plans read
//! it. One search, `seek`, serves every sorted run the engine reads:
//! trie lookups, merges and leapfrog cursors alike; one radix sort,
//! `KeySort`, orders every merge's delta. This is the Datalog
//! instance of the workspace-wide id-native design (DESIGN.md
//! §3/§5/§6): trees at the API boundary, `Copy` ids everywhere the
//! fixpoint loop runs.
//!
//! [`IdDatabase`] is the public face: the result of
//! [`eval_ids`](crate::eval::eval_ids), queryable without ever
//! materialising a [`Database`](crate::eval::Database), and convertible
//! into one at the boundary via [`IdDatabase::to_database`].

use std::cmp::Ordering;

use crate::ast::Const;
use crate::facts::ConstIndex;

/// Sentinel for an empty open-addressing slot. Interning `u32::MAX` or
/// more distinct constants is rejected at compile time.
pub(crate) const EMPTY: u32 = u32::MAX;

/// Hashes a run of column values with an FNV-style mix plus a strong
/// finaliser (sequential integer ids are the common case; without the
/// finaliser their low bits collide in power-of-two tables).
#[inline]
pub(crate) fn hash_cols(vals: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// How a trie projects and filters the rows of its relation: the static
/// shape the planner derives from one body atom under a variable
/// elimination order. Constants and repeated variables are resolved at
/// build time, so the trie's levels are exactly the atom's distinct
/// variables, in elimination order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TrieSpec {
    /// Source column for each trie level, in elimination order.
    pub(crate) cols: Vec<usize>,
    /// `(column, constant)` filters: rows must carry the constant there.
    pub(crate) consts: Vec<(usize, u32)>,
    /// `(column, column)` equality filters (repeated variables in the
    /// atom); the first column of each pair is the one kept in `cols`.
    pub(crate) eqs: Vec<(usize, usize)>,
}

impl TrieSpec {
    /// Projects one relation row to a trie row, or `None` when a
    /// constant/equality filter rejects it.
    #[inline]
    fn project(&self, row: &[u32], out: &mut Vec<u32>) -> bool {
        for &(c, k) in &self.consts {
            if row[c] != k {
                return false;
            }
        }
        for &(a, b) in &self.eqs {
            if row[a] != row[b] {
                return false;
            }
        }
        out.extend(self.cols.iter().map(|&c| row[c]));
        true
    }
}

/// A sorted-column trie index over one relation, as used by the leapfrog
/// triejoin executor: the relation's rows projected through a [`TrieSpec`]
/// and kept **sorted lexicographically** by level. The sorted flat layout
/// *is* the trie — a node at depth `d` is a run of rows sharing a
/// `d`-value prefix, and lookups and the leapfrog iterator move through
/// runs with [`seek`]; no pointer structure is ever materialised.
///
/// Tries are **lazily built and incrementally maintained**: inserts into
/// the relation merely make the trie stale (`src_rows` lags the
/// relation's row count); [`Relation::refresh_trie`] — called by the
/// evaluator before each round for the tries that round's plans read (a
/// leapfrog plan, or a sorted lookup or merge) — projects only the rows
/// added since the last refresh, sorts that chunk, and merges it with the
/// already-sorted bulk in one pass, so a fixpoint pays
/// O(new · log new + total) per refresh instead of a full re-sort.
#[derive(Debug, Clone)]
pub(crate) struct Trie {
    pub(crate) spec: TrieSpec,
    /// Sorted projected rows, `spec.cols.len()` values per row.
    data: Vec<u32>,
    rows: usize,
    /// Relation rows consumed at the last refresh (stale ⟺ < relation len).
    src_rows: usize,
    /// Distinct level-0 keys, sorted — a dense directory for the trie's
    /// root level. A root-level [`seek`] reads this contiguous array
    /// (stride 1) instead of `width`-strided rows, and root-level `next`
    /// is a plain increment; both matter because the root is where the
    /// leapfrog intersects the whole relation.
    dir0: Vec<u32>,
    /// Start row of `dir0[i]`'s run, with a trailing `rows` sentinel
    /// (`dir0_start.len() == dir0.len() + 1`).
    dir0_start: Vec<u32>,
}

impl Trie {
    fn new(spec: TrieSpec) -> Self {
        Trie {
            spec,
            data: Vec::new(),
            rows: 0,
            src_rows: 0,
            dir0: Vec::new(),
            dir0_start: vec![0],
        }
    }

    /// Values per row (the number of trie levels).
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.spec.cols.len()
    }

    /// Number of projected rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// The sorted flat row storage.
    #[inline]
    pub(crate) fn data(&self) -> &[u32] {
        &self.data
    }

    /// Sorted distinct level-0 keys.
    #[inline]
    pub(crate) fn dir0(&self) -> &[u32] {
        &self.dir0
    }

    /// Run start of each `dir0` key, plus a trailing `rows` sentinel.
    #[inline]
    pub(crate) fn dir0_start(&self) -> &[u32] {
        &self.dir0_start
    }

    /// The rows `lo..hi` whose first `key.len()` levels equal `key`.
    /// Without a hint the root key seeks the whole key directory (a point
    /// lookup); with one it seeks forward from `*hint` and leaves `*hint`
    /// at the key's directory position, so a caller looking up
    /// nondecreasing first keys (a merge) only ever moves forward. Each
    /// deeper key narrows the root key's run with two seeks, to its first
    /// and past its last row.
    pub(crate) fn prefix_range(&self, key: &[u32], hint: Option<&mut usize>) -> (usize, usize) {
        let Some((&k0, rest)) = key.split_first() else {
            return (0, self.rows);
        };
        let from = hint.as_deref().copied().unwrap_or(0);
        let d = seek(&self.dir0, 1, from, self.dir0.len(), k0, false);
        if let Some(hint) = hint {
            *hint = d;
        }
        if d >= self.dir0.len() || self.dir0[d] != k0 {
            return (0, 0);
        }
        let (mut lo, mut hi) = (self.dir0_start[d] as usize, self.dir0_start[d + 1] as usize);
        let w = self.width();
        for (l, &k) in rest.iter().enumerate() {
            let col = &self.data[l + 1..];
            lo = seek(col, w, lo, hi, k, false);
            hi = seek(col, w, lo, hi, k, true);
        }
        (lo, hi)
    }

    /// Builds a standalone trie (no backing relation) from flat rows of
    /// the given arity — how per-round delta tries are made.
    pub(crate) fn build(spec: TrieSpec, flat: &[u32], arity: usize, nrows: usize) -> Self {
        let mut t = Trie::new(spec);
        t.absorb(flat, arity, nrows);
        t
    }

    /// Projects rows `self.src_rows..nrows` of `flat`, sorts and
    /// deduplicates the chunk, and merges it into the sorted bulk.
    /// Projections are injective on surviving relation rows because every
    /// source column is either kept, pinned by a constant, or tied by an
    /// equality, so the dedup is a safety net only — but it lets the merge
    /// assume two strictly sorted inputs.
    fn absorb(&mut self, flat: &[u32], arity: usize, nrows: usize) {
        let w = self.width();
        let mut chunk: Vec<u32> = Vec::new();
        let mut new_rows = 0usize;
        for r in self.src_rows..nrows {
            let row = &flat[r * arity..(r + 1) * arity];
            if self.spec.project(row, &mut chunk) {
                new_rows += 1;
            }
        }
        self.src_rows = nrows;
        if w == 0 {
            // Every level constant-filtered away: presence is the datum.
            if new_rows > 0 {
                self.rows = 1;
            }
            return;
        }
        if new_rows == 0 {
            return;
        }
        let chunk = sort_rows(chunk, w);
        // One merge of two strictly sorted row runs; a row in both is
        // kept once, so the result is strictly sorted too.
        let (bulk, mut i, mut j) = (&self.data, 0usize, 0usize);
        let mut merged: Vec<u32> = Vec::with_capacity(bulk.len() + chunk.len());
        while i < bulk.len() && j < chunk.len() {
            let (b, c) = (&bulk[i..i + w], &chunk[j..j + w]);
            match b.cmp(c) {
                Ordering::Less => {
                    merged.extend_from_slice(b);
                    i += w;
                }
                Ordering::Greater => {
                    merged.extend_from_slice(c);
                    j += w;
                }
                Ordering::Equal => {
                    merged.extend_from_slice(b);
                    i += w;
                    j += w;
                }
            }
        }
        merged.extend_from_slice(&bulk[i..]);
        merged.extend_from_slice(&chunk[j..]);
        self.rows = merged.len() / w;
        self.data = merged;
        // Rebuild the root directory with one linear scan — O(rows) on a
        // contiguous array, cheap next to the merge above.
        self.dir0.clear();
        self.dir0_start.clear();
        for r in 0..self.rows {
            let k = self.data[r * w];
            if self.dir0.last() != Some(&k) {
                self.dir0.push(k);
                self.dir0_start.push(r as u32);
            }
        }
        self.dir0_start.push(self.rows as u32);
    }
}

/// Sorts `w`-wide flat rows lexicographically and drops repeats. The
/// common widths (one or two distinct variables per atom) pack each row
/// into one `u64` so the sort runs on a flat primitive array — several
/// times faster than a slice comparator on the 10⁵-row tries the scale
/// workloads refresh every round; wider rows sort an index permutation.
fn sort_rows(rows: Vec<u32>, w: usize) -> Vec<u32> {
    if w <= 2 {
        let mut keys: Vec<u64> = rows
            .chunks_exact(w)
            .map(|r| r.iter().fold(0u64, |k, &v| (k << 32) | u64::from(v)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = Vec::with_capacity(keys.len() * w);
        for k in keys {
            if w == 2 {
                out.push((k >> 32) as u32);
            }
            out.push(k as u32);
        }
        return out;
    }
    let row = |i: u32| &rows[i as usize * w..(i as usize + 1) * w];
    let mut order: Vec<u32> = (0..(rows.len() / w) as u32).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|a, b| row(*a) == row(*b));
    let mut out = Vec::with_capacity(order.len() * w);
    for i in order {
        out.extend_from_slice(row(i));
    }
    out
}

/// The first `i` in `[lo, hi)` whose key `keys[i * stride]` is `>= v`
/// (`> v` when `strict`), or `hi` if there is none; the keys at
/// `lo..hi` must be sorted. Every search over a sorted run goes through
/// here: a trie's key directory (stride 1), one level's column inside its
/// rows (stride = the trie's width), and a leapfrog cursor's level. Short
/// ranges — the leaf-adjacent runs, whose length is a node's degree in
/// graph workloads — scan linearly; longer ones gallop (doubling probes,
/// then a binary search), so the cost is logarithmic in the distance
/// moved, which is what keeps the leapfrog worst-case optimal.
#[inline]
pub(crate) fn seek(
    keys: &[u32],
    stride: usize,
    mut lo: usize,
    hi: usize,
    v: u32,
    strict: bool,
) -> usize {
    let below = |i: usize| {
        let k = keys[i * stride];
        if strict {
            k <= v
        } else {
            k < v
        }
    };
    if hi - lo <= 32 {
        while lo < hi && below(lo) {
            lo += 1;
        }
        return lo;
    }
    let mut step = 1usize;
    while lo + step < hi && below(lo + step) {
        lo += step;
        step <<= 1;
    }
    let mut end = hi.min(lo + step);
    while lo < end {
        let mid = lo + (end - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            end = mid;
        }
    }
    lo
}

/// The merge join's one ordering of a delta: a stable LSD radix sort of
/// row indexes by key columns. Keys are constant ids, dense below the
/// constant count, so only their low bytes vary and a pass per varying
/// byte replaces a comparison sort. The buffers persist between sorts:
/// one value serves every plan and round of an evaluation.
#[derive(Debug, Default)]
pub(crate) struct KeySort {
    /// `(key << 32) | row` pairs, keyed by the column being sorted.
    pairs: Vec<u64>,
    /// The scatter target of a pass, swapped with `pairs` after it.
    spare: Vec<u64>,
    /// Row indexes in key order.
    order: Vec<u32>,
    /// Key tuples in key order, one value per key column each.
    keys: Vec<u32>,
}

impl KeySort {
    /// Orders rows `0..rows` of `data` (`arity` values each) by their
    /// values at `cols`, lexicographically, equal keys in row order.
    /// Columns sort last first, each by its bytes low to high, and a
    /// byte takes a pass only where some key's differs — where it is
    /// set in the keys' OR and clear in their AND — so 2¹⁶ constants
    /// cost at most two passes per column. A column whose keys are already in
    /// order takes none: a delta derived by an earlier merge often
    /// arrives sorted. The result is [`KeySort::order`] and
    /// [`KeySort::keys`].
    pub(crate) fn sort(&mut self, data: &[u32], arity: usize, rows: usize, cols: &[usize]) {
        self.pairs.clear();
        self.pairs.extend(0..rows as u64);
        for &c in cols.iter().rev() {
            let (mut or, mut and) = (0u32, u32::MAX);
            let (mut prev, mut in_order) = (0u32, true);
            for p in &mut self.pairs {
                let row = *p as u32;
                let k = data[row as usize * arity + c];
                *p = (u64::from(k) << 32) | u64::from(row);
                (or, and) = (or | k, and & k);
                in_order &= prev <= k;
                prev = k;
            }
            if in_order {
                continue;
            }
            for shift in [32, 40, 48, 56] {
                if (or & !and) >> (shift - 32) & 0xff != 0 {
                    self.pass(shift);
                }
            }
        }
        self.order.clear();
        self.order.extend(self.pairs.iter().map(|&p| p as u32));
        // The pairs carry the first key column; later ones are read from
        // the rows once, here, so key runs compare contiguous keys. A
        // probe keyed by constants alone has no key column: its delta is
        // one run.
        self.keys.clear();
        if let Some((_, later)) = cols.split_first() {
            for &p in &self.pairs {
                let row = (p as u32) as usize * arity;
                self.keys.push((p >> 32) as u32);
                self.keys.extend(later.iter().map(|&c| data[row + c]));
            }
        }
    }

    /// One counting-sort pass of `pairs` on the byte at bit `shift`;
    /// pairs with equal bytes keep their order.
    fn pass(&mut self, shift: u32) {
        let mut next = [0u32; 256];
        for &p in &self.pairs {
            next[(p >> shift) as u8 as usize] += 1;
        }
        let mut sum = 0;
        for start in &mut next {
            let count = *start;
            *start = sum;
            sum += count;
        }
        self.spare.resize(self.pairs.len(), 0);
        for &p in &self.pairs {
            let byte = (p >> shift) as u8 as usize;
            self.spare[next[byte] as usize] = p;
            next[byte] += 1;
        }
        std::mem::swap(&mut self.pairs, &mut self.spare);
    }

    /// The sorted row indexes.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// The key tuple of each sorted row, back to back.
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }
}

/// Rows [`Relation::insert_batch`] hashes ahead of the one it probes:
/// the home slot of the row this far ahead is read early, so its cache
/// miss overlaps the probes in between.
const PROBE_AHEAD: usize = 8;

/// The fingerprint a membership slot keeps above its row index: the bits
/// of the row's hash above `mask`, taken from the half of the hash that
/// does not pick the home slot.
#[inline]
fn fingerprint(h: u64, mask: usize) -> u32 {
    (h >> 32) as u32 & !(mask as u32)
}

/// The one membership probe: walks `row`'s linear-probing sequence (its
/// hash is `h`) through `slots` and returns `Ok` with the slot holding an
/// equal row of `data`, or `Err` with the empty slot that ends the
/// sequence. A slot holds a row index in its low `log2(slots.len())` bits
/// and a [`fingerprint`] in the bits above, so a probe reads a passed row
/// (a random read into `data`) only when the fingerprints match. A table
/// stays below 3/4 full, so a row index never has every index bit set
/// and no entry equals [`EMPTY`].
#[inline]
fn probe(slots: &[u32], data: &[u32], arity: usize, h: u64, row: &[u32]) -> Result<usize, usize> {
    let mask = slots.len() - 1;
    let fp = fingerprint(h, mask);
    let mut i = h as usize & mask;
    loop {
        let s = slots[i];
        if s == EMPTY {
            return Err(i);
        }
        if s & !(mask as u32) == fp {
            let r = (s as usize & mask) * arity;
            if &data[r..r + arity] == row {
                return Ok(i);
            }
        }
        i = (i + 1) & mask;
    }
}

/// One relation: a fixed arity, all tuples flat in `data` (insertion =
/// derivation order), an open-addressed membership table of fingerprinted
/// row indexes, and the sorted-column tries the join planner registered —
/// the only secondary index. Rows are only ever appended, so the rows a
/// merge added are the relation's suffix from the row count before it.
#[derive(Debug, Clone)]
pub(crate) struct Relation {
    pub(crate) arity: usize,
    /// Rows back to back: row `i` is `data[i*arity .. (i+1)*arity]`.
    pub(crate) data: Vec<u32>,
    /// Open-addressing table (EMPTY = free), linear probing; each entry
    /// is a row index under a hash fingerprint (see [`probe`]).
    slots: Vec<u32>,
    rows: usize,
    pub(crate) tries: Vec<Trie>,
}

impl Relation {
    pub(crate) fn new(arity: usize) -> Self {
        Relation {
            arity,
            data: Vec::new(),
            slots: vec![EMPTY; 8],
            rows: 0,
            tries: Vec::new(),
        }
    }

    /// Registers a sorted-column trie (deduplicated by spec) and returns
    /// its slot. Tries may be registered after rows exist — they start
    /// empty and catch up on the first
    /// [`refresh_trie`](Relation::refresh_trie).
    pub(crate) fn register_trie(&mut self, spec: TrieSpec) -> usize {
        if let Some(i) = self.tries.iter().position(|t| t.spec == spec) {
            return i;
        }
        self.tries.push(Trie::new(spec));
        self.tries.len() - 1
    }

    /// Brings the trie in slot `t` up to date with the relation. Cheap
    /// when nothing changed; otherwise the trie projects + sorts only the
    /// rows inserted since its last refresh and merges them in.
    pub(crate) fn refresh_trie(&mut self, t: usize) {
        let (rows, arity) = (self.rows, self.arity);
        let trie = &mut self.tries[t];
        if trie.src_rows < rows {
            trie.absorb(&self.data, arity, rows);
        }
    }

    /// The registered trie with this spec, if it holds every row of the
    /// relation (a trie no plan of the current round reads may lag).
    pub(crate) fn current_trie(&self, spec: &TrieSpec) -> Option<&Trie> {
        self.tries
            .iter()
            .find(|t| t.spec == *spec && t.src_rows == self.rows)
    }

    /// Number of tuples.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Row `i` as a column slice.
    #[inline]
    pub(crate) fn row(&self, i: u32) -> &[u32] {
        let a = self.arity;
        &self.data[i as usize * a..(i as usize + 1) * a]
    }

    /// Whether the tuple is present — one hash, then one probe.
    #[inline]
    pub(crate) fn contains(&self, row: &[u32]) -> bool {
        let h = hash_cols(row.iter().copied());
        probe(&self.slots, &self.data, self.arity, h, row).is_ok()
    }

    /// Inserts `rows` flat rows in order and returns how many were new;
    /// the new ones, in batch order, are the relation's suffix. Duplicates
    /// — the majority of derivations in fixpoint rounds — pay one probe
    /// and touch nothing. The whole batch is hashed first, so each probe
    /// can read the home slot [`PROBE_AHEAD`] rows ahead early. Tries
    /// catch up on their next refresh.
    pub(crate) fn insert_batch(&mut self, data: &[u32], rows: usize) -> usize {
        let a = self.arity;
        debug_assert_eq!(data.len(), rows * a);
        let before = self.rows;
        let hashes: Vec<u64> = (0..rows)
            .map(|i| hash_cols(data[i * a..(i + 1) * a].iter().copied()))
            .collect();
        for (i, &h) in hashes.iter().enumerate() {
            if let Some(&ahead) = hashes.get(i + PROBE_AHEAD) {
                std::hint::black_box(self.slots[ahead as usize & (self.slots.len() - 1)]);
            }
            let row = &data[i * a..(i + 1) * a];
            if let Err(slot) = probe(&self.slots, &self.data, a, h, row) {
                self.slots[slot] = fingerprint(h, self.slots.len() - 1) | self.rows as u32;
                self.data.extend_from_slice(row);
                self.rows += 1;
                if self.rows * 4 >= self.slots.len() * 3 {
                    self.grow();
                }
            }
        }
        self.rows - before
    }

    /// Inserts `rows` flat rows (a fact block) in order. The membership
    /// table is sized for all of them in one rebuild instead of doubling
    /// its way up, and shrunk back afterwards if duplicates left it
    /// larger than the table a rebuild of the result would have — tables
    /// stay exactly the ones snapshot rebuild-on-load reproduces.
    pub(crate) fn load(&mut self, data: &[u32], rows: usize) {
        let want = Relation::natural_slot_len(self.rows + rows);
        if want > self.slots.len() {
            self.rebuild_slots(want);
        }
        self.data.reserve(data.len());
        self.insert_batch(data, rows);
        let fit = Relation::natural_slot_len(self.rows);
        if fit < self.slots.len() {
            self.rebuild_slots(fit);
        }
    }

    #[cold]
    fn grow(&mut self) {
        self.rebuild_slots(self.slots.len() * 2);
    }

    /// Rebuilds the membership table at `new_len` slots (a power of two)
    /// by probing every row in insertion order — the deterministic recipe
    /// [`Relation::grow`] and [`Relation::from_rows`] share, and the slot
    /// each row then takes is the one incremental inserts gave it. Returns
    /// `false` if some row repeats an earlier one (never for a derived
    /// relation; a crafted snapshot can hold one).
    ///
    /// # Panics
    ///
    /// If `new_len` exceeds 2³², past which row indexes outgrow a `u32`.
    fn rebuild_slots(&mut self, new_len: usize) -> bool {
        assert!(new_len as u64 <= 1 << 32, "relation overflow");
        self.slots.clear();
        self.slots.resize(new_len, EMPTY);
        let (a, mask) = (self.arity, new_len - 1);
        for r in 0..self.rows {
            let row = &self.data[r * a..(r + 1) * a];
            let h = hash_cols(row.iter().copied());
            match probe(&self.slots, &self.data, a, h, row) {
                Ok(_) => return false,
                Err(slot) => self.slots[slot] = fingerprint(h, mask) | r as u32,
            }
        }
        true
    }

    /// The slot count a freshly rebuilt membership table uses for `rows`
    /// rows: the smallest power of two ≥ 8 below the 3/4 load factor.
    fn natural_slot_len(rows: usize) -> usize {
        let mut n = 8usize;
        while rows * 4 >= n * 3 {
            n *= 2;
        }
        n
    }

    /// Reassembles a relation from snapshot rows, or `None` if a row
    /// appears twice. The membership table is one
    /// [`rebuild_slots`](Relation::rebuild_slots) at the size a derived
    /// relation of `rows` rows has, so it equals a derived relation's slot
    /// for slot. A loaded relation has no tries: only evaluation reads
    /// them.
    pub(crate) fn from_rows(arity: usize, data: Vec<u32>, rows: usize) -> Option<Relation> {
        let mut rel = Relation {
            arity,
            data,
            slots: Vec::new(),
            rows,
            tries: Vec::new(),
        };
        rel.rebuild_slots(Relation::natural_slot_len(rows))
            .then_some(rel)
    }
}

/// A derivation buffer for one relation: the rows a round's joins derived
/// for it, flat and in derivation order, repeats included, until the
/// round's merge inserts them. The explicit row count (rather than
/// `data.len() / arity`) keeps zero-arity relations representable.
#[derive(Debug, Clone, Default)]
pub(crate) struct Derived {
    pub(crate) data: Vec<u32>,
    pub(crate) rows: usize,
}

/// The id-native result of evaluation: flat relations plus the symbol
/// tables needed to read them back as [`Const`] tuples. Produced by
/// [`eval_ids`](crate::eval::eval_ids); at scale (10⁵–10⁶ facts) query it
/// directly — [`to_database`](IdDatabase::to_database) materialises one
/// tree-shaped tuple per fact and is the expensive boundary step.
#[derive(Debug, Clone)]
pub struct IdDatabase {
    pub(crate) rels: Vec<Relation>,
    /// Per relation: predicate name (relations are keyed by name *and*
    /// arity, so one name may own several relations).
    pub(crate) names: Vec<String>,
    /// Id → constant.
    pub(crate) consts: Vec<Const>,
    /// Constant → id, over `consts`: the index compilation built, or
    /// for a loaded snapshot the one the loader built while checking
    /// that no constant repeats.
    pub(crate) const_ids: ConstIndex,
}

impl IdDatabase {
    /// Total number of derived facts across all relations.
    pub fn total_facts(&self) -> usize {
        self.rels.iter().map(Relation::len).sum()
    }

    /// The distinct predicate names present, sorted and deduplicated.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names = self.names.clone();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Number of facts of a predicate (over every arity it is used at).
    pub fn fact_count(&self, pred: &str) -> usize {
        self.rels
            .iter()
            .zip(&self.names)
            .filter(|(_, n)| n.as_str() == pred)
            .map(|(r, _)| r.len())
            .sum()
    }

    /// The tuples of a predicate, decoded and **sorted ascending** — a
    /// deterministic order independent of the evaluation strategy that
    /// produced the database (internally rows sit in derivation order,
    /// which differs between naive and seminaive runs).
    pub fn rows(&self, pred: &str) -> Vec<Vec<Const>> {
        let mut out: Vec<Vec<Const>> = Vec::new();
        for (rel, name) in self.rels.iter().zip(&self.names) {
            if name.as_str() != pred {
                continue;
            }
            for i in 0..rel.len() as u32 {
                out.push(
                    rel.row(i)
                        .iter()
                        .map(|&c| self.consts[c as usize].clone())
                        .collect(),
                );
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether a fact is present: one index probe per constant, then one
    /// membership probe.
    pub fn contains(&self, pred: &str, tuple: &[Const]) -> bool {
        let ids: Option<Vec<u32>> = tuple
            .iter()
            .map(|c| self.const_ids.lookup(&self.consts, c))
            .collect();
        let Some(ids) = ids else { return false };
        self.rels
            .iter()
            .zip(&self.names)
            .any(|(r, n)| n.as_str() == pred && r.arity == ids.len() && r.contains(&ids))
    }

    /// Materialises the tree-shaped [`Database`](crate::eval::Database):
    /// string-keyed, each relation a sorted set of constant tuples. The
    /// sort is what makes databases from different strategies compare
    /// equal even though their derivation orders differ.
    pub fn to_database(&self) -> crate::eval::Database {
        let mut db = crate::eval::Database::new();
        for (rel, name) in self.rels.iter().zip(&self.names) {
            if rel.len() == 0 {
                continue;
            }
            let set = db.entry(name.clone()).or_default();
            for i in 0..rel.len() as u32 {
                set.insert(
                    rel.row(i)
                        .iter()
                        .map(|&c| self.consts[c as usize].clone())
                        .collect(),
                );
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts one row through the batch path; returns whether it was new.
    fn insert(r: &mut Relation, row: &[u32]) -> bool {
        r.insert_batch(row, 1) == 1
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(insert(&mut r, &[1, 2]));
        assert!(!insert(&mut r, &[1, 2]));
        assert!(insert(&mut r, &[3, 2]));
        assert!(insert(&mut r, &[1, 4]));
        assert_eq!(r.len(), 3);
        assert!(r.contains(&[3, 2]));
        assert!(!r.contains(&[2, 3]));
    }

    #[test]
    fn growth_preserves_membership() {
        let mut r = Relation::new(1);
        for i in 0..1000u32 {
            assert!(insert(&mut r, &[i]));
        }
        for i in 0..1000u32 {
            assert!(r.contains(&[i]), "{i} lost after growth");
            assert!(!insert(&mut r, &[i]));
        }
        assert_eq!(r.len(), 1000);
    }

    #[test]
    fn insert_batch_appends_exactly_the_new_rows_in_order() {
        let mut r = Relation::new(2);
        r.insert_batch(&[1, 1, 2, 2, 3, 3], 3);
        // Repeats of stored rows and repeats inside the batch.
        let batch = [4, 4, 1, 1, 5, 5, 4, 4, 2, 2, 6, 6, 5, 5, 6, 6, 7, 7];
        assert_eq!(r.insert_batch(&batch, 9), 4);
        assert_eq!(r.data[6..], [4, 4, 5, 5, 6, 6, 7, 7]);
        assert_eq!(r.len(), 7);
        assert_eq!(r.insert_batch(&batch, 9), 0);
        assert_eq!(r.insert_batch(&[], 0), 0);
        // A longer batch than the probe-ahead distance, through two
        // doublings, against a reference set.
        let mut seen: std::collections::HashSet<Vec<u32>> =
            r.data.chunks_exact(2).map(<[u32]>::to_vec).collect();
        let mut batch = Vec::new();
        let mut x = 11u32;
        for _ in 0..60 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            batch.extend([(x >> 16) % 6, (x >> 20) % 5 + 3]);
        }
        let want: Vec<u32> = batch
            .chunks_exact(2)
            .filter(|row| seen.insert(row.to_vec()))
            .flatten()
            .copied()
            .collect();
        let before = r.data.len();
        assert_eq!(r.insert_batch(&batch, 60), want.len() / 2);
        assert_eq!(r.data[before..], want);
        for row in batch.chunks_exact(2) {
            assert!(r.contains(row));
        }
    }

    #[test]
    fn rows_sharing_a_home_slot_are_told_apart() {
        // Rows whose hashes agree in their low six bits share one home
        // slot at every table size up to 64; 40 of them grow the table to
        // exactly 64 slots, one long probe run.
        let home = |row: &[u32]| hash_cols(row.iter().copied()) & 63;
        let want = home(&[0, 0]);
        let mut same: Vec<[u32; 2]> = (0..200u32)
            .flat_map(|a| (0..200u32).map(move |b| [a, b]))
            .filter(|row| home(row) == want)
            .take(60)
            .collect();
        assert_eq!(same.len(), 60);
        let absent = same.split_off(40);
        let mut r = Relation::new(2);
        assert_eq!(r.insert_batch(&same.concat(), 40), 40);
        assert_eq!(r.slots.len(), 64);
        for row in &same {
            assert!(r.contains(row), "{row:?} lost");
        }
        for row in &absent {
            assert!(!r.contains(row), "{row:?} found");
        }
    }

    #[test]
    fn a_relation_from_rows_has_the_derived_membership_table() {
        // After every doubling up to 2^12 slots, a one-shot build from the
        // rows inserted so far places every row in the slot incremental
        // inserts gave it.
        let mut r = Relation::new(2);
        let mut i = 0u32;
        while r.slots.len() < 1 << 12 {
            let len = r.slots.len();
            insert(&mut r, &[i % 37, i / 37]);
            i += 1;
            if r.slots.len() != len {
                let loaded = Relation::from_rows(2, r.data.clone(), r.len()).expect("distinct");
                assert_eq!(loaded.slots, r.slots, "{} rows", r.len());
            }
        }
        let mut dup = r.data.clone();
        dup.extend_from_slice(&[5, 5]);
        assert!(Relation::from_rows(2, dup, r.len() + 1).is_none());
    }

    #[test]
    fn zero_arity_relation_holds_one_tuple() {
        let mut r = Relation::new(0);
        assert!(insert(&mut r, &[]));
        assert!(!insert(&mut r, &[]));
        assert!(r.contains(&[]));
        assert_eq!(r.len(), 1);
    }

    fn plain_spec(cols: Vec<usize>) -> TrieSpec {
        TrieSpec {
            cols,
            consts: vec![],
            eqs: vec![],
        }
    }

    #[test]
    fn trie_sorts_projected_rows() {
        let mut r = Relation::new(2);
        let t = r.register_trie(plain_spec(vec![1, 0]));
        for row in [[3, 1], [1, 2], [2, 1], [1, 9], [0, 2]] {
            insert(&mut r, &row);
        }
        r.refresh_trie(t);
        // Levels are (col 1, col 0): sorted lexicographically on that.
        assert_eq!(
            r.tries[t].data(),
            &[1, 2, 1, 3, 2, 0, 2, 1, 9, 1] // (1,2) (1,3) (2,0) (2,1) (9,1)
        );
        assert_eq!(r.tries[t].len(), 5);
    }

    #[test]
    fn trie_incremental_refresh_merges_new_rows() {
        // The invalidation/rebuild contract across fixpoint rounds: insert,
        // refresh, insert more, refresh again — the trie must equal a
        // from-scratch build after every refresh.
        let mut r = Relation::new(2);
        let t = r.register_trie(plain_spec(vec![0, 1]));
        for row in [[5, 0], [1, 1], [3, 3]] {
            insert(&mut r, &row);
        }
        r.refresh_trie(t);
        assert_eq!(r.tries[t].data(), &[1, 1, 3, 3, 5, 0]);
        for row in [[2, 2], [5, 0], [0, 9], [4, 4]] {
            insert(&mut r, &row); // [5,0] is a duplicate: relation rejects it
        }
        r.refresh_trie(t);
        let fresh = Trie::build(plain_spec(vec![0, 1]), &r.data, 2, r.len());
        assert_eq!(r.tries[t].data(), fresh.data());
        assert_eq!(r.tries[t].data(), &[0, 9, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0]);
        // A refresh with nothing new is a no-op.
        r.refresh_trie(t);
        assert_eq!(r.tries[t].len(), 6);
    }

    #[test]
    fn trie_const_and_eq_filters() {
        // Atom shape p(7, X, X): col 0 pinned to 7, cols 1 == 2, one level.
        let spec = TrieSpec {
            cols: vec![1],
            consts: vec![(0, 7)],
            eqs: vec![(1, 2)],
        };
        let mut r = Relation::new(3);
        let t = r.register_trie(spec);
        for row in [[7, 4, 4], [7, 2, 3], [6, 1, 1], [7, 1, 1]] {
            insert(&mut r, &row);
        }
        r.refresh_trie(t);
        assert_eq!(r.tries[t].data(), &[1, 4]);
    }

    #[test]
    fn trie_registration_after_population_catches_up() {
        let mut r = Relation::new(1);
        insert(&mut r, &[9]);
        insert(&mut r, &[4]);
        let t = r.register_trie(plain_spec(vec![0]));
        r.refresh_trie(t);
        assert_eq!(r.tries[t].data(), &[4, 9]);
    }

    #[test]
    fn prefix_range_finds_each_key_run() {
        // Levels (col 0, col 1, col 2); rows sorted lexicographically.
        let mut r = Relation::new(3);
        let t = r.register_trie(plain_spec(vec![0, 1, 2]));
        for row in [
            [5, 1, 1],
            [2, 7, 0],
            [2, 3, 9],
            [2, 3, 4],
            [8, 0, 0],
            [2, 7, 7],
        ] {
            insert(&mut r, &row);
        }
        r.refresh_trie(t);
        let t = &r.tries[t];
        // Sorted: (2,3,4) (2,3,9) (2,7,0) (2,7,7) (5,1,1) (8,0,0)
        let range = |key: &[u32]| t.prefix_range(key, None);
        assert_eq!(range(&[]), (0, 6));
        assert_eq!(range(&[2]), (0, 4));
        assert_eq!(range(&[2, 3]), (0, 2));
        assert_eq!(range(&[2, 7]), (2, 4));
        assert_eq!(range(&[2, 7, 7]), (3, 4));
        assert_eq!(range(&[2, 5]).0, range(&[2, 5]).1);
        assert_eq!(range(&[3]), (0, 0));
        assert_eq!(range(&[9]), (0, 0));
        // A merge seeks forward from the previous key's position.
        let mut hint = 0;
        assert_eq!(t.prefix_range(&[1], Some(&mut hint)), (0, 0));
        assert_eq!(t.prefix_range(&[5], Some(&mut hint)), (4, 5));
        assert_eq!(hint, 1);
        assert_eq!(t.prefix_range(&[8, 0], Some(&mut hint)), (5, 6));
        assert_eq!(t.prefix_range(&[8, 1], Some(&mut hint)).0, 6);
        let (lo, hi) = t.prefix_range(&[9], Some(&mut hint));
        assert_eq!((lo, hi, hint), (0, 0, 3));
    }

    #[test]
    fn seek_matches_a_binary_search_on_strided_views() {
        // 1,100 keys, each value twice (10, 10, 13, 13, …), so a probe can
        // sit below, between, on, or above them; the slots between keys
        // hold noise a wrong stride would read.
        let n = 1_100usize;
        let key = |i: usize| 10 + 3 * (i / 2) as u32;
        for stride in 1..=3usize {
            let mut keys = vec![0u32; n * stride];
            for (i, slot) in keys.iter_mut().enumerate() {
                *slot = if i % stride == 0 {
                    key(i / stride)
                } else {
                    u32::MAX - i as u32
                };
            }
            for len in [0usize, 1, 32, 33, 1_000] {
                for lo in [0, 7, n - len] {
                    let hi = lo + len;
                    let mut probes = vec![0, 9, u32::MAX, key(hi.max(1) - 1) + 1];
                    for i in lo..hi {
                        probes.extend([key(i), key(i) + 1]);
                    }
                    let view: Vec<u32> = (lo..hi).map(|i| keys[i * stride]).collect();
                    for v in probes {
                        for strict in [false, true] {
                            // The reference: std's binary search with a
                            // comparator that never answers Equal, which
                            // ends on the first key not below `v`.
                            let want = lo
                                + view
                                    .binary_search_by(|&k| {
                                        if k < v || (strict && k == v) {
                                            Ordering::Less
                                        } else {
                                            Ordering::Greater
                                        }
                                    })
                                    .unwrap_err();
                            assert_eq!(
                                seek(&keys, stride, lo, hi, v, strict),
                                want,
                                "stride {stride}, {lo}..{hi}, v {v}, strict {strict}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_range_gallops_over_long_runs() {
        // 40 root keys with 60 second-level keys each, and one to three
        // rows per pair: every run is long enough to leave the linear scan.
        let mut r = Relation::new(3);
        let t = r.register_trie(plain_spec(vec![0, 1, 2]));
        for a in 0..40u32 {
            for b in 0..60u32 {
                for c in 0..=(a + b) % 3 {
                    insert(&mut r, &[2 * a, 2 * b, c]);
                }
            }
        }
        r.refresh_trie(t);
        let t = &r.tries[t];
        let rows: Vec<&[u32]> = t.data().chunks_exact(3).collect();
        let want = |key: &[u32]| {
            let lo = rows.iter().position(|row| row.starts_with(key));
            lo.map(|lo| {
                (
                    lo,
                    lo + rows[lo..]
                        .iter()
                        .take_while(|row| row.starts_with(key))
                        .count(),
                )
            })
        };
        let mut hint = 0;
        for a in 0..81u32 {
            for key in [vec![a], vec![a, 2 * a % 120], vec![a, 6, 1], vec![a, 121]] {
                let got = t.prefix_range(&key, None);
                match want(&key) {
                    Some(range) => assert_eq!(got, range, "{key:?}"),
                    None => assert_eq!(got.0, got.1, "{key:?}"),
                }
            }
            // Nondecreasing first keys: the hinted seek agrees.
            let got = t.prefix_range(&[a, 8], Some(&mut hint));
            match want(&[a, 8]) {
                Some(range) => assert_eq!(got, range),
                None => assert_eq!(got.0, got.1),
            }
            assert_eq!(hint, (a as usize).div_ceil(2));
        }
    }

    #[test]
    fn trie_refresh_matches_a_full_sort_at_widths_one_to_four() {
        // One arity-4 relation fed in chunks; projections of distinct rows
        // repeat (within a chunk and across chunks), so both chunk sorts
        // and the merge must drop repeats.
        let specs = [vec![2], vec![3, 1], vec![0, 2, 1], vec![3, 2, 1, 0]];
        let mut r = Relation::new(4);
        let slots: Vec<usize> = specs
            .iter()
            .map(|cols| r.register_trie(plain_spec(cols.clone())))
            .collect();
        let mut x = 7u32;
        for chunk in 0..6 {
            for _ in 0..40 * chunk + 1 {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                let v = x >> 16;
                insert(&mut r, &[v % 5, v % 7, v % 3, (v / 7) % 4]);
            }
            for (cols, &t) in specs.iter().zip(&slots) {
                r.refresh_trie(t);
                let mut want: Vec<Vec<u32>> = (0..r.len() as u32)
                    .map(|i| cols.iter().map(|&c| r.row(i)[c]).collect())
                    .collect();
                want.sort_unstable();
                want.dedup();
                let trie = &r.tries[t];
                assert_eq!(trie.data(), want.concat(), "width {}", cols.len());
                assert_eq!(trie.len(), want.len());
                let mut dir0: Vec<u32> = want.iter().map(|row| row[0]).collect();
                dir0.dedup();
                let starts: Vec<u32> = dir0
                    .iter()
                    .map(|&k| want.iter().position(|row| row[0] == k).unwrap() as u32)
                    .chain([want.len() as u32])
                    .collect();
                assert_eq!(trie.dir0(), dir0);
                assert_eq!(trie.dir0_start(), starts);
            }
        }
    }

    #[test]
    fn key_sort_is_a_stable_sort_by_the_key_columns() {
        // Arity-3 rows whose columns draw from pools of 24 values with
        // 1–4 significant bytes (every byte varies, and keys repeat, so
        // ties are common) plus 0, and `u32::MAX - 1` in the 4-byte
        // pools. For keys of 0–3 columns the order must be the stable
        // sort's, ties in row order.
        // One `KeySort` serves every case, as one serves an evaluation.
        let mut x = 5u32;
        let mut rand = move || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            x.rotate_left(15)
        };
        let mut sort = KeySort::default();
        let mut check = |data: &[u32], cols: &[usize]| {
            let mut want: Vec<u32> = (0..(data.len() / 3) as u32).collect();
            let key =
                |r: u32| -> Vec<u32> { cols.iter().map(|&c| data[r as usize * 3 + c]).collect() };
            want.sort_by_key(|&r| key(r));
            sort.sort(data, 3, data.len() / 3, cols);
            assert_eq!(sort.order(), want, "cols {cols:?}, {} rows", data.len() / 3);
            let keys: Vec<u32> = want.iter().flat_map(|&r| key(r)).collect();
            assert_eq!(sort.keys(), keys);
        };
        for bytes in [[1, 1, 1], [2, 1, 3], [3, 4, 2], [4, 2, 1]] {
            let pools: Vec<Vec<u32>> = bytes
                .iter()
                .map(|&b| {
                    let mut pool: Vec<u32> = (0..24).map(|_| rand() >> (32 - 8 * b)).collect();
                    pool.push(0);
                    if b == 4 {
                        pool.push(u32::MAX - 1);
                    }
                    pool
                })
                .collect();
            for rows in [0usize, 1, 2, 700, 3000] {
                let data: Vec<u32> = (0..rows * 3)
                    .map(|i| {
                        let pool = &pools[i % 3];
                        pool[rand() as usize % pool.len()]
                    })
                    .collect();
                for cols in [&[][..], &[0], &[2], &[1, 2], &[2, 0], &[2, 0, 1]] {
                    check(&data, cols);
                }
            }
        }
        // All-equal keys keep row order whatever the value.
        for v in [0, 7, 0x1234_5678, u32::MAX - 1] {
            let mut data = vec![v; 3 * 500];
            data.iter_mut()
                .skip(1)
                .step_by(3)
                .enumerate()
                .for_each(|(i, d)| *d = i as u32);
            check(&data, &[0]);
            check(&data, &[2, 0]);
            check(&data, &[1, 0]);
        }
    }
}
