//! Persistent arena snapshots: a compact, versioned, checksummed binary
//! format for warm-starting the interner and memo tables from disk.
//!
//! The hash-consing arena is already snapshot-shaped: ids are dense `u32`s
//! minted bottom-up, so children always precede parents, and every cached
//! fact about a node (metadata, hash-cons index entry, canonical id) is a
//! *deterministic* function of the node-key column. A snapshot therefore
//! persists only the key column (plus the memo entries keyed on it) and
//! **replays** it on load through the same insertion path the arena used
//! originally — re-deriving metadata and the hash-cons index, and leaving
//! pointer caches to refill lazily. Replay preserves ids exactly, which is
//! what keeps the persisted `(TermId, TermId, fuel)` memo keys valid and
//! makes `canon_id(t) == canon_id(u) ⟺ alpha_eq(t, u)` hold across a
//! save/load boundary (pinned by `tests/snap_props.rs`).
//!
//! # Container layout
//!
//! ```text
//! magic "LJSN" · version u32-le · section*            (no global trailer)
//! section := tag u16-le · payload-len varint · payload · checksum u64-le
//! ```
//!
//! Sections arrive in a fixed, kind-specific order and every payload is
//! covered by an xxhash-style 64-bit checksum, so corruption — bit flips,
//! truncation, a stale version, sections out of order — is rejected with a
//! typed [`SnapError`] before any state is built; a failed load never
//! yields partial state. Integers inside payloads are LEB128 varints
//! (`u32` columns of small ids pack to 1–2 bytes each).
//!
//! One memo format is defined here: an interner section followed by a
//! memo section ([`save_memo`]/[`load_memo`], used by `MemoEval`). The
//! server's shared memo checkpoints in the same format
//! ([`save_shared`]/[`load_shared`]: the recent working set, compacted
//! first), and [`load_shared`] also reads the older shared layout, whose
//! memo rows index a structural arena, by re-canonicalising them. The raw
//! section API ([`Writer`]/[`Reader`]) is what other crates build on (the
//! Datalog store snapshot and the seminaive-engine snapshot live with
//! their data structures and embed interner/table sections from here).

use std::fmt;
use std::io;
use std::path::Path;

use crate::intern::{InternTable, Interner, Survivor, TermId};
use crate::sharded::SharedInternTable;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"LJSN";

/// The current format version. Bump on any incompatible layout change;
/// loads of other versions fail with [`SnapError::Version`].
pub const VERSION: u32 = 1;

/// Well-known section tags. Readers demand sections in a fixed order, so
/// the tags double as a structural check: a payload of the wrong kind in
/// the right place still fails its own decoder, and a section in the
/// wrong place fails with [`SnapError::SectionOrder`].
pub mod tag {
    /// An [`Interner`](crate::intern::Interner) key column.
    pub const INTERNER: u16 = 1;
    /// [`InternTable`](crate::intern::InternTable) memo entries over the
    /// preceding interner section.
    pub const MEMO: u16 = 2;
    /// Memo entries over a preceding *structural* interner section: the
    /// layout shared-memo checkpoints had before they moved to
    /// [`MEMO`]. Read (re-canonicalised), never written.
    pub const SHARED_MEMO: u16 = 3;
    /// Seminaive-engine resume state (payload defined in
    /// `lambda-join-runtime`).
    pub const ENGINE: u16 = 4;
    /// Datalog constant table (payload defined in `lambda-join-datalog`).
    pub const DL_CONSTS: u16 = 16;
    /// Datalog relations (payload defined in `lambda-join-datalog`).
    pub const DL_RELS: u16 = 17;
}

/// Why a snapshot failed to save or load. Corrupt inputs are always
/// reported through one of these variants — never a panic, never
/// silently partial state.
#[derive(Debug)]
pub enum SnapError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the [`MAGIC`] bytes.
    BadMagic,
    /// The file's format version is not [`VERSION`].
    Version {
        /// The version recorded in the file.
        found: u32,
    },
    /// The input ended before a complete header, section, or field.
    Truncated,
    /// A section's payload does not match its recorded checksum.
    Checksum {
        /// The tag of the damaged section.
        section: u16,
    },
    /// A section arrived out of the order its snapshot kind requires.
    SectionOrder {
        /// The tag the reader demanded here.
        expected: u16,
        /// The tag actually found.
        found: u16,
    },
    /// A payload decoded to structurally invalid data (an out-of-range
    /// id, an unknown variant, a count that exceeds the payload, …).
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::Version { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {VERSION})"
                )
            }
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Checksum { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapError::SectionOrder { expected, found } => {
                write!(f, "section order: expected tag {expected}, found {found}")
            }
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapError {
    fn from(e: io::Error) -> SnapError {
        SnapError::Io(e)
    }
}

/// An xxhash-style 64-bit checksum: one multiply–rotate lane over 8-byte
/// words plus an avalanche finaliser. Not cryptographic — the threat
/// model is torn writes and bit rot, not adversaries — but every
/// single-bit flip in a payload changes the digest.
pub fn checksum(data: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let mut h = P5 ^ (data.len() as u64);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let k = u64::from_le_bytes(c.try_into().expect("8-byte chunk")).wrapping_mul(P2);
        h = (h ^ k.rotate_left(31).wrapping_mul(P1))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P3);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------------
// Varint payload codec
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_v64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a `u32` as a LEB128 varint (the id-column workhorse).
pub fn put_v32(buf: &mut Vec<u8>, v: u32) {
    put_v64(buf, u64::from(v));
}

/// Appends an `i64` zig-zag-encoded varint (for integer symbols).
pub fn put_zig(buf: &mut Vec<u8>, v: i64) {
    put_v64(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_v64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over one section payload. Every read returns
/// [`SnapError::Truncated`] on underrun instead of panicking, and counts
/// are validated against the remaining bytes before any allocation, so a
/// corrupt length can neither overread nor balloon memory.
pub struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Wraps a payload slice.
    pub fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        let b = *self.bytes.get(self.pos).ok_or(SnapError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    pub fn v64(&mut self) -> Result<u64, SnapError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(SnapError::Malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit a `u32`.
    pub fn v32(&mut self) -> Result<u32, SnapError> {
        u32::try_from(self.v64()?).map_err(|_| SnapError::Malformed("u32 overflow"))
    }

    /// Reads a varint that must fit a `usize`.
    pub fn vusize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.v64()?).map_err(|_| SnapError::Malformed("usize overflow"))
    }

    /// Reads a zig-zag-encoded `i64`.
    pub fn zig(&mut self) -> Result<i64, SnapError> {
        let v = self.v64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a count that prefixes `count * min_elem_bytes`-byte data;
    /// rejected up front if the payload cannot possibly hold it, so
    /// callers may `Vec::with_capacity(count)` safely.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.vusize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Malformed("count exceeds payload"));
        }
        Ok(n)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<&'a str, SnapError> {
        let n = self.vusize()?;
        let raw = self.bytes(n)?;
        std::str::from_utf8(raw).map_err(|_| SnapError::Malformed("invalid utf-8"))
    }

    /// Reads a little-endian `u64` (checksums and counters).
    pub fn u64_le(&mut self) -> Result<u64, SnapError> {
        let raw = self.bytes(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Asserts the payload is fully consumed — trailing garbage means the
    /// payload and its decoder disagree about the layout.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Malformed("trailing bytes in section"))
        }
    }
}

// ---------------------------------------------------------------------------
// Container writer / reader
// ---------------------------------------------------------------------------

/// Builds a snapshot: header plus length-prefixed checksummed sections.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a snapshot (writes the header).
    pub fn new() -> Writer {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        Writer { buf }
    }

    /// Appends one section: tag, payload length, payload, checksum.
    pub fn section(&mut self, tag: u16, payload: &[u8]) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        put_v64(&mut self.buf, payload.len() as u64);
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&checksum(payload).to_le_bytes());
    }

    /// The finished snapshot bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes the snapshot to `path` atomically (temp file + rename, so a
    /// crash mid-write leaves the previous snapshot intact) and returns
    /// the byte size.
    pub fn save(self, path: &Path) -> Result<u64, SnapError> {
        let bytes = self.finish();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(bytes.len() as u64)
    }
}

/// Validates a snapshot header and yields its sections in order.
pub struct Reader<'a> {
    cur: Cur<'a>,
}

impl<'a> Reader<'a> {
    /// Checks magic and version; the reader then sits before the first
    /// section.
    pub fn new(bytes: &'a [u8]) -> Result<Reader<'a>, SnapError> {
        let mut cur = Cur::new(bytes);
        if cur.remaining() < 8 {
            return Err(SnapError::Truncated);
        }
        if cur.bytes(4)? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let found = u32::from_le_bytes(cur.bytes(4)?.try_into().expect("4 bytes"));
        if found != VERSION {
            return Err(SnapError::Version { found });
        }
        Ok(Reader { cur })
    }

    /// Reads the next section, which must carry `expected_tag` (snapshot
    /// kinds fix their section order), verifies its checksum, and returns
    /// a cursor over the payload.
    pub fn section(&mut self, expected_tag: u16) -> Result<Cur<'a>, SnapError> {
        let raw_tag = self.cur.bytes(2)?;
        let found = u16::from_le_bytes(raw_tag.try_into().expect("2 bytes"));
        if found != expected_tag {
            return Err(SnapError::SectionOrder {
                expected: expected_tag,
                found,
            });
        }
        let len = self.cur.vusize()?;
        if self.cur.remaining() < len + 8 {
            return Err(SnapError::Truncated);
        }
        let payload = self.cur.bytes(len)?;
        let recorded = self.cur.u64_le()?;
        if checksum(payload) != recorded {
            return Err(SnapError::Checksum { section: found });
        }
        Ok(Cur::new(payload))
    }

    /// The tag of the next section, without consuming it (`None` at the
    /// end or before a truncated tag).
    fn peek_tag(&self) -> Option<u16> {
        let rest = &self.cur.bytes[self.cur.pos..];
        Some(u16::from_le_bytes(rest.get(..2)?.try_into().ok()?))
    }

    /// Whether all sections have been consumed.
    pub fn at_end(&self) -> bool {
        self.cur.remaining() == 0
    }

    /// Asserts all sections have been consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(SnapError::Malformed("trailing bytes after last section"))
        }
    }
}

// ---------------------------------------------------------------------------
// Interner and memo sections
// ---------------------------------------------------------------------------

/// Encodes an [`Interner`]'s node-key column as a [`tag::INTERNER`]
/// section: the complete arena in id order, children before parents.
pub fn write_interner(w: &mut Writer, it: &Interner) {
    let mut p = Vec::with_capacity(it.len() * 4 + 8);
    put_v64(&mut p, it.len() as u64);
    for i in 0..it.len() {
        it.snap_encode_key(TermId::from_raw(i as u32), &mut p);
    }
    w.section(tag::INTERNER, &p);
}

/// Decodes a [`tag::INTERNER`] section by replaying each key through the
/// arena's insertion path — metadata and the hash-cons index are
/// recomputed, ids come out exactly as saved. Out-of-range children,
/// unknown variants, and duplicate keys are rejected.
pub fn read_interner(r: &mut Reader<'_>) -> Result<Interner, SnapError> {
    let mut cur = r.section(tag::INTERNER)?;
    let n = cur.count(1)?;
    let mut it = Interner::new();
    for _ in 0..n {
        it.snap_decode_push(&mut cur)?;
    }
    cur.expect_end()?;
    Ok(it)
}

/// One memo row: the `(function, argument, fuel)` key, the result id,
/// the exhaustion flag, and the recency stamp. Ids index the interner
/// section written alongside.
type MemoRow = ((TermId, TermId, usize), (TermId, bool, u64));

/// Encodes a [`tag::MEMO`] section: hit/miss counters, the generation
/// clock, then the rows.
fn write_memo_rows(
    w: &mut Writer,
    (hits, misses): (usize, usize),
    generation: u64,
    rows: &[MemoRow],
) {
    let mut p = Vec::with_capacity(rows.len() * 8 + 24);
    put_v64(&mut p, hits as u64);
    put_v64(&mut p, misses as u64);
    put_v64(&mut p, generation);
    put_v64(&mut p, rows.len() as u64);
    for &((f, a, fuel), (res, exhausted, stamp)) in rows {
        put_v32(&mut p, f.raw());
        put_v32(&mut p, a.raw());
        put_v64(&mut p, fuel as u64);
        put_v32(&mut p, res.raw());
        p.push(u8::from(exhausted));
        put_v64(&mut p, stamp);
    }
    w.section(tag::MEMO, &p);
}

/// Decodes a memo section (`tag::MEMO`, or the legacy `tag::SHARED_MEMO`
/// with the same layout) written by [`write_memo_rows`], passing each
/// row to `row` in order; every id is range-checked against an interner
/// of `arena_len` nodes. Returns `(hits, misses, generation)`.
fn read_memo_rows(
    r: &mut Reader<'_>,
    tag: u16,
    arena_len: usize,
    mut row: impl FnMut(MemoRow),
) -> Result<(usize, usize, u64), SnapError> {
    let mut cur = r.section(tag)?;
    let hits = cur.vusize()?;
    let misses = cur.vusize()?;
    let generation = cur.v64()?;
    let n = cur.count(6)?;
    let check = |raw: u32| -> Result<TermId, SnapError> {
        if (raw as usize) < arena_len {
            Ok(TermId::from_raw(raw))
        } else {
            Err(SnapError::Malformed("memo id out of range"))
        }
    };
    for _ in 0..n {
        let f = check(cur.v32()?)?;
        let a = check(cur.v32()?)?;
        let fuel = cur.vusize()?;
        let res = check(cur.v32()?)?;
        let exhausted = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapError::Malformed("bad exhausted flag")),
        };
        let stamp = cur.v64()?;
        row(((f, a, fuel), (res, exhausted, stamp)));
    }
    cur.expect_end()?;
    Ok((hits, misses, generation))
}

/// Encodes an [`InternTable`]'s memo entries as a [`tag::MEMO`] section
/// (keys are ids of the interner section written alongside). Entries are
/// sorted by key so equal tables produce identical bytes.
pub fn write_table(w: &mut Writer, t: &InternTable) {
    let mut rows = t.snap_entries();
    rows.sort_unstable_by_key(|(key, _)| *key);
    write_memo_rows(w, t.stats(), t.generation(), &rows);
}

/// Decodes a [`tag::MEMO`] section against the interner it was saved
/// with; every id is range-checked.
pub fn read_table(r: &mut Reader<'_>, it: &Interner) -> Result<InternTable, SnapError> {
    let mut t = InternTable::new();
    let (hits, misses, generation) = read_memo_rows(
        r,
        tag::MEMO,
        it.len(),
        |((f, a, fuel), (res, ex, stamp))| t.snap_insert(f, a, fuel, res, ex, stamp),
    )?;
    t.snap_set_counters(hits, misses, generation);
    Ok(t)
}

// ---------------------------------------------------------------------------
// Owned memo snapshots (MemoEval)
// ---------------------------------------------------------------------------

/// An owned memo — arena plus [`InternTable`] — as snapshot sections.
fn memo_writer(it: &Interner, t: &InternTable) -> Writer {
    let mut w = Writer::new();
    write_interner(&mut w, it);
    write_table(&mut w, t);
    w
}

/// Serialises an owned memo — arena plus [`InternTable`] — to bytes.
pub fn memo_to_bytes(it: &Interner, t: &InternTable) -> Vec<u8> {
    memo_writer(it, t).finish()
}

/// Loads an owned memo from bytes. Ids — including every memo key — come
/// back exactly as saved, so warm probes hit without re-deriving
/// anything.
pub fn memo_from_bytes(bytes: &[u8]) -> Result<(Interner, InternTable), SnapError> {
    let mut r = Reader::new(bytes)?;
    let it = read_interner(&mut r)?;
    let t = read_table(&mut r, &it)?;
    r.expect_end()?;
    Ok((it, t))
}

/// Saves an owned memo to `path` (atomically); returns the byte size.
pub fn save_memo(it: &Interner, t: &InternTable, path: &Path) -> Result<u64, SnapError> {
    memo_writer(it, t).save(path)
}

/// Loads an owned memo from `path`.
pub fn load_memo(path: &Path) -> Result<(Interner, InternTable), SnapError> {
    memo_from_bytes(&std::fs::read(path)?)
}

// ---------------------------------------------------------------------------
// Shared memo snapshots (lambdav serve)
// ---------------------------------------------------------------------------

/// A [`SharedInternTable`]'s working set as a memo snapshot: the entries
/// touched within the last `keep_last` generations (the same recency
/// window the server GC uses — pass `u64::MAX` to keep everything),
/// compacted into a fresh arena first, so a checkpoint's size tracks the
/// hot working set, not the unbounded process-lifetime arena.
fn shared_writer(table: &SharedInternTable, keep_last: u64) -> Writer {
    let compacted = table.collected(keep_last);
    let mut guard = compacted.interner();
    let (it, t) = guard.parts();
    memo_writer(it, t)
}

/// Serialises a [`SharedInternTable`]'s working set to bytes (see
/// [`save_shared`]).
pub fn shared_to_bytes(table: &SharedInternTable, keep_last: u64) -> Vec<u8> {
    shared_writer(table, keep_last).finish()
}

/// Restores a [`SharedInternTable`] from bytes: a memo snapshot comes back
/// with its ids exactly as saved; a legacy [`tag::SHARED_MEMO`] checkpoint
/// has every entry's terms extracted from its structural arena and
/// canonically re-interned. Either way the restored table answers exactly
/// the probes the saved one did — generation counter and hit/miss
/// statistics included.
pub fn shared_from_bytes(bytes: &[u8]) -> Result<SharedInternTable, SnapError> {
    let mut r = Reader::new(bytes)?;
    let mut arena = read_interner(&mut r)?;
    let (it, t) = if r.peek_tag() == Some(tag::SHARED_MEMO) {
        let mut survivors = Vec::new();
        let (hits, misses, generation) = read_memo_rows(
            &mut r,
            tag::SHARED_MEMO,
            arena.len(),
            |((f, a, fuel), (res, exhausted, stamp))| {
                survivors.push(Survivor {
                    f: arena.extract(f),
                    a: arena.extract(a),
                    fuel,
                    r: arena.extract(res),
                    exhausted,
                    stamp,
                });
            },
        )?;
        let mut t = InternTable::new();
        t.snap_set_counters(hits, misses, generation);
        let mut it = Interner::new();
        t.adopt(survivors, &mut it);
        (it, t)
    } else {
        let t = read_table(&mut r, &arena)?;
        (arena, t)
    };
    r.expect_end()?;
    Ok(SharedInternTable::from_parts(it, t))
}

/// Checkpoints a shared memo's recent working set to `path` (atomically);
/// returns the byte size.
pub fn save_shared(
    table: &SharedInternTable,
    keep_last: u64,
    path: &Path,
) -> Result<u64, SnapError> {
    shared_writer(table, keep_last).save(path)
}

/// Loads a shared memo checkpoint from `path`.
pub fn load_shared(path: &Path) -> Result<SharedInternTable, SnapError> {
    shared_from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::engine::IdBetaTable;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_v64(&mut buf, v);
        }
        put_zig(&mut buf, -5);
        put_zig(&mut buf, i64::MIN);
        put_str(&mut buf, "héllo\u{1}0");
        let mut cur = Cur::new(&buf);
        for &v in &vals {
            assert_eq!(cur.v64().unwrap(), v);
        }
        assert_eq!(cur.zig().unwrap(), -5);
        assert_eq!(cur.zig().unwrap(), i64::MIN);
        assert_eq!(cur.str_().unwrap(), "héllo\u{1}0");
        cur.expect_end().unwrap();
    }

    #[test]
    fn empty_memo_round_trips() {
        let it = Interner::new();
        let t = InternTable::new();
        let bytes = memo_to_bytes(&it, &t);
        let (it2, t2) = memo_from_bytes(&bytes).unwrap();
        assert_eq!(it2.len(), 0);
        assert!(t2.is_empty());
    }

    #[test]
    fn memo_round_trip_preserves_ids_and_entries() {
        let mut it = Interner::new();
        let mut t = InternTable::new();
        let f = it.canon_id(&lam("x", app(var("x"), add(var("x"), int(1)))));
        let a = it.canon_id(&int(42));
        let r = it.canon_id(&set(vec![int(1), int(2)]));
        t.store(f, a, 9, r, false);
        let bytes = memo_to_bytes(&it, &t);
        let (mut it2, mut t2) = memo_from_bytes(&bytes).unwrap();
        assert_eq!(it2.len(), it.len());
        // Same canonical ids come back for freshly interned trees.
        assert_eq!(
            it2.canon_id(&lam("y", app(var("y"), add(var("y"), int(1))))),
            f
        );
        assert_eq!(t2.lookup(f, a, 9), Some((r, false)));
        // The restored result extracts to the saved tree.
        assert!(it2.extract(r).alpha_eq(&set(vec![int(1), int(2)])));
    }

    #[test]
    fn truncated_prefixes_never_panic() {
        let mut it = Interner::new();
        let mut t = InternTable::new();
        let f = it.canon_id(&lam("x", var("x")));
        let a = it.canon_id(&int(7));
        t.store(f, a, 3, a, true);
        let bytes = memo_to_bytes(&it, &t);
        for n in 0..bytes.len() {
            assert!(
                memo_from_bytes(&bytes[..n]).is_err(),
                "prefix of {n} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let mut it = Interner::new();
        let mut t = InternTable::new();
        let f = it.canon_id(&lam("x", pair(var("x"), name("ok"))));
        let a = it.canon_id(&int(5));
        t.store(f, a, 4, a, false);
        let bytes = memo_to_bytes(&it, &t);
        for i in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    memo_from_bytes(&bad).is_err(),
                    "flip at byte {i} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn wrong_version_and_magic_are_typed() {
        let bytes = memo_to_bytes(&Interner::new(), &InternTable::new());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(memo_from_bytes(&bad), Err(SnapError::BadMagic)));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            memo_from_bytes(&bad),
            Err(SnapError::Version { found: 99 })
        ));
    }

    #[test]
    fn section_order_is_enforced() {
        // A memo snapshot with its two sections swapped.
        let mut it = Interner::new();
        let t = InternTable::new();
        let _ = it.canon_id(&int(1));
        let mut w = Writer::new();
        write_table(&mut w, &t);
        write_interner(&mut w, &it);
        assert!(matches!(
            memo_from_bytes(&w.finish()),
            Err(SnapError::SectionOrder { .. })
        ));
    }

    #[test]
    fn shared_round_trip_preserves_probes_and_stats() {
        let table = SharedInternTable::new();
        table.begin_generation();
        let f = lam("x", join(var("x"), int(1)));
        let a = int(10);
        let r = set(vec![int(10), int(1)]);
        table.store(&f, &a, 8, &r, false);
        assert!(table.lookup(&f, &a, 8).is_some());
        let (h0, m0) = table.stats();
        let bytes = shared_to_bytes(&table, u64::MAX);
        // The checkpoint is an ordinary memo snapshot.
        let (_, owned) = memo_from_bytes(&bytes).unwrap();
        assert_eq!(owned.len(), 1);
        let loaded = shared_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.stats(), (h0, m0));
        assert_eq!(loaded.generation(), table.generation());
        let hit = loaded.lookup(&lam("y", join(var("y"), int(1))), &a, 8);
        let (res, exhausted) = hit.expect("restored entry answers alpha-variant probe");
        assert!(!exhausted);
        assert!(res.alpha_eq(&r));
    }

    #[test]
    fn shared_checkpoint_respects_recency_window() {
        let table = SharedInternTable::new();
        table.begin_generation(); // gen 1
        table.store(&lam("x", var("x")), &int(1), 4, &int(1), false);
        for _ in 0..10 {
            table.begin_generation();
        }
        table.store(&lam("x", var("x")), &int(2), 4, &int(2), false);
        let hot = shared_from_bytes(&shared_to_bytes(&table, 2)).unwrap();
        assert_eq!(hot.len(), 1, "only the recent entry survives");
        let all = shared_from_bytes(&shared_to_bytes(&table, u64::MAX)).unwrap();
        assert_eq!(all.len(), 2);
    }
}
