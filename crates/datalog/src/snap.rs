//! Persistent snapshots of the id-native fact store.
//!
//! Reuses the container format of `lambda-join-core`'s
//! [`snap`](lambda_join_core::snap) module — magic, version, checksummed
//! length-prefixed sections, varint-packed `u32` columns — with two
//! Datalog-specific sections: the constant table
//! ([`tag::DL_CONSTS`](lambda_join_core::snap::tag)) and the relations
//! ([`tag::DL_RELS`](lambda_join_core::snap::tag)).
//!
//! A relation's *data* — name, arity, flat tuple column — is always
//! stored. Its *derived* structures split by the `store_derived` flag
//! passed to [`IdDatabase::save`]:
//!
//! * **stored** — the open-addressed membership table (as occupied
//!   `(slot, row)` pairs) and every hash index's buckets are written out
//!   and reassembled verbatim on load: more bytes, no rebuild CPU;
//! * **rebuilt** — only the index *column sets* are written; on load the
//!   membership table and index maps are re-derived by replaying rows in
//!   insertion order, which lands on byte-identical structures (the
//!   rebuild recipe is exactly the incremental-growth recipe).
//!
//! Sorted-column tries are stored as their specs in both modes and catch
//! up lazily on their first refresh — the same staleness contract
//! they already honour when registered after population. `figures --
//! perf` measures both modes (`snapshot_load_ns` for stored,
//! `snapshot_load_rebuild_ns` for rebuilt).
//!
//! Corrupt input — bit flips, truncation, a bad version, out-of-range
//! constant ids or row indexes, an overfull membership table — is
//! rejected with a typed [`SnapError`]; a failed load never yields a
//! partially-filled database.

use std::path::Path;

pub use lambda_join_core::snap::SnapError;
use lambda_join_core::snap::{put_str, put_v64, put_zig, tag, Cur, Reader, Writer};

use crate::ast::Const;
use crate::store::{ColIndex, IdDatabase, Relation, TrieSpec, EMPTY};

/// Serialises the database to snapshot bytes. With `store_derived`, the
/// membership tables and hash-index buckets are stored verbatim;
/// otherwise they are rebuilt on load.
pub fn to_bytes(db: &IdDatabase, store_derived: bool) -> Vec<u8> {
    let mut w = Writer::new();
    let mut p = Vec::new();
    put_v64(&mut p, db.consts.len() as u64);
    for c in &db.consts {
        match c {
            Const::Int(n) => {
                p.push(0);
                put_zig(&mut p, *n);
            }
            Const::Str(s) => {
                p.push(1);
                put_str(&mut p, s);
            }
        }
    }
    w.section(tag::DL_CONSTS, &p);

    let mut p = Vec::new();
    p.push(u8::from(store_derived));
    put_v64(&mut p, db.rels.len() as u64);
    for (rel, name) in db.rels.iter().zip(&db.names) {
        put_str(&mut p, name);
        put_v64(&mut p, rel.arity as u64);
        put_v64(&mut p, rel.len() as u64);
        for &v in &rel.data {
            put_v64(&mut p, u64::from(v));
        }
        put_v64(&mut p, rel.indexes.len() as u64);
        for ix in &rel.indexes {
            put_v64(&mut p, ix.cols.len() as u64);
            for &c in &ix.cols {
                put_v64(&mut p, c as u64);
            }
            if store_derived {
                let buckets = ix.snap_buckets();
                put_v64(&mut p, buckets.len() as u64);
                for (h, rows) in buckets {
                    p.extend_from_slice(&h.to_le_bytes());
                    put_v64(&mut p, rows.len() as u64);
                    for &r in rows {
                        put_v64(&mut p, u64::from(r));
                    }
                }
            }
        }
        if store_derived {
            let slots = rel.snap_slots();
            put_v64(&mut p, slots.len() as u64);
            for (pos, &s) in slots.iter().enumerate() {
                if s != EMPTY {
                    put_v64(&mut p, pos as u64);
                    put_v64(&mut p, u64::from(s));
                }
            }
        }
        put_v64(&mut p, rel.tries.len() as u64);
        for t in &rel.tries {
            let spec = &t.spec;
            put_v64(&mut p, spec.cols.len() as u64);
            for &c in &spec.cols {
                put_v64(&mut p, c as u64);
            }
            put_v64(&mut p, spec.consts.len() as u64);
            for &(c, k) in &spec.consts {
                put_v64(&mut p, c as u64);
                put_v64(&mut p, u64::from(k));
            }
            put_v64(&mut p, spec.eqs.len() as u64);
            for &(a, b) in &spec.eqs {
                put_v64(&mut p, a as u64);
                put_v64(&mut p, b as u64);
            }
        }
    }
    w.section(tag::DL_RELS, &p);
    w.finish()
}

/// Deserialises a database from snapshot bytes.
pub fn from_bytes(bytes: &[u8]) -> Result<IdDatabase, SnapError> {
    let mut r = Reader::new(bytes)?;
    let mut cur = r.section(tag::DL_CONSTS)?;
    let n_consts = cur.count(1)?;
    let mut consts = Vec::with_capacity(n_consts);
    for _ in 0..n_consts {
        consts.push(match cur.u8()? {
            0 => Const::Int(cur.zig()?),
            1 => Const::Str(cur.str_()?.to_string()),
            _ => return Err(SnapError::Malformed("unknown constant variant")),
        });
    }
    cur.expect_end()?;

    let mut cur = r.section(tag::DL_RELS)?;
    let store_derived = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapError::Malformed("bad derived-structures flag")),
    };
    let n_rels = cur.count(1)?;
    let mut rels = Vec::with_capacity(n_rels);
    let mut names = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let name = cur.str_()?.to_string();
        let arity = cur.vusize()?;
        let rows = cur.vusize()?;
        let n_vals = rows
            .checked_mul(arity)
            .ok_or(SnapError::Malformed("row count overflow"))?;
        if n_vals > cur.remaining() {
            return Err(SnapError::Malformed("count exceeds payload"));
        }
        let mut data = Vec::with_capacity(n_vals);
        for _ in 0..n_vals {
            let v = cur.v32()?;
            if (v as usize) >= consts.len() {
                return Err(SnapError::Malformed("constant id out of range"));
            }
            data.push(v);
        }
        let row_idx = |cur: &mut Cur<'_>| -> Result<u32, SnapError> {
            let v = cur.v32()?;
            if (v as usize) < rows {
                Ok(v)
            } else {
                Err(SnapError::Malformed("row index out of range"))
            }
        };
        let col = |cur: &mut Cur<'_>| -> Result<usize, SnapError> {
            let c = cur.vusize()?;
            if c < arity {
                Ok(c)
            } else {
                Err(SnapError::Malformed("column out of range"))
            }
        };
        let n_indexes = cur.count(1)?;
        let mut indexes = Vec::with_capacity(n_indexes);
        for _ in 0..n_indexes {
            let n_cols = cur.count(1)?;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                cols.push(col(&mut cur)?);
            }
            if store_derived {
                let n_buckets = cur.count(9)?;
                let mut buckets = Vec::with_capacity(n_buckets);
                for _ in 0..n_buckets {
                    let h = cur.u64_le()?;
                    let n = cur.count(1)?;
                    let mut bucket = Vec::with_capacity(n);
                    for _ in 0..n {
                        bucket.push(row_idx(&mut cur)?);
                    }
                    buckets.push((h, bucket));
                }
                indexes.push(ColIndex::from_buckets(cols, buckets));
            } else {
                indexes.push(ColIndex::rebuild(cols, &data, arity, rows));
            }
        }
        let slots = if store_derived {
            let slots_len = cur.vusize()?;
            if !slots_len.is_power_of_two() || rows * 4 >= slots_len * 3 {
                return Err(SnapError::Malformed("bad membership table size"));
            }
            let mut slots = vec![EMPTY; slots_len];
            for _ in 0..rows {
                let pos = cur.vusize()?;
                let row = row_idx(&mut cur)?;
                if pos >= slots_len {
                    return Err(SnapError::Malformed("slot position out of range"));
                }
                if slots[pos] != EMPTY {
                    return Err(SnapError::Malformed("duplicate slot position"));
                }
                slots[pos] = row;
            }
            Some(slots)
        } else {
            None
        };
        let n_tries = cur.count(1)?;
        let mut trie_specs = Vec::with_capacity(n_tries);
        for _ in 0..n_tries {
            let n_cols = cur.count(1)?;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                cols.push(col(&mut cur)?);
            }
            let n_consts_f = cur.count(2)?;
            let mut spec_consts = Vec::with_capacity(n_consts_f);
            for _ in 0..n_consts_f {
                let c = col(&mut cur)?;
                let k = cur.v32()?;
                if (k as usize) >= consts.len() {
                    return Err(SnapError::Malformed("constant id out of range"));
                }
                spec_consts.push((c, k));
            }
            let n_eqs = cur.count(2)?;
            let mut eqs = Vec::with_capacity(n_eqs);
            for _ in 0..n_eqs {
                eqs.push((col(&mut cur)?, col(&mut cur)?));
            }
            trie_specs.push(TrieSpec {
                cols,
                consts: spec_consts,
                eqs,
            });
        }
        rels.push(Relation::from_parts(
            arity, data, rows, slots, indexes, trie_specs,
        ));
        names.push(name);
    }
    cur.expect_end()?;
    r.expect_end()?;
    Ok(IdDatabase {
        rels,
        names,
        consts,
    })
}

impl IdDatabase {
    /// Serialises the database to snapshot bytes (see the
    /// [module docs](self) for the `store_derived` trade-off).
    pub fn to_snapshot_bytes(&self, store_derived: bool) -> Vec<u8> {
        to_bytes(self, store_derived)
    }

    /// Deserialises a database from snapshot bytes. Corrupt input is
    /// rejected with a typed [`SnapError`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<IdDatabase, SnapError> {
        from_bytes(bytes)
    }

    /// Saves the database to `path` atomically (temp file + rename);
    /// returns the snapshot's byte size.
    pub fn save(&self, path: &Path, store_derived: bool) -> Result<u64, SnapError> {
        let bytes = self.to_snapshot_bytes(store_derived);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(bytes.len() as u64)
    }

    /// Loads a database snapshot from `path`.
    pub fn load(path: &Path) -> Result<IdDatabase, SnapError> {
        from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_ids, Strategy};
    use crate::parse_program;

    fn sample_db() -> IdDatabase {
        let p = parse_program(
            "edge(0, 1). edge(1, 2). edge(2, 3). edge(3, 0). label(0, a). \
             path(X, Y) :- edge(X, Y). \
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        )
        .unwrap();
        eval_ids(&p, Strategy::Seminaive).0
    }

    #[test]
    fn round_trip_preserves_rows_both_modes() {
        let db = sample_db();
        for store_derived in [false, true] {
            let bytes = db.to_snapshot_bytes(store_derived);
            let back = IdDatabase::from_snapshot_bytes(&bytes).unwrap();
            for pred in ["edge", "path", "label"] {
                assert_eq!(
                    back.rows(pred),
                    db.rows(pred),
                    "{pred} (derived={store_derived})"
                );
            }
            assert_eq!(back.total_facts(), db.total_facts());
            assert!(back.contains("path", &[Const::Int(0), Const::Int(0)]));
            assert!(!back.contains("path", &[Const::Int(0), Const::Int(9)]));
        }
    }

    #[test]
    fn stored_and_rebuilt_loads_are_identical_snapshots() {
        // The rebuild recipe must reproduce the incremental structures:
        // loading either mode and re-saving with derived structures
        // stored must give byte-identical snapshots.
        let db = sample_db();
        let via_stored = IdDatabase::from_snapshot_bytes(&db.to_snapshot_bytes(true)).unwrap();
        let via_rebuilt = IdDatabase::from_snapshot_bytes(&db.to_snapshot_bytes(false)).unwrap();
        assert_eq!(
            via_stored.to_snapshot_bytes(true),
            via_rebuilt.to_snapshot_bytes(true)
        );
    }

    #[test]
    fn truncation_and_bit_flips_are_rejected() {
        let db = sample_db();
        let bytes = db.to_snapshot_bytes(true);
        for n in 0..bytes.len() {
            assert!(
                IdDatabase::from_snapshot_bytes(&bytes[..n]).is_err(),
                "prefix of {n} bytes must be rejected"
            );
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                IdDatabase::from_snapshot_bytes(&bad).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }
}
