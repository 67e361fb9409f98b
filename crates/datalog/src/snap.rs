//! Persistent snapshots of the id-native fact store.
//!
//! Reuses the container format of `lambda-join-core`'s
//! [`snap`](lambda_join_core::snap) module — magic, version, checksummed
//! length-prefixed sections, varint-packed `u32` columns — with two
//! Datalog-specific sections: the constant table
//! ([`tag::DL_CONSTS`](lambda_join_core::snap::tag)) and the relations
//! ([`tag::DL_RELS`](lambda_join_core::snap::tag)).
//!
//! A relation's *data* — name, arity, row count, flat tuple column — is
//! always stored. Its membership table splits by the `store_derived` flag
//! passed to [`IdDatabase::save`]:
//!
//! * **stored** — the open-addressed table, as its size and occupied
//!   `(slot, row)` pairs, is reassembled verbatim on load: more bytes, no
//!   rebuild CPU;
//! * **rebuilt** — on load the table is re-derived by replaying rows in
//!   insertion order, which lands on the byte-identical table (the
//!   rebuild recipe is exactly the incremental-growth recipe).
//!
//! Nothing else is stored: an evaluated [`IdDatabase`] carries no tries
//! (only evaluation reads them), so a loaded one needs none. Relations
//! sections written when they also held index buckets and trie specs
//! carried an older tag and fail with [`SnapError::SectionOrder`].
//! `figures -- perf` measures both modes (`snapshot_load_ns` for stored,
//! `snapshot_load_rebuild_ns` for rebuilt).
//!
//! Corrupt input — bit flips, truncation, a bad version, out-of-range
//! constant ids or row indexes, a membership table of any size but the
//! one a rebuild would make, more than one row in a zero-arity relation
//! — is rejected with a typed [`SnapError`]; a failed load never yields a
//! partially-filled database.

use std::path::Path;

pub use lambda_join_core::snap::SnapError;
use lambda_join_core::snap::{put_str, put_v64, put_zig, tag, Reader, Writer};

use crate::ast::Const;
use crate::store::{IdDatabase, Relation, EMPTY};

/// Serialises the database to snapshot bytes. With `store_derived`, the
/// membership tables are stored verbatim; otherwise they are rebuilt on
/// load.
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
        if arity == 0 && rows > 1 {
            return Err(SnapError::Malformed(
                "zero-arity relation with several rows",
            ));
        }
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
        let slots = if store_derived {
            // Every writer stores the table a rebuild of `rows` rows
            // makes; any other size is either overfull or an unbounded
            // allocation whose probes miss rows that are present.
            let slots_len = cur.vusize()?;
            if slots_len != Relation::natural_slot_len(rows) {
                return Err(SnapError::Malformed("bad membership table size"));
            }
            let mut slots = vec![EMPTY; slots_len];
            for _ in 0..rows {
                let pos = cur.vusize()?;
                let row = cur.v32()?;
                if (row as usize) >= rows {
                    return Err(SnapError::Malformed("row index out of range"));
                }
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
        rels.push(Relation::from_parts(arity, data, rows, slots));
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

    /// A snapshot of one constant (`0`) and the given relations payload
    /// under `rels_tag`, with valid checksums.
    fn wrap(rels_tag: u16, rels: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.section(tag::DL_CONSTS, &[1, 0, 0]);
        w.section(rels_tag, rels);
        w.finish()
    }

    /// A relations payload holding one relation `a` of the given arity.
    fn one_relation(store_derived: bool, arity: u64, rows: u64, rest: &[u64]) -> Vec<u8> {
        let mut p = vec![u8::from(store_derived)];
        put_v64(&mut p, 1);
        put_str(&mut p, "a");
        put_v64(&mut p, arity);
        put_v64(&mut p, rows);
        for &v in rest {
            put_v64(&mut p, v);
        }
        p
    }

    #[test]
    fn hand_built_relations_payload_matches_the_writer() {
        // The relations section is name, arity, rows and data, plus the
        // membership table in stored mode: nothing else.
        let bytes = wrap(tag::DL_RELS, &one_relation(false, 1, 1, &[0]));
        let (db, _) = eval_ids(&parse_program("a(0).").unwrap(), Strategy::Seminaive);
        assert_eq!(db.to_snapshot_bytes(false), bytes);
        let back = from_bytes(&bytes).unwrap();
        assert!(back.contains("a", &[Const::Int(0)]));
        assert_eq!(back.to_snapshot_bytes(true), db.to_snapshot_bytes(true));
    }

    #[test]
    fn oversized_membership_table_is_rejected() {
        // A checksummed file whose one-row table claims 2^24 slots: every
        // writer stores the natural 8, so the size alone is malformed (it
        // used to load, allocate 64 MiB, and then miss the row).
        let bytes = wrap(tag::DL_RELS, &one_relation(true, 1, 1, &[0, 1 << 24, 0, 0]));
        assert!(matches!(from_bytes(&bytes), Err(SnapError::Malformed(_))));
        // A smaller, still power-of-two table is as wrong.
        let bytes = wrap(tag::DL_RELS, &one_relation(true, 1, 1, &[0, 16, 3, 0]));
        assert!(matches!(from_bytes(&bytes), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn zero_arity_relation_with_several_rows_is_rejected() {
        for store_derived in [false, true] {
            let bytes = wrap(
                tag::DL_RELS,
                &one_relation(store_derived, 0, 2, &[8, 0, 0, 1, 1]),
            );
            assert!(
                matches!(from_bytes(&bytes), Err(SnapError::Malformed(_))),
                "derived={store_derived}"
            );
        }
        let one = wrap(tag::DL_RELS, &one_relation(false, 0, 1, &[]));
        assert_eq!(from_bytes(&one).unwrap().fact_count("a"), 1);
    }

    #[test]
    fn relations_section_of_the_index_carrying_layout_fails_with_section_order() {
        // Tag 17 held relations together with index buckets and trie
        // specs; such a file now fails on its tag, before any decoding.
        let bytes = wrap(17, &one_relation(false, 1, 1, &[0, 0, 0]));
        match from_bytes(&bytes) {
            Err(SnapError::SectionOrder { expected, found }) => {
                assert_eq!((expected, found), (tag::DL_RELS, 17));
            }
            other => panic!("expected SectionOrder, got {other:?}"),
        }
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
