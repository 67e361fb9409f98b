//! Persistent snapshots of the id-native fact store.
//!
//! Reuses the container format of `lambda-join-core`'s
//! [`snap`](lambda_join_core::snap) module — magic, version, checksummed
//! length-prefixed sections — with two Datalog-specific sections: the
//! constant table ([`tag::DL_CONSTS`](lambda_join_core::snap::tag)) and
//! the relations ([`tag::DL_RELS`](lambda_join_core::snap::tag)).
//!
//! A relation is stored as its name, arity and row count (varints) and
//! then its flat tuple column as **fixed-width little-endian** values:
//! every id is below the constant count, so each takes the fewest bytes
//! `w ∈ 1..=4` that hold `count − 1`. The reader derives `w` from the
//! constant count it has already decoded, so there is no width field to
//! trust, and decodes a column with one `chunks_exact` pass and one
//! max-scan (any id ≥ the constant count is rejected) instead of a
//! varint per value.
//!
//! Nothing else is stored. On load each relation's membership table is
//! rebuilt from its rows with the probe sequence evaluation uses, so a
//! loaded store's tables equal a derived store's slot for slot; the
//! rebuild compares colliding rows and rejects a repeated one. An
//! evaluated [`IdDatabase`] carries no tries (only evaluation reads
//! them), so a loaded one needs none. Relations sections of earlier
//! layouts (tag 17: index buckets and trie specs; tag 18: varint columns
//! and an optional stored membership table) fail with
//! [`SnapError::SectionOrder`].
//!
//! Corrupt input — bit flips, truncation, a bad version, a repeated
//! constant, out-of-range constant ids, a repeated row or relation, more
//! than one row in a zero-arity relation — is rejected with a typed
//! [`SnapError`]; a failed load never yields a partially-filled database.

use std::collections::HashSet;
use std::path::Path;

pub use lambda_join_core::snap::SnapError;
use lambda_join_core::snap::{put_str, put_v64, put_zig, tag, Reader, Writer};

use crate::ast::Const;
use crate::facts::ConstIndex;
use crate::store::{IdDatabase, Relation};

/// Bytes per stored id: the fewest that hold every id below `n_consts`.
fn id_width(n_consts: usize) -> usize {
    match n_consts {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        0x1_0001..=0x100_0000 => 3,
        _ => 4,
    }
}

fn put_ids<const W: usize>(p: &mut Vec<u8>, ids: &[u32]) {
    let start = p.len();
    p.resize(start + ids.len() * W, 0);
    for (out, &v) in p[start..].chunks_exact_mut(W).zip(ids) {
        out.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

fn get_ids<const W: usize>(raw: &[u8]) -> Vec<u32> {
    raw.chunks_exact(W)
        .map(|c| {
            let mut b = [0u8; 4];
            b[..W].copy_from_slice(c);
            u32::from_le_bytes(b)
        })
        .collect()
}

/// Serialises the database to snapshot bytes.
pub fn to_bytes(db: &IdDatabase) -> Vec<u8> {
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

    let width = id_width(db.consts.len());
    let mut p = Vec::with_capacity(
        db.rels
            .iter()
            .map(|r| 16 + r.data.len() * width)
            .sum::<usize>(),
    );
    put_v64(&mut p, db.rels.len() as u64);
    for (rel, name) in db.rels.iter().zip(&db.names) {
        put_str(&mut p, name);
        put_v64(&mut p, rel.arity as u64);
        put_v64(&mut p, rel.len() as u64);
        match width {
            1 => put_ids::<1>(&mut p, &rel.data),
            2 => put_ids::<2>(&mut p, &rel.data),
            3 => put_ids::<3>(&mut p, &rel.data),
            _ => put_ids::<4>(&mut p, &rel.data),
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
    let const_ids =
        ConstIndex::of_distinct(&consts).ok_or(SnapError::Malformed("repeated constant"))?;

    let width = id_width(n_consts);
    let mut cur = r.section(tag::DL_RELS)?;
    let n_rels = cur.count(1)?;
    let mut rels = Vec::with_capacity(n_rels);
    let mut names = Vec::with_capacity(n_rels);
    let mut seen = HashSet::with_capacity(n_rels);
    for _ in 0..n_rels {
        let name = cur.str_()?;
        let arity = cur.vusize()?;
        let rows = cur.vusize()?;
        if !seen.insert((name, arity)) {
            return Err(SnapError::Malformed("repeated relation"));
        }
        // Row indexes are `u32`s: a membership slot holds one under a
        // hash fingerprint (`Relation::from_rows`).
        if rows >= 1 << 31 {
            return Err(SnapError::Malformed("row count overflow"));
        }
        if arity == 0 && rows > 1 {
            return Err(SnapError::Malformed(
                "zero-arity relation with several rows",
            ));
        }
        let n_bytes = rows
            .checked_mul(arity)
            .and_then(|n| n.checked_mul(width))
            .ok_or(SnapError::Malformed("row count overflow"))?;
        let raw = cur.bytes(n_bytes)?;
        let data = match width {
            1 => get_ids::<1>(raw),
            2 => get_ids::<2>(raw),
            3 => get_ids::<3>(raw),
            _ => get_ids::<4>(raw),
        };
        if data.iter().max().is_some_and(|&v| v as usize >= n_consts) {
            return Err(SnapError::Malformed("constant id out of range"));
        }
        let rel =
            Relation::from_rows(arity, data, rows).ok_or(SnapError::Malformed("repeated row"))?;
        rels.push(rel);
        names.push(name.to_string());
    }
    cur.expect_end()?;
    r.expect_end()?;
    Ok(IdDatabase {
        rels,
        names,
        consts,
        const_ids,
    })
}

impl IdDatabase {
    /// Serialises the database to snapshot bytes. `_store_derived` is
    /// inert: both values write the same bytes (membership tables are
    /// always rebuilt on load, see the [module docs](self)); the
    /// parameter stays for callers that still pass it.
    pub fn to_snapshot_bytes(&self, _store_derived: bool) -> Vec<u8> {
        to_bytes(self)
    }

    /// Deserialises a database from snapshot bytes. Corrupt input is
    /// rejected with a typed [`SnapError`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<IdDatabase, SnapError> {
        from_bytes(bytes)
    }

    /// Saves the database to `path` atomically (temp file + rename);
    /// returns the snapshot's byte size. `_store_derived` is inert, as in
    /// [`IdDatabase::to_snapshot_bytes`].
    pub fn save(&self, path: &Path, _store_derived: bool) -> Result<u64, SnapError> {
        let bytes = to_bytes(self);
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
        let bytes = db.to_snapshot_bytes(false);
        assert_eq!(db.to_snapshot_bytes(true), bytes);
        let back = IdDatabase::from_snapshot_bytes(&bytes).unwrap();
        for pred in ["edge", "path", "label"] {
            assert_eq!(back.rows(pred), db.rows(pred), "{pred}");
        }
        assert_eq!(back.total_facts(), db.total_facts());
        assert!(back.contains("path", &[Const::Int(0), Const::Int(0)]));
        assert!(!back.contains("path", &[Const::Int(0), Const::Int(9)]));
        assert_eq!(back.to_snapshot_bytes(false), bytes);
    }

    /// `contains` against `rows`: every present tuple is found, and
    /// tuples with a wrong value, an unknown constant or the wrong arity
    /// are not.
    fn contains_agrees_with_rows(db: &IdDatabase) {
        for pred in db.relation_names() {
            let rows = db.rows(&pred);
            for row in &rows {
                assert!(db.contains(&pred, row), "{pred}{row:?} missed");
                let mut longer = row.clone();
                longer.push(Const::Int(0));
                assert_eq!(db.contains(&pred, &longer), rows.contains(&longer));
                for (i, c) in row.iter().enumerate() {
                    for other in [Const::Int(1), Const::Str("a".into())] {
                        let mut probe = row.clone();
                        probe[i] = other.clone();
                        assert_eq!(db.contains(&pred, &probe), rows.contains(&probe));
                    }
                    let mut unknown = row.clone();
                    unknown[i] = Const::Str(format!("unknown-{c}"));
                    assert!(!db.contains(&pred, &unknown));
                }
            }
        }
        assert!(!db.contains("absent", &[Const::Int(0)]));
    }

    #[test]
    fn contains_agrees_with_rows_on_derived_and_loaded_stores() {
        let mut p = parse_program(
            "edge(0, 1). edge(1, 2). edge(2, 0). name(0, \"zero\"). name(1, one). \
             path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z). \
             named(N) :- name(_, N). tagged(X, 7) :- edge(X, 0).",
        )
        .unwrap();
        p.fact(crate::Atom::new("ok", vec![]));
        let (db, _) = eval_ids(&p, Strategy::Seminaive);
        assert!(db.contains("tagged", &[Const::Int(2), Const::Int(7)]));
        assert!(db.contains("ok", &[]));
        contains_agrees_with_rows(&db);
        let loaded = from_bytes(&db.to_snapshot_bytes(false)).unwrap();
        contains_agrees_with_rows(&loaded);
    }

    /// A snapshot of the constants `0..n_consts` and the given relations
    /// payload under `rels_tag`, with valid checksums.
    fn wrap_n(n_consts: u64, rels_tag: u16, rels: &[u8]) -> Vec<u8> {
        let mut consts = Vec::new();
        put_v64(&mut consts, n_consts);
        for n in 0..n_consts {
            consts.push(0);
            put_zig(&mut consts, n as i64);
        }
        let mut w = Writer::new();
        w.section(tag::DL_CONSTS, &consts);
        w.section(rels_tag, rels);
        w.finish()
    }

    /// A snapshot of the one constant `0` and the given relations payload.
    fn wrap(rels_tag: u16, rels: &[u8]) -> Vec<u8> {
        wrap_n(1, rels_tag, rels)
    }

    /// A relations payload holding one relation `a` of the given arity,
    /// whose column is the raw bytes `data`.
    fn one_relation(arity: u64, rows: u64, data: &[u8]) -> Vec<u8> {
        let mut p = Vec::new();
        put_v64(&mut p, 1);
        put_str(&mut p, "a");
        put_v64(&mut p, arity);
        put_v64(&mut p, rows);
        p.extend_from_slice(data);
        p
    }

    fn malformed(bytes: &[u8]) -> bool {
        matches!(from_bytes(bytes), Err(SnapError::Malformed(_)))
    }

    #[test]
    fn hand_built_relations_payload_matches_the_writer() {
        // The relations section is name, arity, rows and the fixed-width
        // column (one byte per id with one constant): nothing else.
        let bytes = wrap(tag::DL_RELS, &one_relation(1, 1, &[0]));
        let (db, _) = eval_ids(&parse_program("a(0).").unwrap(), Strategy::Seminaive);
        assert_eq!(db.to_snapshot_bytes(false), bytes);
        let back = from_bytes(&bytes).unwrap();
        assert!(back.contains("a", &[Const::Int(0)]));
        assert_eq!(back.to_snapshot_bytes(false), bytes);
    }

    #[test]
    fn a_repeated_row_is_rejected() {
        // `a(0)` twice: it used to load with `fact_count("a") == 2` and a
        // one-tuple `to_database()["a"]`.
        assert!(malformed(&wrap(tag::DL_RELS, &one_relation(1, 2, &[0, 0]))));
        // Distinct rows load.
        let two = from_bytes(&wrap_n(2, tag::DL_RELS, &one_relation(1, 2, &[0, 1]))).unwrap();
        assert_eq!(two.fact_count("a"), 2);
    }

    #[test]
    fn a_repeated_constant_or_relation_is_rejected() {
        // Two ids for the constant 0: rows 0 and 1 would decode alike.
        let mut consts = Vec::new();
        put_v64(&mut consts, 2);
        consts.extend_from_slice(&[0, 0, 0, 0]);
        let mut w = Writer::new();
        w.section(tag::DL_CONSTS, &consts);
        w.section(tag::DL_RELS, &one_relation(1, 2, &[0, 1]));
        assert!(malformed(&w.finish()));
        // Two relations `a/1`, each holding `a(0)`.
        let mut p = Vec::new();
        put_v64(&mut p, 2);
        for _ in 0..2 {
            put_str(&mut p, "a");
            p.extend_from_slice(&[1, 1, 0]);
        }
        assert!(malformed(&wrap(tag::DL_RELS, &p)));
    }

    #[test]
    fn an_id_at_or_past_the_constant_count_is_rejected() {
        assert!(malformed(&wrap(tag::DL_RELS, &one_relation(1, 1, &[1]))));
        assert!(malformed(&wrap_n(
            3,
            tag::DL_RELS,
            &one_relation(2, 1, &[2, 3])
        )));
        assert!(malformed(&wrap_n(
            300,
            tag::DL_RELS,
            &one_relation(1, 1, &300u16.to_le_bytes())
        )));
        let last = wrap_n(
            300,
            tag::DL_RELS,
            &one_relation(1, 1, &299u16.to_le_bytes()),
        );
        assert!(from_bytes(&last).unwrap().contains("a", &[Const::Int(299)]));
    }

    #[test]
    fn zero_arity_relation_with_several_rows_is_rejected() {
        assert!(malformed(&wrap(tag::DL_RELS, &one_relation(0, 2, &[]))));
        assert!(malformed(&wrap(
            tag::DL_RELS,
            &one_relation(0, u64::MAX, &[])
        )));
        let one = wrap(tag::DL_RELS, &one_relation(0, 1, &[]));
        assert_eq!(from_bytes(&one).unwrap().fact_count("a"), 1);
    }

    /// Asserts that a file whose relations section carries `old` fails on
    /// the tag, before any decoding.
    fn fails_with_section_order(old: u16, payload: &[u8]) {
        match from_bytes(&wrap(old, payload)) {
            Err(SnapError::SectionOrder { expected, found }) => {
                assert_eq!((expected, found), (tag::DL_RELS, old));
            }
            other => panic!("tag {old}: expected SectionOrder, got {other:?}"),
        }
    }

    #[test]
    fn relations_section_of_the_index_carrying_layout_fails_with_section_order() {
        // Tag 17 held relations together with index buckets and trie specs.
        fails_with_section_order(17, &[0, 1, 1, b'a', 1, 1, 0, 0, 0]);
    }

    #[test]
    fn relations_section_of_the_varint_layout_fails_with_section_order() {
        // Tag 18 held varint columns behind a stored-membership flag byte.
        fails_with_section_order(18, &[0, 1, 1, b'a', 1, 1, 0]);
    }

    #[test]
    fn width_steps_at_each_byte_boundary() {
        // `c(0..n)` with `n` constants: the largest id is `n - 1`, so the
        // column takes 1 byte per id up to 256 constants, 2 up to 65,536,
        // then 3.
        for (n, width) in [(256, 1), (257, 2), (65_536, 2), (65_537, 3)] {
            let mut p = crate::Program::new();
            for k in 0..n {
                p.fact(crate::Atom::new("c", vec![crate::ast::cst(k)]));
            }
            let (db, _) = eval_ids(&p, Strategy::Seminaive);
            let bytes = db.to_snapshot_bytes(false);
            let mut r = Reader::new(&bytes).unwrap();
            r.section(tag::DL_CONSTS).unwrap();
            let rels = r.section(tag::DL_RELS).unwrap();
            let header = one_relation(1, n as u64, &[]).len();
            assert_eq!(rels.remaining(), header + n as usize * width, "n = {n}");
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.fact_count("c"), n as usize);
            assert!(back.contains("c", &[Const::Int(n - 1)]));
            assert!(back.contains("c", &[Const::Int(0)]));
            assert_eq!(back.to_snapshot_bytes(false), bytes, "n = {n}");
        }
        assert_eq!(id_width(0x100_0000), 3);
        assert_eq!(id_width(0x100_0001), 4);
    }

    #[test]
    fn truncation_and_bit_flips_are_rejected() {
        let db = sample_db();
        let bytes = db.to_snapshot_bytes(false);
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
