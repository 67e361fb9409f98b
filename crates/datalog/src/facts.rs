//! The column store ground facts live in from the moment they are read.
//!
//! A ground fact never becomes a [`Rule`](crate::ast::Rule): the parser
//! and [`Program::fact`](crate::ast::Program::fact) both intern its
//! constants into one table and append the ids to a flat `u32` row block
//! for its `(predicate, arity)`. Compilation then adopts the table and
//! reads the blocks in place, so a fact costs one hash probe per constant
//! and one `u32` push per column — no tuple AST to allocate, walk, hash
//! again and drop. This is how bulk-loading Datalog engines treat
//! extensional data (Soufflé's fact loading, Jordan, Scholz & Subotić,
//! CAV 2016).
//!
//! Both lookup tables (constants, and `(name, arity)` → block) are
//! open-addressed over ids with a multiplicative hash: integer constants
//! hash without a byte walk, and a string or predicate name is compared
//! as a borrowed `&str`, so it is copied only when first seen. The hash
//! is unkeyed, unlike std's SipHash: program text crafted to collide its
//! constants costs probe time, never a wrong or reordered id — ids are
//! assigned in order of first appearance, whatever the hash.

use crate::ast::Const;
use crate::store::EMPTY;

/// Multiplier of the Fibonacci hash (2⁶⁴ / φ); the table index is the
/// product's top bits, so sequential integers spread evenly.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn hash_int(n: i64) -> u64 {
    (n as u64 ^ 0x5851_f42d_4c95_7f2d).wrapping_mul(PHI)
}

#[inline]
fn hash_str(s: &str, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 29)).wrapping_mul(PHI)
}

#[inline]
fn hash_const(c: &Const) -> u64 {
    match c {
        Const::Int(n) => hash_int(*n),
        Const::Str(s) => hash_str(s, 0),
    }
}

/// An open-addressed table of ids: it stores no keys, only the ids of the
/// entries that own them, and the caller compares a candidate id's key.
/// Linear probing from the hash's top bits; the load factor stays below
/// 1/2, so a miss ends within a few slots.
#[derive(Debug, Clone)]
struct IdTable {
    slots: Vec<u32>,
    shift: u32,
    len: usize,
}

impl Default for IdTable {
    fn default() -> Self {
        IdTable::sized(0)
    }
}

impl IdTable {
    /// An empty table that holds `n` ids without growing.
    fn sized(n: usize) -> Self {
        let len = (n * 2 + 2).next_power_of_two().max(16);
        IdTable {
            slots: vec![EMPTY; len],
            shift: 64 - len.trailing_zeros(),
            len: 0,
        }
    }

    /// The id whose key `eq` accepts, or the free slot where it belongs.
    #[inline]
    fn find(&self, h: u64, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                id if eq(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Fills the free slot `find` returned, growing (and rehashing every
    /// id through `hash_of`) past half load.
    fn insert(&mut self, slot: usize, id: u32, hash_of: impl Fn(u32) -> u64) {
        self.slots[slot] = id;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let ids: Vec<u32> = self.slots.iter().copied().filter(|&s| s != EMPTY).collect();
            self.slots = vec![EMPTY; self.slots.len() * 2];
            self.shift -= 1;
            let mask = self.slots.len() - 1;
            for id in ids {
                let mut i = (hash_of(id) >> self.shift) as usize;
                while self.slots[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = id;
            }
        }
    }
}

/// The facts of one `(predicate, arity)`: interned rows back to back, in
/// the order they were added, duplicates kept (the evaluator counts every
/// fact as one derivation and deduplicates on insert). The explicit row
/// count keeps nullary facts representable.
#[derive(Debug, Clone)]
pub(crate) struct FactBlock {
    pub(crate) pred: String,
    pub(crate) arity: usize,
    pub(crate) rows: usize,
    pub(crate) data: Vec<u32>,
}

/// A borrowed constant, as the parser reads it from source text.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ConstRef<'a> {
    Int(i64),
    Str(&'a str),
}

impl<'a> From<&'a Const> for ConstRef<'a> {
    fn from(c: &'a Const) -> Self {
        match c {
            Const::Int(n) => ConstRef::Int(*n),
            Const::Str(s) => ConstRef::Str(s),
        }
    }
}

/// The index of a constant table (id → constant is a position in a
/// `Vec<Const>` the caller owns and passes in): a constant resolves to
/// its id in one probe. The fact store interns through it, compilation
/// extends a copy of it with the rules' constants, and the evaluated
/// [`IdDatabase`](crate::IdDatabase) keeps that copy for
/// [`contains`](crate::IdDatabase::contains).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConstIndex(IdTable);

impl ConstIndex {
    /// Indexes a table read from elsewhere (a snapshot), or `None` if a
    /// constant appears twice — two ids for one constant would make two
    /// distinct rows decode to the same tuple — or the table has more
    /// ids than a `u32` below [`EMPTY`] can name.
    pub(crate) fn of_distinct(consts: &[Const]) -> Option<ConstIndex> {
        let mut ix = IdTable::sized(consts.len());
        for (id, c) in consts.iter().enumerate() {
            let id = u32::try_from(id).ok().filter(|&id| id != EMPTY)?;
            let slot = ix.find(hash_const(c), |j| consts[j as usize] == *c).err()?;
            ix.insert(slot, id, |j| hash_const(&consts[j as usize]));
        }
        Some(ConstIndex(ix))
    }

    /// The id of a constant in `consts`, if it has one.
    pub(crate) fn lookup(&self, consts: &[Const], c: &Const) -> Option<u32> {
        self.0
            .find(hash_const(c), |id| consts[id as usize] == *c)
            .ok()
    }

    /// The id of a constant, appending it to `consts` if new.
    pub(crate) fn intern(&mut self, consts: &mut Vec<Const>, c: ConstRef<'_>) -> u32 {
        let found = match c {
            ConstRef::Int(n) => self
                .0
                .find(hash_int(n), |id| consts[id as usize] == Const::Int(n)),
            ConstRef::Str(s) => self.0.find(
                hash_str(s, 0),
                |id| matches!(&consts[id as usize], Const::Str(t) if t == s),
            ),
        };
        match found {
            Ok(id) => id,
            Err(slot) => {
                let id = u32::try_from(consts.len())
                    .ok()
                    .filter(|&id| id != EMPTY)
                    .expect("constant table overflow");
                consts.push(match c {
                    ConstRef::Int(n) => Const::Int(n),
                    ConstRef::Str(s) => Const::Str(s.to_string()),
                });
                self.0
                    .insert(slot, id, |id| hash_const(&consts[id as usize]));
                id
            }
        }
    }
}

/// A program's ground facts: the constant table and one row block per
/// `(predicate, arity)`, in order of first appearance.
#[derive(Debug, Clone, Default)]
pub(crate) struct FactStore {
    /// Id → constant. Compilation starts its constant table from this one
    /// and its index from `const_ids`.
    pub(crate) consts: Vec<Const>,
    pub(crate) const_ids: ConstIndex,
    pub(crate) blocks: Vec<FactBlock>,
    block_ids: IdTable,
    /// The block the previous fact went to: facts arrive in runs of one
    /// predicate, so a run finds its block without hashing the name.
    last: Option<u32>,
}

impl FactStore {
    /// The id of a constant, interning it if new.
    fn intern(&mut self, c: ConstRef<'_>) -> u32 {
        self.const_ids.intern(&mut self.consts, c)
    }

    /// Appends one fact: `pred` is copied only when it starts a new block.
    pub(crate) fn push<'a>(
        &mut self,
        pred: &str,
        args: impl ExactSizeIterator<Item = ConstRef<'a>>,
    ) {
        let arity = args.len();
        let b = match self.last {
            Some(b)
                if self.blocks[b as usize].arity == arity
                    && self.blocks[b as usize].pred == pred =>
            {
                b
            }
            _ => self.block(pred, arity),
        };
        self.last = Some(b);
        for c in args {
            let id = self.intern(c);
            self.blocks[b as usize].data.push(id);
        }
        self.blocks[b as usize].rows += 1;
    }

    fn block(&mut self, pred: &str, arity: usize) -> u32 {
        let blocks = &self.blocks;
        match self.block_ids.find(hash_str(pred, arity as u64), |id| {
            let b = &blocks[id as usize];
            b.arity == arity && b.pred == pred
        }) {
            Ok(id) => id,
            Err(slot) => {
                let id = u32::try_from(self.blocks.len()).expect("relation table overflow");
                self.blocks.push(FactBlock {
                    pred: pred.to_string(),
                    arity,
                    rows: 0,
                    data: Vec::new(),
                });
                let blocks = &self.blocks;
                self.block_ids.insert(slot, id, |id| {
                    let b = &blocks[id as usize];
                    hash_str(&b.pred, b.arity as u64)
                });
                id
            }
        }
    }

    /// Number of facts, duplicates included.
    pub(crate) fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.rows).sum()
    }

    /// Every fact decoded, block by block, rows in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, Vec<Const>)> + '_ {
        self.blocks.iter().flat_map(move |b| {
            (0..b.rows).map(move |r| {
                let row = &b.data[r * b.arity..(r + 1) * b.arity];
                (
                    b.pred.as_str(),
                    row.iter()
                        .map(|&c| self.consts[c as usize].clone())
                        .collect(),
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_across_growth() {
        let mut s = FactStore::default();
        let ids: Vec<u32> = (0..5_000)
            .map(|n| s.intern(ConstRef::Int(n - 2_500)))
            .collect();
        let strs: Vec<u32> = (0..500)
            .map(|n| s.intern(ConstRef::Str(&format!("s{n}"))))
            .collect();
        for (n, &id) in (0..5_000).zip(&ids) {
            assert_eq!(s.intern(ConstRef::Int(n - 2_500)), id);
            assert_eq!(
                s.const_ids.lookup(&s.consts, &Const::Int(n - 2_500)),
                Some(id)
            );
        }
        for (n, &id) in (0..500).zip(&strs) {
            assert_eq!(
                s.const_ids.lookup(&s.consts, &Const::Str(format!("s{n}"))),
                Some(id)
            );
        }
        assert_eq!(s.consts.len(), 5_500);
        // An integer and a string that print alike stay distinct.
        let one = s.intern(ConstRef::Int(1));
        assert_ne!(s.intern(ConstRef::Str("1")), one);
        assert_eq!(
            s.const_ids.lookup(&s.consts, &Const::Str("absent".into())),
            None
        );
    }

    #[test]
    fn an_index_of_a_read_table_finds_every_constant_and_rejects_repeats() {
        let consts: Vec<Const> = (0..3_000)
            .map(Const::Int)
            .chain((0..300).map(|n| Const::Str(format!("s{n}"))))
            .collect();
        let ix = ConstIndex::of_distinct(&consts).expect("distinct");
        for (id, c) in consts.iter().enumerate() {
            assert_eq!(ix.lookup(&consts, c), Some(id as u32));
        }
        assert_eq!(ix.lookup(&consts, &Const::Str("1".into())), None);
        let mut repeated = consts;
        repeated.push(Const::Int(7));
        assert!(ConstIndex::of_distinct(&repeated).is_none());
    }

    #[test]
    fn blocks_key_on_name_and_arity() {
        let mut s = FactStore::default();
        s.push("p", [ConstRef::Int(1)].into_iter());
        s.push("p", [ConstRef::Int(1), ConstRef::Int(2)].into_iter());
        s.push("q", [].into_iter());
        s.push("p", [ConstRef::Int(3)].into_iter());
        s.push("q", [].into_iter());
        assert_eq!(s.blocks.len(), 3);
        assert_eq!((s.blocks[0].rows, s.blocks[0].data.len()), (2, 2));
        assert_eq!((s.blocks[2].rows, s.blocks[2].data.len()), (2, 0));
        assert_eq!(s.len(), 5);
        let decoded: Vec<(&str, Vec<Const>)> = s.iter().collect();
        assert_eq!(decoded[1], ("p", vec![Const::Int(3)]));
        assert_eq!(decoded[3], ("q", vec![]));
    }
}
