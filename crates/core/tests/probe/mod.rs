//! Tree-level probes of a `SharedInternTable`'s memo, for the suites that
//! store synthetic entries. Both canonicalise their terms in the table's
//! own arena, under its lock.

use lambda_join_core::engine::IdBetaTable;
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_core::term::TermRef;

/// Stores `f a ⇓ r` at `fuel`, with exhaustion flag `ex`.
pub fn store(
    table: &SharedInternTable,
    f: &TermRef,
    a: &TermRef,
    fuel: usize,
    r: &TermRef,
    ex: bool,
) {
    let mut guard = table.interner();
    let (ar, memo) = guard.parts();
    let (f, a, r) = (ar.canon_id(f), ar.canon_id(a), ar.canon_id(r));
    memo.store(f, a, fuel, r, ex);
}

/// The result (and exhaustion flag) stored for `f a` at `fuel`, if any.
pub fn lookup(
    table: &SharedInternTable,
    f: &TermRef,
    a: &TermRef,
    fuel: usize,
) -> Option<(TermRef, bool)> {
    let mut guard = table.interner();
    let (ar, memo) = guard.parts();
    let (f, a) = (ar.canon_id(f), ar.canon_id(a));
    let (r, ex) = memo.lookup(f, a, fuel)?;
    Some((ar.extract(r), ex))
}
