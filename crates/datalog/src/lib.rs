//! # lambda-join-datalog
//!
//! A Datalog engine with stratified negation — the logic-programming
//! baseline that *Functional Meaning for Parallel Streaming* (PLDI 2025)
//! positions λ∨ against (§2.3, §6): monotone bottom-up inference over a
//! growing fact database, with naive and seminaive evaluation. Negated
//! premises are allowed when the program is stratified (checked by
//! [`stratify`]); evaluation then runs one monotone fixpoint per stratum.
//!
//! The engine is **id-native** (DESIGN.md §6): ground facts are interned
//! into `u32` column blocks as they are parsed or built (they never
//! become rule syntax trees), programs compile onto interned ids —
//! constants, predicates, and variable slots — and relations are flat
//! columnar tuple stores. Every keyed probe reads a sorted-column trie,
//! the one secondary index, whether the relation is complete before its
//! stratum or grows during it: a trie merges in only the rows derived
//! since its last refresh, and is refreshed only before a round whose
//! plans read it. Acyclic rule bodies follow a per-rule binary-join plan
//! ordered by bound-variable propagation, with a sorted merge of the
//! delta against the probed trie for the transitive-closure shapes;
//! cyclic bodies (≥ 2 atoms sharing ≥ 2 join variables, e.g. triangles)
//! run a **worst-case-optimal leapfrog triejoin** over the same tries
//! (DESIGN.md §7). Tree-shaped [`Database`] results are decoded
//! only at the API boundary; [`eval::eval_ids`] stays flat end to end,
//! which is what the 10⁵–10⁶-fact workloads in the bench suite use.
//! A computed [`IdDatabase`] can be checkpointed to disk and warm-loaded
//! in a fresh process via [`snap`] — loading a snapshot is several times
//! cheaper than re-deriving the fixpoint.
//!
//! # Example
//!
//! ```
//! use lambda_join_datalog::eval::{eval, reaches_program, rows, Strategy};
//!
//! let p = reaches_program(&[(0, 1), (1, 2), (2, 0)], 0);
//! let (db, _) = eval(&p, Strategy::Seminaive);
//! assert_eq!(rows(&db, "reaches").len(), 3);
//! ```
//!
//! Or from surface syntax, staying id-native:
//!
//! ```
//! use lambda_join_datalog::eval::{eval_ids, Strategy};
//! use lambda_join_datalog::parse_program;
//!
//! let p = parse_program(
//!     "edge(0, 1). edge(1, 2). \
//!      path(X, Y) :- edge(X, Y). \
//!      path(X, Z) :- path(X, Y), edge(Y, Z).",
//! )
//! .unwrap();
//! let (idb, stats) = eval_ids(&p, Strategy::Seminaive);
//! assert_eq!(idb.fact_count("path"), 3);
//! assert_eq!(stats.rounds, 3); // facts + naive round, one growth round, one quiescent
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod eval;
mod facts;
pub mod parser;
mod plan;
pub mod snap;
pub mod store;
pub mod strata;

pub use ast::{Atom, AtomTerm, Const, Program, Rule};
pub use eval::{eval, eval_ids, Database, EvalStats, JoinMode, Strategy};
pub use parser::parse_program;
pub use store::IdDatabase;
pub use strata::{stratify, Strata, StratificationError};

#[cfg(test)]
#[path = "../tests/parallel/props.rs"]
mod parallel_props;
