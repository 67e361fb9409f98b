//! # lambda-join-core
//!
//! The **λ∨** ("lambda-join") calculus from *Functional Meaning for Parallel
//! Streaming* (Rioux & Zdancewic, PLDI 2025): an untyped call-by-value
//! parallel *streaming* lambda calculus in which every value is an element
//! of a partial order (the streaming order), all computation is monotone,
//! and the binary join `e1 ∨ e2` is a first-class parallel composition
//! operator.
//!
//! This crate provides:
//!
//! * [`term`] — abstract syntax, substitution, α-equivalence;
//! * [`symbol`] — base constants with a partial join;
//! * [`builder`] — programmatic term constructors;
//! * [`parser`] — a surface syntax with the paper's derived forms;
//! * [`reduce`] — the approximate operational semantics of Figure 5
//!   (position-indexed nondeterministic reduction, result joins,
//!   ⊤-propagation, approximation steps);
//! * [`observe`] — observation extraction and the streaming order on
//!   results;
//! * [`machine`] — a deterministic fair small-step machine;
//! * [`bigstep`] — a fuel-indexed big-step evaluator realising
//!   approximation steps deterministically (pipeline parallelism à la
//!   Figure 10), with the recursive executable specification in
//!   [`bigstep::spec`];
//! * [`engine`] — the explicit-stack (defunctionalised frame machine)
//!   evaluation engine over arena ids, the one λ∨ machine behind
//!   [`bigstep`], the runtime's memoised evaluator and `lambdav serve`:
//!   depth scales with the heap, not the OS thread stack;
//! * [`intern`] — the hash-consing arena: canonical `Copy` term ids, so
//!   α-equivalence, equality and hashing are O(1) id comparisons (every
//!   id is a memo/tabling key), with cached subterm metadata;
//! * [`ideval`] — the id-native evaluation toolkit behind
//!   [`engine::run_id`]: substitution, result joins, the streaming order,
//!   and delta rules computed directly over arena nodes (tree
//!   allocations: zero);
//! * [`sharded`] — the thread-shared β-memo of `lambdav serve`: one
//!   [`intern::Interner`] and its [`intern::InternTable`] behind a single
//!   lock, which [`engine::run`] releases to waiting sessions between
//!   dispatches;
//! * [`pool`] — bounded worker helpers: the fork–join map behind
//!   `runtime::parallel::join_all` and the server's session crew;
//! * [`snap`] — persistent arena snapshots: a versioned, checksummed
//!   binary format that saves/loads the interner and memo tables so a
//!   fresh process warm-starts instead of re-deriving;
//! * [`encodings`] — the paper's example programs (`fromN`, `evens`,
//!   parallel or, `reaches`, two-phase commit, Peano numerals);
//! * [`stdlib`] — streaming list/set combinators built from the core
//!   syntax (map, filter, union, closure, ranges).
//!
//! # Quick start
//!
//! ```
//! use lambda_join_core::parser::parse;
//! use lambda_join_core::bigstep::eval_fuel;
//! use lambda_join_core::builder::*;
//! use lambda_join_core::observe::result_leq;
//!
//! // Stream the set of even naturals and check 0, 2, 4 have appeared.
//! let e = parse("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()")?;
//! let out = eval_fuel(&e, 40);
//! assert!(result_leq(&set(vec![int(0), int(2), int(4)]), &out));
//! # Ok::<(), lambda_join_core::parser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod bigstep;
pub mod builder;
pub mod display;
pub mod encodings;
pub mod engine;
pub mod ideval;
pub mod intern;
pub mod machine;
pub mod observe;
pub mod parser;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod sharded;
pub mod snap;
pub mod stdlib;
pub mod symbol;
pub mod term;

pub use symbol::Symbol;
pub use term::{Prim, Term, TermRef, Var};
