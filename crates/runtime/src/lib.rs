//! # lambda-join-runtime
//!
//! The practical streaming runtime sketched in §5.1 of *Functional Meaning
//! for Parallel Streaming* (PLDI 2025):
//!
//! * [`semilattice`] — the `JoinSemilattice` trait and composable
//!   instances (sets, maps/records, flat domains, max-counters);
//! * [`stream`] — monotone observation streams: the Reader-Nat monad whose
//!   monadic join is the diagonalisation of Figure 10;
//! * [`interp`] — λ∨ terms as observation streams, plus the Figure 10
//!   diagonal table;
//! * [`memo`] — memoised ("tabled") evaluation, giving termination on
//!   cyclic `reaches` and work sharing on DAGs;
//! * [`fixpoint`] — Kleene iteration and naive/seminaive set fixpoints;
//! * [`kpn`] — Kahn process networks, the §6 ancestor: deterministic
//!   dataflow over stream prefixes, strictly less expressive than λ∨;
//! * [`freeze`] — §5.2's frozen values: seal a grown value, unlocking
//!   otherwise non-monotone queries with quasi-deterministic conflicts;
//! * [`parallel`] — deterministic thread parallelism: parallel joins and
//!   concurrent chaotic iteration with schedule-independent results;
//! * [`server`] — `lambdav serve`: a fault-tolerant evaluation service
//!   with per-request budgets, admission control, failure isolation, and
//!   generation-tracked memo GC.
//!
//! # Example
//!
//! ```
//! use lambda_join_runtime::semilattice::{JoinSemilattice, Max};
//!
//! let a = Max(3u64);
//! assert_eq!(a.join(&Max(5)), Max(5));
//! assert!(a.leq(&Max(5)));
//! ```

#![warn(missing_docs)]

pub mod fixpoint;
pub mod freeze;
pub mod interp;
pub mod kpn;
pub mod memo;
pub mod parallel;
pub mod semilattice;
pub mod seminaive;
pub mod server;
pub mod stream;

pub use memo::MemoEval;
pub use semilattice::{BoundedJoinSemilattice, JoinSemilattice};
pub use stream::MonoStream;
