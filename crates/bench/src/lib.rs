//! # lambda-join-bench
//!
//! The measurement harness of the reproduction: shared workloads, the
//! `serve` load client, and the `figures` binary, which regenerates every
//! table and figure of the paper as text and, with `figures -- perf`,
//! writes `BENCH_perf.json` (see docs/BENCHMARKS.md for what each key
//! measures and which claim it backs).

#![warn(missing_docs)]

pub mod loadclient;
pub mod workloads;
