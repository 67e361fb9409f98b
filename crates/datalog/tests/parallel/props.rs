//! Determinism of the split leapfrog search: evaluating with 1, 2 or 3
//! workers derives the same rows in the same order and reports the same
//! `EvalStats`, so the databases' snapshot bytes are equal too. A split
//! plan's root chunks run in whatever order the workers claim and finish
//! them, so this holds only because their outputs join the round in
//! chunk order; each multi-worker run is repeated to give a schedule
//! that merged them otherwise several chances to show.
//!
//! The worker count is a crate-private parameter, so these tests compile
//! into the library's unit tests as its `parallel_props` module (`lib.rs`
//! includes this file; Cargo does not build a file in a subdirectory of
//! `tests/` as a suite of its own). Run them alone with
//! `cargo test -p lambda-join-datalog --lib parallel_props`.
//!
//! Two thresholds are checked. At the production one, only the triangle
//! join over a scale-free graph of 3,000 nodes has enough root keys to
//! split. With the threshold at one root key, every leapfrog plan
//! splits — including delta plans, plans with negation, one-key roots
//! and roots with fewer keys than chunks — on the same generators that
//! `wcoj_props` checks against the binary join.

use lambda_join_core::rng::XorShift64;
use proptest::prelude::*;

use crate::ast::{cst, var};
use crate::eval::{
    eval_ids_split, same_generation_program, triangle_program, EvalStats, JoinMode, Split,
    Strategy as DlStrategy, SPLIT_MIN_ROOT_KEYS,
};
use crate::{Atom, AtomTerm, Program};

#[path = "../common/mod.rs"]
mod common;
use common::{arb_cyclic_program, arb_edges, arb_forest};

/// Repeats of each multi-worker evaluation.
const REPEATS: usize = 3;

/// What a run must reproduce: its stats, every relation's rows in
/// derivation order, and the database's snapshot bytes.
#[derive(PartialEq, Eq)]
struct Outcome {
    stats: EvalStats,
    rows: Vec<Vec<u32>>,
    snapshot: Vec<u8>,
}

fn outcome(p: &Program, strategy: DlStrategy, split: Split) -> Outcome {
    let (db, stats) = eval_ids_split(p, strategy, JoinMode::Auto, split);
    Outcome {
        stats,
        rows: db.rels.iter().map(|r| r.data.clone()).collect(),
        snapshot: db.to_snapshot_bytes(false),
    }
}

/// Checks that 2 and 3 workers reproduce the one-worker outcome under
/// both strategies, with plans splitting from `min_root_keys` root keys.
fn assert_worker_count_invisible(p: &Program, min_root_keys: usize) {
    for strategy in [DlStrategy::Seminaive, DlStrategy::Naive] {
        let split = |workers| Split {
            workers,
            min_root_keys,
        };
        let want = outcome(p, strategy, split(1));
        for workers in [2, 3] {
            for _ in 0..REPEATS {
                let got = outcome(p, strategy, split(workers));
                assert!(
                    got.stats == want.stats,
                    "{strategy:?}, {workers} workers: {:?} != {:?}",
                    got.stats,
                    want.stats
                );
                let diverged = (0..want.rows.len()).find(|&r| got.rows[r] != want.rows[r]);
                assert!(
                    diverged.is_none(),
                    "{strategy:?}, {workers} workers: relation {diverged:?} rows differ"
                );
                assert!(
                    got.snapshot == want.snapshot,
                    "{strategy:?}, {workers} workers: snapshot bytes differ"
                );
            }
        }
    }
}

/// A preferential-attachment graph, symmetrised: each new node links to
/// `per_node` endpoints drawn from the edges so far, so degrees follow a
/// power law and the earliest nodes are hubs.
fn scale_free(nodes: i64, per_node: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = XorShift64::new(seed);
    let mut edges = vec![(0, 1), (1, 0)];
    let mut pool = vec![0, 1];
    for t in 2..nodes {
        for _ in 0..per_node {
            let s = pool[rng.below(pool.len() as u64) as usize];
            edges.extend([(s, t), (t, s)]);
            pool.extend([s, t]);
        }
    }
    edges
}

#[test]
fn scale_free_triangles_split_at_the_production_threshold() {
    let edges = scale_free(3_000, 3, 0x5CA1E);
    let sources: std::collections::BTreeSet<i64> = edges.iter().map(|e| e.0).collect();
    // Every source node is a root key of both level-0 atoms' trie (`e`
    // keyed by source), so the plan splits at the production threshold.
    assert!(sources.len() >= SPLIT_MIN_ROOT_KEYS);
    assert_worker_count_invisible(&triangle_program(&edges), SPLIT_MIN_ROOT_KEYS);
}

#[test]
fn hub_heavy_triangles_split_at_every_root_key_count() {
    // Node 0 links both ways to 60 nodes, which also form a ring, so one
    // root key carries most triangles.
    let mut edges: Vec<(i64, i64)> = (1..=60).flat_map(|i| [(0, i), (i, 0)]).collect();
    edges.extend((1..=60).flat_map(|i| [(i, i % 60 + 1), (i % 60 + 1, i)]));
    for min_root_keys in [1, 2, 61, 62] {
        assert_worker_count_invisible(&triangle_program(&edges), min_root_keys);
    }
}

#[test]
fn same_generation_splits_its_delta_plans() {
    // A random tree of 400 nodes: node `i`'s parent is drawn from the
    // 40 nodes before it, so the tree is deep and sg grows for many
    // rounds.
    let mut rng = XorShift64::new(0x56);
    let par: Vec<(i64, i64)> = (1..400i64)
        .map(|i| (i - 1 - rng.below(i.min(40) as u64) as i64, i))
        .collect();
    let p = same_generation_program(&par);
    assert_worker_count_invisible(&p, 1);
    assert_worker_count_invisible(&p, SPLIT_MIN_ROOT_KEYS);
}

#[test]
fn a_single_root_key_runs_as_one_chunk() {
    // Every `a` fact has source 0, so the plan's root level is one key.
    let mut p = Program::new();
    for (x, y) in [(0, 1), (0, 2), (0, 3)] {
        p.fact(Atom::new("a", vec![cst(x), cst(y)]));
    }
    for (y, z) in [(1, 2), (2, 3), (1, 3)] {
        p.fact(Atom::new("b", vec![cst(y), cst(z)]));
    }
    p.rule(
        Atom::new("t", vec![var("X"), var("Y"), var("Z")]),
        vec![
            Atom::new("a", vec![var("X"), var("Y")]),
            Atom::new("b", vec![var("Y"), var("Z")]),
            Atom::new("a", vec![var("X"), var("Z")]),
        ],
    );
    assert_worker_count_invisible(&p, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_triangles_split_deterministically(edges in arb_edges()) {
        assert_worker_count_invisible(&triangle_program(&edges), 1);
    }

    #[test]
    fn random_cyclic_queries_split_deterministically(p in arb_cyclic_program()) {
        assert_worker_count_invisible(&p, 1);
    }

    #[test]
    fn random_sg_forests_split_deterministically(parents in arb_forest()) {
        assert_worker_count_invisible(&same_generation_program(&parents), 1);
    }
}
