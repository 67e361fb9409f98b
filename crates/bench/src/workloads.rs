//! Shared workload builders for the `figures` binary and `perfbench`.
//!
//! Alongside the λ∨ term builders, this module hosts the **scalable graph
//! generators** feeding the Datalog scaling benchmarks (10⁴–10⁶ edges):
//! uniform random sparse digraphs, directed grids, preferential-attachment
//! ("scale-free") digraphs, and chain forests (the family whose transitive
//! closure size is exactly computable, so closure-heavy benchmarks stay
//! bounded). All generators are deterministic: randomness comes from a
//! seeded xorshift generator, so every perf pass and CI smoke sees the
//! same graph.

use lambda_join_core::builder::*;
use lambda_join_core::encodings::Graph;
use lambda_join_core::term::TermRef;

/// A chain of diamonds of the given depth: the DAG with exponentially many
/// paths that separates naive from memoised evaluation.
pub fn diamond_chain(layers: i64) -> Graph {
    let mut edges = Vec::new();
    for l in 0..layers {
        edges.push((2 * l, vec![2 * (l + 1), 2 * (l + 1) + 1]));
        edges.push((2 * l + 1, vec![2 * (l + 1), 2 * (l + 1) + 1]));
    }
    edges.push((2 * layers, vec![]));
    edges.push((2 * layers + 1, vec![]));
    Graph { edges }
}

/// Flattens a [`Graph`] into edge pairs for the Datalog/LVars substrates.
pub fn edge_pairs(g: &Graph) -> Vec<(i64, i64)> {
    g.edges
        .iter()
        .flat_map(|(s, ts)| ts.iter().map(move |t| (*s, *t)))
        .collect()
}

/// The workspace's deterministic RNG (canonical implementation in
/// [`lambda_join_core::rng`]; re-exported here because every generator
/// below takes seeds through it). `below` is rejection-sampled — no
/// modulo bias — so generated graphs differ slightly from the pre-dedup
/// ones; all closed-form oracles are recomputed from the edges, so no
/// test pins the old streams.
pub use lambda_join_core::rng::XorShift64;

/// A uniform random sparse digraph: `edges` directed edges drawn uniformly
/// over `nodes × nodes` (self-loops and duplicates possible, as in real
/// fact bases — the engine dedups). The workhorse for reachability
/// scaling: expected out-degree `edges/nodes`.
pub fn random_sparse_edges(nodes: i64, edges: usize, seed: u64) -> Vec<(i64, i64)> {
    assert!(nodes > 0);
    let mut rng = XorShift64::new(seed);
    (0..edges)
        .map(|_| {
            (
                rng.below(nodes as u64) as i64,
                rng.below(nodes as u64) as i64,
            )
        })
        .collect()
}

/// A directed `w × h` grid: node `y*w + x` has edges right and down.
/// `2wh - w - h` edges; every node is reachable from the origin, and the
/// longest path has length `w + h - 2` — many fixpoint rounds with wide
/// deltas.
pub fn grid_edges(w: i64, h: i64) -> Vec<(i64, i64)> {
    assert!(w > 0 && h > 0);
    let mut out = Vec::with_capacity((2 * w * h - w - h).max(0) as usize);
    for y in 0..h {
        for x in 0..w {
            let n = y * w + x;
            if x + 1 < w {
                out.push((n, n + 1));
            }
            if y + 1 < h {
                out.push((n, n + w));
            }
        }
    }
    out
}

/// A preferential-attachment ("scale-free") digraph: each new node `t`
/// receives `per_node` edges from endpoints sampled with probability
/// proportional to their current degree (the Barabási–Albert endpoint
/// trick: sample uniformly from the running edge-endpoint list). Edges
/// are oriented old → new, so early hubs reach almost everything — the
/// skewed-degree shape that stresses per-key index bucket length.
pub fn scale_free_edges(nodes: i64, per_node: usize, seed: u64) -> Vec<(i64, i64)> {
    assert!(nodes >= 2 && per_node >= 1);
    let mut rng = XorShift64::new(seed);
    let mut out: Vec<(i64, i64)> = vec![(0, 1)];
    // Endpoint pool: each edge contributes both ends, biasing sampling
    // toward high-degree nodes.
    let mut pool: Vec<i64> = vec![0, 1];
    for t in 2..nodes {
        for _ in 0..per_node {
            let src = pool[rng.below(pool.len() as u64) as usize];
            out.push((src, t));
            pool.push(src);
            pool.push(t);
        }
    }
    out
}

/// A forest of `chains` disjoint directed chains, `len` edges each —
/// `chains · len` edges whose transitive closure has exactly
/// `chains · len·(len+1)/2` paths. The closure-size-controlled family:
/// the only generator where a 10⁵-edge input keeps the full TC
/// materialisable, which is what the `datalog_tc_chains_100k` bench runs.
pub fn chain_forest_edges(chains: i64, len: i64) -> Vec<(i64, i64)> {
    assert!(chains > 0 && len > 0);
    let mut out = Vec::with_capacity((chains * len) as usize);
    for c in 0..chains {
        let base = c * (len + 1);
        for i in 0..len {
            out.push((base + i, base + i + 1));
        }
    }
    out
}

/// The number of paths in the transitive closure of
/// [`chain_forest_edges`]`(chains, len)` — the bench assertion oracle.
pub fn chain_forest_tc_size(chains: i64, len: i64) -> usize {
    (chains * len * (len + 1) / 2) as usize
}

/// Both directions of every non-loop edge, deduplicated and sorted. The
/// triangle workloads symmetrize the scale-free generator's output: the
/// generator orients every edge old→new, which makes the graph acyclic
/// with in-degree bounded by `per_node` — a shape where a binary join
/// plan is near-linear and nothing worst-case-optimal is being measured.
/// The symmetrized graph keeps the power-law degree skew and actually
/// exercises the multi-way intersection.
pub fn symmetrize_edges(edges: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut set: std::collections::BTreeSet<(i64, i64)> = std::collections::BTreeSet::new();
    for &(s, t) in edges {
        if s != t {
            set.insert((s, t));
            set.insert((t, s));
        }
    }
    set.into_iter().collect()
}

/// Brute-force triangle count over directed edges: the number of node
/// triples with `e(x,y)`, `e(y,z)`, `e(x,z)` — the reference oracle for
/// the worst-case-optimal-join workloads at smoke sizes. O(Σ deg(y))
/// per edge, so keep inputs ≲ 10⁴ edges.
pub fn brute_force_triangles(edges: &[(i64, i64)]) -> usize {
    use std::collections::{BTreeMap, BTreeSet};
    let set: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    let mut succ: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(s, t) in &set {
        succ.entry(s).or_default().push(t);
    }
    set.iter()
        .map(|&(x, y)| {
            succ.get(&y).map_or(0, |zs| {
                zs.iter().filter(|z| set.contains(&(x, **z))).count()
            })
        })
        .sum()
}

/// Parent edges `(parent, child)` of the complete binary tree with
/// levels `0..=depth`: node `i < 2^depth - 1` has children `2i+1` and
/// `2i+2`. `2^(depth+1) - 2` edges. Drives the same-generation program,
/// whose recursive rule runs under the leapfrog triejoin and derives a
/// full level of facts per fixpoint round.
pub fn binary_tree_parent_edges(depth: u32) -> Vec<(i64, i64)> {
    assert!(depth >= 1);
    let internal = (1i64 << depth) - 1;
    let mut out = Vec::with_capacity(2 * internal as usize);
    for i in 0..internal {
        out.push((i, 2 * i + 1));
        out.push((i, 2 * i + 2));
    }
    out
}

/// The size of the same-generation relation on
/// [`binary_tree_parent_edges`]`(depth)`: every ordered same-depth pair
/// below the root, Σ_{d=1}^{depth} (2^d)² = (4^(depth+1) − 4) / 3.
pub fn binary_tree_sg_size(depth: u32) -> usize {
    ((4u64.pow(depth + 1) - 4) / 3) as usize
}

/// `let a0 = 0 in let a1 = a0 + 1 in … in a(n-1)` — `n` nested lets, one
/// β (on a single path) each; evaluates to `n - 1`. Exercises syntactic
/// nesting: term depth grows with `n`, and the substitution evaluator walks
/// the remaining body at every β.
pub fn nested_lets(n: usize) -> TermRef {
    assert!(n >= 1);
    let mut body: TermRef = var(&format!("a{}", n - 1));
    for i in (1..n).rev() {
        body = let_in(
            &format!("a{i}"),
            add(var(&format!("a{}", i - 1)), int(1)),
            body,
        );
    }
    let_in("a0", int(0), body)
}

/// `id (id (… (id 1) …))` — `n` nested applications of the identity.
/// Each application is its own path of β-depth 1 (arguments evaluate at
/// the caller's fuel), so fuel 2 converges at any `n`; what grows with `n`
/// is the number of *pending application contexts* the evaluator must hold.
pub fn nested_apps(n: usize) -> TermRef {
    let mut t: TermRef = int(1);
    for _ in 0..n {
        t = app(lam("x", var("x")), t);
    }
    t
}

/// `down n` — a recursive countdown: a β-chain roughly `4 n` deep on one
/// path (the Z-combinator costs ~3 extra βs per unfolding). The fuel that
/// converges is returned alongside the term.
pub fn countdown(n: usize) -> (TermRef, usize) {
    let t = lambda_join_core::parser::parse(&format!(
        "let rec down n = if n <= 0 then 0 else down (n - 1) in down {n}"
    ))
    .expect("countdown parses");
    (t, 4 * n + 16)
}

/// `fromN 0` — the paper's stream of naturals; at fuel `f` the observed
/// prefix (a cons chain) is ~`f/2` deep. The long-pipeline workload for
/// the deep-nesting experiments.
pub fn from_n_pipeline() -> TermRef {
    lambda_join_core::parser::parse("let rec fromN n = (n :: fromN (n + 1)) \\/ botv in fromN 0")
        .expect("fromN parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_counts() {
        let g = diamond_chain(3);
        // 2 nodes per layer × 4 layers = 8 nodes, all reachable from 0
        // except the sibling of the root.
        assert_eq!(g.reachable(0).len(), 7);
    }

    #[test]
    fn generators_are_deterministic_and_sized() {
        assert_eq!(
            random_sparse_edges(100, 500, 7),
            random_sparse_edges(100, 500, 7)
        );
        assert_ne!(
            random_sparse_edges(100, 500, 7),
            random_sparse_edges(100, 500, 8)
        );
        assert_eq!(random_sparse_edges(100, 500, 7).len(), 500);
        assert!(random_sparse_edges(100, 500, 7)
            .iter()
            .all(|&(s, t)| (0..100).contains(&s) && (0..100).contains(&t)));

        let g = grid_edges(5, 4);
        assert_eq!(g.len(), (2 * 5 * 4 - 5 - 4) as usize);

        let sf = scale_free_edges(50, 2, 3);
        assert_eq!(sf, scale_free_edges(50, 2, 3));
        assert_eq!(sf.len(), 1 + 48 * 2);
        assert!(sf.iter().all(|&(s, t)| s < 50 && t < 50));

        let cf = chain_forest_edges(10, 4);
        assert_eq!(cf.len(), 40);
        assert_eq!(chain_forest_tc_size(10, 4), 10 * 4 * 5 / 2);
    }

    #[test]
    fn generator_closures_match_oracles() {
        use lambda_join_datalog::eval::{eval_ids, Strategy};

        // Chain forest TC size is exactly the closed form.
        let edges = chain_forest_edges(6, 5);
        let p = lambda_join_datalog::eval::transitive_closure_program(&edges);
        let (idb, _) = eval_ids(&p, Strategy::Seminaive);
        assert_eq!(idb.fact_count("path"), chain_forest_tc_size(6, 5));

        // Every grid node is reachable from the origin.
        let (w, h) = (6i64, 5i64);
        let p = lambda_join_datalog::eval::reaches_program(&grid_edges(w, h), 0);
        let (idb, _) = eval_ids(&p, Strategy::Seminaive);
        assert_eq!(idb.fact_count("reaches"), (w * h) as usize);
    }

    #[test]
    fn triangle_oracle_matches_engine_on_scale_free() {
        use lambda_join_datalog::eval::{
            eval_ids, eval_ids_mode, triangle_program, JoinMode, Strategy,
        };

        // Both orientations: the raw old→new DAG and the symmetrized
        // graph the perf workload runs on.
        for es in [
            scale_free_edges(400, 2, 0xDA7A),
            symmetrize_edges(&scale_free_edges(400, 2, 0xDA7A)),
        ] {
            let p = triangle_program(&es);
            let (wcoj, _) = eval_ids(&p, Strategy::Seminaive);
            assert_eq!(wcoj.fact_count("triangle"), brute_force_triangles(&es));
            let (binary, _) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
            assert_eq!(binary.fact_count("triangle"), wcoj.fact_count("triangle"));
            // Scale-free graphs at this density actually contain
            // triangles — the workload measures joins, not an empty
            // intersection.
            assert!(wcoj.fact_count("triangle") > 100);
        }
    }

    #[test]
    fn same_generation_oracle_matches_engine() {
        use lambda_join_datalog::eval::{eval_ids, same_generation_program, Strategy};

        for depth in [1u32, 2, 4, 6] {
            let par = binary_tree_parent_edges(depth);
            assert_eq!(par.len(), (1usize << (depth + 1)) - 2);
            let p = same_generation_program(&par);
            let (idb, _) = eval_ids(&p, Strategy::Seminaive);
            assert_eq!(
                idb.fact_count("sg"),
                binary_tree_sg_size(depth),
                "depth {depth}"
            );
        }
    }
}
