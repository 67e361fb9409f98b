//! Regenerates every table and figure of *Functional Meaning for Parallel
//! Streaming* (PLDI 2025) as text.
//!
//! ```sh
//! cargo run -p lambda-join-bench --bin figures            # everything
//! cargo run -p lambda-join-bench --bin figures -- fig2    # one item
//! ```
//!
//! Items: `table1`, `fig2`, `fig4`, `fig10`, `evens`, `por`, `reaches`,
//! `eq2`, `ext` (the §5.2/§6 extension experiments E-frz/E-lex/E-amb/
//! E-semi), `deep` (E-deep: the explicit-stack engine on workloads past
//! the recursive evaluator's stack ceiling), `dl` (the Datalog scale
//! generators at smoke sizes: every strategy must agree on every graph
//! family — the CI gate that keeps the bench generators honest), and
//! `cluster` (the fault-injected replicated lattice store at smoke sizes,
//! with deterministic replay re-checked). docs/BENCHMARKS.md indexes the
//! outputs against the paper.
//!
//! `perf` (not part of the default run) times the hot-path workloads and
//! writes machine-readable `BENCH_perf.json` (workload → ns/iter) so the
//! perf trajectory is tracked across PRs; CI uploads it as an artifact.

use std::collections::BTreeSet;

use lambda_join_bench::workloads::{
    binary_tree_parent_edges, binary_tree_sg_size, brute_force_triangles, chain_forest_edges,
    chain_forest_tc_size, countdown, diamond_chain, edge_pairs, from_n_pipeline, grid_edges,
    nested_apps, nested_lets, random_sparse_edges, scale_free_edges, symmetrize_edges,
};
use lambda_join_core::bigstep::{eval_fuel, eval_fuel_counting};
use lambda_join_core::builder::*;
use lambda_join_core::encodings::{self, Graph};
use lambda_join_core::machine::observation_trace;
use lambda_join_core::observe::{result_equiv, result_leq};
use lambda_join_core::term::Term;
use lambda_join_core::Symbol;
use lambda_join_datalog::eval::{eval as datalog_eval, reaches_program, Strategy};
use lambda_join_runtime::interp::diagonal_table;
use lambda_join_runtime::MemoEval;

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    // `snap save DIR` / `snap verify DIR`: the two-process snapshot gate
    // (CI saves warmed state, then re-loads it in a fresh process).
    if which.first().map(String::as_str) == Some("snap") {
        snap_cmd(&which[1..]);
        return;
    }
    let all = which.is_empty();
    let want = |k: &str| all || which.iter().any(|w| w == k);

    if want("table1") {
        table1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig4") {
        fig4();
    }
    if want("fig10") {
        fig10();
    }
    if want("evens") {
        evens_fig();
    }
    if want("por") {
        por_fig();
    }
    if want("reaches") {
        reaches_fig();
    }
    if want("eq2") {
        eq2_fig();
    }
    if want("ext") {
        ext_fig();
    }
    if want("deep") {
        deep_fig();
    }
    if want("dl") {
        dl_fig();
    }
    if want("cluster") {
        cluster_fig();
    }
    // Explicit-only: timing runs are not part of the default figures pass.
    if which.iter().any(|w| w == "perf") {
        perf_fig();
    }
}

/// Builds the deterministic warmed state the two-process snapshot gate
/// checks: the chain-forest transitive-closure fixpoint (with its exact
/// closed-form row count) and a memo warmed on cycle-6 reachability.
fn snap_reference() -> (lambda_join_datalog::IdDatabase, MemoEval, usize) {
    use lambda_join_datalog::eval::eval_ids;
    let es = chain_forest_edges(40, 5);
    let p = lambda_join_datalog::eval::transitive_closure_program(&es);
    let (idb, _) = eval_ids(&p, Strategy::Seminaive);
    assert_eq!(idb.fact_count("path"), chain_forest_tc_size(40, 5));
    let mut memo = MemoEval::new();
    let g = Graph::cycle(6);
    let fuel = 24 * g.edges.len();
    let _ = memo.eval_fuel(&encodings::reaches(&g, 0), fuel);
    (idb, memo, fuel)
}

/// `snap save DIR` / `snap verify DIR` — the cross-process snapshot gate.
///
/// `save` builds warmed state (Datalog fixpoint + memo) and checkpoints
/// it under `DIR`; `verify`, run in a *fresh process*, loads the
/// checkpoints and asserts (a) the Datalog rows are byte-equal to an
/// independently rebuilt fixpoint, and (b) the memo answers the same
/// query with identical hit statistics and zero new misses. Any mismatch
/// panics, failing the CI step.
fn snap_cmd(args: &[String]) {
    let (op, dir) = match args {
        [op, dir] if op == "save" || op == "verify" => (op.as_str(), std::path::Path::new(dir)),
        _ => {
            eprintln!("usage: figures snap <save|verify> DIR");
            std::process::exit(2);
        }
    };
    let dl_path = dir.join("datalog.snap");
    let memo_path = dir.join("memo.snap");
    let (idb, memo, fuel) = snap_reference();
    let g = Graph::cycle(6);
    let query = encodings::reaches(&g, 0);
    match op {
        "save" => {
            std::fs::create_dir_all(dir).expect("create snapshot dir");
            let dl_bytes = idb.save(&dl_path, true).expect("save datalog snapshot");
            let memo_bytes = memo.save_snapshot(&memo_path).expect("save memo snapshot");
            println!(
                "snap: saved {} ({dl_bytes} B) and {} ({memo_bytes} B)",
                dl_path.display(),
                memo_path.display()
            );
        }
        "verify" => {
            let loaded = lambda_join_datalog::IdDatabase::load(&dl_path).expect("load datalog");
            assert_eq!(
                loaded.to_snapshot_bytes(true),
                idb.to_snapshot_bytes(true),
                "loaded Datalog store is not byte-equal to a fresh fixpoint"
            );
            let mut warm = MemoEval::load_snapshot(&memo_path).expect("load memo");
            assert_eq!(
                warm.stats(),
                memo.stats(),
                "restored memo statistics diverge from the saved run"
            );
            let (_, misses_before) = warm.stats();
            let r = warm.eval_fuel(&query, fuel);
            let (_, misses_after) = warm.stats();
            assert_eq!(
                misses_before, misses_after,
                "warm re-evaluation should be pure cache hits"
            );
            let mut reference = MemoEval::new();
            assert!(
                r.alpha_eq(&reference.eval_fuel(&query, fuel)),
                "warm-boot answer diverges from a cold evaluation"
            );
            println!("snap: verified — rows byte-equal, memo hit-for-hit identical");
        }
        _ => unreachable!(),
    }
}

/// `perf` — times the memo/seminaive/naive hot paths and writes
/// `BENCH_perf.json` mapping workload names to ns/iter (median of batches).
fn perf_fig() {
    use std::time::Instant;

    header("perf — hot-path timings (written to BENCH_perf.json)");

    /// Times one closure: runs several batches sized to take roughly
    /// `batch_ns` each and reports the *minimum* per-iteration time. The
    /// minimum is the noise-robust statistic for a shared machine: every
    /// source of interference (scheduler preemption, a neighbouring build)
    /// only ever inflates a sample, so the smallest batch is the closest
    /// observation of the workload's true cost.
    fn time_ns(mut f: impl FnMut()) -> u64 {
        // Warm up and calibrate the batch size.
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_nanos().max(1) as u64;
        let batch_ns: u64 = 40_000_000;
        let iters = (batch_ns / once).clamp(1, 10_000) as usize;
        let mut best = u64::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(t.elapsed().as_nanos() as u64 / iters as u64);
        }
        best
    }

    let mut results: Vec<(&str, u64)> = Vec::new();
    let mut ratios: Vec<(&str, f64)> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    // Memoised (tabled) reaches on a cycle — cache probes dominate.
    let g = Graph::cycle(6);
    let t = encodings::reaches(&g, 0);
    let fuel = 24 * g.edges.len();
    results.push((
        "memo_reaches_cycle6",
        time_ns(|| {
            let mut m = MemoEval::new();
            let _ = m.eval_fuel(&t, fuel);
        }),
    ));

    // Memoised reaches on the diamond DAG — sharing-heavy probe traffic.
    let g = diamond_chain(5);
    let t = encodings::reaches(&g, 0);
    let fuel = 24 * g.edges.len();
    results.push((
        "memo_reaches_diamond5",
        time_ns(|| {
            let mut m = MemoEval::new();
            let _ = m.eval_fuel(&t, fuel);
        }),
    ));

    // Memoised converging sweep — the persistent-cache fuel sweep.
    let g = Graph::cycle(5);
    let t = encodings::reaches(&g, 0);
    results.push((
        "memo_converge_cycle5",
        time_ns(|| {
            let mut m = MemoEval::new();
            let _ = m.eval_converged(&t, 400, 10, 4);
        }),
    ));

    // Seminaive transitive closure (λ∨ fixpoint engine) on a line.
    let g = Graph::line(16);
    let step = g.neighbors_fn();
    results.push((
        "seminaive_reaches_line16",
        time_ns(|| {
            let mut e = lambda_join_runtime::seminaive::SeminaiveEngine::new(step.clone(), 64);
            e.push(vec![int(0)]);
            let _ = e.run(10_000);
        }),
    ));

    // Seminaive reaches on a dense graph: every step call streams a large
    // neighbour set, so per-element dedup against the accumulator (the
    // O(1)-membership path) dominates.
    let dense = Graph {
        edges: (0..32i64)
            .map(|i| (i, (0..32i64).filter(|j| *j != i).collect()))
            .collect(),
    };
    let step = dense.neighbors_fn();
    results.push((
        "seminaive_reaches_dense32",
        time_ns(|| {
            let mut e = lambda_join_runtime::seminaive::SeminaiveEngine::new(step.clone(), 64);
            e.push(vec![int(0)]);
            let _ = e.run(10_000);
        }),
    ));

    // Naive λ∨ fixpoint baseline — per-round accumulator traffic.
    let g = Graph::line(12);
    let step = g.neighbors_fn();
    results.push((
        "naive_fixpoint_line12",
        time_ns(|| {
            let _ = lambda_join_runtime::seminaive::naive_rounds(&step, vec![int(0)], 64, 10_000);
        }),
    ));

    // §5.1 ablation: one seed arrives after a fixpoint. Two line
    // components, 0 → … → 63 and 64 → … → 71; the big one is seeded first
    // and the small one's seed arrives late. Recompute runs `naive_rounds`
    // from scratch with both seeds; continue clones a fixpointed
    // `SeminaiveEngine`, pushes the late seed and derives only the new work.
    {
        use lambda_join_core::term::TermRef;
        use lambda_join_runtime::seminaive::{naive_rounds, SeminaiveEngine};
        let n = 64i64;
        let mut g = Graph::line(n);
        for i in 0..8 {
            let tgts = if i + 1 < 8 { vec![n + i + 1] } else { vec![] };
            g.edges.push((n + i, tgts));
        }
        let step = g.neighbors_fn();
        let want = (n + 8) as usize;
        let reached = |fix: &TermRef| match &**fix {
            Term::Set(xs) => xs.len(),
            _ => 0,
        };
        results.push((
            "seminaive_push_line64_recompute",
            time_ns(|| {
                let (fix, _) = naive_rounds(&step, vec![int(0), int(n)], 64, 10_000);
                assert_eq!(reached(&fix), want);
            }),
        ));
        let mut fixpointed = SeminaiveEngine::new(step.clone(), 64);
        fixpointed.push(vec![int(0)]);
        fixpointed.run(10_000);
        results.push((
            "seminaive_push_line64_continue",
            time_ns(|| {
                let mut e = fixpointed.clone();
                e.push(vec![int(n)]);
                assert_eq!(reached(&e.run(10_000)), want);
            }),
        ));
    }

    // The naive (untabled) line-8 micro — must not regress.
    let g = Graph::line(8);
    let t = encodings::reaches(&g, 0);
    let fuel = 24 * g.edges.len().max(4);
    results.push((
        "naive_reaches_line8",
        time_ns(|| {
            let _ = eval_fuel(&t, fuel);
        }),
    ));

    // Figure 10 / §5.1: re-enumerating the diagonal is slow. The naive
    // sweep evaluates `evens` from scratch at every fuel level 0..24; the
    // memo sweep shares one `MemoEval` across the levels, so each stage
    // reuses the β-results of the stages before it.
    {
        const STAGES: usize = 24;
        let e = encodings::evens();
        let want = eval_fuel(&e, STAGES - 1);
        results.push((
            "fig10_sweep_evens24_naive",
            time_ns(|| {
                let mut last = botv();
                for n in 0..STAGES {
                    last = eval_fuel(&e, n);
                }
                assert!(result_equiv(&last, &want));
            }),
        ));
        results.push((
            "fig10_sweep_evens24_memo",
            time_ns(|| {
                let mut m = MemoEval::new();
                let mut last = botv();
                for n in 0..STAGES {
                    last = m.eval_fuel(&e, n);
                }
                assert!(result_equiv(&last, &want));
            }),
        ));
    }

    // Datalog seminaive transitive closure — planned joins over the flat
    // interned store, decoded to a tree Database at the boundary.
    let edges: Vec<(i64, i64)> = (0..48).map(|i| (i, i + 1)).collect();
    let tc = lambda_join_datalog::eval::transitive_closure_program(&edges);
    results.push((
        "datalog_tc_seminaive_48",
        time_ns(|| {
            let _ = datalog_eval(&tc, Strategy::Seminaive);
        }),
    ));

    // --- Datalog at scale (DESIGN.md §6): the id-native engine on the
    // 10⁵–10⁶-edge generator families, via `eval_ids` (no tree decode —
    // at these sizes the boundary materialisation would dominate). Each
    // entry asserts its oracle so a wrong answer can't masquerade as a
    // fast one. ---
    use lambda_join_datalog::eval::{eval_ids, reaches_program as dl_reaches};

    // Reachability scaling curve on uniform sparse digraphs: 10⁴ → 10⁶
    // edges at mean out-degree 2.
    for (name, nodes, edges) in [
        ("datalog_reach_sparse_10k", 5_000i64, 10_000usize),
        ("datalog_reach_sparse_100k", 50_000, 100_000),
        ("datalog_reach_sparse_1m", 500_000, 1_000_000),
    ] {
        let es = random_sparse_edges(nodes, edges, 0xDA7A);
        let p = dl_reaches(&es, 0);
        results.push((
            name,
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert!(idb.fact_count("reaches") >= 1);
            }),
        ));
    }

    // Directed grid: long fixpoint (w+h rounds) with wide deltas.
    {
        let es = grid_edges(250, 200); // 99_550 edges, 50_000 nodes
        let p = dl_reaches(&es, 0);
        results.push((
            "datalog_reach_grid_100k",
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert_eq!(idb.fact_count("reaches"), 50_000);
            }),
        ));
    }

    // Scale-free (preferential attachment): skewed trie key runs.
    {
        let es = scale_free_edges(50_000, 2, 0xDA7A); // ≈ 10⁵ edges
        let p = dl_reaches(&es, 0);
        results.push((
            "datalog_reach_scalefree_100k",
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert!(idb.fact_count("reaches") > 25_000);
            }),
        ));
    }

    // §5.1's strategy gap: full transitive closure of a 50×20 chain forest
    // (10³ edges) under naive evaluation, which re-fires every rule on the
    // whole database each round, and under seminaive evaluation.
    {
        let p = lambda_join_datalog::eval::transitive_closure_program(&chain_forest_edges(50, 20));
        let want = chain_forest_tc_size(50, 20);
        for (name, strategy) in [
            ("datalog_tc_chains_1k_naive", Strategy::Naive),
            ("datalog_tc_chains_1k_seminaive", Strategy::Seminaive),
        ] {
            results.push((
                name,
                time_ns(|| {
                    let (idb, _) = eval_ids(&p, strategy);
                    assert_eq!(idb.fact_count("path"), want);
                }),
            ));
        }
    }

    // The same closure family from source text: 25,000 `edge` facts go
    // through `parse_program` (straight into the fact store) and then
    // seminaive `eval_ids` — the one Datalog key whose timed work
    // includes the parser. Asserts the exact 325,000 `path` facts.
    {
        let mut src = String::new();
        for (a, b) in chain_forest_edges(1_000, 25) {
            src.push_str(&format!("edge({a}, {b}).\n"));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n");
        let want = chain_forest_tc_size(1_000, 25);
        results.push((
            "datalog_parse_eval_tc_chains_25k",
            time_ns(|| {
                let p = lambda_join_datalog::parse_program(&src).expect("generated source parses");
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert_eq!(idb.fact_count("path"), want);
            }),
        ));
    }

    // Non-linear transitive closure over the 1,000×25 chain forest:
    // `path(X,Z) :- path(X,Y), path(Y,Z)` probes the growing `path`
    // itself, from both delta positions, through sorted tries refreshed
    // each round. Asserts the exact 325,000 `path` facts.
    {
        let mut src = String::new();
        for (a, b) in chain_forest_edges(1_000, 25) {
            src.push_str(&format!("edge({a}, {b}).\n"));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).\n");
        let p = lambda_join_datalog::parse_program(&src).expect("generated source parses");
        let want = chain_forest_tc_size(1_000, 25);
        results.push((
            "datalog_tc_nonlinear_chains_25k",
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert_eq!(idb.fact_count("path"), want);
            }),
        ));
    }

    // Full transitive closure over a 10⁵-edge chain forest — the
    // closure-size-controlled family (1.3M path tuples, exact count
    // asserted). The headline ≥10⁵-edge TC entry.
    {
        let es = chain_forest_edges(4_000, 25); // 100_000 edges
        let p = lambda_join_datalog::eval::transitive_closure_program(&es);
        let want = chain_forest_tc_size(4_000, 25);
        let rederive = || {
            let (idb, _) = eval_ids(&p, Strategy::Seminaive);
            assert_eq!(idb.fact_count("path"), want);
        };
        results.push(("datalog_tc_chains_100k", time_ns(rederive)));

        // --- Persistent arena snapshots (DESIGN.md §10): checkpoint this
        // 10⁵-edge TC fixpoint together with a warmed memo and time the
        // save and the load (the Datalog store's membership tables are
        // rebuilt from its rows on load). The headline
        // warm-start claim — loading beats re-deriving by ≥3× — is
        // timed alternately (one re-derive, then one load, per pair) so
        // both sides sample the same host phases, and each side keeps its
        // minimum, the noise-robust cost. It is recorded as a decimal
        // ratio with its margin, and a negative margin fails the run once
        // BENCH_perf.json is written. ---
        let (idb, _) = eval_ids(&p, Strategy::Seminaive);
        let mut memo = MemoEval::new();
        let gm = Graph::cycle(6);
        let _ = memo.eval_fuel(&encodings::reaches(&gm, 0), 24 * gm.edges.len());
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let dl_path = dir.join(format!("figures-{pid}-dl.snap"));
        let memo_path = dir.join(format!("figures-{pid}-memo.snap"));
        let save_ns = time_ns(|| {
            idb.save(&dl_path, true).expect("save datalog snapshot");
            memo.save_snapshot(&memo_path).expect("save memo snapshot");
        });
        let bytes = std::fs::metadata(&dl_path).expect("stat dl snapshot").len()
            + std::fs::metadata(&memo_path)
                .expect("stat memo snapshot")
                .len();
        let load = || {
            let db = lambda_join_datalog::IdDatabase::load(&dl_path).expect("load datalog");
            assert_eq!(db.fact_count("path"), want);
            let _ = MemoEval::load_snapshot(&memo_path).expect("load memo");
        };
        let load_ns = time_ns(load);
        results.push(("snapshot_save_ns", save_ns));
        results.push(("snapshot_load_ns", load_ns));
        results.push(("snapshot_bytes", bytes));
        const PAIRS: usize = 7;
        let once_ns = |f: &dyn Fn()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        };
        let (mut rederive_min_ns, mut load_min_ns) = (u64::MAX, u64::MAX);
        for _ in 0..PAIRS {
            rederive_min_ns = rederive_min_ns.min(once_ns(&rederive));
            load_min_ns = load_min_ns.min(once_ns(&load));
        }
        let ratio = rederive_min_ns as f64 / load_min_ns.max(1) as f64;
        let margin = ratio - 3.0;
        println!(
            "  snapshot_load_vs_rederive = {ratio:.2} (min of {PAIRS} re-derives {rederive_min_ns} ns / \
             min of {PAIRS} loads {load_min_ns} ns, alternated), margin over 3: {margin:+.2}"
        );
        ratios.push(("snapshot_load_vs_rederive", ratio));
        if margin < 0.0 {
            gate_failures.push(format!(
                "snapshot load lost its edge: {rederive_min_ns} ns re-derive vs {load_min_ns} ns load ({ratio:.2}×)"
            ));
        }
        let _ = std::fs::remove_file(&dl_path);
        let _ = std::fs::remove_file(&memo_path);
    }

    // --- Worst-case-optimal joins (DESIGN.md §7): triangle counting,
    // where the cyclic body e(X,Y), e(Y,Z), e(X,Z) makes a binary plan
    // materialise the quadratic wedge set while the leapfrog triejoin
    // intersects sorted tries. Both plan kinds are recorded on the same
    // ~10⁵-edge graph so the ratio is visible in the artifact. ---
    use lambda_join_datalog::eval::{
        eval_ids_mode, same_generation_program, triangle_program, JoinMode,
    };

    // Symmetrised scale-free graph: 99_985 raw edges, 199_108 after
    // symmetrisation, power-law degree skew. (The raw generator output is
    // oriented old→new with bounded in-degree, a shape where binary join
    // is near-linear — see `workloads::symmetrize_edges`.)
    {
        let es = symmetrize_edges(&scale_free_edges(12_500, 8, 0xDA7A));
        let p = triangle_program(&es);
        // One untimed run pins the answer; both timed variants must agree.
        let (idb0, _) = eval_ids(&p, Strategy::Seminaive);
        let want = idb0.fact_count("triangle");
        assert!(want > 10_000, "triangle workload unexpectedly sparse");
        results.push((
            "datalog_triangles_scalefree_100k",
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert_eq!(idb.fact_count("triangle"), want);
            }),
        ));
        results.push((
            "datalog_triangles_scalefree_100k_binary",
            time_ns(|| {
                let (idb, _) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
                assert_eq!(idb.fact_count("triangle"), want);
            }),
        ));
    }

    // The binary path on a graph small enough that it finishes promptly —
    // the old plan kind keeps a perf entry of its own so a planner
    // regression (WCOJ capturing acyclic bodies, say) shows up here. The
    // triejoin on the same graph keys the WCOJ gap at 10⁴ edges, next to
    // the 10⁵-edge pair above.
    {
        let es = symmetrize_edges(&scale_free_edges(5_000, 2, 0xDA7A)); // ≈10⁴ raw edges
        let p = triangle_program(&es);
        let want = brute_force_triangles(&es);
        results.push((
            "datalog_triangles_binary_10k",
            time_ns(|| {
                let (idb, _) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
                assert_eq!(idb.fact_count("triangle"), want);
            }),
        ));
        results.push((
            "datalog_triangles_scalefree_10k",
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert_eq!(idb.fact_count("triangle"), want);
            }),
        ));
    }

    // Same-generation on the depth-9 complete binary tree: 2_046 parent
    // edges, 349_524 sg facts (closed form asserted). The recursive rule
    // is cyclic (runs under the triejoin); the sibling base rule stays on
    // the binary path — one fixpoint exercising both plan kinds. The
    // `_binary` key forces binary plans on every rule for comparison.
    {
        let p = same_generation_program(&binary_tree_parent_edges(9));
        let want = binary_tree_sg_size(9);
        results.push((
            "datalog_sg_tree_depth9",
            time_ns(|| {
                let (idb, _) = eval_ids(&p, Strategy::Seminaive);
                assert_eq!(idb.fact_count("sg"), want);
            }),
        ));
        results.push((
            "datalog_sg_tree_depth9_binary",
            time_ns(|| {
                let (idb, _) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
                assert_eq!(idb.fact_count("sg"), want);
            }),
        ));
    }

    // Two-phase commit protocol evolution — the §4 workload.
    let system = encodings::two_phase_commit();
    results.push((
        "two_phase_commit",
        time_ns(|| {
            let _ = eval_fuel(&system, 16);
        }),
    ));

    // --- Arena-native entries (PR 5): the id-level APIs the hot loops sit
    // on, with the tree↔id boundary amortised away. ---

    // Warm tabled reaches: the term interned once, every iteration pure
    // id frame machine + memo probes (no conversion, no extraction).
    let g = Graph::cycle(6);
    let t = encodings::reaches(&g, 0);
    let fuel = 24 * g.edges.len();
    results.push(("id_memo_reaches", {
        let mut m = MemoEval::new();
        let id = m.canon_id(&t);
        time_ns(move || {
            let _ = m.eval_fuel_id(id, fuel);
        })
    }));

    // Id-native seminaive rounds on the dense graph without the
    // `current()` tree extraction: the pure fixpoint loop.
    let step = dense.neighbors_fn();
    results.push(("id_seminaive_dense32", {
        let step = step.clone();
        time_ns(move || {
            let mut e = lambda_join_runtime::seminaive::SeminaiveEngine::new(step.clone(), 64);
            e.push(vec![int(0)]);
            while e.round() {}
        })
    }));

    // Warm two-phase commit on a persistent arena: protocol evolution as
    // pure id evaluation.
    let system = encodings::two_phase_commit();
    results.push(("id_2pc", {
        let mut m = MemoEval::new();
        let id = m.canon_id(&system);
        time_ns(move || {
            let _ = m.eval_fuel_id_untabled(id, 16);
        })
    }));

    // --- Replicated lattice store (DESIGN.md §8): wire-cost and heal-time
    // figures, recorded as *bytes* and *steps* rather than ns — what the
    // delta protocol is supposed to optimise is traffic, not CPU. The
    // ≥5× delta-vs-full ratio on a 10⁴-element G-Set is the headline
    // claim and is asserted, so a protocol regression fails the run. ---
    {
        use lambda_join_crdt::cluster::scenario;
        let (stats, _) = scenario::gset_sync_traffic(10_000);
        let ratio = stats.full_state_bytes_equiv / stats.delta_bytes.max(1);
        assert!(
            ratio >= 5,
            "delta anti-entropy below 5x vs full-state gossip: {} delta B vs {} full B",
            stats.delta_bytes,
            stats.full_state_bytes_equiv
        );
        results.push(("cluster_gset_delta_bytes", stats.delta_bytes));
        results.push(("cluster_gset_full_bytes", stats.full_state_bytes_equiv));
        results.push(("cluster_gset_delta_vs_full", ratio));
        let heal = scenario::kv_partition_heal(0xC1D7, 8);
        results.push(("cluster_kv_partition_heal", heal.steps));
    }

    // The client half of a 2PC round trip: `FlatReply::parse` on the §4
    // two-phase commit's fuel-16 reply, built with `Obj` the way the
    // server builds it (a `fuel_exhausted` error carrying the partial
    // observation, about 24 KB with a thousand escapes).
    {
        use lambda_join_core::display::pretty;
        use lambda_join_runtime::server::protocol::{json_escape, ErrorCode, FlatReply, Obj};

        let obs = pretty(&MemoEval::new().eval_fuel(&encodings::two_phase_commit(), 16));
        let mut o = Obj::kind("err");
        o.push_str("code", ErrorCode::FuelExhausted.as_str())
            .push_str("msg", "fuel ran out; result is the partial observation")
            .push_escaped("result", &json_escape(&obs))
            .push_num("fuel", 16);
        let line = o.into_line();
        let reply = FlatReply::parse(&line).expect("the 2PC reply parses");
        assert_eq!(reply.str_of("result"), Some(obs.as_str()));
        results.push((
            "protocol_decode_tpc_reply",
            time_ns(|| {
                std::hint::black_box(FlatReply::parse(&line).is_ok());
            }),
        ));
    }

    // --- `lambdav serve` (DESIGN.md §9): end-to-end service numbers from
    // an in-process server — wire protocol, admission, budgets, and the
    // shared warm memo all on the measured path. Latencies are whole
    // round-trips (connect reuse, parse, evaluate, reply), recorded in ns
    // like every other key. ---
    {
        use lambda_join_bench::loadclient::{drive, mixed_workloads, run_load, wire_quote, Client};
        use lambda_join_runtime::server::{serve, ServerConfig};

        // The server checkpoints its shared memo on graceful shutdown; a
        // second boot below measures the warm-start win. A generous
        // generation window keeps the whole measured working set in the
        // checkpoint (the default is tuned for long-lived churn, not a
        // 100-request run).
        let snap_path =
            std::env::temp_dir().join(format!("figures-{}-server.snap", std::process::id()));
        let _ = std::fs::remove_file(&snap_path);
        let cfg = ServerConfig {
            max_outstanding_fuel: 1 << 20,
            snapshot_path: Some(snap_path.clone()),
            gc_keep_generations: 1024,
            ..ServerConfig::default()
        };
        let reaches = encodings::reaches(&Graph::cycle(6), 0).to_string();
        let line = format!("eval fuel={} {}", 24 * 6, wire_quote(&reaches));
        // The §4 two-phase commit, as the load mix sends it: a request
        // whose cold evaluation dominates its round trip.
        let tpc = encodings::two_phase_commit().to_string();
        let tpc_line = format!("eval fuel=16 {}", wire_quote(&tpc));

        // Warm reach: the first request fills the shared memo; repeats of
        // the same request hit the shared table.
        let handle = serve(cfg.clone()).expect("bind perf server");
        let addr = handle.addr().to_string();
        let mut client = Client::connect(addr.as_str()).expect("connect perf client");
        client.round_trip(&line).expect("cold reach reply");
        const WARM_REPEATS: usize = 20;
        let mut warm_ns = u64::MAX;
        for _ in 0..WARM_REPEATS {
            let t = Instant::now();
            client.round_trip(&line).expect("warm reach reply");
            warm_ns = warm_ns.min(t.elapsed().as_nanos() as u64);
        }
        // Warm watch: the load mix's streamed `evens` watch, timed from
        // the request line to its `done`. After the first, every fuel
        // point is answered from the reply cache.
        let watch = mixed_workloads()
            .into_iter()
            .find(|w| w.streaming)
            .expect("the load mix streams a watch");
        drive(&mut client, &watch).expect("cold watch reply");
        let mut watch_ns = u64::MAX;
        for _ in 0..WARM_REPEATS {
            let t = Instant::now();
            let done = drive(&mut client, &watch).expect("warm watch reply");
            watch_ns = watch_ns.min(t.elapsed().as_nanos() as u64);
            assert!(done, "the warm watch should end in done");
        }
        // Serve the 2PC request too, so the shutdown checkpoint holds it.
        client.round_trip(&tpc_line).expect("warm 2PC reply");

        // Fixed-seed mixed load: 4 clients x 25 requests. A healthy
        // server completes every request with zero protocol errors.
        let report = run_load(&addr, 4, 25, 42);
        assert_eq!(
            report.protocol_errors, 0,
            "perf load run saw protocol errors: {:?}",
            report.error_samples
        );
        assert!(handle.stop(), "perf server failed to drain");
        assert!(
            snap_path.exists(),
            "server shutdown should have checkpointed"
        );

        // Cold vs. snapshot boot. Each boot is a fresh server timed on its
        // first reach request: a cold boot has no checkpoint, so it pays
        // parsing plus a cold memo; a snapshot boot loads the checkpoint
        // the server above wrote on shutdown, so its first request hits
        // that memo. The timed request includes the session setup a fresh
        // server pays on its first request. Boots alternate cold/snapshot
        // so both sides sample the same host phases, and each side keeps
        // its minimum, the noise-robust cost. The ≥5× ratio is the
        // headline warm-start claim; it is reported with its margin over 5
        // and fails the run (after BENCH_perf.json is written) only when
        // the margin is negative. The same alternation times a first 2PC
        // request on its own fresh boots, with no gate.
        const BOOTS: usize = 20;
        let first_request_ns = |cfg: ServerConfig, line: &str| {
            let handle = serve(cfg).expect("bind boot-timing server");
            let addr = handle.addr().to_string();
            let mut client = Client::connect(addr.as_str()).expect("connect boot-timing client");
            let t0 = Instant::now();
            let first = client.round_trip(line).expect("first reply");
            let ns = t0.elapsed().as_nanos() as u64;
            assert!(
                matches!(first.kind(), Some("ok") | Some("err")),
                "first request got a non-reply: {first:?}"
            );
            assert!(handle.stop(), "boot-timing server failed to drain");
            ns
        };
        let cold_cfg = ServerConfig {
            snapshot_path: None,
            ..cfg.clone()
        };
        let (mut cold_ns, mut boot_ns) = (u64::MAX, u64::MAX);
        let (mut cold_tpc_ns, mut boot_tpc_ns) = (u64::MAX, u64::MAX);
        for _ in 0..BOOTS {
            cold_ns = cold_ns.min(first_request_ns(cold_cfg.clone(), &line));
            boot_ns = boot_ns.min(first_request_ns(cfg.clone(), &line));
            cold_tpc_ns = cold_tpc_ns.min(first_request_ns(cold_cfg.clone(), &tpc_line));
            boot_tpc_ns = boot_tpc_ns.min(first_request_ns(cfg.clone(), &tpc_line));
        }
        let _ = std::fs::remove_file(&snap_path);

        results.push(("server_cold_reach", cold_ns));
        results.push(("server_warm_reach", warm_ns));
        results.push(("server_warm_watch", watch_ns));
        let warm_ratio = cold_ns as f64 / warm_ns.max(1) as f64;
        println!(
            "  server_warm_vs_cold_reach = {warm_ratio:.2} (min of {BOOTS} cold boots \
             {cold_ns} ns / min of {WARM_REPEATS} warm repeats {warm_ns} ns)"
        );
        ratios.push(("server_warm_vs_cold_reach", warm_ratio));
        results.push(("server_throughput_rps", report.throughput_rps()));
        results.push(("server_latency_p50", report.percentile_ns(50.0)));
        results.push(("server_latency_p95", report.percentile_ns(95.0)));
        results.push(("server_latency_p99", report.percentile_ns(99.0)));
        results.push(("server_snapshot_boot_reach", boot_ns));
        let ratio = cold_ns as f64 / boot_ns.max(1) as f64;
        let margin = ratio - 5.0;
        println!(
            "  server_cold_vs_snapshot_boot = {ratio:.2} (min of {BOOTS} cold boots \
             {cold_ns} ns / min of {BOOTS} snapshot boots {boot_ns} ns), margin over 5: {margin:+.2}"
        );
        ratios.push(("server_cold_vs_snapshot_boot", ratio));
        if margin < 0.0 {
            gate_failures.push(format!(
                "snapshot boot lost its edge: cold {cold_ns} ns vs boot {boot_ns} ns ({ratio:.2}×)"
            ));
        }
        results.push(("server_cold_tpc", cold_tpc_ns));
        results.push(("server_snapshot_boot_tpc", boot_tpc_ns));
        let tpc_ratio = cold_tpc_ns as f64 / boot_tpc_ns.max(1) as f64;
        println!(
            "  server_cold_vs_snapshot_boot_tpc = {tpc_ratio:.2} (min of {BOOTS} cold boots \
             {cold_tpc_ns} ns / min of {BOOTS} snapshot boots {boot_tpc_ns} ns)"
        );
        ratios.push(("server_cold_vs_snapshot_boot_tpc", tpc_ratio));
    }

    // `_meta` records the machine context the numbers were taken in: the
    // detected core count. Every workload key stays a bare number at the
    // top level, so existing consumers are unaffected; ratio gates are
    // written as decimals after the integer keys.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  (detected cores: {cores})");
    let mut entries: Vec<String> = Vec::new();
    for (name, ns) in &results {
        println!("  {name:<26} {ns:>12} ns/iter");
        entries.push(format!("  \"{name}\": {ns}"));
    }
    for (name, ratio) in &ratios {
        println!("  {name:<26} {ratio:>12.2} ×");
        entries.push(format!("  \"{name}\": {ratio:.2}"));
    }
    let json = format!(
        "{{\n  \"_meta\": {{ \"cores\": {cores} }},\n{}\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_perf.json", json).expect("write BENCH_perf.json");
    println!("  (written to BENCH_perf.json)");
    if !gate_failures.is_empty() {
        panic!("{}", gate_failures.join("; "));
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// §1 table: streaming `evens()` into the non-monotone `f`.
fn table1() {
    header("Table §1 — a non-monotone observer retracts output");
    let evens = encodings::evens();
    println!(
        "{:>6} {:>28} {:>12} {:>14}",
        "time", "evens()", "f(evens())", "action"
    );
    let mut sent = false;
    for n in [4usize, 8, 10, 12, 16] {
        let obs = eval_fuel(&evens, n);
        let has = |k: i64| result_leq(&set(vec![int(k)]), &obs);
        // f(x) = {1} if 2 ∈ x and 4 ∉ x else {} — NOT expressible in λ∨.
        let f_out = if has(2) && !has(4) { "{1}" } else { "{}" };
        let action = if f_out == "{1}" && !sent {
            sent = true;
            "request sent"
        } else if sent && f_out == "{}" {
            "RETRACTED!"
        } else {
            "none"
        };
        let shown = obs.to_string();
        let shown = if shown.len() > 26 {
            format!("{}…}}", &shown[..25])
        } else {
            shown
        };
        println!("{n:>6} {shown:>28} {f_out:>12} {action:>14}");
    }
    println!("(λ∨ rules f out by construction: only monotone functions are definable)");
}

/// Figure 2: the behaviour of `fromN 0`.
fn fig2() {
    header("Figure 2 — behaviour of fromN 0 (machine observations)");
    let prog = app(encodings::from_n(), int(0));
    for (i, obs) in observation_trace(prog, 12).iter().enumerate() {
        println!("  step {i:>2}: {obs}");
    }
}

/// Figure 4: evolution of two-phase commit.
fn fig4() {
    header("Figure 4 — evolution of the two-phase commit protocol");
    let system = encodings::two_phase_commit();
    println!(
        "{:>5} {:>10} {:>7} {:>7} {:>12}",
        "time", "proposal", "ok1", "ok2", "res"
    );
    for fuel in [0usize, 4, 8, 12, 16] {
        let state = eval_fuel(&system, fuel);
        let field = |name: &str| {
            let v = eval_fuel(&project(state.clone(), name), 8);
            let s = v.to_string();
            if s == "bot" {
                "⊥".into()
            } else {
                s
            }
        };
        println!(
            "{:>5} {:>10} {:>7} {:>7} {:>12}",
            fuel,
            field("proposal"),
            field("ok1"),
            field("ok2"),
            field("res")
        );
    }
}

/// Figure 10: interleaved evaluation of `head (fromN 0)`.
fn fig10() {
    header("Figure 10 — diagonal interleaving of (λl. head l) (fromN 0)");
    let arg = app(encodings::from_n(), int(0));
    let n = 8;
    let table = diagonal_table(&encodings::head(), &arg, n);
    print!("{:>14}", "input \\ time");
    for j in 0..n {
        print!(" {j:>5}");
    }
    println!();
    for (i, row) in table.rows.iter().enumerate() {
        let label = abbreviate(&table.inputs[i].to_string(), 13);
        print!("{label:>14}");
        for cell in row {
            print!(" {:>5}", abbreviate(&cell.to_string(), 5));
        }
        println!();
    }
    print!("{:>14}", "diagonal");
    for d in &table.diagonal {
        print!(" {:>5}", abbreviate(&d.to_string(), 5));
    }
    println!("\n(monotone: {})", table.is_monotone());
}

fn abbreviate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let mut out: String = s.chars().take(n.saturating_sub(1)).collect();
        out.push('…');
        out
    }
}

/// §1/§3.2: the evens stream and the threshold search.
fn evens_fig() {
    header("§1/§3.2 — evens() stream and threshold search");
    let evens = encodings::evens();
    for n in [0usize, 4, 8, 12, 16] {
        println!("  fuel {n:>2}: {}", eval_fuel(&evens, n));
    }
    let search = encodings::evens_search();
    println!("  search for 2: {}", eval_fuel(&search, 40));
}

/// §2.3: the por truth table including divergent arguments.
fn por_fig() {
    header("§2.3 — parallel or");
    let t = thunk(tt());
    let f = thunk(ff());
    let d = thunk(app(encodings::diverge_fn(), unit()));
    for (label, x, y) in [
        ("true  Ω    ", t.clone(), d.clone()),
        ("Ω     true ", d.clone(), t.clone()),
        ("true  false", t.clone(), f.clone()),
        ("false false", f.clone(), f.clone()),
        ("Ω     Ω    ", d.clone(), d.clone()),
    ] {
        let r = eval_fuel(&apps(encodings::por(), vec![x, y]), 40);
        println!("  por {label} = {r}");
    }
}

/// §2.3/§5.1: reaches across implementations, with work counts.
fn reaches_fig() {
    header("§2.3/§5.1 — reaches: who wins, by how much");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12}",
        "graph", "λ∨ β-steps", "memo miss", "dl-naive", "dl-seminaive"
    );
    let graphs = vec![
        ("line-8".to_string(), Graph::line(8)),
        ("cycle-6".to_string(), Graph::cycle(6)),
        ("diamond-5".to_string(), diamond_chain(5)),
    ];
    for (name, g) in graphs {
        let fuel = 24 * g.edges.len().max(4);
        let t = encodings::reaches(&g, 0);
        let (r, betas) = eval_fuel_counting(&t, fuel);
        let mut memo = MemoEval::new();
        let _ = memo.eval_fuel(&t, fuel);
        let (_, misses) = memo.stats();
        let edges = edge_pairs(&g);
        let (_, naive) = datalog_eval(&reaches_program(&edges, 0), Strategy::Naive);
        let (_, semi) = datalog_eval(&reaches_program(&edges, 0), Strategy::Seminaive);
        println!(
            "{name:<12} {betas:>10} {misses:>10} {:>12} {:>12}",
            naive.derivations, semi.derivations
        );
        // Sanity: λ∨ answer matches ground truth.
        let truth: BTreeSet<i64> = g.reachable(0).into_iter().collect();
        let got: BTreeSet<i64> = match &*r {
            Term::Set(es) => es
                .iter()
                .filter_map(|e| match &**e {
                    Term::Sym(s) => s.as_int(),
                    _ => None,
                })
                .collect(),
            _ => BTreeSet::new(),
        };
        assert_eq!(got, truth, "{name} wrong answer");
    }
}

/// E-frz/E-lex/E-amb/E-semi: the §5.2/§6 extension experiments.
fn ext_fig() {
    use lambda_join_core::parser::parse;
    use lambda_join_core::reduce::join_results;
    use lambda_join_filter::ambiguity::check_ambiguity;
    use lambda_join_runtime::seminaive::{naive_rounds, SeminaiveEngine};

    header("E-frz — §5.2 frozen values: freeze, query, violate");
    for src in [
        "size(frz ({'a} \\/ {'b, 'c}))",
        "member(frz 'b, frz {'a, 'b})",
        "diff(frz {'a, 'b, 'c}, frz {'b})",
        "frz {'a} \\/ {'a}",
        "frz {'a} \\/ {'b}",
    ] {
        let r = eval_fuel(&parse(src).expect("parse"), 32);
        println!("  {src:<38} ↦ {r}");
    }

    header("E-lex — §5.2 versioned values: LWW register & multiversioning");
    let writes = [
        ("⟨1, \"draft\"⟩", lex(level(1), string("draft"))),
        ("⟨3, \"final\"⟩", lex(level(3), string("final"))),
        ("⟨2, \"review\"⟩", lex(level(2), string("review"))),
    ];
    let mut acc = botv();
    for (label, w) in &writes {
        acc = join_results(&acc, w);
        println!("  after write {label:<14} register = {acc}");
    }
    let bind = parse("bind x <- lex(`3, 10) in lex(`1, x * 2)").expect("parse");
    println!("  bind read@3 write@1       ↦ {}", eval_fuel(&bind, 16));
    let siblings = join(
        lex(set(vec![int(1)]), set(vec![string("a")])),
        lex(set(vec![int(2)]), set(vec![string("b")])),
    );
    println!("  concurrent set payloads   ↦ {}", eval_fuel(&siblings, 16));

    header("E-amb — §6 static ambiguity analysis");
    for src in [
        "if true then 1 else 2",
        "1 \\/ 2",
        "(\\x. let 'a = x in 1) \\/ (\\x. let 'b = x in 2)",
        "lex(`1, 'a) \\/ lex(`1, 'b)",
        "member(frz 1, frz {1, 2})",
    ] {
        let v = check_ambiguity(&parse(src).expect("parse"));
        println!("  {src:<48} → {v}");
    }

    header("E-semi — §5.1 incremental evaluation: step-call counts");
    println!("{:<16} {:>10} {:>12}", "graph", "seminaive", "naive");
    for (name, g) in [
        ("line-12", Graph::line(12)),
        ("cycle-8", Graph::cycle(8)),
        ("tree-4", Graph::binary_tree(4)),
    ] {
        let step = g.neighbors_fn();
        let mut e = SeminaiveEngine::new(step.clone(), 64);
        e.push(vec![int(0)]);
        let fix = e.run(10_000);
        let (nfix, n) = naive_rounds(&step, vec![int(0)], 64, 10_000);
        assert!(
            lambda_join_core::observe::result_equiv(&fix, &nfix),
            "{name}: strategies disagree"
        );
        println!(
            "{name:<16} {:>10} {:>12}",
            e.stats().step_calls,
            n.step_calls
        );
    }
}

/// E-deep: the explicit-stack engine on workloads past the recursive
/// evaluator's stack ceiling (the depths PR 1's 64 MiB `RUST_MIN_STACK`
/// crutch existed for — now deleted).
fn deep_fig() {
    use lambda_join_core::bigstep::spec;
    header("E-deep — explicit-stack engine vs. recursive spec ceiling");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>16}",
        "workload", "depth", "β-steps", "result", "recursive spec"
    );
    // Shallow: the spec still fits the stack — verify agreement.
    let (down, down_fuel) = countdown(256);
    let shallow: Vec<(&str, _, usize, usize)> = vec![
        ("lets", nested_lets(256), 256 + 8, 256),
        ("apps", nested_apps(1024), 2, 1024),
        ("countdown", down, down_fuel, 256),
    ];
    for (name, t, fuel, depth) in shallow {
        let (r, betas) = eval_fuel_counting(&t, fuel);
        let agree = r.alpha_eq(&spec::eval_fuel_recursive(&t, fuel));
        println!(
            "{name:<18} {depth:>10} {betas:>12} {:>10} {:>16}",
            r.to_string(),
            if agree { "agrees" } else { "DISAGREES!" }
        );
        assert!(agree, "{name}: engine diverges from spec");
    }
    // Deep: engine-only territory (the spec would overflow the stack).
    let (deep_down, deep_down_fuel) = countdown(8192);
    let deep: Vec<(&str, _, usize, usize)> = vec![
        ("apps (deep)", nested_apps(100_000), 2, 100_000),
        ("countdown (deep)", deep_down, deep_down_fuel, 8192),
    ];
    for (name, t, fuel, depth) in deep {
        let (r, betas) = eval_fuel_counting(&t, fuel);
        println!(
            "{name:<18} {depth:>10} {betas:>12} {:>10} {:>16}",
            r.to_string(),
            "out of reach"
        );
    }
    // The stream pipeline: observed prefix depth grows with fuel on a
    // stock stack (this line alone used to require 64 MiB).
    let from_n = from_n_pipeline();
    let (v, betas) = eval_fuel_counting(&from_n, 8192);
    println!(
        "{:<18} {:>10} {betas:>12} {:>10} {:>16}",
        "fromN (deep)", 8192, "cons…", "out of reach"
    );
    let _ = v; // deep value: display would be enormous; drop iteratively
}

/// `dl` — the Datalog scale generators at smoke sizes: both strategies
/// (naive, seminaive) must agree on every graph family, and
/// the families with closed-form oracles must hit them exactly. This is
/// the CI gate that keeps `bench::workloads`' generators and the scale
/// benchmarks from rotting.
fn dl_fig() {
    use lambda_join_datalog::ast::{cst, var};
    use lambda_join_datalog::eval::{
        eval_ids, reaches_program as dl_reaches, same_generation_program,
        transitive_closure_program, triangle_program,
    };
    use lambda_join_datalog::Atom;

    header("E-dl — Datalog scale generators (smoke sizes), all strategies agree");
    println!(
        "{:<22} {:>7} {:>9} {:>7} {:>12}",
        "workload", "edb", "facts", "rounds", "derivations"
    );
    let mut workloads: Vec<(String, lambda_join_datalog::Program, Option<usize>)> = vec![
        (
            "tc chains 40×5".into(),
            transitive_closure_program(&chain_forest_edges(40, 5)),
            Some(chain_forest_tc_size(40, 5)),
        ),
        (
            "reach sparse 1k".into(),
            dl_reaches(&random_sparse_edges(500, 1_000, 0xDA7A), 0),
            None,
        ),
        (
            "reach grid 25×20".into(),
            dl_reaches(&grid_edges(25, 20), 0),
            Some(500),
        ),
        (
            "reach scale-free 1k".into(),
            dl_reaches(&scale_free_edges(500, 2, 0xDA7A), 0),
            None,
        ),
    ];
    // Triangle counting at smoke size — the leapfrog-triejoin path,
    // checked against the brute-force oracle.
    {
        let es = symmetrize_edges(&scale_free_edges(400, 2, 0xDA7A));
        let want = brute_force_triangles(&es);
        workloads.push((
            "triangles scale-free 400".into(),
            triangle_program(&es),
            Some(want),
        ));
    }
    // Same-generation on the depth-5 complete binary tree: closed-form
    // oracle, cyclic recursive rule + acyclic base rule in one program.
    workloads.push((
        "sg binary tree d5".into(),
        same_generation_program(&binary_tree_parent_edges(5)),
        Some(binary_tree_sg_size(5)),
    ));
    // Stratified negation smoke: chain-forest nodes *not* reachable from
    // node 0 — stratum 1 anti-joins against the stratum-0 fixpoint. Chain
    // 0 holds nodes 0..=5, so exactly 6 of the 240 nodes are reached.
    {
        let es = chain_forest_edges(40, 5);
        let mut p = dl_reaches(&es, 0);
        let nodes: BTreeSet<i64> = es.iter().flat_map(|&(a, b)| [a, b]).collect();
        let n_nodes = nodes.len();
        for n in nodes {
            p.fact(Atom::new("node", vec![cst(n)]));
        }
        p.rule_neg(
            Atom::new("unreached", vec![var("X")]),
            vec![Atom::new("node", vec![var("X")])],
            vec![Atom::new("reaches", vec![var("X")])],
        );
        workloads.push(("unreached chains 40×5".into(), p, Some(n_nodes - 6)));
    }
    for (name, p, oracle) in workloads {
        let edges = p.fact_count();
        let (semi, stats) = eval_ids(&p, Strategy::Seminaive);
        let (naive, _) = eval_ids(&p, Strategy::Naive);
        let out = p.rules.last().expect("nonempty program").head.pred.clone();
        assert_eq!(semi.rows(&out), naive.rows(&out), "{name}: naive diverges");
        if let Some(want) = oracle {
            assert_eq!(semi.fact_count(&out), want, "{name}: oracle missed");
        }
        println!(
            "{name:<22} {edges:>7} {:>9} {:>7} {:>12}",
            semi.fact_count(&out),
            stats.rounds,
            stats.derivations
        );
    }
    println!("(naive ≡ seminaive on every family; oracles exact)");
}

/// `cluster` — the replicated lattice store under fault injection, at
/// smoke sizes: each scenario drives the acked anti-entropy protocol
/// through a seeded adversary (partitions, crashes, drops, duplication)
/// and asserts convergence to the omniscient-join oracle internally.
/// Deterministic replay is re-checked here (same seed ⇒ byte-identical
/// transcript), so CI catches any nondeterminism the moment it appears.
fn cluster_fig() {
    use lambda_join_crdt::cluster::scenario;

    header("E-cluster — fault-injected replicated lattice store (smoke sizes)");
    println!(
        "{:<22} {:>7} {:>9} {:>9} {:>7} {:>9}",
        "scenario", "steps", "deltas", "bytes", "retries", "restarts"
    );
    let named: Vec<(&str, scenario::Report)> = vec![
        ("versioned_kv", scenario::versioned_kv(11, 3, 4)),
        ("two_phase_commit", scenario::two_phase_commit(12)),
        ("collab_text", scenario::collab_text(13)),
        ("counter_storm", scenario::counter_storm(14, 4, 8)),
        ("kv_partition_heal", scenario::kv_partition_heal(15, 6)),
    ];
    for (name, r) in &named {
        println!(
            "{name:<22} {:>7} {:>9} {:>9} {:>7} {:>9}",
            r.steps, r.stats.delta_msgs, r.stats.delta_bytes, r.stats.retries, r.stats.restarts
        );
    }
    // Replay determinism: the transcript is a pure function of the seed.
    let again = scenario::versioned_kv(11, 3, 4);
    assert_eq!(
        named[0].1.transcript, again.transcript,
        "replay diverged from the original run"
    );
    let (stats, steps) = scenario::gset_sync_traffic(500);
    let ratio = stats.full_state_bytes_equiv / stats.delta_bytes.max(1);
    println!(
        "gset_sync_traffic(500): {steps} steps, {} delta B vs {} full-state B ({ratio}x)",
        stats.delta_bytes, stats.full_state_bytes_equiv
    );
    assert!(ratio >= 2, "delta anti-entropy lost its edge at smoke size");
    println!("(all scenarios assert convergence to the oracle; replay is byte-identical)");
}

/// Eq. (2): the domain equation checks.
fn eq2_fig() {
    header("Eq. (2)/App. B — domain equation on finite fragments");
    use lambda_join_domain::vform_basis::*;
    use lambda_join_filter::formula::build::*;
    use lambda_join_filter::formula::enumerate_vforms;
    use lambda_join_filter::CForm;
    let frag: Vec<_> = enumerate_vforms(&[Symbol::tt(), Symbol::Level(1), Symbol::Level(2)], 2)
        .into_iter()
        .take(40)
        .collect();
    println!(
        "  Lemma B.5 (decomposition iso): {:?}",
        decomposition_iso_holds(&frag).map(|_| "holds")
    );
    let small: Vec<_> = frag.iter().take(8).cloned().collect();
    println!(
        "  Lemma B.6 (pairs ≅ product):   {:?}",
        pair_iso_holds(&small).map(|_| "holds")
    );
    let tiny = vec![botv_v(), vsym(Symbol::Level(1)), vsym(Symbol::tt())];
    println!(
        "  Lemma B.7 (sets ≅ P_H):        {:?}",
        set_iso_holds(&tiny, 2).map(|_| "holds")
    );
    let inputs = vec![vsym(Symbol::Level(1)), vsym(Symbol::Level(2)), botv_v()];
    let outputs = vec![CForm::Bot, val(vsym(Symbol::tt())), botv()];
    println!(
        "  Lemma B.8 (funs ≅ approx maps): {:?}",
        fun_iso_holds(&inputs, &outputs, 2).map(|_| "holds")
    );
}
