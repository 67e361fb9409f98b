//! The `datalog_batch` workload: three jobs, each taken from generated
//! source text through `parse_program` and seminaive `eval_ids` to a
//! verified fixpoint, then checkpointed with `IdDatabase::save` and
//! restored with `IdDatabase::load`.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lambda_join_bench::workloads::{
    brute_force_triangles, chain_forest_edges, chain_forest_tc_size, scale_free_edges,
    symmetrize_edges,
};
use lambda_join_core::rng::XorShift64;
use lambda_join_datalog::ast::Const;
use lambda_join_datalog::{eval_ids, parse_program, EvalStats, IdDatabase, Program, Strategy};

use crate::calib::{compute_unit, Reference};
use crate::ledger::{median, peak_rss_mb, percentile, Metrics, Tracer};
use crate::{Run, Verdict};

/// Derive-and-checkpoint passes per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The traced run fails when the per-job layer times leave more than this
/// share of `fixpoint_s + restore_s` unaccounted for.
const LEDGER_BOUND: f64 = 0.10;

/// What a job's fixpoint must contain.
pub enum Oracle {
    /// Exactly `want` facts of `pred`.
    Count { pred: &'static str, want: usize },
    /// Exactly these rows of `pred` (sorted), and `reached` facts of `reach`.
    Unreached {
        rows: Vec<Vec<Const>>,
        reached: usize,
    },
}

pub struct Job {
    pub name: &'static str,
    pub source: String,
    /// Ground facts in the source, so `useful_ratio` counts derived facts only.
    pub edb: usize,
    pub oracle: Oracle,
}

pub const JOBS: [&str; 3] = ["tc_chains", "triangles", "unreached"];

/// A seeded relabelling of `0..n`, so the same closed-form shape arrives
/// as different source text under each seed.
fn permutation(n: usize, rng: &mut XorShift64) -> Vec<i64> {
    let mut p: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

fn facts(out: &mut String, pred: &str, edges: &[(i64, i64)]) {
    for (a, b) in edges {
        let _ = writeln!(out, "{pred}({a}, {b}).");
    }
}

/// Full transitive closure of the 1,000 × 25 chain forest: 25,000 edges,
/// exactly 325,000 `path` facts.
pub fn tc_chains(seed: u64) -> Job {
    let (chains, len) = (1_000, 25);
    let mut rng = XorShift64::new(seed ^ 0x7C);
    let label = permutation((chains * (len + 1)) as usize, &mut rng);
    let mut edges: Vec<(i64, i64)> = chain_forest_edges(chains, len)
        .into_iter()
        .map(|(a, b)| (label[a as usize], label[b as usize]))
        .collect();
    let order = permutation(edges.len(), &mut rng);
    edges = order.iter().map(|&i| edges[i as usize]).collect();
    let mut source = String::new();
    facts(&mut source, "edge", &edges);
    source.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n");
    Job {
        name: "tc_chains",
        source,
        edb: edges.len(),
        oracle: Oracle::Count {
            pred: "path",
            want: chain_forest_tc_size(chains, len),
        },
    }
}

/// Triangles of the symmetrised 3,125-node scale-free graph (≈5·10⁴
/// edges), the leapfrog-triejoin job; checked against the brute-force count.
pub fn triangles(seed: u64) -> Job {
    let edges = symmetrize_edges(&scale_free_edges(3_125, 8, seed ^ 0x7A));
    let mut source = String::new();
    facts(&mut source, "e", &edges);
    source.push_str("triangle(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).\n");
    Job {
        name: "triangles",
        source,
        edb: edges.len(),
        oracle: Oracle::Count {
            pred: "triangle",
            want: brute_force_triangles(&edges),
        },
    }
}

/// Reachability plus a stratified-negation anti-join. Nodes `0..r` hang
/// off a random recursive tree rooted at the start node, so all of them
/// are reached; nodes `r..n` only have edges among themselves and into
/// the reached part, so none of them is. The unreached set is known in
/// closed form: the labels of `r..n`.
pub fn unreached(seed: u64) -> Job {
    let n = 12_500usize;
    let mut rng = XorShift64::new(seed ^ 0x0E);
    let r = n * 11 / 20;
    let label = permutation(n, &mut rng);
    let mut edges: HashSet<(i64, i64)> = HashSet::new();
    for i in 1..r {
        edges.insert((rng.below(i as u64) as i64, i as i64));
        edges.insert((rng.below(r as u64) as i64, rng.below(r as u64) as i64));
    }
    for i in r..n {
        edges.insert((i as i64, (r as u64 + rng.below((n - r) as u64)) as i64));
        edges.insert(((r as u64 + rng.below((n - r) as u64)) as i64, i as i64));
        edges.insert((i as i64, rng.below(r as u64) as i64));
    }
    let mut edges: Vec<(i64, i64)> = edges
        .into_iter()
        .map(|(a, b)| (label[a as usize], label[b as usize]))
        .collect();
    edges.sort_unstable();
    let mut source = String::new();
    for &l in &label {
        let _ = writeln!(source, "node({l}).");
    }
    let _ = writeln!(source, "start({}).", label[0]);
    facts(&mut source, "edge", &edges);
    source.push_str(
        "reach(X) :- start(X).\nreach(Y) :- reach(X), edge(X, Y).\nunreached(X) :- node(X), not reach(X).\n",
    );
    let mut rows: Vec<Vec<Const>> = label[r..].iter().map(|&l| vec![Const::Int(l)]).collect();
    rows.sort_unstable();
    Job {
        name: "unreached",
        source,
        edb: n + 1 + edges.len(),
        oracle: Oracle::Unreached { rows, reached: r },
    }
}

/// Checks a fixpoint against its job's oracle.
pub fn check(job: &Job, db: &IdDatabase) -> Result<(), String> {
    match &job.oracle {
        Oracle::Count { pred, want } => {
            let got = db.fact_count(pred);
            if got == *want {
                Ok(())
            } else {
                Err(format!("{}: {got} {pred} facts, want {want}", job.name))
            }
        }
        Oracle::Unreached { rows, reached } => {
            let got = db.fact_count("reach");
            if got != *reached {
                return Err(format!("{}: {got} reach facts, want {reached}", job.name));
            }
            if db.rows("unreached") != *rows {
                return Err(format!(
                    "{}: unreached rows differ from the closed form",
                    job.name
                ));
            }
            Ok(())
        }
    }
}

/// A restored store must re-serialise to exactly the bytes of the store
/// it was saved from.
pub fn check_restored(job: &Job, derived: &[u8], restored: &IdDatabase) -> Result<(), String> {
    if restored.to_snapshot_bytes(false) != derived {
        return Err(format!(
            "{}: restored store differs from the derived one",
            job.name
        ));
    }
    check(job, restored)
}

/// Per-job timings of one pass, in seconds.
#[derive(Default, Clone)]
struct JobTimes {
    parse: f64,
    eval: f64,
    verify: f64,
    save: f64,
    load: f64,
    verify_restore: f64,
    bytes: u64,
    stats: EvalStats,
    useful: f64,
}

struct Pass {
    fixpoint: f64,
    restore: f64,
    jobs: Vec<JobTimes>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Derives and checkpoints every job; with `restore`, also loads and
/// verifies the checkpoints. Records spans when the tracer is enabled.
fn pass(
    jobs: &[Job],
    dir: &Path,
    restore: bool,
    tracer: &mut Tracer,
    req: u64,
    verdict: &mut Verdict,
) -> Pass {
    let paths: Vec<PathBuf> = jobs
        .iter()
        .map(|j| dir.join(format!("{}-{}.snap", j.name, std::process::id())))
        .collect();
    let mut times = vec![JobTimes::default(); jobs.len()];
    let mut derived = Vec::new();
    let p0 = Instant::now();
    for (job, t) in jobs.iter().zip(&mut times) {
        verdict.attempted += 1;
        let a = Instant::now();
        let program = parse_program(&job.source).unwrap_or_else(|e| {
            verdict.fail(format!("{}: {e}", job.name));
            Program::new()
        });
        let b = Instant::now();
        let (db, stats) = eval_ids(&program, Strategy::Seminaive);
        let c = Instant::now();
        if let Err(e) = check(job, &db) {
            verdict.fail(e);
        }
        let d = Instant::now();
        let parent = tracer.record("datalog.job", a, d, None, req);
        tracer.record("datalog.parser.parse", a, b, parent, req);
        tracer.record("datalog.eval", b, c, parent, req);
        tracer.record("oracle.verify", c, d, parent, req);
        (t.parse, t.eval, t.verify) = (secs(b - a), secs(c - b), secs(d - c));
        t.stats = stats;
        t.useful = (db.total_facts() - job.edb.min(db.total_facts())) as f64;
        derived.push(db);
    }
    let fixpoint = secs(p0.elapsed());

    let mut reference = Vec::new();
    for ((db, path), t) in derived.iter().zip(&paths).zip(&mut times) {
        let a = Instant::now();
        match db.save(path, true) {
            Ok(bytes) => t.bytes = bytes,
            Err(e) => verdict.fail(format!("save {}: {e}", path.display())),
        }
        let b = Instant::now();
        tracer.record("datalog.snap.save", a, b, None, req);
        t.save = secs(b - a);
        if restore {
            reference.push(db.to_snapshot_bytes(false));
        }
    }
    drop(derived);

    let mut restored = Vec::new();
    let r0 = Instant::now();
    if restore {
        for (((job, path), t), want) in jobs.iter().zip(&paths).zip(&mut times).zip(&reference) {
            let a = Instant::now();
            let loaded = IdDatabase::load(path);
            let b = Instant::now();
            match &loaded {
                Ok(db) => {
                    if let Err(e) = check_restored(job, want, db) {
                        verdict.fail(e);
                    }
                }
                Err(e) => verdict.fail(format!("load {}: {e}", path.display())),
            }
            let c = Instant::now();
            let parent = tracer.record("datalog.restore", a, c, None, req);
            tracer.record("datalog.snap.load", a, b, parent, req);
            tracer.record("oracle.verify_restore", b, c, parent, req);
            (t.load, t.verify_restore) = (secs(b - a), secs(c - b));
            restored.push(loaded);
        }
    }
    let restore_s = secs(r0.elapsed());
    drop(restored);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    Pass {
        fixpoint,
        restore: restore_s,
        jobs: times,
    }
}

pub fn run(run: &Run, metrics: &mut Metrics, verdict: &mut Verdict) -> Result<Tracer, String> {
    let jobs = vec![
        tc_chains(run.seed),
        triangles(run.seed),
        unreached(run.seed),
    ];
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    // One compute unit before every set-up and pass, and one at the end.
    let mut host = Reference::compute();

    let setups = if run.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    for _ in 0..setups {
        host.push(compute_unit());
        let p = pass(&jobs, &run.out_dir, false, &mut tracer, 0, verdict);
        setup_times.push(p.fixpoint + p.jobs.iter().map(|j| j.save).sum::<f64>());
    }

    let started = Instant::now();
    let until = started + Duration::from_secs_f64(run.seconds);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    while passes.is_empty() || Instant::now() < until {
        // Traced runs trace every other pass, so the overhead compares
        // passes under the same drift.
        let traced = run.trace && passes.len() % 2 == 1;
        tracer.enabled = traced;
        let req = passes.len() as u64 + 1;
        host.push(compute_unit());
        let p = pass(&jobs, &run.out_dir, true, &mut tracer, req, verdict);
        passes.push((traced, p));
    }
    host.push(compute_unit());
    let elapsed = secs(started.elapsed());
    tracer.enabled = run.trace;
    eprintln!(
        "datalog: {} passes of {} jobs in {elapsed:.2} s; compute unit {:.4} s",
        passes.len(),
        jobs.len(),
        host.unit_s()
    );

    let med =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|(_, p)| f(p)).collect::<Vec<_>>());
    let sum = |p: &Pass, f: &dyn Fn(&JobTimes) -> f64| p.jobs.iter().map(f).sum::<f64>();
    if !run.trace {
        // Each figure is the median over passes, scaled to the reference
        // host. A pass's jobs give its p50 (the middle job) and its p99
        // (the slowest).
        let job_us = |p: &Pass, q: f64| {
            let us: Vec<f64> = p
                .jobs
                .iter()
                .map(|j| (j.parse + j.eval + j.verify) * 1e6)
                .collect();
            percentile(&us, q)
        };
        let ok_share = 1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64;
        let scale = host.scale();
        metrics.put("setup_s", median(&setup_times) * scale, "s");
        metrics.put(
            "throughput_rps",
            med(&|p| jobs.len() as f64 * ok_share / (p.fixpoint + sum(p, &|j| j.save) + p.restore))
                / scale,
            "1/s",
        );
        metrics.put("latency_p50_us", med(&|p| job_us(p, 50.0)) * scale, "us");
        metrics.put("latency_p99_us", med(&|p| job_us(p, 99.0)) * scale, "us");
        metrics.put("fixpoint_s", med(&|p| p.fixpoint) * scale, "s");
        metrics.put("restore_s", med(&|p| p.restore) * scale, "s");
        metrics.put("peak_rss_mb", peak_rss_mb("self"), "MB");
        return Ok(tracer);
    }

    metrics.put(
        "failed_share",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        "share",
    );
    metrics.put("host.compute_unit_s", host.unit_s(), "s");
    metrics.put(
        "datalog.parser.parse_s",
        med(&|p| sum(p, &|j| j.parse)),
        "s",
    );
    for (k, name) in JOBS.iter().enumerate() {
        let last = &passes.last().expect("at least one pass").1.jobs[k];
        metrics.put(
            format!("datalog.eval.{name}.eval_s"),
            med(&|p| p.jobs[k].eval),
            "s",
        );
        metrics.put(
            format!("datalog.eval.{name}.rounds"),
            last.stats.rounds as f64,
            "count",
        );
        metrics.put(
            format!("datalog.eval.{name}.derivations"),
            last.stats.derivations as f64,
            "count",
        );
        metrics.put(
            format!("datalog.eval.{name}.useful_ratio"),
            last.useful / (last.stats.derivations as f64).max(1.0),
            "ratio",
        );
    }
    metrics.put("datalog.snap.save_s", med(&|p| sum(p, &|j| j.save)), "s");
    metrics.put(
        "datalog.snap.bytes",
        sum(&passes[0].1, &|j| j.bytes as f64),
        "bytes",
    );
    metrics.put("datalog.snap.load_s", med(&|p| sum(p, &|j| j.load)), "s");
    metrics.put(
        "oracle.verify_s",
        med(&|p| sum(p, &|j| j.verify + j.verify_restore)),
        "s",
    );
    let unaccounted = med(&|p| {
        let layers = sum(p, &|j| {
            j.parse + j.eval + j.verify + j.load + j.verify_restore
        });
        1.0 - layers / (p.fixpoint + p.restore)
    });
    metrics.put("datalog.ledger.unaccounted_share", unaccounted, "share");
    if unaccounted.abs() > LEDGER_BOUND {
        verdict.break_run(format!(
            "ledger does not close: {unaccounted:.3} of fixpoint_s + restore_s unaccounted (bound {LEDGER_BOUND})"
        ));
    }
    let total = |traced: bool| {
        median(
            &passes
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, p)| p.fixpoint + p.restore)
                .collect::<Vec<_>>(),
        )
    };
    metrics.put(
        "trace.overhead_share",
        total(true) / total(false).max(1e-9) - 1.0,
        "share",
    );
    Ok(tracer)
}
