//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds `lambdav` and this binary, then runs
//! `perfbench --workload W --seed N --seconds S --trace 0|1 --lambdav BIN --out DIR`.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — every end-to-end metric of `BENCHMARK.json`
//! when untraced, every per-layer metric when traced (0 where the
//! workload does not run the layer). `METRICS.md` defines every name.

mod calib;
mod datalog;
mod ledger;
mod requests;
mod serve;
#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;

use lambda_join_runtime::server::protocol::json_escape;
use ledger::Metrics;

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub lambdav: PathBuf,
    pub out_dir: PathBuf,
}

/// Outputs attempted and failed, plus run-level breakage (a ledger that
/// does not close, a replay that disagrees) that fails the run outright.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub broken: bool,
    pub notes: Vec<String>,
}

impl Verdict {
    /// One failed output.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// A check that fails the whole run.
    pub fn break_run(&mut self, why: String) {
        self.broken = true;
        self.note(why);
    }

    pub fn note(&mut self, why: String) {
        if self.notes.len() < 16 {
            eprintln!("perfbench: {why}");
            self.notes.push(why);
        }
    }
}

/// Every workload this binary runs. `BENCHMARK.json` gates all but
/// `serve_cold` (see `METRICS.md`).
pub const WORKLOADS: [&str; 3] = ["serve_warm", "serve_cold", "datalog_batch"];

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("fixpoint_s", "s"),
    ("restore_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("failed_share", "share"),
        ("host.compute_unit_s", "s"),
        ("host.round_trip_unit_s", "s"),
        ("runtime.server.memo_hit_ratio", "ratio"),
        ("runtime.server.memo_misses", "count"),
        ("runtime.server.interner_nodes_growth", "count"),
        ("runtime.server.gc_runs", "count"),
        ("runtime.server.rejected", "count"),
        ("runtime.server.wall_us_p50", "us"),
        ("runtime.server.outside_share", "share"),
        ("serve.reaches.latency_p50_us", "us"),
        ("serve.tpc.latency_p50_us", "us"),
        ("serve.watch.latency_p50_us", "us"),
        ("serve.latency_samples", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for layer in serve::LAYERS {
        v.push((format!("{layer}_us"), "us"));
        v.push((format!("{layer}_share"), "share"));
    }
    v.push(("replay.unaccounted_share".into(), "share"));
    v.push(("datalog.parser.parse_s".into(), "s"));
    for job in datalog::JOBS {
        v.push((format!("datalog.eval.{job}.eval_s"), "s"));
        v.push((format!("datalog.eval.{job}.rounds"), "count"));
        v.push((format!("datalog.eval.{job}.derivations"), "count"));
        v.push((format!("datalog.eval.{job}.useful_ratio"), "ratio"));
    }
    for (n, u) in [
        ("datalog.snap.save_s", "s"),
        ("datalog.snap.bytes", "bytes"),
        ("datalog.snap.load_s", "s"),
        ("oracle.verify_s", "s"),
        ("datalog.ledger.unaccounted_share", "share"),
        ("trace.overhead_share", "share"),
    ] {
        v.push((n.into(), u));
    }
    v
}

fn parse_args() -> Result<(Run, String, String), String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut lambdav, mut out_dir) = (None, PathBuf::from(".bench_out"));
    let (mut rustc, mut git_rev) = (String::from("unknown"), String::from("unknown"));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            "--lambdav" => lambdav = Some(PathBuf::from(value)),
            "--out" => out_dir = PathBuf::from(value),
            "--rustc" => rustc = value,
            "--git-rev" => git_rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let run = Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
        lambdav: lambdav.ok_or("--lambdav is required")?,
        out_dir,
    };
    Ok((run, rustc, git_rev))
}

fn main() -> ExitCode {
    let (run, rustc, git_rev) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.out_dir.display());
        return ExitCode::from(2);
    }
    let mut measured = Metrics::default();
    let mut verdict = Verdict::default();
    let outcome = match run.workload.as_str() {
        "serve_warm" => serve::run(&run, false, &mut measured, &mut verdict),
        "serve_cold" => serve::run(&run, true, &mut measured, &mut verdict),
        _ => datalog::run(&run, &mut measured, &mut verdict),
    };
    let tracer = match outcome {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload);
            return ExitCode::FAILURE;
        }
    };

    // Report exactly the listed metrics; a traced run reports 0 for the
    // layers its workload does not run.
    let mut metrics = Metrics::default();
    if run.trace {
        for (name, unit) in per_layer() {
            metrics.put(name.clone(), measured.get(&name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            match measured.get(name) {
                Some(v) => metrics.put(name, v, unit),
                None => {
                    eprintln!("perfbench: {} did not measure {name}", run.workload);
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let tag = format!(
        "{}-seed{}-trace{}",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    if run.trace {
        let path = run.out_dir.join(format!("spans-{tag}.jsonl"));
        match tracer.write(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => verdict.break_run(format!("writing spans to {}: {e}", path.display())),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_rev\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{profile}\"}}",
        run.workload,
        run.seed,
        run.seconds,
        run.trace,
        json_escape(&git_rev),
        json_escape(&rustc)
    );
    for (name, value, unit) in &metrics.0 {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    println!("context {context}");
    let correct = verdict.failed == 0 && !verdict.broken;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdict.attempted.max(1),
        verdict.failed,
        metrics.to_json()
    );
    let notes: Vec<String> = verdict
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    let record = format!(
        "{{\"context\": {context}, \"notes\": [{}], \"result\": {result}}}\n",
        notes.join(", ")
    );
    if let Err(e) = std::fs::write(run.out_dir.join(format!("result-{tag}.json")), record) {
        eprintln!("perfbench: writing the result record: {e}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
