//! `lambdav` — a command-line runner and evaluation server for λ∨
//! programs.
//!
//! ```sh
//! lambdav run  'program or file.lv'  [--fuel N] [--timeout MS]  # final observation
//! lambdav watch 'program or file.lv' [--fuel N] [--timeout MS]  # observation stream
//! lambdav check 'program or file.lv' [--fuel N]                 # parse + formula info
//! lambdav serve [--addr HOST:PORT] [--sessions N]               # evaluation service
//!               [--fuel-cap N] [--outstanding-fuel N]
//!               [--snapshot PATH] [--snapshot-interval MS]
//! ```
//!
//! `run` and `watch` evaluate through one memoised evaluator
//! (`runtime::memo::MemoEval`); `--timeout` bounds it with a deadline.
//! They additionally accept `--load-snapshot PATH` and
//! `--save-snapshot PATH`: loading warm-starts the arena and call cache
//! from a prior run's checkpoint (a missing file is a cold start), saving
//! checkpoints them after a successful evaluation. `serve --snapshot
//! PATH` warm-boots the shared server memo from `PATH` and checkpoints
//! back on graceful shutdown (plus every `--snapshot-interval`
//! milliseconds when given).
//!
//! The program argument is treated as a file path if such a file exists,
//! otherwise as inline source. Exactly one program argument is accepted;
//! a second positional or an unrecognised flag is an error rather than a
//! silent overwrite (so `--feul 9` fails loudly instead of evaluating
//! with the default fuel).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use lambda_join::core::engine::{Budget, StopCause};
use lambda_join::core::parser::parse;
use lambda_join::core::TermRef;
use lambda_join::filter::ambiguity::check_ambiguity_fuel;
use lambda_join::filter::assign::derives_value;
use lambda_join::filter::semantics::meaning_fragment;
use lambda_join::runtime::memo::MemoEval;
use lambda_join::runtime::server::{serve, ServerConfig};

const USAGE: &str = "usage: lambdav <run|watch|check> <program-or-file> [--fuel N] [--timeout MS]
                [--load-snapshot PATH] [--save-snapshot PATH]
       lambdav serve [--addr HOST:PORT] [--sessions N] [--fuel-cap N] [--outstanding-fuel N]
                [--snapshot PATH] [--snapshot-interval MS]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "run" | "watch" | "check" => eval_command(cmd, rest),
        "serve" => serve_command(rest),
        other => {
            eprintln!("unknown command {other:?}; use run, watch, check, or serve");
            ExitCode::FAILURE
        }
    }
}

/// Parses the next value of flag `flag` as a number, with a loud error.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::vec::IntoIter<String>,
) -> Result<T, ExitCode> {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(n) => Ok(n),
        None => {
            eprintln!("{flag} requires a number");
            Err(ExitCode::FAILURE)
        }
    }
}

fn eval_command(cmd: &str, rest: Vec<String>) -> ExitCode {
    let mut fuel = 40usize;
    let mut timeout_ms: Option<u64> = None;
    let mut source_arg: Option<String> = None;
    let mut load_snapshot: Option<std::path::PathBuf> = None;
    let mut save_snapshot: Option<std::path::PathBuf> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fuel" => match flag_value("--fuel", &mut it) {
                Ok(n) => fuel = n,
                Err(code) => return code,
            },
            "--timeout" if cmd != "check" => match flag_value("--timeout", &mut it) {
                Ok(n) => timeout_ms = Some(n),
                Err(code) => return code,
            },
            "--load-snapshot" if cmd != "check" => match it.next() {
                Some(p) => load_snapshot = Some(p.into()),
                None => {
                    eprintln!("--load-snapshot requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--save-snapshot" if cmd != "check" => match it.next() {
                Some(p) => save_snapshot = Some(p.into()),
                None => {
                    eprintln!("--save-snapshot requires a path");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?} for `lambdav {cmd}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ => {
                if let Some(prev) = &source_arg {
                    eprintln!(
                        "unexpected second program argument {a:?} (already have {prev:?}); \
                         pass exactly one program or file"
                    );
                    return ExitCode::FAILURE;
                }
                source_arg = Some(a);
            }
        }
    }
    let Some(source_arg) = source_arg else {
        eprintln!("missing program argument");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&source_arg) {
        Ok(contents) => contents,
        Err(_) => source_arg,
    };
    let term: TermRef = match parse(&src) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if !term.is_closed() {
        eprintln!("program has free variables: {:?}", term.free_vars());
        return ExitCode::FAILURE;
    }
    if cmd == "check" {
        println!("parsed: {term}");
        println!("size: {} nodes", term.size());
        println!(
            "derives a value (⊥v ⪯log e): {}",
            derives_value(&term, fuel)
        );
        println!("ambiguity: {}", check_ambiguity_fuel(&term, fuel));
        println!("meaning fragment (fuel ≤ {fuel}):");
        for phi in meaning_fragment(&term, fuel.min(16)) {
            println!("  ⊢ e : {phi}");
        }
        return ExitCode::SUCCESS;
    }
    // `run` and `watch` evaluate through one memoised evaluator, warm-started
    // from `--load-snapshot` when that file exists (a missing file is a cold
    // start, matching the server's boot behaviour; a corrupt one is a loud
    // typed error).
    let mut memo = match &load_snapshot {
        Some(p) if p.exists() => match MemoEval::load_snapshot(p) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("failed to load snapshot {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
        _ => MemoEval::new(),
    };
    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let watch = cmd == "watch";
    for f in if watch { 0..=fuel } else { fuel..=fuel } {
        let mut budget = Budget::new(usize::MAX);
        if let Some(d) = deadline {
            budget = budget.with_deadline(d);
        }
        let obs = memo.eval_budgeted(&term, f, &mut budget);
        if budget.stop_cause() == Some(StopCause::Deadline) {
            let at = if watch {
                format!(" (at fuel {f})")
            } else {
                String::new()
            };
            eprintln!("deadline exceeded after {} ms{at}", timeout_ms.unwrap_or(0));
            return ExitCode::FAILURE;
        }
        if watch {
            println!("t{f}: {obs}");
        } else {
            println!("{obs}");
        }
    }
    if let Some(p) = &save_snapshot {
        match memo.save_snapshot(p) {
            Ok(bytes) => eprintln!("saved snapshot {} ({bytes} bytes)", p.display()),
            Err(e) => {
                eprintln!("failed to save snapshot {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn serve_command(rest: Vec<String>) -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(addr) => cfg.addr = addr,
                None => {
                    eprintln!("--addr requires HOST:PORT");
                    return ExitCode::FAILURE;
                }
            },
            "--sessions" => match flag_value("--sessions", &mut it) {
                Ok(n) => cfg.max_sessions = n,
                Err(code) => return code,
            },
            "--fuel-cap" => match flag_value("--fuel-cap", &mut it) {
                Ok(n) => cfg.max_fuel = n,
                Err(code) => return code,
            },
            "--outstanding-fuel" => match flag_value("--outstanding-fuel", &mut it) {
                Ok(n) => cfg.max_outstanding_fuel = n,
                Err(code) => return code,
            },
            "--snapshot" => match it.next() {
                Some(p) => cfg.snapshot_path = Some(p.into()),
                None => {
                    eprintln!("--snapshot requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--snapshot-interval" => match flag_value("--snapshot-interval", &mut it) {
                Ok(n) => cfg.snapshot_interval_ms = n,
                Err(code) => return code,
            },
            other => {
                eprintln!("unknown argument {other:?} for `lambdav serve`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    match serve(cfg) {
        Ok(handle) => {
            // The load generator and the CI smoke step scrape this line
            // for the bound (possibly OS-assigned) address.
            println!("listening on {}", handle.addr());
            let drained = handle.wait();
            eprintln!(
                "lambdav serve: shut down{}",
                if drained { "" } else { " (sessions timed out)" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to bind: {e}");
            ExitCode::FAILURE
        }
    }
}
