//! The oracle must bite: corrupted replies, wrong partial observations
//! and a restored store missing a row are all caught.

use std::collections::{HashMap, HashSet};

use lambda_join_core::bigstep::eval_fuel;
use lambda_join_datalog::{eval_ids, parse_program, Strategy};

use crate::datalog::{check, check_restored, Job, Oracle};
use crate::requests::{
    cold_request, expected, oracle_thread, reply_matches, warm_pool, Expected, Kind, Reply,
    ReplyTally, Request,
};
use crate::serve::judge;

/// The reply a correct server sends, built with the production
/// evaluator rather than the reference one.
fn honest_reply(req: &Request) -> Reply {
    match req.step {
        None => Reply::Eval(eval_fuel(&req.term, req.fuel).to_string()),
        Some(_) => {
            let mut obs: Vec<(u64, String)> = Vec::new();
            let points = req.watch_points();
            for &f in &points {
                let r = eval_fuel(&req.term, f).to_string();
                if obs.last().is_none_or(|(_, last)| *last != r) {
                    obs.push((f as u64, r));
                }
            }
            Reply::Watch {
                obs,
                steps: points.len() as u64,
            }
        }
    }
}

fn pool_expected() -> Vec<(Request, Expected)> {
    oracle_thread(|| {
        warm_pool()
            .into_iter()
            .map(|r| {
                let want = expected(&r);
                (r, want)
            })
            .collect()
    })
    .join()
    .expect("oracle thread")
}

#[test]
fn honest_replies_pass_including_fuel_exhausted_partials() {
    for (req, want) in pool_expected() {
        assert!(
            reply_matches(&want, &honest_reply(&req)),
            "{} should pass",
            req.kind.name()
        );
    }
}

#[test]
fn corrupted_reply_is_caught() {
    let (req, want) = pool_expected().remove(0);
    assert_eq!(req.kind, Kind::Reaches);
    let Reply::Eval(good) = honest_reply(&req) else {
        panic!("eval reply expected")
    };
    for bad in [
        good.replacen('5', "7", 1),    // a wrong element
        good.replacen(", 5", "", 1),   // a missing element
        good[..good.len() - 1].into(), // truncated: does not parse
        "{\"kind\":\"ok\"}".into(),    // not an observation at all
    ] {
        assert_ne!(bad, good);
        assert!(
            !reply_matches(&want, &Reply::Eval(bad.clone())),
            "{bad:?} slipped through"
        );
    }
}

#[test]
fn wrong_partial_observation_is_caught() {
    let (req, want) = pool_expected()
        .into_iter()
        .find(|(r, _)| r.kind == Kind::Watch)
        .expect("the pool streams a watch");
    let Reply::Watch { obs, steps } = honest_reply(&req) else {
        panic!("watch reply expected")
    };
    assert!(obs.len() >= 3, "evens should stream several observations");
    // One partial observation too large, one too small, one dropped,
    // and a wrong step count.
    let mut too_big = obs.clone();
    too_big[1].1 = too_big[1].1.replacen('}', ", 100}", 1);
    let mut too_small = obs.clone();
    too_small[2].1 = "{0}".into();
    let mut dropped = obs.clone();
    dropped.remove(1);
    for (bad, bad_steps) in [
        (too_big, steps),
        (too_small, steps),
        (dropped, steps),
        (obs.clone(), steps + 1),
    ] {
        let reply = Reply::Watch {
            obs: bad,
            steps: bad_steps,
        };
        assert!(!reply_matches(&want, &reply), "{reply:?} slipped through");
    }
}

#[test]
fn wrong_replies_count_once_per_occurrence() {
    let pool = pool_expected();
    let (req, want) = &pool[0];
    let mut tally = ReplyTally::default();
    for _ in 0..5 {
        tally.add(honest_reply(req), 1);
    }
    for _ in 0..3 {
        tally.add(Reply::Eval("{0}".into()), 1);
    }
    let tallies = HashMap::from([(0u64, tally)]);
    let wants = HashMap::from([(0u64, want.clone())]);
    assert_eq!(judge(&tallies, &wants), 3);
}

#[test]
fn cold_stream_never_repeats_a_program() {
    let reqs: Vec<Request> = (0..2_000).map(|i| cold_request(7, i)).collect();
    let lines: HashSet<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
    assert_eq!(lines.len(), reqs.len());
    assert!(reqs.iter().any(|r| r.kind == Kind::Watch));
    assert!(reqs.iter().any(|r| r.kind == Kind::Reaches));
}

fn job(name: &'static str, source: &str, pred: &'static str, want: usize) -> Job {
    Job {
        name,
        source: source.into(),
        edb: 0,
        oracle: Oracle::Count { pred, want },
    }
}

#[test]
fn restored_store_missing_a_row_is_caught() {
    let full = "a(1). a(2). a(3).";
    let j = job("facts", full, "a", 3);
    let (derived, _) = eval_ids(&parse_program(full).expect("parses"), Strategy::Seminaive);
    let reference = derived.to_snapshot_bytes(false);
    check(&j, &derived).expect("the derived store is right");

    let intact =
        lambda_join_datalog::IdDatabase::from_snapshot_bytes(&derived.to_snapshot_bytes(true))
            .expect("round trip");
    check_restored(&j, &reference, &intact).expect("an intact restore passes");

    let (short, _) = eval_ids(
        &parse_program("a(1). a(2).").expect("parses"),
        Strategy::Seminaive,
    );
    assert!(check_restored(&j, &reference, &short).is_err());
}

#[test]
fn fixpoint_count_mismatch_is_caught() {
    let src =
        "edge(1, 2). edge(2, 3). path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).";
    let (db, _) = eval_ids(&parse_program(src).expect("parses"), Strategy::Seminaive);
    check(&job("tc", src, "path", 3), &db).expect("three paths");
    assert!(check(&job("tc", src, "path", 4), &db).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let listed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let ours: Vec<(String, &str)> = crate::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(crate::per_layer())
        .collect();
    for (name, unit) in &ours {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(listed.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads = listed.matches("\"why\":").count();
    let runnable = crate::WORKLOADS
        .iter()
        .filter(|w| listed.contains(&format!("\"name\": \"{w}\", \"why\"")))
        .count();
    assert_eq!(
        runnable, workloads,
        "BENCHMARK.json lists a workload perfbench does not run"
    );
    let entries = listed.matches("\"name\":").count() - workloads;
    assert_eq!(
        entries,
        ours.len(),
        "BENCHMARK.json lists metrics perfbench does not report"
    );
}
