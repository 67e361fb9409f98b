//! Deep-recursion regressions for the runtime substrates (memoised
//! engine, observation streams) — the runtime counterpart of
//! `lambda-join-core/tests/deep_recursion.rs`. Everything must run on a
//! 512 KiB thread.

use lambda_join_core::builder::*;
use lambda_join_core::parser::parse;
use lambda_join_core::term::{Term, TermRef};
use lambda_join_runtime::interp::term_stream_memo;
use lambda_join_runtime::MemoEval;

fn on_tiny_stack(name: &str, f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name(name.to_string())
        .stack_size(512 * 1024)
        .spawn(f)
        .expect("spawn tiny-stack thread")
        .join()
        .expect("evaluation must fit a 512 KiB stack");
}

#[test]
fn memoised_engine_runs_50k_nested_lets_on_tiny_stack() {
    // 50 000 nested lets, one β each, all on one path: the id machine
    // holds the pending contexts on the heap, and the 50k-deep source
    // term must drop iteratively.
    on_tiny_stack("memo-deep-lets", || {
        let n = 50_000usize;
        let mut body: TermRef = var(&format!("a{}", n - 1));
        for i in (1..n).rev() {
            body = let_in(
                &format!("a{i}"),
                add(var(&format!("a{}", i - 1)), int(1)),
                body,
            );
        }
        let t = let_in("a0", int(0), body);
        let mut m = MemoEval::new();
        let r = m.eval_fuel(&t, n + 8);
        assert!(r.alpha_eq(&int((n - 1) as i64)));
    });
}

#[test]
fn memoised_engine_runs_deep_beta_chain_on_tiny_stack() {
    on_tiny_stack("memo-deep-beta", || {
        let n = 20_000usize;
        let t = parse(&format!(
            "let rec down n = if n <= 0 then 0 else down (n - 1) in down {n}"
        ))
        .unwrap();
        let mut m = MemoEval::new();
        let r = m.eval_fuel(&t, 4 * n + 16);
        assert!(r.alpha_eq(&int(0)));
    });
}

#[test]
fn memoised_engine_deep_stream_value_drops_iteratively() {
    on_tiny_stack("memo-deep-stream-value", || {
        // fromN at fuel 2000: a ~2000-deep cons value extracted from the
        // arena, then dropped.
        let t = parse("let rec fromN n = (n :: fromN (n + 1)) \\/ botv in fromN 0").unwrap();
        let mut m = MemoEval::new();
        let r = m.eval_fuel(&t, 2000);
        assert!(matches!(&*r, Term::Pair(..)));
    });
}

#[test]
fn memoised_engine_joins_two_deep_streams_on_tiny_stack() {
    // The id-level join's pointwise descent over two deep pair spines
    // must be heap-bounded, like `reduce::join_results` in core.
    on_tiny_stack("memo-deep-stream-join", || {
        let t = parse(
            "let rec fromN n = (n :: fromN (n + 1)) \\/ botv in \
             fromN 0 \\/ fromN 0",
        )
        .unwrap();
        let mut m = MemoEval::new();
        let r = m.eval_fuel(&t, 4000);
        assert!(matches!(&*r, Term::Pair(..)));
    });
}

#[test]
fn memo_stream_sweeps_deep_fuel_on_tiny_stack() {
    on_tiny_stack("memo-stream-sweep", || {
        let t = parse("let rec down n = if n <= 0 then 0 else down (n - 1) in down 500").unwrap();
        let s = term_stream_memo(&t);
        // Sweep up to convergence; every level runs on the shared engine.
        assert!(s.at(500 * 4 + 16).alpha_eq(&int(0)));
    });
}
