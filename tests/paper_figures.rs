//! Integration tests pinning down the paper's figures and tables as
//! executable assertions (see docs/BENCHMARKS.md for the index).

use lambda_join::core::bigstep::{eval_converged, eval_fuel, fuel_trace};
use lambda_join::core::builder::*;
use lambda_join::core::encodings::{self, Graph};
use lambda_join::core::machine::observation_trace;
use lambda_join::core::observe::{result_equiv, result_leq};
use lambda_join::core::parser::parse;
use lambda_join::runtime::interp::diagonal_table;

/// Figure 2: the observation column of `fromN 0` is
/// `⊥, ⊥v, 0 :: ⊥v, 0 :: 1 :: ⊥v, …`.
#[test]
fn figure_2_from_n_observations() {
    let prog = app(encodings::from_n(), int(0));
    let trace = observation_trace(prog, 16);
    let expected_prefix = [
        bot(),
        botv(),
        cons(int(0), botv()),
        cons(int(0), cons(int(1), botv())),
        cons(int(0), cons(int(1), cons(int(2), botv()))),
    ];
    assert!(
        trace.len() >= expected_prefix.len(),
        "trace too short: {}",
        trace.len()
    );
    for (i, want) in expected_prefix.iter().enumerate() {
        assert!(
            trace[i].alpha_eq(want),
            "Figure 2 row {i}: got {}, want {}",
            trace[i],
            want
        );
    }
}

/// §1 table: `evens()` streams `{} ⊑ {0} ⊑ {0,2} ⊑ {0,2,4} ⊑ …` and never
/// contains an odd number.
#[test]
fn section_1_evens_stream() {
    let trace = fuel_trace(&encodings::evens(), 40, 2);
    for w in trace.windows(2) {
        assert!(result_leq(&w[0], &w[1]), "stream not monotone");
    }
    let last = trace.last().unwrap();
    for n in [0i64, 2, 4, 6] {
        assert!(result_leq(&set(vec![int(n)]), last), "missing {n}");
    }
    for n in [1i64, 3, 5] {
        assert!(!result_leq(&set(vec![int(n)]), last), "odd {n} present!");
    }
}

/// §1 table, the non-monotone `f`: the paper's hypothetical function that
/// retracts output. We *simulate the observer* outside the calculus: a
/// non-monotone query over the (monotone) stream of `evens()` observations
/// flip-flops, while every λ∨-definable (monotone) query never retracts.
#[test]
fn section_1_non_monotone_observer_flip_flops() {
    let stream: Vec<_> = (0..24).map(|n| eval_fuel(&encodings::evens(), n)).collect();
    // f(x) = {1} if 2 ∈ x and 4 ∉ x, else {} — not expressible in λ∨.
    let f = |obs: &lambda_join::core::TermRef| {
        let has = |k: i64| result_leq(&set(vec![int(k)]), obs);
        has(2) && !has(4)
    };
    let outputs: Vec<bool> = stream.iter().map(f).collect();
    // The output goes false → true → false: a retraction.
    let first_true = outputs.iter().position(|b| *b);
    let retracted = first_true
        .map(|i| outputs[i..].iter().any(|b| !*b))
        .unwrap_or(false);
    assert!(
        retracted,
        "expected the non-monotone observer to retract; outputs: {outputs:?}"
    );
    // A monotone observer ("2 ∈ x") never retracts.
    let mono: Vec<bool> = stream
        .iter()
        .map(|o| result_leq(&set(vec![int(2)]), o))
        .collect();
    let first = mono.iter().position(|b| *b).expect("2 eventually appears");
    assert!(
        mono[first..].iter().all(|b| *b),
        "monotone observer retracted"
    );
}

/// §3.2: the big-join search over `evens()` reduces to `"success"`.
#[test]
fn section_3_2_search_succeeds() {
    assert!(eval_fuel(&encodings::evens_search(), 40).alpha_eq(&string("success")));
}

/// §3.2: `head (fromN 0) ↦* 0`.
#[test]
fn section_3_2_head_from_n() {
    let t = app(encodings::head(), app(encodings::from_n(), int(0)));
    assert!(eval_fuel(&t, 10).alpha_eq(&int(0)));
}

/// Figures 3 & 4: two-phase commit evolves through the paper's stages and
/// reaches the accepted fixed point.
#[test]
fn figure_4_two_phase_commit_stages() {
    let system = encodings::two_phase_commit();
    let field = |fuel: usize, name: &str| {
        let state = eval_fuel(&system, fuel);
        eval_fuel(&project(state, name), 8)
    };
    // Stage: before anything runs, every field is ⊥.
    assert!(field(0, "proposal").alpha_eq(&bot()));
    // Stage: the coordinator proposes before the peers answer.
    let proposal_time = (0..16)
        .step_by(2)
        .find(|&f| field(f, "proposal").alpha_eq(&int(5)))
        .expect("proposal never appeared");
    assert!(
        field(proposal_time, "res").alpha_eq(&bot()),
        "res must come after the proposal"
    );
    // Stage: the fixed point of Figure 4.
    assert!(field(14, "proposal").alpha_eq(&int(5)));
    assert!(field(14, "ok1").alpha_eq(&tt()));
    assert!(field(14, "ok2").alpha_eq(&tt()));
    assert!(field(14, "res").alpha_eq(&string("accepted")));
}

/// Figure 4 variant: a proposal outside the peers' acceptance windows is
/// rejected (peer2 requires proposal ≤ 6 — exercise the 'rejected' path by
/// rebuilding the system with proposal = 9).
#[test]
fn figure_4_rejection_path() {
    let src = "
        let peer1 = \\state. {| ok1 = 4 < state@proposal |} in
        let peer2 = \\state. {| ok2 = state@proposal <= 6 |} in
        let coordinator = \\state.
            {| proposal = 9 |} \\/
            (let ok1 = state@ok1 in let ok2 = state@ok2 in
             {| res = if (if ok1 then ok2 else false)
                      then \"accepted\" else \"rejected\" |}) in
        let rec system _ =
            {||} \\/ peer1 (system ()) \\/ peer2 (system ()) \\/ coordinator (system ())
        in system ()";
    let system = parse(src).unwrap();
    let state = eval_fuel(&system, 14);
    let res = eval_fuel(&project(state, "res"), 8);
    assert!(res.alpha_eq(&string("rejected")), "got {res}");
}

/// Figure 10: the diagonal of the interleaving table is monotone and
/// converges to the direct evaluation.
#[test]
fn figure_10_diagonal() {
    let arg = app(encodings::from_n(), int(0));
    let table = diagonal_table(&encodings::head(), &arg, 12);
    assert!(table.is_monotone());
    assert!(table.diagonal.last().unwrap().alpha_eq(&int(0)));
    // Row 0 (input ⊥) is all ⊥: no output without input for head.
    assert!(table.rows[0].iter().all(|r| r.alpha_eq(&bot())));
}

/// §2.3 `reaches`: the paper's cyclic-graph example computes the right set
/// (nontrivial fixed point) even though the recursion never terminates
/// syntactically.
#[test]
fn section_2_3_reaches_on_cycle() {
    let g = Graph::cycle(4);
    let (r, _) = eval_converged(&encodings::reaches(&g, 0), 400, 10, 4);
    let expect = set(g.reachable(0).into_iter().map(int).collect());
    assert!(result_equiv(&r, &expect), "got {r}");
}

/// §2.2: the `if` encoding behaves as expected in both directions, and the
/// parallel branches make `por` definable (§2.3).
#[test]
fn section_2_2_encodings() {
    assert!(eval_fuel(&parse("if true then 1 else 2").unwrap(), 10).alpha_eq(&int(1)));
    assert!(eval_fuel(&parse("if false then 1 else 2").unwrap(), 10).alpha_eq(&int(2)));
    let t = apps(
        encodings::por(),
        vec![thunk(tt()), thunk(app(encodings::diverge_fn(), unit()))],
    );
    assert!(eval_fuel(&t, 40).alpha_eq(&tt()));
}
