//! Workspace smoke test: asserts the facade's re-exports compose in one
//! program — source text goes through `core::parser`, is evaluated by the
//! `runtime` memoised engine, and the observed result agrees with the
//! `filter` model's formula assignment — then touches every remaining
//! facade module (`domain`, `lvars`, `crdt`, `datalog`) so a broken
//! re-export or crate wiring fails here first, not deep inside a suite.

use std::collections::BTreeSet;

use lambda_join::core::bigstep::{eval_fuel, spec};
use lambda_join::core::builder as b;
use lambda_join::core::machine::Machine;
use lambda_join::core::observe::result_equiv;
use lambda_join::core::parser::parse;
use lambda_join::crdt::GSet;
use lambda_join::datalog::eval::{eval as datalog_eval, reaches_program, rows, Strategy};
use lambda_join::domain::basis::CFormBasis;
use lambda_join::domain::ideal::is_ideal_in_fragment;
use lambda_join::filter::assign::{check_closed, derives_value};
use lambda_join::filter::formula::build as fb;
use lambda_join::filter::semantics::meaning_fragment;
use lambda_join::filter::CForm;
use lambda_join::lvars::LVar;
use lambda_join::runtime::semilattice::JoinSemilattice;
use lambda_join::runtime::MemoEval;

/// The one-program pipeline: parse → evaluation (the memoised engine,
/// checked against the recursive big-step spec) → filter-model agreement.
#[test]
fn parser_evaluators_filter_agree_on_one_program() {
    let src = "for x in {1, 2, 3} . {x * x}";
    let t = parse(src).unwrap();
    let expect = b::set(vec![b::int(1), b::int(4), b::int(9)]);

    // Four evaluators, one answer.
    let big = eval_fuel(&t, 64);
    let spec = spec::eval_fuel_recursive(&t, 64);
    let memoed = MemoEval::new().eval_fuel(&t, 64);
    let mut m = Machine::new(t.clone());
    m.run(1024);
    let machine = m.observe();
    for (name, got) in [
        ("bigstep", &big),
        ("spec", &spec),
        ("memo", &memoed),
        ("machine", &machine),
    ] {
        assert!(result_equiv(got, &expect), "{name}: {got} ≠ {expect}");
    }

    // Filter model agreement: the program derives a value, its meaning
    // fragment is non-trivial, every exhibited formula is accepted by the
    // goal-directed checker, and ⊥ is always derivable.
    assert!(derives_value(&t, 64), "{src} should derive a value");
    assert!(check_closed(&t, &fb::bot(), 8));
    let fragment = meaning_fragment(&t, 12);
    assert!(
        fragment.iter().any(|phi| matches!(phi, CForm::Val(_))),
        "meaning fragment of {src} exhibits no value formula"
    );
    for phi in &fragment {
        assert!(
            check_closed(&t, phi, 24),
            "checker rejects exhibited formula {phi:?}"
        );
    }

    // Domain backend: the derivable fragment really is an ideal.
    let derivable: Vec<CForm> = fragment
        .iter()
        .filter(|phi| check_closed(&t, phi, 24))
        .cloned()
        .collect();
    is_ideal_in_fragment(&CFormBasis, &derivable, &fragment)
        .unwrap_or_else(|e| panic!("meaning of {src} is not an ideal: {e}"));
}

/// The remaining substrates re-exported by the facade, exercised on the
/// same tiny graph so the crate graph (lvars → runtime, crdt → runtime,
/// datalog) is linked into one binary.
#[test]
fn substrate_reexports_compose() {
    let edges = [(0i64, 1i64), (1, 2), (2, 0), (2, 3)];

    // Datalog: reachable-from-0 is everything.
    let (db, _) = datalog_eval(&reaches_program(&edges, 0), Strategy::Seminaive);
    assert_eq!(rows(&db, "reaches").len(), 4);

    // LVars: threshold read fires once the state crosses it.
    let lv: LVar<BTreeSet<i64>> = LVar::new(BTreeSet::new());
    for (s, t) in edges {
        lv.put(&[s].into_iter().collect()).unwrap();
        lv.put(&[t].into_iter().collect()).unwrap();
    }
    let threshold: BTreeSet<i64> = [3].into_iter().collect();
    assert_eq!(lv.get(std::slice::from_ref(&threshold)), threshold);

    // CRDT: two replicas seeing different halves converge under join.
    let mut left: GSet<i64> = GSet::new();
    let mut right: GSet<i64> = GSet::new();
    for (s, t) in &edges[..2] {
        left.insert(*s);
        left.insert(*t);
    }
    for (s, t) in &edges[2..] {
        right.insert(*s);
        right.insert(*t);
    }
    let merged = left.join(&right);
    assert_eq!(merged, right.join(&left), "GSet join must commute");
    for node in 0..4 {
        assert!(merged.contains(&node));
    }
}
