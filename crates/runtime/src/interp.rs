//! Interpreting λ∨ terms as monotone observation streams (§5.1).
//!
//! [`term_stream`] turns a closed term into the `Nat → Result` function the
//! paper describes: the observation at time `n` is the fuel-`n` big-step
//! evaluation, and the stream is monotone in the streaming order.
//! [`diagonal_table`] reproduces the interleaving table of Figure 10 for an
//! application `(λx.e') e`.
//!
//! Both stream constructors run on the shared explicit-stack engine
//! ([`lambda_join_core::engine`]): [`term_stream`] through the plain
//! big-step wrapper, [`term_stream_memo`] through a persistent
//! [`MemoEval`] table shared across fuel levels, so deep observation
//! sweeps neither overflow the native stack nor recompute shared calls.

use std::cell::RefCell;

use lambda_join_core::bigstep::eval_fuel;
use lambda_join_core::observe::result_leq;
use lambda_join_core::term::{Term, TermRef};

use crate::memo::MemoEval;
use crate::stream::MonoStream;

/// The observation stream of a closed term: `n ↦ eval_fuel(e, n)`.
///
/// Monotone in the streaming order (property-tested in `lambda-join-core`).
pub fn term_stream(e: &TermRef) -> MonoStream<TermRef> {
    let e = e.clone();
    MonoStream::from_fn(move |n| eval_fuel(&e, n))
}

/// Like [`term_stream`], but backed by a persistent memo table: β-steps
/// shared between fuel levels (and between duplicated calls within one
/// level) are evaluated once — the tabled counterpart of the paper's
/// diagonal strategy (§5.1). Observationally equal to [`term_stream`].
pub fn term_stream_memo(e: &TermRef) -> MonoStream<TermRef> {
    let e = e.clone();
    let memo = RefCell::new(MemoEval::new());
    MonoStream::from_fn(move |n| memo.borrow_mut().eval_fuel(&e, n))
}

/// The Figure 10 table for `(λx.e') e`: rows are observations `v_i` of the
/// input `e`; row `i` column `j` is the observation of `e'[v_i/x]` at time
/// `j`; and the diagonal `r'_{i,i}` is the stream of the application.
#[derive(Debug, Clone)]
pub struct DiagonalTable {
    /// Observations of the argument at times `0..n`.
    pub inputs: Vec<TermRef>,
    /// `rows[i][j]` = observation of `e'[inputs[i]/x]` at time `j`.
    pub rows: Vec<Vec<TermRef>>,
    /// The diagonal `rows[i][i]` — the observations of the application.
    pub diagonal: Vec<TermRef>,
}

/// Builds the Figure 10 table for the application of `lam` (which must be
/// an abstraction) to `arg`, with `n` time steps.
///
/// The whole grid runs **arena-native** on one memoising evaluator: the
/// abstraction and argument are interned once, each row is instantiated by
/// id-level β-substitution (`ideval::beta_subst` — shared subtrees are
/// `Copy` ids), every cell evaluates on the id frame machine against one
/// shared `(TermId, TermId, fuel)` memo, and trees are extracted once per
/// distinct cell value at the end. Adjacent rows differ only in the
/// substituted observation, so the β-work of row `i` is almost entirely
/// replayed from the table in row `i + 1`.
///
/// # Panics
///
/// Panics if `lam` is not a λ-abstraction.
pub fn diagonal_table(lam: &TermRef, arg: &TermRef, n: usize) -> DiagonalTable {
    if !matches!(&**lam, Term::Lam(..)) {
        panic!("diagonal_table requires an abstraction");
    }
    let mut memo = MemoEval::new();
    let lam_id = memo.canon_id(lam);
    let arg_id = memo.canon_id(arg);
    let input_ids: Vec<_> = (0..n).map(|i| memo.eval_fuel_id(arg_id, i)).collect();
    let row_ids: Vec<Vec<_>> = input_ids
        .iter()
        .map(|v| {
            let inst = lambda_join_core::ideval::beta_subst(memo.interner_mut(), lam_id, *v);
            (0..n).map(|j| memo.eval_fuel_id(inst, j)).collect()
        })
        .collect();
    let inputs: Vec<TermRef> = input_ids.iter().map(|id| memo.extract(*id)).collect();
    let rows: Vec<Vec<TermRef>> = row_ids
        .iter()
        .map(|row| row.iter().map(|id| memo.extract(*id)).collect())
        .collect();
    let diagonal = (0..n).map(|i| rows[i][i].clone()).collect();
    DiagonalTable {
        inputs,
        rows,
        diagonal,
    }
}

impl DiagonalTable {
    /// Checks that rows and the diagonal are monotone in the streaming
    /// order (ignoring rows containing λ-values, where the syntactic order
    /// is partial).
    pub fn is_monotone(&self) -> bool {
        let mono = |xs: &[TermRef]| xs.windows(2).all(|w| result_leq(&w[0], &w[1]));
        self.rows.iter().all(|r| mono(r)) && mono(&self.diagonal)
    }
}

/// Convenience: the first time the observation stream of `e` reaches (at
/// least) `target`, within `budget`.
pub fn time_to_reach(e: &TermRef, target: &TermRef, budget: usize) -> Option<usize> {
    let s = term_stream(e);
    let target = target.clone();
    s.first_time(budget, move |obs| result_leq(&target, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_join_core::builder::*;
    use lambda_join_core::encodings;
    use lambda_join_core::parser::parse;

    #[test]
    fn term_stream_of_evens() {
        let s = term_stream(&encodings::evens());
        assert!(s.is_monotone_upto(20, result_leq));
        // {0, 2} appears by some finite time.
        let t = time_to_reach(&encodings::evens(), &set(vec![int(0), int(2)]), 40);
        assert!(t.is_some());
    }

    #[test]
    fn figure_10_head_from_n() {
        // (λl. head l) (fromN 0): the diagonal converges to 0.
        let arg = app(encodings::from_n(), int(0));
        let table = diagonal_table(&encodings::head(), &arg, 12);
        assert!(table.is_monotone());
        assert!(table.diagonal.last().unwrap().alpha_eq(&int(0)));
        // Early diagonal entries are ⊥ (input not yet available).
        assert!(table.diagonal[0].alpha_eq(&bot()));
    }

    #[test]
    fn diagonal_matches_direct_application() {
        let arg = app(encodings::from_n(), int(0));
        let appl = app(encodings::head(), arg.clone());
        let table = diagonal_table(&encodings::head(), &arg, 10);
        let direct = term_stream(&appl);
        // The diagonal and the direct stream converge to the same limit
        // (they may differ transiently by a constant fuel offset).
        let last_diag = table.diagonal.last().unwrap().clone();
        let last_direct = direct.at(10);
        assert!(
            last_diag.alpha_eq(&last_direct),
            "{last_diag} vs {last_direct}"
        );
    }

    #[test]
    fn memoised_stream_agrees_with_plain_stream() {
        for src in [
            "let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()",
            "let rec fromN n = (n :: fromN (n + 1)) \\/ botv in fromN 0",
        ] {
            let e = parse(src).unwrap();
            let plain = term_stream(&e);
            let memo = term_stream_memo(&e);
            for n in 0..20 {
                assert!(
                    plain.at(n).alpha_eq(&memo.at(n)),
                    "{src} diverges from memoised stream at fuel {n}"
                );
            }
            assert!(memo.is_monotone_upto(20, result_leq));
        }
    }

    #[test]
    fn time_to_reach_reports_latency() {
        let e =
            parse("let rec evens _ = {0} \\/ (for x in evens () . {x + 2}) in evens ()").unwrap();
        let t0 = time_to_reach(&e, &set(vec![int(0)]), 50).unwrap();
        let t4 = time_to_reach(&e, &set(vec![int(4)]), 50).unwrap();
        assert!(t0 < t4, "deeper elements take longer: {t0} vs {t4}");
        assert_eq!(time_to_reach(&e, &set(vec![int(1)]), 30), None);
    }

    #[test]
    #[should_panic(expected = "requires an abstraction")]
    fn diagonal_table_rejects_non_lambda() {
        diagonal_table(&int(1), &int(2), 3);
    }
}
