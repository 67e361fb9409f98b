//! A deterministic, fair evaluation machine for λ∨.
//!
//! The paper's reduction relation is nondeterministic by design (§3): any
//! parallel position may step, and approximation steps may discard output.
//! An implementation must pick a schedule. The [`Machine`] uses *full
//! parallel steps* — one pass contracts every enabled redex once — which is
//! fair (no enabled redex is starved) and models maximal pipeline
//! parallelism. Observations are extracted with [`observe`] rather than by
//! destructive approximation steps, so the machine can keep running.
//!
//! The machine also supports *randomised* single-redex scheduling
//! ([`Machine::step_random`]) for testing schedule-independence of
//! observations (the executable face of Theorems 4.15/4.18).

use crate::observe::observe;
use crate::reduce::{parallel_step, redex_positions, step_at};
use crate::term::TermRef;

/// The outcome of one machine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// At least one redex was contracted.
    Progress,
    /// No redex is enabled anywhere: the term is quiescent (it is a result,
    /// or every leaf is stuck).
    Quiescent,
}

/// A running λ∨ program.
///
/// # Examples
///
/// ```
/// use lambda_join_core::builder::*;
/// use lambda_join_core::machine::Machine;
///
/// let mut m = Machine::new(app(lam("x", join(var("x"), set(vec![int(2)]))), set(vec![int(1)])));
/// m.run(10);
/// assert!(m.observe().alpha_eq(&set(vec![int(1), int(2)])));
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    term: TermRef,
    passes: usize,
}

impl Machine {
    /// Creates a machine for a closed term.
    pub fn new(term: TermRef) -> Self {
        Machine { term, passes: 0 }
    }

    /// The current term.
    pub fn term(&self) -> &TermRef {
        &self.term
    }

    /// The number of parallel passes performed so far.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Performs one full parallel step (contracts every enabled redex once).
    pub fn step(&mut self) -> StepOutcome {
        let (t, changed) = parallel_step(&self.term);
        self.term = t;
        if changed {
            self.passes += 1;
            StepOutcome::Progress
        } else {
            StepOutcome::Quiescent
        }
    }

    /// Runs up to `fuel` parallel passes, stopping early on quiescence.
    ///
    /// Returns the number of passes actually performed.
    pub fn run(&mut self, fuel: usize) -> usize {
        let mut done = 0;
        for _ in 0..fuel {
            match self.step() {
                StepOutcome::Progress => done += 1,
                StepOutcome::Quiescent => break,
            }
        }
        done
    }

    /// The current observation of the running program.
    pub fn observe(&self) -> TermRef {
        observe(&self.term)
    }

    /// `true` when no redex is enabled anywhere in the term.
    pub fn is_quiescent(&self) -> bool {
        redex_positions(&self.term).is_empty()
    }

    /// `true` when the term has converged to a result (`e ⇓ r` with the
    /// machine's schedule).
    pub fn is_result(&self) -> bool {
        self.term.is_result()
    }

    /// Steps a single redex chosen by `pick` from the enabled positions
    /// (used to explore the nondeterministic relation).
    ///
    /// `pick` receives the number of enabled redexes and returns an index.
    /// Returns [`StepOutcome::Quiescent`] if there are none.
    pub fn step_chosen(&mut self, pick: impl FnOnce(usize) -> usize) -> StepOutcome {
        let ps = redex_positions(&self.term);
        if ps.is_empty() {
            return StepOutcome::Quiescent;
        }
        let idx = pick(ps.len()) % ps.len();
        if let Some(t) = step_at(&self.term, &ps[idx]) {
            self.term = t;
            self.passes += 1;
            StepOutcome::Progress
        } else {
            StepOutcome::Quiescent
        }
    }

    /// Steps a single uniformly random enabled redex.
    pub fn step_random(&mut self, rng: &mut impl FnMut(usize) -> usize) -> StepOutcome {
        let ps = redex_positions(&self.term);
        if ps.is_empty() {
            return StepOutcome::Quiescent;
        }
        let idx = rng(ps.len()) % ps.len();
        if let Some(t) = step_at(&self.term, &ps[idx]) {
            self.term = t;
            self.passes += 1;
            StepOutcome::Progress
        } else {
            StepOutcome::Quiescent
        }
    }
}

/// Runs `term` for up to `fuel` parallel passes and returns the stream of
/// *distinct* observations, in order (always starting with the initial
/// observation).
///
/// This is the machine analogue of the observation columns of Figures 2
/// and 4 in the paper.
pub fn observation_trace(term: TermRef, fuel: usize) -> Vec<TermRef> {
    let mut m = Machine::new(term);
    let mut out = vec![m.observe()];
    for _ in 0..fuel {
        if m.step() == StepOutcome::Quiescent {
            break;
        }
        let obs = m.observe();
        if !obs.alpha_eq(out.last().expect("non-empty")) {
            out.push(obs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::observe::result_leq;

    /// The observation after up to `fuel` passes.
    fn observe_after(term: TermRef, fuel: usize) -> TermRef {
        let mut m = Machine::new(term);
        m.run(fuel);
        m.observe()
    }

    #[test]
    fn simple_programs_converge() {
        for (t, r) in [
            (app(lam("x", var("x")), int(5)), int(5)),
            (add(int(2), mul(int(3), int(4))), int(14)),
        ] {
            let mut m = Machine::new(t);
            m.run(10);
            assert!(m.is_result());
            assert!(m.term().alpha_eq(&r));
        }
    }

    #[test]
    fn if_then_else_observes_branch() {
        let yes = observe_after(ite(tt(), string("yes"), string("no")), 10);
        assert!(yes.alpha_eq(&string("yes")));
        let no = observe_after(ite(ff(), string("yes"), string("no")), 10);
        assert!(no.alpha_eq(&string("no")));
    }

    #[test]
    fn quiescence_on_stuck_terms() {
        // let 2 = 0 in e is stuck: quiescent but not a result.
        let t = let_sym(crate::symbol::Symbol::Int(2), int(0), string("success"));
        let mut m = Machine::new(t);
        assert_eq!(m.step(), StepOutcome::Quiescent);
        assert!(m.is_quiescent());
        assert!(!m.is_result());
        assert!(m.observe().alpha_eq(&bot()));
    }

    #[test]
    fn observation_trace_is_monotone() {
        // fromN-style growth: fix f. λn. (n :: f (n+1)) ∨ ⊥v applied to 0
        let from_n = fix(
            "f",
            lam(
                "n",
                join(cons(var("n"), app(var("f"), add(var("n"), int(1)))), botv()),
            ),
        );
        let trace = observation_trace(app(from_n, int(0)), 30);
        assert!(trace.len() >= 3, "expected several distinct observations");
        for w in trace.windows(2) {
            assert!(
                result_leq(&w[0], &w[1]),
                "observations must increase: {:?} ⋢ {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn random_schedules_stay_below_machine_limit() {
        // Whatever order redexes fire in, observations never exceed the
        // limit computed by the fair machine (determinism, executable form).
        let prog = || {
            app(
                lam("x", join(var("x"), set(vec![int(2), int(3)]))),
                set(vec![int(1)]),
            )
        };
        let limit = observe_after(prog(), 20);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as usize) % n.max(1)
        };
        for _ in 0..20 {
            let mut m = Machine::new(prog());
            for _ in 0..10 {
                if m.step_random(&mut rng) == StepOutcome::Quiescent {
                    break;
                }
                assert!(
                    result_leq(&m.observe(), &limit),
                    "random schedule escaped the deterministic limit"
                );
            }
        }
    }

    #[test]
    fn divergent_terms_never_become_results() {
        let omega = app(
            lam("x", app(var("x"), var("x"))),
            lam("x", app(var("x"), var("x"))),
        );
        let mut m = Machine::new(omega);
        assert_eq!(m.run(50), 50, "Ω never quiesces");
        assert!(!m.is_result());
    }

    #[test]
    fn chosen_schedule_is_deterministic_given_picks() {
        let t = join(add(int(1), int(1)), add(int(2), int(2)));
        let mut m1 = Machine::new(t.clone());
        let mut m2 = Machine::new(t);
        while m1.step_chosen(|_| 0) == StepOutcome::Progress {}
        while m2.step_chosen(|_| 0) == StepOutcome::Progress {}
        assert!(m1.term().alpha_eq(m2.term()));
        assert!(m1.term().alpha_eq(&top())); // 2 ⊔ 4 ambiguity
    }
}
