//! The explicit-stack evaluation engine: a defunctionalised frame machine
//! for the fuel-indexed big-step semantics, running over the ids of the
//! hash-consing arena.
//!
//! [`crate::bigstep`] specifies evaluation as a recursive function — one
//! Rust stack frame per pending evaluation context. That is the right shape
//! for a specification, but it bounds evaluation depth by the OS thread
//! stack: at fuel `n` a β-chain is `n` native frames deep, so deep
//! workloads (long `fromN` pipelines, `reaches` chains, high-fuel
//! convergence sweeps) used to need a 64 MiB `RUST_MIN_STACK` override just
//! to run under the debug profile.
//!
//! This module is the production engine: the recursive evaluator
//! *defunctionalised* into a worklist of frames on the heap. Each
//! evaluation context of the big-step relation — the function and argument
//! positions of an application, the sides of a join, the body of a big
//! join, the operands of a primitive, a pending freeze, … — becomes one
//! frame variant, and [`run_id`] is a flat loop over a control state
//! (*evaluate this term* / *return this result*) and the frame stack.
//! Frames carry `Copy` canonical ids of the arena ([`crate::intern`]),
//! dispatch reads cached metadata instead of walking trees, and the
//! metafunctions come from [`crate::ideval`]. Evaluation depth scales with
//! the heap; a stock 2 MiB thread runs fuel budgets that used to overflow
//! 64 MiB (regression-tested on a 512 KiB thread in
//! `tests/deep_recursion.rs`).
//!
//! Every evaluator runs this one machine:
//!
//! * [`crate::bigstep::eval_fuel`] runs [`run_id`] over a thread-local
//!   arena (tree ↔ id conversion once per call, pointer-cached);
//! * `lambda-join-runtime`'s `MemoEval` and the seminaive engines run
//!   [`run_id`] over their own arenas, with the memoising [`IdBetaTable`]
//!   probing the `(function, argument, fuel)` ids already in hand
//!   (tabled evaluation, §5.1);
//! * [`run`] takes and returns trees over the [`SharedInternTable`] that
//!   `lambdav serve`'s sessions share, and runs the machine in slices so
//!   the table's lock is free between them.
//!
//! The recursive evaluator is retained as [`crate::bigstep::spec`] — the
//! executable specification the machine is property-tested against
//! (results α-equal *and* β-counts identical).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::builder;
use crate::ideval;
use crate::intern::{Interner, NodeKey, TermId};
use crate::reduce::{join_results, lex_lift};
use crate::sharded::SharedInternTable;
use crate::term::{Term, TermRef};

/// Why an evaluation run was stopped early by its [`Budget`] limits (as
/// opposed to the fuel/β approximation steps of the semantics, which are
/// ordinary outcomes recorded by [`Budget::exhausted`]).
///
/// A stopped run returns `⊥` — a sound approximation of the true result,
/// exactly like a fuel cut-off — and records the cause here so callers
/// (the `lambdav serve` request loop in particular) can report *which*
/// limit fired as a distinct structured error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The wall-clock deadline passed mid-run.
    Deadline,
    /// The cooperative cancellation flag was raised (client disconnect,
    /// server shutdown).
    Cancelled,
    /// Arena growth since the run started exceeded the node quota.
    NodeQuota,
}

/// How many machine dispatches pass between cooperative limit checks.
/// A dispatch is tens of nanoseconds, so limits are observed within a few
/// tens of microseconds — prompt enough for request deadlines — while the
/// common case pays one boolean load per dispatch.
const LIMIT_CHECK_INTERVAL: u32 = 512;

/// A node-count callback for [`Budget::with_node_gauge`]. Inert: the
/// machine measures quota growth against its own arena, so no gauge is
/// ever called. Kept only because the benchmark harness (`perfbench/`)
/// still passes one.
pub type NodeGauge = Arc<dyn Fn() -> usize + Send + Sync>;

/// The global evaluation budget and approximation bookkeeping for one run.
///
/// Beyond the β valve, a budget can carry *request limits* — a wall-clock
/// deadline, a cooperative cancellation flag, and an arena-node quota —
/// checked every `LIMIT_CHECK_INTERVAL` (512) machine dispatches inside
/// [`run_id`]. A tripped limit aborts the run with `⊥` and records a
/// [`StopCause`]; budgets without limits pay a single boolean test per
/// dispatch.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Remaining global β-steps; a safety valve against exponential blowup
    /// when the per-path fuel alone would admit huge terms.
    beta: usize,
    /// β-steps performed so far.
    used: usize,
    /// Whether any approximation step fired (fuel/β-budget exhaustion)
    /// since the flag was last cleared. Freezing consults this: `frz e`
    /// may only seal a payload whose evaluation was *complete* — stuck
    /// subterms are exact (they never fire), but a fuel cut-off is not,
    /// and sealing it would break monotonicity in fuel.
    exhausted: bool,
    /// Whether any request limit below is set (fast-path gate).
    limited: bool,
    /// Dispatches remaining until the next slow limit check.
    check_in: u32,
    /// Abort evaluation once `Instant::now()` passes this.
    deadline: Option<Instant>,
    /// Abort evaluation once this flag reads `true`.
    cancel: Option<Arc<AtomicBool>>,
    /// Maximum arena-node growth allowed during the run.
    node_quota: Option<usize>,
    /// Node count observed at the first limit check (growth baseline).
    node_base: Option<usize>,
    /// Which limit stopped the run, if any.
    stopped: Option<StopCause>,
}

impl Budget {
    /// A fresh budget allowing at most `max_betas` β-steps in total.
    pub fn new(max_betas: usize) -> Self {
        Budget {
            beta: max_betas,
            used: 0,
            exhausted: false,
            limited: false,
            check_in: LIMIT_CHECK_INTERVAL,
            deadline: None,
            cancel: None,
            node_quota: None,
            node_base: None,
            stopped: None,
        }
    }

    /// Aborts the run (with `⊥` and [`StopCause::Deadline`]) once the
    /// wall clock passes `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self.limited = true;
        self
    }

    /// Aborts the run (with `⊥` and [`StopCause::Cancelled`]) once `flag`
    /// reads `true`. The flag is polled cooperatively; raising it from
    /// another thread stops the run within a few tens of microseconds.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self.limited = true;
        self
    }

    /// Aborts the run (with `⊥` and [`StopCause::NodeQuota`]) once the
    /// arena it runs over has grown by more than `quota` nodes since the
    /// run started. On a shared arena other sessions' interning counts
    /// toward the same growth; size quotas accordingly.
    pub fn with_node_quota(mut self, quota: usize) -> Self {
        self.node_quota = Some(quota);
        self.limited = true;
        self
    }

    /// Returns the budget unchanged: the gauge is never called (see
    /// [`NodeGauge`]). Kept only because the benchmark harness
    /// (`perfbench/`) still calls it.
    pub fn with_node_gauge(self, _gauge: NodeGauge) -> Self {
        self
    }

    /// The number of β-steps performed so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Whether any approximation step (fuel or β-budget exhaustion) fired.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Which request limit stopped the run early, if any.
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.stopped
    }

    /// Amortised limit gate: `true` every [`LIMIT_CHECK_INTERVAL`]
    /// dispatches on a limited budget (time for a real check), `false`
    /// otherwise. One load + predictable branch on the hot path.
    #[inline]
    fn poll(&mut self) -> bool {
        if !self.limited {
            return false;
        }
        self.check_in -= 1;
        if self.check_in != 0 {
            return false;
        }
        self.check_in = LIMIT_CHECK_INTERVAL;
        true
    }

    /// The real limit check, run every [`LIMIT_CHECK_INTERVAL`] dispatches.
    /// `nodes` is the current node count of the run's arena. Returns
    /// `true` — and records the cause — if the run must stop.
    #[cold]
    fn check_limits(&mut self, nodes: usize) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                self.stopped = Some(StopCause::Cancelled);
                self.exhausted = true;
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.stopped = Some(StopCause::Deadline);
                self.exhausted = true;
                return true;
            }
        }
        if let Some(quota) = self.node_quota {
            let base = *self.node_base.get_or_insert(nodes);
            if nodes.saturating_sub(base) > quota {
                self.stopped = Some(StopCause::NodeQuota);
                self.exhausted = true;
                return true;
            }
        }
        false
    }
}

/// Folds an accumulated version into the result of a versioned-bind body:
/// `⟨v2, v2'⟩` becomes `⟨v1 ⊔ v2, v2'⟩` (Figure 5-style lifting for the
/// §5.2 bind extension). The tree form, for [`crate::bigstep::spec`].
pub fn merge_version(v1: &TermRef, r: &TermRef) -> TermRef {
    match &**r {
        Term::Lex(v2, v2p) => lex_lift(&join_results(v1, v2), v2p),
        // A silent body still yields the input version over ⊥v — this is
        // what keeps `bind` monotone when the body thresholds on a payload
        // that a newer version has replaced (§5.2).
        Term::Bot | Term::BotV => lex_lift(v1, &builder::botv()),
        Term::Top => builder::top(),
        _ => builder::top(),
    }
}

/// Evaluates the tree `e` with per-path fuel `fuel` over the shared memo
/// `table`: the tree-in, tree-out entry that `lambdav serve`'s sessions
/// use. It interns `e` canonically, runs [`run_id`]'s machine with the
/// table's memo, and extracts the result id as a tree.
///
/// Between two dispatches the run hands the table's lock to a thread
/// that has waited its fairness period (`MutexGuard::bump`), so other
/// sessions' requests interleave with a long evaluation; the check runs
/// after every dispatch because a single dispatch can join large sets. The frame stack's ids stay valid
/// across the gap: the arena only grows, and a compaction publishes a
/// fresh table that this run never sees.
pub fn run(e: &TermRef, fuel: usize, budget: &mut Budget, table: &SharedInternTable) -> TermRef {
    // Values evaluate to themselves: keep the caller's handle.
    if e.is_value() {
        return e.clone();
    }
    let mut memo = table.interner();
    let mut run = IdRun::new(memo.canon_id(e), fuel);
    loop {
        let (ar, cache) = memo.parts();
        if let Some(r) = run.resume(ar, budget, cache, 1) {
            return ar.extract(r);
        }
        if run.needs_room(1) {
            // Reallocating a deep frame stack takes milliseconds: do it
            // without the lock.
            drop(memo);
            run.grow();
            memo = table.interner();
        } else {
            memo.bump();
        }
    }
}

/// The tabling hook of the machine: probes are keyed on the canonical
/// `(function, argument, fuel)` ids the engine already holds in hand, so
/// lookup and store involve **zero translation** — no `canon_id` walk, no
/// tree traversal, no allocation. The production implementation is
/// [`crate::intern::InternTable`].
pub trait IdBetaTable {
    /// Returns the cached result id (and exhaustion flag) for a β-step.
    fn lookup(&mut self, f: TermId, a: TermId, fuel: usize) -> Option<(TermId, bool)>;

    /// Records the result of a β-step.
    fn store(&mut self, f: TermId, a: TermId, fuel: usize, r: TermId, exhausted: bool);

    /// Whether the table caches at all. When `false` the engine skips the
    /// per-β exhaustion save/restore that memoisation needs.
    fn enabled(&self) -> bool {
        true
    }
}

/// The trivial id table: caches nothing (plain big-step evaluation).
pub struct NoIdTable;

impl IdBetaTable for NoIdTable {
    fn lookup(&mut self, _f: TermId, _a: TermId, _fuel: usize) -> Option<(TermId, bool)> {
        None
    }

    fn store(&mut self, _f: TermId, _a: TermId, _fuel: usize, _r: TermId, _ex: bool) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Control state of the machine.
#[derive(Clone, Copy)]
enum IdCtrl {
    Eval(TermId, usize),
    Ret(TermId),
}

/// One defunctionalised evaluation context over arena ids. Every field is
/// a `Copy` id (plus the collection vectors sets/primitives need), so
/// pushing a frame moves a few words — no `Arc` refcount traffic at all.
enum IdFrame {
    PairSnd {
        term: TermId,
        fuel: usize,
    },
    PairDone {
        fst: TermId,
    },
    SetCollect {
        term: TermId,
        next: usize,
        out: Vec<TermId>,
        fuel: usize,
    },
    JoinRight {
        term: TermId,
        fuel: usize,
    },
    JoinDone {
        lhs: TermId,
    },
    AppArg {
        term: TermId,
        fuel: usize,
    },
    AppApply {
        func: TermId,
        fuel: usize,
    },
    LetPairBody {
        term: TermId,
        fuel: usize,
    },
    LetSymBody {
        term: TermId,
        fuel: usize,
    },
    BigJoinScrut {
        term: TermId,
        fuel: usize,
    },
    BigJoinIter {
        term: TermId,
        scrut: TermId,
        next: usize,
        acc: TermId,
        fuel: usize,
    },
    PrimCollect {
        term: TermId,
        next: usize,
        vals: Vec<TermId>,
        fuel: usize,
    },
    FrzSeal {
        saved: bool,
    },
    LetFrzBody {
        term: TermId,
        fuel: usize,
    },
    LexSnd {
        term: TermId,
        fuel: usize,
    },
    LexDone {
        fst: TermId,
    },
    LexBindScrut {
        term: TermId,
        fuel: usize,
    },
    MergeVersion {
        version: TermId,
    },
    TableStore {
        func: TermId,
        arg: TermId,
        fuel: usize,
        saved: bool,
    },
}

/// Runs the frame machine on a canonical interned id — the production
/// evaluation path, property-tested against `bigstep::spec` for result
/// α-equality *and* β-counts. Every dispatch is an O(1) arena read:
/// value-ness is a cached metadata bit instead of a tree walk,
/// β-substitution shares untouched subtrees as `Copy` ids, joins
/// deduplicate by id equality, and the tabling hook probes with the ids
/// already in hand.
///
/// `e` must be a canonical id of `ar` ([`Interner::canon_id`]); the result
/// is a canonical id (use [`Interner::extract`] at the API boundary).
pub fn run_id<T: IdBetaTable>(
    ar: &mut Interner,
    e: TermId,
    fuel: usize,
    budget: &mut Budget,
    table: &mut T,
) -> TermId {
    let mut run = IdRun::new(e, fuel);
    loop {
        if let Some(r) = run.resume(ar, budget, table, u32::MAX) {
            return r;
        }
    }
}

/// A run of the machine that can stop between two dispatches and go on
/// later: its control state and frame stack.
struct IdRun {
    ctrl: IdCtrl,
    stack: Vec<IdFrame>,
}

impl IdRun {
    fn new(e: TermId, fuel: usize) -> IdRun {
        IdRun {
            ctrl: IdCtrl::Eval(e, fuel),
            stack: Vec::with_capacity(32),
        }
    }

    /// Whether the next `steps` dispatches could outgrow the frame stack's
    /// allocation (a dispatch pushes at most one frame).
    fn needs_room(&self, steps: u32) -> bool {
        self.stack.capacity() - self.stack.len() < steps as usize
    }

    /// Doubles the frame stack's allocation.
    fn grow(&mut self) {
        self.stack.reserve(self.stack.capacity());
    }

    /// Runs at most `steps` dispatches: returns the result once it is
    /// known (`Some`), or `None` with the run suspended (call again to go
    /// on). A tripped budget limit abandons the machine state outright —
    /// no pending `TableStore` frame runs, so no partial result is ever
    /// memoised — and answers ⊥, a sound approximation. Quota growth is
    /// measured against `ar`.
    fn resume<T: IdBetaTable>(
        &mut self,
        ar: &mut Interner,
        budget: &mut Budget,
        table: &mut T,
        mut steps: u32,
    ) -> Option<TermId> {
        let stack = &mut self.stack;
        let mut ctrl = self.ctrl;
        loop {
            if steps == 0 {
                self.ctrl = ctrl;
                return None;
            }
            steps -= 1;
            if budget.poll() && budget.check_limits(ar.len()) {
                return Some(ar.bot_id());
            }
            ctrl = match ctrl {
                IdCtrl::Eval(e, fuel) => step_eval_id(ar, e, fuel, stack, budget, table),
                IdCtrl::Ret(v) => match stack.pop() {
                    None => return Some(v),
                    Some(frame) => step_ret_id(ar, frame, v, stack, budget, table),
                },
            };
        }
    }
}

/// Dispatches on a node id: either produces a result immediately or
/// pushes the frame for its evaluation context and descends into the first
/// subterm.
fn step_eval_id<T: IdBetaTable>(
    ar: &mut Interner,
    e: TermId,
    fuel: usize,
    stack: &mut Vec<IdFrame>,
    budget: &mut Budget,
    table: &mut T,
) -> IdCtrl {
    if ar.meta(e).is_value {
        return IdCtrl::Ret(e);
    }
    /// What the dispatch decided, with the ids it needs copied out (so the
    /// arena borrow of the key match ends before any minting happens).
    enum Act {
        RetBot,
        RetTop,
        Ret(TermId),
        PairFst(TermId),
        SetFirst(TermId),
        JoinFast(TermId, TermId),
        JoinLeft(TermId),
        ApplyFast(TermId, TermId),
        AppFun(TermId),
        LetPairFast(TermId),
        LetPairScrut(TermId),
        LetSymFast(TermId),
        LetSymScrut(TermId),
        BigJoinScrut(TermId),
        PrimFast,
        PrimFirst(TermId, usize),
        PrimEmpty,
        Frz(TermId),
        LetFrzScrut(TermId),
        LexFst(TermId),
        LexBindScrut(TermId),
        LexMerge(TermId, TermId),
    }
    let act = {
        let value = |id: TermId| ar.meta(id).is_value;
        match ar.key(e) {
            NodeKey::Bot => Act::RetBot,
            NodeKey::Top => Act::RetTop,
            NodeKey::Pair(a, _) => Act::PairFst(*a),
            NodeKey::Set(es) => match es.first() {
                // Unreachable in practice (an empty set literal is a
                // value), kept for totality.
                None => Act::Ret(e),
                Some(first) => Act::SetFirst(*first),
            },
            NodeKey::Join(a, b) => {
                // Joins of values need no evaluation frames.
                if value(*a) && value(*b) {
                    Act::JoinFast(*a, *b)
                } else {
                    Act::JoinLeft(*a)
                }
            }
            NodeKey::App(f, a) => {
                // β fast path: after substitution most redexes apply a
                // value to a value — skip the two frame round-trips.
                if value(*f) && value(*a) {
                    Act::ApplyFast(*f, *a)
                } else {
                    Act::AppFun(*f)
                }
            }
            NodeKey::LetPair(_, _, scrut, _) => {
                if value(*scrut) {
                    Act::LetPairFast(*scrut)
                } else {
                    Act::LetPairScrut(*scrut)
                }
            }
            NodeKey::LetSym(_, scrut, _) => {
                if value(*scrut) {
                    Act::LetSymFast(*scrut)
                } else {
                    Act::LetSymScrut(*scrut)
                }
            }
            NodeKey::BigJoin(_, scrut, _) => Act::BigJoinScrut(*scrut),
            NodeKey::Prim(_, args) => {
                // Saturated fast path: operands already values.
                if args.iter().all(|x| value(*x)) {
                    Act::PrimFast
                } else {
                    match args.first() {
                        None => Act::PrimEmpty,
                        Some(first) => Act::PrimFirst(*first, args.len()),
                    }
                }
            }
            NodeKey::Frz(inner) => Act::Frz(*inner),
            NodeKey::LetFrz(_, scrut, _) => Act::LetFrzScrut(*scrut),
            NodeKey::Lex(a, _) => Act::LexFst(*a),
            NodeKey::LexBind(_, scrut, _) => Act::LexBindScrut(*scrut),
            NodeKey::LexMerge(v1, comp) => Act::LexMerge(*v1, *comp),
            // Covered by the is_value guard, kept for exhaustiveness.
            NodeKey::Var(_) | NodeKey::BotV | NodeKey::Sym(_) | NodeKey::Lam(..) => Act::Ret(e),
        }
    };
    match act {
        Act::RetBot => IdCtrl::Ret(ar.bot_id()),
        Act::RetTop => IdCtrl::Ret(ar.top_id()),
        Act::Ret(id) => IdCtrl::Ret(id),
        Act::PairFst(a) => {
            stack.push(IdFrame::PairSnd { term: e, fuel });
            IdCtrl::Eval(a, fuel)
        }
        Act::SetFirst(first) => {
            stack.push(IdFrame::SetCollect {
                term: e,
                next: 1,
                out: Vec::new(),
                fuel,
            });
            IdCtrl::Eval(first, fuel)
        }
        Act::JoinFast(a, b) => IdCtrl::Ret(ideval::join_results_id(ar, a, b)),
        Act::JoinLeft(a) => {
            stack.push(IdFrame::JoinRight { term: e, fuel });
            IdCtrl::Eval(a, fuel)
        }
        Act::ApplyFast(f, a) => apply_id(ar, f, a, fuel, stack, budget, table),
        Act::AppFun(f) => {
            stack.push(IdFrame::AppArg { term: e, fuel });
            IdCtrl::Eval(f, fuel)
        }
        Act::LetPairFast(scrut) => cont_let_pair_id(ar, e, scrut, fuel),
        Act::LetPairScrut(scrut) => {
            stack.push(IdFrame::LetPairBody { term: e, fuel });
            IdCtrl::Eval(scrut, fuel)
        }
        Act::LetSymFast(scrut) => cont_let_sym_id(ar, e, scrut, fuel),
        Act::LetSymScrut(scrut) => {
            stack.push(IdFrame::LetSymBody { term: e, fuel });
            IdCtrl::Eval(scrut, fuel)
        }
        Act::BigJoinScrut(scrut) => {
            stack.push(IdFrame::BigJoinScrut { term: e, fuel });
            IdCtrl::Eval(scrut, fuel)
        }
        Act::PrimFast => {
            let (op, args) = match ar.key(e) {
                NodeKey::Prim(op, args) => (*op, args.to_vec()),
                _ => unreachable!("PrimFast holds a Prim"),
            };
            IdCtrl::Ret(ideval::delta_id(ar, op, &args))
        }
        Act::PrimEmpty => {
            let op = match ar.key(e) {
                NodeKey::Prim(op, _) => *op,
                _ => unreachable!("PrimEmpty holds a Prim"),
            };
            IdCtrl::Ret(ideval::delta_id(ar, op, &[]))
        }
        Act::PrimFirst(first, n) => {
            stack.push(IdFrame::PrimCollect {
                term: e,
                next: 1,
                vals: Vec::with_capacity(n),
                fuel,
            });
            IdCtrl::Eval(first, fuel)
        }
        Act::Frz(inner) => {
            // Freeze is all-or-nothing: the payload must evaluate without
            // any approximation (fuel cut-off) before it may be sealed;
            // otherwise the freeze is still pending (⊥).
            stack.push(IdFrame::FrzSeal {
                saved: budget.exhausted,
            });
            budget.exhausted = false;
            IdCtrl::Eval(inner, fuel)
        }
        Act::LetFrzScrut(scrut) => {
            stack.push(IdFrame::LetFrzBody { term: e, fuel });
            IdCtrl::Eval(scrut, fuel)
        }
        Act::LexFst(a) => {
            stack.push(IdFrame::LexSnd { term: e, fuel });
            IdCtrl::Eval(a, fuel)
        }
        Act::LexBindScrut(scrut) => {
            stack.push(IdFrame::LexBindScrut { term: e, fuel });
            IdCtrl::Eval(scrut, fuel)
        }
        Act::LexMerge(v1, comp) => {
            stack.push(IdFrame::MergeVersion { version: v1 });
            IdCtrl::Eval(comp, fuel)
        }
    }
}

/// The `let (x1, x2) = v in e` continuation over ids: simultaneous
/// substitution of both components (innermost binder first).
fn cont_let_pair_id(ar: &mut Interner, term: TermId, v: TermId, fuel: usize) -> IdCtrl {
    let thawed = ideval::thaw_id(ar, v);
    match ar.key(thawed) {
        NodeKey::Top => IdCtrl::Ret(ar.top_id()),
        NodeKey::Pair(v1, v2) => {
            let (v1, v2) = (*v1, *v2);
            let body = match ar.key(term) {
                NodeKey::LetPair(_, _, _, body) => *body,
                _ => unreachable!("LetPairBody holds a LetPair"),
            };
            IdCtrl::Eval(ideval::subst_eval(ar, body, &[v2, v1]), fuel)
        }
        // ⊥, ⊥v, and non-pairs: nothing to stream yet / stuck.
        _ => IdCtrl::Ret(ar.bot_id()),
    }
}

/// The `let s = v in e` continuation (threshold query) over ids.
fn cont_let_sym_id(ar: &mut Interner, term: TermId, v: TermId, fuel: usize) -> IdCtrl {
    let (sym, body) = match ar.key(term) {
        NodeKey::LetSym(s, _, body) => (s.clone(), *body),
        _ => unreachable!("LetSymBody holds a LetSym"),
    };
    let thawed = ideval::thaw_id(ar, v);
    enum Verdict {
        Top,
        Fire,
        CheckVersion(TermId),
        Stuck,
    }
    let verdict = match ar.key(thawed) {
        NodeKey::Top => Verdict::Top,
        NodeKey::Sym(s2) if sym.leq(s2) => Verdict::Fire,
        NodeKey::Lex(ver, _) => Verdict::CheckVersion(*ver),
        _ => Verdict::Stuck,
    };
    match verdict {
        Verdict::Top => IdCtrl::Ret(ar.top_id()),
        Verdict::Fire => IdCtrl::Eval(body, fuel),
        Verdict::CheckVersion(ver) => {
            // Version threshold (§5.2): fires once the version reaches the
            // symbol threshold.
            let s_id = ideval::sym_id(ar, sym);
            if ideval::result_leq_id(ar, s_id, ver) {
                IdCtrl::Eval(body, fuel)
            } else {
                IdCtrl::Ret(ar.bot_id())
            }
        }
        Verdict::Stuck => IdCtrl::Ret(ar.bot_id()),
    }
}

/// Resumes the innermost frame with the result `v`.
fn step_ret_id<T: IdBetaTable>(
    ar: &mut Interner,
    frame: IdFrame,
    v: TermId,
    stack: &mut Vec<IdFrame>,
    budget: &mut Budget,
    table: &mut T,
) -> IdCtrl {
    match frame {
        IdFrame::PairSnd { term, fuel } => match ar.key(v) {
            NodeKey::Bot => IdCtrl::Ret(v),
            NodeKey::Top => IdCtrl::Ret(v),
            _ => {
                let b = match ar.key(term) {
                    NodeKey::Pair(_, b) => *b,
                    _ => unreachable!("PairSnd holds a Pair"),
                };
                stack.push(IdFrame::PairDone { fst: v });
                IdCtrl::Eval(b, fuel)
            }
        },
        IdFrame::PairDone { fst } => IdCtrl::Ret(ideval::pair_lift_id(ar, fst, v)),
        IdFrame::SetCollect {
            term,
            next,
            mut out,
            fuel,
        } => {
            match ar.key(v) {
                NodeKey::Top => return IdCtrl::Ret(v),
                NodeKey::Bot => {}
                _ => {
                    // Id equality is α-equivalence: one compare per element.
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            let el = match ar.key(term) {
                NodeKey::Set(es) => es.get(next).copied(),
                _ => unreachable!("SetCollect holds a Set"),
            };
            match el {
                Some(e) => {
                    stack.push(IdFrame::SetCollect {
                        term,
                        next: next + 1,
                        out,
                        fuel,
                    });
                    IdCtrl::Eval(e, fuel)
                }
                None => IdCtrl::Ret(ar.intern_node(NodeKey::Set(out.into()))),
            }
        }
        IdFrame::JoinRight { term, fuel } => {
            let b = match ar.key(term) {
                NodeKey::Join(_, b) => *b,
                _ => unreachable!("JoinRight holds a Join"),
            };
            stack.push(IdFrame::JoinDone { lhs: v });
            IdCtrl::Eval(b, fuel)
        }
        IdFrame::JoinDone { lhs } => IdCtrl::Ret(ideval::join_results_id(ar, lhs, v)),
        IdFrame::AppArg { term, fuel } => match ar.key(v) {
            NodeKey::Bot | NodeKey::Top => IdCtrl::Ret(v),
            _ => {
                let a = match ar.key(term) {
                    NodeKey::App(_, a) => *a,
                    _ => unreachable!("AppArg holds an App"),
                };
                stack.push(IdFrame::AppApply { func: v, fuel });
                IdCtrl::Eval(a, fuel)
            }
        },
        IdFrame::AppApply { func, fuel } => match ar.key(v) {
            NodeKey::Bot | NodeKey::Top => IdCtrl::Ret(v),
            _ => apply_id(ar, func, v, fuel, stack, budget, table),
        },
        IdFrame::LetPairBody { term, fuel } => cont_let_pair_id(ar, term, v, fuel),
        IdFrame::LetSymBody { term, fuel } => cont_let_sym_id(ar, term, v, fuel),
        IdFrame::BigJoinScrut { term, fuel } => {
            let thawed = ideval::thaw_id(ar, v);
            enum S {
                Top,
                First(TermId, TermId),
                Empty,
                Stuck,
            }
            let s = match ar.key(thawed) {
                NodeKey::Top => S::Top,
                NodeKey::Set(vs) => match vs.first() {
                    None => S::Empty,
                    Some(first) => S::First(thawed, *first),
                },
                _ => S::Stuck,
            };
            match s {
                S::Top => IdCtrl::Ret(ar.top_id()),
                S::Empty | S::Stuck => IdCtrl::Ret(ar.bot_id()),
                S::First(scrut, first) => {
                    let body = match ar.key(term) {
                        NodeKey::BigJoin(_, _, body) => *body,
                        _ => unreachable!("BigJoinScrut holds a BigJoin"),
                    };
                    let inst = ideval::subst_eval(ar, body, &[first]);
                    let acc = ar.bot_id();
                    stack.push(IdFrame::BigJoinIter {
                        term,
                        scrut,
                        next: 1,
                        acc,
                        fuel,
                    });
                    IdCtrl::Eval(inst, fuel)
                }
            }
        }
        IdFrame::BigJoinIter {
            term,
            scrut,
            next,
            acc,
            fuel,
        } => {
            let acc = ideval::join_results_id(ar, acc, v);
            if matches!(ar.key(acc), NodeKey::Top) {
                return IdCtrl::Ret(acc);
            }
            let el = match ar.key(scrut) {
                NodeKey::Set(vs) => vs.get(next).copied(),
                _ => unreachable!("BigJoinIter scrutinee is a Set value"),
            };
            match el {
                Some(el) => {
                    let body = match ar.key(term) {
                        NodeKey::BigJoin(_, _, body) => *body,
                        _ => unreachable!("BigJoinIter holds a BigJoin"),
                    };
                    let inst = ideval::subst_eval(ar, body, &[el]);
                    stack.push(IdFrame::BigJoinIter {
                        term,
                        scrut,
                        next: next + 1,
                        acc,
                        fuel,
                    });
                    IdCtrl::Eval(inst, fuel)
                }
                None => IdCtrl::Ret(acc),
            }
        }
        IdFrame::PrimCollect {
            term,
            next,
            mut vals,
            fuel,
        } => {
            match ar.key(v) {
                NodeKey::Bot | NodeKey::Top => return IdCtrl::Ret(v),
                _ => vals.push(v),
            }
            let next_arg = match ar.key(term) {
                NodeKey::Prim(op, args) => (*op, args.get(next).copied()),
                _ => unreachable!("PrimCollect holds a Prim"),
            };
            match next_arg {
                (_, Some(a)) => {
                    stack.push(IdFrame::PrimCollect {
                        term,
                        next: next + 1,
                        vals,
                        fuel,
                    });
                    IdCtrl::Eval(a, fuel)
                }
                (op, None) => IdCtrl::Ret(ideval::delta_id(ar, op, &vals)),
            }
        }
        IdFrame::FrzSeal { saved } => {
            let complete = !budget.exhausted;
            budget.exhausted |= saved;
            if complete {
                IdCtrl::Ret(ideval::frz_lift_id(ar, v))
            } else {
                IdCtrl::Ret(ar.bot_id())
            }
        }
        IdFrame::LetFrzBody { term, fuel } => {
            enum S {
                Top,
                Payload(TermId),
                Stuck,
            }
            let s = match ar.key(v) {
                NodeKey::Top => S::Top,
                NodeKey::Frz(payload) => S::Payload(*payload),
                _ => S::Stuck,
            };
            match s {
                S::Top => IdCtrl::Ret(ar.top_id()),
                S::Payload(payload) => {
                    let body = match ar.key(term) {
                        NodeKey::LetFrz(_, _, body) => *body,
                        _ => unreachable!("LetFrzBody holds a LetFrz"),
                    };
                    IdCtrl::Eval(ideval::subst_eval(ar, body, &[payload]), fuel)
                }
                // Unfrozen scrutinees leave the query unanswered.
                S::Stuck => IdCtrl::Ret(ar.bot_id()),
            }
        }
        IdFrame::LexSnd { term, fuel } => match ar.key(v) {
            NodeKey::Bot | NodeKey::Top => IdCtrl::Ret(v),
            _ => {
                let b = match ar.key(term) {
                    NodeKey::Lex(_, b) => *b,
                    _ => unreachable!("LexSnd holds a Lex"),
                };
                stack.push(IdFrame::LexDone { fst: v });
                IdCtrl::Eval(b, fuel)
            }
        },
        IdFrame::LexDone { fst } => IdCtrl::Ret(ideval::lex_lift_id(ar, fst, v)),
        IdFrame::LexBindScrut { term, fuel } => {
            let thawed = ideval::thaw_id(ar, v);
            enum S {
                Top,
                BotV,
                Bot,
                Lex(TermId, TermId),
                Other,
            }
            let s = match ar.key(thawed) {
                NodeKey::Top => S::Top,
                NodeKey::BotV => S::BotV,
                NodeKey::Bot => S::Bot,
                NodeKey::Lex(v1, v1p) => S::Lex(*v1, *v1p),
                _ => S::Other,
            };
            match s {
                S::Top | S::Other => IdCtrl::Ret(ar.top_id()),
                S::BotV => IdCtrl::Ret(ar.botv_id()),
                S::Bot => IdCtrl::Ret(ar.bot_id()),
                S::Lex(v1, v1p) => {
                    let body = match ar.key(term) {
                        NodeKey::LexBind(_, _, body) => *body,
                        _ => unreachable!("LexBindScrut holds a LexBind"),
                    };
                    stack.push(IdFrame::MergeVersion { version: v1 });
                    IdCtrl::Eval(ideval::subst_eval(ar, body, &[v1p]), fuel)
                }
            }
        }
        IdFrame::MergeVersion { version } => IdCtrl::Ret(ideval::merge_version_id(ar, version, v)),
        IdFrame::TableStore {
            func,
            arg,
            fuel,
            saved,
        } => {
            let sub_exhausted = budget.exhausted;
            table.store(func, arg, fuel, v, sub_exhausted);
            budget.exhausted |= saved;
            IdCtrl::Ret(v)
        }
    }
}

/// The β-step: applies the function value to the argument value.
fn apply_id<T: IdBetaTable>(
    ar: &mut Interner,
    vf: TermId,
    va: TermId,
    fuel: usize,
    stack: &mut Vec<IdFrame>,
    budget: &mut Budget,
    table: &mut T,
) -> IdCtrl {
    let thawed = ideval::thaw_id(ar, vf);
    let body = match ar.key(thawed) {
        NodeKey::Lam(_, body) => Some(*body),
        // Inspecting ⊥v yields ⊥ (§2.1); applying a non-function is stuck.
        _ => None,
    };
    let Some(body) = body else {
        return IdCtrl::Ret(ar.bot_id());
    };
    if fuel == 0 || budget.beta == 0 {
        budget.exhausted = true;
        return IdCtrl::Ret(ar.bot_id()); // approximation step: out of fuel
    }
    if let Some((r, exhausted)) = table.lookup(vf, va, fuel) {
        budget.exhausted |= exhausted;
        return IdCtrl::Ret(r);
    }
    budget.beta -= 1;
    budget.used += 1;
    let inst = ideval::subst_eval(ar, body, &[va]);
    if table.enabled() {
        stack.push(IdFrame::TableStore {
            func: vf,
            arg: va,
            fuel,
            saved: budget.exhausted,
        });
        budget.exhausted = false;
    }
    IdCtrl::Eval(inst, fuel - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use std::time::Duration;

    /// Runs `t` on a fresh arena without a memo.
    fn eval(t: &TermRef, fuel: usize, budget: &mut Budget) -> TermRef {
        let mut ar = Interner::new();
        let id = ar.canon_id(t);
        let r = run_id(&mut ar, id, fuel, budget, &mut NoIdTable);
        ar.extract(r)
    }

    #[test]
    fn values_return_without_frames() {
        let mut budget = Budget::new(usize::MAX);
        let r = eval(&int(3), 0, &mut budget);
        assert!(r.alpha_eq(&int(3)));
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn beta_counts_and_budget_valve() {
        // (λx. x x) applied to the identity: two βs.
        let t = app(lam("x", app(var("x"), var("x"))), lam("y", var("y")));
        let mut budget = Budget::new(usize::MAX);
        let r = eval(&t, 10, &mut budget);
        assert!(r.alpha_eq(&lam("y", var("y"))));
        assert_eq!(budget.used(), 2);

        // A global β valve of 1 cuts the run short with an approximation.
        let mut budget = Budget::new(1);
        let r = eval(&t, 10, &mut budget);
        assert!(r.alpha_eq(&bot()));
        assert!(budget.exhausted());
    }

    #[test]
    fn id_machine_deep_argument_nesting_is_heap_bounded() {
        let mut t = int(1);
        for _ in 0..50_000 {
            t = app(lam("x", var("x")), t);
        }
        let mut budget = Budget::new(usize::MAX);
        let r = eval(&t, 2, &mut budget);
        assert!(r.alpha_eq(&int(1)));
        assert_eq!(budget.used(), 50_000);
    }

    #[test]
    fn deep_argument_nesting_is_heap_bounded() {
        // id (id (… (id 1) …)) nested 100k deep: each application is a
        // separate path of β-depth 1, so tiny fuel suffices — but the
        // *context* stack is 100k frames, which must live on the heap.
        // Run through the shared-table entry with a far deadline, so the
        // machine is suspended and resumed hundreds of times mid-stack.
        let t = long_chain(100_000);
        let table = SharedInternTable::new();
        let far = Instant::now() + Duration::from_secs(3600);
        let mut budget = Budget::new(usize::MAX).with_deadline(far);
        let r = run(&t, 2, &mut budget, &table);
        assert!(r.alpha_eq(&int(1)));
        // Every redex is `(λx. x) 1` at fuel 2: one β, then memo hits.
        assert_eq!(budget.used(), 1);
        assert_eq!(table.stats(), (99_999, 1));
        assert_eq!(budget.stop_cause(), None);
    }

    /// A long-but-bounded workload for limit tests: deep β-chain whose
    /// full evaluation takes well over one limit-check interval.
    fn long_chain(n: usize) -> TermRef {
        let mut t = int(1);
        for _ in 0..n {
            t = app(lam("x", var("x")), t);
        }
        t
    }

    #[test]
    fn expired_deadline_stops_both_machines_with_bot() {
        // Both entries: the id machine on an owned arena, and the sliced
        // tree entry on a shared table.
        let t = long_chain(200_000);
        let deadline = Instant::now() - Duration::from_millis(1);

        let mut budget = Budget::new(usize::MAX).with_deadline(deadline);
        let r = eval(&t, 2, &mut budget);
        assert!(r.alpha_eq(&bot()));
        assert_eq!(budget.stop_cause(), Some(StopCause::Deadline));
        assert!(budget.exhausted());

        let table = SharedInternTable::new();
        let mut budget = Budget::new(usize::MAX).with_deadline(deadline);
        let r = run(&t, 2, &mut budget, &table);
        assert!(r.alpha_eq(&bot()));
        assert_eq!(budget.stop_cause(), Some(StopCause::Deadline));
        assert_eq!(table.len(), 0, "a stopped run memoises nothing");
    }

    #[test]
    fn raised_cancel_flag_stops_evaluation() {
        let t = long_chain(200_000);
        let flag = Arc::new(AtomicBool::new(true));
        let mut budget = Budget::new(usize::MAX).with_cancel(flag);
        let r = eval(&t, 2, &mut budget);
        assert!(r.alpha_eq(&bot()));
        assert_eq!(budget.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn unraised_cancel_flag_changes_nothing() {
        let t = long_chain(10_000);
        let flag = Arc::new(AtomicBool::new(false));
        let mut budget = Budget::new(usize::MAX).with_cancel(flag);
        let r = eval(&t, 2, &mut budget);
        assert!(r.alpha_eq(&int(1)));
        assert_eq!(budget.stop_cause(), None);
        assert!(!budget.exhausted());
    }

    #[test]
    fn node_quota_stops_id_machine_on_arena_growth() {
        // A growing-set fixpoint mints fresh arena nodes every round; a
        // tiny quota must stop it (the β valve alone would run far past).
        let grow = fix(
            "f",
            lam(
                "n",
                join(
                    set(vec![var("n")]),
                    big_join(
                        "x",
                        set(vec![var("n")]),
                        app(var("f"), add(var("x"), int(1))),
                    ),
                ),
            ),
        );
        let t = app(grow, int(0));
        let mut ar = Interner::new();
        let id = ar.canon_id(&t);
        let mut budget = Budget::new(usize::MAX).with_node_quota(64);
        let r = run_id(&mut ar, id, 10_000, &mut budget, &mut NoIdTable);
        assert!(ar.extract(r).alpha_eq(&bot()));
        assert_eq!(budget.stop_cause(), Some(StopCause::NodeQuota));
    }
}
