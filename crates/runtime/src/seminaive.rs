//! Seminaive evaluation of λ∨ set fixpoints (§5.1).
//!
//! The paper's recursive set programs — `evens`, `reaches` — denote least
//! fixed points of the shape
//!
//! ```text
//! lfp S = seed ∨ ⋁_{x ∈ S} step x
//! ```
//!
//! where `step` is a λ∨ *function from elements to sets*. Re-running the
//! whole program at increasing fuel (what the approximate semantics
//! describes and `bigstep::eval_fuel` implements) recomputes `step x` for
//! every element every round; §5.1 calls for "an incremental approach to
//! evaluation that does only the work needed to calculate the change in
//! output for each change in input", citing Datalog's seminaive strategy.
//!
//! [`SeminaiveEngine`] is that strategy, with the rule body evaluated by
//! the λ∨ big-step machine: each round applies `step` only to the *delta*
//! of the previous round. [`naive_rounds`] is the recomputing baseline with
//! the same interface; they agree on every fixpoint (property-tested) and
//! the bench suite (`reaches` experiment) measures the work gap.
//!
//! Both engines run **arena-native**: the accumulator, the delta, and the
//! dedup set all hold canonical [`TermId`]s of one engine-owned arena, the
//! rule body is applied by interning one `App` node per element (`Copy`
//! ids — no tree is built), and the id frame machine
//! ([`lambda_join_core::engine::run_id`]) evaluates it in place. The round
//! loop therefore never constructs or walks a tree: membership is one O(1)
//! id probe, per-element dedup is id equality, and trees materialise only
//! when [`SeminaiveEngine::current`] extracts the fixpoint at the API
//! boundary (memoised per element — one handle clone each on re-extract).
//!
//! The engine also supports *input deltas* ([`SeminaiveEngine::push`]):
//! elements arriving from outside mid-run, the streaming scenario where
//! incrementality pays off most — exactly the "change in input" case.

use std::path::Path;

use lambda_join_core::builder;
use lambda_join_core::engine::{self, Budget, NoIdTable};
use lambda_join_core::ideval;
use lambda_join_core::intern::{IdSet, InternTable, Interner, TermId, TermView};
use lambda_join_core::snap::{self, put_v32, put_v64, SnapError};
use lambda_join_core::term::TermRef;

/// How many engine rounds an unprobed memo entry survives
/// [`SeminaiveEngine::compact`]: entries stored or hit within the last
/// this-many rounds are migrated to the fresh arena, older ones are
/// dropped with it. The same recency idea as the server GC's
/// `gc_keep_generations`, at round granularity.
const COMPACT_KEEP_ROUNDS: u64 = 8;

/// Work statistics for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeminaiveStats {
    /// Completed rounds.
    pub rounds: usize,
    /// Number of `step x` evaluations performed — the paper's work measure.
    pub step_calls: usize,
}

/// A seminaive fixpoint engine for λ∨ set rules.
///
/// # Examples
///
/// Transitive reachability over a two-edge graph, one β-step of work per
/// *new* node only:
///
/// ```
/// use lambda_join_core::parser::parse;
/// use lambda_join_core::builder::*;
/// use lambda_join_runtime::seminaive::SeminaiveEngine;
///
/// // step = λn. neighbours of n
/// let step = parse(
///     "\\n. (let 0 = n in {1}) \\/ (let 1 = n in {2}) \\/ (let 2 = n in {})"
/// ).unwrap();
/// let mut engine = SeminaiveEngine::new(step, 64);
/// engine.push(vec![int(0)]);
/// let fix = engine.run(100);
/// assert!(fix.alpha_eq(&set(vec![int(0), int(1), int(2)])));
/// ```
#[derive(Debug, Clone)]
pub struct SeminaiveEngine {
    /// The interned rule body: a function from one element to a set.
    step_id: TermId,
    /// Fuel for each `step x` evaluation.
    fuel: usize,
    /// Canonical ids of all elements discovered so far, in discovery order
    /// (already deduplicated — ids decide α-equivalence).
    acc: Vec<TermId>,
    /// The same ids as a set: membership is one O(1) probe.
    seen: IdSet,
    /// The engine-owned arena every id lives in.
    interner: Interner,
    /// Ids discovered in the last round but not yet expanded.
    delta: Vec<TermId>,
    /// The β-memo threaded through every `step x` evaluation: repeated
    /// internal calls (dispatch helpers, shared subcomputations) hit
    /// across elements and rounds. One generation per round gives entries
    /// the recency stamps [`SeminaiveEngine::compact`] retains by.
    table: InternTable,
    /// Work counters.
    stats: SeminaiveStats,
    /// Whether any `step` evaluation produced `⊤`.
    saw_top: bool,
}

impl SeminaiveEngine {
    /// Creates an engine for the rule `step` (a λ∨ function term mapping an
    /// element to a set), evaluating each call with `fuel`.
    pub fn new(step: TermRef, fuel: usize) -> Self {
        let mut interner = Interner::new();
        let step_id = interner.canon_id(&step);
        SeminaiveEngine {
            step_id,
            fuel,
            acc: Vec::new(),
            seen: IdSet::default(),
            interner,
            delta: Vec::new(),
            table: InternTable::new(),
            stats: SeminaiveStats::default(),
            saw_top: false,
        }
    }

    /// Feeds new input elements (seed facts or late-arriving stream data).
    ///
    /// Elements already known are deduplicated away — re-pushing the same
    /// data is idempotent, mirroring join idempotence in the calculus.
    pub fn push(&mut self, elements: impl IntoIterator<Item = TermRef>) {
        for el in elements {
            let id = self.interner.canon_id(&el);
            if self.seen.insert(id) {
                self.acc.push(id);
                self.delta.push(id);
            }
        }
    }

    /// Runs rounds until the delta drains or `max_rounds` is hit; returns
    /// the current fixpoint as a λ∨ set value.
    pub fn run(&mut self, max_rounds: usize) -> TermRef {
        for _ in 0..max_rounds {
            if !self.round() {
                break;
            }
        }
        self.current()
    }

    /// Performs one seminaive round: expands every element of the current
    /// delta, collecting previously unseen results into the next delta.
    /// Entirely id-native — no trees are built or walked between rounds.
    ///
    /// Returns `false` once the delta is empty (fixpoint reached).
    pub fn round(&mut self) -> bool {
        if self.delta.is_empty() {
            return false;
        }
        self.stats.rounds += 1;
        self.table.begin_generation();
        let work: Vec<TermId> = std::mem::take(&mut self.delta);
        let mut fresh: Vec<TermId> = Vec::new();
        for x in work {
            self.stats.step_calls += 1;
            let (step_id, fuel) = (self.step_id, self.fuel);
            let call = ideval::app_id(&mut self.interner, step_id, x);
            let mut budget = Budget::new(usize::MAX);
            let r = engine::run_id(&mut self.interner, call, fuel, &mut budget, &mut self.table);
            match self.interner.view(r) {
                TermView::Set(es) => {
                    // One id probe per element replaces the two linear
                    // α-scans (against the accumulator and the batch).
                    for el in es {
                        if self.seen.insert(*el) {
                            fresh.push(*el);
                        }
                    }
                }
                TermView::Top => self.saw_top = true,
                // ⊥ / ⊥v / non-sets contribute nothing (the big join of an
                // unproductive branch is ⊥).
                _ => {}
            }
        }
        self.acc.extend(fresh.iter().copied());
        self.delta = fresh;
        !self.delta.is_empty()
    }

    /// The set accumulated so far, as a λ∨ value (`⊤` if any rule
    /// evaluation produced an ambiguity error). This is the tree boundary:
    /// element extraction is memoised in the arena, so re-reading the
    /// fixpoint after new rounds re-extracts only new elements.
    pub fn current(&mut self) -> TermRef {
        if self.saw_top {
            builder::top()
        } else {
            let els = self
                .acc
                .iter()
                .map(|id| self.interner.extract(*id))
                .collect();
            builder::set(els)
        }
    }

    /// The canonical ids of the accumulated elements (the zero-copy view
    /// of the fixpoint; pair with [`SeminaiveEngine::interner_mut`]).
    pub fn current_ids(&self) -> &[TermId] {
        &self.acc
    }

    /// The engine's arena (for callers composing further id-level work).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Rebuilds the engine's arena from scratch, retaining the rule
    /// body, the accumulated fixpoint, the pending delta, and the
    /// recently-touched slice of the β-memo.
    ///
    /// Hash-consing has no per-term free: every node the rounds ever
    /// interned — including evaluation intermediates — lives as long as
    /// the arena, so a *long-lived streaming engine* (the
    /// [`SeminaiveEngine::push`] scenario) grows with the total distinct
    /// intermediates ever built, not with the fixpoint. Calling this
    /// between input waves caps that growth: cost is O(|fixpoint| +
    /// |step| + |hot memo|) re-interning, after which the old arena (and
    /// every intermediate) is dropped. Ids previously handed out by
    /// [`SeminaiveEngine::current_ids`] are invalidated.
    ///
    /// The memo is *not* discarded wholesale (it used to be, which made
    /// every post-compact round re-derive its shared subcalls): entries
    /// stored or hit within the last `COMPACT_KEEP_ROUNDS` rounds
    /// migrate via [`InternTable::collected`] — the same recency signal
    /// the server GC uses — so warm re-probes right after a compact stay
    /// hits, and stay allocation-free (pinned by the counting-allocator
    /// test in `lambda-join-core/tests/intern_alloc.rs`).
    pub fn compact(&mut self) {
        let mut fresh = Interner::new();
        let step = self.interner.extract(self.step_id);
        self.step_id = fresh.canon_id(&step);
        let remap = |ids: &[TermId], old: &mut Interner, fresh: &mut Interner| {
            ids.iter()
                .map(|id| {
                    let t = old.extract(*id);
                    fresh.canon_id(&t)
                })
                .collect::<Vec<TermId>>()
        };
        self.acc = remap(
            &std::mem::take(&mut self.acc),
            &mut self.interner,
            &mut fresh,
        );
        self.delta = remap(
            &std::mem::take(&mut self.delta),
            &mut self.interner,
            &mut fresh,
        );
        self.seen = self.acc.iter().copied().collect();
        self.table = self
            .table
            .collected(COMPACT_KEEP_ROUNDS, &mut self.interner, &mut fresh);
        self.interner = fresh;
    }

    /// Memo statistics `(hits, misses)` of the engine's β-table.
    pub fn memo_stats(&self) -> (usize, usize) {
        self.table.stats()
    }

    /// Checkpoints the engine — arena, memo, fixpoint, pending delta, and
    /// counters — to `path` (atomically); returns the byte size. A later
    /// [`SeminaiveEngine::load_snapshot`] resumes the fixpoint exactly
    /// where it stopped: known elements stay deduplicated, the delta
    /// picks up unexpanded work, warm memo entries keep hitting.
    pub fn save_snapshot(&self, path: &Path) -> Result<u64, SnapError> {
        let mut w = snap::Writer::new();
        snap::write_interner(&mut w, &self.interner);
        snap::write_table(&mut w, &self.table);
        let mut p = Vec::new();
        put_v32(&mut p, self.step_id.index() as u32);
        put_v64(&mut p, self.fuel as u64);
        put_v64(&mut p, self.acc.len() as u64);
        for id in &self.acc {
            put_v32(&mut p, id.index() as u32);
        }
        put_v64(&mut p, self.delta.len() as u64);
        for id in &self.delta {
            put_v32(&mut p, id.index() as u32);
        }
        put_v64(&mut p, self.stats.rounds as u64);
        put_v64(&mut p, self.stats.step_calls as u64);
        p.push(u8::from(self.saw_top));
        w.section(snap::tag::ENGINE, &p);
        w.save(path)
    }

    /// Resumes an engine from a snapshot written by
    /// [`SeminaiveEngine::save_snapshot`]. Corrupt snapshots are rejected
    /// with a typed [`SnapError`].
    pub fn load_snapshot(path: &Path) -> Result<SeminaiveEngine, SnapError> {
        let bytes = std::fs::read(path)?;
        let mut r = snap::Reader::new(&bytes)?;
        let interner = snap::read_interner(&mut r)?;
        let table = snap::read_table(&mut r, &interner)?;
        let mut cur = r.section(snap::tag::ENGINE)?;
        let id = |cur: &mut snap::Cur<'_>| -> Result<TermId, SnapError> {
            let raw = cur.v32()? as usize;
            if raw < interner.len() {
                Ok(interner.id_at(raw))
            } else {
                Err(SnapError::Malformed("engine id out of range"))
            }
        };
        let step_id = id(&mut cur)?;
        let fuel = cur.vusize()?;
        let n_acc = cur.count(1)?;
        let mut acc = Vec::with_capacity(n_acc);
        for _ in 0..n_acc {
            acc.push(id(&mut cur)?);
        }
        let n_delta = cur.count(1)?;
        let mut delta = Vec::with_capacity(n_delta);
        for _ in 0..n_delta {
            delta.push(id(&mut cur)?);
        }
        let stats = SeminaiveStats {
            rounds: cur.vusize()?,
            step_calls: cur.vusize()?,
        };
        let saw_top = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapError::Malformed("bad saw_top flag")),
        };
        cur.expect_end()?;
        r.expect_end()?;
        let seen: IdSet = acc.iter().copied().collect();
        Ok(SeminaiveEngine {
            step_id,
            fuel,
            acc,
            seen,
            interner,
            delta,
            table,
            stats,
            saw_top,
        })
    }

    /// Whether the engine has drained its delta (reached the fixpoint for
    /// the input pushed so far).
    pub fn is_quiescent(&self) -> bool {
        self.delta.is_empty()
    }

    /// Work statistics so far.
    pub fn stats(&self) -> SeminaiveStats {
        self.stats
    }
}

/// The recomputing baseline: each round applies `step` to *every* element
/// accumulated so far. Same fixpoints as [`SeminaiveEngine`], strictly more
/// `step_calls` on multi-round workloads.
pub fn naive_rounds(
    step: &TermRef,
    seed: Vec<TermRef>,
    fuel: usize,
    max_rounds: usize,
) -> (TermRef, SeminaiveStats) {
    let mut interner = Interner::new();
    let step_id = interner.canon_id(step);
    let mut seen: IdSet = IdSet::default();
    let mut acc: Vec<TermId> = Vec::new();
    for el in seed {
        let id = interner.canon_id(&el);
        if seen.insert(id) {
            acc.push(id);
        }
    }
    let mut stats = SeminaiveStats::default();
    let mut saw_top = false;
    for _ in 0..max_rounds {
        stats.rounds += 1;
        // One accumulator across rounds: this round expands the prefix that
        // existed when it started, and discoveries append past it (the old
        // per-round `acc.clone()` made every fixpoint O(n²) in clones).
        let round_len = acc.len();
        for i in 0..round_len {
            stats.step_calls += 1;
            let call = ideval::app_id(&mut interner, step_id, acc[i]);
            let mut budget = Budget::new(usize::MAX);
            let r = engine::run_id(&mut interner, call, fuel, &mut budget, &mut NoIdTable);
            match interner.view(r) {
                TermView::Set(es) => {
                    for el in es {
                        if seen.insert(*el) {
                            acc.push(*el);
                        }
                    }
                }
                TermView::Top => saw_top = true,
                _ => {}
            }
        }
        if acc.len() == round_len {
            break;
        }
    }
    let result = if saw_top {
        builder::top()
    } else {
        builder::set(acc.iter().map(|id| interner.extract(*id)).collect())
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_join_core::builder::*;
    use lambda_join_core::encodings::Graph;
    use lambda_join_core::observe::result_equiv;
    use lambda_join_core::parser::parse;

    /// The `reaches` step function for a graph: λn. neighbours(n) — the
    /// graph's own λ∨ encoding from the paper's §2.3 example.
    fn graph_step(g: &Graph) -> TermRef {
        g.neighbors_fn()
    }

    fn expected_reachable(g: &Graph, start: i64) -> TermRef {
        set(g.reachable(start).into_iter().map(int).collect())
    }

    #[test]
    fn line_graph_reaches_everything() {
        let g = Graph::line(6);
        let mut e = SeminaiveEngine::new(graph_step(&g), 32);
        e.push(vec![int(0)]);
        let fix = e.run(100);
        assert!(result_equiv(&fix, &expected_reachable(&g, 0)), "got {fix}");
        assert!(e.is_quiescent());
    }

    #[test]
    fn cycle_terminates() {
        // The paper's `reaches` diverges operationally on cycles; the
        // seminaive engine terminates because the delta drains.
        let g = Graph::cycle(5);
        let mut e = SeminaiveEngine::new(graph_step(&g), 32);
        e.push(vec![int(0)]);
        let fix = e.run(100);
        assert!(result_equiv(&fix, &expected_reachable(&g, 0)));
        assert!(e.is_quiescent());
    }

    #[test]
    fn agrees_with_naive_on_graphs() {
        for g in [Graph::line(5), Graph::cycle(4), Graph::binary_tree(3)] {
            let step = graph_step(&g);
            let mut semi = SeminaiveEngine::new(step.clone(), 32);
            semi.push(vec![int(0)]);
            let s = semi.run(100);
            let (n, _) = naive_rounds(&step, vec![int(0)], 32, 100);
            assert!(result_equiv(&s, &n), "seminaive {s} vs naive {n}");
            assert!(result_equiv(&s, &expected_reachable(&g, 0)));
        }
    }

    #[test]
    fn seminaive_does_less_work_on_a_line() {
        let g = Graph::line(12);
        let step = graph_step(&g);
        let mut semi = SeminaiveEngine::new(step.clone(), 32);
        semi.push(vec![int(0)]);
        semi.run(100);
        let (_, naive) = naive_rounds(&step, vec![int(0)], 32, 100);
        assert!(
            semi.stats().step_calls < naive.step_calls,
            "seminaive {:?} vs naive {:?}",
            semi.stats(),
            naive
        );
        // On a line of n nodes: seminaive is Θ(n), naive Θ(n²).
        assert_eq!(semi.stats().step_calls, 12);
    }

    #[test]
    fn push_is_idempotent() {
        let g = Graph::line(3);
        let mut e = SeminaiveEngine::new(graph_step(&g), 32);
        e.push(vec![int(0), int(0)]);
        e.push(vec![int(0)]);
        let fix = e.run(100);
        assert!(result_equiv(&fix, &set(vec![int(0), int(1), int(2)])));
        assert_eq!(e.stats().step_calls, 3);
    }

    #[test]
    fn late_input_restarts_only_the_new_frontier() {
        // Two disconnected line components; the second seed arrives after
        // the first fixpoint is reached. Only the new component is explored.
        let step = parse(
            "\\n. (let 0 = n in {1}) \\/ (let 1 = n in {}) \\/
                 (let 10 = n in {11}) \\/ (let 11 = n in {})",
        )
        .unwrap();
        let mut e = SeminaiveEngine::new(step, 32);
        e.push(vec![int(0)]);
        e.run(100);
        assert!(e.is_quiescent());
        let calls_before = e.stats().step_calls;
        e.push(vec![int(10)]);
        let fix = e.run(100);
        assert!(result_equiv(
            &fix,
            &set(vec![int(0), int(1), int(10), int(11)])
        ));
        // The first component was not re-expanded.
        assert_eq!(e.stats().step_calls - calls_before, 2);
    }

    #[test]
    fn ambiguous_rule_bodies_surface_as_top() {
        let step = parse("\\n. {n} \\/ 'oops").unwrap();
        let mut e = SeminaiveEngine::new(step, 16);
        e.push(vec![int(0)]);
        let fix = e.run(10);
        assert!(fix.alpha_eq(&top()));
    }

    #[test]
    fn evens_prefix_via_bounded_step() {
        // evens = lfp S = {0} ∪ {x+2 | x ∈ S}: infinite, so bound the
        // frontier with a guard and check the finite prefix.
        let step = parse("\\x. if x < 20 then {x + 2} else {}").unwrap();
        let mut e = SeminaiveEngine::new(step, 64);
        e.push(vec![int(0)]);
        let fix = e.run(100);
        let expect = set((0..=20).step_by(2).map(int).collect());
        assert!(result_equiv(&fix, &expect), "got {fix}");
    }

    #[test]
    fn compact_preserves_state_and_shrinks_arena() {
        let g = Graph::line(6);
        let mut e = SeminaiveEngine::new(graph_step(&g), 32);
        e.push(vec![int(0)]);
        let fix_before = e.run(100);
        let nodes_before = e.interner_mut().len();
        e.compact();
        assert!(
            e.interner_mut().len() < nodes_before,
            "compaction must drop evaluation intermediates ({} -> {})",
            nodes_before,
            e.interner_mut().len()
        );
        assert!(e.current().alpha_eq(&fix_before));
        // The engine stays incremental across compaction: re-pushing known
        // elements is still deduplicated, new input still runs.
        let calls = e.stats().step_calls;
        e.push(vec![int(0), int(3)]);
        e.run(100);
        assert_eq!(e.stats().step_calls, calls, "known elements re-expanded");
        assert!(result_equiv(&e.current(), &expected_reachable(&g, 0)));
    }

    #[test]
    fn stats_track_rounds() {
        let g = Graph::line(4);
        let mut e = SeminaiveEngine::new(graph_step(&g), 32);
        e.push(vec![int(0)]);
        e.run(100);
        // Line of 4: rounds = 4 (3 productive + 1 draining).
        assert!(e.stats().rounds >= 3 && e.stats().rounds <= 5);
    }

    #[test]
    fn compact_retains_recent_memo() {
        use lambda_join_core::builder::{app, lam, set, unit};
        // A step whose body contains a subcall *shared across elements*:
        // `(λu. {5}) ()` has the same memo key no matter which x the step
        // is applied to, so a warm memo answers it without re-deriving.
        let shared = app(lam("u", set(vec![int(5)])), unit());
        let step = lam("x", shared);
        let mut e = SeminaiveEngine::new(step, 32);
        e.push(vec![int(0)]);
        e.run(100);
        let (hits_before, misses_before) = e.memo_stats();
        assert!(!e.table.is_empty(), "rounds should have populated the memo");

        // compact() used to discard the memo wholesale; now entries
        // touched within the recency window migrate...
        e.compact();
        assert!(
            !e.table.is_empty(),
            "recent memo entries must survive compact"
        );
        assert_eq!(
            e.memo_stats(),
            (hits_before, misses_before),
            "compaction must carry the cache statistics"
        );

        // ...so the very next wave answers the shared subcall from
        // cache: hits grow, and the shared entry contributes no new miss
        // beyond the outer (step x) call for the fresh element.
        e.push(vec![int(10)]);
        e.run(100);
        let (hits_after, _) = e.memo_stats();
        assert!(
            hits_after > hits_before,
            "post-compact round should hit the retained memo \
             ({hits_before} -> {hits_after} hits)"
        );
        let expect = set(vec![int(0), int(10), int(5)]);
        assert!(result_equiv(&e.current(), &expect), "got {}", e.current());
    }

    #[test]
    fn snapshot_suspends_and_resumes_mid_fixpoint() {
        let path = std::env::temp_dir().join(format!(
            "lambdav-seminaive-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let g = Graph::line(8);
        let mut e = SeminaiveEngine::new(graph_step(&g), 32);
        e.push(vec![int(0)]);
        // A few rounds in — delta pending, memo warm — suspend to disk.
        for _ in 0..3 {
            e.round();
        }
        assert!(!e.is_quiescent(), "suspension point should be mid-fixpoint");
        e.save_snapshot(&path).expect("save engine");
        let mut resumed = SeminaiveEngine::load_snapshot(&path).expect("load engine");
        assert_eq!(resumed.memo_stats(), e.memo_stats());
        assert_eq!(resumed.stats(), e.stats());
        assert_eq!(resumed.current_ids(), e.current_ids());
        // Both runs finish from here and land on the same fixpoint with
        // the same work counters — the resumed engine neither redoes nor
        // skips rounds.
        let fin_orig = e.run(100);
        let fin_resumed = resumed.run(100);
        assert!(fin_resumed.alpha_eq(&fin_orig), "fixpoints diverge");
        assert_eq!(resumed.stats(), e.stats(), "work counters diverge");
        assert!(result_equiv(&fin_resumed, &expected_reachable(&g, 0)));
        // Corruption is rejected with a typed error, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(SeminaiveEngine::load_snapshot(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
