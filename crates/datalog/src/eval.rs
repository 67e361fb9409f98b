//! Bottom-up evaluation of Datalog programs: naive and seminaive.
//!
//! Both compute the least model — for stratified programs, the
//! perfect model: one monotone fixpoint per stratum, in stratum order, so
//! every negated premise is fully derived before any rule reads its
//! absence. Naive evaluation re-joins every rule against the whole
//! database each round; seminaive joins each rule against the *delta* of
//! the previous round, requiring exactly one delta atom per rule
//! instantiation. Only relations the current stratum derives have a
//! delta: a stratum's facts are loaded before its first (naive) round.
//! They agree on the model (property-tested); the work gap is measured
//! in the bench suite. Both strategies are stratum loops over one
//! `round` function, the only place a round runs: it refreshes the tries
//! its plans read, builds their delta tries, runs the plans over one
//! `Frame` of bindings and per-relation derivation buffers, and merges
//! each buffer into its relation as one batch, emptying it in place so
//! the next round reuses its capacity. Relations are append-only, so the
//! facts a merge found new are the relation's suffix past the row count
//! taken just before it: the next round reads that suffix in place as
//! its delta.
//!
//! A leapfrog plan whose root level is wide (at least
//! `SPLIT_MIN_ROOT_KEYS` keys in every level-0 trie) runs on up to
//! [`pool::default_workers`] threads: the root keys split into
//! contiguous chunks of about equal row counts, eight per worker, each
//! searched in a frame of its own by whichever thread claims it next,
//! and the chunk outputs join the round's buffers in chunk order. The
//! chunks cover ascending, disjoint key ranges, so rows, derivation
//! order and [`EvalStats`] are the one-thread search's, whatever the
//! schedule (the `parallel_props` tests). Narrower plans, and every
//! binary plan, run on the calling thread.
//!
//! # The id-native engine
//!
//! Programs are first **compiled** (see the private `plan` module):
//! constants and `(predicate, arity)` pairs become interned `u32` ids,
//! rule variables become dense binding slots, and each rule gets one join
//! plan per evaluation mode. Acyclic bodies run the planned **binary
//! nested-loop join**: atoms reordered by bound-variable propagation, each
//! a chain of word-compares, membership probes and trie lookups over
//! `Copy` ids, with the transitive-closure shapes (`path(X,Z) :-
//! Δpath(X,Y), edge(Y,Z)`, or `path(Y,Z)` in the second atom) running
//! merge-style — the delta sorted by its probe key and walked forward
//! against the probed relation's sorted trie, one seek per distinct key
//! run. Ground facts arrive as interned blocks and load into each
//! stratum's relations before its first round. Cyclic bodies — at least
//! two join variables shared by at least two atoms, e.g. triangles — run
//! a **worst-case-optimal leapfrog triejoin** ([`JoinMode::Auto`] picks
//! per rule): one sorted trie per atom over a global variable
//! elimination order, intersected level by level, never enumerating a
//! partial binding no atom can extend. Every move over a sorted run —
//! a trie lookup, a merge step, a leapfrog cursor, the final-level
//! intersection — is the store's one `seek`, and both plan kinds emit a
//! complete match through one head emitter. Tries are maintained
//! incrementally: before a round, the tries its plans read — and only
//! those — project, sort and merge in the rows derived since their last
//! refresh, and the leapfrog delta tries are built once per relation and
//! spec. Negated premises execute as anti-join membership probes at the
//! earliest plan point where their variables are bound. Decoded,
//! tree-shaped results ([`Database`]) are materialised only at the API
//! boundary; [`eval_ids`] skips even that, which is what the
//! 10⁵–10⁶-fact benchmarks run. DESIGN.md §6–§7 document the layout, the
//! planner, the triejoin, and the measured speedups.
//!
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Mutex;

use lambda_join_core::pool;

use crate::ast::{Atom, Const, Program};
use crate::plan::{
    compile, Access, ArgOp, CompiledProgram, CompiledRule, NegCheck, Plan, PlannedAtom, WcojAtom,
    WcojPlan,
};
use crate::store::{seek, Derived, KeySort, Relation, Trie};

pub use crate::plan::JoinMode;
pub use crate::store::IdDatabase;

/// A decoded database: for each predicate, the sorted set of derived
/// tuples. This is the tree-shaped boundary representation; evaluation
/// itself runs on [`IdDatabase`]'s flat interned relations.
pub type Database = BTreeMap<String, BTreeSet<Vec<Const>>>;

/// Evaluation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds performed (summed over strata).
    pub rounds: usize,
    /// Rule-body instantiations attempted (the work measure).
    pub derivations: usize,
}

/// The evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Re-derive from the full database each round.
    Naive,
    /// Derive only from instantiations touching the last delta.
    Seminaive,
}

/// Evaluates the program to its least (perfect) model.
///
/// # Panics
///
/// Panics when the program is not stratifiable — check with
/// [`stratify`](crate::strata::stratify) first to handle that as an error.
pub fn eval(program: &Program, strategy: Strategy) -> (Database, EvalStats) {
    eval_mode(program, strategy, JoinMode::Auto)
}

/// [`eval`] with an explicit [`JoinMode`] — `JoinMode::Binary` forces the
/// nested-loop path for every rule, which is how the triejoin is
/// differentially tested and benchmarked.
///
/// # Panics
///
/// Panics when the program is not stratifiable.
pub fn eval_mode(program: &Program, strategy: Strategy, mode: JoinMode) -> (Database, EvalStats) {
    let (idb, stats) = eval_ids_mode(program, strategy, mode);
    (idb.to_database(), stats)
}

/// Evaluates the program to its least (perfect) model, returning the flat
/// [`IdDatabase`] without materialising tree-shaped tuples — the right
/// entry point at scale (a 10⁶-fact closure stays one arena of `u32`s).
///
/// ```
/// use lambda_join_datalog::eval::{eval_ids, transitive_closure_program, Strategy};
///
/// let p = transitive_closure_program(&[(0, 1), (1, 2), (2, 3)]);
/// let (idb, stats) = eval_ids(&p, Strategy::Seminaive);
/// assert_eq!(idb.fact_count("path"), 6);
/// assert!(stats.rounds >= 3);
/// ```
///
/// # Panics
///
/// Panics when the program is not stratifiable.
pub fn eval_ids(program: &Program, strategy: Strategy) -> (IdDatabase, EvalStats) {
    eval_ids_mode(program, strategy, JoinMode::Auto)
}

/// [`eval_ids`] with an explicit [`JoinMode`].
///
/// # Panics
///
/// Panics when the program is not stratifiable.
pub fn eval_ids_mode(
    program: &Program,
    strategy: Strategy,
    mode: JoinMode,
) -> (IdDatabase, EvalStats) {
    eval_ids_split(program, strategy, mode, Split::host())
}

/// [`eval_ids_mode`] with an explicit [`Split`] — how the determinism
/// tests vary the worker count.
pub(crate) fn eval_ids_split(
    program: &Program,
    strategy: Strategy,
    mode: JoinMode,
    split: Split,
) -> (IdDatabase, EvalStats) {
    let cp = compile_or_panic(program, mode);
    let (rels, stats) = match strategy {
        Strategy::Naive => eval_naive_ids(&cp, split),
        Strategy::Seminaive => eval_seminaive_ids(&cp, split),
    };
    (seal(cp, rels), stats)
}

/// Root keys a leapfrog plan's narrowest level-0 trie needs before the
/// plan splits across threads; narrower plans run inline. A split costs a
/// thread start per extra worker (30–50 µs), and a narrow root seldom
/// holds the work to repay it. The bound is conservative, not tuned: the
/// `datalog_batch` triangles plan has 3,125 root keys and spends about
/// 6 µs on each.
pub(crate) const SPLIT_MIN_ROOT_KEYS: usize = 1024;

/// Root chunks per worker when a plan splits. Chunks hold about equal
/// row counts, but a root key's work grows faster than its rows (a hub's
/// neighbours are hubs too), so the workers claim many chunks each,
/// which evens out the skew that a static one-chunk-per-worker split
/// leaves.
const CHUNKS_PER_WORKER: usize = 8;

/// How a large leapfrog plan's root level splits across threads: into
/// [`CHUNKS_PER_WORKER`] chunks per worker once its narrowest level-0
/// trie holds `min_root_keys` root keys, or not at all with one worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    /// The worker count.
    pub(crate) workers: usize,
    pub(crate) min_root_keys: usize,
}

impl Split {
    /// The production split: the host's parallelism.
    fn host() -> Self {
        Split {
            workers: pool::default_workers(),
            min_root_keys: SPLIT_MIN_ROOT_KEYS,
        }
    }
}

fn compile_or_panic(program: &Program, mode: JoinMode) -> CompiledProgram<'_> {
    compile(program, mode).unwrap_or_else(|e| panic!("{e}"))
}

/// The evaluated relations as an [`IdDatabase`]. Their tries are
/// dropped: only evaluation reads them, so a result, a snapshot of it and
/// a loaded snapshot all hold the same structures.
fn seal(cp: CompiledProgram<'_>, mut rels: Vec<Relation>) -> IdDatabase {
    for rel in &mut rels {
        rel.tries = Vec::new();
    }
    IdDatabase {
        rels,
        names: cp.rel_names,
        consts: cp.consts,
        const_ids: cp.const_ids,
    }
}

/// Shared read-side context for one round's joins: the database
/// relations, the row marks that delimit a seminaive round's delta —
/// relations are append-only, so relation `r`'s delta is its suffix from
/// row `marks[r]`, read in place — and the tries the round's leapfrog
/// plans read over that delta.
///
/// [`Cx::new`] builds every delta trie before any plan runs, once per
/// `(relation, spec)`: the delta plans of one rule (and often of several
/// rules) project the same delta relation through identical specs. A `Cx`
/// lives for exactly one round, which is exactly the delta's lifetime —
/// no invalidation logic needed.
struct Cx<'a> {
    db: &'a [Relation],
    marks: Option<&'a [usize]>,
    delta_tries: Vec<(u32, Trie)>,
}

impl<'a> Cx<'a> {
    /// The context of a round running `plans`, its delta tries built.
    fn new(
        db: &'a [Relation],
        marks: Option<&'a [usize]>,
        plans: &[(&CompiledRule, &Plan)],
    ) -> Self {
        let mut cx = Cx {
            db,
            marks,
            delta_tries: Vec::new(),
        };
        for (_, plan) in plans {
            let Plan::Wcoj(wp) = plan else { continue };
            for a in wp.atoms.iter().filter(|a| a.is_delta) {
                if cx.delta_trie(a).is_none() {
                    let d = cx.delta(a.rel);
                    let t = Trie::build(a.spec.clone(), d.data, d.arity, d.rows);
                    cx.delta_tries.push((a.rel, t));
                }
            }
        }
        cx
    }

    /// Relation `rel`'s delta this round: the rows the last merge
    /// appended to it.
    fn delta(&self, rel: u32) -> Delta<'a> {
        let mark = self.marks.expect("delta atom outside a seminaive round")[rel as usize];
        let r = &self.db[rel as usize];
        Delta {
            data: &r.data[mark * r.arity..],
            rows: r.len() - mark,
            arity: r.arity,
        }
    }

    /// The trie leapfrog delta atom `a` reads this round, once built.
    /// When the delta IS the whole relation (round 1 for a relation whose
    /// every row was rule-derived in round 0, e.g. `sg` after its base
    /// rule), a current database trie with the same spec already holds
    /// exactly the delta's projection and stands in for it. Only the
    /// plans a round runs refresh their tries, so a trie that only the
    /// round-0 naive plan read lags and is passed over.
    fn delta_trie(&self, a: &WcojAtom) -> Option<&Trie> {
        let rel = &self.db[a.rel as usize];
        if self.delta(a.rel).rows == rel.len() {
            if let Some(t) = rel.current_trie(&a.spec) {
                return Some(t);
            }
        }
        self.delta_tries
            .iter()
            .find(|(r, t)| *r == a.rel && t.spec == a.spec)
            .map(|(_, t)| t)
    }
}

/// The mutable state every join writes: the binding slots, a key
/// scratch buffer, the round's per-relation derivation buffers and the
/// running statistics. One frame serves a whole evaluation; a split
/// leapfrog plan runs each root chunk in a frame of its own, kept in
/// `chunks` so that their buffers, like the main frame's, keep their
/// capacity from plan to plan and round to round.
///
/// Backtracking needs no trail: a slot is written by exactly one `Bind`
/// on any plan path and only read (`CheckVar`, negation, head emission)
/// strictly after that bind executes, so stale values left by
/// backtracking are never observed.
struct Frame {
    bindings: Vec<u32>,
    scratch: Vec<u32>,
    out: Vec<Derived>,
    stats: EvalStats,
    split: Split,
    chunks: Vec<Frame>,
}

impl Frame {
    fn new(cp: &CompiledProgram<'_>, split: Split) -> Self {
        Frame {
            bindings: vec![0; cp.rules.iter().map(|r| r.nvars).max().unwrap_or(0)],
            scratch: Vec::new(),
            out: cp.fresh_derived(),
            stats: EvalStats::default(),
            split,
            chunks: Vec::new(),
        }
    }

    /// An empty frame shaped like this one, for one root chunk.
    fn chunk(&self) -> Frame {
        Frame {
            bindings: vec![0; self.bindings.len()],
            scratch: Vec::new(),
            out: vec![Derived::default(); self.out.len()],
            stats: EvalStats::default(),
            split: self.split,
            chunks: Vec::new(),
        }
    }
}

/// One relation's delta, borrowed in place from the relation's suffix.
/// The explicit row count keeps zero-arity relations representable.
#[derive(Clone, Copy)]
struct Delta<'a> {
    data: &'a [u32],
    rows: usize,
    arity: usize,
}

impl<'a> Delta<'a> {
    #[inline]
    fn row(&self, i: usize) -> &'a [u32] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }
}

#[inline]
fn match_row(ops: &[ArgOp], row: &[u32], bindings: &mut [u32]) -> bool {
    for (op, &v) in ops.iter().zip(row) {
        match *op {
            ArgOp::CheckConst(c) => {
                if v != c {
                    return false;
                }
            }
            ArgOp::CheckVar(s) => {
                if bindings[s] != v {
                    return false;
                }
            }
            ArgOp::Bind(s) => bindings[s] = v,
        }
    }
    true
}

#[inline]
fn op_value(op: &ArgOp, bindings: &[u32]) -> u32 {
    match *op {
        ArgOp::CheckConst(c) => c,
        ArgOp::CheckVar(s) => bindings[s],
        ArgOp::Bind(_) => unreachable!("key ops are bound"),
    }
}

/// Anti-join: every negated premise scheduled at this point must be
/// absent from the (stratification-complete) database.
#[inline]
fn neg_pass(cx: &Cx<'_>, checks: &[NegCheck], f: &mut Frame) -> bool {
    checks.iter().all(|c| {
        f.scratch.clear();
        f.scratch
            .extend(c.ops.iter().map(|op| op_value(op, &f.bindings)));
        !cx.db[c.rel as usize].contains(&f.scratch)
    })
}

/// A complete match: instantiates the rule head from the bindings into
/// the round's output and counts one derivation — the one place either
/// join kind emits a head.
#[inline]
fn emit_head(rule: &CompiledRule, f: &mut Frame) {
    f.stats.derivations += 1;
    let o = &mut f.out[rule.head_rel as usize];
    o.data
        .extend(rule.head.iter().map(|op| op_value(op, &f.bindings)));
    o.rows += 1;
}

/// Nested-loop join over the remaining planned atoms; a complete match
/// instantiates the head. `neg_after` stays aligned with `atoms`
/// (`neg_after[0]` runs on entry, i.e. once the atoms before this call
/// have all matched).
fn join(
    cx: &Cx<'_>,
    atoms: &[PlannedAtom],
    neg_after: &[Vec<NegCheck>],
    rule: &CompiledRule,
    f: &mut Frame,
) {
    if !neg_pass(cx, &neg_after[0], f) {
        return;
    }
    let Some(atom) = atoms.first() else {
        emit_head(rule, f);
        return;
    };
    let rest = &atoms[1..];
    let negs = &neg_after[1..];
    if atom.is_delta {
        let d = cx.delta(atom.rel);
        for i in 0..d.rows {
            if match_row(&atom.ops, d.row(i), &mut f.bindings) {
                join(cx, rest, negs, rule, f);
            }
        }
        return;
    }
    let rel = &cx.db[atom.rel as usize];
    match atom.access {
        Access::Contains => {
            f.scratch.clear();
            f.scratch
                .extend(atom.ops.iter().map(|op| op_value(op, &f.bindings)));
            if rel.contains(&f.scratch) {
                join(cx, rest, negs, rule, f);
            }
        }
        Access::Trie {
            trie_slot,
            ref key,
            ref binds,
        } => {
            f.scratch.clear();
            f.scratch.extend(key.iter().map(|&s| f.bindings[s]));
            let t = &rel.tries[trie_slot];
            let (lo, hi) = t.prefix_range(&f.scratch, None);
            for r in lo..hi {
                bind_trie_row(t, r, key.len(), binds, &mut f.bindings);
                join(cx, rest, negs, rule, f);
            }
        }
        Access::Scan => {
            for i in 0..rel.len() as u32 {
                if match_row(&atom.ops, rel.row(i), &mut f.bindings) {
                    join(cx, rest, negs, rule, f);
                }
            }
        }
    }
}

/// Binds `binds` from trie row `r`'s levels after the `key_len` key
/// levels — an [`Access::Trie`] match.
#[inline]
fn bind_trie_row(t: &Trie, r: usize, key_len: usize, binds: &[usize], bindings: &mut [u32]) {
    let row = &t.data()[r * t.width() + key_len..(r + 1) * t.width()];
    for (&s, &v) in binds.iter().zip(row) {
        bindings[s] = v;
    }
}

/// A leapfrog cursor over one [`Trie`]'s sorted flat rows. A stack frame
/// per open level holds `(cur, hi)`: the current position and the
/// exclusive end of the parent's group. The **root frame counts in
/// key-directory units** — the trie keeps its distinct level-0 keys in a
/// dense sorted array, so root seeks read contiguous memory and root
/// `next` is an increment; deeper frames count in row units and read the
/// level's column strided by the trie's width. Every move is one
/// [`seek`] over that strided view, costing O(log distance), which is
/// what makes the leapfrog intersection worst-case optimal; the root
/// directory only changes the constant, but the root is where a cursor
/// intersects the whole relation, so that constant dominates. A cursor
/// that carries level 0 of a split plan is clamped to its chunk's root
/// keys: its root frame opens on just their directory positions.
struct TrieIter<'a> {
    data: &'a [u32],
    w: usize,
    dir0: &'a [u32],
    dir0_start: &'a [u32],
    clamp: Option<RootKeys>,
    stack: Vec<(usize, usize)>,
}

/// One chunk of a split plan's root level: the root keys `from..to`,
/// unbounded above when `to` is `None`.
#[derive(Clone, Copy)]
struct RootKeys {
    from: u32,
    to: Option<u32>,
}

impl<'a> TrieIter<'a> {
    fn new(t: &'a Trie) -> Self {
        TrieIter {
            data: t.data(),
            w: t.width(),
            dir0: t.dir0(),
            dir0_start: t.dir0_start(),
            clamp: None,
            stack: Vec::new(),
        }
    }

    /// The innermost open level as `(keys, stride, cur, hi)`: key `i` of
    /// the level is `keys[i * stride]` and the frame spans `cur..hi`. The
    /// root views the dense directory (stride 1); deeper levels view
    /// their column inside the row storage (stride `w`).
    #[inline]
    fn view(&self) -> (&'a [u32], usize, usize, usize) {
        let &(cur, hi) = self.stack.last().expect("open level");
        match self.stack.len() {
            1 => (self.dir0, 1, cur, hi),
            depth => (&self.data[depth - 1..], self.w, cur, hi),
        }
    }

    /// End of the current key's run at the innermost level. Keys are
    /// distinct in the root directory and at the deepest level (rows are
    /// distinct), so every run there has length one.
    fn run_end(&self) -> usize {
        let (keys, stride, cur, hi) = self.view();
        if self.stack.len() == 1 || self.stack.len() == self.w {
            return cur + 1;
        }
        seek(keys, stride, cur, hi, keys[cur * stride], true)
    }

    /// Descends into the current key's children (or the root level, or
    /// the clamped part of it).
    fn open(&mut self) {
        let frame = match (self.stack.len(), self.clamp) {
            (0, None) => (0, self.dir0.len()),
            (0, Some(RootKeys { from, to })) => {
                let n = self.dir0.len();
                let lo = seek(self.dir0, 1, 0, n, from, false);
                (lo, to.map_or(n, |to| seek(self.dir0, 1, lo, n, to, false)))
            }
            (1, _) => {
                let cur = self.stack[0].0;
                (
                    self.dir0_start[cur] as usize,
                    self.dir0_start[cur + 1] as usize,
                )
            }
            _ => (self.stack.last().expect("open level").0, self.run_end()),
        };
        self.stack.push(frame);
    }

    fn up(&mut self) {
        self.stack.pop();
    }

    #[inline]
    fn at_end(&self) -> bool {
        let &(cur, hi) = self.stack.last().expect("open level");
        cur >= hi
    }

    #[inline]
    fn key(&self) -> u32 {
        let (keys, stride, cur, _) = self.view();
        keys[cur * stride]
    }

    /// Advances to the next distinct key at this level.
    fn next(&mut self) {
        let e = self.run_end();
        self.stack.last_mut().expect("open level").0 = e;
    }

    /// Advances to the first key `>= v` at this level.
    fn seek(&mut self, v: u32) {
        let (keys, stride, cur, hi) = self.view();
        let to = seek(keys, stride, cur, hi, v, false);
        // The leapfrog's progress: a seek past the current key moves the
        // cursor (or ends the level), so a broken seek fails, not spins.
        debug_assert!(
            to == hi || to > cur || keys[cur * stride] >= v,
            "seek to {v} stuck at {cur}"
        );
        self.stack.last_mut().expect("open level").0 = to;
    }
}

/// Runs one leapfrog plan: recursively intersects its tries — the
/// database's, refreshed at round start, and the round's delta tries —
/// level by level.
///
/// The root level runs as the contiguous chunks [`root_chunks`] picks:
/// one covering every key unless the plan is wide enough to split. One
/// chunk runs inline in `f`. Several run in
/// frames of their own on up to `workers` threads — the caller's and
/// scoped ones — each claiming the next unclaimed chunk until none is
/// left; then the chunks' outputs and derivation counts join `f` in
/// chunk order. The chunks cover ascending, disjoint key ranges, so this
/// is exactly the sequential search's output, whatever the schedule.
fn run_wcoj(cx: &Cx<'_>, rule: &CompiledRule, plan: &WcojPlan, f: &mut Frame) {
    if !neg_pass(cx, &plan.neg_at[0], f) {
        return;
    }
    let tries: Vec<&Trie> = plan
        .atoms
        .iter()
        .map(|a| {
            if a.is_delta {
                cx.delta_trie(a).expect("the round builds its delta tries")
            } else {
                &cx.db[a.rel as usize].tries[a.trie_slot]
            }
        })
        .collect();
    // An empty trie (including a fully-ground atom whose fact is absent)
    // annihilates the whole join.
    if tries.iter().any(|t| t.len() == 0) {
        return;
    }
    let (lead, bounds, workers) = root_chunks(plan, &tries, f.split);
    if bounds.len() == 1 {
        wcoj_chunk(cx, rule, plan, &tries, None, f);
        return;
    }
    let roots: Vec<RootKeys> = bounds
        .iter()
        .map(|b| RootKeys {
            from: lead.dir0()[b.start],
            to: lead.dir0().get(b.end).copied(),
        })
        .collect();
    let head = rule.head_rel as usize;
    let mut frames = std::mem::take(&mut f.chunks);
    while frames.len() < roots.len() {
        frames.push(f.chunk());
    }
    for cf in &mut frames {
        // Allocated here, a chunk's buffer comes from the caller's malloc
        // arena and grows there, whichever thread fills it.
        cf.out[head].data.reserve(1024);
    }
    let queue = Mutex::new(frames.iter_mut().zip(&roots));
    let work = || loop {
        let next = queue
            .lock()
            .expect("the queue is locked only to take a chunk, which cannot panic")
            .next();
        let Some((cf, &root)) = next else { break };
        wcoj_chunk(cx, rule, plan, &tries, Some(root), cf);
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(roots.len()) {
            s.spawn(work);
        }
        work();
    });
    for cf in &mut frames[..roots.len()] {
        // `append` empties the chunk's buffer but keeps its capacity.
        let (o, co) = (&mut f.out[head], &mut cf.out[head]);
        o.data.append(&mut co.data);
        o.rows += std::mem::take(&mut co.rows);
        f.stats.derivations += std::mem::take(&mut cf.stats.derivations);
    }
    f.chunks = frames;
}

/// How a leapfrog plan over `tries` runs its root level: the lead trie,
/// the ranges of its root-key positions that make the chunks, and the
/// workers that search them. The lead is the level-0 trie with the
/// fewest root keys, since every root match is one of its keys: in a
/// delta plan that is usually the delta, however wide the relations it
/// joins, so a round with a small delta stays inline. The root is one
/// chunk on one worker unless `split` has several workers and the lead
/// at least `min_root_keys` keys.
fn root_chunks<'t>(
    plan: &WcojPlan,
    tries: &[&'t Trie],
    split: Split,
) -> (&'t Trie, Vec<Range<usize>>, usize) {
    let lead = plan.at_level[0]
        .iter()
        .map(|&a| tries[a])
        .min_by_key(|t| t.dir0().len())
        .expect("every level has a trie");
    let workers = if lead.dir0().len() < split.min_root_keys {
        1
    } else {
        split.workers
    };
    let chunks = if workers > 1 {
        CHUNKS_PER_WORKER * workers
    } else {
        1
    };
    (lead, chunk_bounds(lead.dir0_start(), chunks), workers)
}

/// Splits a root level — `dir0_start` holds each root key's first row
/// plus a trailing row count — into at most `n` contiguous, non-empty
/// ranges of key positions that cover every key once, in order. Cut `c`
/// falls before the first key whose rows start at or past `c / n` of the
/// rows, so a range holds at most `rows / n` rows before its last key,
/// and a hub key, whatever its size, ends its range.
fn chunk_bounds(dir0_start: &[u32], n: usize) -> Vec<Range<usize>> {
    let keys = dir0_start.len() - 1;
    let rows = dir0_start[keys] as usize;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for c in 1..=n {
        let end = if c == n {
            keys
        } else {
            dir0_start[..keys].partition_point(|&s| (s as usize) * n < rows * c)
        };
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    out
}

/// Runs one root chunk of a leapfrog plan over `tries` into `f`: the
/// cursors that carry level 0 clamped to `root`, or the whole root level
/// when `root` is `None`.
fn wcoj_chunk(
    cx: &Cx<'_>,
    rule: &CompiledRule,
    plan: &WcojPlan,
    tries: &[&Trie],
    root: Option<RootKeys>,
    f: &mut Frame,
) {
    let mut iters: Vec<TrieIter<'_>> = tries.iter().map(|t| TrieIter::new(t)).collect();
    for &a in &plan.at_level[0] {
        iters[a].clamp = root;
    }
    let mut order_bufs: Vec<Vec<usize>> = vec![Vec::new(); plan.levels.len()];
    wcoj_level(cx, rule, plan, 0, &mut iters, &mut order_bufs, f);
}

/// One level of the leapfrog search: open every participating trie at
/// this level, enumerate the intersection of their key sets (classic
/// leapfrog: repeatedly seek the smallest cursor to the current maximum;
/// keys where all cursors agree are matches), bind the level's slot, and
/// recurse. A complete assignment instantiates the head — the same set
/// of assignments the binary plan enumerates, so derivation counts are
/// identical across join modes.
fn wcoj_level(
    cx: &Cx<'_>,
    rule: &CompiledRule,
    plan: &WcojPlan,
    level: usize,
    iters: &mut [TrieIter<'_>],
    order_bufs: &mut [Vec<usize>],
    f: &mut Frame,
) {
    let parts = &plan.at_level[level];
    for &a in parts {
        iters[a].open();
    }
    // A clamped root level can be empty, which ends the chunk. A deeper
    // level never is: its range is some parent key's (non-empty) run. A
    // match binds the level's slot, runs the checks scheduled once it is
    // bound, then emits the head (last level) or recurses.
    if level == 0 && parts.iter().any(|&a| iters[a].at_end()) {
        for &a in parts {
            iters[a].up();
        }
        return;
    }
    let last = level + 1 == plan.levels.len();
    macro_rules! descend {
        ($key:expr) => {
            f.bindings[plan.levels[level]] = $key;
            if neg_pass(cx, &plan.neg_at[level + 1], f) {
                if last {
                    emit_head(rule, f);
                } else {
                    wcoj_level(cx, rule, plan, level + 1, iters, order_bufs, f);
                }
            }
        };
    }
    match *parts.as_slice() {
        // One participant: every key at this level extends the binding.
        [i0] => loop {
            descend!(iters[i0].key());
            iters[i0].next();
            if iters[i0].at_end() {
                break;
            }
        },
        // Final level with two participants — where triangle and
        // same-generation joins spend nearly all their time. Intersect
        // the two runs directly on the sorted storage, emitting matches
        // in place: a strided two-pointer merge for comparable run
        // lengths, probe-the-longer with galloping when skewed (a hub
        // node against an ordinary one).
        [i0, i1] if last => {
            let (ka, sa, la, ha) = iters[i0].view();
            let (kb, sb, lb, hb) = iters[i1].view();
            let ((pk, ps, mut p, ph), (qk, qs, mut q, qh)) = if ha - la <= hb - lb {
                ((ka, sa, la, ha), (kb, sb, lb, hb))
            } else {
                ((kb, sb, lb, hb), (ka, sa, la, ha))
            };
            if (ph - p) * 8 < qh - q {
                while p < ph {
                    let (v, from) = (pk[p * ps], q);
                    q = seek(qk, qs, q, qh, v, false);
                    debug_assert!(
                        q == qh || q > from || qk[from * qs] >= v,
                        "seek to {v} stuck at {from}"
                    );
                    if q == qh {
                        break;
                    }
                    if qk[q * qs] == v {
                        descend!(v);
                        q += 1;
                    }
                    p += 1;
                }
            } else {
                while p < ph && q < qh {
                    let (x, y) = (pk[p * ps], qk[q * qs]);
                    match x.cmp(&y) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            descend!(x);
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
        }
        // Two participants at an inner level: a plain two-cursor leapfrog
        // with no ordering buffer.
        [i0, i1] => loop {
            let (ka, kb) = (iters[i0].key(), iters[i1].key());
            let adv = match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    iters[i0].seek(kb);
                    i0
                }
                std::cmp::Ordering::Greater => {
                    iters[i1].seek(ka);
                    i1
                }
                std::cmp::Ordering::Equal => {
                    descend!(ka);
                    iters[i0].next();
                    i0
                }
            };
            if iters[adv].at_end() {
                break;
            }
        },
        // The general ring: sort cursors by key, then repeatedly seek the
        // smallest to the running maximum; agreement is a match.
        _ => {
            let mut order = std::mem::take(&mut order_bufs[level]);
            order.clear();
            order.extend_from_slice(parts);
            order.sort_unstable_by_key(|&a| iters[a].key());
            let k = order.len();
            let mut p = 0usize;
            let mut max = iters[order[k - 1]].key();
            loop {
                let it = &mut iters[order[p]];
                if it.key() == max {
                    descend!(max);
                    let it = &mut iters[order[p]];
                    it.next();
                    if it.at_end() {
                        break;
                    }
                    max = it.key();
                } else {
                    it.seek(max);
                    if it.at_end() {
                        break;
                    }
                    max = it.key();
                }
                p = (p + 1) % k;
            }
            order_bufs[level] = order;
        }
    }
    for &a in parts {
        iters[a].up();
    }
}

/// Runs one plan. Merge-eligible seminaive binary plans order the delta
/// by the downstream probe key with `sort`, the store's radix sort (ties
/// in delta row order), and seek the probed trie forward once per
/// distinct key run of the sorted keys; other binary plans go straight
/// to the nested-loop join; leapfrog plans run the triejoin.
fn run_plan(cx: &Cx<'_>, rule: &CompiledRule, plan: &Plan, sort: &mut KeySort, f: &mut Frame) {
    let (atoms, merge_key, neg_after) = match plan {
        Plan::Wcoj(wp) => {
            run_wcoj(cx, rule, wp, f);
            return;
        }
        Plan::Binary {
            atoms,
            merge_key,
            neg_after,
        } => (atoms, merge_key, neg_after),
    };
    if let (Some(merge_key), Some(_)) = (merge_key, cx.marks) {
        let datom = &atoms[0];
        let d = cx.delta(datom.rel);
        sort.sort(d.data, d.arity, d.rows, merge_key);
        let patom = &atoms[1];
        let Access::Trie {
            trie_slot,
            ref binds,
            ..
        } = patom.access
        else {
            unreachable!("merge plans probe a trie")
        };
        let t = &cx.db[patom.rel as usize].tries[trie_slot];
        let (rest, rest_neg) = (&atoms[2..], &neg_after[2..]);
        let (order, w) = (sort.order(), merge_key.len());
        let key_at = |i: usize| &sort.keys()[i * w..(i + 1) * w];
        let mut hint = 0usize;
        let mut run = 0usize;
        while run < order.len() {
            let key = key_at(run);
            let mut end = run + 1;
            while end < order.len() && key_at(end).iter().eq(key) {
                end += 1;
            }
            // Each run's matches are one contiguous range of trie rows.
            let (lo, hi) = t.prefix_range(key, Some(&mut hint));
            if lo < hi {
                for &di in &order[run..end] {
                    if match_row(&datom.ops, d.row(di as usize), &mut f.bindings) {
                        for r in lo..hi {
                            bind_trie_row(t, r, w, binds, &mut f.bindings);
                            join(cx, rest, rest_neg, rule, f);
                        }
                    }
                }
            }
            run = end;
        }
        return;
    }
    join(cx, atoms, neg_after, rule, f);
}

/// Runs one round of `plans` — naive when `marks` is `None`, otherwise
/// seminaive over each relation's rows past `marks` — and merges its
/// derivations, after any the caller already buffered in `frame.out`,
/// into `db`: the one place derivations enter the database.
///
/// First the database tries the plans read — and only those — project,
/// sort and merge in the rows derived since their last refresh, so
/// lookups, merges and leapfrog plans read current data and no other
/// trie is re-merged; then [`Cx::new`] builds the round's delta tries.
/// The merge inserts each relation's buffer as one batch; the genuinely
/// new facts land at the end of their relation. Returns the row counts
/// from before the merge: the rows past them are the next round's delta.
fn round(
    db: &mut [Relation],
    plans: &[(&CompiledRule, &Plan)],
    marks: Option<&[usize]>,
    sort: &mut KeySort,
    frame: &mut Frame,
) -> Vec<usize> {
    frame.stats.rounds += 1;
    for (_, plan) in plans {
        for (rel, t) in plan.tries() {
            db[rel as usize].refresh_trie(t);
        }
    }
    let cx = Cx::new(db, marks, plans);
    for &(rule, plan) in plans {
        run_plan(&cx, rule, plan, sort, frame);
    }
    // The delta tries go before the merge grows the relations.
    drop(cx);
    let marks = db.iter().map(Relation::len).collect();
    for (rel, o) in db.iter_mut().zip(&mut frame.out) {
        rel.insert_batch(&o.data, o.rows);
        // Emptied in place: the next round refills it without regrowing.
        o.data.clear();
        o.rows = 0;
    }
    marks
}

/// Whether the last round's merge appended anything past `marks`.
fn grew(db: &[Relation], marks: &[usize]) -> bool {
    db.iter().zip(marks).any(|(r, &m)| r.len() > m)
}

/// The naive plans of a stratum's rules.
fn naive_plans<'a>(cp: &'a CompiledProgram<'_>, si: usize) -> Vec<(&'a CompiledRule, &'a Plan)> {
    let rules = cp.strata[si].iter().map(|&ri| &cp.rules[ri]);
    rules.map(|rule| (rule, &rule.naive)).collect()
}

/// Naive evaluation: every round of a stratum re-fires its fact blocks,
/// counted as one derivation per fact, and every rule naively, until a
/// round adds nothing.
fn eval_naive_ids(cp: &CompiledProgram<'_>, split: Split) -> (Vec<Relation>, EvalStats) {
    let mut db = cp.fresh_store();
    let mut frame = Frame::new(cp, split);
    let mut sort = KeySort::default();
    for si in 0..cp.strata.len() {
        let plans = naive_plans(cp, si);
        loop {
            for &rel in &cp.facts[si] {
                let b = &cp.fact_blocks[rel as usize];
                let o = &mut frame.out[rel as usize];
                o.data.extend_from_slice(&b.data);
                o.rows += b.rows;
                frame.stats.derivations += b.rows;
            }
            let marks = round(&mut db, &plans, None, &mut sort, &mut frame);
            if !grew(&db, &marks) {
                break;
            }
        }
    }
    (db, frame.stats)
}

/// Seminaive evaluation. A stratum's fact blocks load into the database
/// first, then round 0 fires every rule of the stratum naively: every
/// relation the stratum does not derive is therefore complete before any
/// rule fires, which is what lets the planner give delta plans only to
/// same-stratum body atoms. Round 0's marks are taken after the facts
/// loaded, so the first delta holds only rule-derived rows; each later
/// round fires the delta plans whose delta is non-empty.
fn eval_seminaive_ids(cp: &CompiledProgram<'_>, split: Split) -> (Vec<Relation>, EvalStats) {
    let mut db = cp.fresh_store();
    let mut frame = Frame::new(cp, split);
    // The merge plans' sort buffers, reused by every plan and round.
    let mut sort = KeySort::default();
    for (si, stratum) in cp.strata.iter().enumerate() {
        for &rel in &cp.facts[si] {
            let b = &cp.fact_blocks[rel as usize];
            db[rel as usize].load(&b.data, b.rows);
            frame.stats.derivations += b.rows;
        }
        let mut marks = round(&mut db, &naive_plans(cp, si), None, &mut sort, &mut frame);
        while grew(&db, &marks) {
            let firing: Vec<(&CompiledRule, &Plan)> = stratum
                .iter()
                .flat_map(|&ri| {
                    let rule = &cp.rules[ri];
                    rule.delta_plans.iter().map(move |plan| (rule, plan))
                })
                .filter(|(_, plan)| {
                    let dr = plan.delta_rel().expect("delta plans read a delta") as usize;
                    db[dr].len() > marks[dr]
                })
                .collect();
            marks = round(&mut db, &firing, Some(&marks), &mut sort, &mut frame);
        }
    }
    (db, frame.stats)
}

/// Convenience: the tuples of a predicate, or empty.
///
/// The order is **deterministic and strategy-independent**: tuples come
/// back sorted ascending (by [`Const`]'s derived order), whichever of the
/// naive or seminaive engine produced the database and in
/// whatever order they derived the facts. Pinned by the
/// `rows_order_is_deterministic` tests.
pub fn rows<'a>(db: &'a Database, pred: &str) -> Vec<&'a Vec<Const>> {
    db.get(pred).map(|s| s.iter().collect()).unwrap_or_default()
}

/// Builds the classic transitive-closure program over the given edges:
/// `path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).`
pub fn transitive_closure_program(edges: &[(i64, i64)]) -> Program {
    use crate::ast::{cst, var};
    let mut p = Program::new();
    for (s, t) in edges {
        p.fact(Atom::new("edge", vec![cst(*s), cst(*t)]));
    }
    p.rule(
        Atom::new("path", vec![var("X"), var("Y")]),
        vec![Atom::new("edge", vec![var("X"), var("Y")])],
    );
    p.rule(
        Atom::new("path", vec![var("X"), var("Z")]),
        vec![
            Atom::new("path", vec![var("X"), var("Y")]),
            Atom::new("edge", vec![var("Y"), var("Z")]),
        ],
    );
    p
}

/// The `reaches` program (§2.3) as Datalog: reachability from a start node.
pub fn reaches_program(edges: &[(i64, i64)], start: i64) -> Program {
    use crate::ast::{cst, var};
    let mut p = Program::new();
    for (s, t) in edges {
        p.fact(Atom::new("edge", vec![cst(*s), cst(*t)]));
    }
    p.fact(Atom::new("reaches", vec![cst(start)]));
    p.rule(
        Atom::new("reaches", vec![var("Y")]),
        vec![
            Atom::new("reaches", vec![var("X")]),
            Atom::new("edge", vec![var("X"), var("Y")]),
        ],
    );
    p
}

/// The triangle-counting program over directed edges `e`:
/// `triangle(X,Y,Z) :- e(X,Y), e(Y,Z), e(X,Z).` — the canonical cyclic
/// body the planner sends to the leapfrog triejoin (three join variables,
/// each shared by two atoms).
pub fn triangle_program(edges: &[(i64, i64)]) -> Program {
    use crate::ast::{cst, var};
    let mut p = Program::new();
    for (s, t) in edges {
        p.fact(Atom::new("e", vec![cst(*s), cst(*t)]));
    }
    p.rule(
        Atom::new("triangle", vec![var("X"), var("Y"), var("Z")]),
        vec![
            Atom::new("e", vec![var("X"), var("Y")]),
            Atom::new("e", vec![var("Y"), var("Z")]),
            Atom::new("e", vec![var("X"), var("Z")]),
        ],
    );
    p
}

/// The same-generation program over parent edges `par(parent, child)`:
/// siblings share a parent, and children of same-generation nodes are
/// same-generation. The recursive rule is cyclic (join variables `P`,
/// `Q`), so it runs under the triejoin; the base rule has one join
/// variable and stays on the binary path — one program exercising both
/// plan kinds at once.
pub fn same_generation_program(parent_edges: &[(i64, i64)]) -> Program {
    use crate::ast::{cst, var};
    let mut p = Program::new();
    for (a, c) in parent_edges {
        p.fact(Atom::new("par", vec![cst(*a), cst(*c)]));
    }
    p.rule(
        Atom::new("sg", vec![var("X"), var("Y")]),
        vec![
            Atom::new("par", vec![var("P"), var("X")]),
            Atom::new("par", vec![var("P"), var("Y")]),
        ],
    );
    p.rule(
        Atom::new("sg", vec![var("X"), var("Y")]),
        vec![
            Atom::new("par", vec![var("P"), var("X")]),
            Atom::new("sg", vec![var("P"), var("Q")]),
            Atom::new("par", vec![var("Q"), var("Y")]),
        ],
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{cst, var};

    #[test]
    fn facts_are_derived() {
        let mut p = Program::new();
        p.fact(Atom::new("n", vec![cst(1)]));
        p.fact(Atom::new("n", vec![cst(2)]));
        let (db, _) = eval(&p, Strategy::Naive);
        assert_eq!(rows(&db, "n").len(), 2);
    }

    #[test]
    fn transitive_closure_on_line() {
        let p = transitive_closure_program(&[(0, 1), (1, 2), (2, 3)]);
        let (db, _) = eval(&p, Strategy::Seminaive);
        // 3 + 2 + 1 = 6 paths.
        assert_eq!(rows(&db, "path").len(), 6);
        assert!(db["path"].contains(&vec![Const::Int(0), Const::Int(3)]));
    }

    #[test]
    fn naive_and_seminaive_agree_on_cycles() {
        for edges in [
            vec![(0, 1), (1, 2), (2, 0)],
            vec![(0, 1), (1, 2), (2, 3), (3, 1)],
            vec![(0, 0)],
            vec![],
        ] {
            let p = transitive_closure_program(&edges);
            let (naive, _) = eval(&p, Strategy::Naive);
            let (semi, _) = eval(&p, Strategy::Seminaive);
            assert_eq!(naive, semi, "disagree on {edges:?}");
        }
    }

    #[test]
    fn seminaive_does_less_work() {
        let edges: Vec<(i64, i64)> = (0..30).map(|i| (i, i + 1)).collect();
        let p = transitive_closure_program(&edges);
        let (_, naive_stats) = eval(&p, Strategy::Naive);
        let (_, semi_stats) = eval(&p, Strategy::Seminaive);
        assert!(
            semi_stats.derivations < naive_stats.derivations,
            "seminaive {semi_stats:?} vs naive {naive_stats:?}"
        );
    }

    #[test]
    fn seminaive_closure_of_a_chain_forest_does_closed_form_work() {
        // C chains of L edges: round k derives the paths of length k + 1,
        // so the fixpoint takes L + 1 rounds and C·L fact loads, C·L base
        // derivations and C·(L−1 + … + 0) recursive ones. Edges are listed
        // last position first, so constant ids (given in order of first
        // appearance) do not follow the chains and every delta arrives out
        // of key order. The 17,000×3 forest has more than 2¹⁶ nodes, so its
        // merge keys take a third radix pass.
        for (c, l) in [(1, 1), (1, 7), (5, 3), (40, 12), (3, 40), (17_000, 3)] {
            let edges: Vec<(i64, i64)> = (0..l)
                .rev()
                .flat_map(|i| (0..c).map(move |ch| (ch * (l + 1) + i, ch * (l + 1) + i + 1)))
                .collect();
            let p = transitive_closure_program(&edges);
            let (c, l) = (c as usize, l as usize);
            for mode in [JoinMode::Auto, JoinMode::Binary] {
                let (db, stats) = eval_ids_mode(&p, Strategy::Seminaive, mode);
                assert_eq!(db.fact_count("path"), c * l * (l + 1) / 2);
                assert_eq!(stats.rounds, l + 1, "{c}×{l} {mode:?}");
                assert_eq!(
                    stats.derivations,
                    c * l + c * l * (l + 1) / 2,
                    "{c}×{l} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn merge_emits_equal_key_delta_rows_in_delta_row_order() {
        // Δt holds three (X, Y) keys, 40 rows each, interleaved and with
        // scrambled W. The second rule's merge plan (key columns X, Y)
        // must emit u's rows in key order, equal keys in Δt's row order.
        let mut p = Program::new();
        for i in 0..120i64 {
            let k = i % 3;
            p.fact(Atom::new("s", vec![cst(k), cst(10 + k), cst(i * 37 % 120)]));
        }
        for k in 0..3 {
            p.fact(Atom::new("hop", vec![cst(k), cst(10 + k), cst(500 + k)]));
        }
        p.rule(
            Atom::new("t", vec![var("X"), var("Y"), var("W")]),
            vec![Atom::new("s", vec![var("X"), var("Y"), var("W")])],
        );
        p.rule(
            Atom::new("u", vec![var("W"), var("Z")]),
            vec![
                Atom::new("t", vec![var("X"), var("Y"), var("W")]),
                Atom::new("hop", vec![var("X"), var("Y"), var("Z")]),
            ],
        );
        let (db, _) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
        let rel = |name: &str| &db.rels[db.names.iter().position(|n| n == name).unwrap()];
        let (t, hop) = (rel("t"), rel("hop"));
        let mut delta: Vec<&[u32]> = t.data.chunks_exact(3).collect();
        delta.sort_by_key(|row| (row[0], row[1]));
        let want: Vec<u32> = delta
            .iter()
            .flat_map(|row| {
                let h = hop.data.chunks_exact(3).find(|h| h[..2] == row[..2]);
                [row[2], h.unwrap()[2]]
            })
            .collect();
        assert_eq!(rel("u").data, want);
    }

    /// The root directory of a two-column trie over `edges`.
    fn root_of(edges: &[(u32, u32)]) -> Trie {
        let spec = crate::store::TrieSpec {
            cols: vec![0, 1],
            consts: vec![],
            eqs: vec![],
        };
        let flat: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        Trie::build(spec, &flat, 2, edges.len())
    }

    #[test]
    fn chunk_bounds_cover_the_root_directory_once_in_order() {
        // 300 keys of 2 rows each, with a hub of 400 rows at key 0 and
        // another of 200 in the middle.
        let mut hubs: Vec<(u32, u32)> = (0..400).map(|i| (0, i)).collect();
        hubs.extend((1..300).flat_map(|k| [(k, 0), (k, 1)]));
        hubs.extend((2..200).map(|i| (150, i)));
        let hubs = root_of(&hubs);
        let even = root_of(&(0..100).map(|k| (k, k)).collect::<Vec<_>>());
        let single = root_of(&[(7, 1), (7, 2), (7, 3)]);
        let few = root_of(&[
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 1),
            (3, 1),
            (3, 2),
            (3, 3),
            (3, 4),
        ]);
        for (t, n) in [
            (&hubs, 16),
            (&even, 16),
            (&even, 1),
            (&single, 16),
            (&few, 16),
        ] {
            let (starts, keys) = (t.dir0_start(), t.dir0().len());
            let bounds = chunk_bounds(starts, n);
            assert!(!bounds.is_empty() && bounds.len() <= n.min(keys));
            assert_eq!(bounds[0].start, 0);
            assert_eq!(bounds[bounds.len() - 1].end, keys);
            assert!(bounds.iter().all(|b| b.start < b.end));
            assert!(bounds.windows(2).all(|w| w[0].end == w[1].start));
            // Before its last key, a chunk holds at most its share of
            // the rows; the last key may be a hub of any size.
            let before_last = |b: &Range<usize>| (starts[b.end - 1] - starts[b.start]) as usize;
            assert!(bounds.iter().all(|b| before_last(b) <= t.len().div_ceil(n)));
        }
        // A hub ends its chunk, and the light keys after it spread over
        // the other chunks.
        let bounds = chunk_bounds(hubs.dir0_start(), 16);
        assert_eq!(bounds[0], 0..1);
        assert!(bounds.iter().any(|b| b.end == 151));
        assert!(bounds.len() >= 8);
        assert_eq!(chunk_bounds(even.dir0_start(), 16).len(), 16);
        assert_eq!(chunk_bounds(even.dir0_start(), 1), vec![0..100]);
        assert_eq!(chunk_bounds(single.dir0_start(), 16), vec![0..1]);
        assert_eq!(chunk_bounds(few.dir0_start(), 16), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn a_delta_plan_splits_on_its_delta_not_its_wide_base() {
        // sg's delta plan `par(P,X), sg(P,Q)Δ, par(Q,Y)` has `P` at level
        // 0, shared by the base `par` (listed first) and the delta.
        let p = same_generation_program(&[(0, 1)]);
        let cp = compile(&p, JoinMode::Auto).unwrap();
        let plan = cp.rules.iter().flat_map(|r| &r.delta_plans);
        let Some(Plan::Wcoj(plan)) = plan.last() else {
            panic!("sg's recursive rule runs a leapfrog delta plan")
        };
        assert!(!plan.atoms[plan.at_level[0][0]].is_delta);
        assert!(plan.at_level[0].iter().any(|&a| plan.atoms[a].is_delta));
        let wide = root_of(&(0..2000).map(|k| (k, k)).collect::<Vec<_>>());
        let narrow = root_of(&[(5, 1), (9, 2), (9, 3)]);
        let split = Split {
            workers: 2,
            min_root_keys: SPLIT_MIN_ROOT_KEYS,
        };
        let tries: Vec<&Trie> = (plan.atoms.iter())
            .map(|a| if a.is_delta { &narrow } else { &wide })
            .collect();
        let (lead, bounds, workers) = root_chunks(plan, &tries, split);
        assert!(std::ptr::eq(lead, &narrow));
        assert_eq!((bounds.len(), workers), (1, 1));
        // A delta as wide as the base splits, 8 chunks per worker.
        let tries = vec![&wide; plan.atoms.len()];
        let (_, bounds, workers) = root_chunks(plan, &tries, split);
        assert_eq!((bounds.len(), workers), (16, 2));
    }

    #[test]
    fn reaches_matches_paper_example() {
        let p = reaches_program(&[(0, 1), (1, 2), (2, 0), (2, 3)], 0);
        let (db, _) = eval(&p, Strategy::Seminaive);
        let reached: Vec<i64> = db["reaches"]
            .iter()
            .map(|t| match &t[0] {
                Const::Int(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(reached, vec![0, 1, 2, 3]);
    }

    #[test]
    fn constants_in_rule_bodies_filter() {
        let mut p = Program::new();
        p.fact(Atom::new("edge", vec![cst(0), cst(1)]));
        p.fact(Atom::new("edge", vec![cst(5), cst(6)]));
        p.rule(
            Atom::new("from_zero", vec![var("Y")]),
            vec![Atom::new("edge", vec![cst(0), var("Y")])],
        );
        let (db, _) = eval(&p, Strategy::Seminaive);
        assert_eq!(rows(&db, "from_zero"), vec![&vec![Const::Int(1)]]);
    }

    #[test]
    fn join_variables_must_agree() {
        let mut p = Program::new();
        p.fact(Atom::new("e", vec![cst(1), cst(2)]));
        p.fact(Atom::new("e", vec![cst(2), cst(3)]));
        // self_loop(X) :- e(X, X).
        p.rule(
            Atom::new("self_loop", vec![var("X")]),
            vec![Atom::new("e", vec![var("X"), var("X")])],
        );
        let (db, _) = eval(&p, Strategy::Naive);
        assert!(rows(&db, "self_loop").is_empty());
    }

    #[test]
    fn string_constants_work() {
        let mut p = Program::new();
        p.fact(Atom::new("parent", vec![cst("homer"), cst("bart")]));
        p.fact(Atom::new("parent", vec![cst("abe"), cst("homer")]));
        p.rule(
            Atom::new("ancestor", vec![var("X"), var("Y")]),
            vec![Atom::new("parent", vec![var("X"), var("Y")])],
        );
        p.rule(
            Atom::new("ancestor", vec![var("X"), var("Z")]),
            vec![
                Atom::new("ancestor", vec![var("X"), var("Y")]),
                Atom::new("parent", vec![var("Y"), var("Z")]),
            ],
        );
        let (db, _) = eval(&p, Strategy::Seminaive);
        assert!(db["ancestor"].contains(&vec![Const::from("abe"), Const::from("bart")]));
    }

    #[test]
    fn mixed_arity_predicates_coexist() {
        // One name at two arities: relations are keyed by (name, arity)
        // internally and merged by name at the boundary.
        let mut p = Program::new();
        p.fact(Atom::new("p", vec![cst(1)]));
        p.fact(Atom::new("p", vec![cst(1), cst(2)]));
        p.rule(
            Atom::new("q", vec![var("X")]),
            vec![Atom::new("p", vec![var("X"), var("Y")])],
        );
        let (db, _) = eval(&p, Strategy::Seminaive);
        assert_eq!(db["p"].len(), 2);
        assert_eq!(rows(&db, "q"), vec![&vec![Const::Int(1)]]);
    }

    #[test]
    fn all_bound_atoms_act_as_filters() {
        // dup(X) :- e(X, Y), e(Y, X): two join variables shared by two
        // atoms — this body runs under the triejoin in Auto mode. Force
        // Binary to also exercise the membership-probe path and compare.
        let mut p = Program::new();
        p.fact(Atom::new("e", vec![cst(1), cst(2)]));
        p.fact(Atom::new("e", vec![cst(2), cst(1)]));
        p.fact(Atom::new("e", vec![cst(2), cst(3)]));
        p.rule(
            Atom::new("dup", vec![var("X")]),
            vec![
                Atom::new("e", vec![var("X"), var("Y")]),
                Atom::new("e", vec![var("Y"), var("X")]),
            ],
        );
        let (db, _) = eval(&p, Strategy::Seminaive);
        let got = rows(&db, "dup");
        assert_eq!(got, vec![&vec![Const::Int(1)], &vec![Const::Int(2)]]);
        let (naive, _) = eval(&p, Strategy::Naive);
        assert_eq!(naive["dup"], db["dup"]);
        let (binary, _) = eval_mode(&p, Strategy::Seminaive, JoinMode::Binary);
        assert_eq!(binary["dup"], db["dup"]);
    }

    #[test]
    fn id_database_queries_match_tree_database() {
        let p = transitive_closure_program(&[(0, 1), (1, 2), (2, 0)]);
        let (idb, _) = eval_ids(&p, Strategy::Seminaive);
        let db = idb.to_database();
        assert_eq!(idb.fact_count("path"), db["path"].len());
        assert_eq!(idb.total_facts(), db.values().map(BTreeSet::len).sum());
        assert!(idb.contains("path", &[Const::Int(0), Const::Int(0)]));
        assert!(!idb.contains("path", &[Const::Int(0), Const::Int(7)]));
        assert!(!idb.contains("nope", &[Const::Int(0)]));
        let sorted: Vec<Vec<Const>> = db["path"].iter().cloned().collect();
        assert_eq!(idb.rows("path"), sorted);
    }

    #[test]
    fn rows_order_is_deterministic_across_strategies() {
        // `rows` (and `IdDatabase::rows`) must not leak derivation order:
        // naive and seminaive runs derive facts in different
        // orders but must report identical, sorted tuples.
        let edges = vec![(2, 0), (0, 1), (1, 2), (2, 3), (3, 1), (0, 3)];
        let p = transitive_closure_program(&edges);
        let (naive, _) = eval(&p, Strategy::Naive);
        let (semi, _) = eval(&p, Strategy::Seminaive);
        let want: Vec<&Vec<Const>> = rows(&naive, "path");
        assert!(want.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
        assert_eq!(rows(&semi, "path"), want);
        let (idb_n, _) = eval_ids(&p, Strategy::Naive);
        let (idb_s, _) = eval_ids(&p, Strategy::Seminaive);
        assert_eq!(idb_n.rows("path"), idb_s.rows("path"));
    }

    fn brute_triangles(edges: &[(i64, i64)]) -> usize {
        let set: std::collections::BTreeSet<(i64, i64)> = edges.iter().copied().collect();
        let mut n = 0;
        for &(x, y) in &set {
            for &(y2, z) in &set {
                if y2 == y && set.contains(&(x, z)) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn triangle_wcoj_matches_binary_and_bruteforce() {
        let edges = vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (0, 3),
            (1, 3),
            (3, 4),
            (2, 4),
            (4, 0),
        ];
        let p = triangle_program(&edges);
        let (auto_db, auto_stats) = eval_ids(&p, Strategy::Seminaive);
        let (bin_db, bin_stats) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
        assert_eq!(auto_db.fact_count("triangle"), brute_triangles(&edges));
        assert_eq!(auto_db.rows("triangle"), bin_db.rows("triangle"));
        // The two plan kinds enumerate the same satisfying assignments,
        // so rounds AND derivation counts agree exactly.
        assert_eq!(auto_stats, bin_stats);
        let (naive_db, _) = eval_ids(&p, Strategy::Naive);
        assert_eq!(naive_db.rows("triangle"), auto_db.rows("triangle"));
    }

    #[test]
    fn each_triangle_is_derived_once() {
        // `e` is facts-only, so the triangle rule has no delta plan: the
        // stratum's single naive join enumerates each triangle once, and
        // the only other derivations are the fact rows themselves.
        let edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3), (3, 0)];
        let p = triangle_program(&edges);
        for mode in [JoinMode::Auto, JoinMode::Binary] {
            let (db, stats) = eval_ids_mode(&p, Strategy::Seminaive, mode);
            let triangles = db.fact_count("triangle");
            assert_eq!(triangles, brute_triangles(&edges));
            assert!(triangles > 0);
            assert_eq!(stats.derivations, edges.len() + triangles, "{mode:?}");
        }
    }

    #[test]
    fn same_generation_rebuilds_tries_across_rounds() {
        // The recursive sg rule derives new sg facts every round, so its
        // delta plans must see *incrementally refreshed* database tries
        // round after round — this pins the invalidation contract
        // end-to-end. Complete binary tree of depth 3.
        let mut par = Vec::new();
        for i in 0i64..7 {
            par.push((i, 2 * i + 1));
            par.push((i, 2 * i + 2));
        }
        let p = same_generation_program(&par);
        let (auto_db, auto_stats) = eval_ids(&p, Strategy::Seminaive);
        let (bin_db, bin_stats) = eval_ids_mode(&p, Strategy::Seminaive, JoinMode::Binary);
        assert_eq!(auto_db.rows("sg"), bin_db.rows("sg"));
        assert_eq!(auto_stats, bin_stats);
        // In a complete binary tree every same-depth pair is sg:
        // 2² + 4² + 8² = 84.
        assert_eq!(auto_db.fact_count("sg"), 84);
    }

    #[test]
    fn stratified_negation_unreached() {
        use crate::ast::{cst, var};
        let mut p = Program::new();
        for n in 0..5 {
            p.fact(Atom::new("node", vec![cst(n)]));
        }
        for (s, t) in [(0, 1), (1, 2)] {
            p.fact(Atom::new("edge", vec![cst(s), cst(t)]));
        }
        p.fact(Atom::new("reach", vec![cst(0)]));
        p.rule(
            Atom::new("reach", vec![var("Y")]),
            vec![
                Atom::new("reach", vec![var("X")]),
                Atom::new("edge", vec![var("X"), var("Y")]),
            ],
        );
        p.rule_neg(
            Atom::new("unreached", vec![var("X")]),
            vec![Atom::new("node", vec![var("X")])],
            vec![Atom::new("reach", vec![var("X")])],
        );
        let (semi, _) = eval(&p, Strategy::Seminaive);
        let got: Vec<i64> = semi["unreached"]
            .iter()
            .map(|t| match &t[0] {
                Const::Int(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![3, 4]);
        let (naive, _) = eval(&p, Strategy::Naive);
        assert_eq!(naive["unreached"], semi["unreached"]);
    }

    #[test]
    #[should_panic(expected = "not stratifiable")]
    fn non_stratifiable_program_panics_with_cycle() {
        let mut p = Program::new();
        p.fact(Atom::new("n", vec![cst(0)]));
        p.rule_neg(
            Atom::new("p", vec![var("X")]),
            vec![Atom::new("n", vec![var("X")])],
            vec![Atom::new("p", vec![var("X")])],
        );
        eval(&p, Strategy::Seminaive);
    }
}
