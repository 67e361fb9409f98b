//! Rule compilation and join planning over the interned substrate.
//!
//! Compilation adopts the program's fact store as it is — its constant
//! table and its `(predicate, arity)` blocks, already interned by the
//! parser or the builder, become the compiled constant table and
//! relations `0..` — and interns only what rules add: their few new
//! constants and relations. It resolves each rule's variables to dense
//! binding slots, checks stratification (negated premises must be fully
//! derived by a lower stratum), and produces one **join plan** per
//! evaluation mode: a naive
//! plan (all atoms against the full database) plus one seminaive plan per
//! **same-stratum body position** — an atom whose relation is the head of
//! some rule in the rule's own stratum. That atom reads the round's delta,
//! the rest read the database. Every other relation (facts-only EDB
//! relations, relations of lower strata) is complete before the stratum's
//! first round — the evaluator loads a stratum's facts before its naive
//! round — so its delta is always empty and it gets no plan, and no trie
//! that only such a plan would probe.
//!
//! Two plan kinds exist, chosen per rule by [`JoinMode::Auto`]:
//!
//! * **Binary nested-loop** ([`Plan::Binary`]) for acyclic bodies.
//!   Planning is bound-variable propagation: starting from the delta atom
//!   (seminaive) or an empty binding set (naive), the remaining atoms are
//!   ordered greedily — most bound argument positions first, smallest
//!   relation-arity and original position as deterministic tie-breaks — so
//!   each atom is evaluated with the largest possible bound prefix. Each
//!   planned database atom then gets an access path chosen statically:
//!   all columns bound → membership probe ([`Access::Contains`]); some
//!   bound → a lookup in a sorted trie ([`Access::Trie`]) whose levels
//!   are the bound variables, then the variables the atom binds; none bound
//!   → a full scan ([`Access::Scan`]). The trie is the only secondary
//!   index, whether the relation is complete before the rule's stratum
//!   (EDB or a lower stratum) or grows while it runs: the evaluator
//!   refreshes a trie before each round whose plans read it, merging in
//!   only the rows derived since. A seminaive plan whose delta atom feeds
//!   a single keyed probe — the linear-recursive shape, `path(X,Z) :-
//!   Δpath(X,Y), edge(Y,Z)`, or the non-linear `path(X,Z) :- Δpath(X,Y),
//!   path(Y,Z)` — is additionally marked with the delta columns that form
//!   the probe key, so the evaluator can run it merge-style: sort the
//!   delta by key and walk the trie forward, one seek per distinct key
//!   run instead of one lookup per delta tuple.
//!
//! * **Leapfrog triejoin** ([`Plan::Wcoj`]) for cyclic bodies — those
//!   where at least two join variables are each shared by at least two
//!   atoms (triangles, same-generation). The planner picks one global
//!   **variable elimination order** per rule (join variables first, by
//!   occurrence count descending), derives a [`TrieSpec`] per body atom
//!   whose levels are the atom's distinct variables in that order, and
//!   registers the sorted-column trie with the template relation. The
//!   executor then intersects the tries level by level with the classic
//!   leapfrog search (seek/next), which is worst-case optimal in the AGM
//!   sense — it never enumerates a partial binding that no atom can
//!   extend. Delta plans share the same order and specs, so database
//!   tries are registered once and reused by every mode; the delta
//!   atom's trie is built per round from the flat delta rows.
//!
//! Both plan kinds derive their tries' specs through one function: a
//! binary probe ranks the atom's variables key-first, a leapfrog atom by
//! the elimination order; constants and repeated variables become the
//! spec's filters either way.
//!
//! Negated premises compile to [`NegCheck`] membership probes, scheduled
//! at the earliest plan point where all their variables are bound
//! (binary: after an atom; leapfrog: after a level). Stratification
//! guarantees the probed relation is complete when any check runs.

use std::collections::HashMap;

use crate::ast::{AtomTerm, Const, Program};
use crate::facts::{ConstIndex, FactBlock};
use crate::store::{Derived, Relation, TrieSpec};
use crate::strata::{stratify, StratificationError};

/// How rule bodies are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinMode {
    /// Cyclic bodies (≥ 2 join variables each shared by ≥ 2 atoms) run
    /// the worst-case-optimal leapfrog triejoin; every other body uses
    /// the planned binary nested-loop path.
    #[default]
    Auto,
    /// Force the binary nested-loop path for every rule — the pre-WCOJ
    /// engine, kept for differential testing and benchmarking.
    Binary,
}

/// One argument position of a compiled atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgOp {
    /// The column must equal this interned constant.
    CheckConst(u32),
    /// The column must equal the value already bound in this slot.
    CheckVar(usize),
    /// First occurrence of a variable: bind the slot to the column value.
    Bind(usize),
}

/// How a planned database atom reaches its matching tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Access {
    /// Every column bound: one membership probe, no enumeration.
    Contains,
    /// Look the bound values up in the relation's sorted trie
    /// `trie_slot`. The trie's levels are the `key` slots, then the
    /// `binds` slots; constants and repeated variables are filtered into
    /// its spec, so every row of the matching range is a match that binds
    /// `binds` from its remaining levels.
    Trie {
        trie_slot: usize,
        key: Vec<usize>,
        binds: Vec<usize>,
    },
    /// No column bound: enumerate the whole relation.
    Scan,
}

/// A body atom in plan order.
#[derive(Debug, Clone)]
pub(crate) struct PlannedAtom {
    /// The relation this atom reads (delta or database, per `is_delta`).
    pub(crate) rel: u32,
    /// Reads the round's delta instead of the database.
    pub(crate) is_delta: bool,
    /// Per-column match/bind operations.
    pub(crate) ops: Vec<ArgOp>,
    /// Access path (meaningful for database atoms only).
    pub(crate) access: Access,
}

/// A compiled negated premise: a membership probe against a relation that
/// stratification guarantees is complete by the time the check runs. The
/// rule instantiation survives only if the probed tuple is **absent**.
#[derive(Debug, Clone)]
pub(crate) struct NegCheck {
    pub(crate) rel: u32,
    /// `CheckConst` / `CheckVar` only — negation safety guarantees every
    /// variable of a negated atom is bound by the positive body.
    pub(crate) ops: Vec<ArgOp>,
}

/// One body atom of a leapfrog plan: where its trie lives and how it is
/// built.
#[derive(Debug, Clone)]
pub(crate) struct WcojAtom {
    pub(crate) rel: u32,
    /// Reads the round's delta instead of the database.
    pub(crate) is_delta: bool,
    /// Index into the relation's registered tries (database atoms only;
    /// `usize::MAX` for delta atoms, whose tries are built per round).
    pub(crate) trie_slot: usize,
    /// The projection/filter shape of this atom's trie. Shared between
    /// the naive plan and every delta plan of the rule, so database tries
    /// deduplicate across modes.
    pub(crate) spec: TrieSpec,
}

/// A leapfrog-triejoin plan: one global variable order, one trie per
/// atom, unified level by level.
#[derive(Debug, Clone)]
pub(crate) struct WcojPlan {
    /// Binding slot for each level, in elimination order.
    pub(crate) levels: Vec<usize>,
    pub(crate) atoms: Vec<WcojAtom>,
    /// `at_level[l]` = indexes into `atoms` of the atoms whose tries
    /// carry level `l` (every level has at least one).
    pub(crate) at_level: Vec<Vec<usize>>,
    /// `neg_at[0]` runs before the search (ground checks); `neg_at[l+1]`
    /// runs as soon as level `l` is bound.
    pub(crate) neg_at: Vec<Vec<NegCheck>>,
}

/// A fully ordered join for one rule in one evaluation mode.
#[derive(Debug, Clone)]
pub(crate) enum Plan {
    /// Nested-loop join over trie/membership access paths.
    Binary {
        /// Body atoms in join order.
        atoms: Vec<PlannedAtom>,
        /// `Some(delta_cols)` when the plan is the merge shape — a delta
        /// atom followed by a trie probe keyed entirely by delta-bound
        /// variables. `delta_cols[i]` is the delta column whose value
        /// feeds key slot `i` of the [`Access::Trie`]. The evaluator then
        /// sorts the delta by these columns and walks the trie forward,
        /// one seek per distinct key run. Only computed for negation-free
        /// rules.
        merge_key: Option<Vec<usize>>,
        /// `neg_after[d]` runs once the first `d` atoms have matched
        /// (`neg_after[0]` = ground checks, before any atom).
        neg_after: Vec<Vec<NegCheck>>,
    },
    /// Worst-case-optimal leapfrog triejoin.
    Wcoj(WcojPlan),
}

impl Plan {
    /// The database tries this plan reads, as `(relation, trie slot)` —
    /// the ones the evaluator refreshes before a round that runs it.
    pub(crate) fn tries(&self) -> Vec<(u32, usize)> {
        match self {
            Plan::Binary { atoms, .. } => atoms
                .iter()
                .filter_map(|a| match a.access {
                    Access::Trie { trie_slot, .. } if !a.is_delta => Some((a.rel, trie_slot)),
                    _ => None,
                })
                .collect(),
            Plan::Wcoj(wp) => wp
                .atoms
                .iter()
                .filter(|a| !a.is_delta)
                .map(|a| (a.rel, a.trie_slot))
                .collect(),
        }
    }

    /// The relation id whose delta this plan reads, if any.
    pub(crate) fn delta_rel(&self) -> Option<u32> {
        match self {
            Plan::Binary { atoms, .. } => atoms.iter().find(|a| a.is_delta).map(|a| a.rel),
            Plan::Wcoj(wp) => wp.atoms.iter().find(|a| a.is_delta).map(|a| a.rel),
        }
    }
}

/// A compiled rule: interned head plus its per-mode join plans.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    pub(crate) head_rel: u32,
    /// Head columns: `CheckConst` emits the constant, `CheckVar` emits the
    /// bound slot (range restriction guarantees it is bound; `Bind` cannot
    /// appear in heads).
    pub(crate) head: Vec<ArgOp>,
    /// Number of variable slots the binding frame needs.
    pub(crate) nvars: usize,
    /// Plan joining every atom against the full database.
    pub(crate) naive: Plan,
    /// One plan per same-stratum body position, in body order, each
    /// reading the delta at that position. Empty for rules whose body
    /// reads only relations complete before the stratum starts.
    pub(crate) delta_plans: Vec<Plan>,
}

/// The whole program lowered onto ids, plus the symbol tables to decode
/// results at the boundary. Borrows the program's fact blocks.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgram<'p> {
    pub(crate) rules: Vec<CompiledRule>,
    /// Relation id → predicate name (one relation per name *and* arity).
    pub(crate) rel_names: Vec<String>,
    /// Id → constant.
    pub(crate) consts: Vec<Const>,
    /// Constant → id, over `consts`.
    pub(crate) const_ids: ConstIndex,
    /// Pre-registered relations (tries already attached), cloned into
    /// the evaluator's database.
    pub(crate) template: Vec<Relation>,
    /// Rule indexes grouped by stratum, lowest first. Evaluation runs one
    /// complete fixpoint per group; negation-free programs have exactly
    /// one group holding every rule.
    pub(crate) strata: Vec<Vec<usize>>,
    /// The program's fact blocks, read in place: block `i` holds the
    /// facts of relation `i` (fact relations are numbered first), already
    /// interned against the constant table above.
    pub(crate) fact_blocks: &'p [FactBlock],
    /// Per stratum, the relations whose fact blocks load at its start.
    pub(crate) facts: Vec<Vec<u32>>,
}

impl CompiledProgram<'_> {
    /// Fresh, empty relations with every planned trie registered.
    pub(crate) fn fresh_store(&self) -> Vec<Relation> {
        self.template.clone()
    }

    /// Fresh, empty per-relation derivation buffers.
    pub(crate) fn fresh_derived(&self) -> Vec<Derived> {
        vec![Derived::default(); self.template.len()]
    }
}

/// Greedy bound-propagation ordering: repeatedly pick the unplaced atom
/// with the most bound argument positions (constants always count; a
/// variable counts once any placed atom binds it), breaking ties toward
/// fewer total arguments, then original position.
fn order_atoms(raw: &[(u32, Vec<ArgOp>)], first: Option<usize>, nvars: usize) -> Vec<usize> {
    let mut bound = vec![false; nvars];
    let mut order = Vec::with_capacity(raw.len());
    let mut placed = vec![false; raw.len()];
    let place = |i: usize, bound: &mut Vec<bool>, placed: &mut Vec<bool>| {
        placed[i] = true;
        for op in &raw[i].1 {
            if let ArgOp::Bind(s) | ArgOp::CheckVar(s) = op {
                bound[*s] = true;
            }
        }
    };
    if let Some(i) = first {
        order.push(i);
        place(i, &mut bound, &mut placed);
    }
    while order.len() < raw.len() {
        let best = (0..raw.len())
            .filter(|&i| !placed[i])
            .max_by_key(|&i| {
                let bound_args = raw[i]
                    .1
                    .iter()
                    .filter(|op| match op {
                        ArgOp::CheckConst(_) => true,
                        ArgOp::Bind(s) | ArgOp::CheckVar(s) => bound[*s],
                    })
                    .count();
                // max_by_key keeps the *last* max; invert the index so
                // ties resolve to the earliest original position.
                (bound_args, usize::MAX - raw[i].1.len(), usize::MAX - i)
            })
            .expect("unplaced atom exists");
        order.push(best);
        place(best, &mut bound, &mut placed);
    }
    order
}

/// Schedules each negated premise at the smallest plan prefix that binds
/// all of its variables. `binds[d]` lists the slots newly bound by plan
/// step `d`; the returned vector has `binds.len() + 1` buckets, bucket 0
/// holding the ground checks.
fn schedule_negs(
    neg: &[(u32, Vec<ArgOp>)],
    binds: &[Vec<usize>],
    nvars: usize,
) -> Vec<Vec<NegCheck>> {
    let mut neg_after: Vec<Vec<NegCheck>> = vec![vec![]; binds.len() + 1];
    for (rel, ops) in neg {
        debug_assert!(
            ops.iter().all(|op| !matches!(op, ArgOp::Bind(_))),
            "negation safety: negated atoms never bind"
        );
        let mut bound = vec![false; nvars];
        let needs: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                ArgOp::CheckVar(s) => Some(*s),
                _ => None,
            })
            .collect();
        let mut d = 0;
        while !needs.iter().all(|&s| bound[s]) {
            for &s in &binds[d] {
                bound[s] = true;
            }
            d += 1;
        }
        neg_after[d].push(NegCheck {
            rel: *rel,
            ops: ops.clone(),
        });
    }
    neg_after
}

/// The [`TrieSpec`] of one body atom, and the binding slot of each of
/// its levels. The levels are the atom's distinct variables ordered by
/// `rank(slot)`, then by column; constants and within-atom repeats become
/// the spec's filters. Every trie the planner registers is derived here:
/// a binary probe ranks its key variables before the ones it binds, a
/// leapfrog atom ranks by the rule's elimination order.
fn trie_spec(ops: &[ArgOp], rank: impl Fn(usize) -> usize) -> (TrieSpec, Vec<usize>) {
    let (mut consts, mut eqs) = (Vec::new(), Vec::new());
    // (rank, column, slot) for the first occurrence of each variable.
    let mut vars: Vec<(usize, usize, usize)> = Vec::new();
    for (col, op) in ops.iter().enumerate() {
        match *op {
            ArgOp::CheckConst(c) => consts.push((col, c)),
            ArgOp::Bind(s) | ArgOp::CheckVar(s) => {
                if let Some(&(_, c0, _)) = vars.iter().find(|v| v.2 == s) {
                    eqs.push((c0, col));
                } else {
                    vars.push((rank(s), col, s));
                }
            }
        }
    }
    vars.sort_unstable();
    let spec = TrieSpec {
        cols: vars.iter().map(|v| v.1).collect(),
        consts,
        eqs,
    };
    (spec, vars.into_iter().map(|v| v.2).collect())
}

/// The [`Access::Trie`] path for a database atom with ops `ops`, of which
/// the slots in `newly` are bound by the atom itself: a trie whose levels
/// are the already-bound variables (the lookup key), then the newly
/// bound ones.
fn trie_access(ops: &[ArgOp], newly: &[usize], rel: &mut Relation) -> Access {
    let (spec, slots) = trie_spec(ops, |s| usize::from(newly.contains(&s)));
    let (key, binds) = slots.into_iter().partition(|s| !newly.contains(s));
    Access::Trie {
        trie_slot: rel.register_trie(spec),
        key,
        binds,
    }
}

/// Lowers the ordered atoms to a binary [`Plan`], rewriting each atom's
/// ops against the bound-slot state at its position and choosing its
/// access path. Registers any needed trie on the template relation.
fn build_plan(
    raw: &[(u32, Vec<ArgOp>)],
    neg: &[(u32, Vec<ArgOp>)],
    order: &[usize],
    delta_at: Option<usize>,
    nvars: usize,
    template: &mut [Relation],
) -> Plan {
    let mut bound = vec![false; nvars];
    let mut atoms = Vec::with_capacity(order.len());
    let mut binds: Vec<Vec<usize>> = Vec::with_capacity(order.len());
    for &i in order {
        let (rel, shape) = &raw[i];
        let is_delta = delta_at == Some(i);
        // Re-derive ops relative to the current bound set: an op compiled
        // as Bind in the original left-to-right pass may already be bound
        // here (or vice versa). Duplicate occurrences *within* this atom
        // stay CheckVar after the first Bind.
        let mut ops = Vec::with_capacity(shape.len());
        let mut newly = Vec::new();
        for op in shape {
            ops.push(match *op {
                ArgOp::CheckConst(c) => ArgOp::CheckConst(c),
                ArgOp::Bind(s) | ArgOp::CheckVar(s) => {
                    if bound[s] {
                        ArgOp::CheckVar(s)
                    } else {
                        bound[s] = true;
                        newly.push(s);
                        ArgOp::Bind(s)
                    }
                }
            });
        }
        // Probe-key columns: known *before* this atom runs. A CheckVar on
        // a slot this atom itself binds (a within-atom duplicate, e.g.
        // `e(X, X)` with X fresh) has no value at probe time; the trie's
        // spec filters it instead.
        let keyed = ops
            .iter()
            .filter(|op| match op {
                ArgOp::CheckConst(_) => true,
                ArgOp::CheckVar(s) => !newly.contains(s),
                ArgOp::Bind(_) => false,
            })
            .count();
        let access = if is_delta {
            Access::Scan // deltas are small and unindexed: always scanned
        } else if !ops.is_empty() && keyed == ops.len() {
            Access::Contains
        } else if keyed == 0 {
            Access::Scan
        } else {
            trie_access(&ops, &newly, &mut template[*rel as usize])
        };
        binds.push(newly);
        atoms.push(PlannedAtom {
            rel: *rel,
            is_delta,
            ops,
            access,
        });
    }
    let neg_after = schedule_negs(neg, &binds, nvars);
    // Merge-style eligibility: [delta, trie-probe, ...] where every key
    // slot of the probe is bound by the delta atom. The merge path skips
    // the per-depth negation hooks, so it is only taken for negation-free
    // rules.
    let merge_key = match atoms.as_slice() {
        [d, p, ..] if neg.is_empty() && d.is_delta => match &p.access {
            Access::Trie { key, .. } => key
                .iter()
                .map(|&slot| {
                    d.ops
                        .iter()
                        .position(|op| matches!(op, ArgOp::Bind(s) if *s == slot))
                })
                .collect(),
            Access::Contains | Access::Scan => None,
        },
        _ => None,
    };
    Plan::Binary {
        atoms,
        merge_key,
        neg_after,
    }
}

/// Builds a leapfrog plan for one rule mode: per-atom trie specs under the
/// rule's global elimination order (`levels`, slot per level;
/// `level_index`, slot → level). Database tries are registered on the
/// template relation, deduplicated by spec.
fn build_wcoj(
    raw: &[(u32, Vec<ArgOp>)],
    neg: &[(u32, Vec<ArgOp>)],
    delta_at: Option<usize>,
    levels: &[usize],
    level_index: &[usize],
    nvars: usize,
    template: &mut [Relation],
) -> Plan {
    let mut atoms = Vec::with_capacity(raw.len());
    let mut at_level: Vec<Vec<usize>> = vec![vec![]; levels.len()];
    for (ai, (rel, shape)) in raw.iter().enumerate() {
        let (spec, slots) = trie_spec(shape, |s| level_index[s]);
        for s in slots {
            at_level[level_index[s]].push(ai);
        }
        let is_delta = delta_at == Some(ai);
        let trie_slot = if is_delta {
            usize::MAX
        } else {
            template[*rel as usize].register_trie(spec.clone())
        };
        atoms.push(WcojAtom {
            rel: *rel,
            is_delta,
            trie_slot,
            spec,
        });
    }
    debug_assert!(at_level.iter().all(|v| !v.is_empty()), "uncovered level");
    // Negation scheduling: level l binds exactly slot levels[l].
    let binds: Vec<Vec<usize>> = levels.iter().map(|&s| vec![s]).collect();
    let neg_at = schedule_negs(neg, &binds, nvars);
    Plan::Wcoj(WcojPlan {
        levels: levels.to_vec(),
        atoms,
        at_level,
        neg_at,
    })
}

/// Compiles a whole program: stratification, interning, slot assignment,
/// planning, and trie registration. The program's fact store is
/// adopted as it is: its constant table and index start the compiled
/// ones (rule constants look themselves up in the same index, and only
/// the few it lacks are appended), and its blocks become relations `0..`
/// and are read in place by the evaluator.
///
/// # Errors
///
/// Returns the [`StratificationError`] for programs whose negation sits
/// inside a recursive cycle.
pub(crate) fn compile<'p>(
    program: &'p Program,
    mode: JoinMode,
) -> Result<CompiledProgram<'p>, StratificationError> {
    let strata_assignment = stratify(program)?;
    let store = &program.facts;
    // Rule constants the fact store has not seen are appended to copies
    // of its table and index; the evaluated database keeps both.
    let mut consts: Vec<Const> = store.consts.clone();
    let mut const_ids = store.const_ids.clone();
    let mut const_id = |c: &Const, consts: &mut Vec<Const>| const_ids.intern(consts, c.into());
    // Keyed on names borrowed from the program: a name is cloned only for
    // a new relation. The fact blocks' relations come first, so relation
    // `i < blocks.len()` is block `i`.
    let mut rel_ids: HashMap<(&'p str, usize), u32> = HashMap::new();
    let mut rel_names: Vec<String> = Vec::new();
    let mut arities: Vec<usize> = Vec::new();
    let mut facts: Vec<Vec<u32>> = vec![Vec::new(); strata_assignment.count];
    for (i, b) in store.blocks.iter().enumerate() {
        let rel = u32::try_from(i).expect("relation table overflow");
        rel_ids.insert((&b.pred, b.arity), rel);
        rel_names.push(b.pred.clone());
        arities.push(b.arity);
        facts[strata_assignment.stratum_of[&(b.pred.clone(), b.arity)]].push(rel);
    }

    let mut rel_of =
        |pred: &'p str, arity: usize, rel_names: &mut Vec<String>, arities: &mut Vec<usize>| {
            *rel_ids.entry((pred, arity)).or_insert_with(|| {
                rel_names.push(pred.to_string());
                arities.push(arity);
                u32::try_from(rel_names.len() - 1).expect("relation table overflow")
            })
        };

    // Lower every rule atom first, so relation ids exist before planning.
    struct RawRule {
        head_rel: u32,
        head: Vec<ArgOp>,
        body: Vec<(u32, Vec<ArgOp>)>,
        neg: Vec<(u32, Vec<ArgOp>)>,
        nvars: usize,
    }
    let mut raw_rules = Vec::with_capacity(program.rules.len());
    for rule in &program.rules {
        let mut slots: HashMap<String, usize> = HashMap::new();
        let mut lower_atom = |atom: &'p crate::ast::Atom,
                              slots: &mut HashMap<String, usize>,
                              rel_names: &mut Vec<String>,
                              arities: &mut Vec<usize>|
         -> (u32, Vec<ArgOp>) {
            let rel = rel_of(&atom.pred, atom.args.len(), rel_names, arities);
            let ops = atom
                .args
                .iter()
                .map(|arg| match arg {
                    AtomTerm::Const(c) => ArgOp::CheckConst(const_id(c, &mut consts)),
                    AtomTerm::Var(v) => {
                        let next = slots.len();
                        let slot = *slots.entry(v.clone()).or_insert(next);
                        if slot == next {
                            ArgOp::Bind(slot)
                        } else {
                            ArgOp::CheckVar(slot)
                        }
                    }
                })
                .collect();
            (rel, ops)
        };
        let body: Vec<(u32, Vec<ArgOp>)> = rule
            .body
            .iter()
            .map(|a| lower_atom(a, &mut slots, &mut rel_names, &mut arities))
            .collect();
        // Negated atoms and heads are lowered after the body, so safety
        // and range restriction make every variable a CheckVar against a
        // body-bound slot.
        let neg: Vec<(u32, Vec<ArgOp>)> = rule
            .neg
            .iter()
            .map(|a| {
                let (rel, ops) = lower_atom(a, &mut slots, &mut rel_names, &mut arities);
                let ops = ops
                    .into_iter()
                    .map(|op| match op {
                        ArgOp::Bind(_) => unreachable!("negation safety: vars bound by body"),
                        op => op,
                    })
                    .collect();
                (rel, ops)
            })
            .collect();
        let (head_rel, head) = lower_atom(&rule.head, &mut slots, &mut rel_names, &mut arities);
        let head = head
            .into_iter()
            .map(|op| match op {
                ArgOp::Bind(_) => unreachable!("range restriction: head vars occur in body"),
                op => op,
            })
            .collect();
        raw_rules.push(RawRule {
            head_rel,
            head,
            body,
            neg,
            nvars: slots.len(),
        });
    }

    // Which stratum's rules derive each relation (`None`: facts only).
    // A body atom gets a delta plan only when its relation is derived in
    // the rule's own stratum.
    let rule_strata: Vec<usize> = program
        .rules
        .iter()
        .map(|rule| strata_assignment.rule_stratum(rule))
        .collect();
    let mut derived_in: Vec<Option<usize>> = vec![None; rel_names.len()];
    for (r, &si) in raw_rules.iter().zip(&rule_strata) {
        derived_in[r.head_rel as usize] = Some(si);
    }

    // Then plan each rule's modes, registering tries on the template.
    let mut template: Vec<Relation> = arities.iter().map(|&a| Relation::new(a)).collect();
    let rules: Vec<CompiledRule> = raw_rules
        .into_iter()
        .zip(&rule_strata)
        .map(|(r, &si)| {
            let delta_at: Vec<usize> = (0..r.body.len())
                .filter(|&j| derived_in[r.body[j].0 as usize] == Some(si))
                .collect();
            // WCOJ trigger: at least two join variables, each occurring in
            // at least two distinct body atoms.
            let mut occ = vec![0usize; r.nvars];
            for (_, ops) in &r.body {
                let mut seen = vec![false; r.nvars];
                for op in ops {
                    if let ArgOp::Bind(s) | ArgOp::CheckVar(s) = op {
                        if !seen[*s] {
                            seen[*s] = true;
                            occ[*s] += 1;
                        }
                    }
                }
            }
            let join_vars = occ.iter().filter(|&&c| c >= 2).count();
            let use_wcoj = mode == JoinMode::Auto && r.body.len() >= 2 && join_vars >= 2;
            if use_wcoj {
                // One elimination order per rule, shared by every mode so
                // database tries deduplicate: join variables first
                // (occurrence count descending), slot index breaking ties.
                let mut levels: Vec<usize> = (0..r.nvars).filter(|&s| occ[s] > 0).collect();
                levels.sort_unstable_by_key(|&s| (usize::MAX - occ[s], s));
                let mut level_index = vec![usize::MAX; r.nvars];
                for (l, &s) in levels.iter().enumerate() {
                    level_index[s] = l;
                }
                let naive = build_wcoj(
                    &r.body,
                    &r.neg,
                    None,
                    &levels,
                    &level_index,
                    r.nvars,
                    &mut template,
                );
                let delta_plans = delta_at
                    .iter()
                    .map(|&j| {
                        build_wcoj(
                            &r.body,
                            &r.neg,
                            Some(j),
                            &levels,
                            &level_index,
                            r.nvars,
                            &mut template,
                        )
                    })
                    .collect();
                CompiledRule {
                    head_rel: r.head_rel,
                    head: r.head,
                    nvars: r.nvars,
                    naive,
                    delta_plans,
                }
            } else {
                let naive_order = order_atoms(&r.body, None, r.nvars);
                let naive = build_plan(&r.body, &r.neg, &naive_order, None, r.nvars, &mut template);
                let delta_plans = delta_at
                    .iter()
                    .map(|&j| {
                        let order = order_atoms(&r.body, Some(j), r.nvars);
                        build_plan(&r.body, &r.neg, &order, Some(j), r.nvars, &mut template)
                    })
                    .collect();
                CompiledRule {
                    head_rel: r.head_rel,
                    head: r.head,
                    nvars: r.nvars,
                    naive,
                    delta_plans,
                }
            }
        })
        .collect();

    let mut strata: Vec<Vec<usize>> = vec![vec![]; strata_assignment.count];
    for (i, &si) in rule_strata.iter().enumerate() {
        strata[si].push(i);
    }

    Ok(CompiledProgram {
        rules,
        rel_names,
        consts,
        const_ids,
        template,
        strata,
        fact_blocks: &store.blocks,
        facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{transitive_closure_program, triangle_program};
    use crate::parser::parse_program;

    fn rel(cp: &CompiledProgram, name: &str) -> u32 {
        cp.rel_names
            .iter()
            .position(|n| n == name)
            .expect("relation") as u32
    }

    #[test]
    fn delta_plans_only_for_same_stratum_relations() {
        for mode in [JoinMode::Auto, JoinMode::Binary] {
            // Triangles read only the facts-only `e`: one naive join, no
            // delta plan.
            let p = triangle_program(&[(0, 1), (1, 2), (0, 2)]);
            let cp = compile(&p, mode).unwrap();
            assert_eq!(cp.rules.len(), 1);
            assert!(cp.rules[0].delta_plans.is_empty(), "{mode:?}");

            // Transitive closure: the base rule reads only `edge`; the
            // recursive rule gets exactly the Δpath plan, and nothing
            // probes `path` (the naive plan scans it).
            let p = transitive_closure_program(&[(0, 1), (1, 2)]);
            let cp = compile(&p, mode).unwrap();
            let path = rel(&cp, "path");
            let base = &cp.rules[0];
            let recursive = &cp.rules[1];
            assert!(base.delta_plans.is_empty(), "{mode:?}");
            assert_eq!(recursive.delta_plans.len(), 1, "{mode:?}");
            assert_eq!(recursive.delta_plans[0].delta_rel(), Some(path));
            assert!(
                cp.template[path as usize].tries.is_empty(),
                "{mode:?}: path carries a trie"
            );

            // A stratum-1 rule reading only stratum-0 relations (`node`,
            // and `reach` under negation) has no delta plan; the stratum-0
            // recursive rule keeps its Δreach plan.
            let p = parse_program(
                "node(0). node(1). edge(0, 1). start(0). \
                 reach(X) :- start(X). \
                 reach(Y) :- reach(X), edge(X, Y). \
                 unreached(X) :- node(X), not reach(X).",
            )
            .unwrap();
            let cp = compile(&p, mode).unwrap();
            assert_eq!(cp.strata.len(), 2);
            let reach = rel(&cp, "reach");
            for (ri, rule) in cp.rules.iter().enumerate() {
                let want: Vec<Option<u32>> = match ri {
                    1 => vec![Some(reach)],
                    _ => vec![],
                };
                let got: Vec<Option<u32>> = rule.delta_plans.iter().map(Plan::delta_rel).collect();
                assert_eq!(got, want, "{mode:?}: rule {ri}");
            }
            assert_eq!(cp.strata[1], vec![2]);
        }
    }

    #[test]
    fn complete_relations_are_probed_through_tries() {
        let probe = |plan: &Plan| match plan {
            Plan::Binary {
                atoms, merge_key, ..
            } => (atoms[1].access.clone(), merge_key.clone()),
            Plan::Wcoj(_) => unreachable!("binary bodies"),
        };
        // Linear recursion over a complete `edge`: the delta plan merges
        // Δpath's column 1 against a trie of `edge` keyed on column 0, and
        // the naive plan probes the same trie.
        let p = transitive_closure_program(&[(0, 1), (1, 2)]);
        let cp = compile(&p, JoinMode::Auto).unwrap();
        let edge = rel(&cp, "edge");
        assert_eq!(cp.template[edge as usize].tries.len(), 1);
        assert_eq!(cp.template[edge as usize].tries[0].spec.cols, [0, 1]);
        let (access, merge_key) = probe(&cp.rules[1].delta_plans[0]);
        assert_eq!(merge_key, Some(vec![1]));
        assert!(matches!(access, Access::Trie { trie_slot: 0, .. }));
        assert_eq!(cp.rules[1].naive.tries(), vec![(edge, 0)]);
        assert_eq!(cp.rules[1].delta_plans[0].tries(), vec![(edge, 0)]);

        // A constant in the probe becomes a trie filter; the key is the
        // delta-bound variable alone.
        let p = parse_program("e(0, 1, 2). p(X, Y) :- e(0, X, Y). p(X, Z) :- p(X, Y), e(Y, 7, Z).")
            .unwrap();
        let cp = compile(&p, JoinMode::Auto).unwrap();
        let e = rel(&cp, "e") as usize;
        let (access, merge_key) = probe(&cp.rules[1].delta_plans[0]);
        let Access::Trie { trie_slot, key, .. } = access else {
            panic!("trie access expected, got {access:?}");
        };
        assert_eq!(merge_key, Some(vec![1]));
        assert_eq!(key.len(), 1);
        // The fact store interned 0, 1, 2; the rule's 7 is appended.
        assert_eq!(cp.consts[3], Const::Int(7));
        let spec = &cp.template[e].tries[trie_slot].spec;
        assert_eq!(
            (spec.cols.as_slice(), spec.consts.as_slice()),
            (&[0, 2][..], &[(1, 3)][..])
        );

        // Non-linear recursion probes `t` itself, which grows within the
        // stratum: each delta plan merges against a trie of `t`, keyed on
        // the join column the delta binds.
        let p = parse_program("e(0, 1). t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let cp = compile(&p, JoinMode::Auto).unwrap();
        let t = rel(&cp, "t") as usize;
        let plans = &cp.rules[1].delta_plans;
        assert_eq!(plans.len(), 2);
        for (plan, delta_col) in plans.iter().zip([1, 0]) {
            let (access, merge_key) = probe(plan);
            let Access::Trie { trie_slot, .. } = access else {
                panic!("trie access expected, got {access:?}");
            };
            assert_eq!(merge_key, Some(vec![delta_col]));
            // The probed `t` is keyed on the column the delta joins on.
            let spec = &cp.template[t].tries[trie_slot].spec;
            assert_eq!(spec.cols, [1 - delta_col, delta_col]);
        }

        // Forced-binary same-generation: every keyed probe, including the
        // naive plan's probe of the growing `sg`, reads a trie.
        let p = crate::eval::same_generation_program(&[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let cp = compile(&p, JoinMode::Binary).unwrap();
        let sg = rel(&cp, "sg");
        for rule in &cp.rules {
            for plan in std::iter::once(&rule.naive).chain(&rule.delta_plans) {
                let Plan::Binary { atoms, .. } = plan else {
                    unreachable!("binary mode plans binary");
                };
                for a in atoms.iter().filter(|a| !a.is_delta) {
                    assert!(
                        matches!(a.access, Access::Trie { .. } | Access::Scan),
                        "{:?}",
                        a.access
                    );
                }
            }
        }
        assert!(cp.rules[1].naive.tries().iter().any(|&(r, _)| r == sg));
    }
}
