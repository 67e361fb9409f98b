//! Abstract syntax of λ∨ terms (Figure 1 of the paper).
//!
//! Terms are immutable trees shared behind [`Arc`]; [`TermRef`] is the
//! reference-counted handle used throughout the crate. Binding is by name
//! with capture-avoiding substitution; terms are compared up to
//! α-equivalence by [`Term::alpha_eq`].
//!
//! In addition to the paper's grammar we include one extension, saturated
//! primitive operations ([`Term::Prim`]), which give delta rules for
//! arithmetic and comparison on primitive integer symbols. These are
//! semantically interchangeable with the paper's ADT encodings of numerals
//! (see `encodings`) but make the Datalog-style benchmarks tractable; the
//! substitution is recorded in `DESIGN.md`.

use std::fmt;
use std::sync::Arc;

use crate::symbol::Symbol;

/// A shared, immutable reference to a term.
pub type TermRef = Arc<Term>;

/// A variable name.
pub type Var = Arc<str>;

// Compile-time assertion: the term substrate is thread-shareable — the
// parallel fixpoint engines move terms freely across worker threads, and
// a reintroduced `Rc`/`Cell` field must fail the build, not the runtime.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Term>();
};

/// Primitive operations on integer symbols (delta rules).
///
/// All primitives are monotone: integers carry the *discrete* streaming
/// order, under which every total function is monotone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer comparison `<=`, returning `'true`/`'false`.
    Le,
    /// Integer comparison `<`, returning `'true`/`'false`.
    Lt,
    /// Equality on symbols, returning `'true`/`'false`.
    Eq,
    /// Membership test on *frozen* sets (§5.2): `member(frz v, frz s)`.
    ///
    /// Non-monotone on streaming sets, but safe here: both operands must be
    /// frozen, and frozen values carry the discrete order.
    Member,
    /// Set difference on *frozen* sets (§5.2): `diff(frz s1, frz s2)`,
    /// returning a plain (streaming) set of the elements of `s1` with no
    /// equivalent element in `s2`.
    Diff,
    /// Cardinality of a *frozen* set: `size(frz s)`, returning an integer.
    SetSize,
}

impl Prim {
    /// The number of operands the primitive consumes.
    pub fn arity(self) -> usize {
        match self {
            Prim::SetSize => 1,
            _ => 2,
        }
    }

    /// The surface-syntax spelling of the primitive.
    pub fn symbol(self) -> &'static str {
        match self {
            Prim::Add => "+",
            Prim::Sub => "-",
            Prim::Mul => "*",
            Prim::Le => "<=",
            Prim::Lt => "<",
            Prim::Eq => "==",
            Prim::Member => "member",
            Prim::Diff => "diff",
            Prim::SetSize => "size",
        }
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A λ∨ expression (Figure 1).
///
/// The constructors mirror the paper's grammar:
///
/// ```text
/// e ::= ⊥ | ⊤ | ⊥v | x | λx.e | (e1, e2) | s | {e1, …, en} | e1 e2
///     | let (x1, x2) = e in e' | let s = e in e' | ⋁_{x ∈ e1} e2 | e1 ∨ e2
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// `⊥` — the meaningless computation producing no output.
    Bot,
    /// `⊤` — the inconsistent (ambiguity) error; propagates through
    /// evaluation contexts.
    Top,
    /// `⊥v` — the least *value*: the bare knowledge that a computation has
    /// produced something.
    BotV,
    /// A variable.
    Var(Var),
    /// `λx.e`.
    Lam(Var, TermRef),
    /// `(e1, e2)`, evaluated left to right.
    Pair(TermRef, TermRef),
    /// A symbol literal.
    Sym(Symbol),
    /// `{e1, …, en}` — a set literal whose elements evaluate in parallel.
    Set(Vec<TermRef>),
    /// Application `e1 e2`, evaluated left to right.
    App(TermRef, TermRef),
    /// `let (x1, x2) = e in e'` — pair elimination.
    LetPair(Var, Var, TermRef, TermRef),
    /// `let s = e in e'` — threshold query on symbols: runs `e'` once `e`
    /// produces a symbol `≥ s`.
    LetSym(Symbol, TermRef, TermRef),
    /// `⋁_{x ∈ e1} e2` — big join: maps `e2` over the elements of the set
    /// `e1` and joins the results.
    BigJoin(Var, TermRef, TermRef),
    /// `e1 ∨ e2` — binary join; evaluates both sides in parallel.
    Join(TermRef, TermRef),
    /// Saturated primitive application (extension; see module docs).
    Prim(Prim, Vec<TermRef>),
    /// `frz e` — a *frozen* value (§5.2 "Frozen Values", extension).
    ///
    /// `frz v` promises the context that `v` will never grow again, enabling
    /// otherwise non-monotone queries ([`Prim::Member`], [`Prim::Diff`],
    /// [`Prim::SetSize`]). Frozen values carry the discrete streaming order:
    /// `frz v ⊑ frz v'` only when `v` and `v'` are equivalent, and joining a
    /// frozen value with anything *not* below its payload is the ambiguity
    /// error `⊤` (LVish-style quasi-determinism).
    Frz(TermRef),
    /// `let frz x = e in e'` — thaw elimination (extension).
    ///
    /// Runs `e'` with `x` bound to the payload once `e` produces a frozen
    /// value; a non-frozen scrutinee leaves the query unanswered (observed
    /// `⊥`), exactly like a threshold query below its threshold.
    LetFrz(Var, TermRef, TermRef),
    /// `⟨e1, e2⟩` — a lexicographic *versioned* pair (§5.2 "Versioned
    /// Values", extension): a datum `e2` tagged with a version `e1`.
    ///
    /// Joins are lexicographic: a strictly larger version wins outright, so
    /// the datum may change arbitrarily as long as the version increases.
    Lex(TermRef, TermRef),
    /// `x ← e1; e2` — monadic bind on versioned pairs (extension).
    ///
    /// Evaluates `e1` to `⟨v1, v1'⟩`, runs `e2[v1'/x]` to `⟨v2, v2'⟩`, and
    /// yields `⟨v1 ⊔ v2, v2'⟩`; the version-join keeps the composition
    /// monotone even though the datum changed.
    LexBind(Var, TermRef, TermRef),
    /// Administrative frame produced by reducing [`Term::LexBind`]: the
    /// first component is the accumulated version (a value), the second the
    /// still-running body computation.
    LexMerge(TermRef, TermRef),
}

impl Term {
    /// Returns `true` if the term is a value (`Val` in Figure 1).
    ///
    /// Values are variables, `⊥v`, abstractions, pairs of values, symbols,
    /// and sets of values.
    ///
    /// Iterative: values (streams accumulated over many fuel levels) can
    /// nest far deeper than the OS stack allows recursion. The evaluation
    /// engine runs on interned ids and reads the arena's cached value flag
    /// instead; this tree check runs once per `engine::run` or `MemoEval`
    /// call, on the term handed in, and in the reference evaluators.
    pub fn is_value(&self) -> bool {
        // Bounded recursion keeps the common shallow case allocation-free;
        // past the depth cap the worklist takes over (None = ran out).
        fn bounded(t: &Term, depth: u32) -> Option<bool> {
            if depth == 0 {
                return None;
            }
            match t {
                Term::Var(_) | Term::BotV | Term::Lam(..) | Term::Sym(_) => Some(true),
                Term::Pair(a, b) | Term::Lex(a, b) => {
                    Some(bounded(a, depth - 1)? && bounded(b, depth - 1)?)
                }
                Term::Frz(v) => bounded(v, depth - 1),
                Term::Set(es) => {
                    for e in es {
                        if !bounded(e, depth - 1)? {
                            return Some(false);
                        }
                    }
                    Some(true)
                }
                _ => Some(false),
            }
        }
        if let Some(b) = bounded(self, 64) {
            return b;
        }
        let mut todo: Vec<&Term> = vec![self];
        while let Some(t) = todo.pop() {
            match t {
                Term::Var(_) | Term::BotV | Term::Lam(..) | Term::Sym(_) => {}
                Term::Pair(a, b) | Term::Lex(a, b) => {
                    todo.push(a);
                    todo.push(b);
                }
                Term::Frz(v) => todo.push(v),
                Term::Set(es) => todo.extend(es.iter().map(|e| &**e)),
                _ => return false,
            }
        }
        true
    }

    /// Returns `true` if the term is a result (`Res` in Figure 1):
    /// `⊥`, `⊤`, or a value.
    pub fn is_result(&self) -> bool {
        matches!(self, Term::Bot | Term::Top) || self.is_value()
    }

    /// Returns `true` if the term is closed (has no free variables).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// The set of free variables of the term.
    ///
    /// Iterative (an explicit worklist of visit/bind/unbind tasks):
    /// substitution computes the free variables of the value being plugged
    /// in, which during streaming evaluation can be a value far deeper than
    /// the OS stack allows recursion.
    pub fn free_vars(&self) -> Vec<Var> {
        // Leaf fast paths: the values the evaluator substitutes are very
        // often symbols or single variables.
        match self {
            Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => return Vec::new(),
            Term::Var(x) => return vec![x.clone()],
            _ => {}
        }
        enum Task<'a> {
            Visit(&'a Term),
            Bind(&'a Var),
            Unbind(usize),
        }
        let mut bound: Vec<Var> = Vec::new();
        let mut out: Vec<Var> = Vec::new();
        // Tasks are pushed in reverse so they pop in syntactic order.
        let mut todo: Vec<Task<'_>> = vec![Task::Visit(self)];
        while let Some(task) = todo.pop() {
            match task {
                Task::Bind(x) => bound.push(x.clone()),
                Task::Unbind(n) => {
                    let keep = bound.len() - n;
                    bound.truncate(keep);
                }
                Task::Visit(t) => match t {
                    Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => {}
                    Term::Var(x) => {
                        if !bound.contains(x) && !out.contains(x) {
                            out.push(x.clone());
                        }
                    }
                    Term::Lam(x, b) => {
                        todo.push(Task::Unbind(1));
                        todo.push(Task::Visit(b));
                        todo.push(Task::Bind(x));
                    }
                    Term::Pair(a, b)
                    | Term::App(a, b)
                    | Term::Join(a, b)
                    | Term::Lex(a, b)
                    | Term::LexMerge(a, b) => {
                        todo.push(Task::Visit(b));
                        todo.push(Task::Visit(a));
                    }
                    Term::Frz(e) => todo.push(Task::Visit(e)),
                    Term::Set(es) | Term::Prim(_, es) => {
                        todo.extend(es.iter().rev().map(|e| Task::Visit(e)));
                    }
                    Term::LetPair(x1, x2, e, body) => {
                        todo.push(Task::Unbind(2));
                        todo.push(Task::Visit(body));
                        todo.push(Task::Bind(x2));
                        todo.push(Task::Bind(x1));
                        todo.push(Task::Visit(e));
                    }
                    Term::LetSym(_, e, body) => {
                        todo.push(Task::Visit(body));
                        todo.push(Task::Visit(e));
                    }
                    Term::BigJoin(x, e, body)
                    | Term::LetFrz(x, e, body)
                    | Term::LexBind(x, e, body) => {
                        todo.push(Task::Unbind(1));
                        todo.push(Task::Visit(body));
                        todo.push(Task::Bind(x));
                        todo.push(Task::Visit(e));
                    }
                },
            }
        }
        out
    }

    /// Capture-avoiding substitution `self[v/x]`.
    ///
    /// Binders that would capture a free variable of `v` are renamed with a
    /// fresh name. During closed-program evaluation `v` is always closed, so
    /// renaming never fires on that path; it exists for open-term utilities.
    ///
    /// The evaluation engine does not call this: it substitutes over
    /// interned ids (`ideval::subst_eval`). Tree substitution serves the
    /// executable specs — `bigstep::spec`, the Fig. 5 `reduce` and the
    /// `machine` built on it — and the `filter` type assignment behind
    /// `lambdav check`. The closed-`v` case recurses natively to depth
    /// 128 and hands deeper subtrees to an iterative worklist, so deeply
    /// nested terms substitute in bounded native stack. Open `v` falls
    /// back to the recursive spec-shaped walk (which may rename binders).
    pub fn subst(self: &Arc<Self>, x: &str, v: &TermRef) -> TermRef {
        let fv = v.free_vars();
        if fv.is_empty() {
            subst_closed(self, x, v)
        } else {
            subst_impl(self, x, v, &fv, &mut 0)
        }
    }

    /// Structural equality up to renaming of bound variables.
    pub fn alpha_eq(&self, other: &Term) -> bool {
        // Shared-node fast path: sound here (but not under the binder
        // environment of the recursive walk, where a shared open subterm
        // can relate a variable to a different binder on each side).
        std::ptr::eq(self, other) || alpha_eq_impl(self, other, &mut Vec::new())
    }

    /// A size measure: the number of AST nodes. Iterative via [`Term::children`].
    pub fn size(&self) -> usize {
        let mut n = 0;
        let mut todo: Vec<&Term> = vec![self];
        while let Some(t) = todo.pop() {
            n += 1;
            todo.extend(t.children().map(|c| &**c));
        }
        n
    }

    /// Iterates over the direct subterms of the node, in syntactic order.
    ///
    /// Binders are *not* entered specially: the iterator yields every child
    /// `TermRef` regardless of scoping, which is what generic traversals
    /// (sizing, frame construction in the evaluation engine, iterative
    /// deallocation) need. Scope-aware walks ([`Term::free_vars`],
    /// substitution) handle binders themselves.
    pub fn children(&self) -> Children<'_> {
        Children(match self {
            Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_) => ChildrenRepr::Zero,
            Term::Lam(_, b) | Term::Frz(b) => ChildrenRepr::One(b),
            Term::Pair(a, b)
            | Term::App(a, b)
            | Term::Join(a, b)
            | Term::Lex(a, b)
            | Term::LexMerge(a, b)
            | Term::LetPair(_, _, a, b)
            | Term::LetSym(_, a, b)
            | Term::BigJoin(_, a, b)
            | Term::LetFrz(_, a, b)
            | Term::LexBind(_, a, b) => ChildrenRepr::Two(a, b),
            Term::Set(es) | Term::Prim(_, es) => ChildrenRepr::Slice(es.iter()),
        })
    }
}

/// Iterator over the direct children of a term; see [`Term::children`].
pub struct Children<'a>(ChildrenRepr<'a>);

enum ChildrenRepr<'a> {
    Zero,
    One(&'a TermRef),
    Two(&'a TermRef, &'a TermRef),
    Slice(std::slice::Iter<'a, TermRef>),
}

impl<'a> Iterator for Children<'a> {
    type Item = &'a TermRef;

    fn next(&mut self) -> Option<&'a TermRef> {
        match std::mem::replace(&mut self.0, ChildrenRepr::Zero) {
            ChildrenRepr::Zero => None,
            ChildrenRepr::One(a) => Some(a),
            ChildrenRepr::Two(a, b) => {
                self.0 = ChildrenRepr::One(b);
                Some(a)
            }
            ChildrenRepr::Slice(mut it) => {
                let next = it.next();
                self.0 = ChildrenRepr::Slice(it);
                next
            }
        }
    }
}

fn is_leaf(t: &Term) -> bool {
    matches!(
        t,
        Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_)
    )
}

/// Dropping a term iterates instead of recursing: deeply nested terms and
/// deeply accumulated stream values (fuel ≫ stack depth) would otherwise
/// overflow the stack in the automatically derived destructor.
use std::cell::Cell;

thread_local! {
    /// True while [`drop_deep`] is unwinding a tree: every composite node
    /// dropped inside the loop has already handed its children to the
    /// worklist, so its destructor must do nothing but the derived
    /// (shallow) field drops.
    static IN_TEARDOWN: Cell<bool> = const { Cell::new(false) };
    /// The native stack position (address of a destructor-frame local) of
    /// the shallowest recent composite drop; see [`Term::drop`].
    static DROP_ANCHOR: Cell<usize> = const { Cell::new(0) };
}

/// How much native stack a recursive (derived) teardown may consume before
/// [`drop_deep`] takes over. Measured in actual bytes via the stack probe,
/// so it is frame-size-independent; small enough to leave ample headroom
/// even on a 512 KiB thread.
const DROP_STACK_BUDGET: usize = 64 * 1024;

impl Drop for Term {
    fn drop(&mut self) {
        // Leaves hold no subterms — the overwhelmingly common case.
        if is_leaf(self) {
            return;
        }
        // Composites whose children are all leaves recurse exactly one
        // level in the derived drop: nothing to flatten, no teardown or
        // probe bookkeeping needed. This skips both TLS reads for the
        // second-most-common case (small substituted redexes, guard
        // clauses, primitive applications), which matters because every
        // evaluation step churns thousands of such nodes.
        if self.children().all(|c| is_leaf(c)) {
            return;
        }
        // All thread-local accesses below use `try_with`: terms can be
        // dropped *during thread-local destruction* (e.g. the thread-local
        // evaluation arena tearing down after this module's TLS cells are
        // gone), where `with` would panic-in-drop and abort the process.
        // The fallbacks stay iterative-safe: an unavailable teardown flag
        // reads as "not in a teardown", and an unavailable anchor reads as
        // "budget exhausted", routing deep nodes to the worklist.
        if IN_TEARDOWN.try_with(Cell::get).unwrap_or(false) {
            // A worklist teardown is running. Nodes the worklist manages
            // have all their composite children enqueued (count ≥ 2), so
            // only shallow field drops remain; anything else reaching here
            // (a solely-owned deep child surfacing through a side container)
            // re-enters the worklist rather than recursing.
            let managed = self
                .children()
                .all(|c| is_leaf(c) || Arc::strong_count(c) >= 2);
            if !managed {
                drop_deep(self);
            }
            return;
        }
        // Stack probe: compare this destructor frame's position against the
        // shallowest recent drop site. The derived field drops may recurse
        // — at full native speed — until the recursion has consumed
        // `DROP_STACK_BUDGET` bytes below the anchor; past that, the
        // iterative worklist takes over. (Stacks grow downward: a nested
        // drop sits at a lower address; a drop at or above the anchor means
        // the previous recursion is finished, so the anchor moves here.)
        let marker = 0u8;
        let here = std::ptr::addr_of!(marker) as usize;
        let within_budget = DROP_ANCHOR
            .try_with(|a| {
                let anchor = a.get();
                if anchor == 0 || here >= anchor {
                    a.set(here);
                    true
                } else {
                    anchor - here <= DROP_STACK_BUDGET
                }
            })
            .unwrap_or(false);
        if within_budget {
            return;
        }
        // Past the budget. Engage the worklist only if this node actually
        // has something to flatten (a solely-owned composite child);
        // trivial composites (e.g. `λx.x`) drop shallowly either way, and
        // skipping them keeps deep-running callers off the cold path. The
        // anchor itself never moves downward: re-anchoring mid-cascade
        // would let interleaved sibling drops ratchet it down and unbound
        // the native descent.
        let has_flattenable = self
            .children()
            .any(|c| Arc::strong_count(c) == 1 && !is_leaf(c));
        if has_flattenable {
            drop_deep(self);
        }
    }
}

/// The worklist teardown for a term with solely-owned composite children.
///
/// The root *moves* its composite children into the worklist (replacing
/// them with a `⊥` placeholder — its own field drops run only after this
/// function, so it must relinquish ownership first). Interior nodes are
/// cheaper: when a pop finds us sole owner, the node's composite children
/// are *cloned* into the worklist — the extra handle lifts their count to
/// ≥ 2, so the node's derived field drops (which run inside this loop,
/// before its children are popped) merely decrement, and each child
/// returns to sole ownership by the time it is popped. A thread-local
/// scratch vector avoids an allocation per teardown; nodes dropped inside
/// the loop take the shallow fast path, so the scratch is never re-entered
/// (guarded regardless).
#[cold]
fn drop_deep(t: &mut Term) {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<Vec<TermRef>> = const { RefCell::new(Vec::new()) };
    }
    fn detach_root(t: &mut Term, pending: &mut Vec<TermRef>) {
        static NIL: std::sync::LazyLock<TermRef> = std::sync::LazyLock::new(|| Arc::new(Term::Bot));
        let nil: TermRef = NIL.clone();
        let take = |slot: &mut TermRef, pending: &mut Vec<TermRef>| {
            if !is_leaf(slot) {
                pending.push(std::mem::replace(slot, nil.clone()));
            }
        };
        match t {
            Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_) => {}
            Term::Lam(_, b) | Term::Frz(b) => take(b, pending),
            Term::Pair(a, b)
            | Term::App(a, b)
            | Term::Join(a, b)
            | Term::Lex(a, b)
            | Term::LexMerge(a, b)
            | Term::LetPair(_, _, a, b)
            | Term::LetSym(_, a, b)
            | Term::BigJoin(_, a, b)
            | Term::LetFrz(_, a, b)
            | Term::LexBind(_, a, b) => {
                take(a, pending);
                take(b, pending);
            }
            Term::Set(es) | Term::Prim(_, es) => {
                for e in es {
                    take(e, pending);
                }
            }
        }
    }
    /// Restores [`IN_TEARDOWN`] even if the loop panics (allocation
    /// failure); saves the prior value so re-entrant teardowns nest.
    /// Accesses are `try_with`: during thread-local destruction the flag
    /// may already be gone, in which case nodes popped by the loop below
    /// take the anchor-unavailable worklist path instead (see
    /// [`Term::drop`]), which is slower but still iterative-safe.
    struct TeardownGuard(bool);
    impl Drop for TeardownGuard {
        fn drop(&mut self) {
            let prev = self.0;
            let _ = IN_TEARDOWN.try_with(|f| f.set(prev));
        }
    }
    let _guard = TeardownGuard(IN_TEARDOWN.try_with(|f| f.replace(true)).unwrap_or(false));
    let mut run = |pending: &mut Vec<TermRef>| {
        detach_root(t, pending);
        while let Some(child) = pending.pop() {
            if let Some(inner) = Arc::into_inner(child) {
                pending.extend(inner.children().filter(|c| !is_leaf(c)).cloned());
            }
        }
    };
    match SCRATCH.try_with(|s| s.try_borrow_mut().ok().map(|mut p| run(&mut p))) {
        Ok(Some(())) => {}
        _ => run(&mut Vec::new()),
    }
}

/// Substitution of a *closed* value: no capture is possible, so binders
/// equal to `x` simply stop the descent. It recurses natively while
/// shallow (allocation-free, exactly the spec-shaped walk) and hands any
/// subtree deeper than 128 levels to the iterative worklist, so native
/// stack usage is bounded regardless of term depth.
///
/// The recursive walk stays because it is the fast path for the specs'
/// shallow terms. `spec::eval_fuel_recursive` on the 2PC program at fuel
/// 16 (median of 9 release runs on a 2-core Xeon) took 49 ms with it and
/// 194 ms with the worklist alone (cap 0); a prototype worklist over
/// borrowed references took 51–91 ms, so it did not replace the walk.
///
/// Subtrees the substitution does not touch are **shared, not rebuilt**:
/// a node whose children all come back pointer-identical is returned as
/// the original handle. Besides saving allocation, this preserves sharing
/// across β-unfoldings, which the hash-consing arena
/// ([`crate::intern`]) exploits to intern repeated probes in O(changed
/// spine) instead of O(term).
fn subst_closed(t: &TermRef, x: &str, v: &TermRef) -> TermRef {
    // `None` means "unchanged — share the original handle". Untouched
    // subtrees (everything off the occurrence spine, e.g. the closed set
    // literals of a rule body) cost a traversal but zero refcount traffic
    // and zero allocation.
    fn rec(t: &TermRef, x: &str, v: &TermRef, depth: u32) -> Option<TermRef> {
        if depth == 0 {
            // The worklist fallback reports unchanged results by pointer.
            let r = subst_closed_iter(t, x, v);
            return if Arc::ptr_eq(t, &r) { None } else { Some(r) };
        }
        let d = depth - 1;
        // Rebuilds a two-child node around at-least-one changed child.
        let share2 = |a: &TermRef,
                      b: &TermRef,
                      na: Option<TermRef>,
                      nb: Option<TermRef>,
                      mk: fn(TermRef, TermRef) -> Term|
         -> Option<TermRef> {
            match (na, nb) {
                (None, None) => None,
                (na, nb) => Some(Arc::new(mk(
                    na.unwrap_or_else(|| a.clone()),
                    nb.unwrap_or_else(|| b.clone()),
                ))),
            }
        };
        match &**t {
            Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => None,
            Term::Var(y) => {
                if &**y == x {
                    Some(v.clone())
                } else {
                    None
                }
            }
            Term::Lam(y, b) => {
                if &**y == x {
                    None
                } else {
                    let nb = rec(b, x, v, d)?;
                    Some(Arc::new(Term::Lam(y.clone(), nb)))
                }
            }
            Term::Pair(a, b) => share2(a, b, rec(a, x, v, d), rec(b, x, v, d), Term::Pair),
            Term::App(a, b) => share2(a, b, rec(a, x, v, d), rec(b, x, v, d), Term::App),
            Term::Join(a, b) => share2(a, b, rec(a, x, v, d), rec(b, x, v, d), Term::Join),
            Term::Lex(a, b) => share2(a, b, rec(a, x, v, d), rec(b, x, v, d), Term::Lex),
            Term::LexMerge(a, b) => share2(a, b, rec(a, x, v, d), rec(b, x, v, d), Term::LexMerge),
            Term::Frz(e) => {
                let ne = rec(e, x, v, d)?;
                Some(Arc::new(Term::Frz(ne)))
            }
            Term::Set(es) | Term::Prim(_, es) => {
                // Allocate the rebuilt element vector only once a child
                // actually changes.
                let mut out: Option<Vec<TermRef>> = None;
                for (i, e) in es.iter().enumerate() {
                    let ne = rec(e, x, v, d);
                    match (&mut out, ne) {
                        (Some(o), ne) => o.push(ne.unwrap_or_else(|| e.clone())),
                        (None, Some(ne)) => {
                            let mut o = Vec::with_capacity(es.len());
                            o.extend_from_slice(&es[..i]);
                            o.push(ne);
                            out = Some(o);
                        }
                        (None, None) => {}
                    }
                }
                let nes = out?;
                Some(if let Term::Prim(op, _) = &**t {
                    Arc::new(Term::Prim(*op, nes))
                } else {
                    Arc::new(Term::Set(nes))
                })
            }
            Term::LetPair(x1, x2, e, body) => {
                let nbody = if &**x1 == x || &**x2 == x {
                    None
                } else {
                    rec(body, x, v, d)
                };
                match (rec(e, x, v, d), nbody) {
                    (None, None) => None,
                    (ne, nbody) => Some(Arc::new(Term::LetPair(
                        x1.clone(),
                        x2.clone(),
                        ne.unwrap_or_else(|| e.clone()),
                        nbody.unwrap_or_else(|| body.clone()),
                    ))),
                }
            }
            Term::LetSym(s, e, body) => match (rec(e, x, v, d), rec(body, x, v, d)) {
                (None, None) => None,
                (ne, nbody) => Some(Arc::new(Term::LetSym(
                    s.clone(),
                    ne.unwrap_or_else(|| e.clone()),
                    nbody.unwrap_or_else(|| body.clone()),
                ))),
            },
            Term::BigJoin(y, e, body) | Term::LetFrz(y, e, body) | Term::LexBind(y, e, body) => {
                let nbody = if &**y == x { None } else { rec(body, x, v, d) };
                match (rec(e, x, v, d), nbody) {
                    (None, None) => None,
                    (ne, nbody) => {
                        let e2 = ne.unwrap_or_else(|| e.clone());
                        let b2 = nbody.unwrap_or_else(|| body.clone());
                        Some(match &**t {
                            Term::BigJoin(..) => Arc::new(Term::BigJoin(y.clone(), e2, b2)),
                            Term::LetFrz(..) => Arc::new(Term::LetFrz(y.clone(), e2, b2)),
                            _ => Arc::new(Term::LexBind(y.clone(), e2, b2)),
                        })
                    }
                }
            }
        }
    }
    rec(t, x, v, 128).unwrap_or_else(|| t.clone())
}

/// The worklist continuation of [`subst_closed`] for subtrees deeper than
/// its recursion cap. Produces exactly the term the recursive
/// [`subst_impl`] would (substituting a closed value never renames).
fn subst_closed_iter(t: &TermRef, x: &str, v: &TermRef) -> TermRef {
    enum Job {
        Visit(TermRef),
        /// Rebuild `node` from the last `built` entries of the result stack.
        Rebuild {
            node: TermRef,
            built: usize,
        },
    }
    let mut jobs: Vec<Job> = vec![Job::Visit(t.clone())];
    let mut results: Vec<TermRef> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Visit(t) => match &*t {
                Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => results.push(t.clone()),
                Term::Var(y) => results.push(if &**y == x { v.clone() } else { t.clone() }),
                Term::Lam(y, b) => {
                    if &**y == x {
                        results.push(t.clone());
                    } else {
                        let b = b.clone();
                        jobs.push(Job::Rebuild { node: t, built: 1 });
                        jobs.push(Job::Visit(b));
                    }
                }
                Term::Pair(a, b)
                | Term::App(a, b)
                | Term::Join(a, b)
                | Term::Lex(a, b)
                | Term::LexMerge(a, b)
                | Term::LetSym(_, a, b) => {
                    let (a, b) = (a.clone(), b.clone());
                    jobs.push(Job::Rebuild { node: t, built: 2 });
                    jobs.push(Job::Visit(b));
                    jobs.push(Job::Visit(a));
                }
                Term::Frz(e) => {
                    let e = e.clone();
                    jobs.push(Job::Rebuild { node: t, built: 1 });
                    jobs.push(Job::Visit(e));
                }
                Term::Set(es) | Term::Prim(_, es) => {
                    let built = es.len();
                    let children: Vec<TermRef> = es.clone();
                    jobs.push(Job::Rebuild { node: t, built });
                    jobs.extend(children.into_iter().rev().map(Job::Visit));
                }
                Term::LetPair(x1, x2, e, body) => {
                    // A shadowing binder leaves the body untouched.
                    let built = if &**x1 == x || &**x2 == x { 1 } else { 2 };
                    let (e, body) = (e.clone(), body.clone());
                    jobs.push(Job::Rebuild { node: t, built });
                    if built == 2 {
                        jobs.push(Job::Visit(body));
                    }
                    jobs.push(Job::Visit(e));
                }
                Term::BigJoin(y, e, body)
                | Term::LetFrz(y, e, body)
                | Term::LexBind(y, e, body) => {
                    let built = if &**y == x { 1 } else { 2 };
                    let (e, body) = (e.clone(), body.clone());
                    jobs.push(Job::Rebuild { node: t, built });
                    if built == 2 {
                        jobs.push(Job::Visit(body));
                    }
                    jobs.push(Job::Visit(e));
                }
            },
            Job::Rebuild { node, built } => {
                // The last `built` results are the node's new children, in
                // visit (i.e. syntactic) order. Untouched nodes (children
                // all pointer-identical) are shared, mirroring the
                // recursive walk above.
                let mut children = results.split_off(results.len() - built);
                let rebuilt = match &*node {
                    Term::Lam(y, b0) => {
                        let b = children.pop().unwrap();
                        if Arc::ptr_eq(b0, &b) {
                            node.clone()
                        } else {
                            Arc::new(Term::Lam(y.clone(), b))
                        }
                    }
                    Term::Frz(e0) => {
                        let e = children.pop().unwrap();
                        if Arc::ptr_eq(e0, &e) {
                            node.clone()
                        } else {
                            Arc::new(Term::Frz(e))
                        }
                    }
                    Term::Pair(a0, b0)
                    | Term::App(a0, b0)
                    | Term::Join(a0, b0)
                    | Term::Lex(a0, b0)
                    | Term::LexMerge(a0, b0)
                    | Term::LetSym(_, a0, b0) => {
                        let b = children.pop().unwrap();
                        let a = children.pop().unwrap();
                        if Arc::ptr_eq(a0, &a) && Arc::ptr_eq(b0, &b) {
                            node.clone()
                        } else {
                            Arc::new(match &*node {
                                Term::Pair(..) => Term::Pair(a, b),
                                Term::App(..) => Term::App(a, b),
                                Term::Join(..) => Term::Join(a, b),
                                Term::Lex(..) => Term::Lex(a, b),
                                Term::LexMerge(..) => Term::LexMerge(a, b),
                                Term::LetSym(s, ..) => Term::LetSym(s.clone(), a, b),
                                _ => unreachable!(),
                            })
                        }
                    }
                    Term::Set(es) | Term::Prim(_, es) => {
                        if es.iter().zip(&children).all(|(e, ne)| Arc::ptr_eq(e, ne)) {
                            node.clone()
                        } else if let Term::Prim(op, _) = &*node {
                            Arc::new(Term::Prim(*op, children))
                        } else {
                            Arc::new(Term::Set(children))
                        }
                    }
                    Term::LetPair(x1, x2, e0, body) => {
                        let b = if built == 2 {
                            children.pop().unwrap()
                        } else {
                            body.clone()
                        };
                        let e = children.pop().unwrap();
                        if Arc::ptr_eq(e0, &e) && Arc::ptr_eq(body, &b) {
                            node.clone()
                        } else {
                            Arc::new(Term::LetPair(x1.clone(), x2.clone(), e, b))
                        }
                    }
                    Term::BigJoin(y, e0, body)
                    | Term::LetFrz(y, e0, body)
                    | Term::LexBind(y, e0, body) => {
                        let b = if built == 2 {
                            children.pop().unwrap()
                        } else {
                            body.clone()
                        };
                        let e = children.pop().unwrap();
                        if Arc::ptr_eq(e0, &e) && Arc::ptr_eq(body, &b) {
                            node.clone()
                        } else {
                            Arc::new(match &*node {
                                Term::BigJoin(..) => Term::BigJoin(y.clone(), e, b),
                                Term::LetFrz(..) => Term::LetFrz(y.clone(), e, b),
                                _ => Term::LexBind(y.clone(), e, b),
                            })
                        }
                    }
                    // Leaves never queue a rebuild.
                    Term::Bot | Term::Top | Term::BotV | Term::Var(_) | Term::Sym(_) => {
                        unreachable!("leaf queued for rebuild")
                    }
                };
                results.push(rebuilt);
            }
        }
    }
    debug_assert_eq!(results.len(), 1);
    results.pop().expect("substitution produced no result")
}

fn fresh(base: &str, avoid: &[Var], counter: &mut u64) -> Var {
    loop {
        *counter += 1;
        let cand: Var = Arc::from(format!("{base}%{counter}").as_str());
        if !avoid.contains(&cand) {
            return cand;
        }
    }
}

fn subst_impl(t: &TermRef, x: &str, v: &TermRef, fv_v: &[Var], counter: &mut u64) -> TermRef {
    match &**t {
        Term::Bot | Term::Top | Term::BotV | Term::Sym(_) => t.clone(),
        Term::Var(y) => {
            if &**y == x {
                v.clone()
            } else {
                t.clone()
            }
        }
        Term::Lam(y, b) => {
            if &**y == x {
                t.clone()
            } else if fv_v.iter().any(|w| w == y) {
                let y2 = fresh(y, fv_v, counter);
                let b2 = b.subst(y, &Arc::new(Term::Var(y2.clone())));
                Arc::new(Term::Lam(y2, subst_impl(&b2, x, v, fv_v, counter)))
            } else {
                Arc::new(Term::Lam(y.clone(), subst_impl(b, x, v, fv_v, counter)))
            }
        }
        Term::Pair(a, b) => Arc::new(Term::Pair(
            subst_impl(a, x, v, fv_v, counter),
            subst_impl(b, x, v, fv_v, counter),
        )),
        Term::App(a, b) => Arc::new(Term::App(
            subst_impl(a, x, v, fv_v, counter),
            subst_impl(b, x, v, fv_v, counter),
        )),
        Term::Join(a, b) => Arc::new(Term::Join(
            subst_impl(a, x, v, fv_v, counter),
            subst_impl(b, x, v, fv_v, counter),
        )),
        Term::Lex(a, b) => Arc::new(Term::Lex(
            subst_impl(a, x, v, fv_v, counter),
            subst_impl(b, x, v, fv_v, counter),
        )),
        Term::LexMerge(a, b) => Arc::new(Term::LexMerge(
            subst_impl(a, x, v, fv_v, counter),
            subst_impl(b, x, v, fv_v, counter),
        )),
        Term::Frz(e) => Arc::new(Term::Frz(subst_impl(e, x, v, fv_v, counter))),
        Term::Set(es) => Arc::new(Term::Set(
            es.iter()
                .map(|e| subst_impl(e, x, v, fv_v, counter))
                .collect(),
        )),
        Term::Prim(op, es) => Arc::new(Term::Prim(
            *op,
            es.iter()
                .map(|e| subst_impl(e, x, v, fv_v, counter))
                .collect(),
        )),
        Term::LetPair(x1, x2, e, body) => {
            let e2 = subst_impl(e, x, v, fv_v, counter);
            if &**x1 == x || &**x2 == x {
                Arc::new(Term::LetPair(x1.clone(), x2.clone(), e2, body.clone()))
            } else {
                let (mut x1n, mut x2n, mut body_n) = (x1.clone(), x2.clone(), body.clone());
                if fv_v.iter().any(|w| w == &x1n) {
                    let f = fresh(&x1n, fv_v, counter);
                    body_n = body_n.subst(&x1n, &Arc::new(Term::Var(f.clone())));
                    x1n = f;
                }
                if fv_v.iter().any(|w| w == &x2n) {
                    let f = fresh(&x2n, fv_v, counter);
                    body_n = body_n.subst(&x2n, &Arc::new(Term::Var(f.clone())));
                    x2n = f;
                }
                Arc::new(Term::LetPair(
                    x1n,
                    x2n,
                    e2,
                    subst_impl(&body_n, x, v, fv_v, counter),
                ))
            }
        }
        Term::LetSym(s, e, body) => Arc::new(Term::LetSym(
            s.clone(),
            subst_impl(e, x, v, fv_v, counter),
            subst_impl(body, x, v, fv_v, counter),
        )),
        Term::BigJoin(y, e, body) | Term::LetFrz(y, e, body) | Term::LexBind(y, e, body) => {
            let rebuild = |y: Var, e: TermRef, b: TermRef| -> TermRef {
                match &**t {
                    Term::BigJoin(..) => Arc::new(Term::BigJoin(y, e, b)),
                    Term::LetFrz(..) => Arc::new(Term::LetFrz(y, e, b)),
                    _ => Arc::new(Term::LexBind(y, e, b)),
                }
            };
            let e2 = subst_impl(e, x, v, fv_v, counter);
            if &**y == x {
                rebuild(y.clone(), e2, body.clone())
            } else if fv_v.iter().any(|w| w == y) {
                let y2 = fresh(y, fv_v, counter);
                let body2 = body.subst(y, &Arc::new(Term::Var(y2.clone())));
                rebuild(y2, e2, subst_impl(&body2, x, v, fv_v, counter))
            } else {
                rebuild(y.clone(), e2, subst_impl(body, x, v, fv_v, counter))
            }
        }
    }
}

fn alpha_eq_impl(a: &Term, b: &Term, env: &mut Vec<(Var, Var)>) -> bool {
    fn var_eq(x: &Var, y: &Var, env: &[(Var, Var)]) -> bool {
        for (a, b) in env.iter().rev() {
            match (a == x, b == y) {
                (true, true) => return true,
                (true, false) | (false, true) => return false,
                _ => {}
            }
        }
        x == y
    }
    match (a, b) {
        (Term::Bot, Term::Bot) | (Term::Top, Term::Top) | (Term::BotV, Term::BotV) => true,
        (Term::Sym(s1), Term::Sym(s2)) => s1 == s2,
        (Term::Var(x), Term::Var(y)) => var_eq(x, y, env),
        (Term::Lam(x, e1), Term::Lam(y, e2)) => {
            env.push((x.clone(), y.clone()));
            let r = alpha_eq_impl(e1, e2, env);
            env.pop();
            r
        }
        (Term::Pair(a1, b1), Term::Pair(a2, b2))
        | (Term::App(a1, b1), Term::App(a2, b2))
        | (Term::Join(a1, b1), Term::Join(a2, b2))
        | (Term::Lex(a1, b1), Term::Lex(a2, b2))
        | (Term::LexMerge(a1, b1), Term::LexMerge(a2, b2)) => {
            alpha_eq_impl(a1, a2, env) && alpha_eq_impl(b1, b2, env)
        }
        (Term::Frz(e1), Term::Frz(e2)) => alpha_eq_impl(e1, e2, env),
        (Term::Set(es1), Term::Set(es2)) => {
            es1.len() == es2.len()
                && es1
                    .iter()
                    .zip(es2)
                    .all(|(e1, e2)| alpha_eq_impl(e1, e2, env))
        }
        (Term::Prim(o1, es1), Term::Prim(o2, es2)) => {
            o1 == o2
                && es1.len() == es2.len()
                && es1
                    .iter()
                    .zip(es2)
                    .all(|(e1, e2)| alpha_eq_impl(e1, e2, env))
        }
        (Term::LetPair(x1, x2, e1, b1), Term::LetPair(y1, y2, e2, b2)) => {
            if !alpha_eq_impl(e1, e2, env) {
                return false;
            }
            env.push((x1.clone(), y1.clone()));
            env.push((x2.clone(), y2.clone()));
            let r = alpha_eq_impl(b1, b2, env);
            env.pop();
            env.pop();
            r
        }
        (Term::LetSym(s1, e1, b1), Term::LetSym(s2, e2, b2)) => {
            s1 == s2 && alpha_eq_impl(e1, e2, env) && alpha_eq_impl(b1, b2, env)
        }
        (Term::BigJoin(x, e1, b1), Term::BigJoin(y, e2, b2))
        | (Term::LetFrz(x, e1, b1), Term::LetFrz(y, e2, b2))
        | (Term::LexBind(x, e1, b1), Term::LexBind(y, e2, b2)) => {
            if !alpha_eq_impl(e1, e2, env) {
                return false;
            }
            env.push((x.clone(), y.clone()));
            let r = alpha_eq_impl(b1, b2, env);
            env.pop();
            r
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn values_and_results() {
        assert!(Term::BotV.is_value());
        assert!(Term::Bot.is_result());
        assert!(!Term::Bot.is_value());
        assert!(Term::Top.is_result());
        let p = pair(int(1), int(2));
        assert!(p.is_value());
        let p = pair(int(1), app(var("f"), int(2)));
        assert!(!p.is_value());
        assert!(set(vec![int(1), lam("x", var("x"))]).is_value());
        assert!(!set(vec![app(var("f"), int(1))]).is_value());
    }

    #[test]
    fn free_vars_of_binders() {
        let t = lam("x", app(var("x"), var("y")));
        assert_eq!(t.free_vars(), vec![Arc::from("y") as Var]);
        let t = let_pair("a", "b", var("p"), app(var("a"), var("c")));
        let fv = t.free_vars();
        assert!(fv.iter().any(|v| &**v == "p"));
        assert!(fv.iter().any(|v| &**v == "c"));
        assert!(!fv.iter().any(|v| &**v == "a"));
        let t = big_join("x", var("s"), var("x"));
        assert_eq!(t.free_vars(), vec![Arc::from("s") as Var]);
    }

    #[test]
    fn subst_basic() {
        // (λy. x y)[v/x] = λy. v y
        let t = lam("y", app(var("x"), var("y")));
        let r = t.subst("x", &int(7));
        assert!(r.alpha_eq(&lam("y", app(int(7), var("y")))));
    }

    #[test]
    fn subst_shadowing() {
        // (λx. x)[v/x] = λx. x
        let t = lam("x", var("x"));
        let r = t.subst("x", &int(7));
        assert!(r.alpha_eq(&lam("x", var("x"))));
    }

    #[test]
    fn subst_capture_avoidance() {
        // (λy. x)[y/x] must NOT become λy. y
        let t = lam("y", var("x"));
        let r = t.subst("x", &var("y"));
        match &*r {
            Term::Lam(b, body) => {
                assert!(matches!(&**body, Term::Var(v) if v == &var_name("y")));
                assert_ne!(&**b, "y");
            }
            _ => panic!("expected lambda"),
        }
    }

    fn var_name(s: &str) -> Var {
        Arc::from(s)
    }

    #[test]
    fn alpha_eq_renames_binders() {
        assert!(lam("x", var("x")).alpha_eq(&lam("y", var("y"))));
        assert!(!lam("x", var("x")).alpha_eq(&lam("y", var("x"))));
        assert!(big_join("a", set(vec![]), var("a")).alpha_eq(&big_join(
            "b",
            set(vec![]),
            var("b")
        )));
    }

    #[test]
    fn alpha_eq_respects_free_vars() {
        assert!(!var("x").alpha_eq(&var("y")));
        assert!(var("x").alpha_eq(&var("x")));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(int(1).size(), 1);
        assert_eq!(pair(int(1), int(2)).size(), 3);
        assert_eq!(lam("x", var("x")).size(), 2);
    }

    #[test]
    fn let_pair_subst_does_not_touch_bound_occurrences() {
        // (let (x, y) = p in x)[v/x] leaves the body alone.
        let t = let_pair("x", "y", var("p"), var("x"));
        let r = t.subst("x", &int(3));
        assert!(r.alpha_eq(&let_pair("x", "y", var("p"), var("x"))));
    }
}
