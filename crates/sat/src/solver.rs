//! A small, deterministic, std-only CDCL SAT solver with native
//! at-most-one rows.
//!
//! This is the MiniSat recipe at minimum viable size: two-watched-literal
//! unit propagation, first-UIP conflict analysis with backjumping, VSIDS
//! variable activities, Luby-series restarts, and phase saving. Three
//! deliberate omissions keep it small: no learned-clause deletion (the
//! conflict budget bounds growth instead), no clause minimization, and no
//! preprocessing.
//!
//! # At-most-one rows
//!
//! Besides clauses, the solver takes *rows*
//! ([`add_row`](Solver::add_row)): at most one literal of a row may be
//! true. A row of `k` literals stands for the `k(k−1)/2` binary clauses
//! `¬p ∨ ¬q` over its pairs, without storing them and without an
//! auxiliary variable. When a row literal `p` becomes true, every other
//! literal `q` of each row listing `p` is set false, with the implied
//! clause `¬p ∨ ¬q` as its reason; a second true literal is a conflict on
//! that clause. Conflict analysis resolves on an implied clause exactly
//! as on a stored one, and learned clauses are ordinary clauses. A
//! literal listed twice in one row can never be true, so adding the row
//! fixes it false.
//!
//! # Determinism contract
//!
//! Given the same clauses and rows added in the same order, every run
//! makes the same decisions and returns the same model/stats, on any
//! thread, at any parallelism. The sources of nondeterminism in off-the-shelf
//! solvers are all pinned here: decision order is VSIDS activity with
//! ties broken by *smallest variable id* (a total order), the initial
//! phase is always negative, saved phases depend only on the search
//! itself, and restarts fire on exact conflict counts. No randomness,
//! no time-based heuristics.
//!
//! # Layout
//!
//! The next decision is the unassigned variable that comes first in that
//! total order. Two tiers find it. Most variables of an encoded decision
//! never appear in a conflict, so their activity stays 0 and only their
//! id ranks them: a cursor walks those in id order. A max-heap holds the
//! variables bumped at least once. The decision is the better of the
//! heap's top and the cursor's variable, so assigning and unassigning a
//! never-bumped variable costs no heap work. Clause literals, learned
//! clauses included, live back to back in one arena, and so do the
//! rows' literals and, once the search starts, each literal's rows.
//!
//! The search is the one the former solver made with one heap of every
//! variable; the test module keeps that solver as the reference. Every
//! other step is unchanged, and both orders pick the first unassigned
//! variable of the total order. The one exception is a rescale (every
//! activity times 1e−100), which can round two activities to one value:
//! this order then re-sorts its heap and takes the smaller id, where a
//! heap that is not re-sorted may take either.
//!
//! # Usage
//!
//! A [`Solver`] is single-shot: create, [`add_clause`](Solver::add_clause)
//! and [`add_row`](Solver::add_row) everything, [`solve`](Solver::solve)
//! once.

/// A literal: variable `var` (0-based) either positive or negated.
///
/// Encoded as `2·var + neg` so literals index watch lists directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    /// The negated literal of `var`.
    pub fn neg(var: u32) -> Lit {
        Lit(var << 1 | 1)
    }

    /// This literal's variable.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Whether this is the negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// What [`Solver::solve`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; the model assigns every variable (`model[v]`).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// The conflict budget ran out before a decision was reached.
    Unknown,
}

/// Deterministic work/size counters for one solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts hit (equals learned clauses; the budget unit).
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated (trail pushes from clauses and rows).
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

const RESTART_BASE: u64 = 128;

/// Why a variable holds its value.
#[derive(Debug, Clone, Copy)]
enum Reason {
    /// A decision, or a unit fixed at level 0.
    None,
    /// Propagated by this clause, whose first literal it is.
    Clause(u32),
    /// Set false because this literal of a shared row is true: the
    /// implied clause `¬q ∨ ¬p`, with `¬q` the propagated literal.
    Row(Lit),
}

/// A clause that propagation found false.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    /// A stored clause.
    Clause(u32),
    /// Two true literals `p`, `q` of one row: the implied clause
    /// `¬p ∨ ¬q`.
    Row(Lit, Lit),
}

/// `x`-th term of the Luby restart series (1,1,2,1,1,2,4,...): find the
/// finite subsequence containing index `x`, then recurse into it.
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// A variable's value: `assign[v]` is `FALSE`, `TRUE` or `UNDEF`, and a
/// literal's value is its variable's XOR its sign bit, so a negated
/// literal of an unassigned variable reads `UNDEF | 1`.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;

fn value(assign: &[u8], l: Lit) -> u8 {
    assign[l.var() as usize] ^ (l.0 & 1) as u8
}

/// Lists stored back to back: list `i` is
/// `items[starts[i]..starts[i + 1]]`.
#[derive(Debug)]
struct Arena<T> {
    items: Vec<T>,
    starts: Vec<u32>,
}

impl<T: Copy> Arena<T> {
    fn new() -> Arena<T> {
        Arena {
            items: Vec::new(),
            starts: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Appends a list and returns its index.
    fn push(&mut self, items: &[T]) -> u32 {
        let i = self.len() as u32;
        self.items.extend_from_slice(items);
        let end = u32::try_from(self.items.len()).expect("an arena holds under 2^32 items");
        self.starts.push(end);
        i
    }

    fn span(&self, i: u32) -> std::ops::Range<usize> {
        self.starts[i as usize] as usize..self.starts[i as usize + 1] as usize
    }

    fn get(&self, i: u32) -> &[T] {
        &self.items[self.span(i)]
    }
}

/// The decision order (module docs, "Layout"): a max-heap of the bumped
/// variables, ties to the smallest id, and a cursor over the never-bumped
/// ones. Assigned variables leave the heap lazily, when they reach its
/// top.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]` = index in `heap`, or `usize::MAX` when absent.
    pos: Vec<usize>,
    /// Whether `v` was ever bumped; it is then in the heap whenever it
    /// is unassigned.
    bumped: Vec<bool>,
    /// No unassigned never-bumped variable has a smaller id.
    next: u32,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarOrder {
    fn better(a: u32, b: u32, activity: &[f64]) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn push_var(&mut self) {
        self.pos.push(NOT_IN_HEAP);
        self.bumped.push(false);
    }

    /// `v`'s activity rose. `v` is assigned: it is in a conflict.
    fn bumped(&mut self, v: u32, activity: &[f64]) {
        if !self.bumped[v as usize] {
            self.bumped[v as usize] = true;
        } else if self.pos[v as usize] != NOT_IN_HEAP {
            self.sift_up(self.pos[v as usize], activity);
        }
    }

    /// `v` became unassigned.
    fn unassigned(&mut self, v: u32, activity: &[f64]) {
        if !self.bumped[v as usize] {
            self.next = self.next.min(v);
        } else if self.pos[v as usize] == NOT_IN_HEAP {
            self.pos[v as usize] = self.heap.len();
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Re-sorts the heap after a rescale, which may have made two
    /// activities equal.
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    /// The unassigned variable with the highest activity, ties to the
    /// smallest id; `None` once every variable is assigned.
    fn pick(&mut self, assign: &[u8], activity: &[f64]) -> Option<u32> {
        while let Some(&top) = self.heap.first() {
            if assign[top as usize] == UNDEF {
                break;
            }
            self.pop(activity);
        }
        let n = self.bumped.len() as u32;
        while self.next < n
            && (assign[self.next as usize] != UNDEF || self.bumped[self.next as usize])
        {
            self.next += 1;
        }
        let fresh = (self.next < n).then_some(self.next);
        match (self.heap.first(), fresh) {
            (Some(&top), Some(v)) if Self::better(v, top, activity) => Some(v),
            (Some(_), _) => self.pop(activity),
            (None, v) => v,
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::better(self.heap[i], self.heap[parent], activity) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && Self::better(self.heap[l], self.heap[best], activity) {
                best = l;
            }
            if r < self.heap.len() && Self::better(self.heap[r], self.heap[best], activity) {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i;
        self.pos[self.heap[j] as usize] = j;
    }
}

/// The CDCL solver. See the module docs for scope and determinism.
#[derive(Debug)]
pub struct Solver {
    clauses: Arena<Lit>,
    /// `watches[lit.index()]` = clauses currently watching `lit`.
    watches: Vec<Vec<u32>>,
    /// At-most-one rows, each with at least two distinct literals.
    rows: Arena<Lit>,
    /// List `lit.index()`: the rows listing `lit`, in row order; built
    /// when the search starts.
    row_watches: Arena<u32>,
    /// Per variable: `FALSE`, `TRUE` or `UNDEF`.
    assign: Vec<u8>,
    /// Saved phase per variable; initial phase is negative.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    /// Reused buffer for the literals of the clause or row being added.
    buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            clauses: Arena::new(),
            watches: Vec::new(),
            rows: Arena::new(),
            row_watches: Arena::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::default(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            buf: Vec::new(),
        }
    }

    /// Allocates a fresh variable and returns its id.
    pub fn new_var(&mut self) -> u32 {
        let v = self.assign.len() as u32;
        self.assign.push(UNDEF);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(Reason::None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var();
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem clauses added (units and tautologies excluded;
    /// learned clauses not counted).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of at-most-one rows added (rows left with fewer than two
    /// distinct literals excluded).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether what was added so far is unsatisfiable without search (an
    /// empty clause or contradicting units). Later additions are then
    /// ignored.
    pub fn is_trivially_unsat(&self) -> bool {
        !self.ok
    }

    /// Work/size counters of the last [`solve`](Solver::solve).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause (must be called before [`solve`](Solver::solve)).
    /// Sorts and dedups literals; drops tautologies; an empty clause
    /// makes the instance trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        let mut ls = std::mem::take(&mut self.buf);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        // After sorting, x and ¬x are adjacent (indices 2v, 2v+1); a
        // tautology is dropped.
        if !ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            match ls[..] {
                [] => self.ok = false,
                [l] => match value(&self.assign, l) {
                    FALSE => self.ok = false,
                    TRUE => {}
                    _ => self.enqueue(l, Reason::None),
                },
                [a, b, ..] => {
                    let ci = self.clauses.push(&ls);
                    self.watches[a.index()].push(ci);
                    self.watches[b.index()].push(ci);
                }
            }
        }
        self.buf = ls;
    }

    /// Adds an at-most-one row (must be called before
    /// [`solve`](Solver::solve)): at most one of `lits` may be true. A
    /// literal listed twice is fixed false; a row left with fewer than
    /// two distinct literals adds nothing else.
    pub fn add_row(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        let mut ls = std::mem::take(&mut self.buf);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        for w in ls.windows(2) {
            if w[0] == w[1] {
                self.add_clause(&[!w[0]]);
            }
        }
        ls.dedup();
        if ls.len() >= 2 {
            self.rows.push(&ls);
        }
        self.buf = ls;
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        let v = l.var() as usize;
        debug_assert_eq!(self.assign[v], UNDEF);
        self.assign[v] = u8::from(!l.is_neg());
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Exhausts unit propagation; returns the clause found false.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Every other literal of a row listing p goes false.
            for i in self.row_watches.span(p.0) {
                for k in self.rows.span(self.row_watches.items[i]) {
                    let q = self.rows.items[k];
                    if q == p {
                        continue;
                    }
                    match value(&self.assign, q) {
                        TRUE => {
                            self.qhead = self.trail.len();
                            return Some(Conflict::Row(p, q));
                        }
                        FALSE => {}
                        _ => {
                            self.stats.propagations += 1;
                            self.enqueue(!q, Reason::Row(p));
                        }
                    }
                }
            }
            let false_lit = !p;
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                // Normalize: the false literal sits at position 1.
                let span = self.clauses.span(ci);
                let lits = &mut self.clauses.items[span];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                let first_value = value(&self.assign, first);
                if first_value == TRUE {
                    i += 1;
                    continue; // clause already satisfied
                }
                // Find a replacement watch among lits[2..].
                let replacement = (2..lits.len()).find(|&k| value(&self.assign, lits[k]) != FALSE);
                match replacement {
                    Some(k) => {
                        lits.swap(1, k);
                        self.watches[lits[1].index()].push(ci);
                        watchers.swap_remove(i);
                        // swap_remove keeps `watchers` order-dependent
                        // only on clause content — deterministic.
                    }
                    None if first_value == FALSE => {
                        // Conflict: restore the remaining watchers.
                        self.watches[false_lit.index()] = watchers;
                        self.qhead = self.trail.len();
                        return Some(Conflict::Clause(ci));
                    }
                    None => {
                        self.stats.propagations += 1;
                        self.enqueue(first, Reason::Clause(ci));
                        i += 1;
                    }
                }
            }
            self.watches[false_lit.index()] = watchers;
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the level to backjump to.
    fn analyze(&mut self, confl: Conflict) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
        let mut counter = 0u32;
        let mut trail_index = self.trail.len();
        // The clause being resolved, less the literal it propagated: all
        // of the conflict, then each reason but its first literal.
        let mut lits: Vec<Lit> = match confl {
            Conflict::Clause(ci) => self.clauses.get(ci).to_vec(),
            Conflict::Row(p, q) => vec![!p, !q],
        };

        loop {
            for &q in &lits {
                let v = q.var() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                if self.level[v] == self.decision_level() {
                    counter += 1;
                } else {
                    learned.push(q);
                }
            }
            for &q in &lits {
                self.bump(q.var());
            }

            // Walk the trail to the next marked literal.
            loop {
                trail_index -= 1;
                if self.seen[self.trail[trail_index].var() as usize] {
                    break;
                }
            }
            let q = self.trail[trail_index];
            let v = q.var() as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = !q; // the first UIP, asserted by the clause
                break;
            }
            lits.clear();
            match self.reason[v] {
                Reason::Clause(ci) => lits.extend_from_slice(&self.clauses.get(ci)[1..]),
                Reason::Row(p) => lits.push(!p),
                Reason::None => unreachable!("a marked literal above the UIP has a reason"),
            }
        }

        for l in &learned[1..] {
            self.seen[l.var() as usize] = false;
        }

        // Backjump level: the highest level among the non-asserting lits;
        // move that literal to index 1 so it is watched after attach.
        let mut back_level = 0;
        if learned.len() > 1 {
            let mut max_i = 1;
            for (i, l) in learned.iter().enumerate().skip(1) {
                if self.level[l.var() as usize] > self.level[learned[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            back_level = self.level[learned[1].var() as usize];
        }
        (learned, back_level)
    }

    fn bump(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        }
        self.order.bumped(v, &self.activity);
    }

    fn backtrack(&mut self, level: u32) {
        if let Some(&lim) = self.trail_lim.get(level as usize) {
            for &l in &self.trail[lim..] {
                let v = l.var();
                self.assign[v as usize] = UNDEF;
                self.order.unassigned(v, &self.activity);
            }
            self.trail.truncate(lim);
            self.trail_lim.truncate(level as usize);
        }
        self.qhead = self.trail.len();
    }

    /// Attaches a learned clause and enqueues its asserting literal.
    fn learn(&mut self, learned: Vec<Lit>) {
        if learned.len() == 1 {
            self.enqueue(learned[0], Reason::None);
            return;
        }
        let ci = self.clauses.push(&learned);
        self.watches[learned[0].index()].push(ci);
        self.watches[learned[1].index()].push(ci);
        self.enqueue(learned[0], Reason::Clause(ci));
    }

    /// Lists each literal's rows, in row order (the order `add_row` saw
    /// them): a counting sort of the rows' literals.
    fn index_rows(&mut self) {
        let mut starts = vec![0u32; 2 * self.num_vars() + 1];
        for l in &self.rows.items {
            starts[l.index() + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut next = starts.clone();
        let mut items = vec![0u32; self.rows.items.len()];
        for r in 0..self.rows.len() as u32 {
            for l in self.rows.get(r) {
                items[next[l.index()] as usize] = r;
                next[l.index()] += 1;
            }
        }
        self.row_watches = Arena { items, starts };
    }

    /// Decides satisfiability, giving up after `conflict_budget`
    /// conflicts. Single-shot: call once per solver.
    pub fn solve(&mut self, conflict_budget: u64) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.index_rows();
        let mut restart_num = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = luby(restart_num) * RESTART_BASE;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    return SolveResult::Unsat;
                }
                let (learned, back_level) = self.analyze(confl);
                self.backtrack(back_level);
                self.learn(learned);
                self.var_inc /= 0.95;
                if self.stats.conflicts >= conflict_budget {
                    return SolveResult::Unknown;
                }
            } else {
                // Restart at the decision point, so the last conflict's
                // asserting literal has already propagated (the classic
                // progress guarantee: no conflict repeats immediately).
                if conflicts_since_restart >= restart_limit && self.decision_level() > 0 {
                    self.stats.restarts += 1;
                    restart_num += 1;
                    conflicts_since_restart = 0;
                    restart_limit = luby(restart_num) * RESTART_BASE;
                    self.backtrack(0);
                    continue;
                }
                let Some(v) = self.order.pick(&self.assign, &self.activity) else {
                    let model = self.assign.iter().map(|&a| a == TRUE).collect();
                    return SolveResult::Sat(model);
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.phase[v as usize] {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                };
                self.enqueue(lit, Reason::None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, SatLimits};
    use ims_core::{compute_mii, Counters};
    use ims_deps::{back_substitute, build_problem, BuildOptions};
    use ims_loopgen::corpus_of_size;
    use ims_machine::cydra;
    use ims_testkit::Xoshiro256;

    /// The solver before its decision order had two tiers and its
    /// clauses one arena, kept verbatim as the reference whose search
    /// the solver must repeat: one heap of every variable, and one `Box`
    /// per clause and per row.
    mod reference {
        use super::super::{luby, Conflict, Lit, Reason, SolveResult, SolverStats};
        use super::super::{NOT_IN_HEAP, RESTART_BASE};

        #[derive(Debug)]
        struct Clause {
            lits: Box<[Lit]>,
        }

        /// Activity-ordered max-heap of unassigned variables, ties to the
        /// smallest variable id (the determinism linchpin).
        #[derive(Debug, Default)]
        struct VarOrder {
            heap: Vec<u32>,
            /// `pos[v]` = index in `heap`, or `usize::MAX` when absent.
            pos: Vec<usize>,
        }

        impl VarOrder {
            fn better(a: u32, b: u32, activity: &[f64]) -> bool {
                let (aa, ab) = (activity[a as usize], activity[b as usize]);
                aa > ab || (aa == ab && a < b)
            }

            fn insert(&mut self, v: u32, activity: &[f64]) {
                if self.pos[v as usize] != NOT_IN_HEAP {
                    return;
                }
                self.pos[v as usize] = self.heap.len();
                self.heap.push(v);
                self.sift_up(self.heap.len() - 1, activity);
            }

            fn pop(&mut self, activity: &[f64]) -> Option<u32> {
                let top = *self.heap.first()?;
                self.pos[top as usize] = NOT_IN_HEAP;
                let last = self.heap.pop().expect("nonempty");
                if !self.heap.is_empty() {
                    self.heap[0] = last;
                    self.pos[last as usize] = 0;
                    self.sift_down(0, activity);
                }
                Some(top)
            }

            fn bumped(&mut self, v: u32, activity: &[f64]) {
                let p = self.pos[v as usize];
                if p != NOT_IN_HEAP {
                    self.sift_up(p, activity);
                }
            }

            fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
                while i > 0 {
                    let parent = (i - 1) / 2;
                    if Self::better(self.heap[i], self.heap[parent], activity) {
                        self.swap(i, parent);
                        i = parent;
                    } else {
                        break;
                    }
                }
            }

            fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
                loop {
                    let (l, r) = (2 * i + 1, 2 * i + 2);
                    let mut best = i;
                    if l < self.heap.len() && Self::better(self.heap[l], self.heap[best], activity)
                    {
                        best = l;
                    }
                    if r < self.heap.len() && Self::better(self.heap[r], self.heap[best], activity)
                    {
                        best = r;
                    }
                    if best == i {
                        return;
                    }
                    self.swap(i, best);
                    i = best;
                }
            }

            fn swap(&mut self, i: usize, j: usize) {
                self.heap.swap(i, j);
                self.pos[self.heap[i] as usize] = i;
                self.pos[self.heap[j] as usize] = j;
            }
        }

        /// The CDCL solver. See the module docs for scope and determinism.
        #[derive(Debug)]
        pub struct Solver {
            clauses: Vec<Clause>,
            /// `watches[lit.index()]` = clauses currently watching `lit`.
            watches: Vec<Vec<u32>>,
            /// At-most-one rows, each with at least two distinct literals.
            rows: Vec<Box<[Lit]>>,
            /// `row_watches[lit.index()]` = rows listing `lit`.
            row_watches: Vec<Vec<u32>>,
            /// Per variable: `None` unassigned, `Some(value)` otherwise.
            assign: Vec<Option<bool>>,
            /// Saved phase per variable; initial phase is negative.
            phase: Vec<bool>,
            level: Vec<u32>,
            reason: Vec<Reason>,
            trail: Vec<Lit>,
            trail_lim: Vec<usize>,
            qhead: usize,
            activity: Vec<f64>,
            var_inc: f64,
            order: VarOrder,
            seen: Vec<bool>,
            ok: bool,
            stats: SolverStats,
        }

        impl Solver {
            /// An empty solver with no variables or clauses.
            pub fn new() -> Solver {
                Solver {
                    clauses: Vec::new(),
                    watches: Vec::new(),
                    rows: Vec::new(),
                    row_watches: Vec::new(),
                    assign: Vec::new(),
                    phase: Vec::new(),
                    level: Vec::new(),
                    reason: Vec::new(),
                    trail: Vec::new(),
                    trail_lim: Vec::new(),
                    qhead: 0,
                    activity: Vec::new(),
                    var_inc: 1.0,
                    order: VarOrder::default(),
                    seen: Vec::new(),
                    ok: true,
                    stats: SolverStats::default(),
                }
            }

            /// Allocates a fresh variable and returns its id.
            pub fn new_var(&mut self) -> u32 {
                let v = self.assign.len() as u32;
                self.assign.push(None);
                self.phase.push(false);
                self.level.push(0);
                self.reason.push(Reason::None);
                self.activity.push(0.0);
                self.seen.push(false);
                self.watches.push(Vec::new());
                self.watches.push(Vec::new());
                self.row_watches.push(Vec::new());
                self.row_watches.push(Vec::new());
                self.order.pos.push(NOT_IN_HEAP);
                self.order.insert(v, &self.activity);
                v
            }

            /// Work/size counters of the last [`solve`](Solver::solve).
            pub fn stats(&self) -> SolverStats {
                self.stats
            }

            fn value(&self, l: Lit) -> Option<bool> {
                self.assign[l.var() as usize].map(|v| v != l.is_neg())
            }

            /// Adds a clause (must be called before [`solve`](Solver::solve)).
            /// Sorts and dedups literals; drops tautologies; an empty clause
            /// makes the instance trivially unsatisfiable.
            pub fn add_clause(&mut self, lits: &[Lit]) {
                if !self.ok {
                    return;
                }
                let mut ls: Vec<Lit> = lits.to_vec();
                ls.sort();
                ls.dedup();
                // After sorting, x and ¬x are adjacent (indices 2v, 2v+1).
                if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
                    return; // tautology
                }
                match ls.len() {
                    0 => self.ok = false,
                    1 => match self.value(ls[0]) {
                        Some(false) => self.ok = false,
                        Some(true) => {}
                        None => self.enqueue(ls[0], Reason::None),
                    },
                    _ => {
                        let ci = self.clauses.len() as u32;
                        self.watches[ls[0].index()].push(ci);
                        self.watches[ls[1].index()].push(ci);
                        self.clauses.push(Clause {
                            lits: ls.into_boxed_slice(),
                        });
                    }
                }
            }

            /// Adds an at-most-one row (must be called before
            /// [`solve`](Solver::solve)): at most one of `lits` may be true. A
            /// literal listed twice is fixed false; a row left with fewer than
            /// two distinct literals adds nothing else.
            pub fn add_row(&mut self, lits: &[Lit]) {
                if !self.ok {
                    return;
                }
                let mut ls: Vec<Lit> = lits.to_vec();
                ls.sort();
                for w in ls.windows(2) {
                    if w[0] == w[1] {
                        self.add_clause(&[!w[0]]);
                    }
                }
                ls.dedup();
                if ls.len() < 2 {
                    return;
                }
                let ri = self.rows.len() as u32;
                for &l in &ls {
                    self.row_watches[l.index()].push(ri);
                }
                self.rows.push(ls.into_boxed_slice());
            }

            fn enqueue(&mut self, l: Lit, reason: Reason) {
                let v = l.var() as usize;
                debug_assert!(self.assign[v].is_none());
                self.assign[v] = Some(!l.is_neg());
                self.phase[v] = !l.is_neg();
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(l);
            }

            /// Exhausts unit propagation; returns the clause found false.
            fn propagate(&mut self) -> Option<Conflict> {
                while self.qhead < self.trail.len() {
                    let p = self.trail[self.qhead];
                    self.qhead += 1;
                    // Every other literal of a row listing p goes false.
                    for i in 0..self.row_watches[p.index()].len() {
                        let r = self.row_watches[p.index()][i] as usize;
                        for k in 0..self.rows[r].len() {
                            let q = self.rows[r][k];
                            if q == p {
                                continue;
                            }
                            match self.value(q) {
                                Some(true) => {
                                    self.qhead = self.trail.len();
                                    return Some(Conflict::Row(p, q));
                                }
                                Some(false) => {}
                                None => {
                                    self.stats.propagations += 1;
                                    self.enqueue(!q, Reason::Row(p));
                                }
                            }
                        }
                    }
                    let false_lit = !p;
                    let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
                    let mut i = 0;
                    while i < watchers.len() {
                        let ci = watchers[i];
                        // Normalize: the false literal sits at position 1.
                        let lits = &mut self.clauses[ci as usize].lits;
                        if lits[0] == false_lit {
                            lits.swap(0, 1);
                        }
                        let first = lits[0];
                        if self.value(first) == Some(true) {
                            i += 1;
                            continue; // clause already satisfied
                        }
                        // Find a replacement watch among lits[2..].
                        let lits = &self.clauses[ci as usize].lits;
                        let replacement =
                            (2..lits.len()).find(|&k| self.value(lits[k]) != Some(false));
                        match replacement {
                            Some(k) => {
                                let lits = &mut self.clauses[ci as usize].lits;
                                lits.swap(1, k);
                                let new_watch = lits[1];
                                self.watches[new_watch.index()].push(ci);
                                watchers.swap_remove(i);
                                // swap_remove keeps `watchers` order-dependent
                                // only on clause content — deterministic.
                            }
                            None if self.value(first) == Some(false) => {
                                // Conflict: restore the remaining watchers.
                                self.watches[false_lit.index()] = watchers;
                                self.qhead = self.trail.len();
                                return Some(Conflict::Clause(ci));
                            }
                            None => {
                                self.stats.propagations += 1;
                                self.enqueue(first, Reason::Clause(ci));
                                i += 1;
                            }
                        }
                    }
                    self.watches[false_lit.index()] = watchers;
                }
                None
            }

            fn decision_level(&self) -> u32 {
                self.trail_lim.len() as u32
            }

            /// First-UIP conflict analysis. Returns the learned clause (asserting
            /// literal first) and the level to backjump to.
            fn analyze(&mut self, confl: Conflict) -> (Vec<Lit>, u32) {
                let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
                let mut counter = 0u32;
                let mut trail_index = self.trail.len();
                // The clause being resolved, less the literal it propagated: all
                // of the conflict, then each reason but its first literal.
                let mut lits: Vec<Lit> = match confl {
                    Conflict::Clause(ci) => self.clauses[ci as usize].lits.to_vec(),
                    Conflict::Row(p, q) => vec![!p, !q],
                };

                loop {
                    for &q in &lits {
                        let v = q.var() as usize;
                        if self.seen[v] || self.level[v] == 0 {
                            continue;
                        }
                        self.seen[v] = true;
                        if self.level[v] == self.decision_level() {
                            counter += 1;
                        } else {
                            learned.push(q);
                        }
                    }
                    for &q in &lits {
                        self.bump(q.var());
                    }

                    // Walk the trail to the next marked literal.
                    loop {
                        trail_index -= 1;
                        if self.seen[self.trail[trail_index].var() as usize] {
                            break;
                        }
                    }
                    let q = self.trail[trail_index];
                    let v = q.var() as usize;
                    self.seen[v] = false;
                    counter -= 1;
                    if counter == 0 {
                        learned[0] = !q; // the first UIP, asserted by the clause
                        break;
                    }
                    lits.clear();
                    match self.reason[v] {
                        Reason::Clause(ci) => {
                            lits.extend_from_slice(&self.clauses[ci as usize].lits[1..])
                        }
                        Reason::Row(p) => lits.push(!p),
                        Reason::None => unreachable!("a marked literal above the UIP has a reason"),
                    }
                }

                for l in &learned[1..] {
                    self.seen[l.var() as usize] = false;
                }

                // Backjump level: the highest level among the non-asserting lits;
                // move that literal to index 1 so it is watched after attach.
                let mut back_level = 0;
                if learned.len() > 1 {
                    let mut max_i = 1;
                    for (i, l) in learned.iter().enumerate().skip(1) {
                        if self.level[l.var() as usize] > self.level[learned[max_i].var() as usize]
                        {
                            max_i = i;
                        }
                    }
                    learned.swap(1, max_i);
                    back_level = self.level[learned[1].var() as usize];
                }
                (learned, back_level)
            }

            fn bump(&mut self, v: u32) {
                self.activity[v as usize] += self.var_inc;
                if self.activity[v as usize] > 1e100 {
                    for a in &mut self.activity {
                        *a *= 1e-100;
                    }
                    self.var_inc *= 1e-100;
                }
                self.order.bumped(v, &self.activity);
            }

            fn backtrack(&mut self, level: u32) {
                while self.trail_lim.len() as u32 > level {
                    let lim = self.trail_lim.pop().expect("level > 0");
                    while self.trail.len() > lim {
                        let l = self.trail.pop().expect("trail above limit");
                        let v = l.var();
                        self.assign[v as usize] = None;
                        self.reason[v as usize] = Reason::None;
                        self.order.insert(v, &self.activity);
                    }
                }
                self.qhead = self.trail.len();
            }

            /// Attaches a learned clause and enqueues its asserting literal.
            fn learn(&mut self, learned: Vec<Lit>) {
                if learned.len() == 1 {
                    self.enqueue(learned[0], Reason::None);
                    return;
                }
                let ci = self.clauses.len() as u32;
                self.watches[learned[0].index()].push(ci);
                self.watches[learned[1].index()].push(ci);
                let first = learned[0];
                self.clauses.push(Clause {
                    lits: learned.into_boxed_slice(),
                });
                self.enqueue(first, Reason::Clause(ci));
            }

            /// Decides satisfiability, giving up after `conflict_budget`
            /// conflicts. Single-shot: call once per solver.
            pub fn solve(&mut self, conflict_budget: u64) -> SolveResult {
                if !self.ok {
                    return SolveResult::Unsat;
                }
                let mut restart_num = 0u64;
                let mut conflicts_since_restart = 0u64;
                let mut restart_limit = luby(restart_num) * RESTART_BASE;

                loop {
                    if let Some(confl) = self.propagate() {
                        self.stats.conflicts += 1;
                        conflicts_since_restart += 1;
                        if self.decision_level() == 0 {
                            return SolveResult::Unsat;
                        }
                        let (learned, back_level) = self.analyze(confl);
                        self.backtrack(back_level);
                        self.learn(learned);
                        self.var_inc /= 0.95;
                        if self.stats.conflicts >= conflict_budget {
                            return SolveResult::Unknown;
                        }
                    } else {
                        // Restart at the decision point, so the last conflict's
                        // asserting literal has already propagated (the classic
                        // progress guarantee: no conflict repeats immediately).
                        if conflicts_since_restart >= restart_limit && self.decision_level() > 0 {
                            self.stats.restarts += 1;
                            restart_num += 1;
                            conflicts_since_restart = 0;
                            restart_limit = luby(restart_num) * RESTART_BASE;
                            self.backtrack(0);
                            continue;
                        }
                        // Pick the highest-activity unassigned variable.
                        let v = loop {
                            match self.order.pop(&self.activity) {
                                Some(v) if self.assign[v as usize].is_none() => break Some(v),
                                Some(_) => continue,
                                None => break None,
                            }
                        };
                        let Some(v) = v else {
                            let model = self
                                .assign
                                .iter()
                                .map(|a| a.expect("all vars assigned at SAT"))
                                .collect();
                            return SolveResult::Sat(model);
                        };
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = if self.phase[v as usize] {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        };
                        self.enqueue(lit, Reason::None);
                    }
                }
            }
        }
    }

    /// A formula as the calls that add it: its variables, then its
    /// clauses, then its rows.
    #[derive(Default)]
    struct Formula {
        vars: u32,
        clauses: Vec<Vec<Lit>>,
        rows: Vec<Vec<Lit>>,
    }

    impl Formula {
        fn solver(&self) -> Solver {
            let mut s = Solver::new();
            for _ in 0..self.vars {
                s.new_var();
            }
            self.clauses.iter().for_each(|c| s.add_clause(c));
            self.rows.iter().for_each(|r| s.add_row(r));
            s
        }

        fn reference(&self) -> reference::Solver {
            let mut s = reference::Solver::new();
            for _ in 0..self.vars {
                s.new_var();
            }
            self.clauses.iter().for_each(|c| s.add_clause(c));
            self.rows.iter().for_each(|r| s.add_row(r));
            s
        }

        /// What a solver holds before its search, as calls that rebuild
        /// it: its level-0 units in trail order, its clauses and its
        /// rows. Units never touch the clause and row lists, so adding
        /// them first changes nothing.
        fn of(s: &Solver) -> Formula {
            assert!(s.ok && s.trail_lim.is_empty(), "a solver before its search");
            let units = s.trail.iter().map(|&l| vec![l]);
            let lists = |a: &Arena<Lit>| {
                (0..a.len() as u32)
                    .map(|i| a.get(i).to_vec())
                    .collect::<Vec<_>>()
            };
            Formula {
                vars: s.num_vars() as u32,
                clauses: units.chain(lists(&s.clauses)).collect(),
                rows: lists(&s.rows),
            }
        }
    }

    /// Solves `f` with both solvers and requires the same answer, model
    /// and all four counters. Returns the answer and the solver.
    fn same_search(f: &Formula, budget: u64) -> (SolveResult, Solver) {
        let (mut s, mut r) = (f.solver(), f.reference());
        let got = s.solve(budget);
        assert_eq!(got, r.solve(budget), "answer or model");
        assert_eq!(s.stats(), r.stats(), "counters");
        (got, s)
    }

    fn nvars(s: &mut Solver, n: u32) -> Vec<u32> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn luby_series_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_instances() {
        // Empty formula: SAT with the empty model.
        assert_eq!(Solver::new().solve(u64::MAX), SolveResult::Sat(vec![]));

        // x ∧ ¬x: UNSAT via conflicting units.
        let mut s = Solver::new();
        let x = s.new_var();
        s.add_clause(&[Lit::pos(x)]);
        s.add_clause(&[Lit::neg(x)]);
        assert_eq!(s.solve(u64::MAX), SolveResult::Unsat);

        // (x ∨ y) ∧ ¬x forces y.
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[0])]);
        match s.solve(u64::MAX) {
            SolveResult::Sat(m) => {
                assert!(!m[0] && m[1]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }

        // A tautology is dropped, not misread as a constraint.
        let mut s = Solver::new();
        let x = s.new_var();
        s.add_clause(&[Lit::pos(x), Lit::neg(x)]);
        assert_eq!(s.num_clauses(), 0);
        assert!(matches!(s.solve(u64::MAX), SolveResult::Sat(_)));
    }

    /// `n+1` pigeons in `n` holes: the classic resolution-hard UNSAT
    /// family. n=5 forces real conflict-clause learning (36 variables,
    /// hundreds of conflicts) while staying fast. Each hole's at-most-one
    /// is pairwise clauses, or one row when `rows`.
    fn pigeonhole(n: usize, rows: bool) -> Formula {
        let mut f = Formula {
            vars: ((n + 1) * n) as u32,
            ..Formula::default()
        };
        let var = |p: usize, h: usize| (p * n + h) as u32;
        for p in 0..=n {
            f.clauses
                .push((0..n).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..n {
            if rows {
                f.rows.push((0..=n).map(|p| Lit::pos(var(p, h))).collect());
                continue;
            }
            for p1 in 0..=n {
                for p2 in (p1 + 1)..=n {
                    f.clauses
                        .push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        f
    }

    #[test]
    fn pigeonhole_is_unsat_and_deterministic() {
        for rows in [false, true] {
            let mut a = pigeonhole(5, rows).solver();
            assert_eq!(a.solve(1 << 20), SolveResult::Unsat);
            assert!(
                a.stats().conflicts > 50,
                "PHP(5) needs learning: {:?}",
                a.stats()
            );

            // Bit-for-bit reproducible stats on a rerun, which also
            // makes the reference's search.
            let (answer, b) = same_search(&pigeonhole(5, rows), 1 << 20);
            assert_eq!(answer, SolveResult::Unsat);
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        let mut s = pigeonhole(7, false).solver();
        assert_eq!(s.solve(10), SolveResult::Unknown);
        assert_eq!(s.stats().conflicts, 10);
    }

    /// Seed-replayed random 3-CNF plus a few at-most-one rows,
    /// answer-checked against brute force. Small enough to enumerate (12
    /// vars), dense enough (clause/var ratio swept through the ~4.26 phase
    /// transition) that both SAT and UNSAT instances occur and learning
    /// actually fires. Every fourth seed lists a row literal twice, which
    /// must then be false.
    #[test]
    fn random_cnf_agrees_with_brute_force() {
        const VARS: u32 = 12;
        let random_lit = |rng: &mut ims_testkit::Xoshiro256| {
            let r = rng.next_u64();
            let v = (r % VARS as u64) as u32;
            if r & (1 << 32) == 0 {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            }
        };
        let mut sat_seen = 0;
        let mut unsat_seen = 0;
        for seed in 0..120u64 {
            let mut rng = ims_testkit::Xoshiro256::seed_from_u64(0xC4F5_0000 + seed);
            let num_clauses = 36 + (seed % 30) as usize; // ratio 3.0 ..= 5.4
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| (0..3).map(|_| random_lit(&mut rng)).collect())
                .collect();
            let rows: Vec<Vec<Lit>> = (0..1 + seed % 3)
                .map(|r| {
                    let len = 2 + rng.next_u64() % 3;
                    let mut row: Vec<Lit> = (0..len).map(|_| random_lit(&mut rng)).collect();
                    if r == 0 && seed % 4 == 0 {
                        row.push(row[1]);
                    }
                    row
                })
                .collect();
            // Both checks count a literal listed twice twice.
            let holds = |c: &[Lit], value: &dyn Fn(Lit) -> bool| c.iter().any(|&l| value(l));
            let fits = |r: &[Lit], value: &dyn Fn(Lit) -> bool| {
                r.iter().filter(|&&l| value(l)).count() <= 1
            };

            let brute = (0u32..1 << VARS).any(|m| {
                let value = |l: Lit| (m >> l.var()) & 1 == u32::from(!l.is_neg());
                clauses.iter().all(|c| holds(c, &value)) && rows.iter().all(|r| fits(r, &value))
            });

            let mut s = Solver::new();
            nvars(&mut s, VARS);
            for c in &clauses {
                s.add_clause(c);
            }
            for r in &rows {
                s.add_row(r);
            }
            match s.solve(u64::MAX) {
                SolveResult::Sat(model) => {
                    assert!(brute, "seed {seed}: solver SAT but brute force says UNSAT");
                    let value = |l: Lit| model[l.var() as usize] != l.is_neg();
                    for c in &clauses {
                        assert!(holds(c, &value), "seed {seed}: model violates {c:?}");
                    }
                    for r in &rows {
                        assert!(fits(r, &value), "seed {seed}: model violates row {r:?}");
                    }
                    sat_seen += 1;
                }
                SolveResult::Unsat => {
                    assert!(
                        !brute,
                        "seed {seed}: solver UNSAT but brute force found a model"
                    );
                    unsat_seen += 1;
                }
                SolveResult::Unknown => panic!("seed {seed}: unlimited budget hit"),
            }
        }
        assert!(
            sat_seen > 10 && unsat_seen > 10,
            "sweep must cover both answers ({sat_seen} SAT, {unsat_seen} UNSAT)"
        );
    }

    /// Regression for 1-UIP learning: a chain where the learned clause
    /// must assert at a lower level, exercising backjumping past
    /// intermediate decision levels.
    #[test]
    fn learned_clause_backjumps() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 6);
        // Decisions will go x0=F, x1=F, x2=F (phase-saving default).
        // These clauses make the x2 branch conflict in a way whose 1-UIP
        // clause involves only x0's level, forcing a long backjump.
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[3])]); // ¬x0 → x3
        s.add_clause(&[Lit::neg(v[3]), Lit::pos(v[2]), Lit::pos(v[4])]); // x3∧¬x2 → x4
        s.add_clause(&[Lit::neg(v[3]), Lit::pos(v[2]), Lit::pos(v[5])]); // x3∧¬x2 → x5
        s.add_clause(&[Lit::neg(v[4]), Lit::neg(v[5])]); // ¬(x4∧x5)
        let SolveResult::Sat(m) = s.solve(u64::MAX) else {
            panic!("satisfiable chain");
        };
        assert!(s.stats().conflicts >= 1, "the x2 branch must conflict");
        // Model respects every clause.
        let val = |l: Lit| m[l.var() as usize] != l.is_neg();
        assert!(val(Lit::pos(v[0])) || val(Lit::pos(v[3])));
        assert!(!val(Lit::pos(v[4])) || !val(Lit::pos(v[5])));
        let _ = v[1];
    }

    /// Seeded random formulas: clauses of one to four literals and rows
    /// that may list a literal twice, dense enough for SAT and UNSAT
    /// answers, and some runs cut short by a small conflict budget.
    #[test]
    fn random_formulas_search_as_the_reference_does() {
        let mut answers = [0u32; 3]; // Sat, Unsat, Unknown
        let mut deep = 0;
        for seed in 0..300u64 {
            let mut rng = Xoshiro256::seed_from_u64(0x5EA2_0000 + seed);
            let vars = 40 + (rng.next_u64() % 60) as u32;
            let lit = |rng: &mut Xoshiro256| {
                let r = rng.next_u64();
                let v = (r % u64::from(vars)) as u32;
                if r & (1 << 32) == 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            };
            let mut f = Formula {
                vars,
                ..Formula::default()
            };
            // Clause/variable ratio 3.8 ..= 4.7, lengths mostly 3.
            for _ in 0..u64::from(vars) * (38 + seed % 10) / 10 {
                let len = match rng.next_u64() % 1024 {
                    0 => 1,
                    1..=8 => 2,
                    9..=960 => 3,
                    _ => 4,
                };
                f.clauses.push((0..len).map(|_| lit(&mut rng)).collect());
            }
            for _ in 0..rng.next_u64() % 4 {
                let mut row: Vec<Lit> =
                    (0..2 + rng.next_u64() % 3).map(|_| lit(&mut rng)).collect();
                if rng.next_u64().is_multiple_of(3) {
                    row.push(row[0]);
                }
                f.rows.push(row);
            }
            let budget = if seed % 3 == 0 {
                1 + rng.next_u64() % 50
            } else {
                u64::MAX
            };
            let (answer, s) = same_search(&f, budget);
            answers[match answer {
                SolveResult::Sat(_) => 0,
                SolveResult::Unsat => 1,
                SolveResult::Unknown => 2,
            }] += 1;
            deep += u32::from(s.stats().conflicts >= 50);
        }
        assert!(
            answers.iter().all(|&n| n >= 30) && deep >= 30,
            "the sweep must cover every answer (SAT, UNSAT, Unknown) and \
             searches of 50 conflicts or more: {answers:?}, {deep} deep"
        );
    }

    /// A rescale multiplies every activity by 1e−100, and rounding can
    /// make two different activities equal. The reference does not
    /// re-sort its heap then, so it may decide on the larger id of such
    /// a pair; `VarOrder` re-sorts its heap and decides on the smaller.
    /// The two searches agree as long as no rescale makes such a tie, as
    /// on this formula. No decision pinned by the golden lines comes
    /// near a rescale: the largest takes 1,686 conflicts.
    #[test]
    fn a_search_past_an_activity_rescale_matches_the_reference() {
        let (got, s) = same_search(&pigeonhole(8, false), 5_000);
        assert_eq!(got, SolveResult::Unknown);
        // `var_inc` grows by 1/0.95 a conflict, and each rescale divides
        // it by 1e100.
        let unscaled = (1.0 / 0.95f64).powf(s.stats().conflicts as f64);
        assert!(
            s.var_inc < unscaled * 1e-50,
            "no rescale in {:?}",
            s.stats()
        );
    }

    /// The encoded decisions of four corpus loops that reach the solver
    /// in `corpus --budget 2 --backend sat`, each at its MII, where it
    /// is satisfiable.
    #[test]
    fn encoded_corpus_decisions_search_as_the_reference_does() {
        let corpus = corpus_of_size(0xC4D5, 1236);
        let machine = cydra();
        let limits = SatLimits {
            conflict_budget: 1 << 18,
            clause_limit: 2_000_000,
            slot_limit: 65_536,
        };
        for i in [4, 390, 791, 1235] {
            let body = back_substitute(&corpus.loops[i].body, &machine);
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let ii = compute_mii(&problem, &mut Counters::default()).mii;
            let Ok(encoding) = encode(&problem, ii, &limits, &mut 0u64) else {
                panic!("loop {i}: II {ii} reaches the solver");
            };
            let mut solver = encoding.solver;
            let (got, _) = same_search(&Formula::of(&solver), limits.conflict_budget);
            assert!(matches!(got, SolveResult::Sat(_)), "loop {i}: {got:?}");
            assert!(
                solver.solve(limits.conflict_budget) == got,
                "loop {i}: Formula::of"
            );
            assert!(
                solver.stats().conflicts > 10,
                "loop {i}: {:?}",
                solver.stats()
            );
        }
    }
}
