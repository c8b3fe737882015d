//! The per-candidate-II branch-and-bound search.
//!
//! One call to [`search_ii`] answers, exhaustively, the question "does a
//! legal modulo schedule exist at this II?" — the primitive the exact
//! scheduler walks upward from the MII. The search is organised so that
//! every pruning rule is *sound* (never discards a feasible completion):
//!
//! * **Recurrence bounding.** The full-graph MinDist matrix at the
//!   candidate II (the same max-plus machinery RecMII uses) turns every
//!   dependence chain into a two-sided time window: a scheduled operation
//!   `u` at time `t_u` forces `t_u + MinDist[u,v] ≤ t_v ≤ t_u −
//!   MinDist[v,u]` for every other operation `v`. A positive diagonal
//!   proves the II infeasible before any search.
//! * **SCC-block ordering.** Operations are scheduled one strongly
//!   connected component at a time, components in topological order of the
//!   condensation, within a component by MinDist-to-STOP height. Every
//!   cross-component edge therefore runs from a scheduled to an
//!   unscheduled operation, which makes the windows below *complete*.
//! * **Finite windows.** A non-first member of a component has a
//!   scheduled component-mate on a cycle with it, so its window is finite
//!   in both directions. For the first member `v` of a component, any
//!   feasible completion can be shifted down by whole multiples of the II
//!   (cross-component constraints are lower bounds only, and the modulo
//!   reservation rows are invariant under ±II shifts) until some member
//!   `m` is within II−1 of its own dependence lower bound `lb(m)`; hence
//!   `t_v ≤ max_m (lb(m) + II − 1 − MinDist[v,m])` and the window is
//!   finite — exactly II slots for a singleton component.
//! * **MRT conflict pruning.** A slot/alternative pair is branched on
//!   only if the modulo reservation table admits it ([`Mrt::conflicts`]).
//! * **Failed-state memoization.** When a subtree is exhausted without a
//!   schedule, the state is recorded under an *exact* key — depth, the
//!   times of every scheduled operation still related (via MinDist, in
//!   either direction) to some unscheduled one, and the MRT occupancy
//!   bitmask. Equal keys have identical remaining subproblems, so a hit
//!   is a sound infeasibility proof; no hash-collision pruning is
//!   performed, and when the table reaches its capacity it simply stops
//!   growing (still sound, just fewer hits).
//!
//! Search effort is metered in **nodes** (placements tried). The caller
//! supplies a node budget; exceeding it aborts the search with
//! [`Decision::LimitHit`], in which case infeasibility has *not* been
//! proven.

use std::collections::HashSet;

use ims_core::{Mrt, Problem, Schedule};
use ims_graph::{sccs, MinDist, MinDistSolver, NodeId, NEG_INF};
use ims_prof::{phase, ProfSink};

use crate::Decision;

/// Memoization key for a failed partial schedule. Exact equality only —
/// two states with equal keys have identical sets of feasible
/// completions, so membership is a sound infeasibility proof.
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    depth: u32,
    /// Times of the scheduled operations still MinDist-related to some
    /// unscheduled operation, in scheduling order.
    times: Box<[i64]>,
    /// MRT occupancy bitset (a copy of [`Mrt::occupancy_words`]).
    occ: Box<[u64]>,
}

/// Cap on memo entries; beyond this the table stops growing (sound).
const MEMO_CAP: usize = 1 << 20;

struct Dfs<'a, 'm> {
    problem: &'a Problem<'m>,
    md: &'a MinDist,
    order: &'a [NodeId],
    /// For the first-scheduled member of each SCC: the component's real
    /// operations (including itself); `None` for later members.
    first_members: &'a [Option<Vec<NodeId>>],
    /// Per depth: positions (into `order`) of scheduled operations still
    /// related to an unscheduled one — the memo key's time vector.
    relevant: &'a [Vec<usize>],
    ii: i64,
    start: NodeId,
    /// The MRT maintains its own occupancy bitset; memo keys copy it via
    /// [`Mrt::occupancy_words`], and probes AND the machine's precompiled
    /// conflict masks against it.
    mrt: Mrt,
    time: Vec<i64>,
    alt: Vec<usize>,
    nodes: u64,
    node_budget: u64,
    memo: HashSet<MemoKey>,
    /// Deterministic search statistics, flushed to the caller's
    /// [`ProfSink`] when the search returns.
    memo_hits: u64,
    memo_inserts: u64,
    prune_window: u64,
    prune_mrt: u64,
}

impl Dfs<'_, '_> {
    /// The feasible issue window for the operation at `depth`, or `None`
    /// when the dependence constraints alone rule every slot out.
    fn window(&self, depth: usize) -> Option<(i64, i64)> {
        let v = self.order[depth];
        let mut lo = 0i64;
        let mut hi = i64::MAX / 4;
        let d_sv = self.md.get(self.start, v); // START issues at 0
        if d_sv > lo {
            lo = d_sv;
        }
        for p in 0..depth {
            let u = self.order[p];
            let tu = self.time[u.index()];
            let duv = self.md.get(u, v);
            if duv != NEG_INF && tu + duv > lo {
                lo = tu + duv;
            }
            let dvu = self.md.get(v, u);
            if dvu != NEG_INF && tu - dvu < hi {
                hi = tu - dvu;
            }
        }
        if let Some(members) = &self.first_members[depth] {
            // Shift-by-II completeness cap (see module docs): a feasible
            // completion can be slid down until some member m sits within
            // II−1 of its dependence lower bound.
            let mut cap = i64::MIN;
            for &m in members {
                let mut lbm = 0i64;
                let dsm = self.md.get(self.start, m);
                if dsm > lbm {
                    lbm = dsm;
                }
                for p in 0..depth {
                    let u = self.order[p];
                    let dum = self.md.get(u, m);
                    if dum != NEG_INF && self.time[u.index()] + dum > lbm {
                        lbm = self.time[u.index()] + dum;
                    }
                }
                let t = if m == v {
                    lbm + self.ii - 1
                } else {
                    lbm + self.ii - 1 - self.md.get(v, m)
                };
                if t > cap {
                    cap = t;
                }
            }
            if cap < hi {
                hi = cap;
            }
        }
        debug_assert!(hi < i64::MAX / 8, "window never left unbounded");
        if lo > hi {
            None
        } else {
            Some((lo, hi))
        }
    }

    fn memo_key(&self, depth: usize) -> MemoKey {
        MemoKey {
            depth: depth as u32,
            times: self.relevant[depth]
                .iter()
                .map(|&p| self.time[self.order[p].index()])
                .collect(),
            occ: self.mrt.occupancy_words().into(),
        }
    }

    fn note_failed(&mut self, depth: usize) {
        if depth > 0 && self.memo.len() < MEMO_CAP {
            let key = self.memo_key(depth);
            if self.memo.insert(key) {
                self.memo_inserts += 1;
            }
        }
    }

    fn place(&mut self, v: NodeId, ai: usize, t: i64) {
        let problem = self.problem;
        let mask = problem
            .info(v)
            .expect("order holds real operations")
            .alternatives[ai]
            .mask();
        self.mrt.place(v, mask, t);
        self.time[v.index()] = t;
        self.alt[v.index()] = ai;
    }

    fn unplace(&mut self, v: NodeId, ai: usize, t: i64) {
        let problem = self.problem;
        let mask = problem
            .info(v)
            .expect("order holds real operations")
            .alternatives[ai]
            .mask();
        self.mrt.remove(v, mask, t);
    }

    /// `Some(true)`: schedule found (placements left in `time`/`alt`).
    /// `Some(false)`: subtree exhausted, no schedule. `None`: limit hit.
    fn dfs(&mut self, depth: usize) -> Option<bool> {
        if depth == self.order.len() {
            return Some(true);
        }
        if depth > 0 && self.memo.contains(&self.memo_key(depth)) {
            self.memo_hits += 1;
            return Some(false);
        }
        let Some((lo, hi)) = self.window(depth) else {
            self.prune_window += 1;
            self.note_failed(depth);
            return Some(false);
        };
        let v = self.order[depth];
        let n_alts = self
            .problem
            .info(v)
            .expect("order holds real operations")
            .alternatives
            .len();
        for t in lo..=hi {
            for ai in 0..n_alts {
                let mask = self.problem.info(v).expect("real operation").alternatives[ai].mask();
                if self.mrt.conflicts(mask, t) {
                    self.prune_mrt += 1;
                    continue;
                }
                self.nodes += 1;
                if self.nodes > self.node_budget {
                    return None;
                }
                self.place(v, ai, t);
                let sub = self.dfs(depth + 1);
                match sub {
                    Some(true) => return Some(true),
                    Some(false) => self.unplace(v, ai, t),
                    None => {
                        self.unplace(v, ai, t);
                        return None;
                    }
                }
            }
        }
        self.note_failed(depth);
        Some(false)
    }
}

/// Exhaustively decides feasibility of `problem` at candidate `ii`,
/// spending at most `node_budget` placement attempts. Returns the result
/// plus the nodes actually spent.
///
/// Deterministic search statistics — nodes, memoization hits/inserts,
/// prune reasons, MinDist/SCC/MRT work — flow into `prof` under their
/// [`phase`] names; pass `&mut NullSink` to discard them.
pub(crate) fn search_ii<P: ProfSink>(
    problem: &Problem<'_>,
    ii: i64,
    node_budget: u64,
    prof: &mut P,
) -> (Decision, u64) {
    let graph = problem.graph();
    let all: Vec<NodeId> = graph.nodes().collect();
    let md = MinDistSolver::new(graph, &all).solve(ii, &mut *prof);
    if !md.feasible() {
        // A positive MinDist diagonal is already a proof: no schedule
        // exists at this II regardless of resources.
        return (Decision::Infeasible, 0);
    }

    let start = problem.start();
    let stop = problem.stop();
    let info = sccs(graph, &mut *prof);

    // Scheduling order: SCC blocks in topological (sources-first) order
    // of the condensation; within a block by MinDist-to-STOP height
    // descending, ties to the smaller node id.
    let mut order: Vec<NodeId> = Vec::new();
    let mut first_members: Vec<Option<Vec<NodeId>>> = Vec::new();
    for comp in info.topological() {
        let mut ops: Vec<NodeId> = comp
            .iter()
            .copied()
            .filter(|&v| v != start && v != stop)
            .collect();
        if ops.is_empty() {
            continue;
        }
        ops.sort_by(|&a, &b| md.get(b, stop).cmp(&md.get(a, stop)).then(a.cmp(&b)));
        for (k, &v) in ops.iter().enumerate() {
            first_members.push(if k == 0 { Some(ops.clone()) } else { None });
            order.push(v);
        }
    }
    let n = order.len();

    // Memo relevance: at depth d, a scheduled position p matters iff it
    // is still MinDist-related (either direction) to some operation not
    // yet scheduled.
    let related = |a: NodeId, b: NodeId| md.get(a, b) != NEG_INF || md.get(b, a) != NEG_INF;
    let mut relevant: Vec<Vec<usize>> = Vec::with_capacity(n + 1);
    for d in 0..=n {
        let mut rel = Vec::new();
        for p in 0..d {
            if (d..n).any(|q| related(order[p], order[q])) {
                rel.push(p);
            }
        }
        relevant.push(rel);
    }

    let nres = problem.machine().num_resources();
    let mut dfs = Dfs {
        problem,
        md: &md,
        order: &order,
        first_members: &first_members,
        relevant: &relevant,
        ii,
        start,
        mrt: Mrt::new(ii, nres),
        time: vec![0i64; graph.num_nodes()],
        alt: vec![0usize; graph.num_nodes()],
        nodes: 0,
        node_budget,
        memo: HashSet::new(),
        memo_hits: 0,
        memo_inserts: 0,
        prune_window: 0,
        prune_mrt: 0,
    };

    let outcome = dfs.dfs(0);

    prof.count(phase::EXACT_NODES, dfs.nodes);
    prof.count(phase::EXACT_MEMO_HITS, dfs.memo_hits);
    prof.count(phase::EXACT_MEMO_INSERTS, dfs.memo_inserts);
    prof.count(phase::EXACT_PRUNE_WINDOW, dfs.prune_window);
    prof.count(phase::EXACT_PRUNE_MRT, dfs.prune_mrt);
    prof.count(phase::MACHINE_MRT_PROBES, dfs.mrt.probes());

    match outcome {
        Some(true) => {
            let mut time = dfs.time;
            let alternative = dfs.alt;
            time[start.index()] = 0;
            // STOP is resource-free: place it at the earliest slot every
            // incoming dependence admits (clamped at 0).
            let mut t_stop = 0i64;
            for e in graph.preds(stop) {
                if e.from == stop {
                    continue;
                }
                let tf = time[e.from.index()];
                let term = tf + e.delay - ii * e.distance as i64;
                if term > t_stop {
                    t_stop = term;
                }
            }
            time[stop.index()] = t_stop;
            (
                Decision::Feasible(Schedule {
                    ii,
                    time,
                    alternative,
                    length: t_stop,
                }),
                dfs.nodes,
            )
        }
        Some(false) => (Decision::Infeasible, dfs.nodes),
        None => (Decision::LimitHit, dfs.nodes),
    }
}
