//! CNF encoding of "does a legal modulo schedule exist at this II?".
//!
//! One call to [`decide_ii`] plays the same role as the exact backend's
//! `search_ii`: an exhaustive decision procedure for a single candidate
//! II, here by reduction to SAT. The encoding (specified in DESIGN.md
//! §5f) has three variable families per real operation `v`:
//!
//! * **Time ladder** `g_{v,k}` ⟺ `t_v ≥ lo_v + k` (order encoding).
//!   The issue window `[lo_v, ub_v]` is *static*: `lo_v = MinDist[START,
//!   v]`, and `ub_v` comes from the same shift-by-II normalization
//!   argument the branch-and-bound search uses, applied per SCC of the
//!   condensation in topological order — any feasible schedule can be
//!   slid, one component at a time, into these boxes (see
//!   [`windows`]). A ladder-consistent assignment of the `g` bits *is* a
//!   time in the window; no at-most-one constraints are needed.
//! * **Alternative choice** `z_{v,a}`, exactly-one per operation (only
//!   materialized when the opcode has ≥ 2 reservation alternatives).
//! * **Modulo occupancy** `m_{v,s,a}` ⟺ "`v` issues at a time ≡ `s`
//!   (mod II) using alternative `a`", channeled one-directionally from
//!   the ladder: `(t_v = t) ∧ z_{v,a} → m_{v, t mod II, a}`. One
//!   direction suffices: in any model the `m` bits of the *decoded*
//!   placement are forced true, so the resource rows below bind, and
//!   spuriously-true `m` bits only over-constrain.
//!
//! Constraint families:
//!
//! 1. ladder coherence `g_{k+1} → g_k`;
//! 2. exactly-one alternative (pairwise at-most-one);
//! 3. channeling as above;
//! 4. **dependences**, one binary ladder implication per edge threshold:
//!    for `u →(delay,dist) v` and every `j` in `u`'s window,
//!    `t_u ≥ lo_u + j → t_v ≥ lo_u + j + delay − II·dist` — linear in
//!    window width, not quadratic;
//! 5. **resource conflicts**, as the solver's at-most-one rows, not
//!    clauses: one row per (resource, MRT row), listing every `m_{v,s,a}`
//!    whose alternative `a` reserves that resource at an offset `o` with
//!    `(s + o) mod II` equal to the row. That is the modulo reservation
//!    table's semantics exactly, so SAT and branch-and-bound agree on
//!    feasibility by construction. An alternative whose own uses of a
//!    resource meet on one row lists its bit there twice, which fixes
//!    that placement off. Rows add no variable.
//!
//! The clause cap ([`SatLimits::clause_limit`]) covers Families 1–4 plus
//! the binary clauses the rows imply between distinct operations: the
//! colliding pairs `(m_{u,s,a}, m_{v,s',b})`, counted from the
//! reservation tables of each pair of alternatives by
//! [`colliding_pairs`] without being built. Counting pairs rather than
//! rows keeps the cap on the largest decisions, whose search can take
//! seconds even though their rows are small.
//!
//! Determinism: variables are allocated in node-id order (ladders, then
//! alternatives, then occupancy slots ascending), clauses in the fixed
//! family order above, rows in (resource, MRT row) order, and the solver
//! itself is deterministic — so the whole decision, including every
//! statistic, is byte-reproducible at any thread count.

use ims_core::{Problem, Schedule};
use ims_exact::Decision;
use ims_graph::{sccs, MinDist, MinDistSolver, NodeId, NEG_INF};
use ims_prof::{phase, ProfSink};

use crate::solver::{Lit, SolveResult, Solver};

/// Size/effort caps for one per-II decision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SatLimits {
    /// Solver conflict budget for this II.
    pub conflict_budget: u64,
    /// Abort encoding when the clauses plus the rows' colliding pairs
    /// pass this.
    pub clause_limit: u64,
    /// Abort encoding when the summed window width passes this.
    pub slot_limit: u64,
}

/// A literal-or-constant, for window-clipped threshold lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TriLit {
    True,
    False,
    Is(Lit),
}

/// Per-operation encoding state.
struct OpEnc {
    node: NodeId,
    lo: i64,
    /// Window width `ub − lo + 1`.
    width: i64,
    /// `g[k-1]` ⟺ `t ≥ lo + k`, for `k = 1 .. width−1`.
    g: Vec<u32>,
    /// Alternative vars (empty when the op has one alternative).
    z: Vec<u32>,
    /// Per alternative: `(slot, var)` sorted by slot ascending.
    m: Vec<Vec<(i64, u32)>>,
}

impl OpEnc {
    /// The literal (or constant) for `t ≥ y`.
    fn ge(&self, y: i64) -> TriLit {
        if y <= self.lo {
            TriLit::True
        } else if y >= self.lo + self.width {
            TriLit::False
        } else {
            TriLit::Is(Lit::pos(self.g[(y - self.lo - 1) as usize]))
        }
    }

    /// The occupancy var for `(slot, alternative)`, if that slot is
    /// reachable from this op's window.
    fn m_var(&self, alt: usize, slot: i64) -> Option<u32> {
        let list = &self.m[alt];
        list.binary_search_by_key(&slot, |&(s, _)| s)
            .ok()
            .map(|i| list[i].1)
    }

    /// How many of this op's occupancy slots `s` have `(s + delta) mod
    /// II` among `other`'s. Each op's slots are the cyclic run of
    /// `min(width, II)` slots from `lo mod II`.
    fn slots_meeting(&self, other: &OpEnc, delta: i64, ii: i64) -> u64 {
        let (ours, theirs) = (self.width.min(ii), other.width.min(ii));
        // With `other`'s run at 0 .. theirs, ours covers d .. d + ours,
        // wrapping past II at most once.
        let d = (self.lo + delta - other.lo).rem_euclid(ii);
        let before_wrap = ((d + ours).min(theirs) - d).max(0);
        let after_wrap = (d + ours - ii).min(theirs).max(0);
        (before_wrap + after_wrap) as u64
    }
}

/// The number of colliding occupancy pairs `(m_{u,s,a}, m_{v,s',b})` of
/// distinct operations, counted until it passes `cap`: alternatives `a`
/// and `b` collide at `s' ≡ s + δ (mod II)` for each distinct `δ ≡
/// o_a − o_b` such that `a` reserves some resource at offset `o_a` and
/// `b` the same resource at `o_b`. Each pair is one implied clause of
/// Family 5's rows.
fn colliding_pairs(problem: &Problem<'_>, ops: &[OpEnc], ii: i64, cap: u64) -> u64 {
    let alts = |op: &OpEnc| &problem.info(op.node).expect("real operation").alternatives;
    let mut total = 0u64;
    let mut deltas: Vec<i64> = Vec::new();
    for (i, u) in ops.iter().enumerate() {
        for v in &ops[i + 1..] {
            for ua in alts(u) {
                for va in alts(v) {
                    deltas.clear();
                    for &(r1, o1) in ua.table.uses() {
                        for &(r2, o2) in va.table.uses() {
                            let d = (o1 as i64 - o2 as i64).rem_euclid(ii);
                            if r1 == r2 && !deltas.contains(&d) {
                                deltas.push(d);
                            }
                        }
                    }
                    for &d in &deltas {
                        total += u.slots_meeting(v, d, ii);
                    }
                }
            }
            if total > cap {
                return total;
            }
        }
    }
    total
}

/// Static issue windows per real operation, or `None` when some window
/// is empty (a proof of infeasibility at this II, given `md` feasible).
///
/// `lo_v = max(0, MinDist[START, v])`. For upper bounds, components of
/// the condensation are processed in topological order: with every
/// earlier operation `u` boxed into `[lo_u, ub_u]`, member `m` of the
/// current component has static lower bound `LB_m = max(lo_m, max_u
/// (ub_u + MinDist[u,m]))`, and the shift-by-II argument (exact
/// backend's `search` module docs) caps every member `v` at `ub_v =
/// max_m (LB_m + II − 1 − (v = m ? 0 : MinDist[v,m]))` — any feasible
/// schedule can be shifted component-by-component until it fits.
fn windows(
    problem: &Problem<'_>,
    md: &MinDist,
    ii: i64,
    prof: &mut impl ProfSink,
) -> Option<(Vec<i64>, Vec<i64>)> {
    let graph = problem.graph();
    let start = problem.start();
    let stop = problem.stop();
    let n = graph.num_nodes();
    let mut lo = vec![0i64; n];
    let mut ub = vec![0i64; n];

    for v in problem.op_nodes() {
        lo[v.index()] = md.get(start, v).max(0);
    }

    let info = sccs(graph, &mut *prof);
    let mut done: Vec<NodeId> = Vec::new();
    for comp in info.topological() {
        let ops: Vec<NodeId> = comp
            .iter()
            .copied()
            .filter(|&v| v != start && v != stop)
            .collect();
        if ops.is_empty() {
            continue;
        }
        let lb: Vec<i64> = ops
            .iter()
            .map(|&m| {
                let mut lbm = lo[m.index()];
                for &u in &done {
                    let dum = md.get(u, m);
                    if dum != NEG_INF && ub[u.index()] + dum > lbm {
                        lbm = ub[u.index()] + dum;
                    }
                }
                lbm
            })
            .collect();
        for &v in &ops {
            let mut cap = i64::MIN;
            for (&m, &lbm) in ops.iter().zip(&lb) {
                let t = if m == v {
                    lbm + ii - 1
                } else {
                    // Same component: strongly connected, so finite.
                    lbm + ii - 1 - md.get(v, m)
                };
                cap = cap.max(t);
            }
            ub[v.index()] = cap;
            if cap < lo[v.index()] {
                return None;
            }
        }
        done.extend_from_slice(&ops);
    }
    Some((lo, ub))
}

/// One II's formula: a solver holding every clause and row, and the
/// per-operation variables a model decodes through.
pub(crate) struct Encoding {
    pub(crate) solver: Solver,
    ops: Vec<OpEnc>,
}

/// Encodes "a legal schedule of `problem` exists at `ii`", or answers
/// without a formula: `Infeasible` when MinDist or an empty window
/// refutes the II, `LimitHit` when the formula would pass a cap of
/// `limits`. MinDist/SCC work flows into `prof`.
pub(crate) fn encode<P: ProfSink>(
    problem: &Problem<'_>,
    ii: i64,
    limits: &SatLimits,
    prof: &mut P,
) -> Result<Encoding, Decision> {
    let graph = problem.graph();
    let all: Vec<NodeId> = graph.nodes().collect();
    let md = MinDistSolver::new(graph, &all).solve(ii, &mut *prof);
    if !md.feasible() {
        return Err(Decision::Infeasible);
    }
    let Some((lo, ub)) = windows(problem, &md, ii, &mut *prof) else {
        return Err(Decision::Infeasible);
    };

    let total_slots: i64 = problem
        .op_nodes()
        .map(|v| ub[v.index()] - lo[v.index()] + 1)
        .sum();
    if total_slots as u64 > limits.slot_limit {
        return Err(Decision::LimitHit);
    }

    // Variable allocation, in node-id order: ladder, alternatives,
    // occupancy (per alternative, slots ascending).
    let mut solver = Solver::new();
    let mut ops: Vec<OpEnc> = Vec::with_capacity(problem.num_ops());
    for v in problem.op_nodes() {
        let (lov, width) = (lo[v.index()], ub[v.index()] - lo[v.index()] + 1);
        let alts = &problem.info(v).expect("real operation").alternatives;
        let g: Vec<u32> = (1..width).map(|_| solver.new_var()).collect();
        let z: Vec<u32> = if alts.len() > 1 {
            (0..alts.len()).map(|_| solver.new_var()).collect()
        } else {
            Vec::new()
        };
        let mut m = Vec::with_capacity(alts.len());
        for _ in 0..alts.len() {
            let mut slots: Vec<i64> = if width >= ii {
                (0..ii).collect()
            } else {
                let mut s: Vec<i64> = (0..width).map(|j| (lov + j).rem_euclid(ii)).collect();
                s.sort_unstable();
                s
            };
            let vars: Vec<(i64, u32)> = slots.drain(..).map(|s| (s, solver.new_var())).collect();
            m.push(vars);
        }
        ops.push(OpEnc {
            node: v,
            lo: lov,
            width,
            g,
            z,
            m,
        });
    }

    // Clause emission, with the clause cap polled between families.
    let over_limit = |s: &Solver| s.num_clauses() as u64 > limits.clause_limit;

    // Family 1: ladder coherence g_{k+1} → g_k.
    for op in &ops {
        for k in 1..op.g.len() {
            solver.add_clause(&[Lit::neg(op.g[k]), Lit::pos(op.g[k - 1])]);
        }
    }

    // Family 2: exactly-one alternative. Clauses and rows longer than
    // two literals are built in one reused buffer.
    let mut clause: Vec<Lit> = Vec::new();
    for op in &ops {
        if op.z.is_empty() {
            continue;
        }
        clause.clear();
        clause.extend(op.z.iter().map(|&v| Lit::pos(v)));
        solver.add_clause(&clause);
        for i in 0..op.z.len() {
            for j in (i + 1)..op.z.len() {
                solver.add_clause(&[Lit::neg(op.z[i]), Lit::neg(op.z[j])]);
            }
        }
    }

    // Family 3: channeling (t = lo+j) ∧ z_a → m_{(lo+j) mod II, a}.
    for op in &ops {
        for a in 0..op.m.len() {
            for j in 0..op.width {
                let slot = (op.lo + j).rem_euclid(ii);
                let mv = op.m_var(a, slot).expect("achievable slot has a var");
                clause.clear();
                if j > 0 {
                    clause.push(Lit::neg(op.g[(j - 1) as usize])); // ¬(t ≥ lo+j)
                }
                if j + 1 < op.width {
                    clause.push(Lit::pos(op.g[j as usize])); // t ≥ lo+j+1
                }
                if !op.z.is_empty() {
                    clause.push(Lit::neg(op.z[a]));
                }
                clause.push(Lit::pos(mv));
                solver.add_clause(&clause);
            }
        }
    }
    if over_limit(&solver) {
        return Err(Decision::LimitHit);
    }

    // Family 4: dependences as ladder implications. Index OpEnc by node.
    let mut enc_of = vec![usize::MAX; graph.num_nodes()];
    for (i, op) in ops.iter().enumerate() {
        enc_of[op.node.index()] = i;
    }
    for op in &ops {
        for e in graph.preds(op.node) {
            let ui = enc_of[e.from.index()];
            if ui == usize::MAX || e.from == op.node {
                continue; // START/STOP edges are folded into lo; self-deps
                          // are subsumed by the MinDist diagonal check.
            }
            let u = &ops[ui];
            let d = e.delay - ii * e.distance as i64;
            for j in 0..u.width {
                let ante = if j == 0 {
                    TriLit::True
                } else {
                    TriLit::Is(Lit::pos(u.g[(j - 1) as usize]))
                };
                match op.ge(u.lo + j + d) {
                    TriLit::True => continue,
                    TriLit::False => {
                        match ante {
                            // lo_v ≥ lo_u + d always holds (MinDist
                            // transitivity), so j = 0 can't be False.
                            TriLit::True => unreachable!("window lower bounds respect edges"),
                            TriLit::Is(l) => solver.add_clause(&[!l]),
                            TriLit::False => {}
                        }
                        break; // larger j is implied via the ladder
                    }
                    TriLit::Is(b) => match ante {
                        TriLit::True => solver.add_clause(&[b]),
                        TriLit::Is(a) => solver.add_clause(&[!a, b]),
                        TriLit::False => {}
                    },
                }
            }
        }
    }
    if over_limit(&solver) {
        return Err(Decision::LimitHit);
    }

    // Family 5: the clause cap also counts the colliding pairs the rows
    // stand for (none once the formula is already unsatisfiable).
    if !solver.is_trivially_unsat() {
        let room = limits.clause_limit - solver.num_clauses() as u64;
        if colliding_pairs(problem, &ops, ii, room) > room {
            return Err(Decision::LimitHit);
        }
    }
    // One at-most-one row per (resource, MRT row): every occupancy bit
    // whose alternative reserves the resource there. A counting sort
    // groups the cells by row `r·II + MRT row`, each in cell order.
    let mut cells: Vec<(usize, Lit)> = Vec::new();
    for op in &ops {
        let alts = &problem.info(op.node).expect("real operation").alternatives;
        for (alt, slots) in alts.iter().zip(&op.m) {
            for &(s, var) in slots {
                for &(r, off) in alt.table.uses() {
                    let row = (s + off as i64).rem_euclid(ii) as usize;
                    cells.push((r.0 as usize * ii as usize + row, Lit::pos(var)));
                }
            }
        }
    }
    // Per row: its length, then its start, then (once filled) its end.
    let mut ends = vec![0usize; problem.machine().num_resources() * ii as usize];
    for &(row, _) in &cells {
        ends[row] += 1;
    }
    let mut start = 0;
    for e in &mut ends {
        (*e, start) = (start, start + *e);
    }
    clause.clear();
    clause.resize(cells.len(), Lit::pos(0));
    for &(row, lit) in &cells {
        clause[ends[row]] = lit;
        ends[row] += 1;
    }
    let mut start = 0;
    for &end in &ends {
        solver.add_row(&clause[start..end]);
        start = end;
    }

    Ok(Encoding { solver, ops })
}

/// Decides feasibility of `problem` at candidate `ii` by CNF encoding +
/// CDCL, spending at most `limits.conflict_budget` conflicts. Returns
/// the decision plus the conflicts actually spent.
///
/// Deterministic statistics — variables, clauses, conflicts, decisions,
/// propagations, restarts, plus MinDist/SCC work — flow into `prof`
/// under their [`phase`] names.
pub(crate) fn decide_ii<P: ProfSink>(
    problem: &Problem<'_>,
    ii: i64,
    limits: &SatLimits,
    prof: &mut P,
) -> (Decision, u64) {
    let Encoding { mut solver, ops } = match encode(problem, ii, limits, prof) {
        Ok(encoding) => encoding,
        Err(decision) => return (decision, 0),
    };
    prof.count(phase::SAT_VARS, solver.num_vars() as u64);
    prof.count(phase::SAT_CLAUSES, solver.num_clauses() as u64);
    prof.count(phase::SAT_ROWS, solver.num_rows() as u64);

    let result = solver.solve(limits.conflict_budget);
    let stats = solver.stats();
    prof.count(phase::SAT_CONFLICTS, stats.conflicts);
    prof.count(phase::SAT_DECISIONS, stats.decisions);
    prof.count(phase::SAT_PROPAGATIONS, stats.propagations);
    prof.count(phase::SAT_RESTARTS, stats.restarts);

    let decision = match result {
        SolveResult::Unsat => Decision::Infeasible,
        SolveResult::Unknown => Decision::LimitHit,
        SolveResult::Sat(model) => {
            let graph = problem.graph();
            let mut time = vec![0i64; graph.num_nodes()];
            let mut alternative = vec![0usize; graph.num_nodes()];
            for op in &ops {
                // Ladder-coherent bits: the time is lo + (true bits).
                let k: i64 = op.g.iter().filter(|&&g| model[g as usize]).count() as i64;
                time[op.node.index()] = op.lo + k;
                alternative[op.node.index()] = if op.z.is_empty() {
                    0
                } else {
                    op.z.iter()
                        .position(|&z| model[z as usize])
                        .expect("exactly-one alternative")
                };
            }
            let stop = problem.stop();
            let mut t_stop = 0i64;
            for e in graph.preds(stop) {
                if e.from == stop {
                    continue;
                }
                let term = time[e.from.index()] + e.delay - ii * e.distance as i64;
                t_stop = t_stop.max(term);
            }
            time[stop.index()] = t_stop;
            Decision::Feasible(Schedule {
                ii,
                time,
                alternative,
                length: t_stop,
            })
        }
    };
    (decision, stats.conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{compute_mii, validate_schedule, Counters, ProblemBuilder};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{figure1_machine, MachineBuilder, ReservationTable};

    const WIDE: SatLimits = SatLimits {
        conflict_budget: 1 << 20,
        clause_limit: 1 << 22,
        slot_limit: 1 << 16,
    };

    /// The paper's Figure 1 recurrence: RecMII 5, but the recurrence
    /// interacts with the shared result bus so the true optimum is 6
    /// (branch-and-bound proves the same).
    fn figure1(machine: &ims_machine::MachineModel) -> Problem<'_> {
        let mut pb = ProblemBuilder::new(machine);
        let mul = pb.add_op(Opcode::Mul, OpId(0));
        let add = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
        pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
        pb.finish()
    }

    #[test]
    fn figure1_flips_from_infeasible_to_feasible_at_six() {
        let m = figure1_machine();
        let p = figure1(&m);
        let mii = compute_mii(&p, &mut Counters::default()).mii;
        assert_eq!(mii, 5);
        let (at_mii, _) = decide_ii(&p, 5, &WIDE, &mut 0u64);
        assert_eq!(at_mii, Decision::Infeasible, "RecMII 5 loses to the bus");
        let (at_six, _) = decide_ii(&p, 6, &WIDE, &mut 0u64);
        let Decision::Feasible(s) = at_six else {
            panic!("figure 1 is feasible at 6, got {at_six:?}");
        };
        assert_eq!(s.ii, 6);
        assert!(
            validate_schedule(&p, &s).is_ok(),
            "decoded schedule is legal"
        );
    }

    #[test]
    fn infeasible_below_recmii() {
        let m = figure1_machine();
        let p = figure1(&m);
        for ii in 1..5 {
            let (decision, _) = decide_ii(&p, ii, &WIDE, &mut 0u64);
            assert_eq!(decision, Decision::Infeasible, "II {ii} is below RecMII");
        }
    }

    #[test]
    fn resource_contention_needs_a_larger_ii() {
        // Four adds on a machine with a single-add pipeline: ResMII
        // dominates. Feasibility must flip exactly at the ResMII.
        let m = figure1_machine();
        let mut pb = ProblemBuilder::new(&m);
        for i in 0..4 {
            let _ = pb.add_op(Opcode::Add, OpId(i));
        }
        let p = pb.finish();
        let mii = compute_mii(&p, &mut Counters::default()).mii;
        assert!(mii > 1, "four adds cannot fit in a single II row");
        let (below, _) = decide_ii(&p, mii - 1, &WIDE, &mut 0u64);
        assert_eq!(below, Decision::Infeasible, "below ResMII");
        let (at, _) = decide_ii(&p, mii, &WIDE, &mut 0u64);
        let Decision::Feasible(s) = at else {
            panic!("feasible at ResMII, got {at:?}");
        };
        assert!(validate_schedule(&p, &s).is_ok());
    }

    #[test]
    fn an_operation_cannot_collide_with_itself() {
        // One add whose table reserves its only resource at offsets 0 and
        // 2: at II 2 both uses land on one MRT row wherever it issues.
        let mut mb = MachineBuilder::new("self_collision");
        let alu = mb.resource("alu");
        mb.op(
            Opcode::Add,
            1,
            vec![("alu", ReservationTable::new(vec![(alu, 0), (alu, 2)]))],
        );
        let m = mb.build();
        let mut pb = ProblemBuilder::new(&m);
        let _ = pb.add_op(Opcode::Add, OpId(0));
        let p = pb.finish();
        let (at_two, _) = decide_ii(&p, 2, &WIDE, &mut 0u64);
        assert_eq!(
            at_two,
            Decision::Infeasible,
            "the add collides with itself at II 2"
        );
        let (at_three, _) = decide_ii(&p, 3, &WIDE, &mut 0u64);
        let Decision::Feasible(s) = at_three else {
            panic!("feasible at II 3, got {at_three:?}");
        };
        assert!(validate_schedule(&p, &s).is_ok());
    }

    #[test]
    fn slots_meeting_counts_what_enumeration_counts() {
        let op = |lo: i64, width: i64| OpEnc {
            node: NodeId(1),
            lo,
            width,
            g: Vec::new(),
            z: Vec::new(),
            m: Vec::new(),
        };
        let slots = |lo: i64, width: i64, ii: i64| -> Vec<i64> {
            (0..width.min(ii))
                .map(|j| (lo + j).rem_euclid(ii))
                .collect()
        };
        for ii in 1..7 {
            for (lo_u, lo_v) in [(0, 0), (3, 1), (-2, 5), (9, -4)] {
                for (w_u, w_v) in [(1, 1), (2, 5), (6, 3), (9, 9)] {
                    let (su, sv) = (slots(lo_u, w_u, ii), slots(lo_v, w_v, ii));
                    for delta in 0..ii {
                        let expect = su
                            .iter()
                            .filter(|&&s| sv.contains(&(s + delta).rem_euclid(ii)))
                            .count() as u64;
                        let got = op(lo_u, w_u).slots_meeting(&op(lo_v, w_v), delta, ii);
                        assert_eq!(
                            got, expect,
                            "ii {ii}, u ({lo_u}, {w_u}), v ({lo_v}, {w_v}), δ {delta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_limits_give_limit_hit_not_wrong_answers() {
        let m = figure1_machine();
        let p = figure1(&m);
        let starved = SatLimits {
            conflict_budget: 1 << 20,
            clause_limit: 1,
            slot_limit: 1 << 16,
        };
        let (decision, _) = decide_ii(&p, 5, &starved, &mut 0u64);
        assert_eq!(decision, Decision::LimitHit);

        let no_slots = SatLimits {
            conflict_budget: 1 << 20,
            clause_limit: 1 << 22,
            slot_limit: 1,
        };
        let (decision, _) = decide_ii(&p, 5, &no_slots, &mut 0u64);
        assert_eq!(decision, Decision::LimitHit);
    }
}
