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
//!   placement are forced true, so the pairwise resource clauses below
//!   bind, and spuriously-true `m` bits only over-constrain.
//!
//! Clause families:
//!
//! * ladder coherence `g_{k+1} → g_k`;
//! * exactly-one alternative (pairwise at-most-one);
//! * channeling as above;
//! * **dependences**, one binary ladder implication per edge threshold:
//!   for `u →(delay,dist) v` and every `j` in `u`'s window, `t_u ≥ lo_u
//!   + j → t_v ≥ lo_u + j + delay − II·dist` — linear in window width,
//!   not quadratic;
//! * **resource conflicts**, pairwise over occupancy bits: alternatives
//!   `(u,a)` and `(v,b)` of distinct operations collide at slot distance
//!   `δ` iff some [`MaskEntry`] pair shares a row word with overlapping
//!   bits at `δ ≡ offset_u − offset_v (mod II)` — exactly the modulo
//!   reservation table's bitset semantics, so SAT and branch-and-bound
//!   agree on feasibility by construction.
//!
//! Determinism: variables are allocated in node-id order (ladders, then
//! alternatives, then occupancy slots ascending), clauses in the fixed
//! family order above, and the solver itself is deterministic — so the
//! whole decision, including every statistic, is byte-reproducible at
//! any thread count.

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
    /// Abort encoding when the clause count passes this.
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
fn windows(problem: &Problem<'_>, md: &MinDist, ii: i64, prof: &mut impl ProfSink) -> Option<(Vec<i64>, Vec<i64>)> {
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
    let graph = problem.graph();
    let all: Vec<NodeId> = graph.nodes().collect();
    let md = MinDistSolver::new(graph, &all).solve(ii, &mut *prof);
    if !md.feasible() {
        return (Decision::Infeasible, 0);
    }
    let Some((lo, ub)) = windows(problem, &md, ii, &mut *prof) else {
        return (Decision::Infeasible, 0);
    };

    let total_slots: i64 = problem
        .op_nodes()
        .map(|v| ub[v.index()] - lo[v.index()] + 1)
        .sum();
    if total_slots as u64 > limits.slot_limit {
        return (Decision::LimitHit, 0);
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

    // Family 2: exactly-one alternative.
    for op in &ops {
        if op.z.is_empty() {
            continue;
        }
        let alo: Vec<Lit> = op.z.iter().map(|&v| Lit::pos(v)).collect();
        solver.add_clause(&alo);
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
                let mut clause = Vec::with_capacity(4);
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
        return (Decision::LimitHit, 0);
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
        return (Decision::LimitHit, 0);
    }

    // Family 5: pairwise resource conflicts over occupancy bits.
    'pairs: for i in 0..ops.len() {
        for j in (i + 1)..ops.len() {
            let (u, v) = (&ops[i], &ops[j]);
            let u_alts = &problem.info(u.node).expect("real operation").alternatives;
            let v_alts = &problem.info(v.node).expect("real operation").alternatives;
            for (au, ua) in u_alts.iter().enumerate() {
                for (av, va) in v_alts.iter().enumerate() {
                    // δ values at which these two reservation shapes
                    // collide: s_v ≡ s_u + off_u − off_v (mod II).
                    let mut deltas: Vec<i64> = Vec::new();
                    for e1 in ua.mask().entries() {
                        for e2 in va.mask().entries() {
                            if e1.word == e2.word && e1.mask & e2.mask != 0 {
                                let d =
                                    (e1.offset as i64 - e2.offset as i64).rem_euclid(ii);
                                if !deltas.contains(&d) {
                                    deltas.push(d);
                                }
                            }
                        }
                    }
                    deltas.sort_unstable();
                    for &delta in &deltas {
                        for &(su, mu) in &u.m[au] {
                            let sv = (su + delta).rem_euclid(ii);
                            if let Some(mv) = v.m_var(av, sv) {
                                solver.add_clause(&[Lit::neg(mu), Lit::neg(mv)]);
                            }
                        }
                    }
                }
            }
            if over_limit(&solver) {
                break 'pairs;
            }
        }
    }
    if over_limit(&solver) {
        return (Decision::LimitHit, 0);
    }

    prof.count(phase::SAT_VARS, solver.num_vars() as u64);
    prof.count(phase::SAT_CLAUSES, solver.num_clauses() as u64);

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
            let mut time = vec![0i64; graph.num_nodes()];
            let mut alternative = vec![0usize; graph.num_nodes()];
            for op in &ops {
                // Ladder-coherent bits: the time is lo + (true bits).
                let k: i64 = op.g.iter().filter(|&&g| model[g as usize]).count() as i64;
                time[op.node.index()] = op.lo + k;
                alternative[op.node.index()] = if op.z.is_empty() {
                    0
                } else {
                    op.z
                        .iter()
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
    use ims_machine::figure1_machine;
    use ims_prof::NullSink;

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
        let (at_mii, _) = decide_ii(&p, 5, &WIDE, &mut NullSink);
        assert_eq!(at_mii, Decision::Infeasible, "RecMII 5 loses to the bus");
        let (at_six, _) = decide_ii(&p, 6, &WIDE, &mut NullSink);
        let Decision::Feasible(s) = at_six else {
            panic!("figure 1 is feasible at 6, got {at_six:?}");
        };
        assert_eq!(s.ii, 6);
        assert!(validate_schedule(&p, &s).is_ok(), "decoded schedule is legal");
    }

    #[test]
    fn infeasible_below_recmii() {
        let m = figure1_machine();
        let p = figure1(&m);
        for ii in 1..5 {
            let (decision, _) = decide_ii(&p, ii, &WIDE, &mut NullSink);
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
        let (below, _) = decide_ii(&p, mii - 1, &WIDE, &mut NullSink);
        assert_eq!(below, Decision::Infeasible, "below ResMII");
        let (at, _) = decide_ii(&p, mii, &WIDE, &mut NullSink);
        let Decision::Feasible(s) = at else {
            panic!("feasible at ResMII, got {at:?}");
        };
        assert!(validate_schedule(&p, &s).is_ok());
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
        let (decision, _) = decide_ii(&p, 5, &starved, &mut NullSink);
        assert_eq!(decision, Decision::LimitHit);

        let no_slots = SatLimits {
            conflict_budget: 1 << 20,
            clause_limit: 1 << 22,
            slot_limit: 1,
        };
        let (decision, _) = decide_ii(&p, 5, &no_slots, &mut NullSink);
        assert_eq!(decision, Decision::LimitHit);
    }
}
