//! The minimum initiation interval (§2).
//!
//! `MII = max(ResMII, RecMII)`. The MII is a lower bound on any legal II
//! but *"is not necessarily an achievable lower bound"* in the face of
//! recurrences and/or complex patterns of resource usage.

use ims_graph::{elementary_circuits, sccs, MinDistSolver, NodeId, SccInfo};

use crate::counters::Counters;
use crate::problem::Problem;

/// The three II lower bounds of §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiInfo {
    /// Resource-constrained lower bound (§2.1).
    pub res_mii: i64,
    /// Recurrence-constrained lower bound (§2.2).
    pub rec_mii: i64,
    /// `max(res_mii, rec_mii)`, never below 1.
    pub mii: i64,
}

/// Computes the resource-constrained MII (§2.1).
///
/// Exact ResMII is a bin-packing problem, *"impractical, in general, to
/// compute exactly"*; the paper's approximation is used instead: sort the
/// operations by increasing number of alternatives, then, taking each
/// operation in order, select the alternative that *"yields the lowest
/// partial ResMII, i.e., the usage count of the most heavily used resource
/// at that point"*. The final usage count of the most heavily used resource
/// is the ResMII (never below 1).
pub fn res_mii(problem: &Problem<'_>, counters: &mut Counters) -> i64 {
    res_mii_with_usage(problem, counters).0
}

/// [`res_mii`] with provenance: also returns the final per-resource usage
/// vector of the greedy bin-packing (indexed by
/// [`ResourceId::index`](ims_machine::ResourceId)). The ResMII equals the
/// maximum entry (clamped to 1), so `usage[r] == res_mii` identifies the
/// *binding* resource(s) — the saturated resource class `ims-explain`
/// names when attributing a resource-bound MII.
pub fn res_mii_with_usage(problem: &Problem<'_>, counters: &mut Counters) -> (i64, Vec<u64>) {
    let machine = problem.machine();
    let mut nodes: Vec<NodeId> = problem.op_nodes().collect();
    // Radix-style stable sort by number of alternatives (degrees of
    // freedom); the paper notes this step is O(N) with a radix sort, and a
    // stable sort keeps the procedure deterministic.
    nodes.sort_by_key(|&n| {
        problem
            .info(n)
            .map(|i| i.alternatives.len())
            .unwrap_or(usize::MAX)
    });

    let mut usage = vec![0u64; machine.num_resources()];
    // Incremental trial evaluation: the peak after adding an alternative is
    // max(current peak, usage + this alternative's contribution) over the
    // resources the alternative touches, so no per-trial clone of `usage`
    // is needed. `delta` is scratch for duplicate resource uses within one
    // alternative (a table may reserve the same resource at several
    // offsets), zeroed again after each trial.
    let mut cur_peak = 0u64;
    let mut delta = vec![0u64; machine.num_resources()];
    for node in nodes {
        let info = problem.info(node).expect("op_nodes yields only real ops");
        // Choose the alternative minimizing the partial ResMII.
        let mut best: Option<(u64, usize)> = None;
        for (ai, alt) in info.alternatives.iter().enumerate() {
            let mut peak = cur_peak;
            for &(r, _) in alt.table.uses() {
                counters.resmii_work += 1;
                delta[r.index()] += 1;
                let trial = usage[r.index()] + delta[r.index()];
                if trial > peak {
                    peak = trial;
                }
            }
            for &(r, _) in alt.table.uses() {
                delta[r.index()] = 0;
            }
            if best.is_none_or(|(bp, _)| peak < bp) {
                best = Some((peak, ai));
            }
        }
        if let Some((_, ai)) = best {
            for &(r, _) in info.alternatives[ai].table.uses() {
                let u = &mut usage[r.index()];
                *u += 1;
                if *u > cur_peak {
                    cur_peak = *u;
                }
            }
        }
    }
    (cur_peak.max(1) as i64, usage)
}

/// Whether an SCC can constrain the II: it is non-trivial, or its single
/// node carries a self-edge.
fn scc_constrains(info: &SccInfo, c: usize, problem: &Problem<'_>) -> bool {
    info.is_recurrence(c, problem.graph())
}

/// The §2.2 search for the least feasible II at or above `from`.
///
/// `feasible` must be monotone: once an II is feasible, every larger II
/// is too. If `from` is infeasible, *"the candidate MII is incremented
/// until there are no positive entries on the diagonal. The value of the
/// increment is doubled each time … A binary search is performed between
/// this last, successful candidate and the previous unsuccessful value."*
/// No II below `from` is ever probed.
pub fn least_feasible_ii(from: i64, mut feasible: impl FnMut(i64) -> bool) -> i64 {
    if feasible(from) {
        return from;
    }
    // Geometric probe upward.
    let mut last_bad = from;
    let mut inc = 1i64;
    let mut good;
    loop {
        good = last_bad + inc;
        if feasible(good) {
            break;
        }
        last_bad = good;
        inc *= 2;
    }
    // Binary search in (last_bad, good].
    while last_bad + 1 < good {
        let mid = last_bad + (good - last_bad) / 2;
        if feasible(mid) {
            good = mid;
        } else {
            last_bad = mid;
        }
    }
    good
}

/// Computes the recurrence-constrained MII (§2.2) by per-SCC MinDist
/// feasibility probing.
///
/// Following the paper, the initial candidate is `lower` (the ResMII in a
/// production compiler, since only the MII matters), and each SCC raises
/// it to its least feasible II by [`least_feasible_ii`], starting from the
/// MII computed with the previous SCC.
///
/// Returns the resulting MII candidate: `max(lower, RecMII)` — callers that
/// want the pure RecMII pass `lower = 1`.
pub fn rec_mii(problem: &Problem<'_>, lower: i64, counters: &mut Counters) -> i64 {
    let scc_info = sccs(problem.graph(), &mut counters.scc_work);
    let mut candidate = lower.max(1);

    for c in 0..scc_info.components.len() {
        if !scc_constrains(&scc_info, c, problem) {
            continue;
        }
        // One solver per SCC: the subset mapping and edge list are shared
        // by every probe of the search.
        let mut solver = MinDistSolver::new(problem.graph(), &scc_info.components[c]);
        candidate = least_feasible_ii(candidate, |ii| solver.probe(ii, &mut counters.mindist_work));
    }
    candidate
}

/// Computes the RecMII by enumerating elementary circuits — the Cydra 5
/// compiler's method, reproduced as a cross-check for [`rec_mii`].
///
/// Returns `None` if the graph has more than `max_circuits` elementary
/// circuits (enumeration is exponential in general, which is exactly why
/// the paper prefers the MinDist method).
pub fn rec_mii_by_circuits(problem: &Problem<'_>, max_circuits: usize) -> Option<i64> {
    let (circuits, complete) = elementary_circuits(problem.graph(), max_circuits, &mut 0u64);
    if !complete {
        return None;
    }
    Some(
        circuits
            .iter()
            .map(|c| c.min_ii())
            .max()
            .unwrap_or(0)
            .max(1),
    )
}

/// Computes all three bounds of §2: ResMII, RecMII (seeded with the ResMII,
/// as the paper recommends for a production compiler), and their maximum.
///
/// # Example
///
/// Two operations on a single-unit machine give ResMII 2; a loop-carried
/// cycle with total delay 2 and distance 1 gives RecMII 2:
///
/// ```
/// use ims_core::{compute_mii, Counters, ProblemBuilder};
/// use ims_graph::DepKind;
/// use ims_ir::{OpId, Opcode};
/// use ims_machine::minimal;
///
/// let machine = minimal();
/// let mut pb = ProblemBuilder::new(&machine);
/// let a = pb.add_op(Opcode::Add, OpId(0));
/// let b = pb.add_op(Opcode::Add, OpId(1));
/// pb.add_dep(a, b, 1, 0, DepKind::Flow, false); // same iteration
/// pb.add_dep(b, a, 1, 1, DepKind::Flow, false); // next iteration
/// let problem = pb.finish();
///
/// let mii = compute_mii(&problem, &mut Counters::new());
/// assert_eq!(mii.res_mii, 2); // two ops share one unit
/// assert_eq!(mii.rec_mii, 2); // ceil(delay 2 / distance 1)
/// assert_eq!(mii.mii, 2);
/// ```
pub fn compute_mii(problem: &Problem<'_>, counters: &mut Counters) -> MiiInfo {
    let res = res_mii(problem, counters);
    let combined = rec_mii(problem, res, counters);
    // `combined` is max(res, rec); recover a standalone RecMII figure for
    // reporting (Table 3 needs max(0, RecMII − ResMII), which equals
    // combined − res).
    MiiInfo {
        res_mii: res,
        rec_mii: combined,
        mii: combined.max(res).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{cydra, cydra_simple, minimal, wide};

    fn straight_line<'m>(
        machine: &'m ims_machine::MachineModel,
        opcodes: &[Opcode],
    ) -> Problem<'m> {
        let mut pb = ProblemBuilder::new(machine);
        let mut prev: Option<NodeId> = None;
        for (i, &op) in opcodes.iter().enumerate() {
            let n = pb.add_op(op, OpId(i as u32));
            if let Some(p) = prev {
                pb.add_dep(p, n, 1, 0, DepKind::Flow, false);
            }
            prev = Some(n);
        }
        pb.finish()
    }

    #[test]
    fn res_mii_counts_most_used_resource() {
        // minimal(): every op uses the single unit once => ResMII = #ops.
        let m = minimal();
        let p = straight_line(&m, &[Opcode::Add, Opcode::Add, Opcode::Add]);
        let mut c = Counters::new();
        assert_eq!(res_mii(&p, &mut c), 3);
        assert!(c.resmii_work > 0);
    }

    #[test]
    fn res_mii_exploits_alternatives() {
        // wide(3): every op has 3 alternatives; 3 ops fit at ResMII 1.
        let m = wide(3);
        let p = straight_line(&m, &[Opcode::Add, Opcode::Add, Opcode::Add]);
        let mut c = Counters::new();
        assert_eq!(res_mii(&p, &mut c), 1);
        // 4 ops need ResMII 2.
        let p = straight_line(&m, &[Opcode::Add; 4]);
        assert_eq!(res_mii(&p, &mut c), 2);
    }

    #[test]
    fn res_mii_on_cydra_adder_bottleneck() {
        // On the Cydra models the single adder is the bottleneck for 2
        // adds + 1 mul (the 4-wide instruction fields absorb 3 ops/cycle).
        for m in [cydra(), cydra_simple()] {
            let p = straight_line(&m, &[Opcode::Add, Opcode::Add, Opcode::Mul]);
            let mut c = Counters::new();
            assert_eq!(res_mii(&p, &mut c), 2, "{}", m.name());
        }
        // Five adds: the adder forces ResMII 5.
        let m = cydra();
        let p = straight_line(&m, &[Opcode::Add; 5]);
        let mut c = Counters::new();
        assert_eq!(res_mii(&p, &mut c), 5);
        // Issue width binds when the ops spread across units: 5 address
        // adds have two ALUs (ResMII 3) but only 4 fields per cycle.
        let p = straight_line(&m, &[Opcode::AddrAdd; 8]);
        assert_eq!(res_mii(&p, &mut c), 4, "two ALUs bound 8 addr-adds");
    }

    #[test]
    fn res_mii_usage_names_the_binding_resource() {
        // Five adds on cydra: the adder pipeline saturates at usage 5,
        // and the usage vector singles out exactly the adder resources.
        let m = cydra();
        let p = straight_line(&m, &[Opcode::Add; 5]);
        let mut c = Counters::new();
        let (res, usage) = res_mii_with_usage(&p, &mut c);
        assert_eq!(res, 5);
        assert_eq!(res_mii(&p, &mut c), 5, "the two entry points agree");
        assert_eq!(usage.len(), m.num_resources());
        assert_eq!(usage.iter().copied().max(), Some(5));
        let binding: Vec<&str> = usage
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u == 5)
            .map(|(i, _)| m.resources()[i].name.as_str())
            .collect();
        // The adder pipeline saturates (the greedy's tie-breaking also
        // packs all five ops into instr_field0, which saturates with it).
        assert!(
            binding.iter().any(|n| n.starts_with("add_")),
            "adder resources saturate: {binding:?}"
        );
        assert!(
            binding
                .iter()
                .all(|n| n.starts_with("add_") || n.starts_with("instr_field")),
            "nothing else saturates: {binding:?}"
        );
    }

    #[test]
    fn res_mii_of_empty_loop_is_one() {
        let m = minimal();
        let p = ProblemBuilder::new(&m).finish();
        let mut c = Counters::new();
        assert_eq!(res_mii(&p, &mut c), 1);
    }

    #[test]
    fn rec_mii_simple_recurrence() {
        // a -> b (delay 4) -> a (delay 3, distance 2): RecMII = ceil(7/2)=4.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 4, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 3, 2, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        assert_eq!(rec_mii(&p, 1, &mut c), 4);
        assert!(c.mindist_work > 0);
        // Cross-check with circuit enumeration.
        assert_eq!(rec_mii_by_circuits(&p, 1000), Some(4));
    }

    #[test]
    fn rec_mii_self_edge() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 5, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        assert_eq!(rec_mii(&p, 1, &mut c), 5);
        assert_eq!(rec_mii_by_circuits(&p, 1000), Some(5));
    }

    #[test]
    fn rec_mii_takes_worst_scc() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, a, 3, 1, DepKind::Flow, false);
        pb.add_dep(b, b, 7, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        assert_eq!(rec_mii(&p, 1, &mut c), 7);
    }

    #[test]
    fn rec_mii_acyclic_is_lower() {
        let m = minimal();
        let p = straight_line(&m, &[Opcode::Add, Opcode::Mul]);
        let mut c = Counters::new();
        assert_eq!(rec_mii(&p, 1, &mut c), 1);
        assert_eq!(rec_mii(&p, 5, &mut c), 5); // respects the seed
    }

    #[test]
    fn rec_mii_seeded_skips_probing() {
        // When the seed already satisfies the recurrence, no search happens.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 3, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        assert_eq!(rec_mii(&p, 10, &mut c), 10);
    }

    #[test]
    fn least_feasible_ii_finds_the_threshold_without_probing_below_the_start() {
        for threshold in 1..=300i64 {
            for start in 1..=threshold + 3 {
                let found = least_feasible_ii(start, |ii| {
                    assert!(ii >= start, "probed {ii} below start {start}");
                    ii >= threshold
                });
                assert_eq!(found, start.max(threshold), "start {start}");
            }
        }
    }

    #[test]
    fn compute_mii_combines_bounds() {
        let m = minimal();
        // 3 ops on one unit (ResMII 3) + a distance-1, delay-5 recurrence
        // (RecMII 5).
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        let cnode = pb.add_op(Opcode::Add, OpId(2));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, cnode, 1, 0, DepKind::Flow, false);
        pb.add_dep(cnode, a, 3, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        let mii = compute_mii(&p, &mut c);
        assert_eq!(mii.res_mii, 3);
        assert_eq!(mii.rec_mii, 5);
        assert_eq!(mii.mii, 5);
    }

    #[test]
    fn circuits_cross_check_declines_when_truncated() {
        // Complete digraph: too many circuits for the cap.
        let m = wide(8);
        let mut pb = ProblemBuilder::new(&m);
        let ns: Vec<NodeId> = (0..6).map(|i| pb.add_op(Opcode::Add, OpId(i))).collect();
        for &x in &ns {
            for &y in &ns {
                if x != y {
                    pb.add_dep(x, y, 1, 1, DepKind::Flow, false);
                }
            }
        }
        let p = pb.finish();
        assert_eq!(rec_mii_by_circuits(&p, 10), None);
    }
}
