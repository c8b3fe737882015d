//! Acyclic list scheduling (the paper's cost yardstick and schedule-length
//! lower bound).
//!
//! §4.2: *"The lower bound on the modulo schedule length for a given II is
//! the larger of MinDist[START, STOP] and the actual schedule length
//! achieved by acyclic list scheduling."* And §4.3 treats acyclic list
//! scheduling as the complexity floor: *"it is reasonable to view the
//! computational complexity of acyclic list scheduling as a lower bound on
//! that for modulo scheduling"* — each operation is scheduled exactly once.
//!
//! The acyclic problem is obtained by ignoring every inter-iteration edge
//! (distance > 0), which leaves a DAG for any well-formed loop body.

use std::collections::HashMap;

use ims_graph::NodeId;

use crate::problem::Problem;

/// The result of list-scheduling one iteration in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListSchedule {
    /// Issue time per node.
    pub time: Vec<i64>,
    /// Chosen alternative per node (0 for pseudo-operations).
    pub alternative: Vec<usize>,
    /// The STOP pseudo-operation's time: the schedule length.
    pub length: i64,
}

/// List-schedules the acyclic (distance-0) subgraph of `problem` with
/// unlimited schedule length and a linear (non-modulo) reservation table.
///
/// Operations are processed in topological order of the acyclic subgraph,
/// with height-based priority breaking ties among simultaneously ready
/// operations; each is placed at the earliest conflict-free time at or
/// after its dependence-determined earliest start. Every operation is
/// scheduled exactly once.
///
/// # Panics
///
/// Panics if the distance-0 subgraph contains a cycle (an illegal
/// same-iteration ordering cycle).
pub fn list_schedule(problem: &Problem<'_>) -> ListSchedule {
    let graph = problem.graph();
    let n = graph.num_nodes();

    // Acyclic heights: longest delay path to STOP over distance-0 edges,
    // computed in reverse topological order.
    let topo = same_iteration_order(problem)
        .expect("distance-0 subgraph has a cycle: illegal same-iteration ordering");
    let mut height = vec![0i64; n];
    for &v in topo.iter().rev() {
        let mut h = 0;
        for e in graph.succs(v) {
            if e.distance == 0 {
                h = h.max(height[e.to.index()] + e.delay);
            }
        }
        height[v.index()] = h;
    }

    // Greedy placement in topological order, preferring higher operations
    // when several are available at the same topological rank. Sorting the
    // whole topological order by (rank, -height) keeps it deterministic.
    let order = {
        let mut rank = vec![0usize; n];
        for (i, &v) in topo.iter().enumerate() {
            rank[v.index()] = i;
        }
        let mut order = topo.clone();
        order.sort_by_key(|v| (rank[v.index()], std::cmp::Reverse(height[v.index()])));
        order
    };

    let mut time = vec![0i64; n];
    let mut alternative = vec![0usize; n];
    // Linear reservation table: (resource, cycle) -> occupied.
    let mut busy: HashMap<(u32, i64), NodeId> = HashMap::new();

    for &v in &order {
        let mut estart = 0i64;
        for e in graph.preds(v) {
            if e.distance == 0 {
                estart = estart.max(time[e.from.index()] + e.delay);
            }
        }
        match problem.info(v) {
            None => time[v.index()] = estart,
            Some(info) => {
                let mut t = estart;
                'search: loop {
                    for (ai, alt) in info.alternatives.iter().enumerate() {
                        let fits = alt
                            .table
                            .uses()
                            .iter()
                            .all(|&(r, off)| !busy.contains_key(&(r.0, t + off as i64)));
                        if fits {
                            for &(r, off) in alt.table.uses() {
                                busy.insert((r.0, t + off as i64), v);
                            }
                            time[v.index()] = t;
                            alternative[v.index()] = ai;
                            break 'search;
                        }
                    }
                    t += 1;
                }
            }
        }
    }

    let length = time[problem.stop().index()];
    ListSchedule {
        time,
        alternative,
        length,
    }
}

/// A topological order of the distance-0 (same-iteration) dependences of
/// `problem`, by Kahn's algorithm, or `None` when they form a cycle: an
/// operation would have to issue after itself within one iteration, so
/// no schedule exists at any II. Dependence construction never builds
/// such a cycle; a graph from elsewhere can carry one.
pub fn same_iteration_order(problem: &Problem<'_>) -> Option<Vec<NodeId>> {
    let graph = problem.graph();
    let n = graph.num_nodes();
    let mut indegree = vec![0usize; n];
    for e in graph.edges() {
        if e.distance == 0 {
            indegree[e.to.index()] += 1;
        }
    }
    let mut ready: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|v| indegree[v.index()] == 0)
        .collect();
    let mut topo: Vec<NodeId> = Vec::with_capacity(n);
    while let Some(v) = ready.pop() {
        topo.push(v);
        for e in graph.succs(v) {
            if e.distance == 0 {
                indegree[e.to.index()] -= 1;
                if indegree[e.to.index()] == 0 {
                    ready.push(e.to);
                }
            }
        }
    }
    (topo.len() == n).then_some(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{minimal, single_alu, wide};

    #[test]
    fn chain_length_is_sum_of_latencies() {
        // single_alu: Load latency 3, Add latency 2. load -> add -> store.
        let m = single_alu();
        let mut pb = ProblemBuilder::new(&m);
        let l = pb.add_op(Opcode::Load, OpId(0));
        let a = pb.add_op(Opcode::Add, OpId(1));
        let s = pb.add_op(Opcode::Store, OpId(2));
        pb.add_dep(l, a, 3, 0, DepKind::Flow, false);
        pb.add_dep(a, s, 2, 0, DepKind::Flow, false);
        let p = pb.finish();
        let ls = list_schedule(&p);
        assert_eq!(ls.time[l.index()], 0);
        assert_eq!(ls.time[a.index()], 3);
        assert_eq!(ls.time[s.index()], 5);
        // STOP at store-time + store-latency.
        assert_eq!(ls.length, 5 + 3);
    }

    #[test]
    fn resource_contention_serializes() {
        // Three independent adds on a single unit issue on distinct cycles.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let ns: Vec<NodeId> = (0..3).map(|i| pb.add_op(Opcode::Add, OpId(i))).collect();
        let p = pb.finish();
        let ls = list_schedule(&p);
        let mut times: Vec<i64> = ns.iter().map(|&v| ls.time[v.index()]).collect();
        times.sort();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn alternatives_allow_parallel_issue() {
        let m = wide(3);
        let mut pb = ProblemBuilder::new(&m);
        let ns: Vec<NodeId> = (0..3).map(|i| pb.add_op(Opcode::Add, OpId(i))).collect();
        let p = pb.finish();
        let ls = list_schedule(&p);
        for &v in &ns {
            assert_eq!(ls.time[v.index()], 0);
        }
        // They must use distinct alternatives.
        let mut alts: Vec<usize> = ns.iter().map(|&v| ls.alternative[v.index()]).collect();
        alts.sort();
        alts.dedup();
        assert_eq!(alts.len(), 3);
    }

    #[test]
    fn inter_iteration_edges_ignored() {
        // A self-recurrence does not serialize the acyclic schedule.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 50, 1, DepKind::Flow, false);
        let p = pb.finish();
        let ls = list_schedule(&p);
        assert_eq!(ls.time[a.index()], 0);
        assert_eq!(ls.length, 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn distance_zero_cycle_panics() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 0, DepKind::Flow, false);
        let p = pb.finish();
        let _ = list_schedule(&p);
    }

    #[test]
    fn empty_problem_has_zero_length() {
        let m = minimal();
        let p = ProblemBuilder::new(&m).finish();
        assert_eq!(list_schedule(&p).length, 0);
    }
}
