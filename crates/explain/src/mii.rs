//! MII attribution: *which* constraint pins the lower bound, with proof.
//!
//! §2 of the paper gives `MII = max(ResMII, RecMII)` but reports only the
//! numbers. This module recomputes both bounds *with provenance*: the
//! ResMII comes back with the greedy bin-packing's final per-resource
//! usage vector (so the saturated — *binding* — resource classes can be
//! named), and the RecMII comes back with the strongly connected component
//! that forces it, a representative critical circuit through that SCC
//! (delay and distance sums included, so `⌈delay/distance⌉` can be checked
//! by eye), and the MinDist critical-node set as a circuit-free fallback
//! when circuit enumeration is truncated.

use ims_core::{least_feasible_ii, res_mii_with_usage, Counters, Problem};
use ims_graph::{elementary_circuits, sccs, Circuit, DepGraph, MinDistSolver, NodeId};
use ims_machine::MachineModel;

/// The ResMII (§2.1) with the evidence behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResAttribution {
    /// The resource-constrained lower bound (never below 1).
    pub res_mii: i64,
    /// The greedy bin-packing's final usage count per resource, indexed by
    /// [`ResourceId::index`](ims_machine::ResourceId).
    pub usage: Vec<u64>,
    /// Indices of the **binding** resources: those whose usage equals the
    /// peak. These are the saturated resource classes — lowering the ResMII
    /// requires relieving one of them.
    pub binding: Vec<usize>,
}

impl ResAttribution {
    /// The binding resources by name, in index order.
    pub fn binding_names<'m>(&self, machine: &'m MachineModel) -> Vec<&'m str> {
        self.binding
            .iter()
            .map(|&i| machine.resources()[i].name.as_str())
            .collect()
    }
}

/// The RecMII (§2.2) with the evidence behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecAttribution {
    /// The pure recurrence-constrained lower bound (seeded at 1, never
    /// below 1; 1 for an acyclic graph).
    pub rec_mii: i64,
    /// The nodes of the binding SCC — the component whose per-SCC RecMII
    /// achieves [`rec_mii`](RecAttribution::rec_mii). Empty when the graph
    /// has no recurrence.
    pub scc: Vec<NodeId>,
    /// A representative **critical circuit** through the binding SCC: an
    /// elementary circuit with `⌈delay/distance⌉ == rec_mii`, chosen
    /// deterministically (fewest nodes, then lexicographically smallest
    /// node list). `None` when there is no recurrence or when enumeration
    /// was truncated.
    pub circuit: Option<Circuit>,
    /// The MinDist critical nodes of the binding SCC at `rec_mii` — the
    /// nodes with a zero diagonal entry, i.e. exactly the nodes on some
    /// critical recurrence path. This is the attribution used when
    /// [`circuits_truncated`](RecAttribution::circuits_truncated) is set.
    pub critical: Vec<NodeId>,
    /// Whether elementary-circuit enumeration hit its cap, leaving
    /// [`circuit`](RecAttribution::circuit) empty.
    pub circuits_truncated: bool,
}

/// Which of the two §2 bounds pins the MII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiiBound {
    /// `ResMII > RecMII`: a saturated resource is binding.
    Resource,
    /// `RecMII > ResMII`: a critical recurrence circuit is binding.
    Recurrence,
    /// `ResMII == RecMII`: both constraints bind simultaneously.
    Tie,
}

impl MiiBound {
    /// Short stable name used in JSON output: `res`, `rec` or `tie`.
    pub fn name(self) -> &'static str {
        match self {
            MiiBound::Resource => "res",
            MiiBound::Recurrence => "rec",
            MiiBound::Tie => "tie",
        }
    }
}

/// The full answer to "why is the MII what it is?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiiAttribution {
    /// `max(res_mii, rec_mii)`, never below 1 — agrees with
    /// [`compute_mii`](ims_core::compute_mii).
    pub mii: i64,
    /// The resource bound and its saturated resources.
    pub res: ResAttribution,
    /// The recurrence bound and its critical circuit.
    pub rec: RecAttribution,
    /// Which bound pins the MII.
    pub bound: MiiBound,
}

/// Enumerates elementary circuits of the subgraph induced by `scc` and
/// returns the representative critical circuit (nodes mapped back to the
/// full graph), or `(None, true)` when enumeration hit `max_circuits`.
///
/// The subgraph restriction matters: enumerating on the whole graph would
/// spend the cap on circuits of *other* SCCs and could truncate before the
/// binding SCC's circuits are even visited.
fn representative_circuit(
    graph: &DepGraph,
    scc: &[NodeId],
    max_circuits: usize,
) -> (Option<Circuit>, bool) {
    let mut position = vec![usize::MAX; graph.num_nodes()];
    let mut sub = DepGraph::new();
    for (p, n) in scc.iter().enumerate() {
        position[n.index()] = p;
        let added = sub.add_node();
        debug_assert_eq!(added.index(), p);
    }
    for &n in scc {
        for e in graph.succs(n) {
            let pj = position[e.to.index()];
            if pj == usize::MAX {
                continue;
            }
            sub.add_edge(
                NodeId(position[n.index()] as u32),
                NodeId(pj as u32),
                e.delay,
                e.distance,
                e.kind,
                e.is_mem,
            );
        }
    }
    let (circuits, complete) = elementary_circuits(&sub, max_circuits, &mut 0u64);
    if !complete {
        return (None, true);
    }
    let Some(best_ii) = circuits.iter().map(Circuit::min_ii).max() else {
        return (None, false);
    };
    let mut best: Option<Circuit> = None;
    for c in circuits {
        if c.min_ii() != best_ii {
            continue;
        }
        let mapped = Circuit {
            nodes: c.nodes.iter().map(|n| scc[n.index()]).collect(),
            delay: c.delay,
            distance: c.distance,
        };
        let better = match &best {
            None => true,
            Some(b) => (mapped.nodes.len(), &mapped.nodes) < (b.nodes.len(), &b.nodes),
        };
        if better {
            best = Some(mapped);
        }
    }
    (best, false)
}

/// Computes the MII with full provenance.
///
/// The numbers agree exactly with [`compute_mii`](ims_core::compute_mii)
/// (`mii` and `res.res_mii` are identical; `compute_mii`'s `rec_mii` is
/// seeded with the ResMII, so it equals `max(res.res_mii, rec.rec_mii)`).
/// `max_circuits` caps elementary-circuit enumeration per binding SCC;
/// when the cap is hit the attribution falls back to the SCC node list
/// plus the MinDist critical-node set and sets
/// [`circuits_truncated`](RecAttribution::circuits_truncated).
///
/// Work is charged to the same [`Counters`] fields as the production
/// pipeline: `resmii_work`, `scc_work` and `mindist_work`.
pub fn attribute_mii(
    problem: &Problem<'_>,
    max_circuits: usize,
    counters: &mut Counters,
) -> MiiAttribution {
    let (res_mii, usage) = res_mii_with_usage(problem, counters);
    let peak = usage.iter().copied().max().unwrap_or(0);
    let binding = if peak == 0 {
        Vec::new()
    } else {
        usage
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u == peak)
            .map(|(i, _)| i)
            .collect()
    };
    let res = ResAttribution {
        res_mii,
        usage,
        binding,
    };

    let scc_info = sccs(problem.graph(), &mut counters.scc_work);
    let mut rec_mii = 1i64;
    let mut binding_scc: Option<usize> = None;
    for c in 0..scc_info.components.len() {
        if !scc_info.is_recurrence(c, problem.graph()) {
            continue;
        }
        // The SCC's own bound: the §2.2 search seeded at 1, not at the
        // running maximum.
        let mut solver = MinDistSolver::new(problem.graph(), &scc_info.components[c]);
        let r = least_feasible_ii(1, |ii| solver.probe(ii, &mut counters.mindist_work));
        // Strictly-greater wins; the first SCC to reach the running
        // maximum keeps it, so the choice is deterministic.
        if r > rec_mii || binding_scc.is_none() {
            rec_mii = r;
            binding_scc = Some(c);
        }
    }

    let rec = match binding_scc {
        None => RecAttribution {
            rec_mii: 1,
            scc: Vec::new(),
            circuit: None,
            critical: Vec::new(),
            circuits_truncated: false,
        },
        Some(c) => {
            let nodes = &scc_info.components[c];
            let mut solver = MinDistSolver::new(problem.graph(), nodes);
            let critical = solver
                .solve(rec_mii, &mut counters.mindist_work)
                .critical_nodes();
            let (circuit, circuits_truncated) =
                representative_circuit(problem.graph(), nodes, max_circuits);
            RecAttribution {
                rec_mii,
                scc: nodes.clone(),
                circuit,
                critical,
                circuits_truncated,
            }
        }
    };

    let mii = res.res_mii.max(rec.rec_mii).max(1);
    let bound = match res.res_mii.cmp(&rec.rec_mii) {
        std::cmp::Ordering::Greater => MiiBound::Resource,
        std::cmp::Ordering::Less => MiiBound::Recurrence,
        std::cmp::Ordering::Equal => MiiBound::Tie,
    };
    MiiAttribution {
        mii,
        res,
        rec,
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{compute_mii, ProblemBuilder};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{cydra, minimal};

    fn recurrence_problem(machine: &MachineModel) -> Problem<'_> {
        // a -> b (delay 4) -> a (delay 3, distance 2): RecMII = ceil(7/2)=4.
        let mut pb = ProblemBuilder::new(machine);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 4, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 3, 2, DepKind::Flow, false);
        pb.finish()
    }

    #[test]
    fn recurrence_bound_names_the_critical_circuit() {
        let m = minimal();
        let p = recurrence_problem(&m);
        let mut c = Counters::new();
        let att = attribute_mii(&p, 1000, &mut c);
        assert_eq!(att.rec.rec_mii, 4);
        assert_eq!(att.res.res_mii, 2);
        assert_eq!(att.mii, 4);
        assert_eq!(att.bound, MiiBound::Recurrence);
        assert_eq!(att.rec.scc, vec![NodeId(1), NodeId(2)]);
        let circuit = att.rec.circuit.expect("two-node circuit enumerable");
        assert_eq!(circuit.delay, 7);
        assert_eq!(circuit.distance, 2);
        assert_eq!(circuit.min_ii(), 4);
        assert_eq!(circuit.nodes, vec![NodeId(1), NodeId(2)]);
        assert!(!att.rec.circuits_truncated);
        // At the tight II both circuit nodes sit on the critical path.
        assert_eq!(att.rec.critical, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn resource_bound_names_the_saturated_resource() {
        // Five adds on cydra: the adder pipeline saturates at 5.
        let m = cydra();
        let mut pb = ProblemBuilder::new(&m);
        for i in 0..5 {
            pb.add_op(Opcode::Add, OpId(i));
        }
        let p = pb.finish();
        let mut c = Counters::new();
        let att = attribute_mii(&p, 1000, &mut c);
        assert_eq!(att.res.res_mii, 5);
        assert_eq!(att.rec.rec_mii, 1, "no recurrence");
        assert_eq!(att.bound, MiiBound::Resource);
        assert!(att.rec.scc.is_empty());
        assert!(att.rec.circuit.is_none());
        let names = att.res.binding_names(&m);
        assert!(
            names.iter().any(|n| n.starts_with("add_")),
            "adder saturates: {names:?}"
        );
        for &i in &att.res.binding {
            assert_eq!(att.res.usage[i], 5);
        }
    }

    #[test]
    fn tie_when_both_bounds_agree() {
        // Two ops on one unit (ResMII 2) + a delay-2/distance-1 recurrence
        // (RecMII 2).
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        let att = attribute_mii(&p, 1000, &mut c);
        assert_eq!(att.res.res_mii, 2);
        assert_eq!(att.rec.rec_mii, 2);
        assert_eq!(att.bound, MiiBound::Tie);
        assert_eq!(att.mii, 2);
    }

    #[test]
    fn binding_scc_is_the_worst_one() {
        // Two self-recurrences: delay 3 and delay 7 — the latter binds.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, a, 3, 1, DepKind::Flow, false);
        pb.add_dep(b, b, 7, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mut c = Counters::new();
        let att = attribute_mii(&p, 1000, &mut c);
        assert_eq!(att.rec.rec_mii, 7);
        assert_eq!(att.rec.scc, vec![b]);
        let circuit = att.rec.circuit.unwrap();
        assert_eq!(circuit.nodes, vec![b]);
        assert_eq!(circuit.min_ii(), 7);
    }

    #[test]
    fn truncated_enumeration_falls_back_to_critical_nodes() {
        // A 4-node recurrence clique has more circuits than the cap of 2,
        // but the MinDist critical set still names the SCC's tight nodes.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let ns: Vec<NodeId> = (0..4).map(|i| pb.add_op(Opcode::Add, OpId(i))).collect();
        for &x in &ns {
            for &y in &ns {
                if x != y {
                    pb.add_dep(x, y, 2, 1, DepKind::Flow, false);
                }
            }
        }
        let p = pb.finish();
        let mut c = Counters::new();
        let att = attribute_mii(&p, 2, &mut c);
        assert!(att.rec.circuits_truncated);
        assert!(att.rec.circuit.is_none());
        assert_eq!(att.rec.scc, ns);
        assert!(!att.rec.critical.is_empty());
        assert!(att.rec.critical.iter().all(|n| ns.contains(n)));
    }

    #[test]
    fn attribution_agrees_with_compute_mii() {
        for p in [
            recurrence_problem(&minimal()),
            ProblemBuilder::new(&minimal()).finish(),
        ] {
            let mut c1 = Counters::new();
            let mut c2 = Counters::new();
            let att = attribute_mii(&p, 1000, &mut c1);
            let mii = compute_mii(&p, &mut c2);
            assert_eq!(att.mii, mii.mii);
            assert_eq!(att.res.res_mii, mii.res_mii);
            assert_eq!(att.res.res_mii.max(att.rec.rec_mii), mii.rec_mii);
        }
    }

    #[test]
    fn empty_problem_attributes_to_a_tie_at_one() {
        let m = minimal();
        let p = ProblemBuilder::new(&m).finish();
        let mut c = Counters::new();
        let att = attribute_mii(&p, 1000, &mut c);
        assert_eq!(att.mii, 1);
        assert_eq!(att.res.res_mii, 1);
        assert_eq!(att.rec.rec_mii, 1);
        assert!(att.res.binding.is_empty(), "nothing is saturated");
        assert!(att.rec.scc.is_empty());
    }
}
