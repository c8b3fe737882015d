//! The scheduling problem: dependence graph + machine + node identities.

use ims_graph::{DepGraph, DepKind, NodeId};
use ims_ir::{OpId, Opcode};
use ims_machine::{MachineModel, OpcodeInfo};

/// What a dependence-graph node stands for.
///
/// §3.1: *"two pseudo-operations, START and STOP, are added to the
/// dependence graph. START and STOP are made to be the predecessor and
/// successor, respectively, of all the other operations in the graph."*
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The START pseudo-operation (always node 0; scheduled at time 0).
    Start,
    /// The STOP pseudo-operation (always the last node; its issue time is
    /// the schedule length).
    Stop,
    /// A real operation of the loop.
    Op {
        /// The opcode, which determines latency and alternatives.
        opcode: Opcode,
        /// The originating operation in the IR loop body.
        op: OpId,
    },
}

/// A complete modulo-scheduling problem: the dependence graph (with START
/// and STOP attached), the identity of each node, and the machine model.
///
/// Built with [`ProblemBuilder`].
#[derive(Debug)]
pub struct Problem<'m> {
    machine: &'m MachineModel,
    graph: DepGraph,
    kinds: Vec<NodeKind>,
    /// Dependence edges added by the front end, excluding the START/STOP
    /// scaffolding (this is the `E` of the paper's Table 4 statistics).
    real_edges: usize,
}

impl<'m> Problem<'m> {
    /// The machine model.
    pub fn machine(&self) -> &'m MachineModel {
        self.machine
    }

    /// The dependence graph, including START/STOP.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The START node.
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The STOP node.
    pub fn stop(&self) -> NodeId {
        NodeId(self.graph.num_nodes() as u32 - 1)
    }

    /// What `node` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// Number of *real* operations, `N` in the paper's complexity analysis
    /// (excludes START and STOP).
    pub fn num_ops(&self) -> usize {
        self.graph.num_nodes() - 2
    }

    /// Number of real dependence edges, `E` in the paper's Table 4
    /// (excludes the START/STOP scaffolding edges).
    pub fn num_real_edges(&self) -> usize {
        self.real_edges
    }

    /// The real-operation nodes, in id order.
    pub fn op_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.graph.num_nodes() as u32 - 1).map(NodeId)
    }

    /// Machine information for `node`, or `None` for START/STOP.
    pub fn info(&self, node: NodeId) -> Option<&OpcodeInfo> {
        match self.kind(node) {
            NodeKind::Op { opcode, .. } => Some(self.machine.info(opcode)),
            _ => None,
        }
    }

    /// The latency of `node` (0 for START/STOP).
    pub fn latency(&self, node: NodeId) -> i64 {
        self.info(node).map_or(0, |i| i.latency as i64)
    }
}

/// Builder for [`Problem`].
///
/// Add operations and dependence edges, then call
/// [`ProblemBuilder::finish`], which attaches START (predecessor of every
/// operation, delay 0) and STOP (successor of every operation, delay equal
/// to the operation's latency, so that STOP's issue time is the schedule
/// length and `MinDist[START, STOP]` is the schedule-length lower bound of
/// §4.2).
#[derive(Debug)]
pub struct ProblemBuilder<'m> {
    machine: &'m MachineModel,
    graph: DepGraph,
    kinds: Vec<NodeKind>,
    real_edges: usize,
}

impl<'m> ProblemBuilder<'m> {
    /// Starts a problem for `machine`. The START node is created
    /// immediately as node 0.
    pub fn new(machine: &'m MachineModel) -> Self {
        let mut graph = DepGraph::new();
        let start = graph.add_node();
        debug_assert_eq!(start, NodeId(0));
        ProblemBuilder {
            machine,
            graph,
            kinds: vec![NodeKind::Start],
            real_edges: 0,
        }
    }

    /// Adds a real operation.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement `opcode`.
    pub fn add_op(&mut self, opcode: Opcode, op: OpId) -> NodeId {
        assert!(
            self.machine.get_info(opcode).is_some(),
            "machine {} does not implement {opcode}",
            self.machine.name()
        );
        let n = self.graph.add_node();
        self.kinds.push(NodeKind::Op { opcode, op });
        n
    }

    /// Adds a dependence edge with an explicit delay (see the Table 1
    /// delay formulas in `ims-deps`).
    pub fn add_dep(
        &mut self,
        from: NodeId,
        to: NodeId,
        delay: i64,
        distance: u32,
        kind: DepKind,
        is_mem: bool,
    ) {
        self.graph.add_edge(from, to, delay, distance, kind, is_mem);
        self.real_edges += 1;
    }

    /// Number of operations added so far.
    pub fn num_ops(&self) -> usize {
        self.kinds.len() - 1
    }

    /// Attaches START/STOP scaffolding and returns the finished problem.
    pub fn finish(mut self) -> Problem<'m> {
        let stop = self.graph.add_node();
        self.kinds.push(NodeKind::Stop);
        let start = NodeId(0);
        for node in 1..stop.0 {
            let node = NodeId(node);
            self.graph
                .add_edge(start, node, 0, 0, DepKind::Control, false);
            let lat = match self.kinds[node.index()] {
                NodeKind::Op { opcode, .. } => self.machine.latency(opcode) as i64,
                _ => 0,
            };
            self.graph
                .add_edge(node, stop, lat, 0, DepKind::Control, false);
        }
        // Degenerate (zero-op) problems still need START before STOP.
        self.graph
            .add_edge(start, stop, 0, 0, DepKind::Control, false);
        Problem {
            machine: self.machine,
            graph: self.graph,
            kinds: self.kinds,
            real_edges: self.real_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_machine::minimal;

    #[test]
    fn start_stop_scaffolding() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Mul, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        let p = pb.finish();

        assert_eq!(p.num_ops(), 2);
        assert_eq!(p.num_real_edges(), 1);
        assert_eq!(p.start(), NodeId(0));
        assert_eq!(p.stop(), NodeId(3));
        assert_eq!(p.kind(p.start()), NodeKind::Start);
        assert_eq!(p.kind(p.stop()), NodeKind::Stop);
        assert!(matches!(
            p.kind(a),
            NodeKind::Op {
                opcode: Opcode::Add,
                ..
            }
        ));

        // START precedes both ops; both ops precede STOP with delay=latency.
        assert!(p.graph().succs(p.start()).any(|e| e.to == a));
        assert!(p.graph().succs(p.start()).any(|e| e.to == b));
        let to_stop: Vec<_> = p.graph().preds(p.stop()).collect();
        assert_eq!(to_stop.len(), 3); // a, b, and the start->stop edge
        assert!(p.graph().succs(a).any(|e| e.to == p.stop() && e.delay == 1));
    }

    #[test]
    fn latency_of_pseudo_ops_is_zero() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Load, OpId(0));
        let p = pb.finish();
        assert_eq!(p.latency(p.start()), 0);
        assert_eq!(p.latency(p.stop()), 0);
        assert_eq!(p.latency(a), 1);
        assert!(p.info(p.start()).is_none());
        assert!(p.info(a).is_some());
    }

    #[test]
    fn op_nodes_excludes_pseudo_ops() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let _ = pb.add_op(Opcode::Add, OpId(0));
        let _ = pb.add_op(Opcode::Add, OpId(1));
        let p = pb.finish();
        let ops: Vec<NodeId> = p.op_nodes().collect();
        assert_eq!(ops, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_problem_is_well_formed() {
        let m = minimal();
        let p = ProblemBuilder::new(&m).finish();
        assert_eq!(p.num_ops(), 0);
        assert!(p.graph().succs(p.start()).any(|e| e.to == p.stop()));
    }

    #[test]
    #[should_panic(expected = "does not implement")]
    fn unknown_opcode_rejected() {
        use ims_machine::MachineBuilder;
        let m = MachineBuilder::new("empty").build();
        let mut pb = ProblemBuilder::new(&m);
        let _ = pb.add_op(Opcode::Add, OpId(0));
    }
}
