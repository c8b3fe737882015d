//! The dependence graph data structure.

use std::fmt;

/// A vertex of a [`DepGraph`] — one operation of the loop (or a START/STOP
/// pseudo-operation added by the scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Zero-based index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge within a [`DepGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Zero-based index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a dependence edge. *"The dependence in question may either
/// be data dependence (flow, anti- or output) or control dependence."*
/// (§2.2)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// True (read-after-write) dependence.
    Flow,
    /// Anti (write-after-read) dependence.
    Anti,
    /// Output (write-after-write) dependence.
    Output,
    /// Control dependence (e.g. on the guarding predicate or the branch).
    Control,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Control => "control",
        };
        f.write_str(s)
    }
}

/// A dependence edge: the successor must issue at least `delay` cycles after
/// the predecessor, measured across `distance` iterations.
///
/// Under modulo scheduling with initiation interval `II` the constraint is
/// `time(to) ≥ time(from) + delay − II·distance` (§2.2). `delay` may be
/// negative for anti-/output dependences on a VLIW with non-unit latencies
/// (Table 1).
///
/// Edges order field by field, `(from, to, delay, distance, kind,
/// is_mem)`: the order of a [`CanonicalForm`](crate::CanonicalForm)'s
/// edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepEdge {
    /// Predecessor operation.
    pub from: NodeId,
    /// Successor operation.
    pub to: NodeId,
    /// Minimum issue-time separation in cycles.
    pub delay: i64,
    /// Iterations separating the endpoints (0 = same iteration).
    pub distance: u32,
    /// The dependence kind.
    pub kind: DepKind,
    /// Whether the dependence is through memory (rather than a register or
    /// predicate).
    pub is_mem: bool,
}

/// A directed multigraph of dependences with per-node adjacency lists.
///
/// *"There may be multiple edges, possibly with opposite directions,
/// between the same pair of vertices."* (§2.2) — hence a multigraph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepGraph {
    edges: Vec<DepEdge>,
    succ: Vec<Vec<EdgeId>>,
    pred: Vec<Vec<EdgeId>>,
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        DepGraph {
            edges: Vec::new(),
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        NodeId(self.succ.len() as u32 - 1)
    }

    /// Adds a dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        delay: i64,
        distance: u32,
        kind: DepKind,
        is_mem: bool,
    ) -> EdgeId {
        assert!(from.index() < self.num_nodes(), "from node out of range");
        assert!(to.index() < self.num_nodes(), "to node out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(DepEdge {
            from,
            to,
            delay,
            distance,
            kind,
            is_mem,
        });
        self.succ[from.index()].push(id);
        self.pred[to.index()].push(id);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.succ.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges, indexable by [`EdgeId::index`].
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &DepEdge {
        &self.edges[id.index()]
    }

    /// Outgoing edges of `node`.
    pub fn succs(&self, node: NodeId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.succ[node.index()]
            .iter()
            .map(|e| &self.edges[e.index()])
    }

    /// Incoming edges of `node`.
    pub fn preds(&self, node: NodeId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.pred[node.index()]
            .iter()
            .map(|e| &self.edges[e.index()])
    }

    /// All node ids, `0..num_nodes`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }
}

impl fmt::Display for DepGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph: {} nodes, {} edges",
            self.num_nodes(),
            self.num_edges()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {}  delay={} dist={} {}{}",
                e.from,
                e.to,
                e.delay,
                e.distance,
                e.kind,
                if e.is_mem { " (mem)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_lists_track_edges() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 1, 0, DepKind::Flow, false);
        g.add_edge(b, a, 0, 1, DepKind::Anti, false);
        g.add_edge(a, b, 2, 1, DepKind::Output, true);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.succs(a).count(), 2);
        assert_eq!(g.preds(b).count(), 2);
        assert_eq!(g.succs(b).count(), 1);
        let mem_edges: Vec<_> = g.edges().iter().filter(|e| e.is_mem).collect();
        assert_eq!(mem_edges.len(), 1);
    }

    #[test]
    fn self_edges_allowed() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        g.add_edge(a, a, 3, 1, DepKind::Flow, false);
        assert_eq!(g.succs(a).count(), 1);
        assert_eq!(g.preds(a).count(), 1);
    }

    #[test]
    fn with_nodes_preallocates() {
        let g = DepGraph::with_nodes(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        g.add_edge(a, NodeId(7), 0, 0, DepKind::Flow, false);
    }

    #[test]
    fn display_lists_edges() {
        let mut g = DepGraph::new();
        let a = g.add_node();
        g.add_edge(a, a, 1, 1, DepKind::Flow, true);
        let s = g.to_string();
        assert!(s.contains("(mem)"), "got {s}");
        assert!(s.contains("dist=1"), "got {s}");
    }
}
