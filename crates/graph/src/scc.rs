//! Strongly connected components (Tarjan's algorithm, iterative).
//!
//! The paper identifies SCCs with the depth-first algorithm of Aho, Hopcroft
//! and Ullman in `O(N+E)` time (§2.2, §4.4) and computes the RecMII one SCC
//! at a time, because *"there are very few SCCs that are large, and O(N³) is
//! quite a bit more tolerable for the small values of N encountered when N
//! is the number of operations in a single SCC"*.

use ims_prof::{phase, ProfSink};

use crate::graph::{DepGraph, NodeId};

/// The SCC decomposition of a [`DepGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccInfo {
    /// For each node, the index of its component in `components`.
    pub component_of: Vec<usize>,
    /// The components. They are emitted in **reverse topological order** of
    /// the condensation (a Tarjan property): every edge between distinct
    /// components goes from a later component to an earlier one.
    pub components: Vec<Vec<NodeId>>,
}

impl SccInfo {
    /// Whether component `c` is **non-trivial**: it contains more than one
    /// operation. (§4.2: *"A non-trivial SCC is one containing more than
    /// one operation."*)
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn is_non_trivial(&self, c: usize) -> bool {
        self.components[c].len() > 1
    }

    /// Whether component `c` lies on a recurrence: it is non-trivial, or its
    /// single node has a self-edge in `graph`.
    pub fn is_recurrence(&self, c: usize, graph: &DepGraph) -> bool {
        if self.is_non_trivial(c) {
            return true;
        }
        let n = self.components[c][0];
        graph.succs(n).any(|e| e.to == n)
    }

    /// Components in topological order of the condensation (sources first).
    pub fn topological(&self) -> impl Iterator<Item = &Vec<NodeId>> {
        self.components.iter().rev()
    }
}

/// Computes the strongly connected components of `graph` with an iterative
/// Tarjan traversal.
///
/// `work` is incremented once per edge examined plus once per node visited,
/// giving the `O(N+E)` operation count reported in the paper's Table 4.
/// Any [`ProfSink`] works: a plain `&mut u64` keeps the historical counter
/// behaviour, a `MetricsRegistry` files the count under
/// [`phase::GRAPH_SCC_WORK`].
pub fn sccs<W: ProfSink>(graph: &DepGraph, work: &mut W) -> SccInfo {
    let n = graph.num_nodes();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let mut component_of = vec![usize::MAX; n];

    // Explicit DFS stack: (node, iterator position into its successor list).
    let mut call_stack: Vec<(u32, usize)> = Vec::new();

    // Pre-resolve successor targets once so the stack frames can index them.
    let succ_targets: Vec<Vec<u32>> = (0..n)
        .map(|v| graph.succs(NodeId(v as u32)).map(|e| e.to.0).collect())
        .collect();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        work.count(phase::GRAPH_SCC_WORK, 1);

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let vi = v as usize;
            if *pos < succ_targets[vi].len() {
                let w = succ_targets[vi][*pos];
                *pos += 1;
                work.count(phase::GRAPH_SCC_WORK, 1);
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    call_stack.push((w, 0));
                    work.count(phase::GRAPH_SCC_WORK, 1);
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    let pi = parent as usize;
                    lowlink[pi] = lowlink[pi].min(lowlink[vi]);
                }
                if lowlink[vi] == index[vi] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack never underflows");
                        on_stack[w as usize] = false;
                        component_of[w as usize] = components.len();
                        comp.push(NodeId(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    components.push(comp);
                }
            }
        }
    }

    SccInfo {
        component_of,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;

    fn edge(g: &mut DepGraph, a: NodeId, b: NodeId) {
        g.add_edge(a, b, 1, 0, DepKind::Flow, false);
    }

    fn non_trivial(info: &SccInfo) -> usize {
        (0..info.components.len())
            .filter(|&c| info.is_non_trivial(c))
            .count()
    }

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let mut g = DepGraph::with_nodes(3);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        edge(&mut g, a, b);
        edge(&mut g, b, c);
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert_eq!(info.components.len(), 3);
        assert_eq!(non_trivial(&info), 0);
        assert!(w >= 3);
    }

    #[test]
    fn cycle_is_one_component() {
        let mut g = DepGraph::with_nodes(4);
        let ns: Vec<NodeId> = (0..4).map(NodeId).collect();
        edge(&mut g, ns[0], ns[1]);
        edge(&mut g, ns[1], ns[2]);
        edge(&mut g, ns[2], ns[0]);
        edge(&mut g, ns[2], ns[3]);
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert_eq!(info.components.len(), 2);
        assert_eq!(non_trivial(&info), 1);
        let big = info.component_of[0];
        assert_eq!(info.components[big], vec![ns[0], ns[1], ns[2]]);
        assert_eq!(info.component_of[1], big);
        assert_eq!(info.component_of[2], big);
        assert_ne!(info.component_of[3], big);
    }

    #[test]
    fn reverse_topological_emission() {
        // a -> b: b's component must be emitted before a's.
        let mut g = DepGraph::with_nodes(2);
        edge(&mut g, NodeId(0), NodeId(1));
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert!(info.component_of[1] < info.component_of[0]);
        // topological() reverses: sources first.
        let topo: Vec<&Vec<NodeId>> = info.topological().collect();
        assert_eq!(topo[0], &vec![NodeId(0)]);
    }

    #[test]
    fn self_edge_is_a_recurrence_but_trivial() {
        let mut g = DepGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(0), 1, 1, DepKind::Flow, false);
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert_eq!(info.components.len(), 2);
        assert_eq!(non_trivial(&info), 0);
        let c0 = info.component_of[0];
        let c1 = info.component_of[1];
        assert!(info.is_recurrence(c0, &g));
        assert!(!info.is_recurrence(c1, &g));
    }

    #[test]
    fn two_disjoint_cycles() {
        let mut g = DepGraph::with_nodes(4);
        edge(&mut g, NodeId(0), NodeId(1));
        edge(&mut g, NodeId(1), NodeId(0));
        edge(&mut g, NodeId(2), NodeId(3));
        edge(&mut g, NodeId(3), NodeId(2));
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert_eq!(info.components.len(), 2);
        assert_eq!(non_trivial(&info), 2);
    }

    #[test]
    fn multi_edges_do_not_confuse_tarjan() {
        let mut g = DepGraph::with_nodes(2);
        edge(&mut g, NodeId(0), NodeId(1));
        edge(&mut g, NodeId(0), NodeId(1));
        edge(&mut g, NodeId(1), NodeId(0));
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert_eq!(info.components.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = DepGraph::new();
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert!(info.components.is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // The iterative implementation must handle long chains.
        let n = 100_000;
        let mut g = DepGraph::with_nodes(n);
        for i in 0..n - 1 {
            edge(&mut g, NodeId(i as u32), NodeId(i as u32 + 1));
        }
        let mut w = 0;
        let info = sccs(&g, &mut w);
        assert_eq!(info.components.len(), n);
    }
}
