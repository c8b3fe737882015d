//! Isomorphism-stable canonicalization of labeled dependence graphs.
//!
//! Two dependence graphs that differ only in how their nodes are numbered
//! describe the same scheduling problem, and a content-addressed schedule
//! cache must map them to the same key. A [`Canonicalizer`] computes the
//! [`CanonicalForm`] of a graph given as one opaque `u64` label per node
//! (opcodes, in the scheduler's use) and a list of edges: a **canonical
//! node ordering**, and the graph's **canonical edges**, every edge with
//! its endpoints rewritten to canonical positions, sorted. The labels in
//! canonical order and the canonical edges describe the labeled
//! multigraph completely, and renumbering its nodes or listing its edges
//! in another order leaves both unchanged, so two graphs share them
//! exactly when they are isomorphic. A caller hashes them, with whatever
//! else it keys on, for a cache key or a corpus dedup fingerprint.
//!
//! The algorithm is the classic refine-and-individualize scheme:
//!
//! 1. **Color refinement** (1-dimensional Weisfeiler–Leman): every node
//!    starts with a color given by the rank of its label, and colors are
//!    repeatedly re-ranked by the multiset of `(edge attributes, neighbor
//!    color)` signatures over incoming and outgoing edges until the
//!    partition stops splitting. Signatures are ranked by *sorting*, never
//!    by hashing, so ties cannot depend on node numbering. Refinement
//!    reads a compressed adjacency built once per graph from its edge
//!    list: each node's out-edges, then its in-edges, each with its four
//!    attribute words computed. Each round ranks one color class at a
//!    time, in color order: a singleton class takes the next rank without
//!    building a signature, and a larger class sorts its members by their
//!    signatures, written into one reused flat buffer.
//! 2. **Individualization with branching**: if refinement leaves a color
//!    class with more than one node, each member is tried as the class
//!    representative in turn, in node order, and refinement resumes.
//!    Trying *every* member is what makes the result independent of the
//!    input numbering even when the class is not an automorphism orbit.
//!
//! A search ends in **leaves**, colorings with one node per color, whose
//! colors are the canonical positions; when refinement alone ends in one,
//! as it does for most graphs, nothing is compared. Otherwise the leaf
//! with the least canonical edges wins, compared as sorted lists of
//! `(from, to, delay, distance, kind, is_mem)`, and of equal leaves the
//! first. Every leaf puts the nodes in label order, since refinement and
//! individualization split classes but never reorder them, so the labels
//! in canonical order tie in every leaf and the edges alone decide. No
//! byte encoding is built: this is the order in which a serialization of
//! the labels and the sorted edges as fixed-size big-endian records would
//! sort.
//!
//! **Signatures keep five words.** An edge's signature is five `u64`
//! words (shifted delay, distance, kind, memory flag, neighbor color),
//! and `u64::MAX` separates a node's out-edge signatures from its in-edge
//! ones. Packing the words into fewer, wider tokens would reorder
//! signatures: a delay of `i64::MAX` shifts to `u64::MAX`, the separator's
//! value, and a token holding it sorts against the separator unlike its
//! five words do, so such graphs would take other canonical orders.
//!
//! Dependence graphs are small (the paper's corpus tops out near 163
//! operations) and mostly heterogeneous: of the paper's 1,327 corpus
//! loops as service requests, refinement alone discretizes 1,215, and the
//! other 112 branch with at most 15 search calls each. Symmetric graphs
//! do arise, though: `k` identical unconnected operations, which
//! unrolling independent iterations produces, branch `k!` ways. The
//! search has no automorphism pruning and no branch budget yet
//! (`ROADMAP.md` lists both as open work).

use crate::graph::{DepEdge, NodeId};

/// The canonical form of a labeled graph: its canonical node ordering,
/// both ways, and its edges in canonical positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanonicalForm {
    /// `order[p]` is the original node occupying canonical position `p`.
    pub order: Vec<NodeId>,
    /// `position[v.index()]` is the canonical position of original node
    /// `v` — the inverse permutation of [`order`](CanonicalForm::order).
    pub position: Vec<usize>,
    /// Every edge with its endpoints rewritten to canonical positions,
    /// sorted by `(from, to, delay, distance, kind, is_mem)`. With the
    /// labels in canonical order, equal for two graphs **iff** they are
    /// isomorphic as labeled multigraphs: relabelings always agree, and
    /// the two describe a graph completely.
    pub edges: Vec<DepEdge>,
}

/// Computes canonical forms, keeping its buffers from one graph to the
/// next.
#[derive(Debug, Default)]
pub struct Canonicalizer {
    adjacency: Adjacency,
    refiner: Refiner,
    /// Distinct labels, sorted: a node's first color is its label's rank.
    ranked: Vec<u64>,
    /// The current leaf's canonical edges and node order.
    leaf: Vec<DepEdge>,
    leaf_order: Vec<NodeId>,
    /// The least leaf so far, once `found`.
    form: CanonicalForm,
    found: bool,
}

impl Canonicalizer {
    /// A canonicalizer with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical form of the graph whose node `v` carries
    /// `labels[v]` and whose edges are `edges`, in any order.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a node past the last label.
    pub fn canonicalize(&mut self, labels: &[u64], edges: &[DepEdge]) -> &CanonicalForm {
        let n = labels.len();
        self.adjacency.build(n, edges);
        self.found = false;
        self.form.order.clear();
        self.form.position.clear();
        self.form.edges.clear();
        if n > 0 {
            self.ranked.clear();
            self.ranked.extend_from_slice(labels);
            self.ranked.sort_unstable();
            self.ranked.dedup();
            let colors = labels
                .iter()
                .map(|l| self.ranked.binary_search(l).expect("every label is ranked") as u32)
                .collect();
            self.search(edges, colors);
        }
        &self.form
    }

    /// Refines `colors`, then either takes the discrete coloring as a
    /// leaf or branches on every member of the first ambiguous class.
    fn search(&mut self, edges: &[DepEdge], mut colors: Vec<u32>) {
        self.refiner.refine(&self.adjacency, &mut colors);
        // Refinement leaves its node list sorted by color, so the first
        // two neighbors there that share a color name the smallest color
        // whose class holds more than one node.
        let target = self.refiner.nodes.windows(2).find_map(|w| {
            let c = colors[w[0] as usize];
            (c == colors[w[1] as usize]).then_some(c)
        });
        let Some(target) = target else {
            return self.leaf(edges, &colors);
        };
        for v in 0..colors.len() {
            if colors[v] != target {
                continue;
            }
            // Individualize node v: it keeps `target`, the rest of its
            // class and every later class shift up by one. Relative order
            // of all other classes is preserved, so this is a strict
            // refinement.
            let branched = colors
                .iter()
                .enumerate()
                .map(|(i, &c)| c + u32::from(c > target || (c == target && i != v)))
                .collect();
            self.search(edges, branched);
        }
    }

    /// Takes the discrete coloring `position` as the canonical form if it
    /// is the first leaf, or if its canonical edges are less than the
    /// least leaf's so far.
    fn leaf(&mut self, edges: &[DepEdge], position: &[u32]) {
        let order = &mut self.leaf_order;
        order.resize(position.len(), NodeId(0));
        for (v, &p) in position.iter().enumerate() {
            order[p as usize] = NodeId(v as u32);
        }
        // Node by node in canonical order, each node's out-edges sorted:
        // all edges sorted, by their canonical source first.
        self.leaf.clear();
        for (p, v) in order.iter().enumerate() {
            let first = self.leaf.len();
            self.leaf
                .extend(self.adjacency.outs(v.index()).iter().map(|l| DepEdge {
                    from: NodeId(p as u32),
                    to: NodeId(position[l.other as usize]),
                    ..edges[l.edge as usize]
                }));
            self.leaf[first..].sort_unstable();
        }
        if self.found && self.leaf >= self.form.edges {
            return;
        }
        self.found = true;
        let form = &mut self.form;
        std::mem::swap(&mut self.leaf, &mut form.edges);
        std::mem::swap(&mut self.leaf_order, &mut form.order);
        form.position.clear();
        form.position.extend(position.iter().map(|&p| p as usize));
    }
}

/// One end of an edge, as its node sees it: the edge's attribute words
/// and the node at its other end.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    attrs: [u64; 4],
    other: u32,
    /// The edge's index in the edge list.
    edge: u32,
}

impl Link {
    fn new(e: &DepEdge, edge: usize, other: NodeId) -> Self {
        Link {
            // The delay is shifted into unsigned space so that the
            // unsigned order matches the numeric order.
            attrs: [
                (e.delay as u64).wrapping_add(1 << 63),
                e.distance.into(),
                e.kind as u64,
                e.is_mem.into(),
            ],
            other: other.0,
            edge: edge as u32,
        }
    }

    /// The link's signature under `colors`: its attribute words, then
    /// the color of the node at its other end.
    fn sig(&self, colors: &[u32]) -> [u64; 5] {
        let [delay, distance, kind, is_mem] = self.attrs;
        let color = colors[self.other as usize].into();
        [delay, distance, kind, is_mem, color]
    }
}

/// Every node's out-links, then its in-links, in one flat array.
#[derive(Debug, Default)]
struct Adjacency {
    /// Node `v`'s links are `links[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    /// Node `v`'s out-links end, and its in-links begin, at `split[v]`.
    split: Vec<usize>,
    /// Where the next out-link (`fill[v]`) and in-link (`fill[n + v]`)
    /// of node `v` goes while the links are written.
    fill: Vec<usize>,
    links: Vec<Link>,
}

impl Adjacency {
    /// Rebuilds the adjacency of `n` nodes joined by `edges`.
    fn build(&mut self, n: usize, edges: &[DepEdge]) {
        let Adjacency {
            start,
            split,
            fill,
            links,
        } = self;
        start.clear();
        start.resize(n + 1, 0);
        split.clear();
        split.resize(n, 0);
        for e in edges {
            let (from, to) = (e.from.index(), e.to.index());
            assert!(from < n && to < n, "edge endpoint past the last label");
            split[from] += 1;
            start[from + 1] += 1;
            start[to + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
            split[v] += start[v];
        }
        fill.clear();
        fill.extend_from_slice(&start[..n]);
        fill.extend_from_slice(split);
        links.clear();
        links.resize(2 * edges.len(), Link::default());
        for (i, e) in edges.iter().enumerate() {
            let (from, to) = (e.from.index(), e.to.index());
            links[fill[from]] = Link::new(e, i, e.to);
            fill[from] += 1;
            links[fill[n + to]] = Link::new(e, i, e.from);
            fill[n + to] += 1;
        }
    }

    fn outs(&self, v: usize) -> &[Link] {
        &self.links[self.start[v]..self.split[v]]
    }

    fn ins(&self, v: usize) -> &[Link] {
        &self.links[self.split[v]..self.start[v + 1]]
    }
}

/// The buffers color refinement reuses from round to round.
#[derive(Debug, Default)]
struct Refiner {
    /// Every node, sorted by color.
    nodes: Vec<u32>,
    /// The colors the current round hands out.
    next: Vec<u32>,
    /// The signatures of the class being ranked, back to back: node `v`'s
    /// is `sigs[span[v].0..span[v].1]`.
    sigs: Vec<u64>,
    span: Vec<(usize, usize)>,
}

impl Refiner {
    /// Runs color refinement to a fixed point. Colors are dense ranks in
    /// `0..k`; refinement only ever splits classes (each signature embeds
    /// the previous color), so the fixed point is reached when the class
    /// count stops growing.
    ///
    /// A node's signature is its color, then its sorted out-link
    /// signatures, `u64::MAX`, and its sorted in-link signatures. Since
    /// the color comes first, sorting all signatures would order them
    /// class by class, so each round ranks one class at a time, in color
    /// order, and hands out the same dense ranks. A singleton class takes
    /// the next rank without building its signature. A larger class
    /// writes its members' signatures, less the shared color, into one
    /// reused flat buffer, sorts its members by slice comparison and ranks
    /// them in one scan. Sorting each class in place keeps the node list
    /// in color order for the next round.
    fn refine(&mut self, adjacency: &Adjacency, colors: &mut [u32]) {
        let Refiner {
            nodes,
            next,
            sigs,
            span,
        } = self;
        let n = colors.len();
        // Colors are dense ranks below `n`: count the nodes of each color
        // into `next`, then place every node after the colors before its
        // own.
        next.clear();
        next.resize(n, 0);
        for &c in colors.iter() {
            next[c as usize] += 1;
        }
        let mut at = 0;
        for count in next.iter_mut() {
            (*count, at) = (at, at + *count);
        }
        nodes.clear();
        nodes.resize(n, 0);
        for (v, &c) in colors.iter().enumerate() {
            nodes[next[c as usize] as usize] = v as u32;
            next[c as usize] += 1;
        }
        span.clear();
        span.resize(n, (0, 0));
        // Every round but the last splits a class, so at most `n` rounds run.
        for _ in 0..n {
            let (mut rank, mut classes) = (0u32, 0usize);
            let mut start = 0;
            while start < n {
                let c = colors[nodes[start] as usize];
                let end = nodes[start..]
                    .iter()
                    .position(|&v| colors[v as usize] != c)
                    .map_or(n, |len| start + len);
                let class = &mut nodes[start..end];
                start = end;
                classes += 1;
                if let [v] = class {
                    next[*v as usize] = rank;
                    rank += 1;
                    continue;
                }
                sigs.clear();
                for &v in class.iter() {
                    let v = v as usize;
                    let from = sigs.len();
                    push_sorted(sigs, adjacency.outs(v), colors);
                    sigs.push(u64::MAX); // separator
                    push_sorted(sigs, adjacency.ins(v), colors);
                    span[v] = (from, sigs.len());
                }
                let sig = |v: &u32| {
                    let (a, b) = span[*v as usize];
                    &sigs[a..b]
                };
                class.sort_unstable_by(|a, b| sig(a).cmp(sig(b)));
                for (i, v) in class.iter().enumerate() {
                    if i > 0 && sig(v) != sig(&class[i - 1]) {
                        rank += 1;
                    }
                    next[*v as usize] = rank;
                }
                rank += 1;
            }
            colors.copy_from_slice(next);
            if rank as usize == classes {
                return;
            }
        }
    }
}

/// Appends the signatures of `links` under `colors` to `sigs`, sorted.
fn push_sorted(sigs: &mut Vec<u64>, links: &[Link], colors: &[u32]) {
    let from = sigs.len();
    for link in links {
        sigs.extend_from_slice(&link.sig(colors));
    }
    sigs[from..].as_chunks_mut::<5>().0.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepGraph, DepKind};
    use ims_testkit::{Rng, Xoshiro256};

    /// Stable small integer for an edge kind (declaration order).
    fn kind_code(kind: DepKind) -> u64 {
        match kind {
            DepKind::Flow => 0,
            DepKind::Anti => 1,
            DepKind::Output => 2,
            DepKind::Control => 3,
        }
    }

    /// One edge's contribution to a node signature: attributes plus the
    /// neighbor's current color. `delay` is shifted into non-negative space so
    /// the unsigned sort order matches the numeric order.
    fn edge_sig(e: &DepEdge, neighbor_color: u32) -> [u64; 5] {
        [
            (e.delay as u64).wrapping_add(1 << 63),
            e.distance as u64,
            kind_code(e.kind),
            e.is_mem as u64,
            neighbor_color as u64,
        ]
    }

    /// Refines `colors` over the adjacency of `graph`'s edges, as the
    /// search does.
    fn refine(graph: &DepGraph, colors: &mut [u32]) {
        let mut adjacency = Adjacency::default();
        adjacency.build(graph.num_nodes(), graph.edges());
        Refiner::default().refine(&adjacency, colors);
    }

    /// The former `refine`, kept as the reference ranking: one signature
    /// `Vec` per node per round, one sort over all of them, and a binary
    /// search per node.
    fn reference_refine(graph: &DepGraph, colors: &mut [u32]) {
        let n = graph.num_nodes();
        loop {
            let mut sigs: Vec<Vec<u64>> = Vec::with_capacity(n);
            for v in graph.nodes() {
                let mut s: Vec<u64> = vec![colors[v.index()] as u64];
                let mut outs: Vec<[u64; 5]> = graph
                    .succs(v)
                    .map(|e| edge_sig(e, colors[e.to.index()]))
                    .collect();
                outs.sort_unstable();
                s.push(u64::MAX); // separator
                for o in &outs {
                    s.extend_from_slice(o);
                }
                let mut ins: Vec<[u64; 5]> = graph
                    .preds(v)
                    .map(|e| edge_sig(e, colors[e.from.index()]))
                    .collect();
                ins.sort_unstable();
                s.push(u64::MAX);
                for i in &ins {
                    s.extend_from_slice(i);
                }
                sigs.push(s);
            }
            let mut uniq: Vec<&Vec<u64>> = sigs.iter().collect();
            uniq.sort_unstable();
            uniq.dedup();
            let old_classes = colors.iter().max().map_or(0, |&c| c as usize + 1);
            for (i, c) in colors.iter_mut().enumerate() {
                *c = uniq.binary_search(&&sigs[i]).unwrap() as u32;
            }
            if uniq.len() == old_classes {
                return;
            }
        }
    }

    /// A random multigraph with 2–4 labels, few edge attribute values,
    /// parallel edges, self-loops and negative delays. Odd seeds give two
    /// disjoint copies of it, so some classes never split.
    fn tie_heavy_graph(seed: u64) -> (DepGraph, Vec<u64>) {
        const KINDS: [DepKind; 4] = [
            DepKind::Flow,
            DepKind::Anti,
            DepKind::Output,
            DepKind::Control,
        ];
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let n = rng.gen_range(1..=7usize);
        let num_labels = rng.gen_range(2..=4u64);
        let labels: Vec<u64> = (0..n).map(|_| rng.gen_range(0..num_labels)).collect();
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..=2 * n) {
            let edge = (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2..=3i64),
                rng.gen_range(0..=2u32),
                *rng.choose(&KINDS).unwrap(),
                rng.gen_bool(0.25),
            );
            let parallel = if rng.gen_bool(0.2) { 2 } else { 1 };
            edges.extend(std::iter::repeat_n(edge, parallel));
        }
        let copies = 1 + seed as usize % 2;
        let mut g = DepGraph::with_nodes(n * copies);
        for k in 0..copies {
            for &(from, to, delay, distance, kind, is_mem) in &edges {
                let (from, to) = (NodeId((k * n + from) as u32), NodeId((k * n + to) as u32));
                g.add_edge(from, to, delay, distance, kind, is_mem);
            }
        }
        (g, labels.repeat(copies))
    }

    #[test]
    fn refine_ranks_like_the_reference() {
        let mut individualized = 0;
        for seed in 0..400 {
            let (g, labels) = tie_heavy_graph(seed);
            // Label ranks, as `canonicalize` starts the search.
            let mut ranked = labels.clone();
            ranked.sort_unstable();
            ranked.dedup();
            let start: Vec<u32> = labels
                .iter()
                .map(|l| ranked.binary_search(l).unwrap() as u32)
                .collect();
            let mut starts = vec![start.clone()];
            // Every individualization of the first ambiguous class, as
            // `search` branches.
            let mut refined = start;
            reference_refine(&g, &mut refined);
            let mut counts = vec![0u32; refined.len()];
            for &c in &refined {
                counts[c as usize] += 1;
            }
            if let Some(target) = counts.iter().position(|&k| k > 1) {
                let target = target as u32;
                for v in (0..refined.len()).filter(|&v| refined[v] == target) {
                    starts.push(
                        refined
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| c + u32::from(c > target || (c == target && i != v)))
                            .collect(),
                    );
                }
            }
            individualized += starts.len() - 1;
            for start in starts {
                let (mut got, mut want) = (start.clone(), start.clone());
                refine(&g, &mut got);
                reference_refine(&g, &mut want);
                assert_eq!(got, want, "seed {seed}, start {start:?}");
            }
        }
        assert!(
            individualized >= 400,
            "only {individualized} individualized starts"
        );
    }

    /// The labels in canonical order and the canonical edges: together,
    /// the labeled graph up to renumbering.
    fn described(graph: &DepGraph, labels: &[u64]) -> (Vec<u64>, Vec<DepEdge>) {
        let form = Canonicalizer::new()
            .canonicalize(labels, graph.edges())
            .clone();
        let ordered = form.order.iter().map(|v| labels[v.index()]).collect();
        (ordered, form.edges)
    }

    #[test]
    fn reused_buffers_give_fresh_results() {
        let mut reused = Canonicalizer::new();
        for seed in 0..200 {
            let (g, labels) = tie_heavy_graph(seed);
            // Two copies of seven identical unconnected nodes would
            // branch 14! ways.
            if labels.len() > 8 {
                continue;
            }
            let fresh = Canonicalizer::new()
                .canonicalize(&labels, g.edges())
                .clone();
            assert_eq!(
                *reused.canonicalize(&labels, g.edges()),
                fresh,
                "seed {seed}"
            );
        }
    }

    fn chain(labels: &[u64]) -> (DepGraph, Vec<u64>) {
        let mut g = DepGraph::with_nodes(labels.len());
        for i in 1..labels.len() {
            g.add_edge(
                NodeId(i as u32 - 1),
                NodeId(i as u32),
                1,
                0,
                DepKind::Flow,
                false,
            );
        }
        (g, labels.to_vec())
    }

    #[test]
    fn reversed_chain_matches_forward_chain() {
        let (g, labels) = chain(&[7, 8, 9]);
        // Same chain built with node ids reversed: 2 -> 1 -> 0.
        let mut h = DepGraph::with_nodes(3);
        h.add_edge(NodeId(2), NodeId(1), 1, 0, DepKind::Flow, false);
        h.add_edge(NodeId(1), NodeId(0), 1, 0, DepKind::Flow, false);
        assert_eq!(described(&g, &labels), described(&h, &[9, 8, 7]));
    }

    #[test]
    fn order_and_position_are_inverse_permutations() {
        let (g, labels) = chain(&[5, 5, 5, 5]);
        let mut canonicalizer = Canonicalizer::new();
        let c = canonicalizer.canonicalize(&labels, g.edges());
        assert_eq!(c.order.len(), 4);
        for (p, &v) in c.order.iter().enumerate() {
            assert_eq!(c.position[v.index()], p);
        }
        let mut seen = c.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn label_changes_change_the_form() {
        let (g, labels) = chain(&[1, 2, 3]);
        let (h, other) = chain(&[1, 2, 4]);
        assert_ne!(described(&g, &labels), described(&h, &other));
    }

    #[test]
    fn edge_attribute_changes_change_the_form() {
        let mut g = DepGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1, 0, DepKind::Flow, false);
        let mut h = DepGraph::with_nodes(2);
        h.add_edge(NodeId(0), NodeId(1), 1, 1, DepKind::Flow, false);
        let labels = [3, 3];
        assert_ne!(described(&g, &labels), described(&h, &labels));
        let mut k = DepGraph::with_nodes(2);
        k.add_edge(NodeId(0), NodeId(1), 1, 0, DepKind::Anti, false);
        assert_ne!(described(&g, &labels), described(&k, &labels));
    }

    #[test]
    fn symmetric_graph_canonicalizes_via_branching() {
        // Two disconnected identical 2-cycles: refinement alone cannot
        // separate them, so the individualization branch must run — and
        // any numbering of the four nodes must agree.
        let build = |perm: [u32; 4]| {
            let mut g = DepGraph::with_nodes(4);
            g.add_edge(NodeId(perm[0]), NodeId(perm[1]), 2, 1, DepKind::Flow, false);
            g.add_edge(NodeId(perm[1]), NodeId(perm[0]), 1, 0, DepKind::Anti, false);
            g.add_edge(NodeId(perm[2]), NodeId(perm[3]), 2, 1, DepKind::Flow, false);
            g.add_edge(NodeId(perm[3]), NodeId(perm[2]), 1, 0, DepKind::Anti, false);
            g
        };
        let labels = [4u64; 4];
        let base = described(&build([0, 1, 2, 3]), &labels);
        for perm in [[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0], [0, 2, 1, 3]] {
            // The last permutation mixes the two cycles' node ids; the
            // graphs are still isomorphic as labeled multigraphs.
            assert_eq!(base, described(&build(perm), &labels), "{perm:?}");
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = DepGraph::new();
        let c = Canonicalizer::new().canonicalize(&[], g.edges()).clone();
        assert!(c.order.is_empty());
        let mut h = DepGraph::new();
        h.add_node();
        let c1 = Canonicalizer::new().canonicalize(&[42], h.edges()).clone();
        assert_eq!(c1.order, vec![NodeId(0)]);
        assert_ne!(described(&g, &[]), described(&h, &[42]));
    }

    #[test]
    #[should_panic(expected = "edge endpoint past the last label")]
    fn edge_past_the_last_label_panics() {
        let mut g = DepGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1, 0, DepKind::Flow, false);
        let _ = Canonicalizer::new().canonicalize(&[7], g.edges());
    }
}
