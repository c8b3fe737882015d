//! Isomorphism-stable canonicalization of labeled dependence graphs.
//!
//! Two dependence graphs that differ only in how their nodes are numbered
//! describe the same scheduling problem, and a content-addressed schedule
//! cache must map them to the same key. [`canonical_form`] computes a
//! **canonical node ordering** of a [`DepGraph`] whose nodes carry opaque
//! `u64` labels (opcodes, in the scheduler's use): relabeling the nodes of
//! a graph by any permutation leaves the canonical byte
//! [`encoding`](CanonicalForm::encoding) — and therefore
//! [`canonical_key`] — unchanged.
//!
//! The algorithm is the classic refine-and-individualize scheme:
//!
//! 1. **Color refinement** (1-dimensional Weisfeiler–Leman): every node
//!    starts with a color given by the rank of its label, and colors are
//!    repeatedly re-ranked by the multiset of `(edge attributes, neighbor
//!    color)` signatures over incoming and outgoing edges until the
//!    partition stops splitting. Signatures are ranked by *sorting*, never
//!    by hashing, so ties cannot depend on node numbering. Each round
//!    ranks one color class at a time, in color order: a singleton class
//!    takes the next rank without building a signature, and a larger
//!    class sorts its members by their signatures, written into one
//!    reused flat buffer.
//! 2. **Individualization with branching**: if refinement leaves a color
//!    class with more than one node, each member is tried as the class
//!    representative in turn, refinement resumes, and the lexicographically
//!    smallest resulting encoding wins. Trying *every* member is what makes
//!    the result independent of the input numbering even when the class is
//!    not an automorphism orbit.
//!
//! Dependence graphs are small (the paper's corpus tops out near 163
//! operations) and mostly heterogeneous: of the paper's 1,327 corpus
//! loops as service requests, refinement alone discretizes 1,215, and the
//! other 112 branch with at most 15 search calls each. Symmetric graphs
//! do arise, though: `k` identical unconnected operations, which
//! unrolling independent iterations produces, branch `k!` ways. The
//! search has no automorphism pruning and no branch budget yet
//! (`ROADMAP.md` lists both as open work).
//!
//! Beyond cache keying, the canonical encoding doubles as a corpus
//! **dedup** fingerprint: loops generated with different node numberings
//! collapse onto one encoding.

use crate::graph::{DepEdge, DepGraph, DepKind, NodeId};

/// The result of canonicalizing a labeled graph: a canonical node
/// ordering (both directions) plus the canonical byte encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// `order[p]` is the original node occupying canonical position `p`.
    pub order: Vec<NodeId>,
    /// `position[v.index()]` is the canonical position of original node
    /// `v` — the inverse permutation of [`order`](CanonicalForm::order).
    pub position: Vec<usize>,
    /// The canonical byte encoding of the labeled graph: node count, edge
    /// count, labels in canonical order, then the sorted edge list in
    /// canonical indices. Equal for two graphs **iff** they are isomorphic
    /// as labeled multigraphs (relabelings always agree; distinct
    /// structures always differ because the encoding is a complete
    /// description).
    pub encoding: Vec<u8>,
}

/// Computes the canonical form of `graph` with one `u64` label per node.
///
/// # Panics
///
/// Panics if `labels.len() != graph.num_nodes()`.
pub fn canonical_form(graph: &DepGraph, labels: &[u64]) -> CanonicalForm {
    assert_eq!(
        labels.len(),
        graph.num_nodes(),
        "one label per node required"
    );
    let n = graph.num_nodes();
    if n == 0 {
        return CanonicalForm {
            order: Vec::new(),
            position: Vec::new(),
            encoding: encode(graph, labels, &[]),
        };
    }

    // Initial colors: rank of each node's label (id-independent).
    let mut ranked: Vec<u64> = labels.to_vec();
    ranked.sort_unstable();
    ranked.dedup();
    let colors: Vec<u32> = labels
        .iter()
        .map(|l| ranked.binary_search(l).unwrap() as u32)
        .collect();

    let (encoding, order) = search(graph, labels, colors);
    let mut position = vec![0usize; n];
    for (p, &v) in order.iter().enumerate() {
        position[v.index()] = p;
    }
    CanonicalForm {
        order,
        position,
        encoding,
    }
}

/// A 128-bit FNV-1a content hash of the canonical encoding: the
/// recommended cache key for "this labeled graph up to isomorphism".
/// Callers that key on more than the graph (machine model, scheduler
/// configuration) should fold those into their own hash alongside the
/// [`CanonicalForm::encoding`] bytes instead.
pub fn canonical_key(graph: &DepGraph, labels: &[u64]) -> u128 {
    fnv128(&canonical_form(graph, labels).encoding)
}

/// 128-bit FNV-1a over a byte string. Deterministic, allocation-free, and
/// std-only; collision resistance is ample for content addressing a
/// schedule cache (not a cryptographic commitment).
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

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

/// Runs color refinement to a fixed point. Colors are dense ranks in
/// `0..k`; refinement only ever splits classes (each signature embeds the
/// previous color), so the fixed point is reached when the class count
/// stops growing.
///
/// A node's signature is its color, then its sorted out-edge and in-edge
/// signatures. Since the color comes first, sorting all signatures would
/// order them class by class, so each round ranks one class at a time,
/// in color order, and hands out the same dense ranks. A singleton class
/// takes the next rank without building its signature. A larger class
/// writes its members' signatures, less the shared color, into one
/// reused flat buffer, sorts its members by slice comparison and ranks
/// them in one scan. Sorting each class in place keeps the node list in
/// color order for the next round.
fn refine(graph: &DepGraph, colors: &mut [u32]) {
    let n = graph.num_nodes();
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.sort_unstable_by_key(|v| colors[v.index()]);
    let mut next = vec![0u32; n];
    // Member v's signature within the current class is `sigs[a..b]`,
    // where `(a, b) = span[v]`.
    let mut sigs: Vec<u64> = Vec::new();
    let mut span = vec![(0usize, 0usize); n];
    let mut edges: Vec<[u64; 5]> = Vec::new();
    // Every round but the last splits a class, so at most `n` rounds run.
    for _ in 0..n {
        let (mut rank, mut classes) = (0u32, 0usize);
        let mut start = 0;
        while start < n {
            let c = colors[nodes[start].index()];
            let end = nodes[start..]
                .iter()
                .position(|v| colors[v.index()] != c)
                .map_or(n, |len| start + len);
            let class = &mut nodes[start..end];
            start = end;
            classes += 1;
            if let [v] = class {
                next[v.index()] = rank;
                rank += 1;
                continue;
            }
            sigs.clear();
            for &v in class.iter() {
                let from = sigs.len();
                edges.clear();
                edges.extend(graph.succs(v).map(|e| edge_sig(e, colors[e.to.index()])));
                edges.sort_unstable();
                sigs.extend(edges.iter().flatten());
                sigs.push(u64::MAX); // separator
                edges.clear();
                edges.extend(graph.preds(v).map(|e| edge_sig(e, colors[e.from.index()])));
                edges.sort_unstable();
                sigs.extend(edges.iter().flatten());
                span[v.index()] = (from, sigs.len());
            }
            let sig = |v: &NodeId| {
                let (a, b) = span[v.index()];
                &sigs[a..b]
            };
            class.sort_unstable_by(|a, b| sig(a).cmp(sig(b)));
            for (i, v) in class.iter().enumerate() {
                if i > 0 && sig(v) != sig(&class[i - 1]) {
                    rank += 1;
                }
                next[v.index()] = rank;
            }
            rank += 1;
        }
        colors.copy_from_slice(&next);
        if rank as usize == classes {
            return;
        }
    }
}

/// Refines `colors`, then either reads off the discrete ordering or
/// branches on the first ambiguous class, returning the lexicographically
/// smallest `(encoding, order)` over all branches.
fn search(graph: &DepGraph, labels: &[u64], mut colors: Vec<u32>) -> (Vec<u8>, Vec<NodeId>) {
    refine(graph, &mut colors);
    let n = graph.num_nodes();

    // Smallest color whose class holds more than one node, if any.
    let mut counts = vec![0u32; n];
    for &c in &colors {
        counts[c as usize] += 1;
    }
    let target = counts.iter().position(|&k| k > 1);

    let Some(target) = target else {
        // Discrete: colors are a permutation of 0..n.
        let mut order = vec![NodeId(0); n];
        for (i, &c) in colors.iter().enumerate() {
            order[c as usize] = NodeId(i as u32);
        }
        return (encode(graph, labels, &order), order);
    };

    let target = target as u32;
    let mut best: Option<(Vec<u8>, Vec<NodeId>)> = None;
    for v in 0..n {
        if colors[v] != target {
            continue;
        }
        // Individualize node v: it keeps `target`, the rest of its class
        // and every later class shift up by one. Relative order of all
        // other classes is preserved, so this is a strict refinement.
        let branched: Vec<u32> = colors
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if c > target || (c == target && i != v) {
                    c + 1
                } else {
                    c
                }
            })
            .collect();
        let candidate = search(graph, labels, branched);
        if best.as_ref().is_none_or(|b| candidate.0 < b.0) {
            best = Some(candidate);
        }
    }
    best.expect("ambiguous class is non-empty")
}

/// Serializes the labeled graph under the given node ordering: node and
/// edge counts, labels in canonical order, then the canonically indexed
/// edge list sorted bytewise. Contains everything [`DepGraph`] and the
/// labels describe, so equal encodings imply isomorphic labeled graphs.
fn encode(graph: &DepGraph, labels: &[u64], order: &[NodeId]) -> Vec<u8> {
    let n = graph.num_nodes();
    let mut position = vec![0u32; n];
    for (p, &v) in order.iter().enumerate() {
        position[v.index()] = p as u32;
    }
    let mut out = Vec::with_capacity(16 + 8 * n + 32 * graph.num_edges());
    out.extend_from_slice(&(n as u64).to_be_bytes());
    out.extend_from_slice(&(graph.num_edges() as u64).to_be_bytes());
    for &v in order {
        out.extend_from_slice(&labels[v.index()].to_be_bytes());
    }
    let mut edges: Vec<[u8; 28]> = graph
        .edges()
        .iter()
        .map(|e| {
            let mut b = [0u8; 28];
            b[0..4].copy_from_slice(&position[e.from.index()].to_be_bytes());
            b[4..8].copy_from_slice(&position[e.to.index()].to_be_bytes());
            // Shift into unsigned space so byte order matches numeric order.
            b[8..16].copy_from_slice(&(e.delay as u64).wrapping_add(1 << 63).to_be_bytes());
            b[16..20].copy_from_slice(&e.distance.to_be_bytes());
            b[20..24].copy_from_slice(&(kind_code(e.kind) as u32).to_be_bytes());
            b[24..28].copy_from_slice(&(e.is_mem as u32).to_be_bytes());
            b
        })
        .collect();
    edges.sort_unstable();
    for e in &edges {
        out.extend_from_slice(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_testkit::{Rng, Xoshiro256};

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
            // Label ranks, as `canonical_form` starts the search.
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
    fn reversed_chain_matches_forward_chain_key() {
        let (g, labels) = chain(&[7, 8, 9]);
        // Same chain built with node ids reversed: 2 -> 1 -> 0.
        let mut h = DepGraph::with_nodes(3);
        h.add_edge(NodeId(2), NodeId(1), 1, 0, DepKind::Flow, false);
        h.add_edge(NodeId(1), NodeId(0), 1, 0, DepKind::Flow, false);
        let hlabels = [9, 8, 7];
        assert_eq!(
            canonical_form(&g, &labels).encoding,
            canonical_form(&h, &hlabels).encoding
        );
        assert_eq!(canonical_key(&g, &labels), canonical_key(&h, &hlabels));
    }

    #[test]
    fn order_and_position_are_inverse_permutations() {
        let (g, labels) = chain(&[5, 5, 5, 5]);
        let c = canonical_form(&g, &labels);
        assert_eq!(c.order.len(), 4);
        for (p, &v) in c.order.iter().enumerate() {
            assert_eq!(c.position[v.index()], p);
        }
        let mut seen = c.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn label_changes_change_the_key() {
        let (g, labels) = chain(&[1, 2, 3]);
        let (h, other) = chain(&[1, 2, 4]);
        assert_ne!(canonical_key(&g, &labels), canonical_key(&h, &other));
    }

    #[test]
    fn edge_attribute_changes_change_the_key() {
        let mut g = DepGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1, 0, DepKind::Flow, false);
        let mut h = DepGraph::with_nodes(2);
        h.add_edge(NodeId(0), NodeId(1), 1, 1, DepKind::Flow, false);
        let labels = [3, 3];
        assert_ne!(canonical_key(&g, &labels), canonical_key(&h, &labels));
        let mut k = DepGraph::with_nodes(2);
        k.add_edge(NodeId(0), NodeId(1), 1, 0, DepKind::Anti, false);
        assert_ne!(canonical_key(&g, &labels), canonical_key(&k, &labels));
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
        let base = canonical_key(&build([0, 1, 2, 3]), &labels);
        for perm in [[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0], [0, 2, 1, 3]] {
            // The last permutation mixes the two cycles' node ids; the
            // graphs are still isomorphic as labeled multigraphs.
            assert_eq!(base, canonical_key(&build(perm), &labels), "{perm:?}");
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = DepGraph::new();
        let c = canonical_form(&g, &[]);
        assert!(c.order.is_empty());
        let mut h = DepGraph::new();
        h.add_node();
        let c1 = canonical_form(&h, &[42]);
        assert_eq!(c1.order, vec![NodeId(0)]);
        assert_ne!(c.encoding, c1.encoding);
    }

    #[test]
    #[should_panic(expected = "one label per node")]
    fn label_count_mismatch_panics() {
        let mut g = DepGraph::new();
        g.add_node();
        let _ = canonical_form(&g, &[]);
    }
}
