//! The canonicalization path this crate keyed requests with before
//! [`key_request`] read a compressed adjacency and streamed its key, kept
//! verbatim as the reference: [`canonical_form`] (refinement, search and
//! a byte encoding over a [`DepGraph`]), [`canonical_problem`] and
//! [`cache_key`]. The tests hold `key_request` to it, key, permutation
//! and canonical problem alike, on the corpus requests and on random
//! tie-heavy ones.

use ims_core::BackendSpec;
use ims_graph::{DepEdge, DepGraph, DepKind, NodeId};
use ims_ir::Opcode;
use ims_testkit::{Rng, Xoshiro256};

use super::{key_request, CanonProblem, Keyed};
use crate::corpus::gen_requests;
use crate::wire::{parse_request, Request, WireEdge};

/// The request's dependence graph over its operations, as the reference
/// canonicalizes it.
fn graph(req: &Request) -> DepGraph {
    let mut g = DepGraph::with_nodes(req.ops.len());
    for e in &req.edges {
        g.add_edge(
            NodeId(e.from),
            NodeId(e.to),
            e.delay,
            e.distance,
            e.kind,
            e.is_mem,
        );
    }
    g
}

/// `key_request` as it was: a [`DepGraph`], its canonical form and byte
/// encoding, then the canonical problem and the key bytes.
fn reference_key_request(req: &Request) -> Keyed {
    let graph = graph(req);
    let labels: Vec<u64> = req.labels().collect();
    let form = canonical_form(&graph, &labels);
    let canon = canonical_problem(req, &form);
    let key = cache_key(req, &canon);
    Keyed {
        canon,
        position: form.position,
        key,
    }
}

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

/// Rewrites the request's ops and edges into canonical order.
fn canonical_problem(req: &Request, form: &CanonicalForm) -> CanonProblem {
    let ops: Vec<Opcode> = form.order.iter().map(|v| req.ops[v.index()]).collect();
    let mut edges: Vec<WireEdge> = req
        .edges
        .iter()
        .map(|e| WireEdge {
            from: form.position[e.from as usize] as u32,
            to: form.position[e.to as usize] as u32,
            ..*e
        })
        .collect();
    edges.sort_by_key(|e| (e.from, e.to, e.delay, e.distance, e.kind as u8, e.is_mem));
    CanonProblem { ops, edges }
}

/// The 128-bit content hash: configuration fields that affect the
/// schedule, then the canonical graph bytes. See the module docs for the
/// exact inventory of what is and is not hashed.
fn cache_key(req: &Request, canon: &CanonProblem) -> u128 {
    let mut bytes: Vec<u8> = Vec::new();
    // v3: the key grew the pressure_limit field.
    bytes.extend_from_slice(b"ims-serve-key-v3\0");
    bytes.extend_from_slice(req.machine.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(req.backend.canonical().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&req.budget_ratio.to_bits().to_be_bytes());
    match req.max_ii {
        None => bytes.push(0),
        Some(m) => {
            bytes.push(1);
            bytes.extend_from_slice(&m.to_be_bytes());
        }
    }
    match req.node_limit {
        None => bytes.push(0),
        Some(n) => {
            bytes.push(1);
            bytes.extend_from_slice(&n.to_be_bytes());
        }
    }
    match req.pressure_limit {
        None => bytes.push(0),
        Some(p) => {
            bytes.push(1);
            bytes.extend_from_slice(&p.to_be_bytes());
        }
    }
    // The canonical problem is a pure function of the canonical encoding,
    // so hashing its serialization is hashing the encoding.
    bytes.extend_from_slice(&(canon.ops.len() as u64).to_be_bytes());
    for op in &canon.ops {
        bytes.extend_from_slice(op.mnemonic().as_bytes());
        bytes.push(0);
    }
    for e in &canon.edges {
        bytes.extend_from_slice(&e.from.to_be_bytes());
        bytes.extend_from_slice(&e.to.to_be_bytes());
        bytes.extend_from_slice(&e.delay.to_be_bytes());
        bytes.extend_from_slice(&e.distance.to_be_bytes());
        bytes.push(e.kind as u8);
        bytes.push(e.is_mem as u8);
    }
    fnv128(&bytes)
}

/// Whether refinement alone leaves some color class of `req` with more
/// than one node, so that the search branches.
fn branches(req: &Request) -> bool {
    let labels: Vec<u64> = req.labels().collect();
    let mut ranked = labels.clone();
    ranked.sort_unstable();
    ranked.dedup();
    let mut colors: Vec<u32> = labels
        .iter()
        .map(|l| ranked.binary_search(l).unwrap() as u32)
        .collect();
    refine(&graph(req), &mut colors);
    let mut distinct = colors.clone();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len() < colors.len()
}

/// Fails unless `key_request` and the reference agree on `req`.
fn assert_matches(req: &Request) {
    let (got, want) = (key_request(req), reference_key_request(req));
    assert_eq!(got.key, want.key, "key of {req:?}");
    assert_eq!(got.position, want.position, "position of {req:?}");
    assert_eq!(got.canon, want.canon, "canonical problem of {req:?}");
}

/// `req` with its operations renumbered by a random permutation and its
/// edges listed in a random order.
fn renumbered(req: &Request, rng: &mut Xoshiro256) -> Request {
    let mut perm: Vec<usize> = (0..req.ops.len()).collect();
    rng.shuffle(&mut perm);
    let mut ops = req.ops.clone();
    for (i, &p) in perm.iter().enumerate() {
        ops[p] = req.ops[i];
    }
    let mut edges: Vec<WireEdge> = req
        .edges
        .iter()
        .map(|e| WireEdge {
            from: perm[e.from as usize] as u32,
            to: perm[e.to as usize] as u32,
            ..*e
        })
        .collect();
    rng.shuffle(&mut edges);
    Request {
        ops,
        edges,
        ..req.clone()
    }
}

#[test]
fn corpus_requests_key_like_the_reference() {
    // The base requests of the serve benchmarks, then three renumbered
    // rounds of them.
    let requests: Vec<Request> = gen_requests(50389, 1327)
        .iter()
        .map(|line| parse_request(line).unwrap())
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(31);
    let mut branching = 0;
    for req in &requests {
        assert_matches(req);
        branching += usize::from(branches(req));
        for _ in 0..3 {
            assert_matches(&renumbered(req, &mut rng));
        }
    }
    assert_eq!(branching, 112);
}

/// A random request in the shape of `ims-graph`'s `tie_heavy_graph`: a
/// base graph over 2–4 opcodes with few edge attribute values, parallel
/// edges, self-loops and negative delays, in one to three copies, disjoint
/// or linked in a ring. An `extreme` request also draws delays from
/// `i64::MAX`, `i64::MIN` and `i64::MAX - 1`, and distances from
/// `u32::MAX`, which the wire refuses. Its configuration fields vary too,
/// since all of them are hashed.
fn tie_heavy_request(rng: &mut Xoshiro256, extreme: bool) -> Request {
    const KINDS: [DepKind; 4] = [
        DepKind::Flow,
        DepKind::Anti,
        DepKind::Output,
        DepKind::Control,
    ];
    const DELAYS: [i64; 3] = [i64::MAX, i64::MIN, i64::MAX - 1];
    let copies = rng.gen_range(1..=3usize);
    // At most seven nodes in all: k identical unconnected nodes branch
    // k! ways.
    let n = rng.gen_range(1..=7 / copies);
    let mut palette = Opcode::ALL.to_vec();
    rng.shuffle(&mut palette);
    palette.truncate(rng.gen_range(2..=4));
    let ops: Vec<Opcode> = (0..n).map(|_| *rng.choose(&palette).unwrap()).collect();
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0..=2 * n) {
        let delay = if extreme && rng.gen_bool(0.5) {
            *rng.choose(&DELAYS).unwrap()
        } else {
            rng.gen_range(-2..=3)
        };
        let distance = if extreme && rng.gen_bool(0.3) {
            u32::MAX
        } else {
            rng.gen_range(0..=2)
        };
        let edge = WireEdge {
            from: rng.gen_range(0..n) as u32,
            to: rng.gen_range(0..n) as u32,
            delay,
            distance,
            kind: *rng.choose(&KINDS).unwrap(),
            is_mem: rng.gen_bool(0.25),
        };
        let parallel = if rng.gen_bool(0.2) { 2 } else { 1 };
        edges.extend(std::iter::repeat_n(edge, parallel));
    }
    let ring = copies > 1 && rng.gen_bool(0.5);
    let mut copied = Vec::new();
    for k in 0..copies {
        let base = (k * n) as u32;
        copied.extend(edges.iter().map(|e| WireEdge {
            from: base + e.from,
            to: base + e.to,
            ..*e
        }));
        if ring {
            copied.push(WireEdge {
                from: base,
                to: (((k + 1) % copies) * n) as u32,
                delay: 1,
                distance: 1,
                kind: DepKind::Flow,
                is_mem: false,
            });
        }
    }
    let backends = ["ims", "exact", "portfolio(ims,sat)", "portfolio(sat,ims)"];
    Request {
        id: String::from("tie"),
        machine: rng
            .choose(&["cydra", "minimal", "wide2"])
            .unwrap()
            .to_string(),
        backend: rng
            .choose(&backends)
            .unwrap()
            .parse::<BackendSpec>()
            .unwrap(),
        budget_ratio: *rng.choose(&[1.0, 2.0, 2.5, 6.0]).unwrap(),
        max_ii: rng.gen_bool(0.2).then(|| rng.gen_range(1..=40)),
        node_limit: rng.gen_bool(0.2).then(|| rng.gen_range(1..=5000)),
        pressure_limit: rng.gen_bool(0.2).then(|| rng.gen_range(1..=32)),
        ops: ops.repeat(copies),
        edges: copied,
    }
}

#[test]
fn tie_heavy_requests_key_like_the_reference() {
    let mut rng = Xoshiro256::seed_from_u64(7);
    let mut branching = 0;
    for i in 0..20_000 {
        // Half go through the wire; the extreme half cannot.
        let req = if i % 2 == 0 {
            parse_request(&tie_heavy_request(&mut rng, false).to_line()).unwrap()
        } else {
            tie_heavy_request(&mut rng, true)
        };
        assert_matches(&req);
        branching += usize::from(branches(&req));
    }
    assert!(branching >= 10_000, "only {branching} requests branch");
}
