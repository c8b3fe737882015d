//! Property tests for the graph algorithms, on the in-repo
//! [`ims_testkit::prop`] harness.

use ims_graph::{
    compute_min_dist, elementary_circuits, sccs, CanonicalForm, Canonicalizer, DepEdge, DepGraph,
    DepKind, NodeId, NEG_INF,
};
use ims_testkit::{check, prop_assert, prop_assert_eq, prop_assume, Gen, PropConfig};

/// Generates a random small dependence graph: node count plus edge list.
fn gen_graph(g: &mut Gen) -> DepGraph {
    let n = g.usize_in(2, 10);
    let edges = g.vec_with(20, |g| {
        (
            g.usize_in(0, n),
            g.usize_in(0, n),
            g.i64_in(0, 8),
            g.u32_in(0, 3),
        )
    });
    let mut graph = DepGraph::with_nodes(n);
    for (from, to, delay, distance) in edges {
        graph.add_edge(
            NodeId(from as u32),
            NodeId(to as u32),
            delay,
            distance,
            DepKind::Flow,
            false,
        );
    }
    graph
}

/// Brute-force reachability for SCC cross-checking.
fn reachable(g: &DepGraph, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; g.num_nodes()];
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if std::mem::replace(&mut seen[v.index()], true) {
            continue;
        }
        for e in g.succs(v) {
            stack.push(e.to);
        }
    }
    false
}

#[test]
fn scc_matches_mutual_reachability() {
    check(
        "scc_matches_mutual_reachability",
        &PropConfig::with_cases(128),
        &[],
        gen_graph,
        |g| {
            let mut w = 0;
            let info = sccs(g, &mut w);
            for a in g.nodes() {
                for b in g.nodes() {
                    let same = info.component_of[a.index()] == info.component_of[b.index()];
                    let mutual = a == b || (reachable(g, a, b) && reachable(g, b, a));
                    prop_assert_eq!(same, mutual, "{} vs {}", a, b);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn min_dist_feasibility_is_monotone_in_ii() {
    check(
        "min_dist_feasibility_is_monotone_in_ii",
        &PropConfig::with_cases(128),
        &[],
        gen_graph,
        |g| {
            let nodes: Vec<NodeId> = g.nodes().collect();
            let mut w = 0;
            let mut prev_feasible = false;
            for ii in 1..=12 {
                let feasible = compute_min_dist(g, &nodes, ii, &mut w).feasible();
                // Once feasible, larger IIs stay feasible (weights only
                // shrink).
                if prev_feasible {
                    prop_assert!(feasible, "feasibility regressed at II {ii}");
                }
                prev_feasible = feasible;
            }
            Ok(())
        },
    );
}

#[test]
fn min_dist_respects_single_edges() {
    check(
        "min_dist_respects_single_edges",
        &PropConfig::with_cases(128),
        &[],
        gen_graph,
        |g| {
            let nodes: Vec<NodeId> = g.nodes().collect();
            let mut w = 0;
            let ii = 20; // Large enough to be feasible for delays < 8.
            let md = compute_min_dist(g, &nodes, ii, &mut w);
            for e in g.edges() {
                if e.from == e.to {
                    continue;
                }
                let bound = e.delay - ii * e.distance as i64;
                prop_assert!(
                    md.get(e.from, e.to) >= bound,
                    "edge {} -> {} bound {bound}",
                    e.from,
                    e.to
                );
            }
            Ok(())
        },
    );
}

#[test]
fn min_dist_is_max_plus_transitive() {
    check(
        "min_dist_is_max_plus_transitive",
        &PropConfig::with_cases(128),
        &[],
        gen_graph,
        |g| {
            let nodes: Vec<NodeId> = g.nodes().collect();
            let mut w = 0;
            let md = compute_min_dist(g, &nodes, 20, &mut w);
            prop_assume!(md.feasible());
            for a in g.nodes() {
                for b in g.nodes() {
                    for c in g.nodes() {
                        let ab = md.get(a, b);
                        let bc = md.get(b, c);
                        if ab == NEG_INF || bc == NEG_INF {
                            continue;
                        }
                        prop_assert!(
                            md.get(a, c) >= ab + bc,
                            "triangle violated at {} {} {}",
                            a,
                            b,
                            c
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// A random labeled graph (mixed edge kinds) plus a random permutation of
/// its nodes, for canonicalization invariance testing.
fn gen_labeled_graph_and_perm(g: &mut Gen) -> (DepGraph, Vec<u64>, Vec<usize>) {
    let n = g.usize_in(1, 9);
    let edges = g.vec_with(16, |g| {
        (
            g.usize_in(0, n),
            g.usize_in(0, n),
            g.i64_in(0, 6),
            g.u32_in(0, 3),
            g.u32_in(0, 4),
            g.bool(),
        )
    });
    let kinds = [
        DepKind::Flow,
        DepKind::Anti,
        DepKind::Output,
        DepKind::Control,
    ];
    let mut graph = DepGraph::with_nodes(n);
    for (from, to, delay, distance, kind, is_mem) in edges {
        graph.add_edge(
            NodeId(from as u32),
            NodeId(to as u32),
            delay,
            distance,
            kinds[kind as usize],
            is_mem,
        );
    }
    // Few distinct labels so color classes are large enough to exercise
    // the individualization branch, not just refinement.
    let labels: Vec<u64> = (0..n).map(|_| g.u32_in(0, 3) as u64).collect();
    // Fisher–Yates permutation of 0..n.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = g.usize_in(0, i + 1);
        perm.swap(i, j);
    }
    (graph, labels, perm)
}

/// Rebuilds `g` with node `v` renamed to `perm[v]` and edges in a
/// perm-dependent order.
fn relabel(g: &DepGraph, labels: &[u64], perm: &[usize]) -> (DepGraph, Vec<u64>) {
    let n = g.num_nodes();
    let mut h = DepGraph::with_nodes(n);
    let mut new_labels = vec![0u64; n];
    for v in 0..n {
        new_labels[perm[v]] = labels[v];
    }
    // Insert edges in an order keyed by the *new* endpoint ids so edge
    // insertion order cannot leak into the canonical form.
    let mut edges: Vec<_> = g
        .edges()
        .iter()
        .map(|e| {
            (
                perm[e.from.index()],
                perm[e.to.index()],
                e.delay,
                e.distance,
                e.kind,
                e.is_mem,
            )
        })
        .collect();
    edges.sort_by_key(|e| (e.0, e.1, e.2, e.3));
    for (from, to, delay, distance, kind, is_mem) in edges {
        h.add_edge(
            NodeId(from as u32),
            NodeId(to as u32),
            delay,
            distance,
            kind,
            is_mem,
        );
    }
    (h, new_labels)
}

/// The canonical form of `g` under `labels`.
fn canonical_form(g: &DepGraph, labels: &[u64]) -> CanonicalForm {
    Canonicalizer::new().canonicalize(labels, g.edges()).clone()
}

/// The labels in canonical order and the canonical edges: together, the
/// labeled graph up to renumbering.
fn described(g: &DepGraph, labels: &[u64]) -> (Vec<u64>, Vec<DepEdge>) {
    let form = canonical_form(g, labels);
    let ordered = form.order.iter().map(|v| labels[v.index()]).collect();
    (ordered, form.edges)
}

#[test]
fn canonical_form_is_isomorphism_invariant() {
    check(
        "canonical_form_is_isomorphism_invariant",
        &PropConfig::with_cases(192),
        &[],
        gen_labeled_graph_and_perm,
        |(g, labels, perm)| {
            let (h, hlabels) = relabel(g, labels, perm);
            prop_assert_eq!(
                described(g, labels),
                described(&h, &hlabels),
                "relabeling changed the canonical labels or edges (perm {:?})",
                perm
            );
            Ok(())
        },
    );
}

#[test]
fn canonical_order_and_position_are_inverse() {
    check(
        "canonical_order_and_position_are_inverse",
        &PropConfig::with_cases(128),
        &[],
        gen_labeled_graph_and_perm,
        |(g, labels, _)| {
            let c = canonical_form(g, labels);
            prop_assert_eq!(c.order.len(), g.num_nodes());
            for (p, v) in c.order.iter().enumerate() {
                prop_assert_eq!(c.position[v.index()], p);
            }
            // `order` is a permutation: every node appears exactly once.
            let mut seen = vec![false; g.num_nodes()];
            for v in &c.order {
                prop_assert!(!seen[v.index()], "duplicate node {} in order", v);
                seen[v.index()] = true;
            }
            Ok(())
        },
    );
}

#[test]
fn canonical_form_separates_modified_graphs() {
    check(
        "canonical_form_separates_modified_graphs",
        &PropConfig::with_cases(128),
        &[],
        gen_labeled_graph_and_perm,
        |(g, labels, _)| {
            let base = described(g, labels);
            // Bumping any one label changes the canonical labels.
            let mut bumped = labels.clone();
            bumped[0] = bumped[0].wrapping_add(1000);
            prop_assert!(
                described(g, &bumped) != base,
                "label change not reflected in the canonical form"
            );
            // Adding an edge with a delay outside the generator's range
            // changes the canonical edges.
            let mut grown = g.clone();
            grown.add_edge(NodeId(0), NodeId(0), 99, 1, DepKind::Flow, false);
            prop_assert!(
                described(&grown, labels) != base,
                "edge addition not reflected in the canonical form"
            );
            Ok(())
        },
    );
}

#[test]
fn circuit_min_ii_matches_min_dist_threshold() {
    check(
        "circuit_min_ii_matches_min_dist_threshold",
        &PropConfig::with_cases(128),
        &[],
        gen_graph,
        |g| {
            // Drop zero-distance cycles (illegal dependence graphs).
            let nodes: Vec<NodeId> = g.nodes().collect();
            let (circuits, complete) = elementary_circuits(g, 50_000, &mut 0u64);
            prop_assume!(complete);
            prop_assume!(circuits.iter().all(|c| c.distance > 0));
            let by_circuits = circuits
                .iter()
                .map(|c| c.min_ii())
                .max()
                .unwrap_or(0)
                .max(1);
            // The smallest II at which MinDist is feasible must equal it.
            let mut w = 0;
            let mut by_mindist = 1;
            while !compute_min_dist(g, &nodes, by_mindist, &mut w).feasible() {
                by_mindist += 1;
                prop_assert!(by_mindist < 100, "runaway search");
            }
            prop_assert_eq!(by_mindist, by_circuits.max(1));
            Ok(())
        },
    );
}
