#![warn(missing_docs)]

//! Dependence-graph algorithms for modulo scheduling.
//!
//! §2.2 of the paper represents a loop body as a graph whose vertices are
//! operations and whose edges are dependences, each labelled with a
//! **delay** (minimum issue-time separation) and a **distance** (number of
//! iterations separating the endpoints). This crate provides that graph
//! ([`DepGraph`]) and the algorithms the paper runs over it:
//!
//! * **Strongly connected components** ([`sccs`], Tarjan's algorithm): the
//!   paper computes RecMII per SCC because *"the RecMII can be computed as
//!   the largest of the RecMII values for each individual SCC"*, and
//!   §4.4 measures SCC identification at `O(N+E)`.
//! * **Elementary circuits** ([`elementary_circuits`], Tiernan's
//!   algorithm): the Cydra 5 compiler's approach to RecMII enumerated all
//!   elementary circuits; we implement it as a cross-check for the MinDist
//!   method.
//! * **MinDist** ([`compute_min_dist`]): for a candidate II, the max-plus
//!   all-pairs longest-path matrix over edge weights `delay − II·distance`.
//!   *"If `MinDist[i,i]` is positive for any `i` … the II is too small"*;
//!   the smallest II with no positive diagonal entry is the RecMII.
//! * **Canonicalization** ([`Canonicalizer`]): an isomorphism-stable node
//!   ordering of a labeled dependence graph given as an edge list, and its
//!   edges in that order, which the service hashes to content-address
//!   schedule-cache entries and dedup generated corpora.
//!
//! # Examples
//!
//! A two-operation recurrence with total delay 5 over distance 2 forces
//! `II ≥ ⌈5/2⌉ = 3`:
//!
//! ```
//! use ims_graph::{DepGraph, DepKind, compute_min_dist};
//!
//! let mut g = DepGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b, 3, 0, DepKind::Flow, false);
//! g.add_edge(b, a, 2, 2, DepKind::Flow, false);
//!
//! let nodes = [a, b];
//! let mut work = 0u64;
//! assert!(!compute_min_dist(&g, &nodes, 2, &mut work).feasible());
//! assert!(compute_min_dist(&g, &nodes, 3, &mut work).feasible());
//! ```

pub mod canon;
mod circuits;
mod graph;
mod mindist;
mod scc;

pub use canon::{CanonicalForm, Canonicalizer};
pub use circuits::{elementary_circuits, Circuit};
pub use graph::{DepEdge, DepGraph, DepKind, EdgeId, NodeId};
pub use mindist::{compute_min_dist, MinDist, MinDistSolver, NEG_INF};
pub use scc::{sccs, SccInfo};
