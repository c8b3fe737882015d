//! The content-addressed schedule cache.
//!
//! Every request is reduced to a **canonical problem** — its operations
//! and edges rewritten into the isomorphism-stable node order computed by
//! [`ims_graph::canonical_form`] — and keyed by a 128-bit FNV-1a hash
//! over:
//!
//! * a format-version tag,
//! * the machine name, the backend spec in canonical form (so
//!   `portfolio( sat , ims )` and `portfolio(sat,ims)` share an entry
//!   while member *order* still distinguishes keys — it breaks winner
//!   ties), the `budget_ratio` bit pattern, `max_ii`, `node_limit`, and
//!   `pressure_limit` (everything that can change the answer),
//! * the canonical graph encoding (labels + edges, canonically ordered).
//!
//! The request `id` is **not** hashed, and neither is anything about node
//! numbering: two requests describing the same loop with permuted
//! operation indices collide on one entry. The cache therefore stores the
//! schedule of the *canonical* problem; each response maps the cached
//! canonical times back through its own request's canonicalization
//! permutation, so every requester receives times in its own numbering —
//! valid because a schedule transports along a graph isomorphism
//! unchanged (same II, same length, per-node times carried by the node
//! mapping).

use std::collections::HashMap;

use ims_graph::canon::{canonical_form, fnv128};
use ims_graph::CanonicalForm;
use ims_ir::Opcode;

use crate::wire::{Request, WireEdge};

/// A request rewritten into canonical node order: the schedulable content
/// of the request, independent of how the client numbered its operations.
/// Two isomorphic requests produce equal canonical problems — this is
/// what a cache-missing worker actually schedules, so which request
/// triggered the miss can never leak into the cached entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonProblem {
    /// Opcodes in canonical order.
    pub ops: Vec<Opcode>,
    /// Edges with endpoints in canonical indices, sorted.
    pub edges: Vec<WireEdge>,
}

/// A request bound to its canonical problem, permutation, and cache key.
#[derive(Debug, Clone)]
pub struct Keyed {
    /// The canonical problem to schedule on a miss.
    pub canon: CanonProblem,
    /// `position[i]` = canonical index of request operation `i`.
    pub position: Vec<usize>,
    /// The content-addressed cache key.
    pub key: u128,
}

/// Canonicalizes `req` and derives its cache key.
pub fn key_request(req: &Request) -> Keyed {
    let graph = req.graph();
    let labels = req.labels();
    let form = canonical_form(&graph, &labels);
    let canon = canonical_problem(req, &form);
    let key = cache_key(req, &canon);
    Keyed {
        canon,
        position: form.position,
        key,
    }
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

/// A cached scheduling outcome, in canonical node order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// The canonical problem scheduled successfully.
    Ok {
        /// Achieved initiation interval.
        ii: i64,
        /// The MII lower bound.
        mii: i64,
        /// Single-iteration schedule length.
        length: i64,
        /// Peak register pressure (MaxLive) of the accepted schedule —
        /// recorded only for pressure-limited requests, where it is
        /// guaranteed `<=` the requested `pressure_limit`.
        max_live: Option<u32>,
        /// Issue time per canonical operation.
        times: Vec<i64>,
        /// Chosen alternative per canonical operation.
        alts: Vec<usize>,
    },
    /// Scheduling failed (clean error or contained worker panic); the
    /// message is deterministic, so failures replay from cache too.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
}

/// The in-memory content-addressed store plus its hit/miss tallies.
/// Tallies are counted at response time in request order, so they are
/// identical for any worker-thread count.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: HashMap<u128, Entry>,
    /// Responses served from an entry that existed before their batch.
    pub hits: u64,
    /// Responses that required scheduling work this batch (one per first
    /// occurrence of a new key; later duplicates in the same batch are
    /// hits — the work was already merged when they were answered).
    pub misses: u64,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct canonical problems cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key.
    pub fn get(&self, key: u128) -> Option<&Entry> {
        self.entries.get(&key)
    }

    /// Inserts a freshly computed entry.
    pub fn insert(&mut self, key: u128, entry: Entry) {
        self.entries.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_request;

    #[test]
    fn isomorphic_requests_share_a_key_and_canonical_problem() {
        // The same 3-op chain with operations listed in two different
        // orders (edge endpoints renumbered to match).
        let a = parse_request(
            r#"{"id":"a","ops":["load","add","store"],
                "edges":[[0,1,13,0,"flow",false],[1,2,1,0,"flow",false]]}"#,
        )
        .unwrap();
        let b = parse_request(
            r#"{"id":"b","ops":["store","load","add"],
                "edges":[[1,2,13,0,"flow",false],[2,0,1,0,"flow",false]]}"#,
        )
        .unwrap();
        let ka = key_request(&a);
        let kb = key_request(&b);
        assert_eq!(ka.key, kb.key);
        assert_eq!(ka.canon, kb.canon);
        // The permutations differ — that is the point.
        assert_ne!(ka.position, kb.position);
    }

    #[test]
    fn config_fields_split_the_key() {
        let base = r#"{"id":"c","ops":["add"],"edges":[]}"#;
        let k0 = key_request(&parse_request(base).unwrap()).key;
        for variant in [
            r#"{"id":"c","machine":"minimal","ops":["add"],"edges":[]}"#,
            r#"{"id":"c","backend":"exact","ops":["add"],"edges":[]}"#,
            r#"{"id":"c","budget_ratio":6.0,"ops":["add"],"edges":[]}"#,
            r#"{"id":"c","max_ii":5,"ops":["add"],"edges":[]}"#,
            r#"{"id":"c","node_limit":10,"ops":["add"],"edges":[]}"#,
            r#"{"id":"c","pressure_limit":8,"ops":["add"],"edges":[]}"#,
            r#"{"id":"c","ops":["sub"],"edges":[]}"#,
        ] {
            let kv = key_request(&parse_request(variant).unwrap()).key;
            assert_ne!(k0, kv, "{variant}");
        }
        // The id is NOT part of the key.
        let renamed =
            key_request(&parse_request(r#"{"id":"zzz","ops":["add"],"edges":[]}"#).unwrap());
        assert_eq!(k0, renamed.key);
    }

    #[test]
    fn cache_stores_and_replays_entries() {
        let mut cache = ScheduleCache::new();
        assert!(cache.is_empty());
        let entry = Entry::Ok {
            ii: 2,
            mii: 2,
            length: 4,
            max_live: None,
            times: vec![0, 2],
            alts: vec![0, 0],
        };
        cache.insert(7, entry.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(7), Some(&entry));
        assert_eq!(cache.get(8), None);
    }
}
