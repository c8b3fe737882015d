//! The content-addressed schedule cache.
//!
//! Every request is reduced to a **canonical problem** — its operations
//! and edges rewritten into the isomorphism-stable node order computed by
//! [`ims_graph::Canonicalizer`] — and keyed by a 128-bit FNV-1a hash
//! over:
//!
//! * a format-version tag,
//! * the machine name, the backend spec in canonical form (so
//!   `portfolio( sat , ims )` and `portfolio(sat,ims)` share an entry
//!   while member *order* still distinguishes keys — it breaks winner
//!   ties), the `budget_ratio` bit pattern, `max_ii`, `node_limit`, and
//!   `pressure_limit` (everything that can change the answer),
//! * the canonical problem: the operation count, the opcodes in canonical
//!   order and the sorted canonical edges.
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

use std::cell::RefCell;
use std::collections::HashMap;

use ims_graph::{Canonicalizer, DepEdge};
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

/// The buffers canonicalization reuses from request to request: the
/// canonicalizer's own, and the request's labels and edges in its terms.
/// The request line cap ([`MAX_LINE_BYTES`](crate::wire::MAX_LINE_BYTES))
/// bounds them.
#[derive(Default)]
struct Scratch {
    canonicalizer: Canonicalizer,
    labels: Vec<u64>,
    edges: Vec<DepEdge>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Canonicalizes `req` and derives its cache key.
pub fn key_request(req: &Request) -> Keyed {
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch {
            canonicalizer,
            labels,
            edges,
        } = scratch;
        labels.clear();
        labels.extend(req.labels());
        edges.clear();
        edges.extend(req.edges.iter().map(|&e| DepEdge::from(e)));
        let form = canonicalizer.canonicalize(labels, edges);
        let canon = CanonProblem {
            ops: form.order.iter().map(|v| req.ops[v.index()]).collect(),
            edges: form.edges.iter().map(|&e| WireEdge::from(e)).collect(),
        };
        Keyed {
            key: cache_key(req, &canon),
            position: form.position.clone(),
            canon,
        }
    })
}

/// 128-bit FNV-1a, fed a field at a time. Deterministic, allocation-free,
/// and std-only; collision resistance is ample for content addressing a
/// schedule cache (not a cryptographic commitment).
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(0x6c62272e07bb014262b821756295c58d)
    }

    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// An optional field: a 0 byte when absent, else a 1 byte and the
    /// value's bytes.
    fn write_opt<const N: usize>(&mut self, value: Option<[u8; N]>) {
        match value {
            None => self.write(&[0]),
            Some(bytes) => {
                self.write(&[1]);
                self.write(&bytes);
            }
        }
    }
}

/// The 128-bit content hash: configuration fields that affect the
/// schedule, then the canonical problem. See the module docs for the
/// exact inventory of what is and is not hashed.
fn cache_key(req: &Request, canon: &CanonProblem) -> u128 {
    let mut h = Fnv128::new();
    // v3: the key grew the pressure_limit field.
    h.write(b"ims-serve-key-v3\0");
    h.write(req.machine.as_bytes());
    h.write(&[0]);
    h.write(req.backend.canonical().as_bytes());
    h.write(&[0]);
    h.write(&req.budget_ratio.to_bits().to_be_bytes());
    h.write_opt(req.max_ii.map(i64::to_be_bytes));
    h.write_opt(req.node_limit.map(u64::to_be_bytes));
    h.write_opt(req.pressure_limit.map(u32::to_be_bytes));
    h.write(&(canon.ops.len() as u64).to_be_bytes());
    for op in &canon.ops {
        h.write(op.mnemonic().as_bytes());
        h.write(&[0]);
    }
    for e in &canon.edges {
        h.write(&e.from.to_be_bytes());
        h.write(&e.to.to_be_bytes());
        h.write(&e.delay.to_be_bytes());
        h.write(&e.distance.to_be_bytes());
        h.write(&[e.kind as u8, e.is_mem as u8]);
    }
    h.0
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
mod reference;

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
