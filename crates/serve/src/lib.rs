#![warn(missing_docs)]

//! Scheduler-as-a-service: a JSONL daemon over the modulo scheduler with
//! a content-addressed schedule cache.
//!
//! Rau's iterative modulo scheduler is fast per loop, but a production
//! fleet re-schedules the same kernels endlessly. This crate turns the
//! repo's scheduling pipeline into a long-running service (`scheduled`
//! binary): loop problems arrive as JSON lines over stdin or a Unix
//! socket ([`wire`]), fan out across the deterministic worker pool
//! ([`pool`], promoted here from the bench harness), and repeats are
//! answered from a cache ([`cache`]) keyed by a canonical hash of
//! *(dependence graph up to isomorphism, machine model, scheduling
//! configuration, backend)* — the canonicalization pass lives in
//! [`ims_graph::canon`] and is reused for corpus dedup ([`corpus`]).
//!
//! The repo-wide byte-determinism contract extends to the service: the
//! same request multiset produces byte-identical responses at any
//! `--threads N`, across batch splits, and cache hot or cold. Cache
//! hit/miss tallies are deliberately kept **out** of the responses (a
//! hit marker would break cold-vs-warm identity) and surface instead
//! through the `ims-prof` phase registry (`serve.*`) and a stderr
//! summary. See `DESIGN.md` §5e for the wire format and the exact
//! inventory of what the cache key does and does not hash.

pub mod cache;
pub mod corpus;
pub mod pool;
pub mod service;
pub mod wire;

/// The workspace JSON module, re-exported under the service's name: the
/// request decoder reads every line with its pull reader, and clients of
/// the wire format read responses with it.
pub use ims_testkit::json;

pub use cache::{key_request, Entry, Keyed, ScheduleCache};
pub use corpus::{dedup_keys, gen_requests, gen_requests_backend};
pub use service::{read_line, serve_stream, Engine};
pub use wire::{machine_by_name, parse_request, Request, WireEdge};

#[cfg(unix)]
pub use service::serve_socket;
