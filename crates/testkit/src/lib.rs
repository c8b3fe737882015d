#![deny(missing_docs)]

//! Std-only test infrastructure for the IMS reproduction.
//!
//! The repository needs three things that are usually imported from
//! crates.io — a seeded random number generator, a property-testing
//! harness, and a JSON reader and writer. To keep the whole workspace
//! hermetic (buildable with a bare Rust toolchain and no network), this
//! crate provides small in-repo substitutes:
//!
//! * [`rng`] — a deterministic SplitMix64-seeded xoshiro256++ generator
//!   with the minimal [`Rng`] surface the workspace uses (`gen_range`,
//!   `gen_bool`, `shuffle`, `choose`);
//! * [`prop`] — seeded property-based testing: case generation from a
//!   `(seed, size)` pair, an iteration budget, failure shrinking by
//!   halving the size, and explicit persisted regression seeds;
//! * [`json`] — the workspace's one JSON module: a depth-bounded pull
//!   reader (the one lexer), the tree parser built on it with exact
//!   integers, the one string escaper, and a flat-object writer. Service
//!   requests, traces, profile snapshots, optgap lines and benchmark
//!   results are all read back through it.
//!
//! None of this aims to be a general-purpose replacement for `rand`,
//! `proptest`, or `serde_json`; it implements exactly the surface the IMS
//! workspace needs, deterministically, in a few hundred lines of std-only
//! Rust.
//!
//! # Reproducing a failing property case
//!
//! When a [`prop::check`] property fails, the panic message prints the
//! minimal failing `(seed, size)` pair and a ready-to-paste environment
//! override:
//!
//! ```text
//! property 'mrt_roundtrip' failed (case 17 of 96)
//! minimal failing case: seed=0x9e3779b97f4a7c15 size=12
//! reproduce with: IMS_PROP_SEED=0x9e3779b97f4a7c15 IMS_PROP_SIZE=12 cargo test mrt_roundtrip
//! ```
//!
//! To pin the case forever, add `Regression::new(0x9e3779b97f4a7c15, 12)`
//! to the test's regression list — regressions are re-run before any new
//! cases are generated.

pub mod json;
pub mod prop;
pub mod rng;

pub use prop::{check, Gen, PropConfig, Regression};
pub use rng::{Rng, SplitMix64, Xoshiro256};
