#![deny(missing_docs)]

//! Deterministic pipeline profiling for the IMS reproduction.
//!
//! The paper's evaluation (§4.4, Table 4) is entirely about *where the
//! work goes*: per-phase inner-loop trip counts fitted against N. This
//! crate generalizes that discipline to the whole pipeline — graph
//! analysis, MII bounds, iterative scheduling, exact branch-and-bound,
//! code generation, and VLIW simulation — with one hard rule:
//! **deterministic work counters and wall-clock timings never mix.**
//!
//! * [`MetricsRegistry`] holds counters and [`Histogram`]s keyed by the
//!   `'static` phase names in [`phase`], plus a separate wall-time
//!   section fed by [`PhaseTimer`] spans. Registries merge
//!   deterministically (plain sums / histogram merges), so per-loop
//!   registries collected on worker threads and merged in corpus order
//!   produce byte-identical deterministic sections at any `--threads`.
//! * [`ProfSink`] is the zero-cost instrumentation seam: hot loops are
//!   generic over a sink, and the blanket `impl ProfSink for u64` lets the
//!   existing `&mut u64` work-counter threading double as the null
//!   implementation — monomorphized to the exact `*work += n` the code
//!   had before. The schedulers themselves report to their observer
//!   (`ims_core::SchedObserver::work`), keyed by the same [`phase`]
//!   names; the prover walk in `ims-exact` hands its deciders a sink
//!   that turns each count into such an event.
//! * [`snapshot`] renders a registry as a versioned `BENCH_<name>.json`
//!   snapshot (deterministic section first, wall percentiles last) and
//!   parses one back without any external dependency. The deterministic
//!   section is the regression gate: `scripts/verify.sh` byte-compares it
//!   across thread counts and pins its sha256 in `scripts/golden.sha256`.
//!
//! ```
//! use ims_prof::{phase, snapshot, MetricsRegistry, PhaseTimer, ProfSink};
//!
//! let mut reg = MetricsRegistry::new();
//! let timer = PhaseTimer::start(phase::WALL_SCHED);
//! reg.count(phase::GRAPH_MINDIST_WORK, 128); // deterministic work
//! reg.record(phase::HIST_SLOT_SEARCH, 3);    // per-op distribution
//! timer.finish(&mut reg);                    // wall time, kept apart
//!
//! let text = snapshot::render_snapshot("demo", &reg);
//! let parsed = snapshot::Snapshot::parse(&text).unwrap();
//! assert_eq!(parsed.counters[phase::GRAPH_MINDIST_WORK], 128);
//! ```

pub mod phase;
mod registry;
mod sink;
pub mod snapshot;
mod timer;

pub use ims_stats::Histogram;
pub use registry::MetricsRegistry;
pub use sink::ProfSink;
pub use timer::{timed, PhaseTimer};
