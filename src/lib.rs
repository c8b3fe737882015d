#![warn(missing_docs)]

//! # ims — Iterative Modulo Scheduling
//!
//! A from-scratch Rust implementation of B. Ramakrishna Rau's *"Iterative
//! Modulo Scheduling: An Algorithm For Software Pipelining Loops"*
//! (MICRO-27, 1994), together with every substrate the paper depends on:
//!
//! * a loop intermediate representation ([`ir`]),
//! * a machine model with reservation tables ([`machine`]),
//! * dependence-graph algorithms — SCCs, circuits, MinDist ([`graph`]),
//! * dependence analysis from IR to a schedulable graph ([`deps`]),
//! * the iterative modulo scheduler itself, with MII bounds ([`core`]),
//! * an exact branch-and-bound modulo scheduler that proves II optimality
//!   or reports explicit bounds under a budget ([`exact`]),
//! * a second exact backend: a std-only CDCL SAT solver plus a CNF
//!   encoding of "is there a schedule at this II?" ([`sat`]), which also
//!   holds `schedule_leaf`, the one dispatch from a backend name to its
//!   scheduler,
//! * register-pressure-aware scheduling — an incremental MaxLive tracker
//!   and an observer that holds schedules under a register-file capacity
//!   ([`press`]),
//! * post-scheduling code generation — modulo variable expansion, kernel
//!   unrolling, prologue/epilogue ([`codegen`]),
//! * a NUAL VLIW simulator for end-to-end validation ([`vliw`]),
//! * a benchmark-loop corpus generator ([`loopgen`]),
//! * the statistics toolkit used by the evaluation harness ([`stats`]),
//! * the pipeline-wide phase profiler — metrics registry, wall-clock
//!   spans, `BENCH_*.json` snapshots and their diff engine ([`prof`]),
//! * event-level scheduler observability — JSON-lines traces, replay,
//!   convergence reports ([`mod@trace`]),
//! * II-attribution and trace-mining diagnostics — *which* resource or
//!   circuit pins the MII, where evicted ops and wasted budget concentrate
//!   ([`explain`]),
//! * the corpus measurement harness with its parallel scheduling driver
//!   ([`mod@bench`]), and
//! * a scheduler-as-a-service daemon — JSONL wire format, deterministic
//!   worker pool, content-addressed schedule cache over the graph
//!   canonicalization pass ([`serve`]).
//!
//! This facade crate re-exports all of them under one roof. Downstream users
//! can either depend on `ims` or on the individual `ims-*` crates; the
//! [`prelude`] pulls in everything a typical scheduling session needs:
//!
//! ```
//! use ims::prelude::*;
//!
//! let machine = ims::machine::minimal();
//! let mut pb = ProblemBuilder::new(&machine);
//! let _ = pb.add_op(ims::ir::Opcode::Add, ims::ir::OpId(0));
//! let problem = pb.finish();
//!
//! let mut rec = Recorder::new();
//! let out = Scheduler::new(&problem)
//!     .config(SchedConfig::new().budget_ratio(4.0))
//!     .observer(&mut rec)
//!     .run()
//!     .expect("schedules");
//! assert_eq!(out.schedule.ii, 1);
//! assert_eq!(parse_trace(&rec.to_jsonl()).unwrap(), rec.events);
//! ```
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory and
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use ims_bench as bench;
pub use ims_codegen as codegen;
pub use ims_core as core;
pub use ims_deps as deps;
pub use ims_exact as exact;
pub use ims_explain as explain;
pub use ims_graph as graph;
pub use ims_ir as ir;
pub use ims_loopgen as loopgen;
pub use ims_machine as machine;
pub use ims_press as press;
pub use ims_prof as prof;
pub use ims_sat as sat;
pub use ims_serve as serve;
pub use ims_stats as stats;
pub use ims_trace as trace;
pub use ims_vliw as vliw;

/// One-stop imports for driving the scheduler and observing it.
///
/// Re-exports the builder-style entry point ([`Scheduler`](ims_core::Scheduler)), its
/// configuration and error types, the observer trait, and the recording
/// observer and trace utilities from [`mod@trace`].
pub mod prelude {
    pub use ims_core::{
        modulo_schedule, BackendKind, BackendSpec, IiBounds, NullObserver, ProblemBuilder,
        SchedConfig, SchedObserver, SchedOutcome, ScheduleError, Scheduler,
    };
    pub use ims_exact::{prove, BranchAndBound, Decider, ProverConfig, ProverOutcome};
    pub use ims_sat::{schedule_leaf, Cdcl, LeafOutcome};
    pub use ims_trace::{parse_trace, replay, Recorder, SchedEvent, TraceSummary};
}
