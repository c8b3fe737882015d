#![deny(missing_docs)]

//! Iterative modulo scheduling — the core algorithm of the paper.
//!
//! This crate implements everything in §2 and §3 of Rau's *"Iterative Modulo
//! Scheduling"* (MICRO-27, 1994):
//!
//! * the **minimum initiation interval** bounds of §2 — the
//!   resource-constrained [`res_mii`] (bin-packing approximation over
//!   reservation tables with multiple alternatives) and the
//!   recurrence-constrained [`rec_mii`] (per-SCC MinDist feasibility with a
//!   geometric probe followed by binary search), combined by [`compute_mii`];
//! * the **HeightR priority function** of §3.2 ([`height_r`]), the direct
//!   extension of height-based list-scheduling priority to cyclic graphs;
//! * the **modulo reservation table** of §3.1 ([`Mrt`]);
//! * the **iterative scheduler** itself (§3.1–§3.4): the [`Scheduler`]
//!   builder, the one way into the II walk, drives
//!   [`iterative_schedule_observed`] at successively larger II, with
//!   `FindTimeSlot`'s forward-progress rule and the displacement policy of
//!   §3.4, under the `BudgetRatio` operation-scheduling budget;
//! * an **event-level observer layer** ([`SchedObserver`]): every
//!   scheduling decision (placements, evictions, slot searches, budget
//!   exhaustion) and every work count (the `work` hook, keyed by
//!   `ims_prof::phase` names) is reported to a monomorphized observer,
//!   at zero cost for the default [`NullObserver`] — the `ims-trace`
//!   crate builds JSON-lines tracing on top, and the profiler folds the
//!   same stream into its registry;
//! * the **backend names and bounds** the exact provers share with it
//!   ([`BackendKind`], [`BackendSpec`], [`IiBounds`]): the iterative
//!   scheduler, the exact branch-and-bound scheduler in `ims-exact`, and
//!   the CDCL SAT scheduler in `ims-sat` all return the same [`Schedule`]
//!   plus bounds on the true minimum II, so the harness can measure the
//!   heuristic's optimality gap. A [`BackendSpec`] (`ims`, `exact`, `sat`,
//!   `portfolio(a,b,...)`) is what CLI flags and the service parse;
//!   `ims_sat::schedule_leaf` runs a leaf, and the service races a
//!   portfolio's members;
//! * the **acyclic list scheduler** ([`list_schedule`]) the paper uses both
//!   as the schedule-length lower bound and as the cost yardstick, over
//!   the topological order of the same-iteration dependences
//!   ([`same_iteration_order`], which also detects a cycle among them);
//! * an independent **schedule validator** ([`validate_schedule`]) that
//!   re-checks every dependence and modulo resource constraint of a
//!   schedule, and the per-loop **instrumentation counters** ([`Counters`])
//!   behind the paper's Table 4, a fold of the observer stream that
//!   [`Scheduler::run`] attaches to every run.
//!
//! # Examples
//!
//! Schedule a two-operation recurrence on a single-issue machine:
//!
//! ```
//! use ims_core::{ProblemBuilder, Scheduler};
//! use ims_graph::DepKind;
//! use ims_ir::{OpId, Opcode};
//! use ims_machine::minimal;
//!
//! let m = minimal();
//! let mut pb = ProblemBuilder::new(&m);
//! let a = pb.add_op(Opcode::Add, OpId(0));
//! let b = pb.add_op(Opcode::Mul, OpId(1));
//! pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
//! pb.add_dep(b, a, 1, 1, DepKind::Flow, false); // loop-carried
//! let problem = pb.finish();
//!
//! let outcome = Scheduler::new(&problem).run()?;
//! assert_eq!(outcome.mii.rec_mii, 2); // delay 2 around the circuit, distance 1
//! assert_eq!(outcome.schedule.ii, 2);
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

mod backend;
mod builder;
mod counters;
pub mod display;
mod list_sched;
mod mii;
mod mrt;
mod observe;
mod priority;
mod problem;
mod sched;
mod spec;
mod validate;

pub use backend::{BackendKind, IiBounds};
pub use builder::Scheduler;
pub use counters::Counters;
pub use list_sched::{list_schedule, same_iteration_order, ListSchedule};
pub use mii::{
    compute_mii, least_feasible_ii, rec_mii, rec_mii_by_circuits, res_mii, res_mii_with_usage,
    MiiInfo,
};
pub use mrt::{self_colliding_alternatives, Mrt};
pub use observe::{NullObserver, SchedObserver};
pub use priority::{height_r, priorities, PriorityKind};
pub use problem::{NodeKind, Problem, ProblemBuilder};
pub use sched::{
    iterative_schedule_observed, IiAttempt, SchedConfig, SchedOutcome, SchedStats, Schedule,
    ScheduleError,
};
pub use spec::{BackendSpec, ParseBackendError};
pub use validate::{validate_schedule, ScheduleViolation};
