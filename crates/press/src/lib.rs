#![deny(missing_docs)]

//! Register-pressure-aware modulo scheduling.
//!
//! Rau's paper schedules against function-unit reservation tables and
//! leaves the register file as a post-scheduling concern; nothing in the
//! core algorithm stops a schedule whose **MaxLive** — the peak number of
//! simultaneously live values, counting every in-flight iteration's copy —
//! exceeds a finite rotating register file. This crate closes that gap
//! through the scheduler's observer seam, with no change to the
//! pressure-blind default path:
//!
//! * [`PressureModel`] — an incremental per-kernel-row live-count tracker,
//!   updated in O(lifetime length) as operations are placed and evicted,
//!   with at most one O(II) rescan of the row peak per place or evict,
//!   so the [`max_live`](PressureModel::max_live) query is O(1). Rows are kept *mirrored* (2·II physical rows), the same trick
//!   as the bitset modulo reservation table, so the remainder of a
//!   lifetime never wraps. Placing an unscheduled operation never lowers a
//!   row, so [`exceeds_if_placed`](PressureModel::exceeds_if_placed)
//!   answers a probe in O(1) once MaxLive is already over the limit;
//! * [`ValueShape`] / [`shapes_from_body`] / [`shapes_from_problem`] —
//!   the schedule-independent part of each value's lifetime, extracted
//!   either from the IR body (through the same `ims_deps::DefSites` index
//!   as `ims_codegen::lifetimes`, so the two agree exactly) or from a bare
//!   dependence graph's register-flow edges;
//! * [`PressureObserver`] — the policy layer: vetoes placements that would
//!   exceed the limit (`FindTimeSlot` then treats the slot as a resource
//!   conflict), rejects completed attempts whose MaxLive or rotating
//!   allocation does not fit (bumping the II), and feeds the `press.*`
//!   profiling counters.
//!
//! Set [`SchedConfig::pressure_limit`](ims_core::SchedConfig) alongside
//! the observer so capacity infeasibility surfaces as the structured
//! [`ScheduleError::PressureInfeasible`](ims_core::ScheduleError).
//!
//! # Examples
//!
//! Schedule a small accumulation loop against a 16-register rotating file:
//!
//! ```
//! use ims_core::{SchedConfig, Scheduler};
//! use ims_deps::{build_problem, BuildOptions};
//! use ims_ir::{LoopBuilder, Value};
//! use ims_machine::cydra_rf;
//! use ims_press::PressureObserver;
//!
//! let mut b = LoopBuilder::new("acc", 16);
//! let x = b.live_in("x", Value::Float(1.0));
//! let acc = b.fresh("acc");
//! b.bind_live_in(acc, Value::Float(0.0));
//! b.rebind_add(acc, acc, x);
//! let body = b.finish()?;
//!
//! let machine = cydra_rf(16);
//! let limit = machine.register_file().unwrap();
//! let problem = build_problem(&body, &machine, &BuildOptions::default());
//! let mut obs = PressureObserver::for_body(&body, &problem, limit);
//! let out = Scheduler::new(&problem)
//!     .config(SchedConfig::default().pressure_limit(limit))
//!     .observer(&mut obs)
//!     .run()?;
//! assert!(obs.max_live() <= limit);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod model;
mod observer;

pub use model::{shapes_from_body, shapes_from_problem, PressureModel, ValueShape};
pub use observer::PressureObserver;
