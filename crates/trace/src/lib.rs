#![deny(missing_docs)]

//! Event-level observability for the iterative modulo scheduler.
//!
//! `ims-core`'s scheduler reports every decision it makes — candidate-II
//! attempts, placements, displacements, slot searches, budget exhaustion
//! — to a monomorphized [`SchedObserver`](ims_core::SchedObserver). This
//! crate supplies the observer that records those decisions and
//! everything needed to work with the traces it produces:
//!
//! * [`SchedEvent`] — the event type, with a deterministic JSON-lines
//!   encoding ([`SchedEvent::to_json_line`]) and parser
//!   ([`SchedEvent::parse`], [`parse_trace`]);
//! * [`Recorder`] — the recording observer: it buffers events in
//!   memory and renders them as a JSON-lines trace
//!   ([`Recorder::to_jsonl`]), byte-identical for a given problem
//!   regardless of corpus thread count;
//! * [`replay`] — reconstructs the final schedule from a trace's
//!   placement events (property-tested against `Schedule.time`);
//! * [`TraceSummary`] — the per-loop convergence summary behind the
//!   `trace_report` binary.
//!
//! # Example
//!
//! ```
//! use ims_core::{ProblemBuilder, Scheduler};
//! use ims_ir::{OpId, Opcode};
//! use ims_machine::minimal;
//! use ims_trace::{parse_trace, replay, Recorder};
//!
//! let machine = minimal();
//! let mut pb = ProblemBuilder::new(&machine);
//! let _ = pb.add_op(Opcode::Add, OpId(0));
//! let problem = pb.finish();
//!
//! let mut rec = Recorder::new();
//! let out = Scheduler::new(&problem).observer(&mut rec).run().unwrap();
//!
//! let events = parse_trace(&rec.to_jsonl()).unwrap();
//! assert_eq!(events, rec.events);
//! let times = replay(&events).final_times().unwrap();
//! assert_eq!(times, out.schedule.time);
//! ```

mod event;
mod observers;
mod replay;
mod report;

pub use event::{parse_trace, parse_trace_prefix, SchedEvent};
pub use observers::Recorder;
pub use replay::{replay, ReplayedSchedule};
pub use report::{AttemptSummary, TraceSummary};
