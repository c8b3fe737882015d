#![warn(missing_docs)]

//! A NUAL VLIW simulator for validating modulo-scheduled loops end-to-end.
//!
//! The paper's experiments assume Cydra 5 hardware semantics: **non-unit
//! assumed latencies** (a result is architecturally visible exactly at
//! `issue + latency`, no interlocks), predicated execution, and rotating
//! register files. We cannot run on a Cydra 5, so this crate is the
//! substitute testbed (see `DESIGN.md` §3): it executes a loop four ways
//! and cross-checks the results —
//!
//! 1. [`run_sequential`]: the reference semantics, one iteration at a time,
//!    latencies ignored.
//! 2. [`run_overlapped`]: the modulo schedule executed directly, iteration
//!    `i` issuing at `i·II + time(op)`, with expanded-virtual-register
//!    semantics and **strict latency checking** — reading a register before
//!    its producer's latency has elapsed is an error, so an illegal
//!    schedule cannot silently produce the right answer.
//! 3. [`run_mve`]: the modulo-variable-expanded code from `ims-codegen`
//!    (prologue / unrolled kernel / coda) on a conventional register file.
//! 4. [`run_rotating`]: the kernel-only rotating-register code, with the
//!    rotating base advancing every II and instances staged by iteration.
//!
//! Because the schedule never changes an operation's operands (only its
//! time), all four executions compute bit-identical values; any divergence
//! is a bug in the scheduler or code generator, which is exactly what the
//! integration suite asserts.
//!
//! # Examples
//!
//! ```
//! use ims_vliw::{run_overlapped, run_sequential, compare_results, MemoryImage};
//! use ims_core::Scheduler;
//! use ims_deps::{build_problem, BuildOptions};
//! use ims_ir::{LoopBuilder, MemRef, Value};
//! use ims_machine::cydra_simple;
//!
//! let mut b = LoopBuilder::new("sum", 16);
//! let a = b.array("a", 16);
//! let pa = b.ptr("pa", a, 0);
//! let s = b.fresh("s");
//! b.bind_live_in(s, Value::Float(0.0));
//! let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
//! b.rebind_add(s, s, v);
//! b.addr_add(pa, pa, 1);
//! let body = b.finish()?;
//!
//! let m = cydra_simple();
//! let problem = build_problem(&body, &m, &BuildOptions::default());
//! let out = Scheduler::new(&problem).run().expect("schedulable");
//!
//! let mut image = MemoryImage::for_body(&body);
//! for i in 0..16 {
//!     image.set(ims_ir::ArrayId(0), i, Value::Float(i as f64));
//! }
//! let seq = run_sequential(&body, image.clone()).expect("runs");
//! let pipe = run_overlapped(&body, &problem, &out.schedule, image).expect("runs");
//! assert!(compare_results(&seq, &pipe).is_none());
//! # Ok::<(), ims_ir::validate::ValidateError>(())
//! ```

mod coderun;
mod compare;
mod error;
mod memory;
mod overlapped;
mod sequential;

pub use coderun::{run_mve, run_rotating};
pub use compare::{compare_memory, compare_results, Mismatch};
pub use error::SimError;
pub use memory::MemoryImage;
pub use overlapped::run_overlapped;
pub use sequential::run_sequential;

use ims_ir::Value;

/// The observable outcome of executing a loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Final memory contents.
    pub memory: MemoryImage,
    /// Final value of each virtual register (most recent executed
    /// definition, else the live-in value, else `None`). Executors of
    /// renamed code ([`run_mve`], [`run_rotating`]) leave this empty and
    /// are compared on memory only.
    pub final_regs: Vec<Option<Value>>,
    /// Cycles executed (0 for the sequential reference, which has no
    /// timing model).
    pub cycles: u64,
}
