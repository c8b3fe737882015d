#![warn(missing_docs)]

//! Post-scheduling code generation for modulo-scheduled loops.
//!
//! §1 of the paper lists the steps that follow the actual modulo
//! scheduling; this crate implements them:
//!
//! * **Register lifetimes** ([`lifetimes`]): how long each value produced in
//!   the kernel must survive, measured against the II.
//! * **Modulo variable expansion** ([`generate_mve`], after Lam): when the
//!   hardware has no rotating register files, *"the kernel is unrolled to
//!   enable modulo variable expansion"* — values with lifetimes longer than
//!   the II get several register names, cycled across kernel copies, plus
//!   explicit **prologue** and **epilogue/coda** code sequences for DO-loops.
//! * **Rotating register allocation** ([`generate_rotating`], after Rau et
//!   al.): with rotating register files the kernel needs no unrolling at
//!   all; each value is addressed relative to a rotating register base that
//!   advances every II, and a *kernel-only* code schema (staging by
//!   iteration index) replaces explicit prologue/epilogue code.
//!
//! Both lowerings produce executable [`code`] that the `ims-vliw` simulator
//! runs and compares against the sequential semantics of the original loop.
//!
//! # Examples
//!
//! ```
//! use ims_codegen::{generate_mve, lifetimes};
//! use ims_core::Scheduler;
//! use ims_deps::{build_problem, BuildOptions};
//! use ims_ir::{LoopBuilder, MemRef, Value};
//! use ims_machine::cydra_simple;
//!
//! let mut b = LoopBuilder::new("scale", 32);
//! let a = b.array("a", 32);
//! let pa = b.ptr("pa", a, 0);
//! let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
//! let w = b.mul("w", v, 3.0f64);
//! b.store(pa, w, Some(MemRef::new(a, 0, 1)));
//! b.addr_add(pa, pa, 1);
//! let body = b.finish().expect("valid body");
//!
//! let m = cydra_simple();
//! let problem = build_problem(&body, &m, &BuildOptions::default());
//! let out = Scheduler::new(&problem).run().expect("schedulable");
//! let lt = lifetimes(&body, &problem, &out.schedule);
//! let code = generate_mve(&body, &problem, &out.schedule, &lt);
//! assert!(code.unroll >= 1);
//! ```

pub mod code;
mod lifetime;
mod mve;
mod rotating;

pub use code::{CodeOperand, CodeReg, Inst, MveCode, RotatingCode, SlotOp};
pub use lifetime::{lifetimes, unroll_factor, Lifetime};
pub use mve::generate_mve;
pub use rotating::{allocate_rotating, generate_rotating, RotatingAllocation, RotatingError};
