#![warn(missing_docs)]

//! Dependence analysis: from an IR loop body to a modulo-scheduling problem.
//!
//! The paper's scheduler received loop bodies *"after load-store
//! elimination, recurrence back-substitution and IF-conversion"* with
//! dependences already computed (§4.1). This crate is the front end that
//! produces that input from an [`ims_ir::LoopBody`]:
//!
//! * **Register flow dependences** from the dynamic-single-assignment
//!   discipline: the iteration distance of a use is positional (a use at or
//!   before its definition reads the previous iteration) plus the explicit
//!   [`ims_ir::RegUse::prev`] reach-back, resolved through one [`DefSites`]
//!   index per body. Anti- and output dependences on
//!   registers do not exist by construction — exactly the effect of the
//!   paper's expanded virtual registers (§2.2).
//! * **Predicate input dependences**: each predicated operation depends on
//!   its predicate's definition (the paper attributes its ≈3 edges/op to
//!   *"the additional predicate input that each operation possesses"*,
//!   §4.4). These are [`ims_graph::DepKind::Control`] edges.
//! * **Memory dependences** with distances derived from affine access
//!   descriptors (`array[stride·i + offset]`): two references collide
//!   `(o₁−o₂)/s` iterations apart. References without descriptors, or with
//!   mismatched strides, get conservative distance-0/1 dependences in both
//!   directions.
//! * **Delay computation** per the paper's Table 1, in both variants:
//!   [`DelayModel::Vliw`] (delays may be negative) and
//!   [`DelayModel::Conservative`] (for superscalars that require
//!   `latency ≥ 1` semantics).
//!
//! # Examples
//!
//! ```
//! use ims_deps::{build_problem, BuildOptions};
//! use ims_ir::{LoopBuilder, MemRef, Value};
//! use ims_machine::cydra;
//!
//! let mut b = LoopBuilder::new("sum", 64);
//! let a = b.array("a", 64);
//! let pa = b.ptr("pa", a, 0);
//! let s = b.fresh("s");
//! b.bind_live_in(s, Value::Float(0.0));
//! let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
//! b.rebind_add(s, s, v);         // s += a[i]: a recurrence
//! b.addr_add(pa, pa, 1);
//! let body = b.finish()?;
//!
//! let m = cydra();
//! let problem = build_problem(&body, &m, &BuildOptions::default());
//! assert_eq!(problem.num_ops(), 3);
//! // The accumulator self-edge and the pointer self-edge are both present.
//! assert!(problem.graph().edges().iter().any(|e| e.distance == 1));
//! # Ok::<(), ims_ir::validate::ValidateError>(())
//! ```

mod backsub;
mod build;
mod delay;
mod unroll;

pub use backsub::back_substitute;
pub use build::{build_problem, node_of, BuildOptions, DefSites};
pub use delay::{delay, DelayModel};
pub use unroll::unroll;
