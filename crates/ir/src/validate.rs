//! Well-formedness checks on loop bodies.
//!
//! The dependence analyzer and the simulator both rely on the dynamic-
//! single-assignment discipline described in the crate docs; `validate`
//! checks it, along with operand arity, destination presence, and the
//! structural constraints on branches and memory descriptors.

use std::fmt;

use crate::body::LoopBody;
use crate::op::Operand;
use crate::opcode::Opcode;
use crate::types::{OpId, VReg};

/// A well-formedness violation in a [`LoopBody`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A register is defined by more than one operation (violates dynamic
    /// single assignment).
    MultipleDefs {
        /// The multiply-defined register.
        reg: VReg,
        /// The first defining operation.
        first: OpId,
        /// The second defining operation.
        second: OpId,
    },
    /// A register is used but never defined in the body nor bound live-in.
    UndefinedUse {
        /// The operation containing the use.
        op: OpId,
        /// The undefined register.
        reg: VReg,
    },
    /// An operation has the wrong number of source operands.
    BadArity {
        /// The offending operation.
        op: OpId,
        /// The opcode's required operand count.
        expected: usize,
        /// The count found.
        got: usize,
    },
    /// Destination presence does not match the opcode.
    DestMismatch {
        /// The offending operation.
        op: OpId,
    },
    /// A `PredSet` without a comparison kind, or a comparison kind on any
    /// other opcode.
    CmpMismatch {
        /// The offending operation.
        op: OpId,
    },
    /// A memory descriptor on a non-memory operation.
    MemOnNonMemOp {
        /// The offending operation.
        op: OpId,
    },
    /// A memory descriptor that names an undeclared array.
    UnknownArray {
        /// The offending operation.
        op: OpId,
    },
    /// More than one loop-closing branch.
    MultipleBranches {
        /// The second branch found.
        op: OpId,
    },
    /// The trip count is zero.
    ZeroTripCount,
    /// A live-in register is bound more than once at the same lag.
    DuplicateLiveIn {
        /// The doubly-bound register.
        reg: VReg,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::MultipleDefs { reg, first, second } => {
                write!(f, "{reg} defined by both {first} and {second}")
            }
            ValidateError::UndefinedUse { op, reg } => {
                write!(f, "{op} uses {reg}, which has no definition or live-in")
            }
            ValidateError::BadArity { op, expected, got } => {
                write!(f, "{op} has {got} sources, expected {expected}")
            }
            ValidateError::DestMismatch { op } => {
                write!(f, "{op} destination presence does not match its opcode")
            }
            ValidateError::CmpMismatch { op } => {
                write!(f, "{op} comparison kind does not match its opcode")
            }
            ValidateError::MemOnNonMemOp { op } => {
                write!(
                    f,
                    "{op} carries a memory descriptor but is not a memory operation"
                )
            }
            ValidateError::UnknownArray { op } => {
                write!(f, "{op} references an undeclared array")
            }
            ValidateError::MultipleBranches { op } => {
                write!(f, "{op} is a second loop-closing branch")
            }
            ValidateError::ZeroTripCount => write!(f, "trip count is zero"),
            ValidateError::DuplicateLiveIn { reg } => {
                write!(f, "{reg} has more than one live-in binding")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validates a loop body, returning the first violation found.
///
/// # Errors
///
/// See [`ValidateError`] for the conditions checked.
pub fn validate(body: &LoopBody) -> Result<(), ValidateError> {
    if body.trip_count() == 0 {
        return Err(ValidateError::ZeroTripCount);
    }

    // Single definition per register.
    let mut def: Vec<Option<OpId>> = vec![None; body.num_vregs()];
    for (id, op) in body.iter() {
        if let Some(d) = op.dest {
            if let Some(first) = def[d.index()] {
                return Err(ValidateError::MultipleDefs {
                    reg: d,
                    first,
                    second: id,
                });
            }
            def[d.index()] = Some(id);
        }
    }

    // Unique live-in bindings per (register, lag).
    let mut seen: Vec<(VReg, u32)> = Vec::new();
    let mut live_in = vec![false; body.num_vregs()];
    for li in body.live_ins() {
        if seen.contains(&(li.reg, li.lag)) {
            return Err(ValidateError::DuplicateLiveIn { reg: li.reg });
        }
        seen.push((li.reg, li.lag));
        live_in[li.reg.index()] = true;
    }

    let mut saw_branch = false;
    for (id, op) in body.iter() {
        if op.srcs.len() != op.opcode.num_srcs() {
            return Err(ValidateError::BadArity {
                op: id,
                expected: op.opcode.num_srcs(),
                got: op.srcs.len(),
            });
        }
        if op.dest.is_some() != op.opcode.has_dest() {
            return Err(ValidateError::DestMismatch { op: id });
        }
        if op.cmp.is_some() != (op.opcode == Opcode::PredSet) {
            return Err(ValidateError::CmpMismatch { op: id });
        }
        if op.mem.is_some() && !op.opcode.is_mem() {
            return Err(ValidateError::MemOnNonMemOp { op: id });
        }
        if let Some(m) = op.mem {
            if m.array.index() >= body.arrays().len() {
                return Err(ValidateError::UnknownArray { op: id });
            }
        }
        if op.opcode == Opcode::Branch {
            if saw_branch {
                return Err(ValidateError::MultipleBranches { op: id });
            }
            saw_branch = true;
        }
        for u in op.reg_uses() {
            let defined = u.reg.index() < body.num_vregs()
                && (def[u.reg.index()].is_some() || live_in[u.reg.index()]);
            if !defined {
                return Err(ValidateError::UndefinedUse { op: id, reg: u.reg });
            }
        }
        // Immediate operands need no checks beyond arity.
        for s in &op.srcs {
            if let Operand::Reg(_) = s {
                // Covered above via reg_uses.
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::op::{MemRef, Operation};
    use crate::types::{ArrayId, Value};

    #[test]
    fn valid_body_passes() {
        let mut b = LoopBuilder::new("ok", 4);
        let x = b.live_in("x", Value::Int(1));
        let _ = b.add("y", x, 1i64);
        assert!(validate(b.body()).is_ok());
    }

    #[test]
    fn multiple_defs_rejected() {
        let mut b = LoopBuilder::new("bad", 4);
        let x = b.fresh("x");
        b.rebind(x, Opcode::Copy, vec![Operand::ImmInt(1)]);
        b.rebind(x, Opcode::Copy, vec![Operand::ImmInt(2)]);
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::MultipleDefs { .. })
        ));
    }

    #[test]
    fn undefined_use_rejected() {
        let mut b = LoopBuilder::new("bad", 4);
        let ghost = b.fresh("ghost");
        let _ = b.add("y", ghost, 1i64);
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::UndefinedUse { .. })
        ));
    }

    #[test]
    fn self_recurrence_with_live_in_is_legal() {
        let mut b = LoopBuilder::new("acc", 4);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        b.rebind_add(s, s, 1i64);
        assert!(validate(b.body()).is_ok());
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = LoopBuilder::new("bad", 4);
        let d = b.fresh("d");
        b.emit(Operation::new(
            Opcode::Add,
            Some(d),
            vec![Operand::ImmInt(1)],
        ));
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::BadArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn dest_mismatch_rejected() {
        let mut b = LoopBuilder::new("bad", 4);
        b.emit(Operation::new(
            Opcode::Add,
            None,
            vec![Operand::ImmInt(1), Operand::ImmInt(2)],
        ));
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::DestMismatch { .. })
        ));
    }

    #[test]
    fn cmp_only_on_pred_set() {
        let mut b = LoopBuilder::new("bad", 4);
        let d = b.fresh("d");
        let mut op = Operation::new(Opcode::Add, Some(d), vec![1i64.into(), 2i64.into()]);
        op.cmp = Some(crate::CmpKind::Lt);
        b.emit(op);
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::CmpMismatch { .. })
        ));

        let mut b = LoopBuilder::new("bad2", 4);
        let d = b.fresh("d");
        // PredSet without cmp.
        b.emit(Operation::new(
            Opcode::PredSet,
            Some(d),
            vec![1i64.into(), 2i64.into()],
        ));
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::CmpMismatch { .. })
        ));
    }

    #[test]
    fn mem_descriptor_restrictions() {
        let mut b = LoopBuilder::new("bad", 4);
        let d = b.fresh("d");
        let mut op = Operation::new(Opcode::Add, Some(d), vec![1i64.into(), 2i64.into()]);
        op.mem = Some(MemRef::new(ArrayId(0), 0, 1));
        b.emit(op);
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::MemOnNonMemOp { .. })
        ));

        let mut b = LoopBuilder::new("bad2", 4);
        let p = b.live_in("p", Value::Int(0));
        // Load with a descriptor naming an undeclared array.
        let _ = b.load("v", p, Some(MemRef::new(ArrayId(7), 0, 1)));
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::UnknownArray { .. })
        ));
    }

    #[test]
    fn at_most_one_branch() {
        let mut b = LoopBuilder::new("bad", 4);
        let n = b.live_in("n", Value::Int(3));
        b.branch(n);
        b.branch(n);
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::MultipleBranches { .. })
        ));
    }

    #[test]
    fn zero_trip_rejected() {
        let b = LoopBuilder::new("bad", 0);
        assert_eq!(validate(b.body()), Err(ValidateError::ZeroTripCount));
    }

    #[test]
    fn duplicate_live_in_rejected() {
        let mut b = LoopBuilder::new("bad", 4);
        let x = b.fresh("x");
        b.bind_live_in(x, Value::Int(0));
        b.bind_live_in(x, Value::Int(1));
        assert!(matches!(
            validate(b.body()),
            Err(ValidateError::DuplicateLiveIn { .. })
        ));
    }

    #[test]
    fn errors_display() {
        let e = ValidateError::ZeroTripCount;
        assert!(!e.to_string().is_empty());
    }
}
