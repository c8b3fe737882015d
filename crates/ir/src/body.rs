//! The loop body container.

use std::fmt;

use crate::op::Operation;
use crate::types::{ArrayId, OpId, VReg, Value};

/// An array over which the loop iterates; backs a contiguous region of the
/// simulator's flat memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name.
    pub name: String,
    /// Number of elements.
    pub len: usize,
}

/// The initial value bound to a live-in register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveInValue {
    /// A constant.
    Const(Value),
    /// The flat-memory address of `array[offset]`, resolved when the
    /// simulator lays out memory.
    ArrayBase {
        /// The array whose storage is addressed.
        array: ArrayId,
        /// Element offset from the base of the array.
        offset: i64,
    },
}

/// A live-in register binding: the value the register holds for reads that
/// reach `lag` iterations before the loop starts (a `lag` of 1 is the
/// ordinary "value on entry"; higher lags seed higher-order recurrences and
/// back-substituted recurrences, which read several iterations into the
/// pre-loop past).
///
/// A lag with no explicit binding falls back to the register's lag-1
/// binding (all pre-loop instances hold the entry value), which is the
/// common case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveIn {
    /// The register.
    pub reg: VReg,
    /// Which pre-loop iteration this value seeds (≥ 1).
    pub lag: u32,
    /// The value.
    pub value: LiveInValue,
}

/// A single-basic-block innermost loop body in dynamic-single-assignment
/// form: the input to dependence analysis and modulo scheduling.
///
/// Construct with [`crate::LoopBuilder`]; the builder's `finish` runs
/// [`crate::validate::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoopBody {
    name: String,
    ops: Vec<Operation>,
    num_vregs: u32,
    arrays: Vec<ArrayDecl>,
    live_ins: Vec<LiveIn>,
    trip_count: u32,
}

impl LoopBody {
    /// Creates an empty body. Prefer [`crate::LoopBuilder`].
    pub fn new(name: impl Into<String>, trip_count: u32) -> Self {
        LoopBody {
            name: name.into(),
            ops: Vec::new(),
            num_vregs: 0,
            arrays: Vec::new(),
            live_ins: Vec::new(),
            trip_count,
        }
    }

    /// The loop's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of iterations executed when simulated as a DO-loop.
    pub fn trip_count(&self) -> u32 {
        self.trip_count
    }

    /// The operations, in body order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Mutable access to an operation, for IR-to-IR transforms (e.g.
    /// recurrence back-substitution). Callers are responsible for keeping
    /// the body valid; re-run [`crate::validate::validate`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self.ops[id.index()]
    }

    /// Number of operations in the body.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of virtual registers allocated so far.
    pub fn num_vregs(&self) -> usize {
        self.num_vregs as usize
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Live-in register bindings.
    pub fn live_ins(&self) -> &[LiveIn] {
        &self.live_ins
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.num_vregs);
        self.num_vregs += 1;
        r
    }

    /// Declares an array of `len` elements.
    pub fn add_array(&mut self, name: impl Into<String>, len: usize) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            len,
        });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Binds `reg` to an initial value (lag 1: the value on loop entry).
    pub fn add_live_in(&mut self, reg: VReg, value: LiveInValue) {
        self.add_live_in_lag(reg, 1, value);
    }

    /// Binds `reg`'s pre-loop instance `lag` iterations back.
    ///
    /// # Panics
    ///
    /// Panics if `lag` is zero.
    pub fn add_live_in_lag(&mut self, reg: VReg, lag: u32, value: LiveInValue) {
        assert!(lag >= 1, "live-in lag must be at least 1");
        self.live_ins.push(LiveIn { reg, lag, value });
    }

    /// The value seeded for reads of `reg` from `lag` iterations before the
    /// loop: the exact-lag binding if present, else the lag-1 binding.
    pub fn live_in_value(&self, reg: VReg, lag: u32) -> Option<LiveInValue> {
        self.live_ins
            .iter()
            .find(|li| li.reg == reg && li.lag == lag)
            .or_else(|| self.live_ins.iter().find(|li| li.reg == reg && li.lag == 1))
            .map(|li| li.value)
    }

    /// Appends an operation, returning its id.
    pub fn push(&mut self, op: Operation) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() as u32 - 1)
    }

    /// The id of the operation (if any) that defines `reg`.
    pub fn def_of(&self, reg: VReg) -> Option<OpId> {
        self.ops
            .iter()
            .position(|op| op.dest == Some(reg))
            .map(|i| OpId(i as u32))
    }

    /// Whether `reg` has a live-in binding.
    pub fn is_live_in(&self, reg: VReg) -> bool {
        self.live_ins.iter().any(|li| li.reg == reg)
    }

    /// Iterates over `(OpId, &Operation)` pairs in body order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Operation)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId(i as u32), op))
    }
}

impl fmt::Display for LoopBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "loop {} (trip={}):", self.name, self.trip_count)?;
        for a in &self.arrays {
            writeln!(f, "  array {}[{}]", a.name, a.len)?;
        }
        for li in &self.live_ins {
            let lag = if li.lag == 1 {
                String::new()
            } else {
                format!("[-{}]", li.lag)
            };
            match li.value {
                LiveInValue::Const(v) => writeln!(f, "  live-in {}{} = {}", li.reg, lag, v)?,
                LiveInValue::ArrayBase { array, offset } => {
                    writeln!(f, "  live-in {}{} = &{}[{}]", li.reg, lag, array, offset)?
                }
            }
        }
        for (id, op) in self.iter() {
            writeln!(f, "  {id}: {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operand;
    use crate::opcode::Opcode;

    fn tiny() -> LoopBody {
        let mut b = LoopBody::new("t", 10);
        let r = b.new_vreg();
        b.push(Operation::new(
            Opcode::AddrAdd,
            Some(r),
            vec![r.into(), Operand::ImmInt(1)],
        ));
        b
    }

    #[test]
    fn vregs_are_sequential() {
        let mut b = LoopBody::new("t", 1);
        assert_eq!(b.new_vreg(), VReg(0));
        assert_eq!(b.new_vreg(), VReg(1));
        assert_eq!(b.num_vregs(), 2);
    }

    #[test]
    fn def_lookup() {
        let b = tiny();
        assert_eq!(b.def_of(VReg(0)), Some(OpId(0)));
        assert_eq!(b.def_of(VReg(99)), None);
    }

    #[test]
    fn arrays_and_live_ins() {
        let mut b = tiny();
        let a = b.add_array("a", 8);
        assert_eq!(a, ArrayId(0));
        let r = b.new_vreg();
        b.add_live_in(
            r,
            LiveInValue::ArrayBase {
                array: a,
                offset: 0,
            },
        );
        assert!(b.is_live_in(r));
        assert!(!b.is_live_in(VReg(0)));
        assert_eq!(b.arrays().len(), 1);
    }

    #[test]
    fn display_includes_ops() {
        let b = tiny();
        let s = b.to_string();
        assert!(s.contains("aadd"), "got {s}");
        assert!(s.contains("loop t"), "got {s}");
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let b = tiny();
        let ids: Vec<OpId> = b.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![OpId(0)]);
    }
}
