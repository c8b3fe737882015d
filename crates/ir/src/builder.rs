//! Ergonomic construction of loop bodies.

use crate::body::{LiveInValue, LoopBody};
use crate::op::{MemRef, Operand, Operation, RegUse};
use crate::opcode::{CmpKind, Opcode};
use crate::types::{ArrayId, OpId, VReg, Value};
use crate::validate::{self, ValidateError};

/// A builder for [`LoopBody`] values.
///
/// The builder provides three tiers of API:
///
/// * **fresh-destination sugar** (`add`, `mul`, `load`, …): allocates a new
///   virtual register for the result;
/// * **rebinding sugar** (`rebind`, `rebind_add`, `addr_add`, …): emits the
///   single per-iteration definition of an already-allocated register — this
///   is how loop-carried recurrences (accumulators, induction pointers) are
///   written;
/// * **raw emission** ([`LoopBuilder::emit`]) for anything else.
///
/// `finish` validates the body (see [`crate::validate`]).
///
/// # Examples
///
/// A count-down loop control idiom (`n = n − 1; branch while n > 0`):
///
/// ```
/// use ims_ir::{LoopBuilder, Value};
///
/// let mut b = LoopBuilder::new("count", 10);
/// let n = b.fresh("n");
/// b.bind_live_in(n, Value::Int(10));
/// b.addr_sub(n, n, 1);
/// b.branch(n);
/// let body = b.finish()?;
/// assert_eq!(body.num_ops(), 2);
/// # Ok::<(), ims_ir::validate::ValidateError>(())
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    body: LoopBody,
}

impl LoopBuilder {
    /// Starts building a loop named `name` with the given simulation trip
    /// count.
    pub fn new(name: impl Into<String>, trip_count: u32) -> Self {
        LoopBuilder {
            body: LoopBody::new(name, trip_count),
        }
    }

    /// Declares an array of `len` elements.
    pub fn array(&mut self, name: impl Into<String>, len: usize) -> ArrayId {
        self.body.add_array(name, len)
    }

    /// Allocates a register without binding or defining it.
    ///
    /// The `name` is advisory; it is attached to the defining operation when
    /// one is emitted later.
    pub fn fresh(&mut self, _name: &str) -> VReg {
        self.body.new_vreg()
    }

    /// Allocates a register bound to a constant live-in value.
    pub fn live_in(&mut self, name: &str, value: Value) -> VReg {
        let r = self.fresh(name);
        self.bind_live_in(r, value);
        r
    }

    /// Allocates a register bound to the address of `array[offset]`.
    pub fn ptr(&mut self, name: &str, array: ArrayId, offset: i64) -> VReg {
        let r = self.fresh(name);
        self.body
            .add_live_in(r, LiveInValue::ArrayBase { array, offset });
        r
    }

    /// Binds an already-allocated register to a constant live-in value.
    ///
    /// A register may be both live-in and defined in the body: the live-in
    /// value seeds "iteration −1" of a recurrence.
    pub fn bind_live_in(&mut self, reg: VReg, value: Value) {
        self.body.add_live_in(reg, LiveInValue::Const(value));
    }

    /// Emits a raw operation.
    pub fn emit(&mut self, op: Operation) -> OpId {
        self.body.push(op)
    }

    /// Emits `opcode` with a fresh destination register.
    pub fn op(&mut self, name: &str, opcode: Opcode, srcs: Vec<Operand>) -> VReg {
        let d = self.fresh(name);
        let mut op = Operation::new(opcode, Some(d), srcs);
        op.name = Some(name.to_string());
        self.emit(op);
        d
    }

    /// Emits the per-iteration definition of `dest` (for recurrences).
    pub fn rebind(&mut self, dest: VReg, opcode: Opcode, srcs: Vec<Operand>) -> OpId {
        self.emit(Operation::new(opcode, Some(dest), srcs))
    }

    /// `dest = a + b` re-binding an existing register (accumulator idiom).
    pub fn rebind_add(&mut self, dest: VReg, a: impl Into<Operand>, b: impl Into<Operand>) -> OpId {
        self.rebind(dest, Opcode::Add, vec![a.into(), b.into()])
    }

    /// `dest = src + k` on the address ALU (pointer-increment idiom; these
    /// are the *"add that increments the value of an address into an array"*
    /// single-operation SCCs of §4.2).
    pub fn addr_add(&mut self, dest: VReg, src: impl Into<Operand>, k: i64) -> OpId {
        self.rebind(dest, Opcode::AddrAdd, vec![src.into(), Operand::ImmInt(k)])
    }

    /// `dest = src − k` on the address ALU (count-down idiom).
    pub fn addr_sub(&mut self, dest: VReg, src: impl Into<Operand>, k: i64) -> OpId {
        self.rebind(dest, Opcode::AddrSub, vec![src.into(), Operand::ImmInt(k)])
    }

    /// Loads from the address in `addr`, with an optional affine descriptor.
    pub fn load(&mut self, name: &str, addr: impl Into<Operand>, mem: Option<MemRef>) -> VReg {
        let d = self.fresh(name);
        let mut op = Operation::new(Opcode::Load, Some(d), vec![addr.into()]);
        op.mem = mem;
        op.name = Some(name.to_string());
        self.emit(op);
        d
    }

    /// Stores `value` to the address in `addr`.
    pub fn store(
        &mut self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        mem: Option<MemRef>,
    ) -> OpId {
        let mut op = Operation::new(Opcode::Store, None, vec![addr.into(), value.into()]);
        op.mem = mem;
        self.emit(op)
    }

    /// `pset.cmp a, b` — compares and writes a fresh predicate register.
    pub fn pred_set(
        &mut self,
        name: &str,
        cmp: CmpKind,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> VReg {
        let d = self.fresh(name);
        let mut op = Operation::new(Opcode::PredSet, Some(d), vec![a.into(), b.into()]);
        op.cmp = Some(cmp);
        op.name = Some(name.to_string());
        self.emit(op);
        d
    }

    /// `pclr` — writes `false` to a fresh predicate register.
    pub fn pred_clear(&mut self, name: &str) -> VReg {
        self.op(name, Opcode::PredClear, vec![])
    }

    /// Emits the loop-closing branch, which continues while `cond` is truthy.
    pub fn branch(&mut self, cond: impl Into<Operand>) -> OpId {
        self.emit(Operation::new(Opcode::Branch, None, vec![cond.into()]))
    }

    /// Guards an already-emitted operation with a predicate register.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn guard(&mut self, op: OpId, pred: impl Into<RegUse>) {
        assert!(
            op.index() < self.body.num_ops(),
            "operation id out of range"
        );
        self.body.op_mut(op).pred = Some(pred.into());
    }

    /// A read of `reg` from `prev` additional iterations back.
    pub fn back(&self, reg: VReg, prev: u32) -> Operand {
        Operand::Reg(RegUse::back(reg, prev))
    }

    /// Finishes the build, validating the body.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found; see [`crate::validate`].
    pub fn finish(self) -> Result<LoopBody, ValidateError> {
        validate::validate(&self.body)?;
        Ok(self.body)
    }

    /// Read-only access to the body under construction.
    pub fn body(&self) -> &LoopBody {
        &self.body
    }
}

macro_rules! binop_sugar {
    ($(#[$doc:meta] $fn_name:ident => $opcode:ident),* $(,)?) => {
        impl LoopBuilder {
            $(
                #[$doc]
                pub fn $fn_name(
                    &mut self,
                    name: &str,
                    a: impl Into<Operand>,
                    b: impl Into<Operand>,
                ) -> VReg {
                    self.op(name, Opcode::$opcode, vec![a.into(), b.into()])
                }
            )*
        }
    };
}

macro_rules! unop_sugar {
    ($(#[$doc:meta] $fn_name:ident => $opcode:ident),* $(,)?) => {
        impl LoopBuilder {
            $(
                #[$doc]
                pub fn $fn_name(&mut self, name: &str, a: impl Into<Operand>) -> VReg {
                    self.op(name, Opcode::$opcode, vec![a.into()])
                }
            )*
        }
    };
}

binop_sugar! {
    /// `add a, b` on the adder (fresh destination).
    add => Add,
    /// `sub a, b` on the adder (fresh destination).
    sub => Sub,
    /// `min a, b` on the adder (fresh destination).
    min => Min,
    /// `max a, b` on the adder (fresh destination).
    max => Max,
    /// `mul a, b` on the multiplier (fresh destination).
    mul => Mul,
    /// `div a, b` on the multiplier (fresh destination).
    div => Div,
}

unop_sugar! {
    /// `sqrt a` on the multiplier (fresh destination).
    sqrt => Sqrt,
    /// `abs a` on the adder (fresh destination).
    abs => Abs,
    /// `copy a` on the adder (fresh destination).
    copy => Copy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_builds() {
        let mut b = LoopBuilder::new("dot", 8);
        let a = b.array("a", 8);
        let pa = b.ptr("pa", a, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let va = b.load("va", pa, Some(MemRef::new(a, 0, 1)));
        b.rebind_add(s, s, va);
        b.addr_add(pa, pa, 1);
        let body = b.finish().unwrap();
        assert_eq!(body.num_ops(), 3);
        assert_eq!(body.op(OpId(1)).dest, Some(s));
    }

    #[test]
    fn guard_sets_predicate() {
        let mut b = LoopBuilder::new("g", 4);
        let p = b.pred_set("p", CmpKind::Gt, 1i64, 0i64);
        let x = b.add("x", 1i64, 2i64);
        let st_target = b.fresh("y");
        b.bind_live_in(st_target, Value::Int(0));
        let op = b.rebind(st_target, Opcode::Copy, vec![x.into()]);
        b.guard(op, p);
        let body = b.finish().unwrap();
        assert_eq!(body.op(op).pred, Some(RegUse::new(p)));
    }

    #[test]
    fn back_reads_prior_iterations() {
        let mut b = LoopBuilder::new("fib", 8);
        let x = b.fresh("x");
        b.bind_live_in(x, Value::Int(1));
        let two_back = b.back(x, 1);
        b.rebind(x, Opcode::Add, vec![x.into(), two_back]);
        let body = b.finish().unwrap();
        assert_eq!(body.op(OpId(0)).srcs[1].as_reg(), Some(RegUse::back(x, 1)));
    }

    #[test]
    fn sugar_covers_all_binops() {
        let mut b = LoopBuilder::new("s", 1);
        let x = b.live_in("x", Value::Float(2.0));
        let _ = b.add("a", x, x);
        let _ = b.sub("b", x, x);
        let _ = b.mul("c", x, x);
        let _ = b.div("d", x, x);
        let _ = b.min("e", x, x);
        let _ = b.max("f", x, x);
        let _ = b.sqrt("g", x);
        let _ = b.abs("h", x);
        let _ = b.copy("i", x);
        let body = b.finish().unwrap();
        assert_eq!(body.num_ops(), 9);
    }
}
