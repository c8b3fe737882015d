//! Operations, operands, and memory reference descriptors.

use std::fmt;

use crate::opcode::{CmpKind, Opcode};
use crate::types::{ArrayId, VReg};

/// A use of a virtual register, possibly reaching back extra iterations.
///
/// In the dynamic-single-assignment discipline a register is defined once
/// per iteration, so the iteration distance of a use is determined
/// positionally: a use *after* the definition in the body reads this
/// iteration's value; a use *at or before* the definition reads the previous
/// iteration's value. `prev` reaches back that many **additional**
/// iterations, which is how higher-order recurrences such as
/// `x[i] = x[i-2] * k` are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegUse {
    /// The register read.
    pub reg: VReg,
    /// Extra iterations to reach back beyond the positional distance.
    pub prev: u32,
}

impl RegUse {
    /// A use of `reg` in the current iteration frame (positional distance
    /// only).
    pub fn new(reg: VReg) -> Self {
        RegUse { reg, prev: 0 }
    }

    /// A use reaching back `prev` additional iterations.
    pub fn back(reg: VReg, prev: u32) -> Self {
        RegUse { reg, prev }
    }
}

impl From<VReg> for RegUse {
    fn from(reg: VReg) -> Self {
        RegUse::new(reg)
    }
}

impl fmt::Display for RegUse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prev == 0 {
            write!(f, "{}", self.reg)
        } else {
            write!(f, "{}[-{}]", self.reg, self.prev)
        }
    }
}

/// A source operand: a register use or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A register use.
    Reg(RegUse),
    /// An integer immediate.
    ImmInt(i64),
    /// A floating-point immediate.
    ImmFloat(f64),
}

impl Operand {
    /// The register use, if this operand is a register.
    pub fn as_reg(&self) -> Option<RegUse> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl From<VReg> for Operand {
    fn from(reg: VReg) -> Self {
        Operand::Reg(RegUse::new(reg))
    }
}

impl From<RegUse> for Operand {
    fn from(r: RegUse) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmInt(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ImmFloat(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmInt(v) => write!(f, "#{v}"),
            Operand::ImmFloat(v) => write!(f, "#{v}"),
        }
    }
}

/// An affine memory-reference descriptor: iteration `i` of the loop accesses
/// element `stride·i + offset` of `array`.
///
/// The dependence analyzer uses these to compute memory dependence
/// *distances* (§2.2): two references to the same array with equal stride
/// `s` and offsets `o₁`, `o₂` touch the same location `(o₁ − o₂)/s`
/// iterations apart (when that is an integer). A memory operation *without*
/// a descriptor is treated as potentially aliasing every other
/// un-descriptored access, yielding conservative distance-0/1 dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// The array accessed.
    pub array: ArrayId,
    /// Constant element offset.
    pub offset: i64,
    /// Elements advanced per iteration.
    pub stride: i64,
}

impl MemRef {
    /// Creates a descriptor for accesses to `array[stride·i + offset]`.
    pub fn new(array: ArrayId, offset: i64, stride: i64) -> Self {
        MemRef {
            array,
            offset,
            stride,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}*i{:+}]", self.array, self.stride, self.offset)
    }
}

/// One operation of a loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// What the operation does.
    pub opcode: Opcode,
    /// Result register, when [`Opcode::has_dest`] is true.
    pub dest: Option<VReg>,
    /// Source operands, [`Opcode::num_srcs`] of them.
    pub srcs: Vec<Operand>,
    /// Comparison kind; present exactly when `opcode` is [`Opcode::PredSet`].
    pub cmp: Option<CmpKind>,
    /// Guarding predicate: when present and false at run time, the operation
    /// has no effect (predicated execution, §1).
    pub pred: Option<RegUse>,
    /// Affine access descriptor for memory operations.
    pub mem: Option<MemRef>,
    /// Optional human-readable name for the result, for diagnostics.
    pub name: Option<String>,
}

impl Operation {
    /// Creates an unpredicated operation with a fresh destination.
    pub fn new(opcode: Opcode, dest: Option<VReg>, srcs: Vec<Operand>) -> Self {
        Operation {
            opcode,
            dest,
            srcs,
            cmp: None,
            pred: None,
            mem: None,
            name: None,
        }
    }

    /// All register uses of the operation: sources, then the guarding
    /// predicate (the paper notes each operation carries *"the additional
    /// predicate input"*, §4.4).
    pub fn reg_uses(&self) -> impl Iterator<Item = RegUse> + '_ {
        self.srcs
            .iter()
            .filter_map(Operand::as_reg)
            .chain(self.pred.iter().copied())
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = &self.pred {
            write!(f, "({p}) ")?;
        }
        if let Some(d) = &self.dest {
            write!(f, "{d} = ")?;
        }
        write!(f, "{}", self.opcode)?;
        if let Some(c) = &self.cmp {
            write!(f, ".{c}")?;
        }
        for (i, s) in self.srcs.iter().enumerate() {
            if i == 0 {
                write!(f, " ")?;
            } else {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        if let Some(m) = &self.mem {
            write!(f, "  ; {m}")?;
        }
        if let Some(n) = &self.name {
            write!(f, "  ; {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_use_display() {
        assert_eq!(RegUse::new(VReg(1)).to_string(), "v1");
        assert_eq!(RegUse::back(VReg(1), 2).to_string(), "v1[-2]");
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(VReg(2)).as_reg(), Some(RegUse::new(VReg(2))));
        assert_eq!(Operand::from(3i64), Operand::ImmInt(3));
        assert_eq!(Operand::from(3.5f64), Operand::ImmFloat(3.5));
        assert_eq!(Operand::ImmInt(1).as_reg(), None);
    }

    #[test]
    fn operation_reg_uses_include_predicate() {
        let mut op = Operation::new(
            Opcode::Add,
            Some(VReg(5)),
            vec![VReg(1).into(), Operand::ImmInt(4)],
        );
        op.pred = Some(RegUse::new(VReg(9)));
        let uses: Vec<RegUse> = op.reg_uses().collect();
        assert_eq!(uses, vec![RegUse::new(VReg(1)), RegUse::new(VReg(9))]);
    }

    #[test]
    fn operation_display_is_readable() {
        let mut op = Operation::new(
            Opcode::PredSet,
            Some(VReg(3)),
            vec![VReg(1).into(), Operand::ImmInt(0)],
        );
        op.cmp = Some(CmpKind::Gt);
        let s = op.to_string();
        assert!(s.contains("pset.gt"), "got {s}");
        assert!(s.contains("v3 ="), "got {s}");
    }
}
