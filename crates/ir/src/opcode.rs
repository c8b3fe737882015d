//! Opcodes and functional-unit classes.

use std::fmt;

/// The operation repertoire, matching the operations listed for the Cydra
/// 5-like machine model in the paper's Table 2, plus the small set of
/// arithmetic helpers (copy, abs, min, max) that realistic Livermore-kernel
/// loop bodies require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opcode {
    /// Memory load; source 0 is an integer address into flat memory.
    Load,
    /// Memory store; source 0 is the address, source 1 the value.
    Store,
    /// Predicate set: compares source 0 with source 1 using the operation's
    /// [`CmpKind`] and writes the boolean outcome (Table 2 places predicate
    /// set/reset on the memory ports).
    PredSet,
    /// Predicate reset: writes `false`.
    PredClear,
    /// Address addition (address ALU): integer add.
    AddrAdd,
    /// Address subtraction (address ALU): integer subtract.
    AddrSub,
    /// Integer/floating-point add (adder).
    Add,
    /// Integer/floating-point subtract (adder).
    Sub,
    /// Absolute value (adder).
    Abs,
    /// Minimum of two values (adder).
    Min,
    /// Maximum of two values (adder).
    Max,
    /// Register copy (adder).
    Copy,
    /// Integer/floating-point multiply (multiplier).
    Mul,
    /// Integer/floating-point divide (multiplier).
    Div,
    /// Floating-point square root (multiplier).
    Sqrt,
    /// The loop-closing branch (instruction unit): continues the loop while
    /// source 0 is truthy. At most one per loop body.
    Branch,
}

/// Which class of functional unit executes an opcode. The machine model maps
/// each class to concrete functional units (possibly several — "multiple
/// alternatives", §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Memory ports (loads, stores, predicate set/reset).
    Memory,
    /// Address ALUs.
    AddressAlu,
    /// The adder pipeline.
    Adder,
    /// The multiplier pipeline (multiply, divide, square root).
    Multiplier,
    /// The instruction unit (branches).
    Instruction,
}

impl Opcode {
    /// All opcodes, in declaration order.
    pub const ALL: [Opcode; 16] = [
        Opcode::Load,
        Opcode::Store,
        Opcode::PredSet,
        Opcode::PredClear,
        Opcode::AddrAdd,
        Opcode::AddrSub,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Abs,
        Opcode::Min,
        Opcode::Max,
        Opcode::Copy,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Sqrt,
        Opcode::Branch,
    ];

    /// The functional-unit class that executes this opcode.
    pub fn fu_class(self) -> FuClass {
        match self {
            Opcode::Load | Opcode::Store | Opcode::PredSet | Opcode::PredClear => FuClass::Memory,
            Opcode::AddrAdd | Opcode::AddrSub => FuClass::AddressAlu,
            Opcode::Add | Opcode::Sub | Opcode::Abs | Opcode::Min | Opcode::Max | Opcode::Copy => {
                FuClass::Adder
            }
            Opcode::Mul | Opcode::Div | Opcode::Sqrt => FuClass::Multiplier,
            Opcode::Branch => FuClass::Instruction,
        }
    }

    /// Whether operations with this opcode produce a result register.
    pub fn has_dest(self) -> bool {
        !matches!(self, Opcode::Store | Opcode::Branch)
    }

    /// The number of source operands an operation with this opcode takes.
    pub fn num_srcs(self) -> usize {
        match self {
            Opcode::PredClear => 0,
            Opcode::Load | Opcode::Abs | Opcode::Sqrt | Opcode::Copy | Opcode::Branch => 1,
            Opcode::Store
            | Opcode::PredSet
            | Opcode::AddrAdd
            | Opcode::AddrSub
            | Opcode::Add
            | Opcode::Sub
            | Opcode::Min
            | Opcode::Max
            | Opcode::Mul
            | Opcode::Div => 2,
        }
    }

    /// Whether this opcode accesses memory.
    pub fn is_mem(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Assembly-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::PredSet => "pset",
            Opcode::PredClear => "pclr",
            Opcode::AddrAdd => "aadd",
            Opcode::AddrSub => "asub",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Abs => "abs",
            Opcode::Min => "min",
            Opcode::Max => "max",
            Opcode::Copy => "copy",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Sqrt => "sqrt",
            Opcode::Branch => "brtop",
        }
    }

    /// The opcode whose [`mnemonic`](Opcode::mnemonic) is `s`, if any.
    #[inline]
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Some(match s {
            "load" => Opcode::Load,
            "store" => Opcode::Store,
            "pset" => Opcode::PredSet,
            "pclr" => Opcode::PredClear,
            "aadd" => Opcode::AddrAdd,
            "asub" => Opcode::AddrSub,
            "add" => Opcode::Add,
            "sub" => Opcode::Sub,
            "abs" => Opcode::Abs,
            "min" => Opcode::Min,
            "max" => Opcode::Max,
            "copy" => Opcode::Copy,
            "mul" => Opcode::Mul,
            "div" => Opcode::Div,
            "sqrt" => Opcode::Sqrt,
            "brtop" => Opcode::Branch,
            _ => return None,
        })
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Memory => "Memory port",
            FuClass::AddressAlu => "Address ALU",
            FuClass::Adder => "Adder",
            FuClass::Multiplier => "Multiplier",
            FuClass::Instruction => "Instruction",
        };
        f.write_str(s)
    }
}

/// Comparison kind for [`Opcode::PredSet`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpKind {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpKind {
    /// Applies the comparison to two floats.
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpKind::Lt => a < b,
            CmpKind::Le => a <= b,
            CmpKind::Gt => a > b,
            CmpKind::Ge => a >= b,
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
        }
    }
}

impl fmt::Display for CmpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant_once() {
        let mut sorted = Opcode::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), Opcode::ALL.len());
    }

    #[test]
    fn classes_match_table_2() {
        assert_eq!(Opcode::Load.fu_class(), FuClass::Memory);
        assert_eq!(Opcode::PredSet.fu_class(), FuClass::Memory);
        assert_eq!(Opcode::AddrAdd.fu_class(), FuClass::AddressAlu);
        assert_eq!(Opcode::Add.fu_class(), FuClass::Adder);
        assert_eq!(Opcode::Div.fu_class(), FuClass::Multiplier);
        assert_eq!(Opcode::Branch.fu_class(), FuClass::Instruction);
    }

    #[test]
    fn dest_and_arity() {
        assert!(!Opcode::Store.has_dest());
        assert!(!Opcode::Branch.has_dest());
        assert!(Opcode::Load.has_dest());
        assert_eq!(Opcode::Store.num_srcs(), 2);
        assert_eq!(Opcode::PredClear.num_srcs(), 0);
        assert_eq!(Opcode::Sqrt.num_srcs(), 1);
    }

    #[test]
    fn mem_classification() {
        for op in Opcode::ALL {
            assert_eq!(op.is_mem(), matches!(op, Opcode::Load | Opcode::Store));
        }
    }

    #[test]
    fn cmp_semantics() {
        assert!(CmpKind::Lt.apply(1.0, 2.0));
        assert!(!CmpKind::Gt.apply(1.0, 2.0));
        assert!(CmpKind::Ge.apply(2.0, 2.0));
        assert!(CmpKind::Ne.apply(1.0, 2.0));
        assert!(CmpKind::Eq.apply(2.0, 2.0));
        assert!(CmpKind::Le.apply(2.0, 2.0));
    }

    #[test]
    fn mnemonics_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
        assert_eq!(Opcode::from_mnemonic("Load"), None);
    }

    #[test]
    fn mnemonics_unique() {
        let mut names: Vec<&str> = Opcode::ALL.iter().map(|o| o.mnemonic()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Opcode::ALL.len());
    }
}
