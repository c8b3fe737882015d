//! Equivalence checking between execution modes.

use ims_ir::{VReg, Value};

use crate::memory::MemoryImage;
use crate::ExecResult;

/// The first divergence found between two executions.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The memory layouts have different sizes (different bodies?).
    MemoryShape,
    /// A memory cell differs.
    MemoryCell {
        /// Flat address of the differing cell.
        index: usize,
        /// Value in the first execution.
        a: Value,
        /// Value in the second execution.
        b: Value,
    },
    /// A final register value differs.
    FinalReg {
        /// The differing register.
        reg: VReg,
        /// Value in the first execution.
        a: Option<Value>,
        /// Value in the second execution.
        b: Option<Value>,
    },
}

/// Compares final memory contents cell by cell (with numeric promotion:
/// `Int(2)` equals `Float(2.0)`).
pub fn compare_memory(a: &MemoryImage, b: &MemoryImage) -> Option<Mismatch> {
    if a.cells().len() != b.cells().len() {
        return Some(Mismatch::MemoryShape);
    }
    for (i, (x, y)) in a.cells().iter().zip(b.cells()).enumerate() {
        if !x.same(*y) {
            return Some(Mismatch::MemoryCell {
                index: i,
                a: *x,
                b: *y,
            });
        }
    }
    None
}

/// Compares two executions: memory always; final registers only when both
/// executions report them (executors of renamed code report none).
pub fn compare_results(a: &ExecResult, b: &ExecResult) -> Option<Mismatch> {
    if let Some(m) = compare_memory(&a.memory, &b.memory) {
        return Some(m);
    }
    if a.final_regs.is_empty() || b.final_regs.is_empty() {
        return None;
    }
    for (i, (x, y)) in a.final_regs.iter().zip(&b.final_regs).enumerate() {
        let equal = match (x, y) {
            (None, None) => true,
            (Some(p), Some(q)) => p.same(*q),
            _ => false,
        };
        if !equal {
            return Some(Mismatch::FinalReg {
                reg: VReg(i as u32),
                a: *x,
                b: *y,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::{ArrayId, LoopBuilder};

    fn image() -> MemoryImage {
        let mut b = LoopBuilder::new("t", 1);
        let _ = b.array("a", 2);
        MemoryImage::for_body(&b.finish().expect("a body with no operations is valid"))
    }

    #[test]
    fn identical_images_match() {
        let a = image();
        let b = a.clone();
        assert_eq!(compare_memory(&a, &b), None);
    }

    #[test]
    fn differing_cell_reported() {
        let a = image();
        let mut b = a.clone();
        b.set(ArrayId(0), 1, Value::Float(5.0));
        assert!(matches!(
            compare_memory(&a, &b),
            Some(Mismatch::MemoryCell { index: 1, .. })
        ));
    }

    #[test]
    fn numeric_promotion_in_memory() {
        let mut a = image();
        let mut b = a.clone();
        a.set(ArrayId(0), 0, Value::Int(2));
        b.set(ArrayId(0), 0, Value::Float(2.0));
        assert_eq!(compare_memory(&a, &b), None);
    }

    #[test]
    fn final_regs_compared_when_present() {
        let a = ExecResult {
            memory: image(),
            final_regs: vec![Some(Value::Int(1))],
            cycles: 0,
        };
        let mut b = a.clone();
        assert_eq!(compare_results(&a, &b), None);
        b.final_regs[0] = Some(Value::Int(2));
        assert!(matches!(
            compare_results(&a, &b),
            Some(Mismatch::FinalReg { reg: VReg(0), .. })
        ));
        // Empty final regs on one side: memory-only comparison.
        b.final_regs = vec![];
        assert_eq!(compare_results(&a, &b), None);
    }
}
