//! Flat memory with per-array layout.

use ims_ir::{ArrayId, LiveInValue, LoopBody, OpId, Value};

use crate::error::SimError;

/// Flat simulated memory: the body's arrays laid out contiguously in
/// declaration order. Cells default to `Float(0.0)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryImage {
    bases: Vec<usize>,
    lens: Vec<usize>,
    cells: Vec<Value>,
}

impl MemoryImage {
    /// Lays out memory for `body`'s arrays, zero-filled.
    pub fn for_body(body: &LoopBody) -> Self {
        let mut bases = Vec::with_capacity(body.arrays().len());
        let mut lens = Vec::with_capacity(body.arrays().len());
        let mut next = 0usize;
        for a in body.arrays() {
            bases.push(next);
            lens.push(a.len);
            next += a.len;
        }
        MemoryImage {
            bases,
            lens,
            cells: vec![Value::Float(0.0); next],
        }
    }

    /// [`for_body`](Self::for_body), then each array in `init` seeded
    /// from index 0; panics like [`set`](Self::set) on a bad element.
    pub fn with_init(body: &LoopBody, init: &[(ArrayId, Vec<Value>)]) -> Self {
        let mut img = Self::for_body(body);
        for (array, values) in init {
            for (i, &v) in values.iter().enumerate() {
                img.set(*array, i, v);
            }
        }
        img
    }

    /// The flat base address of `array`.
    ///
    /// # Panics
    ///
    /// Panics if `array` is out of range.
    pub fn base(&self, array: ArrayId) -> i64 {
        self.bases[array.index()] as i64
    }

    /// Sets `array[idx]`.
    ///
    /// # Panics
    ///
    /// Panics if the element is out of range.
    pub fn set(&mut self, array: ArrayId, idx: usize, value: Value) {
        assert!(idx < self.lens[array.index()], "array index out of range");
        self.cells[self.bases[array.index()] + idx] = value;
    }

    /// Reads `array[idx]`.
    ///
    /// # Panics
    ///
    /// Panics if the element is out of range.
    pub fn get(&self, array: ArrayId, idx: usize) -> Value {
        assert!(idx < self.lens[array.index()], "array index out of range");
        self.cells[self.bases[array.index()] + idx]
    }

    /// All cells, in layout order.
    pub fn cells(&self) -> &[Value] {
        &self.cells
    }

    /// Reads the cell at flat address `addr` on behalf of `op`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] when out of range.
    pub fn read(&self, op: OpId, addr: i64) -> Result<Value, SimError> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.cells.get(a).copied())
            .ok_or(SimError::BadAddress { op, addr })
    }

    /// Writes the cell at flat address `addr` on behalf of `op`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAddress`] when out of range.
    pub fn write(&mut self, op: OpId, addr: i64, value: Value) -> Result<(), SimError> {
        let a = usize::try_from(addr)
            .ok()
            .filter(|&a| a < self.cells.len())
            .ok_or(SimError::BadAddress { op, addr })?;
        self.cells[a] = value;
        Ok(())
    }

    /// Resolves a live-in binding against this layout.
    pub fn resolve(&self, v: LiveInValue) -> Value {
        match v {
            LiveInValue::Const(c) => c,
            LiveInValue::ArrayBase { array, offset } => Value::Int(self.base(array) + offset),
        }
    }

    /// Per-register lag-1 live-in values for `body` under this layout,
    /// indexable by `VReg::index`.
    pub fn live_in_values(&self, body: &LoopBody) -> Vec<Option<Value>> {
        let mut out = vec![None; body.num_vregs()];
        for li in body.live_ins() {
            if li.lag == 1 {
                out[li.reg.index()] = Some(self.resolve(li.value));
            }
        }
        out
    }

    /// The live-in value of `reg` for reads reaching `lag` iterations
    /// before the loop (exact lag, falling back to the lag-1 binding).
    pub fn live_in_lag(&self, body: &LoopBody, reg: ims_ir::VReg, lag: u32) -> Option<Value> {
        body.live_in_value(reg, lag).map(|v| self.resolve(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::LoopBuilder;

    fn body_with_arrays() -> LoopBody {
        let mut b = LoopBuilder::new("t", 4);
        let a = b.array("a", 3);
        let c = b.array("c", 2);
        let p = b.ptr("p", c, 1);
        let _ = (a, p);
        b.finish().unwrap()
    }

    #[test]
    fn layout_is_contiguous() {
        let body = body_with_arrays();
        let img = MemoryImage::for_body(&body);
        assert_eq!(img.base(ArrayId(0)), 0);
        assert_eq!(img.base(ArrayId(1)), 3);
        assert_eq!(img.cells().len(), 5);
    }

    #[test]
    fn get_set_round_trip() {
        let body = body_with_arrays();
        let mut img = MemoryImage::for_body(&body);
        img.set(ArrayId(1), 1, Value::Int(7));
        assert_eq!(img.get(ArrayId(1), 1), Value::Int(7));
        assert_eq!(img.read(OpId(0), 4).unwrap(), Value::Int(7));
    }

    #[test]
    fn with_init_seeds_each_array_from_its_start() {
        let body = body_with_arrays();
        let init = vec![(ArrayId(1), vec![Value::Int(5)])];
        let img = MemoryImage::with_init(&body, &init);
        assert_eq!(img.get(ArrayId(1), 0), Value::Int(5));
        assert_eq!(img.get(ArrayId(1), 1), Value::Float(0.0));
        assert_eq!(img.get(ArrayId(0), 0), Value::Float(0.0));
        assert_eq!(
            MemoryImage::with_init(&body, &[]),
            MemoryImage::for_body(&body)
        );
    }

    #[test]
    fn bad_addresses_error() {
        let body = body_with_arrays();
        let mut img = MemoryImage::for_body(&body);
        assert!(matches!(
            img.read(OpId(0), 5),
            Err(SimError::BadAddress { addr: 5, .. })
        ));
        assert!(img.write(OpId(0), -1, Value::Int(0)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let body = body_with_arrays();
        let mut img = MemoryImage::for_body(&body);
        img.set(ArrayId(0), 3, Value::Int(0));
    }

    #[test]
    fn live_ins_resolve_array_bases() {
        let body = body_with_arrays();
        let img = MemoryImage::for_body(&body);
        let lv = img.live_in_values(&body);
        // p = &c[1] = base(c) + 1 = 4.
        assert_eq!(lv[0], Some(Value::Int(4)));
    }
}
