//! Execution of generated pipelined code (MVE and rotating forms).

use std::collections::BTreeMap;

use ims_codegen::{CodeOperand, CodeReg, Inst, MveCode, RotatingCode, SlotOp};
use ims_ir::{eval, LoopBody, Opcode, Value};

use crate::error::SimError;
use crate::memory::MemoryImage;
use crate::ExecResult;

/// A register cell with NUAL visibility: a write commits (becomes
/// architecturally visible) at its `avail` cycle. Several writes to the
/// same physical register can be in flight at once (latencies up to 26
/// cycles versus IIs of a few), so the cell keeps the commit-ordered
/// history of uncommitted writes plus the last committed value; a read
/// returns the most recently committed write, and errors if the register
/// has only uncommitted contents (hardware would return garbage).
#[derive(Debug, Clone, Default)]
struct Cell {
    /// `(avail, value)` sorted by `avail`; pruned to the last committed
    /// entry plus everything still in flight.
    writes: Vec<(i64, Value)>,
}

impl Cell {
    fn read(&self, op: ims_ir::OpId, cycle: i64) -> Result<Value, SimError> {
        if self.writes.is_empty() {
            return Err(SimError::UnwrittenRead { op });
        }
        match self.writes.iter().rev().find(|&&(a, _)| a <= cycle) {
            Some(&(_, v)) => Ok(v),
            None => Err(SimError::ReadBeforeReady {
                op,
                cycle,
                available: self.writes[0].0,
            }),
        }
    }

    fn write(&mut self, avail: i64, value: Value, now: i64) {
        let pos = self.writes.partition_point(|&(a, _)| a <= avail);
        self.writes.insert(pos, (avail, value));
        // Prune: keep the latest committed entry and all in-flight ones.
        let committed = self.writes.partition_point(|&(a, _)| a <= now);
        if committed > 1 {
            self.writes.drain(..committed - 1);
        }
    }
}

#[derive(Debug)]
struct CodeState {
    statics: Vec<Cell>,
    rotating: Vec<Cell>,
    memory: MemoryImage,
    pending_stores: BTreeMap<i64, Vec<(ims_ir::OpId, i64, Value)>>,
}

impl CodeState {
    fn resolve(&self, reg: CodeReg, pass: i64) -> (bool, usize) {
        match reg {
            CodeReg::Static(i) => (false, i),
            CodeReg::Rotating(off) => {
                let s = self.rotating.len().max(1) as i64;
                (true, (off as i64 + pass).rem_euclid(s) as usize)
            }
        }
    }

    fn read(
        &self,
        op: ims_ir::OpId,
        reg: CodeReg,
        pass: i64,
        cycle: i64,
    ) -> Result<Value, SimError> {
        let (rot, idx) = self.resolve(reg, pass);
        let cell = if rot {
            &self.rotating[idx]
        } else {
            &self.statics[idx]
        };
        cell.read(op, cycle)
    }

    fn write(&mut self, reg: CodeReg, pass: i64, avail: i64, cycle: i64, value: Value) {
        let (rot, idx) = self.resolve(reg, pass);
        let slot = if rot {
            &mut self.rotating[idx]
        } else {
            &mut self.statics[idx]
        };
        slot.write(avail, value, cycle);
    }

    fn commit_stores(&mut self, cycle: i64) -> Result<(), SimError> {
        let due: Vec<i64> = self
            .pending_stores
            .range(..=cycle)
            .map(|(c, _)| *c)
            .collect();
        for c in due {
            for (op, addr, v) in self.pending_stores.remove(&c).expect("key observed") {
                self.memory.write(op, addr, v)?;
            }
        }
        Ok(())
    }

    fn exec(
        &mut self,
        body: &LoopBody,
        machine: &ims_machine::MachineModel,
        slot: &SlotOp,
        pass: i64,
        cycle: i64,
    ) -> Result<(), SimError> {
        let op = body.op(slot.op);
        if let Some(p) = slot.pred {
            if !self.read(slot.op, p, pass, cycle)?.truthy() {
                return Ok(());
            }
        }
        let mut srcs = Vec::with_capacity(slot.srcs.len());
        for s in &slot.srcs {
            srcs.push(match s {
                CodeOperand::ImmInt(v) => Value::Int(*v),
                CodeOperand::ImmFloat(v) => Value::Float(*v),
                CodeOperand::Reg(r) => self.read(slot.op, *r, pass, cycle)?,
            });
        }
        let latency = machine.latency(op.opcode) as i64;
        match op.opcode {
            Opcode::Load => {
                let addr = srcs[0]
                    .as_int()
                    .ok_or(SimError::BadAddressType { op: slot.op })?;
                let v = self.memory.read(slot.op, addr)?;
                let dest = slot.dest.expect("loads have destinations");
                self.write(dest, pass, cycle + latency, cycle, v);
            }
            Opcode::Store => {
                let addr = srcs[0]
                    .as_int()
                    .ok_or(SimError::BadAddressType { op: slot.op })?;
                self.pending_stores
                    .entry(cycle + latency)
                    .or_default()
                    .push((slot.op, addr, srcs[1]));
            }
            Opcode::Branch => {}
            _ => {
                let v = eval::apply(op.opcode, op.cmp, &srcs)?;
                let dest = slot.dest.expect("value ops have destinations");
                self.write(dest, pass, cycle + latency, cycle, v);
            }
        }
        Ok(())
    }

    fn finish(mut self, cycles: u64) -> Result<ExecResult, SimError> {
        for (_, stores) in std::mem::take(&mut self.pending_stores) {
            for (op, addr, v) in stores {
                self.memory.write(op, addr, v)?;
            }
        }
        Ok(ExecResult {
            memory: self.memory,
            final_regs: Vec::new(),
            cycles,
        })
    }
}

fn seeded_state(
    memory: MemoryImage,
    num_static: usize,
    num_rotating: usize,
    seeds: &[ims_codegen::code::Seed],
) -> CodeState {
    let mut st = CodeState {
        statics: vec![Cell::default(); num_static],
        rotating: vec![Cell::default(); num_rotating],
        memory,
        pending_stores: BTreeMap::new(),
    };
    for seed in seeds {
        let v = st.memory.resolve(seed.value);
        match seed.reg {
            CodeReg::Static(i) => st.statics[i].write(i64::MIN / 2, v, 0),
            // Rotating seeds are physical indices valid at pass 0.
            CodeReg::Rotating(i) => st.rotating[i].write(i64::MIN / 2, v, 0),
        }
    }
    st
}

/// Executes modulo-variable-expanded code: prologue, `kernel_reps`
/// repetitions of the unrolled kernel, then the coda. Returns the final
/// memory image (register state is renamed and not comparable directly).
///
/// # Errors
///
/// Any [`SimError`]; a `ReadBeforeReady` means the code generator emitted
/// an instruction stream that violates the machine's latency contract.
pub fn run_mve(
    code: &MveCode,
    body: &LoopBody,
    machine: &ims_machine::MachineModel,
    memory: MemoryImage,
) -> Result<ExecResult, SimError> {
    let mut st = seeded_state(memory, code.num_static_regs, 0, &code.seeds);
    let mut cycle = 0i64;
    let run_section =
        |st: &mut CodeState, insts: &[Inst], cycle: &mut i64| -> Result<(), SimError> {
            for inst in insts {
                st.commit_stores(*cycle)?;
                for slot in &inst.ops {
                    st.exec(body, machine, slot, 0, *cycle)?;
                }
                *cycle += 1;
            }
            Ok(())
        };
    run_section(&mut st, &code.prologue, &mut cycle)?;
    for _ in 0..code.kernel_reps {
        run_section(&mut st, &code.kernel, &mut cycle)?;
    }
    run_section(&mut st, &code.coda, &mut cycle)?;
    st.finish(cycle as u64)
}

/// Executes kernel-only rotating-register code: `passes` passes over the
/// `II`-instruction kernel, the rotating base advancing each pass, each
/// instance staged by `iteration = pass − stage` (instances outside
/// `[0, trip_count)` are squashed, exactly what the staging predicates of
/// the kernel-only schema do).
///
/// # Errors
///
/// Any [`SimError`].
pub fn run_rotating(
    code: &RotatingCode,
    body: &LoopBody,
    machine: &ims_machine::MachineModel,
    memory: MemoryImage,
) -> Result<ExecResult, SimError> {
    let n = body.trip_count() as i64;
    let mut st = seeded_state(
        memory,
        code.num_static_regs,
        code.rotating_size,
        &code.seeds,
    );
    let mut cycle = 0i64;
    for pass in 0..code.passes as i64 {
        for inst in &code.kernel {
            st.commit_stores(cycle)?;
            for slot in &inst.ops {
                let iter = pass - slot.stage as i64;
                if iter < 0 || iter >= n {
                    continue; // Staging predicate squashes this instance.
                }
                st.exec(body, machine, slot, pass, cycle)?;
            }
            cycle += 1;
        }
    }
    st.finish(cycle as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_memory;
    use crate::sequential::run_sequential;
    use ims_codegen::{generate_mve, generate_rotating, lifetimes};
    use ims_core::Scheduler;
    use ims_deps::{build_problem, BuildOptions};
    use ims_ir::{ArrayId, LoopBuilder, MemRef};
    use ims_machine::cydra_simple;

    fn saxpy(n: u32) -> LoopBody {
        let mut b = LoopBuilder::new("saxpy", n);
        let x = b.array("x", n as usize);
        let y = b.array("y", n as usize);
        let px = b.ptr("px", x, 0);
        let py = b.ptr("py", y, 0);
        let vx = b.load("vx", px, Some(MemRef::new(x, 0, 1)));
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let ax = b.mul("ax", vx, 2.5f64);
        let s = b.add("s", ax, vy);
        b.store(py, s, Some(MemRef::new(y, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(py, py, 1);
        b.finish().unwrap()
    }

    fn seeded_image(body: &LoopBody, n: usize) -> MemoryImage {
        let mut img = MemoryImage::for_body(body);
        for i in 0..n {
            img.set(ArrayId(0), i, Value::Float(1.0 + i as f64));
            img.set(ArrayId(1), i, Value::Float(100.0 - i as f64));
        }
        img
    }

    #[test]
    fn mve_code_matches_sequential() {
        let n = 40;
        let body = saxpy(n);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        let img = seeded_image(&body, n as usize);
        let seq = run_sequential(&body, img.clone()).unwrap();
        let mve = run_mve(&code, &body, &m, img).unwrap();
        assert_eq!(compare_memory(&seq.memory, &mve.memory), None);
        assert!(code.kernel_reps > 0, "steady state should be reached");
    }

    #[test]
    fn rotating_code_matches_sequential() {
        let n = 40;
        let body = saxpy(n);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_rotating(&body, &p, &out.schedule, &lt).unwrap();
        let img = seeded_image(&body, n as usize);
        let seq = run_sequential(&body, img.clone()).unwrap();
        let rot = run_rotating(&code, &body, &m, img).unwrap();
        assert_eq!(compare_memory(&seq.memory, &rot.memory), None);
    }

    #[test]
    fn mve_short_trip_count_flat_path() {
        let n = 2;
        let body = saxpy(n);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        assert_eq!(code.kernel_reps, 0);
        let img = seeded_image(&body, n as usize);
        let seq = run_sequential(&body, img.clone()).unwrap();
        let mve = run_mve(&code, &body, &m, img).unwrap();
        assert_eq!(compare_memory(&seq.memory, &mve.memory), None);
    }

    #[test]
    fn rotating_accumulator_loop() {
        // Reduction with a loop-carried accumulator, stored at the end of
        // each iteration so memory captures it.
        let n = 24;
        let mut b = LoopBuilder::new("acc", n);
        let a = b.array("a", n as usize);
        let out = b.array("out", n as usize);
        let pa = b.ptr("pa", a, 0);
        let po = b.ptr("po", out, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        b.rebind_add(s, s, v);
        b.store(po, s, Some(MemRef::new(out, 0, 1)));
        b.addr_add(pa, pa, 1);
        b.addr_add(po, po, 1);
        let body = b.finish().unwrap();
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out_s = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out_s.schedule);
        let img = seeded_image(&body, n as usize);
        let seq = run_sequential(&body, img.clone()).unwrap();

        let rot = generate_rotating(&body, &p, &out_s.schedule, &lt).unwrap();
        let rr = run_rotating(&rot, &body, &m, img.clone()).unwrap();
        assert_eq!(compare_memory(&seq.memory, &rr.memory), None);

        let mve = generate_mve(&body, &p, &out_s.schedule, &lt);
        let mr = run_mve(&mve, &body, &m, img).unwrap();
        assert_eq!(compare_memory(&seq.memory, &mr.memory), None);
    }

    #[test]
    fn mve_cycle_count_is_pipelined() {
        let n = 64;
        let body = saxpy(n);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        let total = code.total_cycles();
        // Roughly (n + SC - 1) * II.
        let expected = (n as u64 + code.stage_count as u64) * code.ii as u64;
        assert!(total <= expected + code.ii as u64, "{total} vs {expected}");
    }
}
