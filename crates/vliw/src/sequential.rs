//! The sequential reference interpreter.

use ims_deps::DefSites;
use ims_ir::{eval, CmpKind, LoopBody, OpId, Opcode, Operand, VReg, Value};

use crate::error::SimError;
use crate::memory::MemoryImage;
use crate::ExecResult;

/// Where one operand of an operation comes from, resolved once per run.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// An immediate.
    Imm(Value),
    /// A register no operation defines: every iteration reads its live-in
    /// seed, `None` when it has none (an error once read).
    LiveIn(Option<Value>),
    /// The instance of `reg` written `distance` iterations back.
    Def {
        /// The register read.
        reg: VReg,
        /// Iterations back from the reading instance.
        distance: u32,
    },
}

/// One operation of the body, with its operands resolved.
#[derive(Debug, Clone, Copy)]
struct Step {
    id: OpId,
    opcode: Opcode,
    cmp: Option<CmpKind>,
    dest: Option<VReg>,
    pred: Option<Src>,
    /// The sources, `srcs[..num_srcs]`.
    srcs: [Src; 2],
    num_srcs: usize,
}

/// The per-operation plan of `body`: each register use resolved through
/// one [`DefSites`] index, each pure live-in resolved against `layout`.
fn plan(body: &LoopBody, layout: &MemoryImage) -> Vec<Step> {
    let sites = DefSites::new(body);
    body.iter()
        .map(|(id, op)| {
            let src = |u: ims_ir::RegUse| match sites.resolve(id, u) {
                None => Src::LiveIn(layout.live_in_lag(body, u.reg, 1 + u.prev)),
                Some((_, distance)) => Src::Def {
                    reg: u.reg,
                    distance,
                },
            };
            let mut srcs = [Src::LiveIn(None); 2];
            assert!(
                op.srcs.len() <= srcs.len(),
                "{id} has more than two sources"
            );
            for (slot, s) in srcs.iter_mut().zip(&op.srcs) {
                *slot = match s {
                    Operand::ImmInt(v) => Src::Imm(Value::Int(*v)),
                    Operand::ImmFloat(v) => Src::Imm(Value::Float(*v)),
                    Operand::Reg(u) => src(*u),
                };
            }
            Step {
                id,
                opcode: op.opcode,
                cmp: op.cmp,
                dest: op.dest,
                pred: op.pred.map(src),
                srcs,
                num_srcs: op.srcs.len(),
            }
        })
        .collect()
}

/// The register state of a sequential run: `history[iter · nv + reg]` is
/// the value iteration `iter`'s instance wrote to `reg`, `None` if that
/// instance has not run or was predicated off.
struct History {
    nv: usize,
    history: Vec<Option<Value>>,
    /// The lag-1 live-in value of each register.
    live_in: Vec<Option<Value>>,
}

impl History {
    /// The value `at`, running in iteration `iter`, reads through `src`.
    /// Inlined: it runs for every operand of every executed instance.
    #[inline(always)]
    fn read(
        &self,
        body: &LoopBody,
        layout: &MemoryImage,
        at: OpId,
        src: Src,
        iter: usize,
    ) -> Result<Value, SimError> {
        let (reg, distance) = match src {
            Src::Imm(v) => return Ok(v),
            Src::LiveIn(v) => return v.ok_or(SimError::UnwrittenRead { op: at }),
            Src::Def { reg, distance } => (reg, distance as usize),
        };
        if iter < distance {
            // A pre-loop instance: the per-lag live-in seed.
            return layout
                .live_in_lag(body, reg, (distance - iter) as u32)
                .ok_or(SimError::UnwrittenRead { op: at });
        }
        // Walk back over squashed (predicated-off) instances.
        (0..=iter - distance)
            .rev()
            .find_map(|j| self.history[j * self.nv + reg.index()])
            .or(self.live_in[reg.index()])
            .ok_or(SimError::UnwrittenRead { op: at })
    }
}

/// Runs `body` for its trip count, one iteration at a time, with no timing
/// model. This is the semantic ground truth the pipelined executions are
/// compared against.
///
/// Expanded-virtual-register semantics: every `(iteration, register)` pair
/// is a distinct storage location, so loop-carried reads reference exactly
/// the iteration the dependence analyzer resolves them to. A read of an
/// instance whose definition was predicated off falls back to the most
/// recent earlier instance (registers keep their value when a predicated
/// write is squashed), then to the live-in value.
///
/// The run resolves every operand once, then executes each instance from
/// that plan, so its cost is one pass over the body plus the work of the
/// instances it executes.
///
/// # Errors
///
/// See [`SimError`]; this mode cannot produce
/// [`SimError::ReadBeforeReady`]. A missing operand value is an error only
/// when an executed instance reads it.
pub fn run_sequential(body: &LoopBody, memory: MemoryImage) -> Result<ExecResult, SimError> {
    let n = body.trip_count() as usize;
    let nv = body.num_vregs();
    let mut memory = memory;
    let steps = plan(body, &memory);
    let mut regs = History {
        nv,
        history: vec![None; n * nv],
        live_in: memory.live_in_values(body),
    };

    for iter in 0..n {
        for step in &steps {
            let id = step.id;
            // Guarding predicate.
            if let Some(p) = step.pred {
                if !regs.read(body, &memory, id, p, iter)?.truthy() {
                    continue;
                }
            }
            let mut srcs = [Value::Int(0); 2];
            for (v, &s) in srcs.iter_mut().zip(&step.srcs[..step.num_srcs]) {
                *v = regs.read(body, &memory, id, s, iter)?;
            }
            let srcs = &srcs[..step.num_srcs];
            let written = match step.opcode {
                Opcode::Load => {
                    let addr = srcs[0]
                        .as_int()
                        .ok_or(SimError::BadAddressType { op: id })?;
                    let v = memory.read(id, addr)?;
                    Some((step.dest.expect("loads have destinations"), v))
                }
                Opcode::Store => {
                    let addr = srcs[0]
                        .as_int()
                        .ok_or(SimError::BadAddressType { op: id })?;
                    memory.write(id, addr, srcs[1])?;
                    None
                }
                Opcode::Branch => {
                    // DO-loop semantics: the trip count drives execution.
                    None
                }
                _ => {
                    let v = eval::apply(step.opcode, step.cmp, srcs)?;
                    Some((step.dest.expect("value ops have destinations"), v))
                }
            };
            if let Some((dest, v)) = written {
                regs.history[iter * nv + dest.index()] = Some(v);
            }
        }
    }

    // Final register values: most recent executed definition, else live-in.
    let final_regs = (0..nv)
        .map(|r| {
            (0..n)
                .rev()
                .find_map(|iter| regs.history[iter * nv + r])
                .or(regs.live_in[r])
        })
        .collect();

    Ok(ExecResult {
        memory,
        final_regs,
        cycles: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::{ArrayId, CmpKind, LoopBuilder, MemRef};

    #[test]
    fn accumulator_sums() {
        let mut b = LoopBuilder::new("sum", 5);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        b.rebind_add(s, s, 2.0f64);
        let body = b.finish().unwrap();
        let r = run_sequential(&body, MemoryImage::for_body(&body)).unwrap();
        assert_eq!(r.final_regs[s.index()], Some(Value::Float(10.0)));
    }

    #[test]
    fn array_scale_writes_memory() {
        let mut b = LoopBuilder::new("scale", 4);
        let a = b.array("a", 4);
        let pa = b.ptr("pa", a, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        let w = b.mul("w", v, 3.0f64);
        b.store(pa, w, Some(MemRef::new(a, 0, 1)));
        b.addr_add(pa, pa, 1);
        let body = b.finish().unwrap();
        let mut img = MemoryImage::for_body(&body);
        for i in 0..4 {
            img.set(a, i, Value::Float((i + 1) as f64));
        }
        let r = run_sequential(&body, img).unwrap();
        for i in 0..4 {
            assert_eq!(r.memory.get(a, i), Value::Float(3.0 * (i + 1) as f64));
        }
    }

    #[test]
    fn second_order_recurrence() {
        // fib-ish: x = x[-1] + x[-2], both lags seeded with 1.
        let mut b = LoopBuilder::new("fib", 5);
        let x = b.fresh("x");
        b.bind_live_in(x, Value::Int(1));
        let two_back = b.back(x, 1);
        b.rebind(x, Opcode::Add, vec![x.into(), two_back]);
        let body = b.finish().unwrap();
        let r = run_sequential(&body, MemoryImage::for_body(&body)).unwrap();
        // 1,1 -> 2, 3, 5, 8, 13.
        assert_eq!(r.final_regs[x.index()], Some(Value::Int(13)));
    }

    #[test]
    fn predicated_store_skips() {
        // Store only when the loaded value is positive.
        let mut b = LoopBuilder::new("pred", 4);
        let a = b.array("a", 4);
        let out = b.array("o", 4);
        let pa = b.ptr("pa", a, 0);
        let po = b.ptr("po", out, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        let p = b.pred_set("p", CmpKind::Gt, v, 0.0f64);
        let st = b.store(po, v, Some(MemRef::new(out, 0, 1)));
        b.guard(st, p);
        b.addr_add(pa, pa, 1);
        b.addr_add(po, po, 1);
        let body = b.finish().unwrap();
        let mut img = MemoryImage::for_body(&body);
        let vals = [1.0, -2.0, 3.0, -4.0];
        for (i, &v) in vals.iter().enumerate() {
            img.set(a, i, Value::Float(v));
        }
        let r = run_sequential(&body, img).unwrap();
        assert_eq!(r.memory.get(out, 0), Value::Float(1.0));
        assert_eq!(r.memory.get(out, 1), Value::Float(0.0)); // squashed
        assert_eq!(r.memory.get(out, 2), Value::Float(3.0));
        assert_eq!(r.memory.get(out, 3), Value::Float(0.0)); // squashed
    }

    #[test]
    fn pointer_walk_reads_right_elements() {
        let mut b = LoopBuilder::new("copy", 3);
        let a = b.array("a", 3);
        let c = b.array("c", 3);
        let pa = b.ptr("pa", a, 0);
        let pc = b.ptr("pc", c, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        b.store(pc, v, Some(MemRef::new(c, 0, 1)));
        b.addr_add(pa, pa, 1);
        b.addr_add(pc, pc, 1);
        let body = b.finish().unwrap();
        let mut img = MemoryImage::for_body(&body);
        for i in 0..3 {
            img.set(ArrayId(0), i, Value::Int(10 + i as i64));
        }
        let r = run_sequential(&body, img).unwrap();
        for i in 0..3 {
            assert_eq!(r.memory.get(ArrayId(1), i), Value::Int(10 + i as i64));
        }
    }

    #[test]
    fn unwritten_read_is_an_error() {
        let mut b = LoopBuilder::new("bad", 2);
        // A register that is defined later in the body (distance 1 use)
        // with no live-in: iteration 0 reads nothing.
        let x = b.fresh("x");
        let _y = b.copy("y", x);
        b.rebind(x, Opcode::Copy, vec![Operand::ImmInt(1)]);
        let body = b.finish().unwrap();
        let err = run_sequential(&body, MemoryImage::for_body(&body)).unwrap_err();
        assert!(matches!(err, SimError::UnwrittenRead { .. }));
    }

    #[test]
    fn out_of_bounds_load_is_an_error() {
        let mut b = LoopBuilder::new("oob", 4);
        let a = b.array("a", 2); // too small for 4 iterations
        let pa = b.ptr("pa", a, 0);
        let _v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        b.addr_add(pa, pa, 1);
        let body = b.finish().unwrap();
        let err = run_sequential(&body, MemoryImage::for_body(&body)).unwrap_err();
        assert!(matches!(err, SimError::BadAddress { .. }));
    }
}
