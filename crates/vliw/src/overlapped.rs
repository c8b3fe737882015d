//! Direct execution of a modulo schedule with overlapped iterations.

use std::collections::BTreeMap;

use ims_core::{Problem, Schedule};
use ims_deps::{node_of, DefSites};
use ims_ir::{eval, LoopBody, OpId, Opcode, Operand, Value};

use crate::error::SimError;
use crate::memory::MemoryImage;
use crate::ExecResult;

/// Executes the modulo schedule directly: iteration `i`'s instance of an
/// operation issues at cycle `i·II + time(op)`, exactly the steady state
/// the schedule promises (§1: the same schedule *"repeated at regular
/// intervals"*).
///
/// Registers follow expanded-virtual-register semantics — each
/// `(iteration, register)` pair is distinct storage, the software
/// equivalent of rotating registers — and are **latency-checked**: a read
/// before the producing operation's latency has elapsed returns
/// [`SimError::ReadBeforeReady`]. Stores become architecturally visible at
/// `issue + latency(store)`; loads sample memory at issue.
///
/// # Errors
///
/// Any [`SimError`]; `ReadBeforeReady` indicates an illegal schedule.
pub fn run_overlapped(
    body: &LoopBody,
    problem: &Problem<'_>,
    schedule: &Schedule,
    memory: MemoryImage,
) -> Result<ExecResult, SimError> {
    let n = body.trip_count() as i64;
    let nv = body.num_vregs();
    let ii = schedule.ii;
    let live_in = memory.live_in_values(body);
    let live_in_seed = memory.clone();
    let mut memory = memory;
    let sites = DefSites::new(body);

    // Every (cycle, iteration, op) instance, in issue order. Within a
    // cycle, order by (iteration, op id) for determinism (the order is
    // semantically irrelevant: NUAL reads never see same-cycle writes).
    let mut instances: Vec<(i64, i64, OpId)> = Vec::new();
    for (id, _) in body.iter() {
        let t = schedule.time_of(node_of(id));
        for i in 0..n {
            instances.push((i * ii + t, i, id));
        }
    }
    instances.sort_unstable();

    // reg_file[iter][vreg]: Empty until the defining instance executes,
    // then either Written (with its visibility cycle) or Squashed (the
    // instance ran with a false predicate and wrote nothing).
    #[derive(Clone, Copy, PartialEq)]
    enum Cell {
        Empty,
        Squashed,
        Written(i64, Value),
    }
    let mut reg_file: Vec<Vec<Cell>> = vec![vec![Cell::Empty; nv]; n as usize];
    // Pending memory commits: cycle -> [(op, addr, value)].
    let mut pending_stores: BTreeMap<i64, Vec<(OpId, i64, Value)>> = BTreeMap::new();

    let read = |reg_file: &[Vec<Cell>],
                at: OpId,
                u: ims_ir::RegUse,
                iter: i64,
                cycle: i64|
     -> Result<Value, SimError> {
        match sites.resolve(at, u) {
            None => live_in_seed
                .live_in_lag(body, u.reg, 1 + u.prev)
                .ok_or(SimError::UnwrittenRead { op: at }),
            Some((_, d)) => {
                let mut j = iter - d as i64;
                if j < 0 {
                    // A pre-loop instance: the per-lag live-in seed.
                    return live_in_seed
                        .live_in_lag(body, u.reg, (-j) as u32)
                        .ok_or(SimError::UnwrittenRead { op: at });
                }
                while j >= 0 {
                    match reg_file[j as usize][u.reg.index()] {
                        Cell::Written(avail, v) => {
                            if avail > cycle {
                                return Err(SimError::ReadBeforeReady {
                                    op: at,
                                    cycle,
                                    available: avail,
                                });
                            }
                            return Ok(v);
                        }
                        // A squashed predicated write: the register keeps
                        // its previous instance's value.
                        Cell::Squashed => j -= 1,
                        // The defining instance has not even issued yet:
                        // the schedule is broken.
                        Cell::Empty => return Err(SimError::UnwrittenRead { op: at }),
                    }
                }
                live_in_seed
                    .live_in_lag(body, u.reg, 1)
                    .ok_or(SimError::UnwrittenRead { op: at })
            }
        }
    };

    let mut last_cycle = 0i64;
    for (cycle, iter, id) in instances {
        last_cycle = last_cycle.max(cycle);
        // Commit stores due at or before this cycle.
        let due: Vec<i64> = pending_stores.range(..=cycle).map(|(c, _)| *c).collect();
        for c in due {
            for (op, addr, v) in pending_stores.remove(&c).expect("key just observed") {
                memory.write(op, addr, v)?;
            }
        }

        let op = body.op(id);
        if let Some(p) = op.pred {
            let pv = read(&reg_file, id, p, iter, cycle)?;
            if !pv.truthy() {
                if let Some(dest) = op.dest {
                    reg_file[iter as usize][dest.index()] = Cell::Squashed;
                }
                continue;
            }
        }
        let mut srcs = Vec::with_capacity(op.srcs.len());
        for s in &op.srcs {
            srcs.push(match s {
                Operand::ImmInt(v) => Value::Int(*v),
                Operand::ImmFloat(v) => Value::Float(*v),
                Operand::Reg(u) => read(&reg_file, id, *u, iter, cycle)?,
            });
        }
        let latency = problem.latency(node_of(id));
        match op.opcode {
            Opcode::Load => {
                let addr = srcs[0]
                    .as_int()
                    .ok_or(SimError::BadAddressType { op: id })?;
                let v = memory.read(id, addr)?;
                let dest = op.dest.expect("loads have destinations");
                reg_file[iter as usize][dest.index()] = Cell::Written(cycle + latency, v);
            }
            Opcode::Store => {
                let addr = srcs[0]
                    .as_int()
                    .ok_or(SimError::BadAddressType { op: id })?;
                pending_stores
                    .entry(cycle + latency)
                    .or_default()
                    .push((id, addr, srcs[1]));
            }
            Opcode::Branch => {}
            _ => {
                let v = eval::apply(op.opcode, op.cmp, &srcs)?;
                let dest = op.dest.expect("value ops have destinations");
                reg_file[iter as usize][dest.index()] = Cell::Written(cycle + latency, v);
            }
        }
    }

    // Drain remaining stores.
    for (_, stores) in std::mem::take(&mut pending_stores) {
        for (op, addr, v) in stores {
            memory.write(op, addr, v)?;
        }
    }

    let mut final_regs = vec![None; nv];
    for r in 0..nv {
        for iter in (0..n as usize).rev() {
            if let Cell::Written(_, v) = reg_file[iter][r] {
                final_regs[r] = Some(v);
                break;
            }
        }
        if final_regs[r].is_none() {
            final_regs[r] = live_in[r];
        }
    }

    Ok(ExecResult {
        memory,
        final_regs,
        cycles: (last_cycle + 1) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_results;
    use crate::sequential::run_sequential;
    use ims_core::{SchedConfig, Scheduler};
    use ims_deps::{build_problem, BuildOptions};
    use ims_ir::{ArrayId, LoopBuilder, MemRef};
    use ims_machine::{cydra, cydra_simple};

    fn check_equivalent(body: &LoopBody, machine: &ims_machine::MachineModel, img: MemoryImage) {
        let p = build_problem(body, machine, &BuildOptions::default());
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
            .unwrap();
        let seq = run_sequential(body, img.clone()).unwrap();
        let pipe = run_overlapped(body, &p, &out.schedule, img).unwrap();
        if let Some(m) = compare_results(&seq, &pipe) {
            panic!("sequential and overlapped execution diverge: {m:?}");
        }
    }

    #[test]
    fn dot_product_matches_sequential() {
        let n = 20;
        let mut b = LoopBuilder::new("dot", n);
        let a = b.array("a", n as usize);
        let bb = b.array("b", n as usize);
        let pa = b.ptr("pa", a, 0);
        let pb = b.ptr("pb", bb, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let va = b.load("va", pa, Some(MemRef::new(a, 0, 1)));
        let vb = b.load("vb", pb, Some(MemRef::new(bb, 0, 1)));
        let prod = b.mul("prod", va, vb);
        b.rebind_add(s, s, prod);
        b.addr_add(pa, pa, 1);
        b.addr_add(pb, pb, 1);
        let body = b.finish().unwrap();
        let mut img = MemoryImage::for_body(&body);
        for i in 0..n as usize {
            img.set(ArrayId(0), i, Value::Float(i as f64));
            img.set(ArrayId(1), i, Value::Float(2.0));
        }
        check_equivalent(&body, &cydra_simple(), img);
    }

    #[test]
    fn dot_product_on_complex_tables_too() {
        let n = 12;
        let mut b = LoopBuilder::new("dotc", n);
        let a = b.array("a", n as usize);
        let pa = b.ptr("pa", a, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let va = b.load("va", pa, Some(MemRef::new(a, 0, 1)));
        b.rebind_add(s, s, va);
        b.addr_add(pa, pa, 1);
        let body = b.finish().unwrap();
        let mut img = MemoryImage::for_body(&body);
        for i in 0..n as usize {
            img.set(ArrayId(0), i, Value::Float((i * i) as f64));
        }
        check_equivalent(&body, &cydra(), img);
    }

    #[test]
    fn stencil_with_memory_recurrence() {
        // a[i] = a[i-2] + 1: a genuine cross-iteration memory dependence.
        let n = 10;
        let mut b = LoopBuilder::new("stencil", n);
        let a = b.array("a", n as usize + 2);
        let pl = b.ptr("pl", a, 0);
        let ps = b.ptr("ps", a, 2);
        let v = b.load("v", pl, Some(MemRef::new(a, 0, 1)));
        let w = b.add("w", v, 1.0f64);
        b.store(ps, w, Some(MemRef::new(a, 2, 1)));
        b.addr_add(pl, pl, 1);
        b.addr_add(ps, ps, 1);
        let body = b.finish().unwrap();
        let mut img = MemoryImage::for_body(&body);
        img.set(ArrayId(0), 0, Value::Float(10.0));
        img.set(ArrayId(0), 1, Value::Float(20.0));
        check_equivalent(&body, &cydra_simple(), img);
    }

    #[test]
    fn timing_violation_detected() {
        // Hand-build an illegal schedule: consumer placed right after a
        // 20-cycle load. The overlapped executor must reject it.
        let n = 4;
        let mut b = LoopBuilder::new("bad", n);
        let a = b.array("a", n as usize);
        let pa = b.ptr("pa", a, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        let _w = b.add("w", v, 1.0f64);
        b.addr_add(pa, pa, 1);
        let body = b.finish().unwrap();
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let mut bad = out.schedule.clone();
        // Move the add to one cycle after the load.
        let load_t = bad.time_of(ims_deps::node_of(OpId(0)));
        bad.time[ims_deps::node_of(OpId(1)).index()] = load_t + 1;
        let err = run_overlapped(&body, &p, &bad, MemoryImage::for_body(&body)).unwrap_err();
        assert!(matches!(err, SimError::ReadBeforeReady { .. }), "{err}");
    }

    #[test]
    fn overlapped_cycles_reflect_pipelining() {
        // Total cycles ≈ (n-1)*II + SL, far less than n*SL for a
        // long-latency loop.
        let n = 32;
        let mut b = LoopBuilder::new("deep", n);
        let a = b.array("a", n as usize);
        let pa = b.ptr("pa", a, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        let w = b.mul("w", v, 2.0f64);
        b.store(pa, w, Some(MemRef::new(a, 0, 1)));
        b.addr_add(pa, pa, 1);
        let body = b.finish().unwrap();
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let pipe = run_overlapped(&body, &p, &out.schedule, MemoryImage::for_body(&body)).unwrap();
        let serial_estimate = n as u64 * out.schedule.length as u64;
        assert!(
            pipe.cycles < serial_estimate / 2,
            "pipelining gained little: {} vs {serial_estimate}",
            pipe.cycles
        );
    }
}
