//! Modulo variable expansion with kernel unrolling (Lam), plus the flat
//! prologue and coda for DO-loops.

use ims_core::{Problem, Schedule};
use ims_deps::{node_of, DefSites};
#[cfg(test)]
use ims_ir::LiveInValue;
use ims_ir::{LoopBody, OpId, Operand, VReg};

use crate::code::{CodeOperand, CodeReg, Inst, MveCode, Seed, SlotOp};
use crate::lifetime::Lifetime;

/// The MVE register map: every defined register gets `k` names (cycled by
/// iteration index), every pure live-in gets one.
struct MveRegs {
    /// First name of each defined register's group.
    base: Vec<Option<usize>>,
    /// The single name of each pure live-in register.
    static_of: Vec<Option<usize>>,
    /// Names per defined register (the uniform unroll factor `K`).
    k: u32,
    /// Total names allocated.
    total: usize,
}

impl MveRegs {
    fn build(body: &LoopBody, k: u32) -> Self {
        let nv = body.num_vregs();
        let mut base = vec![None; nv];
        let mut static_of = vec![None; nv];
        let mut next = 0usize;
        for (_, op) in body.iter() {
            if let Some(d) = op.dest {
                if base[d.index()].is_none() {
                    base[d.index()] = Some(next);
                    next += k as usize;
                }
            }
        }
        for li in body.live_ins() {
            if base[li.reg.index()].is_none() && static_of[li.reg.index()].is_none() {
                static_of[li.reg.index()] = Some(next);
                next += 1;
            }
        }
        MveRegs {
            base,
            static_of,
            k,
            total: next,
        }
    }

    /// The name holding `reg`'s value from iteration `iter` (negative
    /// iterations wrap onto the seeded names).
    fn name(&self, reg: VReg, iter: i64) -> CodeReg {
        if let Some(b) = self.base[reg.index()] {
            CodeReg::Static(b + iter.rem_euclid(self.k as i64) as usize)
        } else {
            CodeReg::Static(
                self.static_of[reg.index()]
                    .expect("validated bodies only use defined or live-in registers"),
            )
        }
    }
}

/// Generates modulo-variable-expanded code for the body's trip count.
///
/// The kernel is the steady-state window `[(SC−1)·II, (SC−1+K)·II)` of the
/// flat schedule, which repeats exactly every `K·II` cycles because all
/// register names cycle with period `K`. Trip counts too short for a full
/// kernel repetition (`n < SC + K − 1`) are emitted entirely flat
/// (prologue only), which is what a compiler's short-trip-count fallback
/// does.
///
/// Each register use is resolved once, and each instance is placed
/// straight into its instruction: an operation issued at `t` lands in
/// cycle `t + i·II` for every iteration `i` whose instance falls inside a
/// section. Operations are placed in body order, so each instruction
/// lists its instances in body order.
///
/// # Panics
///
/// Panics if `lifetimes` was computed for a different schedule (detected
/// via inconsistent unroll factors).
pub fn generate_mve(
    body: &LoopBody,
    problem: &Problem<'_>,
    schedule: &Schedule,
    lifetimes: &[Lifetime],
) -> MveCode {
    let _ = problem; // latencies are already folded into `lifetimes`
    let ii = schedule.ii;
    let n = body.trip_count() as i64;
    let times: Vec<i64> = body
        .iter()
        .map(|(id, _)| schedule.time_of(node_of(id)))
        .collect();
    let max_t = times.iter().copied().max().unwrap_or(0);
    let stage_count = (max_t / ii + 1) as u32;
    // The iteration lag of every register use, in `reg_uses` order
    // (sources, then the predicate); pure live-ins read lag 0.
    let sites = DefSites::new(body);
    let lags: Vec<Vec<u32>> = body
        .iter()
        .map(|(id, op)| {
            op.reg_uses()
                .map(|u| sites.resolve(id, u).map_or(0, |(_, d)| d))
                .collect()
        })
        .collect();
    // The unroll factor covers both value lifetimes and the deepest
    // loop-carried lag (pre-loop seeds of lag j live in name (-j mod K) and
    // must survive until their last read, about `maxlag` iterations in).
    let max_lag = lags.iter().flatten().copied().max().unwrap_or(0);
    let k = lifetimes
        .iter()
        .map(|l| l.names)
        .max()
        .unwrap_or(1)
        .max(max_lag + 1)
        .max(1);
    let regs = MveRegs::build(body, k);

    let flat_end = if body.num_ops() == 0 {
        0
    } else {
        (n - 1) * ii + max_t + 1
    };
    let prologue_end = (stage_count as i64 - 1) * ii;

    // The instructions of cycles `[start, end)`.
    let section = |start: i64, end: i64| -> Vec<Inst> {
        let mut insts = vec![Inst::default(); (end - start).max(0) as usize];
        for (id, op) in body.iter() {
            let t = times[id.index()];
            // Iterations whose instance issues in `[start, end)`.
            let first = ceil_div(start - t, ii).max(0);
            let last = ceil_div(end - t, ii).min(n);
            for i in first..last {
                let slot = rename(&regs, id, op, &lags[id.index()], i, t, ii);
                insts[(t + i * ii - start) as usize].ops.push(slot);
            }
        }
        insts
    };

    let (prologue, kernel, kernel_reps, coda);
    if body.num_ops() > 0 && n >= stage_count as i64 + k as i64 - 1 {
        prologue = section(0, prologue_end);
        kernel = section(prologue_end, prologue_end + k as i64 * ii);
        let steady_iters = n - stage_count as i64 + 1;
        let reps = (steady_iters / k as i64) as u64;
        kernel_reps = reps;
        let coda_start = prologue_end + reps as i64 * k as i64 * ii;
        coda = section(coda_start, flat_end);
    } else {
        prologue = section(0, flat_end);
        kernel = Vec::new();
        kernel_reps = 0;
        coda = Vec::new();
    }

    // Seeds. Defined live-ins preload all K names: the name holding the
    // pre-loop instance of lag j is name(reg, -j), seeded with the
    // register's lag-j live-in value (explicit per-lag bindings come from
    // recurrence back-substitution; other lags fall back to the lag-1
    // value). Pure live-ins preload their single name.
    let mut seeds = Vec::new();
    let mut seeded: Vec<bool> = vec![false; body.num_vregs()];
    for li in body.live_ins() {
        if seeded[li.reg.index()] {
            continue;
        }
        seeded[li.reg.index()] = true;
        if regs.base[li.reg.index()].is_some() {
            for j in 1..=k {
                if let Some(value) = body.live_in_value(li.reg, j) {
                    if let CodeReg::Static(name) = regs.name(li.reg, -(j as i64)) {
                        seeds.push(Seed {
                            reg: CodeReg::Static(name),
                            value,
                        });
                    }
                }
            }
        } else if let Some(s) = regs.static_of[li.reg.index()] {
            seeds.push(Seed {
                reg: CodeReg::Static(s),
                value: body.live_in_value(li.reg, 1).unwrap_or(li.value),
            });
        }
    }

    MveCode {
        ii,
        stage_count,
        unroll: k,
        prologue,
        kernel,
        kernel_reps,
        coda,
        num_static_regs: regs.total,
        seeds,
    }
}

/// `⌈a / b⌉` for `b > 0`.
fn ceil_div(a: i64, b: i64) -> i64 {
    -(-a).div_euclid(b)
}

/// The instance of `op` from iteration `iter`, issued at `issue`, with its
/// registers renamed; `lags` holds the iteration lag of each register use.
fn rename(
    regs: &MveRegs,
    id: OpId,
    op: &ims_ir::Operation,
    lags: &[u32],
    iter: i64,
    issue: i64,
    ii: i64,
) -> SlotOp {
    // The iteration each register use reads from.
    let mut read_iter = lags.iter().map(|&d| iter - d as i64);
    let mut srcs = Vec::with_capacity(op.srcs.len());
    for s in &op.srcs {
        srcs.push(match s {
            Operand::ImmInt(v) => CodeOperand::ImmInt(*v),
            Operand::ImmFloat(v) => CodeOperand::ImmFloat(*v),
            Operand::Reg(u) => {
                CodeOperand::Reg(regs.name(u.reg, read_iter.next().expect("one lag per use")))
            }
        });
    }
    let pred = op
        .pred
        .map(|u| regs.name(u.reg, read_iter.next().expect("one lag per use")));
    SlotOp {
        op: id,
        stage: (issue / ii) as u32,
        dest: op.dest.map(|d| regs.name(d, iter)),
        srcs,
        pred,
    }
}

/// Resolves a seed's live-in value kind for display/tests.
#[cfg(test)]
pub(crate) fn seed_is_array_base(s: &Seed) -> bool {
    matches!(s.value, LiveInValue::ArrayBase { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::lifetimes;
    use ims_core::Scheduler;
    use ims_deps::{build_problem, BuildOptions};
    use ims_ir::{LoopBuilder, MemRef, Value};
    use ims_machine::{cydra_simple, minimal};

    fn saxpy_ish(n: u32) -> ims_ir::LoopBody {
        let mut b = LoopBuilder::new("scale", n);
        let a = b.array("a", n as usize);
        let pa = b.ptr("pa", a, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        let w = b.mul("w", v, 3.0f64);
        b.store(pa, w, Some(MemRef::new(a, 0, 1)));
        b.addr_add(pa, pa, 1);
        b.finish().unwrap()
    }

    #[test]
    fn structure_accounts_for_every_instance() {
        let body = saxpy_ish(32);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);

        // Count op instances across all sections: must equal n * num_ops.
        let count = |insts: &[Inst]| -> u64 { insts.iter().map(|i| i.ops.len() as u64).sum() };
        let total =
            count(&code.prologue) + code.kernel_reps * count(&code.kernel) + count(&code.coda);
        assert_eq!(total, 32 * body.num_ops() as u64);
    }

    #[test]
    fn kernel_has_k_times_ii_instructions() {
        let body = saxpy_ish(32);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        assert_eq!(code.kernel.len() as i64, code.unroll as i64 * code.ii);
        // The load's 20-cycle latency at a small II forces unrolling.
        assert!(code.unroll > 1, "unroll = {}", code.unroll);
    }

    #[test]
    fn each_kernel_copy_contains_every_op() {
        let body = saxpy_ish(64);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        let per_kernel: u64 = code.kernel.iter().map(|i| i.ops.len() as u64).sum();
        assert_eq!(per_kernel, code.unroll as u64 * body.num_ops() as u64);
    }

    #[test]
    fn short_trip_count_is_fully_flat() {
        let body = saxpy_ish(2);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        assert_eq!(code.kernel_reps, 0);
        assert!(code.kernel.is_empty());
        let total: u64 = code.prologue.iter().map(|i| i.ops.len() as u64).sum();
        assert_eq!(total, 2 * body.num_ops() as u64);
    }

    #[test]
    fn renamed_registers_cycle_with_period_k() {
        let body = saxpy_ish(64);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        // The same op in consecutive kernel copies uses different dest
        // names (when K > 1).
        if code.unroll > 1 {
            let ii = code.ii as usize;
            let first_copy: Vec<_> = code.kernel[..ii]
                .iter()
                .flat_map(|i| i.ops.iter())
                .filter(|o| o.dest.is_some())
                .collect();
            let second_copy: Vec<_> = code.kernel[ii..2 * ii]
                .iter()
                .flat_map(|i| i.ops.iter())
                .filter(|o| o.dest.is_some())
                .collect();
            let mut differs = false;
            for a in &first_copy {
                for b in &second_copy {
                    if a.op == b.op && a.dest != b.dest {
                        differs = true;
                    }
                }
            }
            assert!(differs, "expected register renaming across copies");
        }
    }

    #[test]
    fn seeds_cover_live_ins() {
        let body = saxpy_ish(32);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        // The pointer register is a defined live-in: K seeded names, all
        // array bases.
        assert!(code.seeds.len() >= code.unroll as usize);
        assert!(code.seeds.iter().any(seed_is_array_base));
    }

    #[test]
    fn empty_body_produces_empty_code() {
        let mut b = LoopBuilder::new("empty", 4);
        let _x = b.live_in("x", Value::Int(0));
        let body = b.finish().unwrap();
        let m = minimal();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_mve(&body, &p, &out.schedule, &lt);
        assert_eq!(code.total_cycles(), 0);
    }
}
