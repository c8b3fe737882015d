//! Rotating register allocation and kernel-only code generation.
//!
//! With rotating register files (the Cydra 5 mechanism) the kernel needs no
//! unrolling: the hardware renames registers by adding a rotating register
//! base that advances once per II, so the *same* kernel instruction
//! addresses a fresh register every pass. Combined with staged execution
//! (an instance of stage `s` on pass `p` belongs to iteration `p − s`, and
//! only executes when that iteration is in `[0, n)` — the staging-predicate
//! schema of Rau/Schlansker/Tirumalai), prologue and epilogue code
//! disappear entirely: the kernel simply runs `n + SC − 1` passes.
//!
//! Allocation uses a phase-ordered placement: defined registers are laid
//! out so that, on any physical register, consecutive writers are separated
//! by enough iterations for the earlier writer's value to survive until its
//! last read, accounting for the writers' actual birth cycles within the
//! schedule. This yields a provably clobber-free allocation (see the
//! brute-force verification in the tests).

use std::collections::HashMap;

use ims_core::{Problem, Schedule};
use ims_deps::{node_of, resolve_use};
use ims_ir::{LoopBody, Operand, VReg};

use crate::code::{CodeOperand, CodeReg, Inst, RotatingCode, Seed, SlotOp};
use crate::lifetime::Lifetime;

/// A rotating-file allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotatingAllocation {
    /// Size of the rotating file: the sum of the inter-writer gaps.
    pub size: usize,
    /// Rotating base of each defined register (`None` for pure live-ins).
    pub base: Vec<Option<usize>>,
    /// Static register of each pure live-in.
    pub static_of: Vec<Option<usize>>,
    /// Number of static registers.
    pub num_static: usize,
}

impl RotatingAllocation {
    /// The physical rotating register holding `reg`'s value from iteration
    /// `iter` (may be negative for pre-loop seeds).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a defined register.
    pub fn physical(&self, reg: VReg, iter: i64) -> usize {
        let b = self.base[reg.index()].expect("physical() requires a defined register");
        (b as i64 + iter).rem_euclid(self.size as i64) as usize
    }
}

/// Failures of rotating code generation.
#[derive(Debug, Clone, PartialEq)]
pub enum RotatingError {
    /// Two different initial values would need to be seeded into the same
    /// physical rotating register (possible when several multi-iteration
    /// lags fold onto one register). Fall back to modulo variable
    /// expansion.
    SeedConflict {
        /// The contended physical register.
        phys: usize,
    },
}

impl std::fmt::Display for RotatingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RotatingError::SeedConflict { phys } => {
                write!(f, "conflicting seeds for rotating register {phys}")
            }
        }
    }
}

impl std::error::Error for RotatingError {}

/// Allocates rotating bases with a phase-ordered rule. With registers
/// `v₁ … vₘ` (in definition order), on any physical register the writers
/// occur in that cyclic order, `gapⱼ` iterations apart. Because values are
/// born at different cycles *within* an iteration, the gap between
/// consecutive writers must account for actual birth times:
///
/// ```text
/// gapⱼ = max(1, ⌊(death(vⱼ) − birth(vⱼ₊₁)) / II⌋ + 1)
/// ```
///
/// so that `vⱼ₊₁`'s write, `gapⱼ` iterations later, commits strictly after
/// `vⱼ`'s last read. Non-adjacent pairs are then safe by induction (the
/// sub-additivity of `⌊·⌋` — see the brute-force check in the tests). The
/// file size is `Σ gapⱼ`, and `base(vⱼ) = (S − Σ_{u<j} gapᵤ) mod S`.
pub fn allocate_rotating(body: &LoopBody, lifetimes: &[Lifetime], ii: i64) -> RotatingAllocation {
    assert!(ii >= 1, "II must be positive");
    let nv = body.num_vregs();
    let life: HashMap<VReg, &Lifetime> = lifetimes.iter().map(|l| (l.reg, l)).collect();
    let mut base = vec![None; nv];
    let mut static_of = vec![None; nv];

    let defined: Vec<VReg> = body.iter().filter_map(|(_, op)| op.dest).collect();
    let gaps: Vec<usize> = defined
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let next = defined[(j + 1) % defined.len()];
            let base = match (life.get(v), life.get(&next)) {
                (Some(lv), Some(ln)) => ((lv.death - ln.birth).div_euclid(ii) + 1).max(1) as usize,
                _ => 1,
            };
            // Seeded registers need their pre-loop instances (physical
            // base − 1 … base − maxlag) to survive until read in the first
            // iterations; widen the gap to cover the deepest lag.
            let lag_floor = if body.is_live_in(*v) {
                max_lag_of(body, *v) as usize + 1
            } else {
                0
            };
            base.max(lag_floor)
        })
        .collect();
    let size: usize = gaps.iter().sum::<usize>().max(1);
    let mut prefix = 0usize;
    for (j, v) in defined.iter().enumerate() {
        base[v.index()] = Some((size - prefix % size) % size);
        prefix += gaps[j];
    }

    let mut num_static = 0usize;
    for li in body.live_ins() {
        if base[li.reg.index()].is_none() && static_of[li.reg.index()].is_none() {
            static_of[li.reg.index()] = Some(num_static);
            num_static += 1;
        }
    }

    RotatingAllocation {
        size,
        base,
        static_of,
        num_static,
    }
}

/// Generates kernel-only rotating code for the body's trip count.
///
/// # Errors
///
/// Returns [`RotatingError::SeedConflict`] when pre-loop seeding of
/// loop-carried initial values is ambiguous; callers should fall back to
/// [`crate::generate_mve`].
pub fn generate_rotating(
    body: &LoopBody,
    problem: &Problem<'_>,
    schedule: &Schedule,
    lifetimes: &[Lifetime],
) -> Result<RotatingCode, RotatingError> {
    let _ = problem; // reserved for future latency-aware seeding
    let ii = schedule.ii;
    let alloc = allocate_rotating(body, lifetimes, schedule.ii);
    let n = body.trip_count() as i64;
    let max_t = body
        .iter()
        .map(|(id, _)| schedule.time_of(node_of(id)))
        .max()
        .unwrap_or(0);
    let stage_count = (max_t / ii + 1) as u32;

    // Encode each operation once. An instance on pass p belongs to
    // iteration i = p − stage; the rotating base advances by one per pass,
    // so the offset that yields physical (base(v) + i) mod S is
    // (base(v) − stage − lag) mod S.
    let offset = |reg: VReg, stage: i64, lag: i64| -> CodeReg {
        match alloc.base[reg.index()] {
            Some(b) => {
                CodeReg::Rotating((b as i64 - stage - lag).rem_euclid(alloc.size as i64) as usize)
            }
            None => CodeReg::Static(
                alloc.static_of[reg.index()]
                    .expect("validated bodies only use defined or live-in registers"),
            ),
        }
    };

    let mut kernel: Vec<Inst> = (0..ii).map(|_| Inst::default()).collect();
    for (id, op) in body.iter() {
        let t = schedule.time_of(node_of(id));
        let stage = t / ii;
        let slot = (t % ii) as usize;
        let mut srcs = Vec::with_capacity(op.srcs.len());
        for s in &op.srcs {
            srcs.push(match s {
                Operand::ImmInt(v) => CodeOperand::ImmInt(*v),
                Operand::ImmFloat(v) => CodeOperand::ImmFloat(*v),
                Operand::Reg(u) => {
                    let d = resolve_use(body, id, *u).map(|(_, d)| d).unwrap_or(0);
                    CodeOperand::Reg(offset(u.reg, stage, d as i64))
                }
            });
        }
        let pred = op.pred.map(|u| {
            let d = resolve_use(body, id, u).map(|(_, d)| d).unwrap_or(0);
            offset(u.reg, stage, d as i64)
        });
        kernel[slot].ops.push(SlotOp {
            op: id,
            stage: stage as u32,
            dest: op.dest.map(|dreg| offset(dreg, stage, 0)),
            srcs,
            pred,
        });
    }

    // Seeds. Loop-carried reads of iterations before 0 land on physical
    // registers (base(v) + negative) mod S at pass 0; preload each with the
    // register's lag-specific live-in value (explicit per-lag bindings come
    // from recurrence back-substitution; other lags fall back to lag 1).
    let mut rot_seeds: HashMap<usize, ims_ir::LiveInValue> = HashMap::new();
    let mut seeded: Vec<bool> = vec![false; body.num_vregs()];
    for li in body.live_ins() {
        if alloc.base[li.reg.index()].is_none() || seeded[li.reg.index()] {
            continue;
        }
        seeded[li.reg.index()] = true;
        let max_lag = max_lag_of(body, li.reg);
        for lag in 1..=max_lag {
            let value = body
                .live_in_value(li.reg, lag)
                .expect("live-in registers always have a lag-1 binding");
            let phys = alloc.physical(li.reg, -(lag as i64));
            match rot_seeds.get(&phys) {
                Some(existing) if *existing != value => {
                    return Err(RotatingError::SeedConflict { phys });
                }
                _ => {
                    rot_seeds.insert(phys, value);
                }
            }
        }
    }
    let mut seeds: Vec<Seed> = rot_seeds
        .into_iter()
        .map(|(phys, value)| Seed {
            reg: CodeReg::Rotating(phys),
            value,
        })
        .collect();
    let mut static_seeded: Vec<bool> = vec![false; body.num_vregs()];
    for li in body.live_ins() {
        if let Some(st) = alloc.static_of[li.reg.index()] {
            if !static_seeded[li.reg.index()] {
                static_seeded[li.reg.index()] = true;
                seeds.push(Seed {
                    reg: CodeReg::Static(st),
                    value: body.live_in_value(li.reg, 1).unwrap_or(li.value),
                });
            }
        }
    }
    seeds.sort_by_key(|s| match s.reg {
        CodeReg::Static(i) => (0, i),
        CodeReg::Rotating(i) => (1, i),
    });

    Ok(RotatingCode {
        ii,
        stage_count,
        kernel,
        passes: (n + stage_count as i64 - 1) as u64,
        rotating_size: alloc.size,
        num_static_regs: alloc.num_static,
        seeds,
    })
}

/// The largest iteration lag at which `reg` is read.
fn max_lag_of(body: &LoopBody, reg: VReg) -> u32 {
    let mut max_lag = 0;
    for (use_id, op) in body.iter() {
        for u in op.reg_uses() {
            if u.reg == reg {
                if let Some((_, d)) = resolve_use(body, use_id, u) {
                    max_lag = max_lag.max(d);
                }
            }
        }
    }
    max_lag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::lifetimes;
    use ims_core::Scheduler;
    use ims_deps::{build_problem, BuildOptions};
    use ims_ir::{LoopBuilder, MemRef, Value};
    use ims_machine::cydra_simple;

    fn dot(n: u32) -> ims_ir::LoopBody {
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
        b.finish().unwrap()
    }

    /// Brute-force check of the allocation invariant against actual
    /// schedule timing: for every value instance (v, i), no other write to
    /// the same physical register commits at or before the instance's last
    /// read.
    fn check_allocation(alloc: &RotatingAllocation, lifetimes: &[Lifetime], ii: i64) {
        let window = 4 * alloc.size as i64 + 8;
        for lv in lifetimes {
            for i in 0..window {
                let phys = alloc.physical(lv.reg, i);
                let last_read = i * ii + lv.death;
                let commit_ok = |lu: &Lifetime, j: i64| -> bool {
                    // Another write to `phys` commits at j*ii + birth(u);
                    // it must commit strictly after `last_read`.
                    j * ii + lu.birth > last_read
                };
                for lu in lifetimes {
                    // Iterations j > i (same or other register) that write
                    // the same physical register.
                    for j in i + 1..i + 2 * alloc.size as i64 + 2 {
                        if (lu.reg, j) == (lv.reg, i) {
                            continue;
                        }
                        if alloc.physical(lu.reg, j) == phys {
                            assert!(
                                commit_ok(lu, j),
                                "{} (iter {j}) clobbers {} (iter {i}) on phys {phys}",
                                lu.reg,
                                lv.reg
                            );
                            break; // only the first subsequent writer matters
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn allocation_is_clobber_free() {
        let body = dot(64);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let alloc = allocate_rotating(&body, &lt, out.schedule.ii);
        check_allocation(&alloc, &lt, out.schedule.ii);
    }

    #[test]
    fn allocation_with_skewed_lifetimes() {
        // Hand-built lifetimes with very different birth cycles and name
        // counts; the invariant must still hold.
        let mut b = LoopBuilder::new("skew", 8);
        let x = b.live_in("x", Value::Float(1.0));
        let a1 = b.add("a1", x, x);
        let a2 = b.add("a2", a1, x);
        let a3 = b.add("a3", a2, x);
        let body = b.finish().unwrap();
        let ii = 2;
        let lts = vec![
            Lifetime {
                reg: a1,
                def_issue: 0,
                birth: 4,
                death: 13,
                names: 5,
            },
            Lifetime {
                reg: a2,
                def_issue: 1,
                birth: 1,
                death: 1,
                names: 1,
            },
            Lifetime {
                reg: a3,
                def_issue: 1,
                birth: 9,
                death: 12,
                names: 2,
            },
        ];
        let alloc = allocate_rotating(&body, &lts, ii);
        check_allocation(&alloc, &lts, ii);
    }

    #[test]
    fn kernel_is_exactly_ii_instructions() {
        let body = dot(64);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_rotating(&body, &p, &out.schedule, &lt).unwrap();
        assert_eq!(code.kernel.len() as i64, code.ii);
        let total_ops: usize = code.kernel.iter().map(|i| i.ops.len()).sum();
        assert_eq!(total_ops, body.num_ops());
        assert_eq!(code.passes, 64 + code.stage_count as u64 - 1);
    }

    #[test]
    fn accumulator_seed_present() {
        let body = dot(64);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let code = generate_rotating(&body, &p, &out.schedule, &lt).unwrap();
        // The accumulator (lag 1) and both pointers need rotating seeds.
        let rotating_seeds = code
            .seeds
            .iter()
            .filter(|s| matches!(s.reg, CodeReg::Rotating(_)))
            .count();
        assert!(rotating_seeds >= 3, "got {rotating_seeds}");
    }

    #[test]
    fn physical_mapping_advances_with_iteration() {
        let body = dot(16);
        let m = cydra_simple();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lt = lifetimes(&body, &p, &out.schedule);
        let alloc = allocate_rotating(&body, &lt, out.schedule.ii);
        let v = lt[0].reg;
        let p0 = alloc.physical(v, 0);
        let p1 = alloc.physical(v, 1);
        assert_eq!((p0 + 1) % alloc.size, p1);
    }
}
