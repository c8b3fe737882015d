//! Property tests for code generation: the rotating allocation is
//! clobber-free under arbitrary lifetimes, and MVE structure accounting is
//! exact under random schedules. On the in-repo [`ims_testkit::prop`]
//! harness.

use ims_codegen::{allocate_rotating, generate_mve, lifetimes, unroll_factor, Lifetime};
use ims_core::Scheduler;
use ims_deps::{build_problem, BuildOptions};
use ims_ir::{LoopBuilder, VReg, Value};
use ims_loopgen::{generate_loop, SynthConfig};
use ims_machine::cydra_simple;
use ims_testkit::{check, prop_assert, prop_assert_eq, PropConfig, Xoshiro256};

#[test]
fn rotating_allocation_is_clobber_free() {
    check(
        "rotating_allocation_is_clobber_free",
        &PropConfig::with_cases(128),
        &[],
        // Random (birth, extent) lifetimes over a small II.
        |g| {
            let ii = g.i64_in(1, 8);
            let len = g.usize_in(1, 8);
            let raw: Vec<(i64, i64)> = (0..len)
                .map(|_| (g.i64_in(0, 30), g.i64_in(0, 40)))
                .collect();
            (ii, raw)
        },
        |(ii, raw)| {
            let ii = *ii;
            // Build a body with one defined register per lifetime.
            let mut b = LoopBuilder::new("lt", 8);
            let x = b.live_in("x", Value::Float(1.0));
            let regs: Vec<VReg> = (0..raw.len())
                .map(|i| b.add(&format!("r{i}"), x, x))
                .collect();
            let body = b.finish().expect("valid");
            let lts: Vec<Lifetime> = raw
                .iter()
                .zip(&regs)
                .map(|(&(birth, extent), &reg)| Lifetime {
                    reg,
                    def_issue: birth.max(1) - 1,
                    birth,
                    death: birth + extent,
                    names: unroll_factor(birth, birth + extent, ii),
                })
                .collect();
            let alloc = allocate_rotating(&body, &lts, ii);

            // Brute-force invariant: no later write to the same physical
            // register commits at or before an instance's last read.
            let window = 3 * alloc.size as i64 + 6;
            for lv in &lts {
                for i in 0..window {
                    let phys = alloc.physical(lv.reg, i);
                    let last_read = i * ii + lv.death;
                    'writers: for lu in &lts {
                        for j in i + 1..i + 2 * alloc.size as i64 + 2 {
                            if (lu.reg, j) == (lv.reg, i) {
                                continue;
                            }
                            if alloc.physical(lu.reg, j) == phys {
                                prop_assert!(
                                    j * ii + lu.birth > last_read,
                                    "{} iter {j} clobbers {} iter {i} (phys {phys})",
                                    lu.reg,
                                    lv.reg
                                );
                                continue 'writers; // only the first later writer
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn mve_accounts_for_every_instance() {
    check(
        "mve_accounts_for_every_instance",
        &PropConfig::with_cases(128),
        &[],
        |g| (g.u64(), g.usize_in(4, 30)),
        |&(seed, ops)| {
            let cfg = SynthConfig {
                ops_target: ops,
                recurrences: vec![],
                with_branch: true,
            };
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(seed), &cfg);
            let machine = cydra_simple();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let out = Scheduler::new(&problem).run().expect("schedules");
            let lt = lifetimes(&body, &problem, &out.schedule);
            let code = generate_mve(&body, &problem, &out.schedule, &lt);
            let count = |insts: &[ims_codegen::Inst]| -> u64 {
                insts.iter().map(|i| i.ops.len() as u64).sum()
            };
            let total =
                count(&code.prologue) + code.kernel_reps * count(&code.kernel) + count(&code.coda);
            prop_assert_eq!(total, body.trip_count() as u64 * body.num_ops() as u64);
            Ok(())
        },
    );
}

#[test]
fn unroll_factor_is_minimal() {
    check(
        "unroll_factor_is_minimal",
        &PropConfig::with_cases(128),
        &[],
        |g| (g.i64_in(0, 50), g.i64_in(0, 80), g.i64_in(1, 10)),
        |&(birth, extent, ii)| {
            let death = birth + extent;
            let k = unroll_factor(birth, death, ii) as i64;
            // k names suffice: the overwrite commits after the last read...
            prop_assert!(birth + k * ii > death);
            // ...and k-1 names would not.
            if k > 1 {
                prop_assert!(birth + (k - 1) * ii <= death);
            }
            Ok(())
        },
    );
}
