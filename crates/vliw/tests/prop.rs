//! The strongest property in the repository: for *random* executable
//! loops, all four execution modes (sequential reference, overlapped
//! modulo schedule, MVE code, rotating code) compute identical memory.
//! On the in-repo [`ims_testkit::prop`] harness.

use ims_codegen::{generate_mve, generate_rotating, lifetimes};
use ims_core::{SchedConfig, Scheduler};
use ims_deps::{back_substitute, build_problem, unroll, BuildOptions};
use ims_loopgen::{generate_loop, SynthConfig};
use ims_machine::{cydra, cydra_simple};
use ims_testkit::{check, prop_assert, Gen, PropConfig, Xoshiro256};
use ims_vliw::{
    compare_memory, compare_results, run_mve, run_overlapped, run_rotating, run_sequential,
    MemoryImage,
};

/// A generator seed plus a synthetic-loop shape.
fn gen_synth(g: &mut Gen) -> (u64, SynthConfig) {
    let seed = g.u64();
    let cfg = SynthConfig {
        ops_target: g.usize_in(4, 40),
        recurrences: g.vec_with(2, |g| g.usize_in(2, 5)),
        with_branch: g.bool(),
    };
    (seed, cfg)
}

#[test]
fn four_execution_modes_agree() {
    check(
        "four_execution_modes_agree",
        &PropConfig::with_cases(48),
        &[],
        gen_synth,
        |(seed, cfg)| {
            for machine in [cydra(), cydra_simple()] {
                let raw = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
                let body = back_substitute(&raw, &machine);
                let problem = build_problem(&body, &machine, &BuildOptions::default());
                let out = Scheduler::new(&problem)
                    .config(SchedConfig::new().budget_ratio(6.0))
                    .run()
                    .expect("schedules");

                let image = MemoryImage::for_body(&body);
                let seq = run_sequential(&body, image.clone()).expect("reference runs");
                let pipe = run_overlapped(&body, &problem, &out.schedule, image.clone())
                    .expect("overlapped runs");
                prop_assert!(compare_results(&seq, &pipe).is_none());

                let lt = lifetimes(&body, &problem, &out.schedule);
                let mve = generate_mve(&body, &problem, &out.schedule, &lt);
                let mve_run = run_mve(&mve, &body, &machine, image.clone()).expect("MVE runs");
                prop_assert!(compare_memory(&seq.memory, &mve_run.memory).is_none());

                if let Ok(rot) = generate_rotating(&body, &problem, &out.schedule, &lt) {
                    let rot_run =
                        run_rotating(&rot, &body, &machine, image).expect("rotating runs");
                    prop_assert!(compare_memory(&seq.memory, &rot_run.memory).is_none());
                }
            }
            Ok(())
        },
    );
}

#[test]
fn unrolling_preserves_semantics() {
    check(
        "unrolling_preserves_semantics",
        &PropConfig::with_cases(48),
        &[],
        gen_synth,
        |(seed, cfg)| {
            let raw = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            // Synthetic loops have trip count 16; factors dividing it keep
            // the iteration totals equal.
            for u in [2u32, 4] {
                let unrolled = unroll(&raw, u);
                let a = run_sequential(&raw, MemoryImage::for_body(&raw)).expect("runs");
                let b = run_sequential(&unrolled, MemoryImage::for_body(&unrolled)).expect("runs");
                prop_assert!(compare_memory(&a.memory, &b.memory).is_none(), "factor {u}");
            }
            Ok(())
        },
    );
}
