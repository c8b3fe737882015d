//! Property-based tests over randomly generated loops, on the in-repo
//! [`ims_testkit::prop`] harness.
//!
//! Every generated loop must: schedule at some II ≥ MII; produce a schedule
//! that passes the independent validator; have HeightR consistent with
//! MinDist; and have RecMII agree between the MinDist method and circuit
//! enumeration.

use ims::core::{
    height_r, rec_mii, rec_mii_by_circuits, validate_schedule, Counters, SchedConfig, Scheduler,
};
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::graph::compute_min_dist;
use ims::loopgen::{generate_loop, SynthConfig};
use ims::machine::{cydra, cydra_simple, wide};
use ims_testkit::{check, prop_assert, prop_assert_eq, Gen, PropConfig, Xoshiro256};

/// A synthetic-loop configuration plus a generator seed.
fn gen_loop(g: &mut Gen) -> (u64, SynthConfig) {
    let seed = g.u64();
    let cfg = SynthConfig {
        ops_target: g.usize_in(4, 60),
        recurrences: g.vec_with(2, |g| g.usize_in(2, 6)),
        with_branch: g.bool(),
    };
    (seed, cfg)
}

#[test]
fn every_generated_loop_schedules_and_validates() {
    check(
        "every_generated_loop_schedules_and_validates",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let body = back_substitute(&body, &machine);
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let out = Scheduler::new(&problem).run().expect("schedules");
            prop_assert!(out.schedule.ii >= out.mii.mii);
            prop_assert!(validate_schedule(&problem, &out.schedule).is_ok());
            // Every operation issues within the schedule length.
            for node in problem.op_nodes() {
                prop_assert!(out.schedule.time_of(node) <= out.schedule.length);
            }
            Ok(())
        },
    );
}

#[test]
fn height_r_equals_min_dist_to_stop() {
    check(
        "height_r_equals_min_dist_to_stop",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra_simple();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let mut c = Counters::new();
            let ii = rec_mii(&problem, 1, &mut c).max(1);
            let heights = height_r(&problem, ii, &mut c);
            let nodes: Vec<_> = problem.graph().nodes().collect();
            let mut w = 0u64;
            let md = compute_min_dist(problem.graph(), &nodes, ii, &mut w);
            for node in problem.graph().nodes() {
                if node == problem.stop() {
                    continue;
                }
                prop_assert_eq!(heights[node.index()], md.get(node, problem.stop()));
            }
            Ok(())
        },
    );
}

#[test]
fn rec_mii_methods_agree() {
    check(
        "rec_mii_methods_agree",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let by_mindist = rec_mii(&problem, 1, &mut Counters::new());
            if let Some(by_circuits) = rec_mii_by_circuits(&problem, 100_000) {
                prop_assert_eq!(by_mindist, by_circuits);
            }
            Ok(())
        },
    );
}

#[test]
fn larger_budget_never_worsens_ii() {
    check(
        "larger_budget_never_worsens_ii",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let tight = Scheduler::new(&problem)
                .config(SchedConfig::new().budget_ratio(1.0))
                .run()
                .expect("schedules");
            let loose = Scheduler::new(&problem)
                .config(SchedConfig::new().budget_ratio(8.0))
                .run()
                .expect("schedules");
            prop_assert!(loose.schedule.ii <= tight.schedule.ii);
            Ok(())
        },
    );
}

#[test]
fn wider_machines_never_raise_the_mii() {
    check(
        "wider_machines_never_raise_the_mii",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let narrow = wide(2);
            let wide_m = wide(6);
            let p_narrow = build_problem(&body, &narrow, &BuildOptions::default());
            let p_wide = build_problem(&body, &wide_m, &BuildOptions::default());
            let mii_narrow = ims::core::compute_mii(&p_narrow, &mut Counters::new());
            let mii_wide = ims::core::compute_mii(&p_wide, &mut Counters::new());
            prop_assert!(mii_wide.mii <= mii_narrow.mii);
            prop_assert!(mii_wide.res_mii <= mii_narrow.res_mii);
            Ok(())
        },
    );
}

#[test]
fn trace_replay_reconstructs_the_schedule() {
    use ims::prelude::*;

    check(
        "trace_replay_reconstructs_the_schedule",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let mut rec = Recorder::new();
            let out = Scheduler::new(&problem)
                .observer(&mut rec)
                .run()
                .expect("schedules");
            let text = rec.to_jsonl();
            let events = parse_trace(&text).expect("every emitted line parses");
            // The trace is a faithful record: replaying the placement and
            // eviction events alone reconstructs the final schedule.
            let times = replay(&events).final_times().expect("complete schedule");
            prop_assert_eq!(&times, &out.schedule.time);
            // And the summary agrees with the scheduler's own accounting.
            let summary = TraceSummary::from_events(&events);
            prop_assert_eq!(summary.final_ii(), Some(out.schedule.ii));
            prop_assert_eq!(summary.total_steps(), out.stats.total_steps());
            prop_assert_eq!(summary.evictions, out.stats.counters.evictions);
            Ok(())
        },
    );
}

#[test]
fn null_observer_is_invisible() {
    use ims::prelude::*;

    check(
        "null_observer_is_invisible",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let plain = Scheduler::new(&problem).run().expect("schedules");
            let built = Scheduler::new(&problem)
                .observer(&mut NullObserver)
                .run()
                .expect("schedules");
            // Attaching the no-op observer changes nothing: same
            // schedule, same instrumentation counters.
            prop_assert_eq!(&built.schedule.time, &plain.schedule.time);
            prop_assert_eq!(built.schedule.ii, plain.schedule.ii);
            prop_assert_eq!(built.stats.total_steps(), plain.stats.total_steps());
            prop_assert_eq!(
                built.stats.counters.findslot_iters,
                plain.stats.counters.findslot_iters
            );
            prop_assert_eq!(
                built.stats.counters.evictions,
                plain.stats.counters.evictions
            );
            Ok(())
        },
    );
}

#[test]
fn exact_backend_brackets_the_heuristic() {
    use ims::core::NullObserver;
    use ims::exact::{prove, BranchAndBound, ProverConfig};
    use ims::prof::NullSink;

    check(
        "exact_backend_brackets_the_heuristic",
        &PropConfig::with_cases(48),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let body = back_substitute(&body, &machine);
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let ims = Scheduler::new(&problem)
                .config(SchedConfig::new().budget_ratio(6.0))
                .run()
                .expect("schedules");
            let config = ProverConfig::new(Some(500_000));
            let exact = prove(
                &problem,
                &BranchAndBound,
                &config,
                &mut NullObserver,
                &mut NullSink,
            )
            .expect("the exact backend degrades, never fails");
            // The exact schedule is legal and never worse than the
            // heuristic's; both sit at or above the MII.
            prop_assert!(validate_schedule(&problem, &exact.schedule).is_ok());
            prop_assert!(exact.schedule.ii <= ims.schedule.ii);
            prop_assert!(exact.schedule.ii >= exact.mii.mii);
            prop_assert_eq!(exact.ims_ii, ims.schedule.ii);
            // Bounds are a sane interval around the true minimum.
            prop_assert!(exact.bounds.proved_lb >= exact.mii.mii);
            prop_assert!(exact.bounds.proved_lb <= exact.bounds.best_ub);
            prop_assert_eq!(exact.bounds.best_ub, exact.schedule.ii);
            // A search that ran to completion pins the optimum exactly.
            prop_assert_eq!(!exact.limit_hit, exact.bounds.is_exact());
            Ok(())
        },
    );
}

#[test]
fn back_substitution_never_raises_the_mii() {
    check(
        "back_substitution_never_raises_the_mii",
        &PropConfig::with_cases(64),
        &[],
        gen_loop,
        |(seed, cfg)| {
            let body = generate_loop(&mut Xoshiro256::seed_from_u64(*seed), cfg);
            let machine = cydra();
            let raw = build_problem(&body, &machine, &BuildOptions::default());
            let bs_body = back_substitute(&body, &machine);
            let bs = build_problem(&bs_body, &machine, &BuildOptions::default());
            let raw_mii = ims::core::compute_mii(&raw, &mut Counters::new());
            let bs_mii = ims::core::compute_mii(&bs, &mut Counters::new());
            prop_assert!(
                bs_mii.mii <= raw_mii.mii,
                "{} > {}",
                bs_mii.mii,
                raw_mii.mii
            );
            Ok(())
        },
    );
}
