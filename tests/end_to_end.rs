//! End-to-end integration: every hand-written benchmark kernel is
//! scheduled, validated, executed in all four modes, and the executions
//! must agree — on both Cydra machine variants, with and without
//! recurrence back-substitution.

use ims::codegen::{generate_mve, generate_rotating, lifetimes};
use ims::core::{validate_schedule, SchedConfig, Scheduler};
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::ir::LoopBody;
use ims::loopgen::kernels;
use ims::machine::{cydra, cydra_simple, figure1_machine, MachineModel};
use ims::vliw::{
    compare_memory, compare_results, run_mve, run_overlapped, run_rotating, run_sequential,
    MemoryImage,
};

fn image_for(kernel: &ims::loopgen::Kernel, body: &LoopBody) -> MemoryImage {
    let mut img = MemoryImage::for_body(body);
    for (array, data) in &kernel.init {
        for (i, v) in data.iter().enumerate() {
            img.set(*array, i, *v);
        }
    }
    img
}

/// Full pipeline on one kernel/machine pair.
fn check_kernel(kernel: &ims::loopgen::Kernel, machine: &MachineModel, backsub: bool) {
    let body = if backsub {
        back_substitute(&kernel.body, machine)
    } else {
        kernel.body.clone()
    };
    let problem = build_problem(&body, machine, &BuildOptions::default());
    let out = Scheduler::new(&problem)
        .config(SchedConfig::new().budget_ratio(6.0))
        .run()
        .unwrap_or_else(|e| panic!("{} fails to schedule: {e}", kernel.name));
    validate_schedule(&problem, &out.schedule)
        .unwrap_or_else(|v| panic!("{} produced an illegal schedule: {v}", kernel.name));
    assert!(out.schedule.ii >= out.mii.mii);

    let image = image_for(kernel, &body);
    let seq = run_sequential(&body, image.clone())
        .unwrap_or_else(|e| panic!("{} reference run failed: {e}", kernel.name));
    let pipe = run_overlapped(&body, &problem, &out.schedule, image.clone())
        .unwrap_or_else(|e| panic!("{} overlapped run failed: {e}", kernel.name));
    if let Some(m) = compare_results(&seq, &pipe) {
        panic!("{}: overlapped != sequential: {m:?}", kernel.name);
    }

    // Code generation + execution (memory compared).
    let lt = lifetimes(&body, &problem, &out.schedule);
    let mve = generate_mve(&body, &problem, &out.schedule, &lt);
    let mve_run = run_mve(&mve, &body, machine, image.clone())
        .unwrap_or_else(|e| panic!("{} MVE run failed: {e}", kernel.name));
    if let Some(m) = compare_memory(&seq.memory, &mve_run.memory) {
        panic!("{}: MVE != sequential: {m:?}", kernel.name);
    }

    match generate_rotating(&body, &problem, &out.schedule, &lt) {
        Ok(rot) => {
            let rot_run = run_rotating(&rot, &body, machine, image)
                .unwrap_or_else(|e| panic!("{} rotating run failed: {e}", kernel.name));
            if let Some(m) = compare_memory(&seq.memory, &rot_run.memory) {
                panic!("{}: rotating != sequential: {m:?}", kernel.name);
            }
        }
        Err(e) => {
            // Seed conflicts are a documented fallback-to-MVE case.
            eprintln!("{}: rotating codegen declined: {e}", kernel.name);
        }
    }
}

#[test]
fn all_kernels_on_cydra() {
    for k in kernels(24) {
        check_kernel(&k, &cydra(), false);
    }
}

#[test]
fn all_kernels_on_cydra_with_back_substitution() {
    for k in kernels(24) {
        check_kernel(&k, &cydra(), true);
    }
}

#[test]
fn all_kernels_on_cydra_simple() {
    for k in kernels(24) {
        check_kernel(&k, &cydra_simple(), true);
    }
}

#[test]
fn all_kernels_on_the_shared_bus_machine() {
    // The literal Figure 1 machine is the hardest to pack; everything must
    // still schedule and execute correctly (if at larger IIs).
    for k in kernels(16) {
        check_kernel(&k, &figure1_machine(), true);
    }
}

#[test]
fn odd_trip_counts_cover_epilogue_edge_cases() {
    // Trip counts that do not divide evenly by the unroll factor exercise
    // the MVE coda path.
    for n in [5, 7, 11, 13, 17, 23] {
        for k in kernels(n) {
            check_kernel(&k, &cydra(), true);
        }
    }
}

#[test]
fn pressure_limited_schedules_fit_their_register_file() {
    // Tentpole e2e: on the small-register-file Cydra variants, a
    // pressure-limited schedule must hold MaxLive under the declared
    // capacity, its rotating allocation must fit the file, and the
    // pipelined/rotating executions must still match sequential
    // semantics. Kernels genuinely infeasible at the capacity must fail
    // with the structured error, never an over-budget schedule.
    use ims::codegen::allocate_rotating;
    use ims::core::{ScheduleError, Scheduler};
    use ims::machine::cydra_rf;
    use ims::press::PressureObserver;

    let mut fitted = 0usize;
    let mut infeasible = 0usize;
    for limit in [10u32, 14, 20] {
        let machine = cydra_rf(limit);
        assert_eq!(machine.register_file(), Some(limit));
        for k in kernels(24) {
            let body = back_substitute(&k.body, &machine);
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let mut obs = PressureObserver::for_body(&body, &problem, limit);
            let result = Scheduler::new(&problem)
                .config(SchedConfig::new().budget_ratio(6.0).pressure_limit(limit))
                .observer(&mut obs)
                .run();
            match result {
                Ok(out) => {
                    fitted += 1;
                    validate_schedule(&problem, &out.schedule).unwrap_or_else(|v| {
                        panic!(
                            "{} rf{limit}: illegal pressure-limited schedule: {v}",
                            k.name
                        )
                    });
                    assert!(
                        obs.max_live() <= limit,
                        "{} rf{limit}: MaxLive {} over the accepted limit",
                        k.name,
                        obs.max_live()
                    );
                    let lt = lifetimes(&body, &problem, &out.schedule);
                    let alloc = allocate_rotating(&body, &lt, out.schedule.ii);
                    assert!(
                        alloc.size as u32 <= limit,
                        "{} rf{limit}: rotating allocation needs {} registers",
                        k.name,
                        alloc.size
                    );
                    let image = image_for(&k, &body);
                    let seq = run_sequential(&body, image.clone())
                        .unwrap_or_else(|e| panic!("{} reference run failed: {e}", k.name));
                    let pipe = run_overlapped(&body, &problem, &out.schedule, image.clone())
                        .unwrap_or_else(|e| panic!("{} overlapped run failed: {e}", k.name));
                    if let Some(m) = compare_results(&seq, &pipe) {
                        panic!("{} rf{limit}: overlapped != sequential: {m:?}", k.name);
                    }
                    match generate_rotating(&body, &problem, &out.schedule, &lt) {
                        Ok(rot) => {
                            let rot_run = run_rotating(&rot, &body, &machine, image)
                                .unwrap_or_else(|e| panic!("{} rotating run failed: {e}", k.name));
                            if let Some(m) = compare_memory(&seq.memory, &rot_run.memory) {
                                panic!("{} rf{limit}: rotating != sequential: {m:?}", k.name);
                            }
                        }
                        Err(e) => eprintln!("{} rf{limit}: rotating codegen declined: {e}", k.name),
                    }
                }
                Err(ScheduleError::PressureInfeasible { limit: l, .. }) => {
                    infeasible += 1;
                    assert_eq!(l, limit);
                }
                Err(e) => panic!("{} rf{limit}: unexpected error: {e}", k.name),
            }
        }
    }
    assert!(fitted > 0, "no kernel fit any register file");
    eprintln!("pressure e2e: {fitted} fitted, {infeasible} infeasible");
}

#[test]
fn exact_schedules_execute_correctly() {
    // Schedules from the exact branch-and-bound backend flow through the
    // same validator and VLIW simulator as iterative ones; the pipelined
    // execution must match sequential semantics on every kernel.
    use ims::core::NullObserver;
    use ims::exact::{prove, BranchAndBound, ProverConfig};
    use ims::prof::NullSink;
    let machine = cydra();
    let config = ProverConfig::new(Some(200_000));
    for k in kernels(16) {
        let body = back_substitute(&k.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let out = prove(
            &problem,
            &BranchAndBound,
            &config,
            &mut NullObserver,
            &mut NullSink,
        )
        .unwrap_or_else(|e| panic!("{} fails to schedule exactly: {e}", k.name));
        validate_schedule(&problem, &out.schedule)
            .unwrap_or_else(|v| panic!("{} produced an illegal exact schedule: {v}", k.name));
        assert!(out.schedule.ii >= out.mii.mii);
        assert!(
            out.schedule.ii <= out.ims_ii,
            "exact beats or matches the heuristic"
        );
        assert!(out.bounds.proved_lb <= out.bounds.best_ub);

        let image = image_for(&k, &body);
        let seq = run_sequential(&body, image.clone())
            .unwrap_or_else(|e| panic!("{} reference run failed: {e}", k.name));
        let pipe = run_overlapped(&body, &problem, &out.schedule, image)
            .unwrap_or_else(|e| panic!("{} overlapped run failed: {e}", k.name));
        if let Some(m) = compare_results(&seq, &pipe) {
            panic!(
                "{}: exact-scheduled overlapped != sequential: {m:?}",
                k.name
            );
        }
    }
}

#[test]
fn pipelining_actually_overlaps_iterations() {
    // For at least the vectorizable kernels the pipelined execution must be
    // far faster than sequential issue (that is the whole point).
    let machine = cydra();
    let mut improved = 0;
    let mut total = 0;
    for k in kernels(48) {
        let body = back_substitute(&k.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let out = Scheduler::new(&problem)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
            .unwrap();
        let image = image_for(&k, &body);
        let pipe = run_overlapped(&body, &problem, &out.schedule, image).unwrap();
        let serialized = 48 * out.schedule.length as u64;
        total += 1;
        if pipe.cycles * 2 < serialized {
            improved += 1;
        }
    }
    assert!(
        improved * 10 >= total * 7,
        "only {improved}/{total} kernels got a 2x pipeline speedup"
    );
}

#[test]
fn unrolled_loops_compute_the_same_results() {
    // The unroll transform must preserve semantics: running the unrolled
    // body for n/U iterations equals running the original for n.
    use ims::deps::unroll;
    let machine = cydra();
    for k in kernels(24) {
        for u in [2u32, 4] {
            // Skip kernels whose trip count does not divide evenly.
            if 24 % u != 0 {
                continue;
            }
            let unrolled = unroll(&k.body, u);
            let orig_img = image_for(&k, &k.body);
            let unrolled_img = image_for(&k, &unrolled);
            let a = run_sequential(&k.body, orig_img)
                .unwrap_or_else(|e| panic!("{} original failed: {e}", k.name));
            let b = run_sequential(&unrolled, unrolled_img)
                .unwrap_or_else(|e| panic!("{} x{u} failed: {e}", k.name));
            if let Some(m) = compare_memory(&a.memory, &b.memory) {
                panic!("{} x{u}: unrolled != original: {m:?}", k.name);
            }
            // And the unrolled body is itself modulo-schedulable.
            let p = build_problem(&unrolled, &machine, &BuildOptions::default());
            let out = Scheduler::new(&p)
                .config(SchedConfig::new().budget_ratio(6.0))
                .run()
                .unwrap_or_else(|e| panic!("{} x{u} does not schedule: {e}", k.name));
            validate_schedule(&p, &out.schedule)
                .unwrap_or_else(|v| panic!("{} x{u} illegal schedule: {v}", k.name));
        }
    }
}
