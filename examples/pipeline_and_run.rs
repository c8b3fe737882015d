//! End-to-end: schedule a SAXPY loop, generate both code forms, execute
//! everything on the VLIW simulator, and check all four executions agree.
//!
//! This walks the paper's whole pipeline (§1): dependence analysis →
//! modulo scheduling → modulo variable expansion (for machines without
//! rotating registers) and kernel-only rotating code (for machines with
//! them) → execution.
//!
//! Run with: `cargo run --release --example pipeline_and_run`

use ims::codegen::{generate_mve, generate_rotating, lifetimes};
use ims::core::Scheduler;
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::ir::{ArrayId, LoopBuilder, MemRef, Value};
use ims::machine::cydra;
use ims::vliw::{
    compare_memory, compare_results, run_mve, run_overlapped, run_rotating, run_sequential,
    MemoryImage,
};

fn main() {
    // y[i] = y[i] + 2.5 * x[i]
    let n = 64u32;
    let mut b = LoopBuilder::new("saxpy", n);
    let x = b.array("x", n as usize);
    let y = b.array("y", n as usize);
    let px = b.ptr("px", x, 0);
    let py = b.ptr("py", y, 0);
    let a = b.live_in("a", Value::Float(2.5));
    let vx = b.load("vx", px, Some(MemRef::new(x, 0, 1)));
    let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
    let ax = b.mul("ax", a, vx);
    let sum = b.add("sum", vy, ax);
    b.store(py, sum, Some(MemRef::new(y, 0, 1)));
    b.addr_add(px, px, 1);
    b.addr_add(py, py, 1);
    let body = b.finish().expect("valid body");

    let machine = cydra();
    let body = back_substitute(&body, &machine);
    let problem = build_problem(&body, &machine, &BuildOptions::default());
    let out = Scheduler::new(&problem).run().expect("schedulable");
    println!(
        "saxpy: MII {} -> II {} ({} stages, schedule length {})",
        out.mii.mii,
        out.schedule.ii,
        out.schedule.stage_count(),
        out.schedule.length
    );

    // Input data.
    let mut image = MemoryImage::for_body(&body);
    for i in 0..n as usize {
        image.set(ArrayId(0), i, Value::Float(i as f64 / 4.0));
        image.set(ArrayId(1), i, Value::Float(100.0 - i as f64));
    }

    // 1. Sequential reference.
    let seq = run_sequential(&body, image.clone()).expect("reference runs");

    // 2. The schedule executed directly with overlapped iterations
    //    (latency-checked EVR semantics).
    let pipe = run_overlapped(&body, &problem, &out.schedule, image.clone()).expect("runs");
    assert!(
        compare_results(&seq, &pipe).is_none(),
        "overlapped == sequential"
    );
    println!(
        "overlapped execution: {} cycles (sequential issue would need ~{})",
        pipe.cycles,
        n as i64 * out.schedule.length
    );

    // 3. Modulo variable expansion for a machine without rotating registers.
    let lt = lifetimes(&body, &problem, &out.schedule);
    let mve = generate_mve(&body, &problem, &out.schedule, &lt);
    println!(
        "MVE code: unroll K = {}, {} prologue + {}x{} kernel + {} coda instructions, {} registers",
        mve.unroll,
        mve.prologue.len(),
        mve.kernel_reps,
        mve.kernel.len(),
        mve.coda.len(),
        mve.num_static_regs
    );
    let mve_run = run_mve(&mve, &body, &machine, image.clone()).expect("MVE code runs");
    assert!(
        compare_memory(&seq.memory, &mve_run.memory).is_none(),
        "MVE == sequential"
    );

    // 4. Kernel-only rotating-register code.
    let rot = generate_rotating(&body, &problem, &out.schedule, &lt).expect("allocatable");
    println!(
        "rotating code: {} instructions total ({} passes over an II-long kernel), \
         rotating file of {} registers",
        rot.total_cycles(),
        rot.passes,
        rot.rotating_size
    );
    let rot_run = run_rotating(&rot, &body, &machine, image).expect("rotating code runs");
    assert!(
        compare_memory(&seq.memory, &rot_run.memory).is_none(),
        "rotating == sequential"
    );

    println!(
        "\nall four executions agree; y[7] = {}",
        seq.memory.get(ArrayId(1), 7)
    );
}
