//! Quickstart: software-pipeline a dot-product loop.
//!
//! Builds the IR for `s += a[i] * b[i]`, analyzes its dependences, computes
//! the MII bounds, runs iterative modulo scheduling on the Cydra-5-like
//! machine, and prints the resulting kernel.
//!
//! Run with: `cargo run --release --example quickstart`

use ims::core::display::{format_kernel, format_schedule};
use ims::core::validate_schedule;
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::ir::{LoopBuilder, MemRef, Value};
use ims::machine::cydra;
use ims::prelude::*;

fn main() {
    // --- 1. Write the loop in IR -------------------------------------
    let n = 100;
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
    b.rebind_add(s, s, prod); // s += prod  (loop-carried recurrence)
    b.addr_add(pa, pa, 1);
    b.addr_add(pb, pb, 1);
    let body = b.finish().expect("the body is valid");
    println!("{body}");

    // --- 2. Front end: back-substitution + dependence analysis -------
    let machine = cydra();
    let body = back_substitute(&body, &machine);
    let problem = build_problem(&body, &machine, &BuildOptions::default());
    println!(
        "dependence graph: {} operations, {} edges",
        problem.num_ops(),
        problem.num_real_edges()
    );

    // --- 3. Iterative modulo scheduling ------------------------------
    // The builder is the one entry point: configuration via chainable
    // setters, and an optional observer watching every decision. Here a
    // Recorder captures the event stream so we can print a convergence
    // summary afterwards (its `to_jsonl()` is the trace-file format);
    // pass `&mut NullObserver` (or nothing) for a zero-overhead run.
    let mut recorder = Recorder::default();
    let outcome = Scheduler::new(&problem)
        .config(SchedConfig::new().budget_ratio(6.0))
        .observer(&mut recorder)
        .run()
        .expect("every well-formed loop schedules");
    println!(
        "ResMII = {}, RecMII = {}, MII = {}  ->  achieved II = {} (DeltaII = {})",
        outcome.mii.res_mii,
        outcome.mii.rec_mii,
        outcome.mii.mii,
        outcome.schedule.ii,
        outcome.delta_ii()
    );
    println!(
        "schedule length = {} cycles, {} kernel stages",
        outcome.schedule.length,
        outcome.schedule.stage_count()
    );

    // The schedule is independently validated against every dependence and
    // the modulo reservation table.
    validate_schedule(&problem, &outcome.schedule).expect("schedule is legal");

    // The recorded events reconstruct how the scheduler got there.
    let summary = TraceSummary::from_events(&recorder.events);
    println!("convergence: {}", summary.render_line("dot"));

    // --- 4. Show the schedule and the kernel --------------------------
    println!(
        "\nflat schedule:\n{}",
        format_schedule(&problem, &outcome.schedule)
    );
    println!("kernel (one row per issue slot; parenthesised stage):");
    print!("{}", format_kernel(&problem, &outcome.schedule));
    println!(
        "\nsteady state: one iteration completes every {} cycles, versus {} \
         cycles for a non-pipelined schedule.",
        outcome.schedule.ii, outcome.schedule.length
    );
}
