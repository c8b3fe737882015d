//! Predicated (IF-converted) loops: scheduling and executing a loop whose
//! body contains conditional stores.
//!
//! The paper's input loops arrive *after* IF-conversion: control flow has
//! been replaced by predicate computations and guarded operations (§1).
//! This example builds `if (x[i] > t) out[i] = x[i]; else out[i] = -x[i];`
//! in predicated form, schedules it, and shows that the pipelined execution
//! matches the sequential one even though predicates from several
//! iterations are in flight simultaneously.
//!
//! Run with: `cargo run --release --example predicated_loop`

use ims::core::Scheduler;
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::graph::DepKind;
use ims::ir::{ArrayId, CmpKind, LoopBuilder, MemRef, Value};
use ims::machine::cydra;
use ims::vliw::{compare_results, run_overlapped, run_sequential, MemoryImage};

fn main() {
    let n = 24u32;
    let mut b = LoopBuilder::new("select", n);
    let x = b.array("x", n as usize);
    let o = b.array("o", n as usize);
    let px = b.ptr("px", x, 0);
    let po = b.ptr("po", o, 0);
    let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
    let neg = b.sub("neg", 0.0f64, v);
    let p_hi = b.pred_set("p_hi", CmpKind::Gt, v, 2.0f64);
    let p_lo = b.pred_set("p_lo", CmpKind::Le, v, 2.0f64);
    let st_hi = b.store(po, v, Some(MemRef::new(o, 0, 1)));
    b.guard(st_hi, p_hi);
    let st_lo = b.store(po, neg, Some(MemRef::new(o, 0, 1)));
    b.guard(st_lo, p_lo);
    b.addr_add(px, px, 1);
    b.addr_add(po, po, 1);
    let body = b.finish().expect("valid body");

    let machine = cydra();
    let body = back_substitute(&body, &machine);
    let problem = build_problem(&body, &machine, &BuildOptions::default());

    // The predicate inputs appear as control-dependence edges in the graph
    // (the paper attributes its ~3 edges/operation to exactly these).
    let control_edges = problem
        .graph()
        .edges()
        .iter()
        .filter(|e| {
            e.kind == DepKind::Control && e.from != problem.start() && e.to != problem.stop()
        })
        .count();
    println!(
        "{} operations, {} dependence edges ({} predicate-input edges)",
        problem.num_ops(),
        problem.num_real_edges(),
        control_edges
    );

    let out = Scheduler::new(&problem).run().expect("schedulable");
    println!(
        "MII {} -> II {} (schedule length {})",
        out.mii.mii, out.schedule.ii, out.schedule.length
    );

    let mut image = MemoryImage::for_body(&body);
    for i in 0..n as usize {
        image.set(ArrayId(0), i, Value::Float((i % 5) as f64));
    }
    let seq = run_sequential(&body, image.clone()).expect("runs");
    let pipe = run_overlapped(&body, &problem, &out.schedule, image).expect("runs");
    assert!(compare_results(&seq, &pipe).is_none());

    print!("out = [");
    for i in 0..n as usize {
        print!(
            "{}{}",
            if i > 0 { ", " } else { "" },
            seq.memory.get(ArrayId(1), i)
        );
    }
    println!("]");
    println!("pipelined and sequential executions agree under predication.");
}
