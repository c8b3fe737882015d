//! Recurrence explorer: how loop-carried dependences bound the II, and
//! what back-substitution buys.
//!
//! Schedules a family of recurrence loops — a first-order accumulator, a
//! second-order recurrence, a long multiply chain, and a memory recurrence
//! — and prints, for each, the two MII bounds and the achieved II, with and
//! without recurrence back-substitution of the induction updates.
//!
//! Run with: `cargo run --release --example recurrence_explorer`

use ims::core::Scheduler;
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::ir::{LoopBody, LoopBuilder, MemRef, Opcode, Value};
use ims::machine::cydra;
use ims::stats::table::Table;

fn accumulator() -> LoopBody {
    let mut b = LoopBuilder::new("accumulator", 32);
    let a = b.array("a", 32);
    let pa = b.ptr("pa", a, 0);
    let s = b.fresh("s");
    b.bind_live_in(s, Value::Float(0.0));
    let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
    b.rebind_add(s, s, v);
    b.addr_add(pa, pa, 1);
    b.finish().expect("valid")
}

fn second_order() -> LoopBody {
    let mut b = LoopBuilder::new("second_order", 32);
    let o = b.array("o", 32);
    let po = b.ptr("po", o, 0);
    let w = b.fresh("w");
    b.bind_live_in(w, Value::Float(1.0));
    let lag2 = b.back(w, 1);
    let half = b.op("half", Opcode::Mul, vec![lag2, 0.5f64.into()]);
    b.rebind_add(w, w, half);
    b.store(po, w, Some(MemRef::new(o, 0, 1)));
    b.addr_add(po, po, 1);
    b.finish().expect("valid")
}

fn multiply_chain() -> LoopBody {
    // x = ((x * a) * b) * c : a three-multiply recurrence circuit.
    let mut b = LoopBuilder::new("mul_chain", 32);
    let o = b.array("o", 32);
    let po = b.ptr("po", o, 0);
    let x = b.fresh("x");
    b.bind_live_in(x, Value::Float(1.0));
    let t1 = b.mul("t1", x, 1.01f64);
    let t2 = b.mul("t2", t1, 0.99f64);
    b.rebind(x, Opcode::Mul, vec![t2.into(), 1.0f64.into()]);
    b.store(po, x, Some(MemRef::new(o, 0, 1)));
    b.addr_add(po, po, 1);
    b.finish().expect("valid")
}

fn memory_recurrence() -> LoopBody {
    // a[i+2] = a[i] + 1: a distance-2 recurrence through memory.
    let mut b = LoopBuilder::new("mem_rec", 32);
    let a = b.array("a", 34);
    let pl = b.ptr("pl", a, 0);
    let ps = b.ptr("ps", a, 2);
    let v = b.load("v", pl, Some(MemRef::new(a, 0, 1)));
    let w = b.add("w", v, 1.0f64);
    b.store(ps, w, Some(MemRef::new(a, 2, 1)));
    b.addr_add(pl, pl, 1);
    b.addr_add(ps, ps, 1);
    b.finish().expect("valid")
}

fn main() {
    let machine = cydra();
    let mut t = Table::new(vec![
        "loop".into(),
        "ResMII".into(),
        "RecMII(raw)".into(),
        "II(raw)".into(),
        "RecMII(backsub)".into(),
        "II(backsub)".into(),
    ]);
    for body in [
        accumulator(),
        second_order(),
        multiply_chain(),
        memory_recurrence(),
    ] {
        let raw = build_problem(&body, &machine, &BuildOptions::default());
        let raw_out = Scheduler::new(&raw).run().expect("schedules");
        let bs = back_substitute(&body, &machine);
        let bsp = build_problem(&bs, &machine, &BuildOptions::default());
        let bs_out = Scheduler::new(&bsp).run().expect("schedules");
        t.row(vec![
            body.name().to_string(),
            raw_out.mii.res_mii.to_string(),
            raw_out.mii.rec_mii.to_string(),
            raw_out.schedule.ii.to_string(),
            bs_out.mii.rec_mii.to_string(),
            bs_out.schedule.ii.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nBack-substitution rewrites the address-increment recurrences\n\
         (p = p + c  =>  p = p[-3] + 3c), so only the *true* data recurrences\n\
         (the accumulator's add, the multiply chain) still bound the II."
    );
}
