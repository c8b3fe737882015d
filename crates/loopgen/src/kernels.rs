//! Hand-written Livermore-style benchmark kernels.
//!
//! Each kernel is a complete, *executable* loop: a body plus deterministic
//! initial array contents, so the integration suite can schedule it, run it
//! through every execution mode of the simulator, and check semantic
//! equivalence. The selection mirrors the loop shapes the paper's corpus
//! contains: vectorizable expression loops, register and memory
//! recurrences (first and second order), reductions, stencils, gathers and
//! scatters through unanalyzable addresses, predicated (IF-converted)
//! bodies, and long-latency divide/square-root loops.

use ims_ir::{ArrayId, CmpKind, LoopBody, LoopBuilder, MemRef, Value};

/// A named, executable benchmark kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Short identifier, e.g. `"inner_product"`.
    pub name: &'static str,
    /// The loop body (trip count baked in).
    pub body: LoopBody,
    /// Initial contents per array (shorter vectors leave trailing zeros).
    pub init: Vec<(ArrayId, Vec<Value>)>,
}

fn f(i: usize) -> Value {
    // Deterministic, well-conditioned float data.
    Value::Float(1.0 + ((i * 7 + 3) % 17) as f64 / 8.0)
}

fn fvec(len: usize) -> Vec<Value> {
    (0..len).map(f).collect()
}

/// All hand-written kernels, instantiated with trip count `n`.
///
/// # Panics
///
/// Panics if `n < 4` (the kernels' stencil offsets need a few elements).
pub fn kernels(n: u32) -> Vec<Kernel> {
    assert!(n >= 4, "kernels need a trip count of at least 4");
    let mut out = Vec::new();
    let nu = n as usize;

    // LFK 1: hydro fragment — x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]).
    out.push({
        let mut b = LoopBuilder::new("hydro", n);
        let x = b.array("x", nu);
        let y = b.array("y", nu);
        let z = b.array("z", nu + 11);
        let px = b.ptr("px", x, 0);
        let py = b.ptr("py", y, 0);
        let pz10 = b.ptr("pz10", z, 10);
        let pz11 = b.ptr("pz11", z, 11);
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let vz10 = b.load("vz10", pz10, Some(MemRef::new(z, 10, 1)));
        let vz11 = b.load("vz11", pz11, Some(MemRef::new(z, 11, 1)));
        let t1 = b.mul("t1", vz10, 0.5f64);
        let t2 = b.mul("t2", vz11, 0.25f64);
        let t3 = b.add("t3", t1, t2);
        let t4 = b.mul("t4", vy, t3);
        let t5 = b.add("t5", t4, 2.0f64);
        b.store(px, t5, Some(MemRef::new(x, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(py, py, 1);
        b.addr_add(pz10, pz10, 1);
        b.addr_add(pz11, pz11, 1);
        Kernel {
            name: "hydro",
            body: b.finish().expect("kernel is valid"),
            init: vec![(y, fvec(nu)), (z, fvec(nu + 11))],
        }
    });

    // LFK 11: first sum — x[k] = x[k-1] + y[k] (memory recurrence).
    out.push({
        let mut b = LoopBuilder::new("cumsum", n);
        let x = b.array("x", nu + 1);
        let y = b.array("y", nu);
        let pxl = b.ptr("pxl", x, 0);
        let pxs = b.ptr("pxs", x, 1);
        let py = b.ptr("py", y, 0);
        let prev = b.load("prev", pxl, Some(MemRef::new(x, 0, 1)));
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let s = b.add("s", prev, vy);
        b.store(pxs, s, Some(MemRef::new(x, 1, 1)));
        b.addr_add(pxl, pxl, 1);
        b.addr_add(pxs, pxs, 1);
        b.addr_add(py, py, 1);
        Kernel {
            name: "cumsum",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, vec![Value::Float(3.0)]), (y, fvec(nu))],
        }
    });

    // LFK 3: inner product — q += z[k]*x[k], running value stored.
    out.push({
        let mut b = LoopBuilder::new("inner_product", n);
        let z = b.array("z", nu);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let pz = b.ptr("pz", z, 0);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let q = b.fresh("q");
        b.bind_live_in(q, Value::Float(0.0));
        let vz = b.load("vz", pz, Some(MemRef::new(z, 0, 1)));
        let vx = b.load("vx", px, Some(MemRef::new(x, 0, 1)));
        let prod = b.mul("prod", vz, vx);
        b.rebind_add(q, q, prod);
        b.store(po, q, Some(MemRef::new(o, 0, 1)));
        b.addr_add(pz, pz, 1);
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "inner_product",
            body: b.finish().expect("kernel is valid"),
            init: vec![(z, fvec(nu)), (x, fvec(nu))],
        }
    });

    // LFK 5: tridiagonal elimination — x[i] = z[i]*(y[i] − x[i−1]).
    out.push({
        let mut b = LoopBuilder::new("tridiag", n);
        let x = b.array("x", nu + 1);
        let y = b.array("y", nu);
        let z = b.array("z", nu);
        let pxl = b.ptr("pxl", x, 0);
        let pxs = b.ptr("pxs", x, 1);
        let py = b.ptr("py", y, 0);
        let pz = b.ptr("pz", z, 0);
        let prev = b.load("prev", pxl, Some(MemRef::new(x, 0, 1)));
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let vz = b.load("vz", pz, Some(MemRef::new(z, 0, 1)));
        let d = b.sub("d", vy, prev);
        let r = b.mul("r", vz, d);
        b.store(pxs, r, Some(MemRef::new(x, 1, 1)));
        b.addr_add(pxl, pxl, 1);
        b.addr_add(pxs, pxs, 1);
        b.addr_add(py, py, 1);
        b.addr_add(pz, pz, 1);
        Kernel {
            name: "tridiag",
            body: b.finish().expect("kernel is valid"),
            init: vec![
                (x, vec![Value::Float(0.25)]),
                (y, fvec(nu)),
                (
                    z,
                    (0..nu)
                        .map(|i| Value::Float(0.5 + (i % 3) as f64 / 8.0))
                        .collect(),
                ),
            ],
        }
    });

    // LFK 7: equation-of-state fragment (long expression, no recurrence).
    out.push({
        let mut b = LoopBuilder::new("state_eqn", n);
        let x = b.array("x", nu);
        let u = b.array("u", nu + 3);
        let z = b.array("z", nu);
        let y = b.array("y", nu);
        let px = b.ptr("px", x, 0);
        let pu = b.ptr("pu", u, 0);
        let pu3 = b.ptr("pu3", u, 3);
        let pz = b.ptr("pz", z, 0);
        let py = b.ptr("py", y, 0);
        let vu = b.load("vu", pu, Some(MemRef::new(u, 0, 1)));
        let vu3 = b.load("vu3", pu3, Some(MemRef::new(u, 3, 1)));
        let vz = b.load("vz", pz, Some(MemRef::new(z, 0, 1)));
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let ry = b.mul("ry", vy, 0.5f64);
        let inner = b.add("inner", vz, ry);
        let rinner = b.mul("rinner", inner, 0.5f64);
        let t1 = b.add("t1", vu, rinner);
        let tu3 = b.mul("tu3", vu3, 0.125f64);
        let res = b.add("res", t1, tu3);
        b.store(px, res, Some(MemRef::new(x, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(pu, pu, 1);
        b.addr_add(pu3, pu3, 1);
        b.addr_add(pz, pz, 1);
        b.addr_add(py, py, 1);
        Kernel {
            name: "state_eqn",
            body: b.finish().expect("kernel is valid"),
            init: vec![(u, fvec(nu + 3)), (z, fvec(nu)), (y, fvec(nu))],
        }
    });

    // LFK 12: first difference — x[k] = y[k+1] − y[k].
    out.push({
        let mut b = LoopBuilder::new("first_diff", n);
        let x = b.array("x", nu);
        let y = b.array("y", nu + 1);
        let px = b.ptr("px", x, 0);
        let py0 = b.ptr("py0", y, 0);
        let py1 = b.ptr("py1", y, 1);
        let v0 = b.load("v0", py0, Some(MemRef::new(y, 0, 1)));
        let v1 = b.load("v1", py1, Some(MemRef::new(y, 1, 1)));
        let d = b.sub("d", v1, v0);
        b.store(px, d, Some(MemRef::new(x, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(py0, py0, 1);
        b.addr_add(py1, py1, 1);
        Kernel {
            name: "first_diff",
            body: b.finish().expect("kernel is valid"),
            init: vec![(y, fvec(nu + 1))],
        }
    });

    // saxpy: y[i] = y[i] + a·x[i].
    out.push({
        let mut b = LoopBuilder::new("saxpy", n);
        let x = b.array("x", nu);
        let y = b.array("y", nu);
        let px = b.ptr("px", x, 0);
        let py = b.ptr("py", y, 0);
        let a = b.live_in("a", Value::Float(2.5));
        let vx = b.load("vx", px, Some(MemRef::new(x, 0, 1)));
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let ax = b.mul("ax", a, vx);
        let s = b.add("s", vy, ax);
        b.store(py, s, Some(MemRef::new(y, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(py, py, 1);
        Kernel {
            name: "saxpy",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu)), (y, fvec(nu))],
        }
    });

    // Sum of squares with the running value stored.
    out.push({
        let mut b = LoopBuilder::new("norm", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let sq = b.mul("sq", v, v);
        b.rebind_add(s, s, sq);
        b.store(po, s, Some(MemRef::new(o, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "norm",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // Second-order register recurrence: w = w[-1] + 0.5·w[-2].
    out.push({
        let mut b = LoopBuilder::new("rec2", n);
        let o = b.array("o", nu);
        let po = b.ptr("po", o, 0);
        let w = b.fresh("w");
        b.bind_live_in(w, Value::Float(1.0));
        let two_back = b.back(w, 1);
        let half = b.op("half", ims_ir::Opcode::Mul, vec![two_back, 0.5f64.into()]);
        b.rebind_add(w, w, half);
        b.store(po, w, Some(MemRef::new(o, 0, 1)));
        b.addr_add(po, po, 1);
        Kernel {
            name: "rec2",
            body: b.finish().expect("kernel is valid"),
            init: vec![],
        }
    });

    // Gather through an index array (unanalyzable load address).
    out.push({
        let mut b = LoopBuilder::new("gather", n);
        let idx = b.array("idx", nu);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let pidx = b.ptr("pidx", idx, 0);
        let xbase = b.ptr("xbase", x, 0);
        let po = b.ptr("po", o, 0);
        let vi = b.load("vi", pidx, Some(MemRef::new(idx, 0, 1)));
        let addr = b.op(
            "addr",
            ims_ir::Opcode::AddrAdd,
            vec![xbase.into(), vi.into()],
        );
        let v = b.load("v", addr, None); // unanalyzable
        b.store(po, v, Some(MemRef::new(o, 0, 1)));
        b.addr_add(pidx, pidx, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "gather",
            body: b.finish().expect("kernel is valid"),
            init: vec![
                (
                    idx,
                    (0..nu)
                        .map(|i| Value::Int(((i * 5 + 1) % nu) as i64))
                        .collect(),
                ),
                (x, fvec(nu)),
            ],
        }
    });

    // Scatter through an index array (unanalyzable store address).
    out.push({
        let mut b = LoopBuilder::new("scatter", n);
        let idx = b.array("idx", nu);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let pidx = b.ptr("pidx", idx, 0);
        let obase = b.ptr("obase", o, 0);
        let px = b.ptr("px", x, 0);
        let vi = b.load("vi", pidx, Some(MemRef::new(idx, 0, 1)));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let addr = b.op(
            "addr",
            ims_ir::Opcode::AddrAdd,
            vec![obase.into(), vi.into()],
        );
        b.store(addr, v, None); // unanalyzable
        b.addr_add(pidx, pidx, 1);
        b.addr_add(px, px, 1);
        Kernel {
            name: "scatter",
            body: b.finish().expect("kernel is valid"),
            init: vec![
                (
                    idx,
                    (0..nu)
                        .map(|i| Value::Int(((i * 3 + 2) % nu) as i64))
                        .collect(),
                ),
                (x, fvec(nu)),
            ],
        }
    });

    // IF-converted conditional copy: out[i] = x[i] when x[i] > 2.
    out.push({
        let mut b = LoopBuilder::new("predicated_copy", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let p = b.pred_set("p", CmpKind::Gt, v, 2.0f64);
        let st = b.store(po, v, Some(MemRef::new(o, 0, 1)));
        b.guard(st, p);
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "predicated_copy",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // IF-converted two-way select: out[i] = x[i] > 2 ? x[i] : −x[i].
    out.push({
        let mut b = LoopBuilder::new("select", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let neg = b.sub("neg", 0.0f64, v);
        let p1 = b.pred_set("p1", CmpKind::Gt, v, 2.0f64);
        let p2 = b.pred_set("p2", CmpKind::Le, v, 2.0f64);
        let st1 = b.store(po, v, Some(MemRef::new(o, 0, 1)));
        b.guard(st1, p1);
        let st2 = b.store(po, neg, Some(MemRef::new(o, 0, 1)));
        b.guard(st2, p2);
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "select",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // LFK 24-flavor: running maximum, stored each iteration.
    out.push({
        let mut b = LoopBuilder::new("max_reduce", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let m = b.fresh("m");
        b.bind_live_in(m, Value::Float(f64::NEG_INFINITY));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        b.rebind(m, ims_ir::Opcode::Max, vec![m.into(), v.into()]);
        b.store(po, m, Some(MemRef::new(o, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "max_reduce",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // Absolute-value sum.
    out.push({
        let mut b = LoopBuilder::new("abs_sum", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let a = b.abs("a", v);
        b.rebind_add(s, s, a);
        b.store(po, s, Some(MemRef::new(o, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "abs_sum",
            body: b.finish().expect("kernel is valid"),
            init: vec![(
                x,
                (0..nu)
                    .map(|i| Value::Float(if i % 2 == 0 { 1.5 } else { -2.5 }))
                    .collect(),
            )],
        }
    });

    // Elementwise division (22-cycle unpipelined divide).
    out.push({
        let mut b = LoopBuilder::new("divide", n);
        let x = b.array("x", nu);
        let z = b.array("z", nu);
        let y = b.array("y", nu);
        let px = b.ptr("px", x, 0);
        let pz = b.ptr("pz", z, 0);
        let py = b.ptr("py", y, 0);
        let vx = b.load("vx", px, Some(MemRef::new(x, 0, 1)));
        let vz = b.load("vz", pz, Some(MemRef::new(z, 0, 1)));
        let q = b.div("q", vx, vz);
        b.store(py, q, Some(MemRef::new(y, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(pz, pz, 1);
        b.addr_add(py, py, 1);
        Kernel {
            name: "divide",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu)), (z, fvec(nu))],
        }
    });

    // Square root (26-cycle unpipelined).
    out.push({
        let mut b = LoopBuilder::new("sqrt_map", n);
        let x = b.array("x", nu);
        let y = b.array("y", nu);
        let px = b.ptr("px", x, 0);
        let py = b.ptr("py", y, 0);
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let a = b.abs("a", v);
        let r = b.sqrt("r", a);
        b.store(py, r, Some(MemRef::new(y, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(py, py, 1);
        Kernel {
            name: "sqrt_map",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // Three-point stencil: b[i] = (a[i] + a[i+1] + a[i+2]) / 3.
    out.push({
        let mut b = LoopBuilder::new("stencil3", n);
        let a = b.array("a", nu + 2);
        let o = b.array("o", nu);
        let p0 = b.ptr("p0", a, 0);
        let p1 = b.ptr("p1", a, 1);
        let p2 = b.ptr("p2", a, 2);
        let po = b.ptr("po", o, 0);
        let v0 = b.load("v0", p0, Some(MemRef::new(a, 0, 1)));
        let v1 = b.load("v1", p1, Some(MemRef::new(a, 1, 1)));
        let v2 = b.load("v2", p2, Some(MemRef::new(a, 2, 1)));
        let s1 = b.add("s1", v0, v1);
        let s2 = b.add("s2", s1, v2);
        let r = b.mul("r", s2, 1.0f64 / 3.0);
        b.store(po, r, Some(MemRef::new(o, 0, 1)));
        b.addr_add(p0, p0, 1);
        b.addr_add(p1, p1, 1);
        b.addr_add(p2, p2, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "stencil3",
            body: b.finish().expect("kernel is valid"),
            init: vec![(a, fvec(nu + 2))],
        }
    });

    // Wavefront: a[i+2] = a[i+1] − a[i] (memory recurrence, distances 1, 2).
    out.push({
        let mut b = LoopBuilder::new("wavefront", n);
        let a = b.array("a", nu + 2);
        let p0 = b.ptr("p0", a, 0);
        let p1 = b.ptr("p1", a, 1);
        let p2 = b.ptr("p2", a, 2);
        let v0 = b.load("v0", p0, Some(MemRef::new(a, 0, 1)));
        let v1 = b.load("v1", p1, Some(MemRef::new(a, 1, 1)));
        let d = b.sub("d", v1, v0);
        b.store(p2, d, Some(MemRef::new(a, 2, 1)));
        b.addr_add(p0, p0, 1);
        b.addr_add(p1, p1, 1);
        b.addr_add(p2, p2, 1);
        Kernel {
            name: "wavefront",
            body: b.finish().expect("kernel is valid"),
            init: vec![(a, vec![Value::Float(5.0), Value::Float(3.0)])],
        }
    });

    // Plain copy.
    out.push({
        let mut b = LoopBuilder::new("copy", n);
        let a = b.array("a", nu);
        let o = b.array("o", nu);
        let pa = b.ptr("pa", a, 0);
        let po = b.ptr("po", o, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        b.store(po, v, Some(MemRef::new(o, 0, 1)));
        b.addr_add(pa, pa, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "copy",
            body: b.finish().expect("kernel is valid"),
            init: vec![(a, fvec(nu))],
        }
    });

    // In-place scale.
    out.push({
        let mut b = LoopBuilder::new("scale", n);
        let a = b.array("a", nu);
        let pa = b.ptr("pa", a, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        let w = b.mul("w", v, 1.25f64);
        b.store(pa, w, Some(MemRef::new(a, 0, 1)));
        b.addr_add(pa, pa, 1);
        Kernel {
            name: "scale",
            body: b.finish().expect("kernel is valid"),
            init: vec![(a, fvec(nu))],
        }
    });

    // Strided complex-like update: c[2i] += c[2i+1].
    out.push({
        let mut b = LoopBuilder::new("stride2", n);
        let c = b.array("c", 2 * nu);
        let pre = b.ptr("pre", c, 0);
        let pim = b.ptr("pim", c, 1);
        let vr = b.load("vr", pre, Some(MemRef::new(c, 0, 2)));
        let vi = b.load("vi", pim, Some(MemRef::new(c, 1, 2)));
        let s = b.add("s", vr, vi);
        b.store(pre, s, Some(MemRef::new(c, 0, 2)));
        b.addr_add(pre, pre, 2);
        b.addr_add(pim, pim, 2);
        Kernel {
            name: "stride2",
            body: b.finish().expect("kernel is valid"),
            init: vec![(c, fvec(2 * nu))],
        }
    });

    // Explicit count-down loop control with the loop-closing branch.
    out.push({
        let mut b = LoopBuilder::new("branch_loop", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let cnt = b.fresh("cnt");
        b.bind_live_in(cnt, Value::Int(n as i64));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let w = b.add("w", v, 1.0f64);
        b.store(po, w, Some(MemRef::new(o, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        b.addr_sub(cnt, cnt, 1);
        b.branch(cnt);
        Kernel {
            name: "branch_loop",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // LFK 7 long form.
    out.push({
        let mut b = LoopBuilder::new("state_frag_long", n);
        let x = b.array("x", nu);
        let u = b.array("u", nu + 3);
        let y = b.array("y", nu);
        let z = b.array("z", nu);
        let px = b.ptr("px", x, 0);
        let pu0 = b.ptr("pu0", u, 0);
        let pu1 = b.ptr("pu1", u, 1);
        let pu2 = b.ptr("pu2", u, 2);
        let pu3 = b.ptr("pu3", u, 3);
        let py = b.ptr("py", y, 0);
        let pz = b.ptr("pz", z, 0);
        let r = b.live_in("r", Value::Float(0.5));
        let t = b.live_in("t", Value::Float(0.25));
        let vu0 = b.load("vu0", pu0, Some(MemRef::new(u, 0, 1)));
        let vu1 = b.load("vu1", pu1, Some(MemRef::new(u, 1, 1)));
        let vu2 = b.load("vu2", pu2, Some(MemRef::new(u, 2, 1)));
        let vu3 = b.load("vu3", pu3, Some(MemRef::new(u, 3, 1)));
        let vy = b.load("vy", py, Some(MemRef::new(y, 0, 1)));
        let vz = b.load("vz", pz, Some(MemRef::new(z, 0, 1)));
        let ry = b.mul("ry", r, vy);
        let zin = b.add("zin", vz, ry);
        let rzin = b.mul("rzin", r, zin);
        let left = b.add("left", vu0, rzin);
        let ru1 = b.mul("ru1", r, vu1);
        let in2 = b.add("in2", vu2, ru1);
        let rin2 = b.mul("rin2", r, in2);
        let in3 = b.add("in3", vu3, rin2);
        let right = b.mul("right", t, in3);
        let res = b.add("res", left, right);
        b.store(px, res, Some(MemRef::new(x, 0, 1)));
        for p in [px, pu0, pu1, pu2, pu3, py, pz] {
            b.addr_add(p, p, 1);
        }
        Kernel {
            name: "state_frag_long",
            body: b.finish().expect("kernel is valid"),
            init: vec![(u, fvec(nu + 3)), (y, fvec(nu)), (z, fvec(nu))],
        }
    });

    // Running max written to a fixed location (stride-0 store).
    out.push({
        let mut b = LoopBuilder::new("peak_store", n);
        let x = b.array("x", nu);
        let o = b.array("o", 1);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let m = b.fresh("m");
        b.bind_live_in(m, Value::Float(f64::NEG_INFINITY));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        b.rebind(m, ims_ir::Opcode::Max, vec![m.into(), v.into()]);
        b.store(po, m, Some(MemRef::new(o, 0, 0)));
        b.addr_add(px, px, 1);
        Kernel {
            name: "peak_store",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // Loop-invariant product applied elementwise.
    out.push({
        let mut b = LoopBuilder::new("invariant_mul", n);
        let x = b.array("x", nu);
        let y = b.array("y", nu);
        let px = b.ptr("px", x, 0);
        let py = b.ptr("py", y, 0);
        let a = b.live_in("a", Value::Float(1.5));
        let c = b.live_in("c", Value::Float(2.0));
        let ac = b.mul("ac", a, c);
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let w = b.mul("w", ac, v);
        b.store(py, w, Some(MemRef::new(y, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(py, py, 1);
        Kernel {
            name: "invariant_mul",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // Reverse copy: reads run backward through the source (negative
    // stride), exercising the d < 0 branch of the memory analyzer.
    out.push({
        let mut b = LoopBuilder::new("reverse_copy", n);
        let a = b.array("a", nu);
        let o = b.array("o", nu);
        let pa = b.ptr("pa", a, nu as i64 - 1);
        let po = b.ptr("po", o, 0);
        let v = b.load("v", pa, Some(MemRef::new(a, nu as i64 - 1, -1)));
        b.store(po, v, Some(MemRef::new(o, 0, 1)));
        b.addr_sub(pa, pa, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "reverse_copy",
            body: b.finish().expect("kernel is valid"),
            init: vec![(a, fvec(nu))],
        }
    });

    // LFK 4 flavor: banded linear equations fragment —
    // x[i] = x[i] - g[i]*x[i+5] with a fixed band offset.
    out.push({
        let mut b = LoopBuilder::new("banded", n);
        let x = b.array("x", nu + 5);
        let g = b.array("g", nu);
        let px = b.ptr("px", x, 0);
        let pb = b.ptr("pb", x, 5);
        let pg = b.ptr("pg", g, 0);
        let vx = b.load("vx", px, Some(MemRef::new(x, 0, 1)));
        let vb = b.load("vb", pb, Some(MemRef::new(x, 5, 1)));
        let vg = b.load("vg", pg, Some(MemRef::new(g, 0, 1)));
        let prod = b.mul("prod", vg, vb);
        let res = b.sub("res", vx, prod);
        b.store(px, res, Some(MemRef::new(x, 0, 1)));
        b.addr_add(px, px, 1);
        b.addr_add(pb, pb, 1);
        b.addr_add(pg, pg, 1);
        Kernel {
            name: "banded",
            body: b.finish().expect("kernel is valid"),
            init: vec![
                (x, fvec(nu + 5)),
                (
                    g,
                    (0..nu)
                        .map(|i| Value::Float(0.25 + (i % 2) as f64 / 8.0))
                        .collect(),
                ),
            ],
        }
    });

    // Complex multiply by a constant (interleaved re/im, stride 2):
    // (re, im) = (re*cr - im*ci, re*ci + im*cr).
    out.push({
        let mut b = LoopBuilder::new("complex_mul", n);
        let c = b.array("c", 2 * nu);
        let pre = b.ptr("pre", c, 0);
        let pim = b.ptr("pim", c, 1);
        let cr = b.live_in("cr", Value::Float(0.8));
        let ci = b.live_in("ci", Value::Float(0.6));
        let re = b.load("re", pre, Some(MemRef::new(c, 0, 2)));
        let im = b.load("im", pim, Some(MemRef::new(c, 1, 2)));
        let rr = b.mul("rr", re, cr);
        let ii_ = b.mul("ii", im, ci);
        let ri = b.mul("ri", re, ci);
        let ir = b.mul("ir", im, cr);
        let nre = b.sub("nre", rr, ii_);
        let nim = b.add("nim", ri, ir);
        b.store(pre, nre, Some(MemRef::new(c, 0, 2)));
        b.store(pim, nim, Some(MemRef::new(c, 1, 2)));
        b.addr_add(pre, pre, 2);
        b.addr_add(pim, pim, 2);
        Kernel {
            name: "complex_mul",
            body: b.finish().expect("kernel is valid"),
            init: vec![(c, fvec(2 * nu))],
        }
    });

    // Two independent accumulators (two trivial SCCs on the adder).
    out.push({
        let mut b = LoopBuilder::new("two_accumulators", n);
        let x = b.array("x", nu);
        let o = b.array("o", 2);
        let px = b.ptr("px", x, 0);
        let po0 = b.ptr("po0", o, 0);
        let po1 = b.ptr("po1", o, 1);
        let s_even = b.fresh("s_even");
        b.bind_live_in(s_even, Value::Float(0.0));
        let s_odd = b.fresh("s_odd");
        b.bind_live_in(s_odd, Value::Float(0.0));
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let sq = b.mul("sq", v, v);
        b.rebind_add(s_even, s_even, v);
        b.rebind_add(s_odd, s_odd, sq);
        b.store(po0, s_even, Some(MemRef::new(o, 0, 0)));
        b.store(po1, s_odd, Some(MemRef::new(o, 1, 0)));
        b.addr_add(px, px, 1);
        Kernel {
            name: "two_accumulators",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    // Predicated clipping with a precomputed predicate-clear fallback:
    // out[i] = min(x[i], 4.0), but written as an IF-converted clamp that
    // also exercises PredClear.
    out.push({
        let mut b = LoopBuilder::new("clamp", n);
        let x = b.array("x", nu);
        let o = b.array("o", nu);
        let px = b.ptr("px", x, 0);
        let po = b.ptr("po", o, 0);
        let v = b.load("v", px, Some(MemRef::new(x, 0, 1)));
        let over = b.pred_set("over", CmpKind::Gt, v, 4.0f64);
        let under = b.pred_set("under", CmpKind::Le, v, 4.0f64);
        let _dead = b.pred_clear("dead");
        let st1 = b.store(po, 4.0f64, Some(MemRef::new(o, 0, 1)));
        b.guard(st1, over);
        let st2 = b.store(po, v, Some(MemRef::new(o, 0, 1)));
        b.guard(st2, under);
        b.addr_add(px, px, 1);
        b.addr_add(po, po, 1);
        Kernel {
            name: "clamp",
            body: b.finish().expect("kernel is valid"),
            init: vec![(x, fvec(nu))],
        }
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::validate::validate;

    #[test]
    fn all_kernels_validate() {
        for k in kernels(16) {
            assert!(validate(&k.body).is_ok(), "{} failed validation", k.name);
        }
    }

    #[test]
    fn kernel_names_are_unique() {
        let ks = kernels(8);
        let mut names: Vec<&str> = ks.iter().map(|k| k.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ks.len());
    }

    #[test]
    fn corpus_has_a_healthy_variety() {
        let ks = kernels(16);
        assert!(ks.len() >= 20, "only {} kernels", ks.len());
        // At least one kernel with predication, one with a branch, one with
        // an unanalyzable access, one with divide, one with sqrt.
        assert!(ks
            .iter()
            .any(|k| k.body.ops().iter().any(|o| o.pred.is_some())));
        assert!(ks.iter().any(|k| k
            .body
            .ops()
            .iter()
            .any(|o| o.opcode == ims_ir::Opcode::Branch)));
        assert!(ks.iter().any(|k| k
            .body
            .ops()
            .iter()
            .any(|o| o.opcode.is_mem() && o.mem.is_none())));
        assert!(ks
            .iter()
            .any(|k| k.body.ops().iter().any(|o| o.opcode == ims_ir::Opcode::Div)));
        assert!(ks.iter().any(|k| k
            .body
            .ops()
            .iter()
            .any(|o| o.opcode == ims_ir::Opcode::Sqrt)));
    }

    #[test]
    fn init_arrays_fit_declarations() {
        for k in kernels(12) {
            for (array, data) in &k.init {
                let decl = &k.body.arrays()[array.index()];
                assert!(
                    data.len() <= decl.len,
                    "{}: init for {} overflows",
                    k.name,
                    decl.name
                );
            }
        }
    }

    #[test]
    fn trip_counts_propagate() {
        for k in kernels(9) {
            assert_eq!(k.body.trip_count(), 9, "{}", k.name);
        }
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_trip_count_rejected() {
        let _ = kernels(3);
    }
}
