//! Building a scheduling problem from a loop body.

use ims_core::{Problem, ProblemBuilder};
use ims_graph::{DepKind, NodeId};
use ims_ir::{LoopBody, OpId, Opcode, RegUse, VReg};
use ims_machine::MachineModel;

use crate::delay::{delay, DelayModel};

/// Options controlling dependence construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildOptions {
    /// Which Table 1 column computes edge delays.
    pub delay_model: DelayModel,
}

/// The dependence-graph node corresponding to an IR operation.
///
/// [`build_problem`] adds operations in body order, so the mapping is
/// `OpId(i) → NodeId(i + 1)` (node 0 is START).
pub fn node_of(op: OpId) -> NodeId {
    NodeId(op.0 + 1)
}

/// The defining operation of every register of one body, built in one pass
/// over its operations. Every register use is resolved through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefSites {
    /// The first operation defining each register, by [`VReg`] index.
    def: Vec<Option<OpId>>,
}

impl DefSites {
    /// Indexes the definitions of `body`.
    pub fn new(body: &LoopBody) -> Self {
        let mut def = vec![None; body.num_vregs()];
        for (id, op) in body.iter() {
            if let Some(d) = op.dest {
                def[d.index()].get_or_insert(id);
            }
        }
        DefSites { def }
    }

    /// The operation defining `reg`, or `None` when `reg` is a pure live-in
    /// (defined by no operation).
    pub fn def(&self, reg: VReg) -> Option<OpId> {
        self.def.get(reg.index()).copied().flatten()
    }

    /// Resolves a register use at operation `at` to `(defining op, iteration
    /// distance)`, or `None` when the register is a pure live-in.
    ///
    /// The distance rule is the dynamic-single-assignment positional rule: a
    /// definition strictly earlier in the body is read at distance 0; a
    /// definition at or after the use is the previous iteration's value
    /// (distance 1); [`RegUse::prev`] adds further iterations.
    pub fn resolve(&self, at: OpId, u: RegUse) -> Option<(OpId, u32)> {
        self.def(u.reg).map(|def| {
            let positional = if def.index() < at.index() { 0 } else { 1 };
            (def, positional + u.prev)
        })
    }

    /// The deepest iteration lag at which each register of `body`, the body
    /// this index was built from, is read, by register index (0 for a
    /// register never read through a definition).
    pub fn max_lags(&self, body: &LoopBody) -> Vec<u32> {
        let mut max_lag = vec![0; body.num_vregs()];
        for (at, op) in body.iter() {
            for u in op.reg_uses() {
                if let Some((_, d)) = self.resolve(at, u) {
                    max_lag[u.reg.index()] = max_lag[u.reg.index()].max(d);
                }
            }
        }
        max_lag
    }
}

/// Analyzes `body` and produces the modulo-scheduling problem for `machine`.
///
/// See the crate docs for the dependence rules. The body is assumed to be
/// valid per [`ims_ir::validate::validate`] (the `LoopBuilder` guarantees
/// this).
///
/// # Panics
///
/// Panics if the machine does not implement an opcode used by the body.
pub fn build_problem<'m>(
    body: &LoopBody,
    machine: &'m MachineModel,
    options: &BuildOptions,
) -> Problem<'m> {
    let mut pb = ProblemBuilder::new(machine);
    for (id, op) in body.iter() {
        let n = pb.add_op(op.opcode, id);
        debug_assert_eq!(n, node_of(id));
    }

    let lat = |op: OpId| machine.latency(body.op(op).opcode) as i64;
    let model = options.delay_model;

    // Register and predicate dependences.
    let sites = DefSites::new(body);
    for (use_id, op) in body.iter() {
        let mut add_use = |u: RegUse, kind: DepKind| {
            if let Some((def_id, distance)) = sites.resolve(use_id, u) {
                let d = delay(kind, lat(def_id), lat(use_id), model);
                pb.add_dep(node_of(def_id), node_of(use_id), d, distance, kind, false);
            }
            // Pure live-ins have no defining operation and hence no edge.
        };
        for s in &op.srcs {
            if let Some(u) = s.as_reg() {
                add_use(u, DepKind::Flow);
            }
        }
        if let Some(p) = op.pred {
            add_use(p, DepKind::Control);
        }
    }

    // Memory dependences: every (earlier, later) pair with at least one
    // store, including an op against itself across iterations.
    let mem_ops: Vec<OpId> = body
        .iter()
        .filter(|(_, op)| op.opcode.is_mem())
        .map(|(id, _)| id)
        .collect();
    for (x, &i) in mem_ops.iter().enumerate() {
        for &j in &mem_ops[x..] {
            let oi = body.op(i);
            let oj = body.op(j);
            let i_store = oi.opcode == Opcode::Store;
            let j_store = oj.opcode == Opcode::Store;
            if !i_store && !j_store {
                continue;
            }
            let kind_fwd = mem_dep_kind(i_store, j_store);
            match (oi.mem, oj.mem) {
                (Some(a), Some(b)) if a.array == b.array && a.stride == b.stride => {
                    let s = a.stride;
                    if s == 0 {
                        if a.offset == b.offset {
                            // Same element every iteration.
                            conservative_pair(&mut pb, body, machine, model, i, j);
                        }
                    } else {
                        let diff = a.offset - b.offset;
                        if diff.rem_euclid(s) == 0 {
                            // op_i at iteration x touches what op_j touches
                            // at iteration x + d.
                            let d = diff / s;
                            if d > 0 {
                                let dl = delay(kind_fwd, lat(i), lat(j), model);
                                pb.add_dep(node_of(i), node_of(j), dl, d as u32, kind_fwd, true);
                            } else if d < 0 {
                                if i != j {
                                    let kind_rev = mem_dep_kind(j_store, i_store);
                                    let dl = delay(kind_rev, lat(j), lat(i), model);
                                    pb.add_dep(
                                        node_of(j),
                                        node_of(i),
                                        dl,
                                        (-d) as u32,
                                        kind_rev,
                                        true,
                                    );
                                }
                                // d < 0 with i == j cannot happen (diff = 0).
                            } else if i != j {
                                // Same iteration: order by body position.
                                let dl = delay(kind_fwd, lat(i), lat(j), model);
                                pb.add_dep(node_of(i), node_of(j), dl, 0, kind_fwd, true);
                            }
                        }
                    }
                }
                (Some(a), Some(b)) if a.array != b.array => {
                    // Distinct arrays never alias: no dependence.
                }
                _ => {
                    // Unknown or stride-mismatched accesses: assume aliasing.
                    conservative_pair(&mut pb, body, machine, model, i, j);
                }
            }
        }
    }

    pb.finish()
}

fn mem_dep_kind(pred_is_store: bool, succ_is_store: bool) -> DepKind {
    match (pred_is_store, succ_is_store) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (false, false) => unreachable!("load-load pairs are filtered out"),
    }
}

/// Conservative aliasing: `i` before `j` in the same iteration (distance 0,
/// skipped when `i == j`) and `j` before next iteration's `i` (distance 1).
fn conservative_pair(
    pb: &mut ProblemBuilder<'_>,
    body: &LoopBody,
    machine: &MachineModel,
    model: DelayModel,
    i: OpId,
    j: OpId,
) {
    let lat = |op: OpId| machine.latency(body.op(op).opcode) as i64;
    let i_store = body.op(i).opcode == Opcode::Store;
    let j_store = body.op(j).opcode == Opcode::Store;
    if i != j {
        let kf = mem_dep_kind(i_store, j_store);
        pb.add_dep(
            node_of(i),
            node_of(j),
            delay(kf, lat(i), lat(j), model),
            0,
            kf,
            true,
        );
    }
    let kr = mem_dep_kind(j_store, i_store);
    pb.add_dep(
        node_of(j),
        node_of(i),
        delay(kr, lat(j), lat(i), model),
        1,
        kr,
        true,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::{LoopBuilder, MemRef, Value};
    use ims_machine::{cydra, minimal};

    fn find_edge<'a>(p: &'a Problem<'_>, from: OpId, to: OpId) -> Option<&'a ims_graph::DepEdge> {
        p.graph()
            .edges()
            .iter()
            .find(|e| e.from == node_of(from) && e.to == node_of(to) && e.kind != DepKind::Control)
    }

    #[test]
    fn same_iteration_flow_dep() {
        let m = minimal();
        let mut b = LoopBuilder::new("t", 4);
        let x = b.live_in("x", Value::Int(1));
        let y = b.add("y", x, 1i64);
        let _z = b.mul("z", y, y);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let e = find_edge(&p, OpId(0), OpId(1)).expect("flow edge y->z");
        assert_eq!(e.distance, 0);
        assert_eq!(e.delay, 1); // minimal(): all latencies 1
        assert_eq!(e.kind, DepKind::Flow);
    }

    #[test]
    fn accumulator_is_distance_one_self_edge() {
        let m = cydra();
        let mut b = LoopBuilder::new("acc", 4);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        b.rebind_add(s, s, 1.0f64);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let e = find_edge(&p, OpId(0), OpId(0)).expect("self edge");
        assert_eq!(e.distance, 1);
        assert_eq!(e.delay, 4); // Add latency on cydra
    }

    #[test]
    fn use_before_def_is_loop_carried() {
        let m = minimal();
        let mut b = LoopBuilder::new("t", 4);
        let x = b.fresh("x");
        b.bind_live_in(x, Value::Int(0));
        let _y = b.copy("y", x); // op0 uses x, defined by op1: distance 1
        b.addr_add(x, x, 1); // op1
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let e = find_edge(&p, OpId(1), OpId(0)).expect("loop-carried edge");
        assert_eq!(e.distance, 1);
    }

    #[test]
    fn prev_adds_iterations() {
        let m = minimal();
        let mut b = LoopBuilder::new("fib", 8);
        let x = b.fresh("x");
        b.bind_live_in(x, Value::Int(1));
        let two_back = b.back(x, 1);
        b.rebind(x, Opcode::Add, vec![x.into(), two_back]);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let dists: Vec<u32> = p
            .graph()
            .edges()
            .iter()
            .filter(|e| e.from == node_of(OpId(0)) && e.to == node_of(OpId(0)))
            .map(|e| e.distance)
            .collect();
        assert!(dists.contains(&1), "x[-1] use");
        assert!(dists.contains(&2), "x[-2] use (prev=1 on a self use)");
    }

    #[test]
    fn predicate_input_is_a_control_edge() {
        let m = cydra();
        let mut b = LoopBuilder::new("pred", 4);
        let x = b.live_in("x", Value::Float(1.0));
        let pr = b.pred_set("p", ims_ir::CmpKind::Gt, x, 0.0f64);
        let y = b.fresh("y");
        b.bind_live_in(y, Value::Float(0.0));
        let op = b.rebind(y, Opcode::Copy, vec![x.into()]);
        b.guard(op, pr);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let e = p
            .graph()
            .edges()
            .iter()
            .find(|e| {
                e.from == node_of(OpId(0)) && e.to == node_of(op) && e.kind == DepKind::Control
            })
            .expect("predicate edge");
        assert_eq!(e.delay, 1); // PredSet latency on cydra
        assert_eq!(e.distance, 0);
    }

    #[test]
    fn affine_memory_distance() {
        // store a[i]; load a[i-2]: flow dep store->load, distance 2.
        let m = cydra();
        let mut b = LoopBuilder::new("mem", 16);
        let arr = b.array("a", 32);
        let ps = b.ptr("ps", arr, 2);
        let pl = b.ptr("pl", arr, 0);
        let x = b.live_in("x", Value::Float(1.0));
        b.store(ps, x, Some(MemRef::new(arr, 2, 1)));
        let _v = b.load("v", pl, Some(MemRef::new(arr, 0, 1)));
        b.addr_add(ps, ps, 1);
        b.addr_add(pl, pl, 1);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let e = p
            .graph()
            .edges()
            .iter()
            .find(|e| e.is_mem)
            .expect("memory edge");
        assert_eq!(e.kind, DepKind::Flow);
        assert_eq!(e.from, node_of(OpId(0)));
        assert_eq!(e.to, node_of(OpId(1)));
        assert_eq!(e.distance, 2);
        assert_eq!(e.delay, 1); // store latency
    }

    #[test]
    fn reverse_affine_distance_flips_edge() {
        // load a[i+1]; store a[i]: the store at iteration x+1 writes what
        // the load read at iteration x: anti-dep load->store distance 1.
        let m = cydra();
        let mut b = LoopBuilder::new("mem2", 16);
        let arr = b.array("a", 32);
        let pl = b.ptr("pl", arr, 1);
        let ps = b.ptr("ps", arr, 0);
        let v = b.load("v", pl, Some(MemRef::new(arr, 1, 1)));
        b.store(ps, v, Some(MemRef::new(arr, 0, 1)));
        b.addr_add(pl, pl, 1);
        b.addr_add(ps, ps, 1);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let e = p
            .graph()
            .edges()
            .iter()
            .find(|e| e.is_mem && e.kind == DepKind::Anti)
            .expect("anti memory edge");
        assert_eq!(e.from, node_of(OpId(0)));
        assert_eq!(e.to, node_of(OpId(1)));
        assert_eq!(e.distance, 1);
    }

    #[test]
    fn disjoint_arrays_have_no_memory_edges() {
        let m = cydra();
        let mut b = LoopBuilder::new("mem3", 16);
        let arr_a = b.array("a", 32);
        let arr_b = b.array("b", 32);
        let pa = b.ptr("pa", arr_a, 0);
        let pb_ = b.ptr("pb", arr_b, 0);
        let v = b.load("v", pa, Some(MemRef::new(arr_a, 0, 1)));
        b.store(pb_, v, Some(MemRef::new(arr_b, 0, 1)));
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        assert!(!p.graph().edges().iter().any(|e| e.is_mem));
    }

    #[test]
    fn unannotated_accesses_are_conservative() {
        let m = cydra();
        let mut b = LoopBuilder::new("mem4", 16);
        let addr = b.live_in("addr", Value::Int(0));
        let v = b.load("v", addr, None);
        b.store(addr, v, None);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        // load->store distance 0 (anti) and store->load distance 1 (flow).
        assert!(p
            .graph()
            .edges()
            .iter()
            .any(|e| e.is_mem && e.kind == DepKind::Anti && e.distance == 0));
        assert!(p
            .graph()
            .edges()
            .iter()
            .any(|e| e.is_mem && e.kind == DepKind::Flow && e.distance == 1));
    }

    #[test]
    fn store_store_same_location_output_dep() {
        let m = cydra();
        let mut b = LoopBuilder::new("mem5", 16);
        let arr = b.array("a", 4);
        let pa = b.ptr("pa", arr, 0);
        let x = b.live_in("x", Value::Int(1));
        // Two stores to the invariant location a[0] each iteration.
        b.store(pa, x, Some(MemRef::new(arr, 0, 0)));
        b.store(pa, x, Some(MemRef::new(arr, 0, 0)));
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let outputs: Vec<_> = p
            .graph()
            .edges()
            .iter()
            .filter(|e| e.is_mem && e.kind == DepKind::Output)
            .collect();
        // Same-iteration order + cross-iteration order, including the
        // stores' self-dependences at distance 1.
        assert!(outputs.iter().any(|e| e.distance == 0));
        assert!(outputs.iter().any(|e| e.distance == 1));
        assert!(outputs.iter().any(|e| e.from == e.to && e.distance == 1));
    }

    #[test]
    fn live_in_only_registers_produce_no_edges() {
        let m = minimal();
        let mut b = LoopBuilder::new("inv", 4);
        let k = b.live_in("k", Value::Float(2.0));
        let _x = b.mul("x", k, k);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        assert_eq!(p.num_real_edges(), 0);
    }

    #[test]
    fn conservative_model_changes_anti_delays() {
        let m = cydra();
        let mut b = LoopBuilder::new("mem6", 16);
        let addr = b.live_in("addr", Value::Int(0));
        let v = b.load("v", addr, None);
        b.store(addr, v, None);
        let body = b.finish().unwrap();
        let vliw = build_problem(&body, &m, &BuildOptions::default());
        let cons = build_problem(
            &body,
            &m,
            &BuildOptions {
                delay_model: DelayModel::Conservative,
            },
        );
        let anti_delay = |p: &Problem<'_>| {
            p.graph()
                .edges()
                .iter()
                .find(|e| e.kind == DepKind::Anti)
                .map(|e| e.delay)
                .unwrap()
        };
        assert_eq!(anti_delay(&vliw), 0); // 1 - store latency 1
        assert_eq!(anti_delay(&cons), 0);
    }
}
