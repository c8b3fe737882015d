//! Loop unrolling — the substrate of the "unroll-before-scheduling"
//! baseline the paper argues against (§1, §4.3).
//!
//! "Unroll-before-scheduling" schemes *"unroll the loop some number of
//! times and apply a global acyclic scheduling algorithm to the unrolled
//! loop body … but still maintain a scheduling barrier at the back-edge"*.
//! §4.3 quantifies the trade: to be competitive with iterative modulo
//! scheduling, such a scheme *"would need to get within 2.8% of the lower
//! bound on execution time without unrolling the loop body to more than
//! 2.18 times its original size"*.
//!
//! [`unroll`] produces the unrolled body in the same dynamic-single-
//! assignment IR: registers are renamed per copy, loop-carried uses are
//! re-resolved across copies (with `prev` reaching to earlier unrolled
//! iterations when the dependence distance exceeds the unroll factor),
//! affine memory descriptors are rescaled (`stride·U`, `offset + stride·k`),
//! and per-lag live-in seeds are recomputed. The result is a valid loop
//! body: it can be scheduled *and* executed, and executing it for
//! `n / U` iterations is semantically identical to the original for `n`
//! (tested).

use std::collections::HashMap;

use ims_ir::{LoopBody, Opcode, Operand, RegUse, VReg};

use crate::build::DefSites;

/// Unrolls `body` by `factor`, returning a new loop body whose single
/// iteration performs `factor` original iterations.
///
/// The unrolled body keeps one loop-closing branch (the last copy's); the
/// other copies' branches are dropped, which is what an unroller's
/// iteration-count rewrite does. The trip count becomes
/// `trip_count / factor` (the caller is responsible for remainder
/// iterations; for scheduling-cost analysis the remainder is irrelevant).
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn unroll(body: &LoopBody, factor: u32) -> LoopBody {
    assert!(factor >= 1, "unroll factor must be at least 1");
    let u = factor;
    let mut out = LoopBody::new(
        format!("{}_x{}", body.name(), u),
        (body.trip_count() / u).max(1),
    );
    for a in body.arrays() {
        out.add_array(a.name.clone(), a.len);
    }

    // Register maps: defined registers get one fresh name per copy; pure
    // live-ins are shared across copies.
    let mut defined_map: HashMap<(u32, VReg), VReg> = HashMap::new();
    let mut shared_map: HashMap<VReg, VReg> = HashMap::new();
    for (_, op) in body.iter() {
        if let Some(d) = op.dest {
            for k in 0..u {
                defined_map.insert((k, d), out.new_vreg());
            }
        }
    }
    let mut shared = |out: &mut LoopBody, v: VReg| -> VReg {
        *shared_map.entry(v).or_insert_with(|| out.new_vreg())
    };

    let sites = DefSites::new(body);

    // Emit the copies.
    for k in 0..u {
        for (id, op) in body.iter() {
            if op.opcode == Opcode::Branch && k != u - 1 {
                continue; // Only the last copy closes the loop.
            }
            let mut new_op = op.clone();
            new_op.dest = op.dest.map(|d| defined_map[&(k, d)]);
            if let Some(m) = op.mem {
                new_op.mem = Some(ims_ir::MemRef::new(
                    m.array,
                    m.offset + m.stride * k as i64,
                    m.stride * u as i64,
                ));
            }
            let mut remap = |out: &mut LoopBody, use_: RegUse| -> RegUse {
                match sites.resolve(id, use_) {
                    None => RegUse::new(shared(out, use_.reg)),
                    Some((def_id, d)) => {
                        // Source instance: copy r, `q` unrolled iterations
                        // back.
                        let t = k as i64 - d as i64;
                        let r = t.rem_euclid(u as i64) as u32;
                        let q = ((r as i64 - t) / u as i64) as u32;
                        // Positional distance of the renamed use: 1 when
                        // the def copy comes at/after this use in the new
                        // body order.
                        let positional = match r.cmp(&k) {
                            std::cmp::Ordering::Less => 0,
                            std::cmp::Ordering::Greater => 1,
                            std::cmp::Ordering::Equal => u32::from(def_id.index() >= id.index()),
                        };
                        debug_assert!(q >= positional, "distance arithmetic is consistent");
                        RegUse::back(defined_map[&(r, use_.reg)], q - positional)
                    }
                }
            };
            for s in &mut new_op.srcs {
                if let Operand::Reg(use_) = s {
                    *s = Operand::Reg(remap(&mut out, *use_));
                }
            }
            if let Some(p) = op.pred {
                new_op.pred = Some(remap(&mut out, p));
            }
            out.push(new_op);
        }
    }

    // Live-in seeding. Instance (unrolled -L, copy r) is original global
    // iteration -(L·u - r), i.e. original lag L·u - r; bind enough lags to
    // cover every read.
    let max_lag = sites.max_lags(body);
    let mut bound: Vec<(VReg, u32)> = Vec::new();
    for li in body.live_ins() {
        if li.lag != 1 {
            continue; // Handled through live_in_value's lag lookup below.
        }
        if sites.def(li.reg).is_none() {
            if let Some(&nv) = shared_map.get(&li.reg) {
                out.add_live_in(nv, li.value);
            }
            continue;
        }
        let deepest = max_lag[li.reg.index()].max(1);
        for r in 0..u {
            let nv = defined_map[&(r, li.reg)];
            let max_l = deepest / u + 2;
            for l in 1..=max_l {
                let orig_lag = l * u - r;
                if orig_lag == 0 {
                    continue;
                }
                if let Some(v) = body.live_in_value(li.reg, orig_lag) {
                    if !bound.contains(&(nv, l)) {
                        bound.push((nv, l));
                        out.add_live_in_lag(nv, l, v);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::{validate::validate, LoopBuilder, MemRef, Value};

    fn sum_loop(n: u32) -> LoopBody {
        let mut b = LoopBuilder::new("sum", n);
        let a = b.array("a", n as usize);
        let pa = b.ptr("pa", a, 0);
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        b.rebind_add(s, s, v);
        b.addr_add(pa, pa, 1);
        b.finish().unwrap()
    }

    #[test]
    fn unrolled_bodies_validate() {
        let body = sum_loop(16);
        for u in [1, 2, 3, 4, 8] {
            let unrolled = unroll(&body, u);
            assert!(validate(&unrolled).is_ok(), "factor {u}");
            assert_eq!(unrolled.num_ops(), body.num_ops() * u as usize);
            assert_eq!(unrolled.trip_count(), 16 / u);
        }
    }

    #[test]
    fn memory_descriptors_rescale() {
        let body = sum_loop(16);
        let unrolled = unroll(&body, 4);
        let loads: Vec<_> = unrolled
            .ops()
            .iter()
            .filter(|o| o.opcode == Opcode::Load)
            .collect();
        assert_eq!(loads.len(), 4);
        for (k, l) in loads.iter().enumerate() {
            let m = l.mem.unwrap();
            assert_eq!(m.stride, 4);
            assert_eq!(m.offset, k as i64);
        }
    }

    #[test]
    fn cross_copy_recurrence_stays_within_iteration() {
        // s += v: copy 1's accumulator reads copy 0's, distance 0.
        let body = sum_loop(8);
        let unrolled = unroll(&body, 2);
        // The second copy's add must read the first copy's result.
        let adds: Vec<_> = unrolled
            .iter()
            .filter(|(_, o)| o.opcode == Opcode::Add)
            .collect();
        assert_eq!(adds.len(), 2);
        let first_dest = adds[0].1.dest.unwrap();
        let second_srcs: Vec<VReg> = adds[1].1.reg_uses().map(|r| r.reg).collect();
        assert!(second_srcs.contains(&first_dest));
    }

    #[test]
    fn branch_kept_only_in_last_copy() {
        let mut b = LoopBuilder::new("br", 8);
        let cnt = b.fresh("cnt");
        b.bind_live_in(cnt, Value::Int(8));
        b.addr_sub(cnt, cnt, 1);
        b.branch(cnt);
        let body = b.finish().unwrap();
        let unrolled = unroll(&body, 4);
        let branches = unrolled
            .ops()
            .iter()
            .filter(|o| o.opcode == Opcode::Branch)
            .count();
        assert_eq!(branches, 1);
        assert!(validate(&unrolled).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_factor_panics() {
        let _ = unroll(&sum_loop(8), 0);
    }
}
