//! Recurrence back-substitution.
//!
//! The paper's preprocessing pipeline (§1, confirmed for the experimental
//! corpus in §4.1) includes *"recurrence back-substitution"*
//! (Schlansker/Kathail): a first-order recurrence
//!
//! ```text
//! p = p + c          (reads its own value from the previous iteration)
//! ```
//!
//! constrains the II to the operation's full latency (`RecMII ≥ latency`).
//! Substituting the recurrence into itself `K−1` times gives
//!
//! ```text
//! p = p[-K] + K·c    (reads the value from K iterations back)
//! ```
//!
//! whose circuit constraint is `II ≥ ⌈latency / K⌉` — with `K = latency`
//! the recurrence no longer constrains the II at all. The transform is only
//! valid when the first `K` reads can be seeded: the pre-loop instances
//! `p₋ⱼ = p_entry − (j−1)·c` are attached as per-lag live-in bindings
//! (which is what a compiler's loop preheader would compute).
//!
//! Without this transform, every pointer-walking loop in the corpus would
//! be recurrence-limited to `II ≥ 3` (the address ALU latency), which
//! §4.2's statistics show was not the case for the paper's corpus.

use ims_ir::{LiveInValue, LoopBody, Opcode, Operand};
use ims_machine::MachineModel;

use crate::build::DefSites;

/// Applies back-substitution to every eligible simple induction update in
/// `body`, returning the transformed body (or the original if nothing was
/// eligible).
///
/// An operation is eligible when it is:
///
/// * an `AddrAdd`/`AddrSub` whose destination equals its first source at
///   positional distance 1 (the plain `p = p ± c` induction idiom),
/// * with an integer-immediate step, and
/// * its register's lag-1 live-in is a constant integer or an array base
///   (so the pre-loop lags can be computed statically).
///
/// The substitution depth is the operation's latency on `machine`, making
/// the rewritten self-circuit constrain `II ≥ 1` only.
pub fn back_substitute(body: &LoopBody, machine: &MachineModel) -> LoopBody {
    let mut out = body.clone();
    let sites = DefSites::new(body);
    let mut new_lags: Vec<(ims_ir::VReg, u32, LiveInValue)> = Vec::new();

    for (id, op) in body.iter() {
        if !matches!(op.opcode, Opcode::AddrAdd | Opcode::AddrSub) {
            continue;
        }
        let Some(dest) = op.dest else { continue };
        let Some(u) = op.srcs[0].as_reg() else {
            continue;
        };
        if u.reg != dest || u.prev != 0 {
            continue;
        }
        // Positional distance must be exactly 1 (the def reads itself).
        let Some((def, 1)) = sites.resolve(id, u) else {
            continue;
        };
        debug_assert_eq!(def, id, "single assignment");
        let Operand::ImmInt(step_mag) = op.srcs[1] else {
            continue;
        };
        let step = if op.opcode == Opcode::AddrSub {
            -step_mag
        } else {
            step_mag
        };
        // Seedable initial value?
        let Some(init) = body.live_in_value(dest, 1) else {
            continue;
        };
        let seed = |lag: u32| -> Option<LiveInValue> {
            let delta = (lag as i64 - 1) * step;
            match init {
                LiveInValue::Const(ims_ir::Value::Int(x)) => {
                    Some(LiveInValue::Const(ims_ir::Value::Int(x - delta)))
                }
                LiveInValue::ArrayBase { array, offset } => Some(LiveInValue::ArrayBase {
                    array,
                    offset: offset - delta,
                }),
                _ => None,
            }
        };
        let k = machine.latency(op.opcode);
        if k <= 1 {
            continue; // Already unconstraining.
        }
        if (2..=k).any(|lag| seed(lag).is_none()) {
            continue;
        }

        // Rewrite: p = p[-K] + K·c (express the extra depth via `prev`).
        let new_op = out.op_mut(id);
        new_op.srcs[0] = Operand::Reg(ims_ir::RegUse::back(dest, k - 1));
        new_op.srcs[1] = Operand::ImmInt(step_mag * k as i64);
        for lag in 2..=k {
            new_lags.push((dest, lag, seed(lag).expect("checked above")));
        }
    }

    for (reg, lag, value) in new_lags {
        out.add_live_in_lag(reg, lag, value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_problem, BuildOptions};
    use ims_core::{compute_mii, Counters};
    use ims_ir::{LoopBuilder, MemRef, Value};
    use ims_machine::cydra;

    fn pointer_loop() -> LoopBody {
        let mut b = LoopBuilder::new("ptr", 16);
        let a = b.array("a", 64);
        let pa = b.ptr("pa", a, 0);
        let _v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
        b.addr_add(pa, pa, 1);
        b.finish().unwrap()
    }

    #[test]
    fn relaxes_the_induction_recurrence() {
        let m = cydra();
        let body = pointer_loop();
        let before = build_problem(&body, &m, &BuildOptions::default());
        let rec_before = compute_mii(&before, &mut Counters::new());

        let transformed = back_substitute(&body, &m);
        let after = build_problem(&transformed, &m, &BuildOptions::default());
        let rec_after = compute_mii(&after, &mut Counters::new());

        // AddrAdd latency 3: RecMII drops from >=3 to the resource bound.
        assert!(rec_before.mii >= 3);
        assert!(rec_after.rec_mii <= rec_after.res_mii, "{rec_after:?}");
        // The self-edge now spans distance 3.
        assert!(after
            .graph()
            .edges()
            .iter()
            .any(|e| e.from == e.to && e.distance == 3));
    }

    #[test]
    fn seeds_prior_pointer_values() {
        let m = cydra();
        let transformed = back_substitute(&pointer_loop(), &m);
        // Lags 2 and 3 seeded with base − 1 and base − 2.
        let pa = ims_ir::VReg(0);
        assert_eq!(
            transformed.live_in_value(pa, 2),
            Some(LiveInValue::ArrayBase {
                array: ims_ir::ArrayId(0),
                offset: -1
            })
        );
        assert_eq!(
            transformed.live_in_value(pa, 3),
            Some(LiveInValue::ArrayBase {
                array: ims_ir::ArrayId(0),
                offset: -2
            })
        );
        // The step scaled by K.
        let op = transformed.op(ims_ir::OpId(1));
        assert_eq!(op.srcs[1], Operand::ImmInt(3));
        assert!(ims_ir::validate::validate(&transformed).is_ok());
    }

    #[test]
    fn count_down_counters_are_also_rewritten() {
        let m = cydra();
        let mut b = LoopBuilder::new("cnt", 8);
        let n = b.fresh("n");
        b.bind_live_in(n, Value::Int(8));
        b.addr_sub(n, n, 1);
        b.branch(n);
        let body = b.finish().unwrap();
        let t = back_substitute(&body, &m);
        let op = t.op(ims_ir::OpId(0));
        assert_eq!(op.srcs[1], Operand::ImmInt(3));
        // Lag 2 seeds n_{-2} = 8 + 1 = 9 (count-down goes upward backward).
        assert_eq!(
            t.live_in_value(n, 2),
            Some(LiveInValue::Const(Value::Int(9)))
        );
    }

    #[test]
    fn non_eligible_ops_left_alone() {
        let m = cydra();
        let mut b = LoopBuilder::new("mix", 8);
        // Accumulator on the adder: not an AddrAdd, untouched.
        let s = b.fresh("s");
        b.bind_live_in(s, Value::Float(0.0));
        b.rebind_add(s, s, 1.0f64);
        // A float-seeded address add: cannot compute integer lags.
        let q = b.fresh("q");
        b.bind_live_in(q, Value::Float(1.0));
        b.addr_add(q, q, 1);
        // Register step (not an immediate): untouched.
        let r = b.fresh("r");
        b.bind_live_in(r, Value::Int(0));
        let step = b.live_in("step", Value::Int(2));
        b.rebind(r, Opcode::AddrAdd, vec![r.into(), step.into()]);
        let body = b.finish().unwrap();
        let t = back_substitute(&body, &m);
        assert_eq!(t.op(ims_ir::OpId(0)), body.op(ims_ir::OpId(0)));
        assert_eq!(t.op(ims_ir::OpId(1)), body.op(ims_ir::OpId(1)));
        assert_eq!(t.op(ims_ir::OpId(2)), body.op(ims_ir::OpId(2)));
    }
}
