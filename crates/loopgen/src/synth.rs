//! Seeded synthetic loop generation.
//!
//! The generator emits *valid* (dynamic-single-assignment, fully typed)
//! loop bodies whose structure spans the paper's corpus: pointer-walking
//! load/store streams (whose address increments are the ubiquitous
//! single-operation SCCs of §4.2), arithmetic expression trees, optional
//! multi-operation recurrence circuits, and an optional count-down branch.
//! Distribution calibration to Table 3 happens in
//! [`crate::corpus::paper_corpus`].

use ims_ir::{LoopBody, LoopBuilder, MemRef, Opcode, Operand, VReg, Value};
use ims_testkit::Rng;

/// Shape parameters for one synthetic loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Approximate number of operations to emit (the structural grain means
    /// the result can overshoot by a few).
    pub ops_target: usize,
    /// Lengths of the multi-operation recurrence circuits to include
    /// (empty for a vectorizable loop). Each length is the number of
    /// operations on the circuit, at least 2.
    pub recurrences: Vec<usize>,
    /// Whether to emit an explicit count-down branch.
    pub with_branch: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            ops_target: 12,
            recurrences: Vec::new(),
            with_branch: true,
        }
    }
}

/// Generates one valid loop body with the given shape.
///
/// The body always validates (`LoopBuilder::finish` is used internally) and
/// is deterministic for a given `rng` state and config.
///
/// # Panics
///
/// Panics if a recurrence length is less than 2 (single-operation
/// recurrences arise naturally from the pointer increments).
pub fn generate_loop<R: Rng>(rng: &mut R, config: &SynthConfig) -> LoopBody {
    for &len in &config.recurrences {
        assert!(len >= 2, "multi-operation recurrences need length >= 2");
    }
    let mut b = LoopBuilder::new("synth", 16);
    let mut pool: Vec<VReg> = Vec::new();
    let mut budget = config.ops_target as i64;

    // A couple of scalar live-ins so expressions have leaves.
    for i in 0..2 {
        pool.push(b.live_in(&format!("c{i}"), Value::Float(1.0 + i as f64 / 4.0)));
    }

    // Load streams: ptr (live-in) + load + pointer increment.
    let num_loads = (config.ops_target / 9).clamp(1, 4);
    for i in 0..num_loads {
        let arr = b.array(format!("a{i}"), 64);
        let p = b.ptr(&format!("p{i}"), arr, 0);
        let v = b.load(&format!("v{i}"), p, Some(MemRef::new(arr, 0, 1)));
        b.addr_add(p, p, 1);
        pool.push(v);
        budget -= 2;
    }

    let pick = |rng: &mut R, pool: &[VReg]| -> Operand {
        if pool.is_empty() || rng.gen_bool(0.15) {
            Operand::ImmFloat(rng.gen_range(0.25..2.0))
        } else {
            pool[rng.gen_range(0..pool.len())].into()
        }
    };

    // Multi-operation recurrence circuits.
    for (ri, &len) in config.recurrences.iter().enumerate() {
        let acc = b.fresh(&format!("acc{ri}"));
        b.bind_live_in(acc, Value::Float(0.5));
        let mut cur: Operand = acc.into();
        for j in 0..len - 1 {
            let other = pick(rng, &pool);
            let opcode = if rng.gen_bool(0.5) {
                Opcode::Add
            } else {
                Opcode::Mul
            };
            let v = b.op(&format!("r{ri}_{j}"), opcode, vec![cur, other]);
            cur = v.into();
            pool.push(v);
        }
        b.rebind(acc, Opcode::Add, vec![cur, pick(rng, &pool)]);
        budget -= len as i64;
    }

    // Filler arithmetic.
    while budget > 3 {
        let roll = rng.gen_range(0..100);
        let a = pick(rng, &pool);
        let c = pick(rng, &pool);
        let idx = pool.len();
        let v = match roll {
            0..=34 => b.op(&format!("t{idx}"), Opcode::Add, vec![a, c]),
            35..=54 => b.op(&format!("t{idx}"), Opcode::Mul, vec![a, c]),
            55..=69 => b.op(&format!("t{idx}"), Opcode::Sub, vec![a, c]),
            70..=79 => b.op(&format!("t{idx}"), Opcode::Min, vec![a, c]),
            80..=89 => b.op(&format!("t{idx}"), Opcode::Max, vec![a, c]),
            90..=95 => b.op(&format!("t{idx}"), Opcode::Abs, vec![a]),
            96..=97 => b.op(&format!("t{idx}"), Opcode::Div, vec![a, c]),
            _ => b.op(&format!("t{idx}"), Opcode::Sqrt, vec![a]),
        };
        pool.push(v);
        budget -= 1;
    }

    // A store stream consuming a computed value.
    {
        let arr = b.array("out", 64);
        let p = b.ptr("pout", arr, 0);
        let val = pick(rng, &pool);
        b.store(p, val, Some(MemRef::new(arr, 0, 1)));
        b.addr_add(p, p, 1);
    }

    if config.with_branch {
        let cnt = b.fresh("cnt");
        b.bind_live_in(cnt, Value::Int(16));
        b.addr_sub(cnt, cnt, 1);
        b.branch(cnt);
    }

    b.finish()
        .expect("generated bodies are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::validate::validate;
    use ims_testkit::Xoshiro256;

    #[test]
    fn generated_bodies_validate() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for i in 0..50 {
            let cfg = SynthConfig {
                ops_target: 4 + (i % 40),
                recurrences: if i % 4 == 0 { vec![2 + i % 5] } else { vec![] },
                with_branch: i % 2 == 0,
            };
            let body = generate_loop(&mut rng, &cfg);
            assert!(validate(&body).is_ok(), "config {cfg:?}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = SynthConfig {
            ops_target: 20,
            recurrences: vec![3],
            with_branch: true,
        };
        let a = generate_loop(&mut Xoshiro256::seed_from_u64(42), &cfg);
        let b = generate_loop(&mut Xoshiro256::seed_from_u64(42), &cfg);
        assert_eq!(a, b);
        let c = generate_loop(&mut Xoshiro256::seed_from_u64(43), &cfg);
        assert_ne!(a, c, "different seeds should give different loops");
    }

    #[test]
    fn op_count_tracks_target() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for target in [6usize, 12, 30, 80, 160] {
            let cfg = SynthConfig {
                ops_target: target,
                recurrences: vec![],
                with_branch: true,
            };
            let body = generate_loop(&mut rng, &cfg);
            let n = body.num_ops();
            assert!(
                n as i64 >= target as i64 - 4 && n <= target + 8,
                "target {target}, got {n}"
            );
        }
    }

    #[test]
    fn recurrences_form_cycles() {
        // The recurrence accumulator must be defined and read in a chain.
        let cfg = SynthConfig {
            ops_target: 10,
            recurrences: vec![4],
            with_branch: false,
        };
        let body = generate_loop(&mut Xoshiro256::seed_from_u64(5), &cfg);
        // At least one register is both defined and used before its
        // definition (the accumulator).
        assert!(validate(&body).is_ok());
        let has_acc = body
            .ops()
            .iter()
            .any(|op| op.dest.is_some_and(|d| body.is_live_in(d)));
        assert!(has_acc, "recurrence accumulator missing");
    }

    #[test]
    #[should_panic(expected = "length >= 2")]
    fn short_recurrence_rejected() {
        let cfg = SynthConfig {
            ops_target: 10,
            recurrences: vec![1],
            with_branch: false,
        };
        let _ = generate_loop(&mut Xoshiro256::seed_from_u64(0), &cfg);
    }
}
