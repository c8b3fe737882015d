//! Register lifetime analysis over a modulo schedule.

use ims_core::{Problem, Schedule};
use ims_deps::{node_of, DefSites};
use ims_ir::{LoopBody, VReg};

/// The live range of the value a virtual register carries, measured on the
/// flat (per-iteration-offset) time line of the modulo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// The register.
    pub reg: VReg,
    /// Issue time of the defining operation.
    pub def_issue: i64,
    /// Cycle the value becomes available (`def_issue + latency`).
    pub birth: i64,
    /// Last cycle any consumer reads the value, projected onto the defining
    /// iteration's time line (`use_issue + II · distance`), or `birth` when
    /// the value is never read (a dead definition still occupies its
    /// register for one cycle).
    pub death: i64,
    /// How many register names this value needs under modulo variable
    /// expansion or rotation: see [`unroll_factor`].
    pub names: u32,
}

/// The number of register names a value needs so that the instance produced
/// `names` iterations later does not clobber it before its last read:
/// `⌊(death − birth) / II⌋ + 1`.
///
/// The overwriting instance *commits* at `birth + names·II`, so the value
/// survives through cycle `birth + names·II − 1 ≥ death`.
///
/// # Panics
///
/// Panics if `death < birth` or `ii < 1`.
pub fn unroll_factor(birth: i64, death: i64, ii: i64) -> u32 {
    assert!(ii >= 1, "II must be positive");
    assert!(death >= birth, "value dies before it is born");
    ((death - birth) / ii + 1) as u32
}

/// Computes the lifetime of every register defined in the body, under the
/// given schedule. Registers with no defining operation (pure live-ins) get
/// no entry.
///
/// One pass resolves every use through a [`DefSites`] index and keeps the
/// latest read of each register; a second pass emits the lifetimes in
/// body order.
pub fn lifetimes(body: &LoopBody, problem: &Problem<'_>, schedule: &Schedule) -> Vec<Lifetime> {
    let sites = DefSites::new(body);
    let mut last_read: Vec<Option<i64>> = vec![None; body.num_vregs()];
    for (use_id, use_op) in body.iter() {
        let issue = schedule.time_of(node_of(use_id));
        for u in use_op.reg_uses() {
            if let Some((_, distance)) = sites.resolve(use_id, u) {
                let read = issue + schedule.ii * distance as i64;
                let last = &mut last_read[u.reg.index()];
                *last = Some(last.map_or(read, |l| l.max(read)));
            }
        }
    }
    let mut out = Vec::new();
    for (def_id, def_op) in body.iter() {
        let Some(reg) = def_op.dest else { continue };
        let def_issue = schedule.time_of(node_of(def_id));
        let birth = def_issue + problem.latency(node_of(def_id));
        let death = last_read[reg.index()].map_or(birth, |r| r.max(birth));
        out.push(Lifetime {
            reg,
            def_issue,
            birth,
            death,
            names: unroll_factor(birth, death, schedule.ii),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::Scheduler;
    use ims_deps::{build_problem, BuildOptions};
    use ims_ir::{LoopBuilder, Value};
    use ims_machine::cydra_simple;

    #[test]
    fn unroll_factor_boundaries() {
        // Value born and dying in the same cycle: one name.
        assert_eq!(unroll_factor(5, 5, 4), 1);
        // Lives exactly through one II: still one name (overwrite commits
        // at birth + II, after the last read at birth + II - 1).
        assert_eq!(unroll_factor(0, 3, 4), 1);
        // One cycle longer: needs a second name.
        assert_eq!(unroll_factor(0, 4, 4), 2);
        assert_eq!(unroll_factor(0, 20, 4), 6);
    }

    #[test]
    #[should_panic(expected = "dies before")]
    fn negative_lifetime_panics() {
        let _ = unroll_factor(5, 4, 1);
    }

    #[test]
    fn lifetimes_cover_loop_carried_reads() {
        // acc = acc + x: the accumulator is read one iteration later, so
        // its death is at least def_issue(use) + II.
        let m = cydra_simple();
        let mut b = LoopBuilder::new("acc", 16);
        let x = b.live_in("x", Value::Float(1.0));
        let acc = b.fresh("acc");
        b.bind_live_in(acc, Value::Float(0.0));
        b.rebind_add(acc, acc, x);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lts = lifetimes(&body, &p, &out.schedule);
        assert_eq!(lts.len(), 1);
        let lt = &lts[0];
        assert_eq!(lt.reg, acc);
        // Read by itself one iteration later.
        assert_eq!(lt.death, lt.def_issue + out.schedule.ii);
        assert!(lt.names >= 1);
    }

    #[test]
    fn dead_definition_gets_one_name() {
        let m = cydra_simple();
        let mut b = LoopBuilder::new("dead", 4);
        let x = b.live_in("x", Value::Float(1.0));
        let _unused = b.add("u", x, x);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lts = lifetimes(&body, &p, &out.schedule);
        assert_eq!(lts.len(), 1);
        assert_eq!(lts[0].names, 1);
        assert_eq!(lts[0].death, lts[0].birth);
    }

    #[test]
    fn long_latency_producer_stretches_lifetime() {
        // A load (latency 20) feeding an add: if the add is scheduled 20+
        // cycles later and II is small, the load's value needs many names.
        let m = cydra_simple();
        let mut b = LoopBuilder::new("ld", 16);
        let addr = b.live_in("p", Value::Int(0));
        let arr = b.array("a", 64);
        let _ = arr;
        let v = b.load("v", addr, None);
        let w = b.add("w", v, 1.0f64);
        // Keep the add's result alive via a store through an unknown
        // address so nothing is dead code.
        b.store(addr, w, None);
        let body = b.finish().unwrap();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let out = Scheduler::new(&p).run().unwrap();
        let lts = lifetimes(&body, &p, &out.schedule);
        let v_lt = lts.iter().find(|l| l.reg == v).unwrap();
        assert!(v_lt.birth >= v_lt.def_issue + 20);
        assert!(v_lt.death >= v_lt.birth);
    }
}
