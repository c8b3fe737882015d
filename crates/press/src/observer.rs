//! The policy layer: a [`SchedObserver`] that enforces a MaxLive limit.

use ims_codegen::{allocate_rotating, lifetimes};
use ims_core::{Problem, SchedObserver, Schedule};
use ims_graph::NodeId;
use ims_ir::LoopBody;

use crate::model::{shapes_from_body, shapes_from_problem, PressureModel};

/// Register-pressure enforcement for the iterative scheduler.
///
/// Plugs into [`Scheduler::observer`](ims_core::Scheduler::observer) and
/// implements the two consulted hooks:
///
/// * [`placement_vetoed`](SchedObserver::placement_vetoed) — a tentative
///   placement that would push [`PressureModel::max_live`] over the limit
///   is vetoed, so `FindTimeSlot` treats the slot as a resource conflict
///   and keeps searching (the forced-slot rule still overrides the veto,
///   preserving forward progress). The answer comes from
///   [`PressureModel::exceeds_if_placed`]: O(1) once a forced placement
///   has pushed MaxLive over the limit, since placements never lower it,
///   and one place, row scan and evict otherwise;
/// * [`attempt_accept`](SchedObserver::attempt_accept) — a completed
///   attempt whose MaxLive exceeds the limit, or (when the IR body is
///   available) whose rotating allocation does not fit the declared file,
///   is rejected, bumping the candidate II. Capacity that is infeasible
///   even at the II cap surfaces as
///   [`ScheduleError::PressureInfeasible`](ims_core::ScheduleError) when
///   [`SchedConfig::pressure_limit`](ims_core::SchedConfig) is set.
///
/// The observer's event hooks keep the model in sync with every placement
/// and eviction, so after a successful run [`max_live`](Self::max_live)
/// reports the accepted schedule's register pressure.
pub struct PressureObserver<'a, 'm> {
    problem: &'a Problem<'m>,
    body: Option<&'a LoopBody>,
    model: PressureModel,
    limit: u32,
    rejects: u64,
    ii_bumps: u64,
}

impl<'a, 'm> PressureObserver<'a, 'm> {
    /// An observer that limits MaxLive to `limit` and additionally checks
    /// the rotating-allocation fit (`allocate_rotating(...).size ≤ limit`)
    /// on every completed attempt — the strongest guarantee: an accepted
    /// schedule is known to fit a rotating file of `limit` registers.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0.
    pub fn for_body(body: &'a LoopBody, problem: &'a Problem<'m>, limit: u32) -> Self {
        let shapes = shapes_from_body(body, problem);
        Self::with_shapes(problem, Some(body), shapes, limit)
    }

    /// An observer for a bare dependence-graph problem (no IR body, as in
    /// `ims-serve`): lifetimes come from the graph's register-flow edges
    /// and only the MaxLive bound is enforced.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0.
    pub fn for_problem(problem: &'a Problem<'m>, limit: u32) -> Self {
        let shapes = shapes_from_problem(problem);
        Self::with_shapes(problem, None, shapes, limit)
    }

    fn with_shapes(
        problem: &'a Problem<'m>,
        body: Option<&'a LoopBody>,
        shapes: Vec<crate::ValueShape>,
        limit: u32,
    ) -> Self {
        assert!(limit > 0, "pressure limit must be positive");
        let num_nodes = problem.graph().num_nodes();
        PressureObserver {
            problem,
            body,
            model: PressureModel::new(shapes, num_nodes, 1),
            limit,
            rejects: 0,
            ii_bumps: 0,
        }
    }

    /// The configured MaxLive limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// The model's current MaxLive (the accepted schedule's pressure after
    /// a successful run).
    pub fn max_live(&self) -> u32 {
        self.model.max_live()
    }

    /// Cumulative lifetime-interval updates (`press.maxlive.updates`).
    pub fn updates(&self) -> u64 {
        self.model.updates()
    }

    /// Placements vetoed for exceeding the limit (`press.rejects`).
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Completed attempts rejected, bumping the II (`press.ii_bumps`).
    pub fn ii_bumps(&self) -> u64 {
        self.ii_bumps
    }
}

impl SchedObserver for PressureObserver<'_, '_> {
    fn attempt_start(&mut self, ii: i64, _budget: i64) {
        self.model.reset(ii);
    }

    fn op_scheduled(&mut self, node: NodeId, time: i64, _alt: usize, _forced: bool) {
        self.model.place(node, time);
    }

    fn op_evicted(&mut self, node: NodeId, _evictor: NodeId) {
        self.model.evict(node);
    }

    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        // `node` is unscheduled here (the scheduler only searches slots for
        // unscheduled operations), as `exceeds_if_placed` requires.
        let over = self.model.exceeds_if_placed(node, time, self.limit);
        if over {
            self.rejects += 1;
        }
        over
    }

    fn attempt_accept(&mut self, _ii: i64, schedule: &Schedule) -> bool {
        let mut ok = self.model.max_live() <= self.limit;
        if ok {
            if let Some(body) = self.body {
                // The rotating file's inter-writer gaps can exceed MaxLive;
                // demand the actual allocation fits (the §5g rotating-fit
                // invariant). A larger II shrinks the gaps, so bumping on
                // rejection converges.
                let lts = lifetimes(body, self.problem, schedule);
                ok = allocate_rotating(body, &lts, schedule.ii).size <= self.limit as usize;
            }
        }
        if !ok {
            self.ii_bumps += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{modulo_schedule, SchedConfig, ScheduleError, Scheduler};
    use ims_deps::{build_problem, BuildOptions};
    use ims_ir::{LoopBuilder, Value};
    use ims_machine::{cydra_rf, cydra_simple};

    /// A loop with real overlap pressure: two loaded streams multiplied
    /// into an accumulated sum.
    fn dot_body() -> LoopBody {
        let mut b = LoopBuilder::new("dot", 64);
        let pa = b.live_in("pa", Value::Int(0));
        let pb = b.live_in("pb", Value::Int(0));
        let _a = b.array("a", 64);
        let _bb = b.array("b", 64);
        let x = b.load("x", pa, None);
        let y = b.load("y", pb, None);
        let m = b.mul("m", x, y);
        let acc = b.fresh("acc");
        b.bind_live_in(acc, Value::Float(0.0));
        b.rebind_add(acc, acc, m);
        b.store(pa, acc, None);
        b.finish().unwrap()
    }

    #[test]
    fn generous_limit_reproduces_the_blind_schedule_bit_for_bit() {
        let m = cydra_rf(64);
        let body = dot_body();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let blind = modulo_schedule(&p, &SchedConfig::default()).unwrap();
        let mut obs = PressureObserver::for_body(&body, &p, 64);
        let aware = Scheduler::new(&p)
            .config(SchedConfig::default().pressure_limit(64))
            .observer(&mut obs)
            .run()
            .unwrap();
        assert_eq!(aware.schedule, blind.schedule, "no veto ever fires");
        assert_eq!(obs.ii_bumps(), 0);
        assert!(obs.max_live() <= 64);
    }

    #[test]
    fn accepted_schedules_respect_the_limit_and_fit_rotation() {
        let m = cydra_rf(12);
        let body = dot_body();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let mut obs = PressureObserver::for_body(&body, &p, 12);
        let out = Scheduler::new(&p)
            .config(SchedConfig::default().pressure_limit(12))
            .observer(&mut obs)
            .run()
            .unwrap();
        assert!(obs.max_live() <= 12);
        let lts = lifetimes(&body, &p, &out.schedule);
        let alloc = allocate_rotating(&body, &lts, out.schedule.ii);
        assert!(alloc.size <= 12, "rotating file of {} > 12", alloc.size);
    }

    #[test]
    fn impossible_limit_is_pressure_infeasible() {
        let m = cydra_rf(1);
        let body = dot_body();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let mut obs = PressureObserver::for_body(&body, &p, 1);
        let err = Scheduler::new(&p)
            .config(SchedConfig::default().pressure_limit(1).max_ii(30))
            .observer(&mut obs)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ScheduleError::PressureInfeasible { limit: 1, .. }),
            "got {err:?}"
        );
        assert!(obs.ii_bumps() > 0 || obs.rejects() > 0);
    }

    #[test]
    fn graph_only_observer_tracks_pressure_too() {
        let m = cydra_simple();
        let body = dot_body();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let mut obs = PressureObserver::for_problem(&p, 64);
        let out = Scheduler::new(&p)
            .config(SchedConfig::default().pressure_limit(64))
            .observer(&mut obs)
            .run()
            .unwrap();
        assert!(out.schedule.ii >= out.mii.mii);
        assert!(obs.max_live() >= 1, "the accumulator alone is live");
    }

    #[test]
    #[should_panic(expected = "pressure limit must be positive")]
    fn zero_limit_panics() {
        let m = cydra_simple();
        let body = dot_body();
        let p = build_problem(&body, &m, &BuildOptions::default());
        let _ = PressureObserver::for_body(&body, &p, 0);
    }
}
