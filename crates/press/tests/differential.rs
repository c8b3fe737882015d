//! Differential test for the pressure veto: [`PressureObserver`] against
//! a reference observer that answers every probe by placing, checking
//! MaxLive and evicting through the public [`PressureModel`] API. Skipping
//! that work when MaxLive is already over the limit must change nothing
//! the scheduler or the `press.*` counters can see.

use ims_codegen::{allocate_rotating, lifetimes};
use ims_core::{
    Problem, SchedConfig, SchedObserver, SchedOutcome, Schedule, ScheduleError, Scheduler,
};
use ims_deps::{build_problem, BuildOptions};
use ims_graph::NodeId;
use ims_ir::LoopBody;
use ims_loopgen::{generate_loop, SynthConfig};
use ims_machine::cydra;
use ims_press::{shapes_from_body, shapes_from_problem, PressureModel, PressureObserver};
use ims_testkit::Xoshiro256;

/// The veto by tentative placement, and the same acceptance rule as
/// [`PressureObserver`].
struct PlaceCheckEvict<'a, 'm> {
    problem: &'a Problem<'m>,
    body: Option<&'a LoopBody>,
    model: PressureModel,
    limit: u32,
    rejects: u64,
    ii_bumps: u64,
}

impl SchedObserver for PlaceCheckEvict<'_, '_> {
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
        self.model.place(node, time);
        let over = self.model.max_live() > self.limit;
        self.model.evict(node);
        self.rejects += over as u64;
        over
    }

    fn attempt_accept(&mut self, _ii: i64, schedule: &Schedule) -> bool {
        let mut ok = self.model.max_live() <= self.limit;
        if let (true, Some(body)) = (ok, self.body) {
            let lts = lifetimes(body, self.problem, schedule);
            ok = allocate_rotating(body, &lts, schedule.ii).size <= self.limit as usize;
        }
        self.ii_bumps += !ok as u64;
        ok
    }
}

/// The run's result, `press.rejects` and `press.ii_bumps`.
type Verdict = (Result<SchedOutcome, ScheduleError>, u64, u64);

fn run(
    problem: &Problem<'_>,
    limit: u32,
    obs: &mut impl SchedObserver,
) -> Result<SchedOutcome, ScheduleError> {
    Scheduler::new(problem)
        .config(SchedConfig::default().pressure_limit(limit))
        .observer(obs)
        .run()
}

/// The verdict, and the interval updates spent reaching it.
fn observed(problem: &Problem<'_>, body: Option<&LoopBody>, limit: u32) -> (Verdict, u64) {
    let mut obs = match body {
        Some(body) => PressureObserver::for_body(body, problem, limit),
        None => PressureObserver::for_problem(problem, limit),
    };
    let result = run(problem, limit, &mut obs);
    ((result, obs.rejects(), obs.ii_bumps()), obs.updates())
}

fn reference(problem: &Problem<'_>, body: Option<&LoopBody>, limit: u32) -> (Verdict, u64) {
    let shapes = match body {
        Some(body) => shapes_from_body(body, problem),
        None => shapes_from_problem(problem),
    };
    let mut obs = PlaceCheckEvict {
        problem,
        body,
        model: PressureModel::new(shapes, problem.graph().num_nodes(), 1),
        limit,
        rejects: 0,
        ii_bumps: 0,
    };
    let result = run(problem, limit, &mut obs);
    ((result, obs.rejects, obs.ii_bumps), obs.model.updates())
}

#[test]
fn early_veto_schedules_exactly_like_place_check_evict() {
    let machine = cydra();
    let (mut vetoed, mut skipped_updates) = (0, 0);
    for seed in 0..12u64 {
        let config = SynthConfig {
            ops_target: 6 + (seed as usize % 4) * 4,
            recurrences: if seed % 3 == 0 { vec![2] } else { vec![] },
            with_branch: false,
        };
        let body = generate_loop(&mut Xoshiro256::seed_from_u64(seed), &config);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        for limit in [3, 5, 8, 12] {
            for with_body in [Some(&body), None] {
                let (got, got_updates) = observed(&problem, with_body, limit);
                let (want, want_updates) = reference(&problem, with_body, limit);
                assert_eq!(
                    got,
                    want,
                    "seed {seed}, limit {limit}, body {}",
                    with_body.is_some()
                );
                vetoed += got.1;
                skipped_updates += want_updates - got_updates;
            }
        }
    }
    assert!(vetoed > 0, "no probe was vetoed: the limits are too loose");
    assert!(skipped_updates > 0, "no probe took the early answer");
}
