#![deny(missing_docs)]

//! Exact modulo scheduling by reduction to SAT.
//!
//! This crate is the branch-and-bound prover's twin with a different
//! proof engine: [`Cdcl`] is a [`Decider`] for the shared prover walk in
//! `ims-exact` ([`ims_exact::prove`]). It decides each candidate II by
//! encoding "∃ legal schedule at this II?" into CNF (see the `encode`
//! module docs for the variable layout and clause families) and handing
//! the formula to a small, deterministic, std-only CDCL solver (`solver`
//! module: two-watched literals, native at-most-one rows for resource
//! exclusivity, 1-UIP conflict-clause learning, Luby restarts,
//! activity-ordered decisions tie-broken by variable id). The
//! first satisfiable II is optimal by construction, and an UNSAT answer
//! is a *proof* of infeasibility — the same contract branch-and-bound
//! offers, which is what makes the two engines cross-checkable loop by
//! loop.
//!
//! SAT can blow up, so every per-II decision is metered three ways: the
//! walk's work budget counts CDCL conflicts across all candidate IIs, and
//! the decider caps the clauses ([`Cdcl::clause_limit`], each resource
//! row counted as the binary clauses it implies) and the summed
//! issue-window width ([`Cdcl::slot_limit`]) of each encoding.
//! When any cap hits, the walk degrades to the iterative schedule with
//! explicit [`IiBounds`](ims_core::IiBounds). All budgets are
//! deterministic — no deadlines — so output is byte-reproducible at any
//! thread count.
//!
//! This is the lowest crate that sees all three leaf backends, so it
//! also holds the one dispatch from a [`BackendKind`] to its scheduler:
//! [`schedule_leaf`] runs the paper's iterative scheduler through the
//! [`Scheduler`] builder for `ims` and the prover walk around
//! [`BranchAndBound`] or [`Cdcl`] for `exact` and `sat`, and returns each
//! outcome unchanged as a [`LeafOutcome`]. Its prover arms go through
//! [`leaf_from_run`], which answers a leaf from an iterative run already
//! in hand, so a caller holding one run can answer every leaf from it.
//!
//! ```
//! use ims_core::{NullObserver, ProblemBuilder, validate_schedule};
//! use ims_exact::{prove, ProverConfig};
//! use ims_sat::Cdcl;
//! use ims_graph::DepKind;
//! use ims_ir::{OpId, Opcode};
//! use ims_machine::minimal;
//!
//! let m = minimal();
//! let mut pb = ProblemBuilder::new(&m);
//! let a = pb.add_op(Opcode::Add, OpId(0));
//! let b = pb.add_op(Opcode::Mul, OpId(1));
//! pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
//! pb.add_dep(b, a, 1, 1, DepKind::Flow, false); // loop-carried
//! let problem = pb.finish();
//!
//! let out = prove(&problem, &Cdcl::default(), &ProverConfig::new(None), &mut NullObserver)?;
//! assert!(out.optimal());
//! assert!(validate_schedule(&problem, &out.schedule).is_ok());
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

use ims_core::{
    BackendKind, MiiInfo, Problem, SchedConfig, SchedObserver, SchedOutcome, Schedule,
    ScheduleError, Scheduler,
};
use ims_exact::{prove_from, BranchAndBound, Decider, Decision, ProverOutcome, WalkPhases};
use ims_prof::{phase, ProfSink};

mod encode;
mod solver;

use encode::{decide_ii, SatLimits};

/// The CDCL [`Decider`]: decides one II by SAT, metered in solver
/// conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cdcl {
    /// Cap on the clauses of a single per-II encoding, where each
    /// resource row counts as the binary clauses it implies between
    /// distinct operations (one per colliding pair of occupancy bits),
    /// though it stores none of them; exceeding it counts as a limit hit
    /// rather than a search too large to finish.
    pub clause_limit: Option<u64>,
    /// Cap on the summed issue-window width of a single per-II encoding
    /// (the dominant term of the variable count).
    pub slot_limit: Option<u64>,
}

impl Default for Cdcl {
    fn default() -> Self {
        Cdcl {
            clause_limit: Some(2_000_000),
            slot_limit: Some(65_536),
        }
    }
}

impl Decider for Cdcl {
    const KIND: BackendKind = BackendKind::Sat;
    const PHASES: WalkPhases = WalkPhases {
        searched: phase::SAT_IIS_SEARCHED,
        infeasible: phase::SAT_IIS_INFEASIBLE,
        limit_hits: phase::SAT_LIMIT_HITS,
    };
    /// Conflicts are deterministic, so — unlike a wall-clock deadline —
    /// the same budget always aborts at the same point.
    const DEFAULT_WORK_LIMIT: u64 = 1 << 18;

    fn decide<P: ProfSink>(
        &self,
        problem: &Problem<'_>,
        ii: i64,
        remaining: u64,
        sink: &mut P,
    ) -> (Decision, u64) {
        let limits = SatLimits {
            conflict_budget: remaining,
            clause_limit: self.clause_limit.unwrap_or(u64::MAX),
            slot_limit: self.slot_limit.unwrap_or(u64::MAX),
        };
        decide_ii(problem, ii, &limits, sink)
    }
}

/// What [`schedule_leaf`] returns: the outcome of the backend it ran,
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum LeafOutcome {
    /// The paper's iterative scheduler (`ims`).
    Ims(SchedOutcome),
    /// A prover walk (`exact`, `sat`).
    Prover(ProverOutcome),
}

impl LeafOutcome {
    /// The schedule the backend returned.
    pub fn schedule(&self) -> &Schedule {
        match self {
            LeafOutcome::Ims(out) => &out.schedule,
            LeafOutcome::Prover(out) => &out.schedule,
        }
    }

    /// The MII bounds computed before scheduling.
    pub fn mii(&self) -> &MiiInfo {
        match self {
            LeafOutcome::Ims(out) => &out.mii,
            LeafOutcome::Prover(out) => &out.mii,
        }
    }
}

/// Schedules `problem` with the leaf backend `kind`.
///
/// * `ims` runs [`Scheduler`] under `sched`; `work_limit` is unused.
/// * `exact` and `sat` run the [`prove`](ims_exact::prove) walk around
///   [`BranchAndBound`] or [`Cdcl`], with `sched` configuring the walk's
///   internal heuristic run and `work_limit` its work budget (nodes or
///   conflicts; `None` is the decider's [`Decider::DEFAULT_WORK_LIMIT`]).
///
/// Every scheduler event goes to `observer`, the backends' work counts
/// among them as `work` events; a prover's heuristic run is not observed.
///
/// # Errors
///
/// The iterative scheduler's [`ScheduleError`]; a prover forwards the
/// error of its internal heuristic run.
pub fn schedule_leaf<O: SchedObserver>(
    kind: BackendKind,
    problem: &Problem<'_>,
    sched: &SchedConfig,
    work_limit: Option<u64>,
    observer: &mut O,
) -> Result<LeafOutcome, ScheduleError> {
    let scheduler = Scheduler::new(problem).config(sched.clone());
    if kind == BackendKind::Ims {
        return scheduler.observer(observer).run().map(LeafOutcome::Ims);
    }
    observer.backend(kind);
    let run = scheduler.run()?;
    Ok(leaf_from_run(kind, problem, run, work_limit, observer))
}

/// Answers the leaf backend `kind` from `run`, a run of [`Scheduler`] on
/// `problem` under the configuration the leaf would use: `ims` answers
/// `run` itself, and `exact` and `sat` continue the prover walk from it
/// ([`prove_from`]) under `work_limit`, as [`schedule_leaf`] does. The
/// observer sees a prover walk's events after its heuristic run, and none
/// for `ims`.
pub fn leaf_from_run<O: SchedObserver>(
    kind: BackendKind,
    problem: &Problem<'_>,
    run: SchedOutcome,
    work_limit: Option<u64>,
    observer: &mut O,
) -> LeafOutcome {
    match kind {
        BackendKind::Ims => LeafOutcome::Ims(run),
        BackendKind::Exact => LeafOutcome::Prover(prove_from(
            problem,
            &BranchAndBound,
            run,
            work_limit,
            observer,
        )),
        BackendKind::Sat => LeafOutcome::Prover(prove_from(
            problem,
            &Cdcl::default(),
            run,
            work_limit,
            observer,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{validate_schedule, NullObserver, ProblemBuilder};
    use ims_exact::{prove, ProverConfig};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::figure1_machine;

    /// The Figure 1 loop of the paper (RecMII 5; IMS and both provers
    /// land on the optimal II 6).
    fn figure1_problem(machine: &ims_machine::MachineModel) -> Problem<'_> {
        let mut pb = ProblemBuilder::new(machine);
        let mul = pb.add_op(Opcode::Mul, OpId(0));
        let add = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
        pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
        pb.finish()
    }

    fn leaf(
        kind: BackendKind,
        p: &Problem<'_>,
        sched: &SchedConfig,
        work_limit: Option<u64>,
    ) -> Result<LeafOutcome, ScheduleError> {
        schedule_leaf(kind, p, sched, work_limit, &mut NullObserver)
    }

    #[test]
    fn each_leaf_equals_the_scheduler_it_dispatches_to() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let sched = SchedConfig::new().budget_ratio(6.0);
        let limit = Some(1 << 16);
        let config = ProverConfig::new(limit).heuristic(sched.clone());

        let ims = Scheduler::new(&p).config(sched.clone()).run().unwrap();
        assert_eq!(
            leaf(BackendKind::Ims, &p, &sched, limit).unwrap(),
            LeafOutcome::Ims(ims)
        );
        let exact = prove(&p, &BranchAndBound, &config, &mut NullObserver).unwrap();
        assert_eq!(
            leaf(BackendKind::Exact, &p, &sched, limit).unwrap(),
            LeafOutcome::Prover(exact)
        );
        let sat = prove(&p, &Cdcl::default(), &config, &mut NullObserver).unwrap();
        assert_eq!(
            leaf(BackendKind::Sat, &p, &sched, limit).unwrap(),
            LeafOutcome::Prover(sat)
        );

        for kind in BackendKind::ALL {
            let out = leaf(kind, &p, &sched, limit).unwrap();
            assert_eq!(out.mii().mii, 5);
            assert_eq!(out.schedule().ii, 6, "{kind}");
            assert!(validate_schedule(&p, out.schedule()).is_ok());
        }
    }

    /// Every event a prover walk sends, as text.
    #[derive(Debug, Default, PartialEq)]
    struct Events(Vec<String>);

    impl SchedObserver for Events {
        fn backend(&mut self, kind: BackendKind) {
            self.0.push(format!("backend {kind}"));
        }
        fn attempt_start(&mut self, ii: i64, budget: i64) {
            self.0.push(format!("start {ii} {budget}"));
        }
        fn op_scheduled(&mut self, node: ims_graph::NodeId, time: i64, alt: usize, forced: bool) {
            self.0.push(format!("op {} {time} {alt} {forced}", node.0));
        }
        fn attempt_done(&mut self, ii: i64, ok: bool) {
            self.0.push(format!("done {ii} {ok}"));
        }
        fn work(&mut self, phase: &'static str, n: u64) {
            self.0.push(format!("work {phase} {n}"));
        }
    }

    #[test]
    fn a_leaf_answers_from_a_run_in_hand_as_the_walk_would() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let sched = SchedConfig::new().budget_ratio(6.0);
        let config = ProverConfig::new(None).heuristic(sched.clone());
        let run = Scheduler::new(&p).config(sched.clone()).run().unwrap();
        let ims = leaf_from_run(BackendKind::Ims, &p, run.clone(), None, &mut NullObserver);
        assert_eq!(ims, LeafOutcome::Ims(run.clone()));
        for kind in [BackendKind::Exact, BackendKind::Sat] {
            let mut proved = Events::default();
            let expect = match kind {
                BackendKind::Exact => prove(&p, &BranchAndBound, &config, &mut proved),
                _ => prove(&p, &Cdcl::default(), &config, &mut proved),
            }
            .unwrap();
            assert!(
                expect.work > 0,
                "{kind}: IMS misses the MII, so II 5 is decided"
            );
            let mut through_leaf = Events::default();
            let out = schedule_leaf(kind, &p, &sched, None, &mut through_leaf).unwrap();
            assert_eq!(out, LeafOutcome::Prover(expect.clone()), "{kind}");
            assert_eq!(through_leaf, proved, "{kind}");
            // The backend event comes before the heuristic run, so a walk
            // from a run in hand sends every event after it.
            let mut from_run = Events::default();
            let out = leaf_from_run(kind, &p, run.clone(), None, &mut from_run);
            assert_eq!(out, LeafOutcome::Prover(expect), "{kind}");
            assert_eq!(proved.0[0], format!("backend {kind}"));
            assert_eq!(from_run.0, proved.0[1..], "{kind}");
        }
    }

    #[test]
    fn every_leaf_forwards_the_ii_cap_error() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let capped = SchedConfig::new().max_ii(4);
        for kind in BackendKind::ALL {
            let err = leaf(kind, &p, &capped, None).unwrap_err();
            assert_eq!(
                err,
                ScheduleError::IiCapExceeded { mii: 5, max_ii: 4 },
                "{kind}"
            );
        }
    }

    #[test]
    fn the_work_limit_reaches_the_prover_walk() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let sched = SchedConfig::new().budget_ratio(6.0);
        for kind in [BackendKind::Exact, BackendKind::Sat] {
            let Ok(LeafOutcome::Prover(starved)) = leaf(kind, &p, &sched, Some(1)) else {
                panic!("{kind} runs the prover walk");
            };
            assert!(
                starved.limit_hit,
                "{kind}: one unit of work cannot decide II 5"
            );
            let Ok(LeafOutcome::Prover(full)) = leaf(kind, &p, &sched, None) else {
                panic!("{kind} runs the prover walk");
            };
            assert!(full.optimal(), "{kind}: {:?}", full.bounds);
        }
    }
}
