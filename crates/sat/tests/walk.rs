//! The prover walk's contracts, checked once per decider: whatever engine
//! decides each II, the walk around it short-circuits at the MII, falls
//! back to the heuristic schedule when starved, reports a replayable
//! event stream, and profiles deterministically. The SAT clause cap, an
//! engine-specific limit, and the cross-engine agreement on Figure 1 are
//! checked separately below.

use ims_core::{
    validate_schedule, BackendKind, NullObserver, Problem, ProblemBuilder, SchedObserver,
};
use ims_exact::{prove, BranchAndBound, Decider, ProverConfig, ProverOutcome};
use ims_graph::{DepKind, NodeId};
use ims_ir::{OpId, Opcode};
use ims_machine::{figure1_machine, minimal, MachineModel};
use ims_prof::MetricsRegistry;
use ims_sat::Cdcl;

/// The Figure 1 loop of the paper: a mul/add recurrence of delay 9 at
/// distance 2 (RecMII 5), which the iterative scheduler schedules at II 6
/// after a failed attempt at 5 — and 6 is in fact optimal (the recurrence
/// loses the shared result bus at 5), so a walk must *prove* the
/// infeasibility of 5, not merely give up on it.
fn figure1_problem(machine: &MachineModel) -> Problem<'_> {
    let mut pb = ProblemBuilder::new(machine);
    let mul = pb.add_op(Opcode::Mul, OpId(0));
    let add = pb.add_op(Opcode::Add, OpId(1));
    pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
    pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
    pb.finish()
}

fn run<D: Decider>(decider: &D, problem: &Problem<'_>, work_limit: Option<u64>) -> ProverOutcome {
    prove(
        problem,
        decider,
        &ProverConfig::new(work_limit),
        &mut NullObserver,
    )
    .expect("the heuristic run schedules these loops")
}

/// Files every `work` event into a registry, as the profiler's observer
/// does.
#[derive(Default)]
struct Filed(MetricsRegistry);

impl SchedObserver for Filed {
    fn work(&mut self, phase: &'static str, n: u64) {
        self.0.add(phase, n);
    }
}

#[derive(Default)]
struct Spy {
    backend: Option<BackendKind>,
    attempts: Vec<(i64, bool)>,
    budgets: Vec<i64>,
    placed: Vec<(u32, i64)>,
}

impl SchedObserver for Spy {
    fn backend(&mut self, kind: BackendKind) {
        self.backend = Some(kind);
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.attempts.push((ii, false));
        self.budgets.push(budget);
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        let last = self.attempts.last_mut().expect("done follows start");
        assert_eq!(last.0, ii, "attempt brackets nest properly");
        last.1 = ok;
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, _: usize, _: bool) {
        self.placed.push((node.0, time));
    }
}

fn walk_contracts<D: Decider + Default>() {
    let decider = D::default();
    let name = D::KIND.name();

    // The heuristic already reaches the MII: optimal, no work spent.
    let m = minimal();
    let mut pb = ProblemBuilder::new(&m);
    let a = pb.add_op(Opcode::Add, OpId(0));
    let b = pb.add_op(Opcode::Mul, OpId(1));
    pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
    pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
    let p = pb.finish();
    let out = run(&decider, &p, None);
    assert!(out.optimal(), "{name}");
    assert_eq!(
        out.work, 0,
        "{name}: heuristic hit the MII; nothing to decide"
    );
    assert_eq!(out.schedule.ii, out.mii.mii, "{name}");
    assert_eq!(out.ims_ii, out.mii.mii, "{name}");

    // A full budget decides Figure 1; a starved one falls back to the
    // heuristic schedule with nothing proven beyond the MII.
    let m = figure1_machine();
    let p = figure1_problem(&m);
    let full = run(&decider, &p, None);
    assert!(
        full.optimal() && !full.limit_hit,
        "{name}: {:?}",
        full.bounds
    );
    assert!(
        full.work > 0,
        "{name}: IMS misses the MII here, so a decision ran"
    );
    assert_eq!(
        full.schedule.ii, 6,
        "{name}: 5 is proven infeasible; 6 is optimal"
    );
    assert!(validate_schedule(&p, &full.schedule).is_ok(), "{name}");
    let starved = run(&decider, &p, Some(1));
    assert!(starved.limit_hit && !starved.optimal(), "{name}");
    assert_eq!(
        starved.bounds.proved_lb, starved.mii.mii,
        "{name}: nothing decided yet"
    );
    assert_eq!(starved.bounds.best_ub, starved.ims_ii, "{name}");
    assert_eq!(
        starved.schedule.ii, starved.ims_ii,
        "{name}: fell back to the IMS schedule"
    );
    assert!(validate_schedule(&p, &starved.schedule).is_ok(), "{name}");

    // The observer sees the backend, and the trailing placement burst
    // inside the last (successful) attempt replays the final schedule.
    // With no work limit configured, the first decision runs under the
    // decider's default budget.
    let mut spy = Spy::default();
    let config = ProverConfig::new(None);
    let out = prove(&p, &decider, &config, &mut spy).unwrap();
    assert_eq!(spy.backend, Some(D::KIND), "{name}");
    assert_eq!(
        spy.budgets.first(),
        Some(&(D::DEFAULT_WORK_LIMIT as i64)),
        "{name}"
    );
    assert_eq!(
        spy.attempts.last(),
        Some(&(out.schedule.ii, true)),
        "{name}"
    );
    let n = out.schedule.time.len();
    let tail = &spy.placed[spy.placed.len() - n..];
    for (idx, &(node, time)) in tail.iter().enumerate() {
        assert_eq!(node as usize, idx, "{name}");
        assert_eq!(time, out.schedule.time[idx], "{name}");
    }

    // Profiling is deterministic and invisible: two profiled runs file
    // identical registries, and both match the unprofiled outcome.
    let profiled = || {
        let mut filed = Filed::default();
        let out = prove(&p, &decider, &config, &mut filed).unwrap();
        (out, filed.0)
    };
    let (o1, r1) = profiled();
    let (o2, r2) = profiled();
    assert_eq!(r1, r2, "{name}");
    assert_eq!(o1, o2, "{name}");
    assert_eq!(o1, full, "{name}: profiling changed the outcome");
    assert_eq!(
        r1.counter(D::PHASES.searched),
        1,
        "{name}: one II below the heuristic's"
    );
    assert_eq!(r1.counter(D::PHASES.infeasible), 1, "{name}");
}

#[test]
fn walk_contracts_hold_for_branch_and_bound() {
    walk_contracts::<BranchAndBound>();
}

#[test]
fn walk_contracts_hold_for_cdcl() {
    walk_contracts::<Cdcl>();
}

#[test]
fn starved_clause_cap_degrades_to_bounds_and_ims_schedule() {
    let m = figure1_machine();
    let p = figure1_problem(&m);
    let starved = Cdcl {
        clause_limit: Some(1),
        ..Cdcl::default()
    };
    let out = run(&starved, &p, None);
    assert!(out.limit_hit);
    assert_eq!(out.bounds.proved_lb, out.mii.mii, "nothing decided yet");
    assert_eq!(out.bounds.best_ub, out.ims_ii);
    assert_eq!(out.schedule.ii, out.ims_ii, "fell back to the IMS schedule");
}

#[test]
fn sat_agrees_with_branch_and_bound_on_figure1() {
    let m = figure1_machine();
    let p = figure1_problem(&m);
    let sat = run(&Cdcl::default(), &p, None);
    let bnb = run(&BranchAndBound, &p, None);
    assert!(sat.optimal() && bnb.optimal());
    assert_eq!(sat.schedule.ii, bnb.schedule.ii, "two proofs, one optimum");
    assert_eq!(sat.bounds, bnb.bounds);
}
