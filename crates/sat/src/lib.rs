#![deny(missing_docs)]

//! Exact modulo scheduling by reduction to SAT.
//!
//! This crate is the branch-and-bound prover's twin with a different
//! proof engine: [`Cdcl`] is a [`Decider`] for the shared prover walk in
//! `ims-exact` ([`ims_exact::prove`]). It decides each candidate II by
//! encoding "∃ legal schedule at this II?" into CNF (see the `encode`
//! module docs for the variable layout and clause families) and handing
//! the formula to a small, deterministic, std-only CDCL solver (`solver`
//! module: two-watched literals, 1-UIP conflict-clause learning, Luby
//! restarts, activity-ordered decisions tie-broken by variable id). The
//! first satisfiable II is optimal by construction, and an UNSAT answer
//! is a *proof* of infeasibility — the same contract branch-and-bound
//! offers, which is what makes the two engines cross-checkable loop by
//! loop.
//!
//! SAT can blow up, so every per-II decision is metered three ways: the
//! walk's work budget counts CDCL conflicts across all candidate IIs, and
//! the decider caps emitted clauses ([`Cdcl::clause_limit`]) and the
//! summed issue-window width ([`Cdcl::slot_limit`]) of each encoding.
//! When any cap hits, the walk degrades to the iterative schedule with
//! explicit [`IiBounds`](ims_core::IiBounds). All budgets are
//! deterministic — no deadlines — so output is byte-reproducible at any
//! thread count.
//!
//! The crate also assembles the workspace's *full* backend registry:
//! [`default_registry`] returns a [`BackendRegistry`] with `ims`,
//! `exact`, and `sat` registered, ready to resolve any
//! [`BackendSpec`](ims_core::BackendSpec) including
//! `portfolio(ims,exact,sat)`.
//!
//! ```
//! use ims_core::{NullObserver, ProblemBuilder, validate_schedule};
//! use ims_exact::{prove, Decider, ProverConfig};
//! use ims_sat::Cdcl;
//! use ims_graph::DepKind;
//! use ims_ir::{OpId, Opcode};
//! use ims_machine::minimal;
//! use ims_prof::NullSink;
//!
//! let m = minimal();
//! let mut pb = ProblemBuilder::new(&m);
//! let a = pb.add_op(Opcode::Add, OpId(0));
//! let b = pb.add_op(Opcode::Mul, OpId(1));
//! pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
//! pb.add_dep(b, a, 1, 1, DepKind::Flow, false); // loop-carried
//! let problem = pb.finish();
//!
//! let config = ProverConfig::new(Cdcl::DEFAULT_WORK_LIMIT);
//! let out = prove(&problem, &Cdcl::default(), &config, &mut NullObserver, &mut NullSink)?;
//! assert!(out.optimal());
//! assert!(validate_schedule(&problem, &out.schedule).is_ok());
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

use ims_core::{BackendKind, BackendParams, BackendRegistry, Problem};
use ims_exact::{Decider, Decision, Prover, ProverConfig, WalkPhases};
use ims_prof::{phase, ProfSink};

mod encode;
mod solver;

use encode::{decide_ii, SatLimits};

/// The CDCL [`Decider`]: decides one II by SAT, metered in solver
/// conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cdcl {
    /// Cap on clauses emitted for a single per-II encoding; exceeding it
    /// counts as a limit hit rather than an out-of-memory surprise.
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
    const DEFAULT_WORK_LIMIT: Option<u64> = Some(1 << 18);

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

/// Registers the SAT prover under [`BackendKind::Sat`]. The factory maps
/// [`BackendParams::sched`] to the heuristic configuration and runs under
/// the default conflict budget.
pub fn register(reg: &mut BackendRegistry) {
    reg.register(BackendKind::Sat, |params: &BackendParams| {
        let config = ProverConfig::new(Cdcl::DEFAULT_WORK_LIMIT).heuristic(params.sched.clone());
        Box::new(Prover::new(Cdcl::default(), config))
    });
}

/// The workspace's full backend registry: `ims` (pre-registered by
/// [`BackendRegistry::new`]), `exact`, and `sat` — everything a
/// [`BackendSpec`](ims_core::BackendSpec), portfolio or leaf, can name.
pub fn default_registry() -> BackendRegistry {
    let mut reg = BackendRegistry::new();
    ims_exact::register(&mut reg);
    register(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{
        validate_schedule, BackendSpec, PortfolioBackend, ProblemBuilder, SchedulerBackend,
    };
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

    #[test]
    fn default_registry_resolves_every_leaf_and_the_full_portfolio() {
        let reg = default_registry();
        for kind in BackendKind::ALL {
            assert!(reg.contains(kind), "{} must be registered", kind.name());
        }
        let spec: BackendSpec = "portfolio(ims,exact,sat)".parse().unwrap();
        let params = ims_core::BackendParams::new();
        let backend = reg.resolve(&spec, &params).unwrap();

        let m = figure1_machine();
        let p = figure1_problem(&m);
        let out = backend.schedule(&p).unwrap();
        // All three members land on the optimal II 6 (the exact members
        // prove it); the tie goes to the first member in spec order.
        assert_eq!(out.schedule.ii, 6);
        assert!(out.bounds.is_exact());
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn portfolio_race_is_thread_count_invariant() {
        let reg = default_registry();
        let params = ims_core::BackendParams::new();
        let m = figure1_machine();
        let p = figure1_problem(&m);

        let make = |threads: usize| {
            let members: Vec<_> = BackendKind::ALL
                .into_iter()
                .map(|k| (k, reg.make(k, &params).unwrap()))
                .collect();
            PortfolioBackend::new(members).threads(threads)
        };
        let seq = make(1).schedule(&p).unwrap();
        let par = make(4).schedule(&p).unwrap();
        assert_eq!(seq.schedule, par.schedule);
        assert_eq!(seq.bounds, par.bounds);
        assert_eq!(seq.steps, par.steps);
    }
}
