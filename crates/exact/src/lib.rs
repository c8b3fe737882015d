#![deny(missing_docs)]

//! Exact modulo scheduling by branch-and-bound.
//!
//! The paper's iterative scheduler is a heuristic: when it achieves the
//! MII it is provably optimal, but when it settles for a larger II nothing
//! says a smaller one was impossible — maybe the budget just ran out. This
//! crate answers that question exactly.
//!
//! It holds two things:
//!
//! * the **prover walk** shared by every exact engine ([`prove`], in the
//!   `prover` module): run the iterative scheduler for an upper bound and
//!   a fallback, then decide candidate IIs upward from the MII under one
//!   shared work budget. The first feasible II is optimal by
//!   construction; when the budget runs out the walk degrades gracefully
//!   to the iterative schedule plus explicit
//!   [`IiBounds`](ims_core::IiBounds) recording which IIs were proven
//!   infeasible (`proved_lb`) and the best schedule in hand (`best_ub`) —
//!   never a hang and never a silent claim of optimality. An engine plugs
//!   in through the [`Decider`] trait, and the walk's schedules are the
//!   ones the validator, kernel code generation and the VLIW simulator
//!   consume from every backend;
//! * the **branch-and-bound decider** ([`BranchAndBound`]), which decides
//!   one II *exhaustively* (see the `search` module docs for the pruning
//!   rules: MinDist windows over an SCC-topological scheduling order,
//!   modulo reservation conflicts, and failed-state memoization). Its
//!   work unit is a search node, so a node budget is its only limit and
//!   every run is deterministic.
//!
//! The CDCL decider lives in `ims-sat` and shares the same walk; so does
//! `ims_sat::schedule_leaf`, the dispatch from a backend name to its
//! scheduler.
//!
//! ```
//! use ims_core::{NullObserver, ProblemBuilder, validate_schedule};
//! use ims_exact::{prove, BranchAndBound, ProverConfig};
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
//! let out = prove(&problem, &BranchAndBound, &ProverConfig::new(None), &mut NullObserver)?;
//! assert!(out.optimal());
//! assert_eq!(out.schedule.ii, out.bounds.proved_lb);
//! assert!(validate_schedule(&problem, &out.schedule).is_ok());
//! # Ok::<(), ims_core::ScheduleError>(())
//! ```

use ims_core::{BackendKind, Problem};
use ims_prof::{phase, ProfSink};

mod prover;
mod search;

pub use prover::{prove, Decider, Decision, ProverConfig, ProverOutcome, WalkPhases};

/// The branch-and-bound [`Decider`]: decides one II by exhaustive search,
/// metered in search nodes (placements tried).
///
/// Its default work limit (`2^22` nodes) decides every corpus loop in well
/// under a second.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchAndBound;

impl Decider for BranchAndBound {
    const KIND: BackendKind = BackendKind::Exact;
    const PHASES: WalkPhases = WalkPhases {
        searched: phase::EXACT_IIS_SEARCHED,
        infeasible: phase::EXACT_IIS_INFEASIBLE,
        limit_hits: phase::EXACT_LIMIT_HITS,
    };
    const DEFAULT_WORK_LIMIT: u64 = 1 << 22;

    fn decide<P: ProfSink>(
        &self,
        problem: &Problem<'_>,
        ii: i64,
        remaining: u64,
        sink: &mut P,
    ) -> (Decision, u64) {
        search::search_ii(problem, ii, remaining, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{validate_schedule, NullObserver, ProblemBuilder};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::figure1_machine;

    /// The Figure 1 loop of the paper: a mul/add recurrence of delay 9 at
    /// distance 2 (RecMII 5), which the iterative scheduler schedules at
    /// II 6 after a failed attempt at 5.
    fn figure1_problem(machine: &ims_machine::MachineModel) -> Problem<'_> {
        let mut pb = ProblemBuilder::new(machine);
        let mul = pb.add_op(Opcode::Mul, OpId(0));
        let add = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
        pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
        pb.finish()
    }

    #[test]
    fn figure1_is_decided_exactly() {
        let m = figure1_machine();
        let p = figure1_problem(&m);
        let config = ProverConfig::new(None);
        let out = prove(&p, &BranchAndBound, &config, &mut NullObserver).unwrap();
        assert_eq!(out.mii.mii, 5);
        assert!(
            out.optimal(),
            "search must decide every II: {:?}",
            out.bounds
        );
        assert!(out.work > 0, "IMS misses the MII here, so a search ran");
        assert_eq!(out.schedule.ii, out.bounds.best_ub);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }
}
