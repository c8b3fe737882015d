//! Pluggable scheduling backends.
//!
//! The paper's iterative scheduler is a heuristic: it walks candidate IIs
//! upward from the MII and keeps the first II at which its budgeted search
//! succeeds, so "achieved II = MII" is the only case in which its result
//! is *known* to be optimal. Measuring the heuristic's optimality gap —
//! the centerpiece of the exact-scheduling literature that followed Rau
//! (SMT- and SAT-based modulo schedulers) — needs a second scheduler that
//! proves lower bounds. [`SchedulerBackend`] is the seam both sit behind:
//! every backend consumes the same [`Problem`] and produces the same
//! [`Schedule`], so the validator, code generation, and the VLIW
//! simulator work unchanged regardless of which backend produced the
//! schedule, and harness code can be generic over the choice.
//!
//! Two kinds of implementation exist:
//!
//! * [`IterativeBackend`] (this crate) — the paper's algorithm, wrapping
//!   [`modulo_schedule`](crate::modulo_schedule). Its bounds are one-sided:
//!   `proved_lb` is the MII, `best_ub` the achieved II.
//! * `Prover` (the `ims-exact` crate) — the exact provers' shared II walk
//!   around a per-II decider (branch-and-bound in `ims-exact`, CDCL in
//!   `ims-sat`). It either proves its schedule's II minimal or reports
//!   explicit [`IiBounds`] when its work budget runs out.

use crate::mii::MiiInfo;
use crate::observe::{NullObserver, SchedObserver};
use crate::problem::Problem;
use crate::sched::{modulo_schedule_observed, SchedConfig, SchedOutcome, Schedule, ScheduleError};
use crate::spec::BackendSpec;

/// Which *leaf* scheduling backend produced an event stream or outcome.
///
/// This is the stable-name enum of the wire format and the trace files:
/// every concrete scheduler has exactly one `BackendKind`, carried by the
/// `attempt_start` trace events (via [`SchedObserver::backend`]) so
/// traces from different backends are distinguishable after the fact.
/// Composite selections — `portfolio(a,b,...)` — are described by
/// [`BackendSpec`], which is what CLI flags and the service wire format
/// parse; a spec resolves to leaf backends through a
/// [`BackendRegistry`](crate::BackendRegistry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's iterative modulo scheduler.
    #[default]
    Ims,
    /// The exact branch-and-bound scheduler (`ims-exact`).
    Exact,
    /// The CDCL SAT-solver backend (`ims-sat`).
    Sat,
}

impl BackendKind {
    /// Every leaf backend, in registry/display order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Ims, BackendKind::Exact, BackendKind::Sat];

    /// The stable lowercase name used on the wire and in CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ims => "ims",
            BackendKind::Exact => "exact",
            BackendKind::Sat => "sat",
        }
    }

    /// Resolves a stable leaf name produced by [`BackendKind::name`].
    /// Leaf names only; full backend selections (including
    /// `portfolio(...)`) parse via [`BackendSpec`]'s `FromStr`.
    pub fn from_name(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }

}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a backend knows about the loop's true minimum II.
///
/// `proved_lb ≤ II* ≤ best_ub`, where `II*` is the smallest II at which
/// any legal modulo schedule exists. A backend that proves optimality
/// reports `proved_lb == best_ub`; a heuristic (or an exact search that
/// hit its deadline) reports a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IiBounds {
    /// Largest II proven to be a lower bound on `II*` (every smaller II
    /// is known infeasible).
    pub proved_lb: i64,
    /// Smallest II at which a legal schedule is in hand.
    pub best_ub: i64,
}

impl IiBounds {
    /// Bounds for a schedule proven optimal at `ii`.
    pub fn exact(ii: i64) -> IiBounds {
        IiBounds {
            proved_lb: ii,
            best_ub: ii,
        }
    }

    /// Whether the bounds pin the true minimum II exactly.
    pub fn is_exact(&self) -> bool {
        self.proved_lb == self.best_ub
    }

    /// `best_ub − proved_lb`: how much slack remains between the schedule
    /// in hand and the proven lower bound (0 when optimality is proven).
    pub fn gap(&self) -> i64 {
        self.best_ub - self.proved_lb
    }
}

/// The uniform result of a [`SchedulerBackend`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendOutcome {
    /// The best legal schedule found; `schedule.ii == bounds.best_ub`.
    pub schedule: Schedule,
    /// The MII bounds computed before scheduling.
    pub mii: MiiInfo,
    /// What the backend proved about the true minimum II.
    pub bounds: IiBounds,
    /// Backend-specific work measure: operation-scheduling steps for the
    /// iterative backend, branch-and-bound search nodes for the exact one.
    pub steps: u64,
}

impl BackendOutcome {
    /// Whether `schedule` is proven II-optimal.
    pub fn optimal(&self) -> bool {
        self.bounds.is_exact()
    }
}

/// A modulo scheduler: anything that turns a [`Problem`] into a legal
/// [`Schedule`] plus [`IiBounds`] on the true minimum II.
///
/// The trait is object-safe so harness code can pick a backend at
/// runtime (`--backend SPEC`, resolved through a
/// [`BackendRegistry`](crate::BackendRegistry)).
pub trait SchedulerBackend {
    /// Which backend this is (stable name via [`BackendKind::name`]).
    ///
    /// Composite backends report a representative leaf (the portfolio
    /// reports its first member); [`SchedulerBackend::spec`] carries the
    /// full identity.
    fn kind(&self) -> BackendKind;

    /// The full selection this backend implements. Leaves return
    /// `BackendSpec::Leaf(self.kind())` (the default); the portfolio
    /// returns its member list.
    fn spec(&self) -> BackendSpec {
        BackendSpec::Leaf(self.kind())
    }

    /// Schedules `problem`, returning the best schedule found and the II
    /// bounds it proves.
    ///
    /// # Errors
    ///
    /// Backend-specific; the iterative backend forwards
    /// [`ScheduleError`], and the exact backend can only fail if its
    /// internal heuristic run (which provides the upper bound) fails.
    fn schedule(&self, problem: &Problem<'_>) -> Result<BackendOutcome, ScheduleError>;

    /// [`SchedulerBackend::schedule`] with scheduler events reported to
    /// `observer` (the leaves pass it on through the `&mut O` blanket
    /// [`SchedObserver`] impl). The default ignores the observer.
    ///
    /// # Errors
    ///
    /// As [`SchedulerBackend::schedule`].
    fn schedule_observed_dyn(
        &self,
        problem: &Problem<'_>,
        observer: &mut dyn SchedObserver,
    ) -> Result<BackendOutcome, ScheduleError> {
        let _ = observer;
        self.schedule(problem)
    }
}

/// The paper's iterative modulo scheduler as a [`SchedulerBackend`].
///
/// Its lower bound is the MII — the iterative scheduler never proves
/// anything stronger — so `bounds.is_exact()` holds exactly when the
/// achieved II equals the MII.
///
/// ```
/// use ims_core::{IterativeBackend, ProblemBuilder, SchedConfig, SchedulerBackend};
/// use ims_ir::{OpId, Opcode};
/// use ims_machine::minimal;
///
/// let m = minimal();
/// let mut pb = ProblemBuilder::new(&m);
/// let _ = pb.add_op(Opcode::Add, OpId(0));
/// let problem = pb.finish();
///
/// let out = IterativeBackend::new(SchedConfig::default())
///     .schedule(&problem)
///     .unwrap();
/// assert!(out.optimal(), "a one-op loop schedules at its MII");
/// assert_eq!(out.bounds.proved_lb, out.mii.mii);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IterativeBackend {
    config: SchedConfig,
}

impl IterativeBackend {
    /// A backend running with the given configuration.
    pub fn new(config: SchedConfig) -> Self {
        IterativeBackend { config }
    }

    /// The configuration this backend schedules with.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }
}

impl SchedulerBackend for IterativeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Ims
    }

    fn schedule(&self, problem: &Problem<'_>) -> Result<BackendOutcome, ScheduleError> {
        // Monomorphized over `NullObserver`: the unobserved path stays free
        // of per-step dynamic dispatch.
        modulo_schedule_observed(problem, &self.config, &mut NullObserver).map(heuristic_outcome)
    }

    fn schedule_observed_dyn(
        &self,
        problem: &Problem<'_>,
        mut observer: &mut dyn SchedObserver,
    ) -> Result<BackendOutcome, ScheduleError> {
        modulo_schedule_observed(problem, &self.config, &mut observer).map(heuristic_outcome)
    }
}

/// The iterative scheduler proves nothing beyond the MII.
fn heuristic_outcome(out: SchedOutcome) -> BackendOutcome {
    BackendOutcome {
        bounds: IiBounds {
            proved_lb: out.mii.mii,
            best_ub: out.schedule.ii,
        },
        steps: out.stats.total_steps(),
        mii: out.mii,
        schedule: out.schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use crate::validate::validate_schedule;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::minimal;

    #[test]
    fn backend_kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(BackendKind::from_name("simulated-annealing"), None);
    }

    #[test]
    fn ii_bounds_accessors() {
        let exact = IiBounds::exact(4);
        assert!(exact.is_exact());
        assert_eq!(exact.gap(), 0);
        let loose = IiBounds {
            proved_lb: 3,
            best_ub: 5,
        };
        assert!(!loose.is_exact());
        assert_eq!(loose.gap(), 2);
    }

    #[test]
    fn iterative_backend_matches_modulo_schedule_and_is_object_safe() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Mul, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();

        let backend: Box<dyn SchedulerBackend> = Box::new(IterativeBackend::default());
        assert_eq!(backend.kind(), BackendKind::Ims);
        let out = backend.schedule(&p).unwrap();
        let reference =
            crate::sched::modulo_schedule(&p, &SchedConfig::default()).unwrap();
        assert_eq!(out.schedule, reference.schedule);
        assert_eq!(out.bounds.proved_lb, reference.mii.mii);
        assert_eq!(out.bounds.best_ub, reference.schedule.ii);
        assert_eq!(out.steps, reference.stats.total_steps());
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn iterative_backend_forwards_errors() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 5, 1, DepKind::Flow, false); // RecMII 5
        let p = pb.finish();
        let err = IterativeBackend::new(SchedConfig::new().max_ii(4))
            .schedule(&p)
            .unwrap_err();
        assert_eq!(err, ScheduleError::IiCapExceeded { mii: 5, max_ii: 4 });
    }
}
