//! The candidate-II walk shared by every exact prover.
//!
//! Rau's `ModuloSchedule` (Figure 2) is one loop: start at the MII, try a
//! candidate II, move up on failure. An exact prover runs the same loop,
//! except that each try is a *decision* — "does any legal schedule exist
//! at this II?" — rather than a budgeted heuristic attempt. [`prove`] owns
//! that loop once for every proof engine; an engine supplies only a
//! [`Decider`]: its backend name, its profiler counter names, its default
//! work limit, and the per-II [`Decider::decide`] call.
//!
//! The walk:
//!
//! 1. runs the iterative scheduler (unobserved) for an upper bound and a
//!    fallback schedule. When it already reaches the MII, that schedule
//!    is optimal and no decision is made;
//! 2. decides each II from the MII up to (excluding) the heuristic's II,
//!    drawing on one work budget shared across all candidates. The first
//!    feasible II is optimal by construction;
//! 3. on a limit hit, falls back to the heuristic schedule with the
//!    [`IiBounds`] `[ii, ims_ii]` — every smaller II was proven
//!    infeasible, nothing is known about the rest. When every candidate
//!    is infeasible the heuristic schedule is proven optimal.
//!
//! The paper's own walk (`Scheduler::run` in `ims-core`) stays separate:
//! it continues past a budget-exhausted II, budgets each attempt on its
//! own and consults `attempt_accept`, none of which a proof allows.
//!
//! The walk reports its work as `work` events on its observer, the
//! deciders' statistics included.

use ims_core::{
    BackendKind, IiBounds, MiiInfo, Problem, SchedConfig, SchedObserver, Schedule, ScheduleError,
    Scheduler,
};
use ims_graph::NodeId;
use ims_prof::ProfSink;

/// The answer to "does a legal schedule exist at this II?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// A legal schedule exists at this II; here is one.
    Feasible(Schedule),
    /// No legal schedule exists at this II (proven).
    Infeasible,
    /// The work budget (or another engine-specific cap) ran out before
    /// the question was settled.
    LimitHit,
}

/// The profiler counters a walk files its candidate-II outcomes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPhases {
    /// One count per candidate II decided (or attempted).
    pub searched: &'static str,
    /// One count per candidate II proven infeasible.
    pub infeasible: &'static str,
    /// One count per walk aborted by a limit.
    pub limit_hits: &'static str,
}

/// A per-II proof engine: the only part of an exact prover that is not
/// the shared walk.
pub trait Decider {
    /// The leaf backend this engine implements.
    const KIND: BackendKind;
    /// Where the walk files its candidate-II outcomes.
    const PHASES: WalkPhases;
    /// The work budget across a whole walk when none is configured.
    const DEFAULT_WORK_LIMIT: u64;

    /// Decides feasibility of `problem` at `ii`, spending at most
    /// `remaining` units of work, and returns the decision plus the work
    /// actually spent. Deterministic engine statistics go to `sink`,
    /// which the walk forwards to its observer as `work` events.
    fn decide<P: ProfSink>(
        &self,
        problem: &Problem<'_>,
        ii: i64,
        remaining: u64,
        sink: &mut P,
    ) -> (Decision, u64);
}

/// Configuration of the walk around a [`Decider`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProverConfig {
    /// Configuration for the internal iterative-scheduler run that
    /// supplies the upper bound and the fallback schedule. Defaults to
    /// BudgetRatio 6 (the paper's quality setting) so the window between
    /// MII and the heuristic II is as small as possible.
    pub heuristic: SchedConfig,
    /// Work budget across all candidate IIs, in the decider's unit
    /// (branch-and-bound nodes, CDCL conflicts). `None` is the decider's
    /// [`Decider::DEFAULT_WORK_LIMIT`].
    pub work_limit: Option<u64>,
}

impl ProverConfig {
    /// A BudgetRatio-6 heuristic run and the given work budget; `None`
    /// runs each decider under its [`Decider::DEFAULT_WORK_LIMIT`].
    pub fn new(work_limit: Option<u64>) -> Self {
        ProverConfig {
            heuristic: SchedConfig::new().budget_ratio(6.0),
            work_limit,
        }
    }

    /// Sets the internal iterative-scheduler configuration.
    pub fn heuristic(mut self, heuristic: SchedConfig) -> Self {
        self.heuristic = heuristic;
        self
    }
}

/// The result of [`prove`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProverOutcome {
    /// The best legal schedule in hand: II-optimal when
    /// [`optimal`](ProverOutcome::optimal), otherwise the iterative
    /// scheduler's fallback at `ims_ii`.
    pub schedule: Schedule,
    /// The MII bounds computed by the internal iterative run.
    pub mii: MiiInfo,
    /// What was proven about the true minimum II: exact when every
    /// candidate was decided, a `[proved_lb, best_ub]` interval when a
    /// limit hit.
    pub bounds: IiBounds,
    /// Decider work spent (0 when the heuristic already achieved the MII
    /// and no decision was needed).
    pub work: u64,
    /// Whether a limit aborted the walk before every II below `ims_ii`
    /// was decided.
    pub limit_hit: bool,
    /// The II the internal iterative scheduler achieved — the yardstick
    /// for the optimality gap `ims_ii − bounds.best_ub`.
    pub ims_ii: i64,
}

impl ProverOutcome {
    /// Whether `schedule` is proven II-optimal.
    pub fn optimal(&self) -> bool {
        self.bounds.is_exact()
    }
}

/// The [`ProfSink`] a decider writes to: each count is a `work` event.
struct WorkSink<'o, O>(&'o mut O);

impl<O: SchedObserver> ProfSink for WorkSink<'_, O> {
    #[inline(always)]
    fn count(&mut self, phase: &'static str, n: u64) {
        self.0.work(phase, n);
    }
}

/// Schedules `problem` exactly with `decider`: the returned schedule's II
/// is proven minimal unless a limit hit, in which case `bounds` says how
/// much is still open. See the module docs for the walk.
///
/// The observer sees `backend(D::KIND)`, then one `attempt_start` /
/// `attempt_done` bracket per candidate II decided (the `budget` is the
/// remaining work budget, saturated to `i64::MAX`). The final schedule's
/// placements are emitted as `op_scheduled` events inside its attempt —
/// a fresh zero-budget bracket when the schedule is the heuristic's — so
/// trace replay reconstructs it just as it does for the iterative
/// scheduler. The internal heuristic run is not observed. The decider's
/// statistics and the `D::PHASES` outcome counts reach the observer as
/// `work` events.
///
/// # Errors
///
/// Forwards the internal iterative run's [`ScheduleError`]; the decision
/// phase itself cannot fail (it degrades to the iterative schedule).
pub fn prove<D: Decider, O: SchedObserver>(
    problem: &Problem<'_>,
    decider: &D,
    config: &ProverConfig,
    observer: &mut O,
) -> Result<ProverOutcome, ScheduleError> {
    observer.backend(D::KIND);
    let ims = Scheduler::new(problem)
        .config(config.heuristic.clone())
        .run()?;
    let ims_ii = ims.schedule.ii;
    let limit = config.work_limit.unwrap_or(D::DEFAULT_WORK_LIMIT);
    let mut work = 0u64;
    let mut proved_lb = ims_ii;
    for ii in ims.mii.mii..ims_ii {
        let remaining = limit.saturating_sub(work);
        observer.attempt_start(ii, remaining.min(i64::MAX as u64) as i64);
        observer.work(D::PHASES.searched, 1);
        let (decision, spent) = decider.decide(problem, ii, remaining, &mut WorkSink(observer));
        work += spent;
        match decision {
            Decision::Feasible(schedule) => {
                emit_ops(observer, &schedule);
                observer.attempt_done(ii, true);
                return Ok(ProverOutcome {
                    schedule,
                    mii: ims.mii,
                    bounds: IiBounds::exact(ii),
                    work,
                    limit_hit: false,
                    ims_ii,
                });
            }
            Decision::Infeasible => {
                observer.work(D::PHASES.infeasible, 1);
                observer.attempt_done(ii, false);
            }
            Decision::LimitHit => {
                observer.work(D::PHASES.limit_hits, 1);
                observer.attempt_done(ii, false);
                proved_lb = ii;
                break;
            }
        }
    }

    // The heuristic schedule stands: proven optimal when every smaller II
    // was infeasible (or none was left to decide), a fallback otherwise.
    observer.attempt_start(ims_ii, 0);
    emit_ops(observer, &ims.schedule);
    observer.attempt_done(ims_ii, true);
    Ok(ProverOutcome {
        schedule: ims.schedule,
        mii: ims.mii,
        bounds: IiBounds {
            proved_lb,
            best_ub: ims_ii,
        },
        work,
        limit_hit: proved_lb < ims_ii,
        ims_ii,
    })
}

/// Emits `op_scheduled` for every node of `schedule`, in node order.
fn emit_ops<O: SchedObserver>(observer: &mut O, schedule: &Schedule) {
    for (idx, (&time, &alt)) in schedule.time.iter().zip(&schedule.alternative).enumerate() {
        observer.op_scheduled(NodeId(idx as u32), time, alt, false);
    }
}
