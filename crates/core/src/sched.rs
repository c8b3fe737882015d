//! The iterative modulo scheduling algorithm (§3).
//!
//! [`Scheduler::run`](crate::Scheduler::run) is the paper's
//! `ModuloSchedule` procedure (Figure 2): it computes the MII and calls
//! [`iterative_schedule_observed`] (Figure 3) with successively larger
//! candidate IIs until a schedule is found, giving each attempt a budget of
//! `BudgetRatio · N` operation-scheduling steps.
//!
//! [`iterative_schedule_observed`] differs from acyclic list scheduling exactly as
//! §3.1 enumerates: operations can be unscheduled and rescheduled; the
//! highest-priority unscheduled operation is picked regardless of whether
//! its predecessors are scheduled; `Estart` considers only currently
//! scheduled predecessors; the modulo reservation table enforces the modulo
//! constraint; only `II` contiguous time slots are examined; and
//! `FindTimeSlot` (Figure 4) falls back to a forced slot with the
//! forward-progress rule of §3.4.
//!
//! The walk counts nothing itself: all of its work reaches the observer
//! as events, even in a run that ends in an error.

use std::collections::BinaryHeap;

use ims_graph::NodeId;
use ims_prof::phase;

use crate::counters::Counters;
use crate::list_sched::list_schedule;
use crate::mii::{compute_mii, MiiInfo};
use crate::mrt::{self_colliding_alternatives, Mrt};
use crate::observe::SchedObserver;
use crate::priority::{priorities, PriorityKind};
use crate::problem::Problem;

/// Tuning knobs for the scheduler (see [`Scheduler`](crate::Scheduler)).
///
/// Construct with [`SchedConfig::new`] (or `default()`) and chain the
/// setters; the struct is `#[non_exhaustive]` so new knobs can be added
/// without breaking downstream builds:
///
/// ```
/// use ims_core::{PriorityKind, SchedConfig};
///
/// let cfg = SchedConfig::new()
///     .budget_ratio(6.0)
///     .max_ii(64)
///     .priority(PriorityKind::HeightR);
/// assert_eq!(cfg.budget_ratio, 6.0);
/// assert_eq!(cfg.max_ii, Some(64));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SchedConfig {
    /// *"BudgetRatio is the ratio of the maximum number of operation
    /// scheduling steps attempted (before giving up and trying a larger
    /// initiation interval) to the number of operations in the loop."*
    /// The paper finds 2 near-optimal for both schedule quality and
    /// compile time (§4.3), which is the default; the quality experiments
    /// in §4 use 6.
    pub budget_ratio: f64,
    /// Upper bound on candidate IIs. `None` derives a guaranteed-feasible
    /// cap from the acyclic list schedule, once the walk passes the MII.
    pub max_ii: Option<i64>,
    /// The scheduling priority function (§3.2); HeightR by default.
    pub priority: PriorityKind,
    /// Register-pressure limit (rotating-register-file capacity). The
    /// scheduler itself never inspects the value beyond error reporting:
    /// enforcement lives in the [`SchedObserver`] hooks
    /// [`placement_vetoed`](SchedObserver::placement_vetoed) and
    /// [`attempt_accept`](SchedObserver::attempt_accept) (implemented by
    /// `ims-press`). Setting the limit here (a) documents the run as
    /// pressure-constrained and (b) turns cap exhaustion into the
    /// structured [`ScheduleError::PressureInfeasible`]. `None` (the
    /// default) is the pressure-blind scheduler, bit-identical to all
    /// prior releases.
    pub pressure_limit: Option<u32>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            budget_ratio: 2.0,
            max_ii: None,
            priority: PriorityKind::default(),
            pressure_limit: None,
        }
    }
}

impl SchedConfig {
    /// The default configuration (BudgetRatio 2, automatic II cap,
    /// HeightR priority).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `BudgetRatio` (operation-scheduling steps per real
    /// operation, per candidate II).
    pub fn budget_ratio(mut self, budget_ratio: f64) -> Self {
        self.budget_ratio = budget_ratio;
        self
    }

    /// Caps the candidate-II search at `max_ii` (inclusive). Without a
    /// cap, a guaranteed-feasible one is derived from the acyclic list
    /// schedule.
    pub fn max_ii(mut self, max_ii: i64) -> Self {
        self.max_ii = Some(max_ii);
        self
    }

    /// Selects the scheduling priority function (§3.2).
    pub fn priority(mut self, priority: PriorityKind) -> Self {
        self.priority = priority;
        self
    }

    /// Declares the run pressure-constrained to `limit` registers (see
    /// [`SchedConfig::pressure_limit`]). Pair with a pressure-enforcing
    /// observer such as `ims_press::PressureObserver`.
    pub fn pressure_limit(mut self, limit: u32) -> Self {
        self.pressure_limit = Some(limit);
        self
    }
}

/// A legal modulo schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The initiation interval achieved.
    pub ii: i64,
    /// Issue time of every node (indexed by `NodeId::index`; START is 0).
    pub time: Vec<i64>,
    /// Chosen alternative index per node (0 for pseudo-operations).
    pub alternative: Vec<usize>,
    /// Schedule length for one iteration: the STOP pseudo-operation's time.
    pub length: i64,
}

impl Schedule {
    /// Issue time of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn time_of(&self, node: NodeId) -> i64 {
        self.time[node.index()]
    }

    /// Number of kernel stages: `⌈length / II⌉`, at least 1. Iteration
    /// `i`'s operations span stages, and `stage_count − 1` iterations are
    /// in flight alongside a given one in the steady state.
    pub fn stage_count(&self) -> u32 {
        let sc = (self.length + self.ii - 1) / self.ii;
        sc.max(1) as u32
    }
}

/// One candidate-II attempt, for cost accounting (§4.3's scheduling
/// inefficiency counts *"the total number of operation scheduling steps
/// performed in IterativeSchedule"*, including failed attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IiAttempt {
    /// The candidate II attempted.
    pub ii: i64,
    /// Operation-scheduling steps spent on real operations.
    pub steps: u64,
    /// Whether every operation was scheduled within budget.
    pub succeeded: bool,
}

/// Cost statistics of one [`Scheduler::run`](crate::Scheduler::run) call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// Every candidate II attempted, in order; the last one succeeded.
    pub attempts: Vec<IiAttempt>,
    /// Work counters for the Table 4 fits, folded from the run's events.
    pub counters: Counters,
}

impl SchedStats {
    /// Real-operation scheduling steps in the successful attempt — the
    /// numerator of Table 3's *"Number of nodes scheduled (ratio)"*.
    pub fn final_steps(&self) -> u64 {
        self.attempts
            .iter()
            .rev()
            .find(|a| a.succeeded)
            .map_or(0, |a| a.steps)
    }

    /// Real-operation scheduling steps across all attempts — the numerator
    /// of Figure 6's aggregate scheduling inefficiency.
    pub fn total_steps(&self) -> u64 {
        self.attempts.iter().map(|a| a.steps).sum()
    }
}

/// The result of [`Scheduler::run`](crate::Scheduler::run).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedOutcome {
    /// The legal schedule found.
    pub schedule: Schedule,
    /// The MII bounds computed before scheduling.
    pub mii: MiiInfo,
    /// Cost statistics.
    pub stats: SchedStats,
}

impl SchedOutcome {
    /// `DeltaII = II − MII`, the primary quality metric of §4.3.
    pub fn delta_ii(&self) -> i64 {
        self.schedule.ii - self.mii.mii
    }
}

/// Failure of a scheduling run, surfaced from
/// [`Scheduler::run`](crate::Scheduler::run). Match on the variants, not
/// on the [`Display`](std::fmt::Display) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The II cap is below the MII, so no candidate II was admissible and
    /// no attempt was made. The cap is the configured `max_ii` (the
    /// automatic one is never below the MII); an MII above 2^16, the
    /// ceiling of every automatic cap, is refused before any MRT is
    /// allocated, under any cap.
    IiCapExceeded {
        /// The MII the search would have started from.
        mii: i64,
        /// The cap that excluded it.
        max_ii: i64,
    },
    /// Every candidate II from the MII up to the cap ran out of its
    /// `BudgetRatio · N` operation-scheduling budget. The automatic cap is
    /// an II at which the acyclic list schedule is itself legal, so with
    /// it this means the budget is too small for the loop.
    BudgetExhausted {
        /// The last (largest) candidate II attempted.
        last_ii: i64,
        /// Operation-scheduling steps spent across all failed attempts.
        spent: u64,
    },
    /// A pressure-constrained run (`SchedConfig::pressure_limit` set)
    /// exhausted every candidate II up to the cap: the observer rejected
    /// each completed schedule, or its placement vetoes made the attempts
    /// burn their budgets before completing. Either way the loop's values
    /// do not fit the declared register file up to the cap. Replaces
    /// [`BudgetExhausted`](ScheduleError::BudgetExhausted) whenever the
    /// limit is set.
    PressureInfeasible {
        /// The configured register-pressure limit.
        limit: u32,
        /// The last (largest) candidate II attempted.
        last_ii: i64,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::IiCapExceeded { mii, max_ii } => {
                write!(
                    f,
                    "II cap {max_ii} is below the MII {mii}: no candidate II admissible"
                )
            }
            ScheduleError::BudgetExhausted { last_ii, spent } => {
                write!(
                    f,
                    "no modulo schedule found up to II {last_ii} \
                     ({spent} scheduling steps spent)"
                )
            }
            ScheduleError::PressureInfeasible { limit, last_ii } => {
                write!(
                    f,
                    "no schedule fits the register-pressure limit {limit} \
                     up to II {last_ii}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// No run considers an MII above this, and the automatic II cap stops
/// here: an MRT has II rows, so an unchecked II near 10^9 (one long
/// dependence) would abort the process on its allocation. The corpus's
/// largest MII is 228.
const MII_CEILING: i64 = 1 << 16;

/// Figure 2: compute the MII, then try `IterativeSchedule` at II = MII,
/// MII+1, … until a schedule is found, with scheduler events reported to
/// `observer` — the body of [`Scheduler::run`](crate::Scheduler::run),
/// which documents the errors.
///
/// Monomorphized per observer type: with [`NullObserver`](crate::NullObserver)
/// this compiles to exactly the unobserved scheduler.
pub(crate) fn modulo_schedule_observed<O: SchedObserver>(
    problem: &Problem<'_>,
    config: &SchedConfig,
    observer: &mut O,
) -> Result<SchedOutcome, ScheduleError> {
    observer.backend(crate::backend::BackendKind::Ims);
    let mut mii_work = Counters::new();
    let mii = compute_mii(problem, &mut mii_work);
    observer.work(phase::GRAPH_SCC_WORK, mii_work.scc_work);
    observer.work(phase::SCHED_RESMII_WORK, mii_work.resmii_work);
    observer.work(phase::GRAPH_MINDIST_WORK, mii_work.mindist_work);
    if mii.mii > MII_CEILING {
        return Err(ScheduleError::IiCapExceeded {
            mii: mii.mii,
            max_ii: MII_CEILING,
        });
    }

    // The cap bounds every attempt, including the first: an explicit
    // `max_ii` below the MII means no candidate II is admissible at all.
    // The automatic cap is never below the MII, so it cannot refuse here.
    if let Some(max_ii) = config.max_ii.filter(|&max_ii| max_ii < mii.mii) {
        return Err(ScheduleError::IiCapExceeded {
            mii: mii.mii,
            max_ii,
        });
    }

    // The paper defines BudgetRatio relative to "the number of operations
    // in the loop": real operations only, not the START/STOP
    // pseudo-operations (whose placement is also not charged against the
    // budget — see `iterative_schedule_observed`). At least 1 so empty loops
    // and tiny ratios still enter the scheduling loop.
    let n_real = problem.num_ops() as f64;
    let budget = ((config.budget_ratio * n_real).ceil() as i64).max(1);
    let mut stats = SchedStats::default();

    // The automatic cap costs a list schedule, so it is computed only once
    // the walk has to move past the MII, where almost every loop fits.
    let mut max_ii = config.max_ii;
    let mut ii = mii.mii;
    let cap = loop {
        observer.attempt_start(ii, budget);
        observer.work(phase::SCHED_ATTEMPTS, 1);
        let (result, steps) =
            iterative_schedule_observed(problem, ii, budget, config.priority, observer);
        // A complete schedule must still pass the observer's acceptance
        // check (register pressure, in the ims-press observer); a rejected
        // attempt is recorded as failed and the II is bumped, exactly like
        // a budget exhaustion at this II.
        let succeeded = match result {
            Some(ref schedule) => observer.attempt_accept(ii, schedule),
            None => false,
        };
        observer.attempt_done(ii, succeeded);
        stats.attempts.push(IiAttempt {
            ii,
            steps,
            succeeded,
        });
        if succeeded {
            return Ok(SchedOutcome {
                schedule: result.expect("accepted attempt has a schedule"),
                mii,
                stats,
            });
        }
        let cap = *max_ii.get_or_insert_with(|| automatic_cap(problem, mii.mii));
        if ii >= cap {
            break cap;
        }
        ii += 1;
    };
    // Under a pressure limit, cap exhaustion is a register-file verdict
    // either way: the observer rejected completed schedules outright, or
    // its placement vetoes made every attempt burn its budget before
    // completing. Both mean "this loop does not fit the declared file up
    // to the cap".
    if let Some(limit) = config.pressure_limit {
        return Err(ScheduleError::PressureInfeasible {
            limit,
            last_ii: cap,
        });
    }
    Err(ScheduleError::BudgetExhausted {
        last_ii: cap,
        spent: stats.total_steps(),
    })
}

/// A guaranteed-feasible fallback II: at II ≥ list-schedule length plus
/// the largest delay/table span, consecutive iterations cannot interact,
/// so the acyclic schedule itself is a legal modulo schedule. Never below
/// `mii`, which is at most the ceiling, where the cap stops.
fn automatic_cap(problem: &Problem<'_>, mii: i64) -> i64 {
    let ls = list_schedule(problem);
    let max_delay = problem
        .graph()
        .edges()
        .iter()
        .map(|e| e.delay)
        .max()
        .unwrap_or(0)
        .max(0);
    let max_span = problem
        .op_nodes()
        .filter_map(|n| problem.info(n))
        .flat_map(|i| i.alternatives.iter().map(|a| a.table.max_offset() as i64))
        .max()
        .unwrap_or(0);
    (ls.length + max_delay.max(max_span) + 1)
        .max(mii)
        .min(MII_CEILING)
}

/// A worklist entry: max-heap by priority, ties to the smaller node id —
/// the same total order the paper's `HighestPriorityOperation` induces.
/// Keys are unique per node (ids are distinct), so heap pops are
/// deterministic regardless of internal heap layout.
#[derive(PartialEq, Eq)]
struct Cand {
    height: i64,
    node: NodeId,
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.height
            .cmp(&other.height)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Figure 3: one attempt at the given candidate II under the given
/// budget, with scheduler events reported to `observer` (see
/// [`SchedObserver`] for the exact hook sequence) and the priority
/// function `priority` (§3.2's alternatives).
///
/// The budget is a limit on *real*-operation scheduling steps, matching
/// the paper's definition of BudgetRatio over "the number of operations in
/// the loop"; placing the START/STOP pseudo-operations is free. Returns
/// the schedule (if every operation was placed before the budget ran out)
/// and the number of operation-scheduling steps spent on real operations.
/// The attempt's HeightR work and MRT probes reach `observer` as
/// [`work`](SchedObserver::work) events. Prefer the
/// [`Scheduler`](crate::Scheduler) builder for whole runs.
pub fn iterative_schedule_observed<O: SchedObserver>(
    problem: &Problem<'_>,
    ii: i64,
    budget: i64,
    priority: PriorityKind,
    observer: &mut O,
) -> (Option<Schedule>, u64) {
    let graph = problem.graph();
    let n = graph.num_nodes();
    let start = problem.start();
    let stop = problem.stop();

    // Alternatives that would collide with themselves in any MRT row at
    // this II are never placed; an operation left with none fails the
    // attempt before it starts.
    let Ok(unusable) = self_colliding_alternatives(problem, ii) else {
        observer.work(phase::SCHED_ATTEMPTS_FAILED, 1);
        return (None, 0);
    };

    // Scheduling priorities for this II (§3.2).
    let mut priority_work = Counters::new();
    let heights = priorities(problem, ii, priority, &mut priority_work);
    observer.work(phase::SCHED_HEIGHTR_WORK, priority_work.heightr_work);

    let mut time: Vec<Option<i64>> = vec![None; n];
    let mut prev_time = vec![0i64; n];
    let mut never_scheduled = vec![true; n];
    let mut alternative = vec![0usize; n];
    let mut mrt = Mrt::new(ii, problem.machine().num_resources());
    let mut budget = budget;
    let mut real_steps = 0u64;
    let mut unscheduled = n; // including START until it is placed

    // Schedule the START operation at time 0. Pseudo-operations are not
    // charged against the budget (the paper's BudgetRatio counts operation
    // scheduling steps over the loop's real operations).
    time[start.index()] = Some(0);
    never_scheduled[start.index()] = false;
    prev_time[start.index()] = 0;
    unscheduled -= 1;
    observer.op_scheduled(start, 0, 0, false);

    // HighestPriorityOperation as a priority-sorted worklist (§3.2): the
    // heap holds exactly the unscheduled operations, keyed by priority with
    // ties to the smaller id, replacing a per-step O(N) scan. Displaced
    // operations are reinserted by `unschedule`.
    let mut worklist: BinaryHeap<Cand> = (0..n as u32)
        .map(NodeId)
        .filter(|&v| v != start)
        .map(|v| Cand {
            height: heights[v.index()],
            node: v,
        })
        .collect();
    // Eviction scratch, reused across every forced placement.
    let mut victims: Vec<NodeId> = Vec::new();

    while unscheduled > 0 {
        let node = worklist
            .pop()
            .expect("unscheduled > 0 implies a candidate exists")
            .node;

        // Estart: only currently scheduled predecessors constrain the slot,
        // each term clamped at zero (Figure 5b).
        let mut estart = 0i64;
        let mut preds_examined = 0u32;
        for e in graph.preds(node) {
            preds_examined += 1;
            if e.from == node {
                continue;
            }
            if let Some(tq) = time[e.from.index()] {
                let term = tq + e.delay - ii * e.distance as i64;
                if term > estart {
                    estart = term;
                }
            }
        }
        observer.estart_computed(node, preds_examined);
        let min_time = estart;

        // FindTimeSlot (Figure 4): the II slots from Estart.
        let info = problem.info(node);
        if info.is_some() && budget <= 0 {
            // The budget covers real-operation scheduling steps only; it is
            // spent, so this candidate II has failed.
            observer.budget_exhausted(ii, real_steps);
            observer.work(phase::SCHED_ATTEMPTS_FAILED, 1);
            observer.work(phase::MACHINE_MRT_PROBES, mrt.probes());
            return (None, real_steps);
        }
        let (slot, found_alt) = match info {
            None => (min_time, None), // Pseudo-operations use no resources.
            Some(info) => {
                // A resource-free slot can still be vetoed by the observer
                // (register pressure, in ims-press); a veto is treated
                // exactly like a resource conflict. If every slot in the
                // window is vetoed, the forced-slot rule below places
                // anyway — forward progress is preserved and the
                // attempt-level acceptance check arbitrates.
                let (found, search_iters) = mrt.find_slot(
                    &info.alternatives,
                    |k| !unusable.contains(&(node, k)),
                    min_time,
                    |t| !observer.placement_vetoed(node, t),
                );
                observer.slot_search(node, estart, search_iters);
                match found {
                    Some((t, k)) => (t, Some(k)),
                    // Forced slot with the forward-progress rule: never
                    // reschedule at the previous time.
                    None if never_scheduled[node.index()] || min_time > prev_time[node.index()] => {
                        (min_time, None)
                    }
                    None => (prev_time[node.index()] + 1, None),
                }
            }
        };

        // Schedule(node, slot): displace resource conflicts (only when the
        // slot was forced) and dependence-violating successors (§3.4).
        let mut forced = false;
        if let Some(info) = info {
            let usable = |k: &usize| !unusable.contains(&(node, *k));
            // A slot from the window comes with its alternative; a forced
            // slot is probed here.
            let free = found_alt.or_else(|| free_alternative(&mrt, info, node, slot, &unusable));
            let chosen = match free {
                Some(ai) => ai,
                None => {
                    forced = true;
                    // "all operations are unscheduled which conflict with
                    // the use of any of the alternatives".
                    for k in (0..info.alternatives.len()).filter(usable) {
                        let a = &info.alternatives[k];
                        mrt.conflicting_nodes_into(a.mask(), slot, &mut victims);
                        for &victim in &victims {
                            unschedule(
                                problem,
                                victim,
                                node,
                                &mut time,
                                &mut mrt,
                                &alternative,
                                &mut unscheduled,
                                &mut worklist,
                                &heights,
                                observer,
                            );
                        }
                    }
                    (0..info.alternatives.len())
                        .find(usable)
                        .expect("an operation with no usable alternative fails the attempt")
                }
            };
            mrt.place(node, info.alternatives[chosen].mask(), slot);
            alternative[node.index()] = chosen;
            real_steps += 1;
            budget -= 1;
        }
        time[node.index()] = Some(slot);
        never_scheduled[node.index()] = false;
        prev_time[node.index()] = slot;
        unscheduled -= 1;
        observer.op_scheduled(node, slot, alternative[node.index()], forced);

        // Displace scheduled immediate successors whose dependence
        // constraint the new placement violates.
        for e in graph.succs(node) {
            if e.to == node {
                continue;
            }
            if let Some(tq) = time[e.to.index()] {
                if tq < slot + e.delay - ii * e.distance as i64 {
                    unschedule(
                        problem,
                        e.to,
                        node,
                        &mut time,
                        &mut mrt,
                        &alternative,
                        &mut unscheduled,
                        &mut worklist,
                        &heights,
                        observer,
                    );
                }
            }
        }
    }

    observer.work(phase::MACHINE_MRT_PROBES, mrt.probes());
    let time: Vec<i64> = time
        .into_iter()
        .map(|t| t.expect("all scheduled"))
        .collect();
    let length = time[stop.index()];
    (
        Some(Schedule {
            ii,
            time,
            alternative,
            length,
        }),
        real_steps,
    )
}

/// The first alternative of `node` that issues at `time` without an MRT
/// conflict and is not in `unusable` (see
/// [`self_colliding_alternatives`]): the probe of a forced slot, which
/// may lie outside the window FindTimeSlot scanned.
fn free_alternative(
    mrt: &Mrt,
    info: &ims_machine::OpcodeInfo,
    node: NodeId,
    time: i64,
    unusable: &[(NodeId, usize)],
) -> Option<usize> {
    let free = |k: &usize| !mrt.conflicts(info.alternatives[*k].mask(), time);
    let first = info
        .alternatives
        .iter()
        .position(|a| !mrt.conflicts(a.mask(), time))?;
    if !unusable.contains(&(node, first)) {
        return Some(first);
    }
    (first + 1..info.alternatives.len())
        .filter(free)
        .find(|&k| !unusable.contains(&(node, k)))
}

#[allow(clippy::too_many_arguments)]
fn unschedule<O: SchedObserver>(
    problem: &Problem<'_>,
    victim: NodeId,
    evictor: NodeId,
    time: &mut [Option<i64>],
    mrt: &mut Mrt,
    alternative: &[usize],
    unscheduled: &mut usize,
    worklist: &mut BinaryHeap<Cand>,
    heights: &[i64],
    observer: &mut O,
) {
    observer.op_evicted(victim, evictor);
    let t = time[victim.index()]
        .take()
        .expect("only scheduled operations are displaced");
    if let Some(info) = problem.info(victim) {
        mrt.remove(
            victim,
            info.alternatives[alternative[victim.index()]].mask(),
            t,
        );
    }
    *unscheduled += 1;
    // Reinsert into the priority worklist so the displaced operation
    // competes for the next scheduling step again.
    worklist.push(Cand {
        height: heights[victim.index()],
        node: victim,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use crate::validate::validate_schedule;
    use crate::Scheduler;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::{cydra, cydra_simple, minimal, single_alu, wide};

    fn chain<'m>(machine: &'m ims_machine::MachineModel, ops: &[Opcode]) -> Problem<'m> {
        let mut pb = ProblemBuilder::new(machine);
        let mut prev = None;
        for (i, &o) in ops.iter().enumerate() {
            let n = pb.add_op(o, OpId(i as u32));
            if let Some(p) = prev {
                let d = machine.latency(ops[i - 1]) as i64;
                pb.add_dep(p, n, d, 0, DepKind::Flow, false);
            }
            prev = Some(n);
        }
        pb.finish()
    }

    #[test]
    fn trivial_chain_schedules_at_resmii() {
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Mul, Opcode::Add]);
        let out = Scheduler::new(&p).run().unwrap();
        assert_eq!(out.schedule.ii, 3); // single unit, 3 ops
        assert_eq!(out.delta_ii(), 0);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        // Simple loop: scheduled in one pass, once per op.
        assert_eq!(out.stats.final_steps(), 3);
    }

    #[test]
    fn recurrence_limits_ii() {
        let m = wide(4);
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 2, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 2, 1, DepKind::Flow, false); // cycle delay 4, dist 1
        let p = pb.finish();
        let out = Scheduler::new(&p).run().unwrap();
        assert_eq!(out.mii.rec_mii, 4);
        assert_eq!(out.schedule.ii, 4);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn overlap_across_iterations_happens() {
        // On wide(4) with latency-2 ops, a 4-op independent loop has
        // ResMII 1: four iterations in flight at once.
        let m = wide(4);
        let mut pb = ProblemBuilder::new(&m);
        for i in 0..4 {
            let _ = pb.add_op(Opcode::Add, OpId(i));
        }
        let p = pb.finish();
        let out = Scheduler::new(&p).run().unwrap();
        assert_eq!(out.schedule.ii, 1);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        assert!(out.schedule.stage_count() >= 1);
    }

    #[test]
    fn complex_tables_force_iteration_but_still_succeed() {
        // Loads + arithmetic on the complex Cydra model exercise
        // displacement; the schedule must still validate.
        let m = cydra();
        let mut pb = ProblemBuilder::new(&m);
        let l1 = pb.add_op(Opcode::Load, OpId(0));
        let l2 = pb.add_op(Opcode::Load, OpId(1));
        let mul = pb.add_op(Opcode::Mul, OpId(2));
        let acc = pb.add_op(Opcode::Add, OpId(3));
        let p1 = pb.add_op(Opcode::AddrAdd, OpId(4));
        let p2 = pb.add_op(Opcode::AddrAdd, OpId(5));
        pb.add_dep(l1, mul, 20, 0, DepKind::Flow, false);
        pb.add_dep(l2, mul, 20, 0, DepKind::Flow, false);
        pb.add_dep(mul, acc, 5, 0, DepKind::Flow, false);
        pb.add_dep(acc, acc, 4, 1, DepKind::Flow, false);
        pb.add_dep(p1, p1, 3, 1, DepKind::Flow, false);
        pb.add_dep(p2, p2, 3, 1, DepKind::Flow, false);
        pb.add_dep(p1, l1, 3, 1, DepKind::Flow, false);
        pb.add_dep(p2, l2, 3, 1, DepKind::Flow, false);
        let p = pb.finish();
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
            .unwrap();
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        // Dot-product-like loop: the accumulator recurrence (delay 4) and
        // the shared source bus (2 arith ops) both allow II 4; loads allow
        // II 1 per port... MII should be 4.
        assert_eq!(out.mii.mii, 4);
    }

    #[test]
    fn divide_blocks_the_multiplier() {
        let m = cydra_simple();
        let mut pb = ProblemBuilder::new(&m);
        let _ = pb.add_op(Opcode::Div, OpId(0));
        let _ = pb.add_op(Opcode::Mul, OpId(1));
        let p = pb.finish();
        let out = Scheduler::new(&p).run().unwrap();
        // Divide occupies the multiplier for 20 cycles; the extra multiply
        // needs one more.
        assert_eq!(out.mii.res_mii, 21);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn budget_exhaustion_escalates_ii() {
        // A tiny budget forces failures at small IIs; the scheduler must
        // still terminate with a valid (if larger-II) schedule.
        let m = minimal();
        let p = chain(&m, &[Opcode::Add; 8]);
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(1.0))
            .run()
            .unwrap();
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        assert!(out.schedule.ii >= out.mii.mii);
    }

    #[test]
    fn attempts_are_recorded_in_order() {
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Add]);
        let out = Scheduler::new(&p).run().unwrap();
        assert!(!out.stats.attempts.is_empty());
        assert!(out.stats.attempts.last().unwrap().succeeded);
        assert_eq!(out.stats.attempts.last().unwrap().ii, out.schedule.ii);
        assert!(out.stats.total_steps() >= out.stats.final_steps());
    }

    #[test]
    fn budget_exhaustion_up_to_the_cap_is_a_structured_error() {
        // A budget too small to schedule the loop (one real step for two
        // operations) fails at every candidate II; the cap turns that into
        // an error instead of an infinite search.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();
        // Without `max_ii`, the automatic cap: list-schedule length 2 (add
        // at 0, add at 1, STOP at 2), plus the largest delay 1 (an add's
        // table spans 0 cycles), plus 1.
        for (max_ii, cap) in [(Some(3), 3), (None, 4)] {
            // budget rounds up to 1 real step of the 2 needed
            let mut config = SchedConfig::new().budget_ratio(0.1);
            config.max_ii = max_ii;
            let err = Scheduler::new(&p).config(config).run().unwrap_err();
            match err {
                ScheduleError::BudgetExhausted { last_ii, spent } => {
                    assert_eq!(last_ii, cap, "every II up to the cap was attempted");
                    assert!(spent >= 1, "each failed attempt spent its one step");
                }
                other => panic!("expected BudgetExhausted, got {other:?}"),
            }
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn a_loop_that_fits_at_the_mii_never_computes_the_automatic_cap() {
        // A zero-delay same-iteration self-dependence is satisfied at any
        // slot, but it is a cycle, on which the list schedule behind the
        // automatic cap panics: only a walk that never needs the cap can
        // schedule this loop.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 0, 0, DepKind::Flow, false);
        let p = pb.finish();
        let out = Scheduler::new(&p).run().unwrap();
        assert_eq!(out.schedule.ii, out.mii.mii);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn ii_cap_below_mii_is_rejected_without_an_attempt() {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        pb.add_dep(a, a, 5, 1, DepKind::Flow, false); // RecMII 5
        let p = pb.finish();
        let err = Scheduler::new(&p)
            .config(SchedConfig::new().max_ii(4))
            .run()
            .unwrap_err();
        assert_eq!(err, ScheduleError::IiCapExceeded { mii: 5, max_ii: 4 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn an_mii_above_the_ceiling_is_refused_before_any_mrt() {
        // Two adds on a recurrence of delay d + 1 over distance 1: RecMII
        // d + 1. At d = 10^9 an MRT would need 16 GB, so the run must
        // answer before allocating one, under any cap; the ceiling itself
        // still schedules.
        let m = minimal();
        let recurrence = |d: i64| {
            let mut pb = ProblemBuilder::new(&m);
            let a = pb.add_op(Opcode::Add, OpId(0));
            let b = pb.add_op(Opcode::Add, OpId(1));
            pb.add_dep(a, b, d, 0, DepKind::Flow, false);
            pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
            pb.finish()
        };
        let huge = recurrence(1_000_000_000);
        let refused = ScheduleError::IiCapExceeded {
            mii: 1_000_000_001,
            max_ii: MII_CEILING,
        };
        for config in [SchedConfig::new(), SchedConfig::new().max_ii(i64::MAX)] {
            let err = Scheduler::new(&huge).config(config).run().unwrap_err();
            assert_eq!(err, refused);
        }
        let out = Scheduler::new(&recurrence(MII_CEILING - 1)).run().unwrap();
        assert_eq!(out.schedule.ii, MII_CEILING);
    }

    #[test]
    fn budget_is_over_real_ops_and_pseudo_ops_are_free() {
        // Regression for the off-by-pseudo-ops budget: BudgetRatio 0.5 on a
        // single-operation loop gives the paper's budget ceil(0.5·1) = 1
        // real scheduling step — exactly enough, so the loop schedules at
        // its MII in one attempt with one step. The old accounting
        // (ceil(0.5·3) = 2 over all graph nodes, with START and STOP
        // placement both charged) ran out of budget before STOP at every
        // candidate II and pushed the loop into IiCapExceeded.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let _ = pb.add_op(Opcode::Add, OpId(0));
        let p = pb.finish();
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(0.5))
            .run()
            .unwrap();
        assert_eq!(out.schedule.ii, out.mii.mii);
        assert_eq!(out.stats.attempts.len(), 1, "first candidate II succeeds");
        assert_eq!(out.stats.final_steps(), 1, "exactly one real step spent");
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn empty_loop_schedules() {
        let m = minimal();
        let p = ProblemBuilder::new(&m).finish();
        let out = Scheduler::new(&p).run().unwrap();
        assert_eq!(out.schedule.length, 0);
        assert_eq!(out.schedule.ii, 1);
    }

    #[test]
    fn stage_count_matches_length() {
        let s = Schedule {
            ii: 4,
            time: vec![],
            alternative: vec![],
            length: 9,
        };
        assert_eq!(s.stage_count(), 3);
        let s0 = Schedule {
            ii: 4,
            time: vec![],
            alternative: vec![],
            length: 0,
        };
        assert_eq!(s0.stage_count(), 1);
    }

    #[test]
    fn schedule_times_are_nonnegative_and_start_is_zero() {
        let m = single_alu();
        let p = chain(&m, &[Opcode::Load, Opcode::Add, Opcode::Store]);
        let out = Scheduler::new(&p).run().unwrap();
        assert_eq!(out.schedule.time_of(p.start()), 0);
        assert!(out.schedule.time.iter().all(|&t| t >= 0));
    }

    /// Vetoes every placement and/or rejects the first `reject` attempts.
    #[derive(Default)]
    struct StrictObserver {
        veto_all: bool,
        reject: usize,
        vetoes_asked: u64,
        accepts_asked: u64,
    }

    impl crate::SchedObserver for StrictObserver {
        fn placement_vetoed(&mut self, _: ims_graph::NodeId, _: i64) -> bool {
            self.vetoes_asked += 1;
            self.veto_all
        }
        fn attempt_accept(&mut self, _: i64, _: &Schedule) -> bool {
            self.accepts_asked += 1;
            if self.reject > 0 {
                self.reject -= 1;
                false
            } else {
                true
            }
        }
    }

    #[test]
    fn veto_of_every_slot_cannot_stall_the_scheduler() {
        // The forced-slot rule bypasses the veto, so even an observer that
        // vetoes every resource-free slot still yields a valid schedule.
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Mul, Opcode::Add]);
        let mut obs = StrictObserver {
            veto_all: true,
            ..Default::default()
        };
        let out = Scheduler::new(&p).observer(&mut obs).run().unwrap();
        assert!(obs.vetoes_asked > 0, "the veto hook was consulted");
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn rejected_attempts_bump_the_ii() {
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Add]);
        let baseline = Scheduler::new(&p).run().unwrap();
        let mut obs = StrictObserver {
            reject: 2,
            ..Default::default()
        };
        let out = Scheduler::new(&p).observer(&mut obs).run().unwrap();
        assert_eq!(out.schedule.ii, baseline.schedule.ii + 2);
        assert_eq!(obs.accepts_asked, 3, "each completed attempt was judged");
        // The rejected attempts are recorded as failures.
        let failed = out.stats.attempts.iter().filter(|a| !a.succeeded).count();
        assert_eq!(failed, 2);
        assert!(validate_schedule(&p, &out.schedule).is_ok());
    }

    #[test]
    fn rejection_up_to_the_cap_is_pressure_infeasible_when_a_limit_is_set() {
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Add]);
        let cfg = SchedConfig::new().max_ii(5).pressure_limit(1);
        let mut obs = StrictObserver {
            reject: usize::MAX,
            ..Default::default()
        };
        let err = Scheduler::new(&p)
            .config(cfg)
            .observer(&mut obs)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::PressureInfeasible {
                limit: 1,
                last_ii: 5
            }
        );
        assert!(!err.to_string().is_empty());
    }

    /// Sums `work` events by phase and counts attempt starts.
    #[derive(Default)]
    struct WorkTally {
        work: std::collections::BTreeMap<&'static str, u64>,
        starts: u64,
    }

    impl crate::SchedObserver for WorkTally {
        fn attempt_start(&mut self, _: i64, _: i64) {
            self.starts += 1;
        }
        fn work(&mut self, phase: &'static str, n: u64) {
            *self.work.entry(phase).or_default() += n;
        }
    }

    #[test]
    fn a_pressure_infeasible_run_still_reports_its_work() {
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Add]);
        let cfg = SchedConfig::new().max_ii(5).pressure_limit(1);
        let mut strict = StrictObserver {
            reject: usize::MAX,
            ..Default::default()
        };
        let mut tally = WorkTally::default();
        let err = Scheduler::new(&p)
            .config(cfg)
            .observer((&mut strict, &mut tally))
            .run()
            .unwrap_err();
        assert!(matches!(err, ScheduleError::PressureInfeasible { .. }));
        assert!(tally.work[phase::MACHINE_MRT_PROBES] > 0);
        assert!(tally.work[phase::SCHED_RESMII_WORK] > 0);
        assert_eq!(tally.starts, 4, "II 2 through the cap 5");
        assert_eq!(tally.work[phase::SCHED_ATTEMPTS], tally.starts);
    }

    #[test]
    fn rejection_without_a_limit_reports_budget_exhaustion() {
        // The acceptance seam is generic: without `pressure_limit` set the
        // error stays the plain cap-exhaustion one.
        let m = minimal();
        let p = chain(&m, &[Opcode::Add, Opcode::Add]);
        let cfg = SchedConfig::new().max_ii(4);
        let mut obs = StrictObserver {
            reject: usize::MAX,
            ..Default::default()
        };
        let err = Scheduler::new(&p)
            .config(cfg)
            .observer(&mut obs)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::BudgetExhausted { last_ii: 4, .. }
        ));
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use crate::validate::validate_schedule;
    use crate::Scheduler;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::figure1_machine;

    #[test]
    fn mii_can_be_structurally_unachievable() {
        // §2: "the MII is not necessarily an achievable lower bound". On
        // the literal Figure 1 machine, a mul feeding an add around a
        // distance-2 recurrence has MII 5, but the shared source and result
        // buses make II 5 impossible: t(add)-t(mul) must be 5 or 6, and
        // both collide (source bus at 5, result bus at 6). The scheduler
        // must discover II 6.
        let m = figure1_machine();
        let mut pb = ProblemBuilder::new(&m);
        let mul = pb.add_op(Opcode::Mul, OpId(0));
        let add = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
        pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
        let p = pb.finish();
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(8.0))
            .run()
            .unwrap();
        assert_eq!(out.mii.mii, 5, "cycle delay 9 over distance 2");
        assert!(
            out.delta_ii() > 0,
            "II {} should exceed the MII",
            out.schedule.ii
        );
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        // The failed attempt at the MII is on record.
        assert!(!out.stats.attempts[0].succeeded);
    }

    #[test]
    fn scheduling_is_deterministic() {
        let m = figure1_machine();
        let build = || {
            let mut pb = ProblemBuilder::new(&m);
            let ops: Vec<_> = (0..6)
                .map(|i| pb.add_op(if i % 2 == 0 { Opcode::Add } else { Opcode::Mul }, OpId(i)))
                .collect();
            for w in ops.windows(2) {
                pb.add_dep(w[0], w[1], 4, 0, DepKind::Flow, false);
            }
            pb.add_dep(ops[5], ops[0], 4, 3, DepKind::Flow, false);
            pb.finish()
        };
        let p1 = build();
        let p2 = build();
        let a = Scheduler::new(&p1).run().unwrap();
        let b = Scheduler::new(&p2).run().unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.stats.attempts.len(), b.stats.attempts.len());
    }

    #[test]
    fn displacement_is_exercised_on_tight_machines() {
        // A loop saturating the shared buses forces the iterative behaviour
        // (operations scheduled more than once) — the whole point of §3.
        let m = figure1_machine();
        let mut pb = ProblemBuilder::new(&m);
        for i in 0..6 {
            let _ = pb.add_op(if i % 2 == 0 { Opcode::Add } else { Opcode::Mul }, OpId(i));
        }
        let p = pb.finish();
        let out = Scheduler::new(&p)
            .config(SchedConfig::new().budget_ratio(8.0))
            .run()
            .unwrap();
        assert!(validate_schedule(&p, &out.schedule).is_ok());
        // Six single-cycle source-bus users need II >= 6.
        assert!(out.schedule.ii >= 6);
    }
}
