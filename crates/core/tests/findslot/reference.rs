//! The per-slot FindTimeSlot walk, kept as the reference the window scan
//! is compared against: `iterative_schedule_observed` (Figure 3) as it
//! stood before FindTimeSlot read its window 64 slots at a time, with
//! the helpers it calls. Only the import paths differ from that code.

use std::collections::BinaryHeap;

use ims_core::{
    priorities, self_colliding_alternatives, Counters, Mrt, PriorityKind, Problem, SchedObserver,
    Schedule,
};
use ims_graph::NodeId;
use ims_prof::phase;

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
        let max_time = min_time + ii - 1;

        // FindTimeSlot (Figure 4).
        let info = problem.info(node);
        if info.is_some() && budget <= 0 {
            // The budget covers real-operation scheduling steps only; it is
            // spent, so this candidate II has failed.
            observer.budget_exhausted(ii, real_steps);
            observer.work(phase::SCHED_ATTEMPTS_FAILED, 1);
            observer.work(phase::MACHINE_MRT_PROBES, mrt.probes());
            return (None, real_steps);
        }
        let slot = match info {
            None => min_time, // Pseudo-operations use no resources.
            Some(info) => {
                let mut found = None;
                let mut cur = min_time;
                let mut search_iters = 0u32;
                while found.is_none() && cur <= max_time {
                    search_iters += 1;
                    let free = free_alternative(&mrt, info, node, cur, &unusable);
                    // A resource-free slot can still be vetoed by the
                    // observer (register pressure, in ims-press); a veto is
                    // treated exactly like a resource conflict. If every
                    // slot in the window is vetoed, the forced-slot rule
                    // below places anyway — forward progress is preserved
                    // and the attempt-level acceptance check arbitrates.
                    if free.is_some() && !observer.placement_vetoed(node, cur) {
                        found = Some(cur);
                    } else {
                        cur += 1;
                    }
                }
                observer.slot_search(node, estart, search_iters);
                match found {
                    Some(t) => t,
                    None => {
                        // Forced slot with the forward-progress rule: never
                        // reschedule at the previous time.
                        if never_scheduled[node.index()] || min_time > prev_time[node.index()] {
                            min_time
                        } else {
                            prev_time[node.index()] + 1
                        }
                    }
                }
            }
        };

        // Schedule(node, slot): displace resource conflicts (only when the
        // slot was forced) and dependence-violating successors (§3.4).
        let mut forced = false;
        if let Some(info) = info {
            let usable = |k: &usize| !unusable.contains(&(node, *k));
            let chosen = match free_alternative(&mrt, info, node, slot, &unusable) {
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
/// [`self_colliding_alternatives`]). Inlined: FindTimeSlot calls it at
/// every slot it probes.
#[inline(always)]
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
