//! Instrumentation counters behind the paper's Table 4.
//!
//! §4.4 measures, per loop, *"the expected number of times the innermost
//! loop"* of each sub-activity executes and fits each count against N.
//! [`Counters`] is a fold of the scheduler's event stream: it is a
//! [`SchedObserver`] that sums the `work` events and the step events,
//! and [`Scheduler::run`](crate::Scheduler::run) attaches one to every
//! run, so the reproduction harness can redo those fits.

use ims_graph::NodeId;
use ims_prof::phase;

use crate::observe::SchedObserver;

/// Per-loop work counts for each sub-activity of iterative modulo
/// scheduling, in the order of the paper's Table 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// SCC identification: nodes visited + edges examined (`O(N+E)`).
    pub scc_work: u64,
    /// ResMII calculation: resource usages inspected (`O(N)`).
    pub resmii_work: u64,
    /// MII calculation: innermost-loop executions of `ComputeMinDist`
    /// across all SCCs and all candidate IIs (the paper's `11.9133·N`
    /// fit).
    pub mindist_work: u64,
    /// HeightR calculation: edge relaxations performed (the paper's
    /// `4.5021·N` fit; worst case `O(NE)`).
    pub heightr_work: u64,
    /// Iterative scheduling, part 1: immediate predecessors examined while
    /// computing Estart (the paper's `3.3321·N` fit).
    pub estart_preds: u64,
    /// Iterative scheduling, part 2: candidate time slots examined in
    /// `FindTimeSlot` (the paper's `0.0587·N² + 0.2001·N + 0.5` fit).
    pub findslot_iters: u64,
    /// Iterative scheduling, part 3: operations displaced (unscheduled) by
    /// the §3.4 eviction policy — both resource-conflict evictions on
    /// forced placement and dependence-violation evictions of successors.
    /// Zero when every operation is scheduled exactly once (§4.3 reports
    /// that happens for 90% of the paper's loops).
    pub evictions: u64,
    /// Modulo reservation table probe work: summed reservation-table
    /// footprints over every conflict check (`FindTimeSlot` probes plus
    /// eviction scans). Charged per probe up front, so the count is
    /// deterministic even though conflict checks short-circuit.
    pub mrt_probes: u64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation (used when aggregating across loops).
    pub fn add(&mut self, other: &Counters) {
        self.scc_work += other.scc_work;
        self.resmii_work += other.resmii_work;
        self.mindist_work += other.mindist_work;
        self.heightr_work += other.heightr_work;
        self.estart_preds += other.estart_preds;
        self.findslot_iters += other.findslot_iters;
        self.evictions += other.evictions;
        self.mrt_probes += other.mrt_probes;
    }
}

/// The fold: `work` events by phase name, the rest from the step events.
impl SchedObserver for Counters {
    fn work(&mut self, phase: &'static str, n: u64) {
        match phase {
            phase::GRAPH_SCC_WORK => self.scc_work += n,
            phase::SCHED_RESMII_WORK => self.resmii_work += n,
            phase::GRAPH_MINDIST_WORK => self.mindist_work += n,
            phase::SCHED_HEIGHTR_WORK => self.heightr_work += n,
            phase::MACHINE_MRT_PROBES => self.mrt_probes += n,
            _ => {}
        }
    }
    fn estart_computed(&mut self, _node: NodeId, preds: u32) {
        self.estart_preds += preds as u64;
    }
    fn slot_search(&mut self, _node: NodeId, _estart: i64, iters: u32) {
        self.findslot_iters += iters as u64;
    }
    fn op_evicted(&mut self, _node: NodeId, _evictor: NodeId) {
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_every_field() {
        let a = Counters {
            scc_work: 1,
            resmii_work: 2,
            mindist_work: 3,
            heightr_work: 4,
            estart_preds: 5,
            findslot_iters: 6,
            evictions: 7,
            mrt_probes: 8,
        };
        let mut b = a;
        b.add(&a);
        assert_eq!(
            b,
            Counters {
                scc_work: 2,
                resmii_work: 4,
                mindist_work: 6,
                heightr_work: 8,
                estart_preds: 10,
                findslot_iters: 12,
                evictions: 14,
                mrt_probes: 16,
            }
        );
    }

    #[test]
    fn new_is_zero() {
        assert_eq!(Counters::new(), Counters::default());
    }
}
