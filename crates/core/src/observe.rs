//! Event-level scheduler observability.
//!
//! The paper's §4 evaluation reasons about *why* iterative scheduling
//! converges — budget spent per candidate II, operations displaced, slot
//! searches performed — and Table 4 about how much work each
//! sub-activity does. [`SchedObserver`] is the one channel for both: it
//! exposes the scheduler's individual decisions and its work counts as
//! they happen, and every total is a fold of that stream. The scheduling
//! entry points are generic over an observer, so a real observer (the
//! event-recording `Recorder` in `ims-trace`) sees every event, while
//! the default [`NullObserver`] monomorphizes every hook into an empty
//! inline body — the untraced scheduler compiles to exactly the code it
//! had before this trait existed, and its output (schedules, counters,
//! corpus stdout) is bit-identical.
//!
//! Hooks fire in scheduling order. For one operation-scheduling step at
//! candidate initiation interval II the sequence is:
//!
//! 1. [`slot_search`](SchedObserver::slot_search) — `FindTimeSlot`
//!    examined `iters` slots starting at `estart` (real operations only),
//!    after consulting [`placement_vetoed`](SchedObserver::placement_vetoed)
//!    at zero or more of them;
//! 2. zero or more [`op_evicted`](SchedObserver::op_evicted) — operations
//!    displaced by a forced placement's resource conflicts;
//! 3. [`op_scheduled`](SchedObserver::op_scheduled) — the operation is
//!    placed (with `forced = true` when no conflict-free slot existed);
//! 4. zero or more further [`op_evicted`](SchedObserver::op_evicted) —
//!    scheduled successors whose dependence constraints the new placement
//!    violates.
//!
//! Around the steps, [`attempt_start`](SchedObserver::attempt_start) /
//! [`attempt_done`](SchedObserver::attempt_done) bracket each candidate
//! II, and [`budget_exhausted`](SchedObserver::budget_exhausted) fires
//! when an attempt runs out of its `BudgetRatio · N` step budget.
//!
//! Work no step event carries (MII, HeightR, MRT probes, attempts, and
//! the provers' decider counts) arrives as [`work`](SchedObserver::work)
//! events, once per run or per attempt. [`Counters`](crate::Counters) is
//! an observer too, so a failed run is counted like a successful one.
//!
//! Two hooks are *consulted* rather than merely notified:
//! [`placement_vetoed`](SchedObserver::placement_vetoed) lets an observer
//! reject a resource-free slot inside `FindTimeSlot` (the slot is then
//! treated exactly like a resource conflict; the forced-slot rule still
//! bypasses the veto so forward progress is preserved; its docs give the
//! order the walk asks in), and
//! [`attempt_accept`](SchedObserver::attempt_accept) lets an observer
//! reject a completed schedule at a candidate II, forcing the II to be
//! bumped. Both default to "no objection", so every existing observer is
//! unaffected; `ims-press` implements them to enforce a register-pressure
//! limit.
//!
//! Two observers watch one run as a pair: `(A, B)` is itself an
//! observer that hands every hook to `A`, then to `B`.
//!
//! Replaying events 2–4 (set the node's time on `op_scheduled`, clear it
//! on `op_evicted`) reconstructs the final schedule exactly; the
//! workspace's property tests rely on this.

use ims_graph::NodeId;

use crate::backend::BackendKind;
use crate::sched::Schedule;

/// Receiver for scheduler events; all hooks default to no-ops, so an
/// observer only implements the events it cares about.
///
/// The scheduling entry points ([`Scheduler`](crate::Scheduler), and the
/// `*_observed` functions behind it) are generic over `SchedObserver` and
/// monomorphized per observer type: observing costs exactly what the
/// observer's hook bodies cost, and [`NullObserver`] costs nothing.
pub trait SchedObserver {
    /// A backend run is starting; fired once per run, before any
    /// `attempt_start`, so observers can stamp subsequent events with
    /// the backend that produced them.
    fn backend(&mut self, kind: BackendKind) {
        let _ = kind;
    }

    /// An attempt at candidate initiation interval `ii` begins, with
    /// `budget` operation-scheduling steps available.
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        let _ = (ii, budget);
    }

    /// `node` was placed at `time` using alternative `alt`. `forced` is
    /// true when no conflict-free slot existed and the placement displaced
    /// conflicting operations (§3.4). Fires for the START/STOP
    /// pseudo-operations too (always `alt = 0`, `forced = false`).
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        let _ = (node, time, alt, forced);
    }

    /// `node` was unscheduled because placing `evictor` displaced it —
    /// either a resource conflict with a forced placement or a violated
    /// dependence constraint.
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        let _ = (node, evictor);
    }

    /// `FindTimeSlot` examined `iters` candidate slots for `node`,
    /// starting at `estart` (Figure 4; real operations only).
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        let _ = (node, estart, iters);
    }

    /// The scheduler computed Estart for `node` by examining `preds`
    /// immediate predecessors (§3.2; fires once per scheduling step,
    /// including the START/STOP pseudo-operations, just before the
    /// corresponding `slot_search`). The per-step distribution of `preds`
    /// is what the profiler's `sched.estart.preds_per_op` histogram
    /// collects.
    fn estart_computed(&mut self, node: NodeId, preds: u32) {
        let _ = (node, preds);
    }

    /// The attempt at `ii` ran out of budget after `spent`
    /// operation-scheduling steps.
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        let _ = (ii, spent);
    }

    /// The attempt at `ii` finished; `ok` is whether every operation was
    /// scheduled within budget.
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        let _ = (ii, ok);
    }

    /// `n` units of work were done under the `ims_prof::phase` counter
    /// name `phase`. Fired once per run or per attempt, never per
    /// scheduling step, so an observer may match on the name.
    fn work(&mut self, phase: &'static str, n: u64) {
        let _ = (phase, n);
    }

    /// `FindTimeSlot` found a resource-free slot for `node` at `time`;
    /// return `true` to veto it, in which case the scheduler treats the
    /// slot as a resource conflict and keeps searching. The forced-slot
    /// rule (§3.4) deliberately bypasses this hook so a veto can never
    /// stall the schedule; attempt-level acceptance arbitrates instead.
    /// Defaults to `false` (never veto), which folds away entirely.
    ///
    /// The IMS walk consults this hook in a fixed order. Within one
    /// scheduling step it asks only about the window of II slots from
    /// Estart, and only at the slots where a usable alternative of
    /// `node` issues without a resource conflict. It asks in increasing
    /// `time` and stops at the first slot not vetoed, which the step
    /// then places `node` at: the next hook call after that answer is
    /// [`slot_search`](SchedObserver::slot_search), then
    /// [`op_scheduled`](SchedObserver::op_scheduled) for `node` at that
    /// `time` (no eviction comes between them, as the slot was free). It
    /// is never called for the forced slot. An observer may therefore
    /// carry work from a `false` answer over to that `op_scheduled`, as
    /// `ims-press`'s pressure model reuses its probe's peak.
    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        let _ = (node, time);
        false
    }

    /// The attempt at `ii` scheduled every operation; return `false` to
    /// reject the completed `schedule`, recording the attempt as failed
    /// and bumping the candidate II. Defaults to `true` (accept), which
    /// folds away entirely.
    fn attempt_accept(&mut self, ii: i64, schedule: &Schedule) -> bool {
        let _ = (ii, schedule);
        true
    }
}

/// The default do-nothing observer: every hook is an empty inline body,
/// so the monomorphized scheduler is identical to an unobserved one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl SchedObserver for NullObserver {}

/// Forwarding impl so a borrowed observer can be handed to the builder
/// (`Scheduler::new(&p).observer(&mut tracer)`) while the caller keeps
/// ownership for inspection afterwards. Every hook must forward
/// explicitly — the trait's default bodies are no-ops.
impl<O: SchedObserver + ?Sized> SchedObserver for &mut O {
    fn backend(&mut self, kind: BackendKind) {
        (**self).backend(kind);
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        (**self).attempt_start(ii, budget);
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        (**self).op_scheduled(node, time, alt, forced);
    }
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        (**self).op_evicted(node, evictor);
    }
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        (**self).slot_search(node, estart, iters);
    }
    fn estart_computed(&mut self, node: NodeId, preds: u32) {
        (**self).estart_computed(node, preds);
    }
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        (**self).budget_exhausted(ii, spent);
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        (**self).attempt_done(ii, ok);
    }
    fn work(&mut self, phase: &'static str, n: u64) {
        (**self).work(phase, n);
    }
    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        (**self).placement_vetoed(node, time)
    }
    fn attempt_accept(&mut self, ii: i64, schedule: &Schedule) -> bool {
        (**self).attempt_accept(ii, schedule)
    }
}

/// Broadcast impl so one run can feed two observers, e.g. a pressure
/// limit and a trace recorder: `.observer((&mut press, &mut rec))`.
/// Every hook reaches `A`, then `B`. Both sides are always consulted,
/// with no short-circuit, and their verdicts combine strictly: a
/// placement stands only if neither side vetoes it, and an attempt only
/// if both accept it. With `B = NullObserver` the pair is exactly `A`.
impl<A: SchedObserver, B: SchedObserver> SchedObserver for (A, B) {
    fn backend(&mut self, kind: BackendKind) {
        self.0.backend(kind);
        self.1.backend(kind);
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.0.attempt_start(ii, budget);
        self.1.attempt_start(ii, budget);
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        self.0.op_scheduled(node, time, alt, forced);
        self.1.op_scheduled(node, time, alt, forced);
    }
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        self.0.op_evicted(node, evictor);
        self.1.op_evicted(node, evictor);
    }
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        self.0.slot_search(node, estart, iters);
        self.1.slot_search(node, estart, iters);
    }
    fn estart_computed(&mut self, node: NodeId, preds: u32) {
        self.0.estart_computed(node, preds);
        self.1.estart_computed(node, preds);
    }
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        self.0.budget_exhausted(ii, spent);
        self.1.budget_exhausted(ii, spent);
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        self.0.attempt_done(ii, ok);
        self.1.attempt_done(ii, ok);
    }
    fn work(&mut self, phase: &'static str, n: u64) {
        self.0.work(phase, n);
        self.1.work(phase, n);
    }
    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        let a = self.0.placement_vetoed(node, time);
        let b = self.1.placement_vetoed(node, time);
        a || b
    }
    fn attempt_accept(&mut self, ii: i64, schedule: &Schedule) -> bool {
        let a = self.0.attempt_accept(ii, schedule);
        let b = self.1.attempt_accept(ii, schedule);
        a && b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts every hook it sees; vetoes every placement and rejects
    /// every attempt.
    #[derive(Default)]
    struct CountingObserver {
        events: usize,
    }

    impl SchedObserver for CountingObserver {
        fn backend(&mut self, _: BackendKind) {
            self.events += 1;
        }
        fn attempt_start(&mut self, _: i64, _: i64) {
            self.events += 1;
        }
        fn op_scheduled(&mut self, _: NodeId, _: i64, _: usize, _: bool) {
            self.events += 1;
        }
        fn op_evicted(&mut self, _: NodeId, _: NodeId) {
            self.events += 1;
        }
        fn slot_search(&mut self, _: NodeId, _: i64, _: u32) {
            self.events += 1;
        }
        fn estart_computed(&mut self, _: NodeId, _: u32) {
            self.events += 1;
        }
        fn budget_exhausted(&mut self, _: i64, _: u64) {
            self.events += 1;
        }
        fn attempt_done(&mut self, _: i64, _: bool) {
            self.events += 1;
        }
        fn work(&mut self, _: &'static str, _: u64) {
            self.events += 1;
        }
        fn placement_vetoed(&mut self, _: NodeId, _: i64) -> bool {
            self.events += 1;
            true
        }
        fn attempt_accept(&mut self, _: i64, _: &Schedule) -> bool {
            self.events += 1;
            false
        }
    }

    fn dummy_schedule() -> Schedule {
        Schedule {
            ii: 2,
            time: vec![0, 0, 2],
            alternative: vec![0, 0, 0],
            length: 2,
        }
    }

    fn fire_all<O: SchedObserver>(obs: &mut O) -> (bool, bool) {
        obs.backend(BackendKind::Ims);
        obs.attempt_start(2, 10);
        obs.op_scheduled(NodeId(1), 0, 0, false);
        obs.op_evicted(NodeId(1), NodeId(2));
        obs.slot_search(NodeId(1), 0, 2);
        obs.estart_computed(NodeId(1), 3);
        obs.budget_exhausted(2, 10);
        obs.attempt_done(2, false);
        obs.work("sched.attempts", 1);
        let vetoed = obs.placement_vetoed(NodeId(1), 0);
        let accepted = obs.attempt_accept(2, &dummy_schedule());
        (vetoed, accepted)
    }

    #[test]
    fn null_observer_accepts_every_hook() {
        let (vetoed, accepted) = fire_all(&mut NullObserver);
        assert!(!vetoed, "default never vetoes a placement");
        assert!(accepted, "default always accepts an attempt");
    }

    /// The number of hooks `fire_all` fires.
    const HOOKS: usize = 11;

    #[test]
    fn mut_reference_forwards_every_overridden_hook() {
        let mut c = CountingObserver::default();
        let (vetoed, accepted) = fire_all(&mut &mut c);
        assert_eq!(c.events, HOOKS, "every hook forwarded");
        assert!(vetoed, "forwarding returns the inner veto verdict");
        assert!(!accepted, "forwarding returns the inner acceptance verdict");
    }

    #[test]
    fn pair_consults_both_sides_on_every_hook() {
        // The first side vetoes and rejects, so a short-circuiting pair
        // would skip the second side's consulted hooks.
        let mut pair = (CountingObserver::default(), CountingObserver::default());
        let (vetoed, accepted) = fire_all(&mut pair);
        assert_eq!(pair.0.events, HOOKS, "every hook reaches the first side");
        assert_eq!(pair.1.events, HOOKS, "every hook reaches the second side");
        assert!(vetoed);
        assert!(!accepted);
    }

    #[test]
    fn pair_lets_either_sides_veto_stand() {
        let mut first = (CountingObserver::default(), NullObserver);
        let (vetoed, accepted) = fire_all(&mut first);
        assert_eq!(first.0.events, HOOKS);
        assert!(vetoed, "the first side's veto stands");
        assert!(!accepted, "the first side's rejection stands");

        let mut second = (NullObserver, CountingObserver::default());
        let (vetoed, accepted) = fire_all(&mut second);
        assert_eq!(second.1.events, HOOKS);
        assert!(vetoed, "the second side's veto stands");
        assert!(!accepted, "the second side's rejection stands");

        let (vetoed, accepted) = fire_all(&mut (NullObserver, NullObserver));
        assert!(!vetoed, "no side objects, so the placement stands");
        assert!(accepted, "both sides accept, so the attempt stands");
    }
}
