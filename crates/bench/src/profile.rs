//! Pipeline-wide profiling support.
//!
//! Unprofiled runs deliberately measure nothing but what the paper
//! reports. This module holds the pieces behind the `--profile FILE`
//! flag of `corpus`, `optgap`, `table3` and `table4`: when
//! [`crate::measure_loop`] is handed a registry, every loop is measured
//! exactly as before — the JSON lines on stdout are byte-identical with
//! and without profiling — while a per-loop [`MetricsRegistry`]
//! additionally collects
//!
//! * the deterministic work counters of every pipeline phase (graph
//!   analysis, MII bounds, iterative scheduling, exact branch-and-bound,
//!   code generation, VLIW simulation), keyed by the names in
//!   [`ims_prof::phase`];
//! * per-step distributions (slot-search iterations, Estart predecessor
//!   counts) via the [`ProfObserver`] adapter on the scheduler's
//!   [`SchedObserver`] seam;
//! * wall-clock spans per phase, kept strictly in the registry's separate
//!   wall section.
//!
//! Profiled runs extend the pipeline past scheduling: each loop is also
//! lowered by modulo variable expansion and executed on the VLIW
//! simulator, so `codegen.*` and `vliw.sim.*` describe real emitted code
//! and real simulated cycles.
//!
//! Per-loop registries come back from the worker pool in corpus order and
//! are merged in that order; merging is commutative on the deterministic
//! sections anyway, so the deterministic part of the rendered
//! `BENCH_<name>.json` snapshot is byte-identical for every `--threads`
//! value. `scripts/verify.sh` enforces this with `benchdiff
//! --strict-counters --no-wall` on every run.

use std::path::Path;

use ims_codegen::{generate_mve_profiled, lifetimes_profiled};
use ims_core::{Counters, SchedObserver};
use ims_graph::NodeId;
use ims_prof::{phase, snapshot, MetricsRegistry, PhaseTimer, ProfSink};
use ims_vliw::{run_overlapped_profiled, MemoryImage};

/// [`SchedObserver`] adapter that feeds per-step distributions into a
/// [`MetricsRegistry`] (when one is given) while forwarding every event
/// to an inner observer (a trace writer, or `NullObserver`).
///
/// The registry records only deterministic quantities — candidate-II
/// attempts, budget exhaustions, and the per-step `slot_search` /
/// `estart_computed` histograms — so wrapping a run in a `ProfObserver`
/// never perturbs its schedule, its trace, or its stdout.
pub struct ProfObserver<'a, O> {
    inner: &'a mut O,
    reg: Option<&'a mut MetricsRegistry>,
}

impl<'a, O: SchedObserver> ProfObserver<'a, O> {
    /// Wraps `inner`, recording distributions into `reg` (if any).
    pub fn new(inner: &'a mut O, reg: Option<&'a mut MetricsRegistry>) -> Self {
        ProfObserver { inner, reg }
    }
}

impl<O: SchedObserver> SchedObserver for ProfObserver<'_, O> {
    fn backend(&mut self, kind: ims_core::BackendKind) {
        self.inner.backend(kind);
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.reg.count(phase::SCHED_ATTEMPTS, 1);
        self.inner.attempt_start(ii, budget);
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        self.inner.op_scheduled(node, time, alt, forced);
    }
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        self.inner.op_evicted(node, evictor);
    }
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        self.reg.record(phase::HIST_SLOT_SEARCH, iters as i64);
        self.inner.slot_search(node, estart, iters);
    }
    fn estart_computed(&mut self, node: NodeId, preds: u32) {
        self.reg.record(phase::HIST_ESTART_PREDS, preds as i64);
        self.inner.estart_computed(node, preds);
    }
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        self.reg.count(phase::SCHED_ATTEMPTS_FAILED, 1);
        self.inner.budget_exhausted(ii, spent);
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        self.inner.attempt_done(ii, ok);
    }
    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        self.inner.placement_vetoed(node, time)
    }
    fn attempt_accept(&mut self, ii: i64, schedule: &ims_core::Schedule) -> bool {
        self.inner.attempt_accept(ii, schedule)
    }
}

/// Files a scheduler run's [`Counters`] under the profiler's phase names.
/// Shared by every profiled driver (including `optgap`'s BudgetRatio
/// sweep), so the counter-to-phase mapping exists in exactly one place.
pub fn flush_counters(c: &Counters, reg: &mut MetricsRegistry) {
    reg.add(phase::GRAPH_SCC_WORK, c.scc_work);
    reg.add(phase::SCHED_RESMII_WORK, c.resmii_work);
    reg.add(phase::GRAPH_MINDIST_WORK, c.mindist_work);
    reg.add(phase::SCHED_HEIGHTR_WORK, c.heightr_work);
    reg.add(phase::SCHED_ESTART_PREDS, c.estart_preds);
    reg.add(phase::SCHED_FINDSLOT_ITERS, c.findslot_iters);
    reg.add(phase::SCHED_EVICTIONS, c.evictions);
    reg.add(phase::MACHINE_MRT_PROBES, c.mrt_probes);
}

/// Runs modulo variable expansion and the overlapped VLIW simulation for
/// an already-scheduled loop, filing `codegen.*` and `vliw.sim.*` metrics
/// (and their wall spans) into `reg`. Simulation errors are counted, not
/// propagated — a profile must never change what a run reports.
pub(crate) fn profile_backend_tail(
    body: &ims_ir::LoopBody,
    problem: &ims_core::Problem<'_>,
    schedule: &ims_core::Schedule,
    reg: &mut MetricsRegistry,
) {
    let t = PhaseTimer::start(phase::WALL_CODEGEN);
    let lt = lifetimes_profiled(body, problem, schedule, reg);
    let _code = generate_mve_profiled(body, problem, schedule, &lt, reg);
    t.finish(reg);

    let t = PhaseTimer::start(phase::WALL_VLIW);
    let _ = run_overlapped_profiled(body, problem, schedule, MemoryImage::for_body(body), reg);
    t.finish(reg);
}

/// Renders `reg` as a versioned `BENCH_<name>.json` snapshot and writes it
/// to `path` — the shared tail of every binary's `--profile FILE` flag.
///
/// # Errors
///
/// An I/O error writing `path`.
pub fn write_profile(path: &Path, name: &str, reg: &MetricsRegistry) -> std::io::Result<()> {
    std::fs::write(path, snapshot::render_snapshot(name, reg))
}

/// Extracts `--profile FILE` (or `--profile=FILE`) from a raw argv slice;
/// a `--profile` without a file exits 2 (see [`crate::pool::flag_or_exit`]).
pub fn parse_profile_path(args: &[String]) -> Option<std::path::PathBuf> {
    crate::pool::flag_or_exit(args, "--profile", "usage: --profile FILE")
}
