//! Pipeline-wide profiling support.
//!
//! Unprofiled runs deliberately measure nothing but what the paper
//! reports. This module holds the pieces behind the `--profile FILE`
//! flag of `corpus`, `optgap`, `explain`, `table3` and `table4`: when
//! [`crate::run_corpus`] profiles a corpus, every loop is measured
//! exactly as before — the JSON lines on stdout are byte-identical with
//! and without profiling — while a per-loop [`MetricsRegistry`]
//! additionally collects
//!
//! * the deterministic work counters of every pipeline phase (graph
//!   analysis, MII bounds, iterative scheduling, exact branch-and-bound,
//!   code generation, VLIW simulation), keyed by the names in
//!   [`ims_prof::phase`];
//! * per-step distributions (slot-search iterations, Estart predecessor
//!   counts) via the [`ProfObserver`] on the scheduler's
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
//! value. `scripts/verify.sh` byte-compares the deterministic sections of
//! every profiled driver's `--threads 1` and `--threads 4` runs, and its
//! golden gate pins their bytes.

use std::path::Path;

use ims_codegen::{generate_mve, lifetimes};
use ims_core::{Counters, SchedObserver};
use ims_graph::NodeId;
use ims_prof::{phase, snapshot, MetricsRegistry, PhaseTimer, ProfSink};
use ims_vliw::{run_overlapped, MemoryImage};

/// [`SchedObserver`] that files per-step distributions into a
/// [`MetricsRegistry`] (when one is given): candidate-II attempts, budget
/// exhaustions, and the per-step `slot_search` / `estart_computed`
/// histograms. Those four hooks are all it records; to trace the same
/// run, pair it with a recorder: `(ProfObserver::new(reg), &mut rec)`.
///
/// Everything it records is deterministic, so adding a `ProfObserver`
/// to a run never perturbs its schedule, its trace, or its stdout.
pub struct ProfObserver<'a> {
    reg: Option<&'a mut MetricsRegistry>,
}

impl<'a> ProfObserver<'a> {
    /// Records into `reg` (if any).
    pub fn new(reg: Option<&'a mut MetricsRegistry>) -> Self {
        ProfObserver { reg }
    }
}

impl SchedObserver for ProfObserver<'_> {
    fn attempt_start(&mut self, _ii: i64, _budget: i64) {
        self.reg.count(phase::SCHED_ATTEMPTS, 1);
    }
    fn slot_search(&mut self, _node: NodeId, _estart: i64, iters: u32) {
        self.reg.record(phase::HIST_SLOT_SEARCH, iters as i64);
    }
    fn estart_computed(&mut self, _node: NodeId, preds: u32) {
        self.reg.record(phase::HIST_ESTART_PREDS, preds as i64);
    }
    fn budget_exhausted(&mut self, _ii: i64, _spent: u64) {
        self.reg.count(phase::SCHED_ATTEMPTS_FAILED, 1);
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
/// (and their wall spans) into `reg`: the static names MVE needs, the
/// emitted code's instructions (prologue + unrolled kernel + coda),
/// unroll factor, stage count and preloaded seeds, then one
/// `vliw.sim.loops` and the executed `vliw.sim.cycles` per simulated loop.
/// Simulation errors are counted in `vliw.sim.errors`, not propagated — a
/// profile must never change what a run reports.
pub(crate) fn profile_backend_tail(
    body: &ims_ir::LoopBody,
    problem: &ims_core::Problem<'_>,
    schedule: &ims_core::Schedule,
    reg: &mut MetricsRegistry,
) {
    let t = PhaseTimer::start(phase::WALL_CODEGEN);
    let lt = lifetimes(body, problem, schedule);
    reg.add(
        phase::CODEGEN_LIFETIME_NAMES,
        lt.iter().map(|l| l.names as u64).sum(),
    );
    let code = generate_mve(body, problem, schedule, &lt);
    reg.add(
        phase::CODEGEN_INSTS,
        (code.prologue.len() + code.kernel.len() + code.coda.len()) as u64,
    );
    reg.add(phase::CODEGEN_UNROLL, code.unroll as u64);
    reg.add(phase::CODEGEN_STAGES, code.stage_count as u64);
    reg.add(phase::CODEGEN_SEEDS, code.seeds.len() as u64);
    t.finish(reg);

    let t = PhaseTimer::start(phase::WALL_VLIW);
    match run_overlapped(body, problem, schedule, MemoryImage::for_body(body)) {
        Ok(exec) => {
            reg.add(phase::VLIW_SIM_LOOPS, 1);
            reg.add(phase::VLIW_SIM_CYCLES, exec.cycles);
        }
        Err(_) => reg.add(phase::VLIW_SIM_ERRORS, 1),
    }
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
