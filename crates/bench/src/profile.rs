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
//!   [`ims_prof::phase`]. Every scheduling count, failed runs included,
//!   comes from the one [`ProfObserver`] on the scheduler's
//!   [`SchedObserver`] seam: it files the backends' `work` events and
//!   folds the step events into counters and per-step distributions
//!   (slot-search iterations, Estart predecessor counts);
//! * wall-clock spans per phase, kept strictly in the registry's separate
//!   wall section.
//!
//! Profiled runs extend the pipeline past scheduling: each loop is also
//! lowered by modulo variable expansion and executed on the VLIW
//! simulator from its own initial memory, so `codegen.*` and
//! `vliw.sim.*` describe real emitted code and real simulated cycles.
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
use ims_core::SchedObserver;
use ims_graph::NodeId;
use ims_loopgen::CorpusLoop;
use ims_prof::{phase, snapshot, MetricsRegistry, PhaseTimer, ProfSink};
use ims_vliw::{run_overlapped, MemoryImage};

/// [`SchedObserver`] that files a run's work into a [`MetricsRegistry`]
/// (when one is given). Every `work` event goes in under its phase name.
/// The step events give `sched.steps` (one per `slot_search`),
/// `sched.findslot.iters`, `sched.estart.preds` and `sched.evictions`,
/// next to the per-step `sched.slot_search.iters` and
/// `sched.estart.preds_per_op` histograms, so each counter equals its
/// histogram's count or sum. To trace the same run, pair it with a
/// recorder: `(ProfObserver::new(reg), &mut rec)`.
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
    fn work(&mut self, phase: &'static str, n: u64) {
        self.reg.count(phase, n);
    }
    fn slot_search(&mut self, _node: NodeId, _estart: i64, iters: u32) {
        self.reg.count(phase::SCHED_STEPS, 1);
        self.reg.count(phase::SCHED_FINDSLOT_ITERS, iters as u64);
        self.reg.record(phase::HIST_SLOT_SEARCH, iters as i64);
    }
    fn estart_computed(&mut self, _node: NodeId, preds: u32) {
        self.reg.count(phase::SCHED_ESTART_PREDS, preds as u64);
        self.reg.record(phase::HIST_ESTART_PREDS, preds as i64);
    }
    fn op_evicted(&mut self, _node: NodeId, _evictor: NodeId) {
        self.reg.count(phase::SCHED_EVICTIONS, 1);
    }
}

/// Runs modulo variable expansion and the overlapped VLIW simulation for
/// an already-scheduled loop, filing `codegen.*` and `vliw.sim.*` metrics
/// (and their wall spans) into `reg`: the static names MVE needs, the
/// emitted code's instructions (prologue + unrolled kernel + coda),
/// unroll factor, stage count and preloaded seeds, then one
/// `vliw.sim.loops` and the executed `vliw.sim.cycles` per simulated loop.
/// The simulation starts from the corpus loop's own initial memory
/// (`l.init`), so a hand kernel's index arrays hold integers. Simulation
/// errors are counted in `vliw.sim.errors`, not propagated — a profile
/// must never change what a run reports.
pub(crate) fn profile_backend_tail(
    l: &CorpusLoop,
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
    let memory = MemoryImage::with_init(body, &l.init);
    match run_overlapped(body, problem, schedule, memory) {
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
