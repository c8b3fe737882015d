#![warn(missing_docs)]

//! Reproduction harness: the corpus runner behind every table and figure.
//!
//! Each binary in this crate regenerates one artifact of the paper's
//! evaluation (§4):
//!
//! | binary     | artifact |
//! |------------|----------|
//! | `figure1`  | Figure 1 — reservation tables for a pipelined add and multiply |
//! | `table2`   | Table 2 — the machine model |
//! | `table3`   | Table 3 — distribution statistics for all eleven measurements, plus the prose claims of §4.2/§4.3 |
//! | `figure6`  | Figure 6 — execution-time dilation and scheduling inefficiency vs. BudgetRatio |
//! | `table4`   | Table 4 — worst-case vs. empirical computational complexity (LMS fits) |
//! | `ablation` | beyond-the-paper ablations: simple vs. complex reservation tables, VLIW vs. conservative delay model, priority functions, MinDist vs. circuit-enumeration RecMII |
//! | `unroll_comparison` | the §4.3 baseline: unroll-before-scheduling vs. modulo scheduling |
//! | `registers` | register-pressure extension: MVE unroll factors and rotating-file sizes |
//! | `corpus`   | the parallel corpus-scheduling driver: JSON-line per-loop results, byte-identical across `--threads` values |
//! | `trace_report` | per-loop convergence reports rendered from a `--trace` directory |
//! | `optgap`   | the optimality-gap harness: an exact prover vs. the BudgetRatio sweep |
//! | `explain`  | II attribution: which resource or recurrence binds each loop's II |
//! | `profile_report` | human-readable tables rendered from a `BENCH_<name>.json` profile snapshot |
//!
//! This library holds the shared machinery, one measurement path for
//! every driver that visits the corpus: [`run_corpus`] builds each
//! corpus loop and fans a per-loop closure out over the std-only worker
//! pool in `ims_serve::pool`, recording traces and profiles on the way;
//! [`measure_corpus`] runs it to schedule every loop with the backend in
//! its [`MeasureParams`] and collect every quantity the paper reports;
//! [`corpus_jsonl`] renders a run as deterministic JSON lines. The corpus
//! binaries but `registers` and `unroll_comparison` accept `--threads N`
//! (default: one worker per core) and `--trace DIR`, which additionally
//! writes one JSON-lines event trace per loop — byte-identical across
//! thread counts, inspectable with `trace_report`. The corpus drivers
//! (`corpus`, `optgap`, `explain`, `table3`, `table4`) also accept
//! `--profile FILE`, which measures every pipeline phase (see
//! [`profile`]) and writes a versioned `BENCH_<name>.json` snapshot whose
//! deterministic sections are byte-identical across thread counts; render
//! snapshots with `profile_report`.

use std::path::Path;

use ims_codegen::{allocate_rotating, lifetimes};
use ims_core::{
    height_r, list_schedule, BackendKind, Counters, MiiInfo, NullObserver, Problem, SchedConfig,
    SchedObserver, SchedOutcome, Schedule, ScheduleError, Scheduler,
};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_exact::ProverOutcome;
use ims_graph::sccs;
use ims_ir::LoopBody;
use ims_loopgen::{Corpus, CorpusLoop, Profile};
use ims_machine::MachineModel;
use ims_press::{shapes_from_body, PressureModel, PressureObserver};
use ims_prof::{phase, MetricsRegistry, PhaseTimer, ProfSink};
use ims_sat::{schedule_leaf, LeafOutcome};
use ims_serve::pool;
use ims_trace::Recorder;

use profile::{profile_backend_tail, ProfObserver};

pub mod profile;

/// What the exact backend proved about one loop (absent from
/// iterative-backend measurements).
#[derive(Debug, Clone, Copy)]
pub struct ExactInfo {
    /// Largest II proven to lower-bound the true minimum.
    pub proved_lb: i64,
    /// Smallest II with a schedule in hand (the measurement's `ii`).
    pub best_ub: i64,
    /// Branch-and-bound nodes spent.
    pub nodes: u64,
    /// Whether the node budget aborted the search before every candidate
    /// II was decided.
    pub limit_hit: bool,
}

/// What the pressure-aware run measured about one loop (absent from
/// pressure-blind measurements).
#[derive(Debug, Clone, Copy)]
pub struct PressInfo {
    /// The register-file capacity the run scheduled against.
    pub limit: u32,
    /// Whether a schedule satisfying the limit was found. When `false`
    /// the base fields describe the pressure-**blind** fallback schedule
    /// (so the line still reports an II), and `max_live`/`rot_size` show
    /// how far that fallback overshoots the file.
    pub ok: bool,
    /// MaxLive of the reported schedule.
    pub max_live: u32,
    /// Rotating register-file size allocated for the reported schedule
    /// (inter-writer gaps can push this above `max_live`).
    pub rot_size: usize,
}

/// Everything the paper measures about one scheduled loop.
#[derive(Debug, Clone)]
pub struct LoopMeasurement {
    /// Number of operations `N` (excluding START/STOP).
    pub n_ops: usize,
    /// Number of dependence edges `E` (excluding START/STOP scaffolding).
    pub n_edges: usize,
    /// Resource-constrained MII.
    pub res_mii: i64,
    /// Recurrence-constrained MII, reported as `max(ResMII, RecMII)` (the
    /// production-compiler formulation — `rec_mii − res_mii` is then
    /// exactly Table 3's `max(0, RecMII − ResMII)`).
    pub rec_mii: i64,
    /// `MII = max(ResMII, RecMII)`.
    pub mii: i64,
    /// The achieved initiation interval.
    pub ii: i64,
    /// Achieved schedule length (the STOP time).
    pub schedule_length: i64,
    /// Lower bound on the schedule length at the achieved II:
    /// `max(MinDist[START, STOP], list-schedule length)` (§4.2).
    pub schedule_length_lower: i64,
    /// Number of non-trivial SCCs (more than one operation).
    pub non_trivial_sccs: usize,
    /// Size of every SCC over the real operations.
    pub scc_sizes: Vec<usize>,
    /// Operation-scheduling steps in the successful attempt.
    pub final_steps: u64,
    /// Operation-scheduling steps across all II attempts.
    pub total_steps: u64,
    /// The per-loop instrumentation counters (Table 4). All-zero for the
    /// exact backend, whose work is counted in [`ExactInfo::nodes`].
    pub counters: Counters,
    /// The loop's synthetic execution profile.
    pub profile: Profile,
    /// Exact-backend bounds; `None` for the iterative backend.
    pub exact: Option<ExactInfo>,
    /// Register-pressure results; `None` outside `--pressure-limit` runs.
    pub press: Option<PressInfo>,
}

impl LoopMeasurement {
    /// §4.3's execution-time formula:
    /// `EntryFreq·SL + (LoopFreq − EntryFreq)·II`.
    pub fn execution_time(&self) -> u64 {
        self.profile.entry_freq * self.schedule_length as u64
            + (self.profile.loop_freq - self.profile.entry_freq) * self.ii as u64
    }

    /// The corresponding lower bound, using the schedule-length lower bound
    /// and the MII.
    pub fn execution_time_lower(&self) -> u64 {
        self.profile.entry_freq * self.schedule_length_lower as u64
            + (self.profile.loop_freq - self.profile.entry_freq) * self.mii as u64
    }

    /// `DeltaII = II − MII`.
    pub fn delta_ii(&self) -> i64 {
        self.ii - self.mii
    }
}

/// What [`measure_corpus`] runs: which backend, under which budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureParams {
    /// The leaf backend that schedules each loop.
    pub backend: BackendKind,
    /// The iterative scheduler's BudgetRatio — for the provers, the
    /// BudgetRatio of their internal heuristic run.
    pub budget_ratio: f64,
    /// The provers' work budget per loop: branch-and-bound nodes for
    /// `exact`, CDCL conflicts for `sat`, deterministic unlike a wall clock.
    /// `None`, which every driver passes, is the decider's default budget,
    /// the service's; tests set less to reach a limit hit. The iterative
    /// backend ignores it.
    pub work_limit: Option<u64>,
    /// A register-file capacity to schedule against (iterative backend
    /// only; the provers ignore it). See [`PressInfo`].
    pub pressure_limit: Option<u32>,
}

impl MeasureParams {
    /// The iterative backend at `budget_ratio`, no pressure limit.
    pub fn ims(budget_ratio: f64) -> Self {
        MeasureParams {
            backend: BackendKind::Ims,
            budget_ratio,
            work_limit: None,
            pressure_limit: None,
        }
    }
}

/// [`measure_corpus`]'s per-loop body: schedules one built loop under
/// `params`, reporting scheduler events to `observer` and, with `prof`,
/// every pipeline phase to the registry; neither changes the measurement.
/// Only the profiled tail can fail (see [`profile_backend_tail`]).
fn measure_loop<O: SchedObserver>(
    l: &CorpusLoop,
    body: &LoopBody,
    problem: &Problem<'_>,
    params: &MeasureParams,
    observer: &mut O,
    mut prof: Option<&mut MetricsRegistry>,
) -> Result<LoopMeasurement, String> {
    let t = PhaseTimer::start(match params.backend {
        BackendKind::Ims => phase::WALL_SCHED,
        BackendKind::Exact => phase::WALL_EXACT,
        BackendKind::Sat => phase::WALL_SAT,
    });
    let run = match (params.backend, params.pressure_limit) {
        (BackendKind::Ims, Some(limit)) => {
            let mut obs = (ProfObserver::new(prof.as_deref_mut()), &mut *observer);
            let press = schedule_pressure(body, problem, params.budget_ratio, limit, &mut obs);
            prof.count(phase::PRESS_MAXLIVE_UPDATES, press.updates);
            prof.count(phase::PRESS_REJECTS, press.rejects);
            prof.count(phase::PRESS_II_BUMPS, press.ii_bumps);
            Run {
                press: Some(press.press),
                ..Run::from(press.outcome)
            }
        }
        (kind, _) => {
            let sched = SchedConfig::new().budget_ratio(params.budget_ratio);
            let mut obs = (ProfObserver::new(prof.as_deref_mut()), &mut *observer);
            let out = schedule_leaf(kind, problem, &sched, params.work_limit, &mut obs);
            Run::from(out.expect("corpus loops always schedule under the automatic II cap"))
        }
    };
    t.finish_if(prof.as_deref_mut());

    if let Some(reg) = prof {
        profile_backend_tail(l, body, problem, &run.schedule, reg)?;
    }
    Ok(finish_measurement(problem, l, run))
}

/// One scheduling run inside [`measure_loop`], before the
/// backend-independent measurement tail.
struct Run {
    mii: MiiInfo,
    schedule: Schedule,
    final_steps: u64,
    total_steps: u64,
    counters: Counters,
    exact: Option<ExactInfo>,
    press: Option<PressInfo>,
}

impl From<SchedOutcome> for Run {
    fn from(out: SchedOutcome) -> Self {
        Run {
            final_steps: out.stats.final_steps(),
            total_steps: out.stats.total_steps(),
            counters: out.stats.counters,
            mii: out.mii,
            schedule: out.schedule,
            exact: None,
            press: None,
        }
    }
}

impl From<LeafOutcome> for Run {
    fn from(out: LeafOutcome) -> Self {
        match out {
            LeafOutcome::Ims(out) => Run::from(out),
            LeafOutcome::Prover(out) => Run::from(out),
        }
    }
}

impl From<ProverOutcome> for Run {
    fn from(out: ProverOutcome) -> Self {
        Run {
            final_steps: out.work,
            total_steps: out.work,
            counters: Counters::new(),
            exact: Some(ExactInfo {
                proved_lb: out.bounds.proved_lb,
                best_ub: out.bounds.best_ub,
                nodes: out.work,
                limit_hit: out.limit_hit,
            }),
            mii: out.mii,
            schedule: out.schedule,
            press: None,
        }
    }
}

/// The outcome of one pressure-aware scheduling run: the reported
/// schedule (the pressure-aware one, or the pressure-blind fallback on
/// infeasibility), its pressure verdict, and the `press.*` work counts.
struct PressRun {
    outcome: SchedOutcome,
    press: PressInfo,
    /// `press.maxlive.updates` — lifetime-interval updates performed.
    updates: u64,
    /// `press.rejects` — placements vetoed over the limit.
    rejects: u64,
    /// `press.ii_bumps` — completed attempts rejected for pressure.
    ii_bumps: u64,
}

/// The pressure-aware scheduling run of [`measure_loop`]: schedules
/// `problem` under `limit` with a [`PressureObserver`] paired with
/// `extra`, falling back to the pressure-blind schedule — flagged
/// `ok: false`, with its over-limit pressure reported — on
/// [`ScheduleError::PressureInfeasible`].
fn schedule_pressure<O: SchedObserver>(
    body: &ims_ir::LoopBody,
    problem: &Problem<'_>,
    budget_ratio: f64,
    limit: u32,
    extra: &mut O,
) -> PressRun {
    let mut obs = PressureObserver::for_body(body, problem, limit);
    let result = Scheduler::new(problem)
        .config(
            SchedConfig::new()
                .budget_ratio(budget_ratio)
                .pressure_limit(limit),
        )
        .observer((&mut obs, &mut *extra))
        .run();
    match result {
        Ok(outcome) => {
            let lts = lifetimes(body, problem, &outcome.schedule);
            let rot = allocate_rotating(body, &lts, outcome.schedule.ii);
            PressRun {
                press: PressInfo {
                    limit,
                    ok: true,
                    max_live: obs.max_live(),
                    rot_size: rot.size,
                },
                updates: obs.updates(),
                rejects: obs.rejects(),
                ii_bumps: obs.ii_bumps(),
                outcome,
            }
        }
        Err(ScheduleError::PressureInfeasible { .. }) => {
            // Report the pressure-blind schedule so the measurement still
            // has an II, flagged infeasible with its actual pressure.
            let outcome: SchedOutcome = Scheduler::new(problem)
                .config(SchedConfig::new().budget_ratio(budget_ratio))
                .observer(&mut *extra)
                .run()
                .expect("corpus loops always schedule under the automatic II cap");
            let mut model = PressureModel::new(
                shapes_from_body(body, problem),
                problem.graph().num_nodes(),
                1,
            );
            model.load_schedule(&outcome.schedule);
            let lts = lifetimes(body, problem, &outcome.schedule);
            let rot = allocate_rotating(body, &lts, outcome.schedule.ii);
            PressRun {
                press: PressInfo {
                    limit,
                    ok: false,
                    max_live: model.max_live(),
                    rot_size: rot.size,
                },
                updates: obs.updates() + model.updates(),
                rejects: obs.rejects(),
                ii_bumps: obs.ii_bumps(),
                outcome,
            }
        }
        Err(e) => {
            panic!("corpus loops always schedule under the automatic II cap: {e}")
        }
    }
}

/// The backend-independent tail of a loop measurement: SCC statistics and
/// the schedule-length lower bound, packaged with the run's quantities.
fn finish_measurement(problem: &Problem<'_>, l: &CorpusLoop, run: Run) -> LoopMeasurement {
    // SCC statistics over real operations only (START/STOP would otherwise
    // show up as two extra trivial components).
    let mut scc_work = 0u64;
    let info = sccs(problem.graph(), &mut scc_work);
    let scc_sizes: Vec<usize> = info
        .components
        .iter()
        .map(|c| {
            c.iter()
                .filter(|n| **n != problem.start() && **n != problem.stop())
                .count()
        })
        .filter(|&s| s > 0)
        .collect();
    let non_trivial_sccs = scc_sizes.iter().filter(|&&s| s > 1).count();

    // Schedule-length lower bound at the achieved II (§4.2):
    // HeightR(START) equals MinDist[START, STOP]. The paper's second
    // component, the acyclic list-schedule length, is itself a heuristic
    // and can exceed the modulo schedule length on complex reservation
    // tables, so it is clamped at the achieved length (otherwise the
    // "ratio to the lower bound" could dip below 1).
    let schedule = &run.schedule;
    let mut c = Counters::new();
    let heights = height_r(problem, schedule.ii, &mut c);
    let min_dist_bound = heights[problem.start().index()];
    let list_len = list_schedule(problem).length.min(schedule.length);

    LoopMeasurement {
        n_ops: problem.num_ops(),
        n_edges: problem.num_real_edges(),
        res_mii: run.mii.res_mii,
        rec_mii: run.mii.rec_mii,
        mii: run.mii.mii,
        ii: schedule.ii,
        schedule_length: schedule.length,
        schedule_length_lower: min_dist_bound.max(list_len),
        non_trivial_sccs,
        scc_sizes,
        final_steps: run.final_steps,
        total_steps: run.total_steps,
        counters: run.counters,
        profile: l.profile,
        exact: run.exact,
        press: run.press,
    }
}

/// The one corpus fan-out: builds every loop of `corpus` for `machine`
/// and hands it to `per_loop` on `threads` worker threads, returning the
/// results in corpus order with the merged profile when `profile` is set
/// (an empty registry otherwise). `measure_corpus` runs through it, and
/// so does every other driver that visits the corpus.
///
/// For each loop the runner back-substitutes recurrences and builds the
/// scheduling problem — the preprocessing the paper's corpus went
/// through, "after load-store elimination, recurrence back-substitution
/// and IF-conversion" (§4.1) — then calls `per_loop(index, loop, body,
/// problem, recorder, registry)`. The registry is `Some` when profiling;
/// the runner charges it the `loop.total` and `build` wall spans and the
/// `corpus.loops` and `corpus.ops` counters. The recorder is `Some` when
/// tracing: whatever `per_loop` records into it is written, after the
/// in-order merge, to `<prefix>loop_<index:05>.jsonl` under `dir` for
/// `trace = Some((dir, prefix))` (created if missing).
///
/// Each loop is an independent problem and results come back in corpus
/// order, so anything rendered from them is identical for every thread
/// count. Per-loop registries merge in corpus order too, so only the
/// profile's wall section depends on `threads`; and because events carry
/// no timestamps or thread identity and files are named by corpus index,
/// neither does the trace directory.
///
/// # Errors
///
/// An I/O error creating the trace directory or writing a trace file.
pub fn run_corpus<T, F>(
    corpus: &Corpus,
    machine: &MachineModel,
    threads: usize,
    trace: Option<(&Path, &str)>,
    profile: bool,
    per_loop: F,
) -> std::io::Result<(Vec<T>, MetricsRegistry)>
where
    T: Send,
    F: Fn(
            usize,
            &CorpusLoop,
            &LoopBody,
            &Problem<'_>,
            Option<&mut Recorder>,
            Option<&mut MetricsRegistry>,
        ) -> T
        + Sync,
{
    if let Some((dir, _)) = trace {
        std::fs::create_dir_all(dir)?;
    }
    let results = pool::par_map(&corpus.loops, threads, |index, l| {
        let mut reg = profile.then(MetricsRegistry::new);
        let mut rec = trace.is_some().then(Recorder::new);
        let whole = PhaseTimer::start(phase::WALL_LOOP);
        let t = PhaseTimer::start(phase::WALL_BUILD);
        let body = back_substitute(&l.body, machine);
        let problem = build_problem(&body, machine, &BuildOptions::default());
        t.finish_if(reg.as_mut());
        let out = per_loop(index, l, &body, &problem, rec.as_mut(), reg.as_mut());
        if let Some(r) = reg.as_mut() {
            r.add(phase::CORPUS_LOOPS, 1);
            r.add(phase::CORPUS_OPS, problem.num_ops() as u64);
        }
        whole.finish_if(reg.as_mut());
        (out, rec.map(|r| r.to_jsonl()), reg)
    });
    let mut outs = Vec::with_capacity(results.len());
    let mut total = MetricsRegistry::new();
    for (index, (out, events, reg)) in results.into_iter().enumerate() {
        if let (Some((dir, prefix)), Some(events)) = (trace, events) {
            std::fs::write(dir.join(format!("{prefix}loop_{index:05}.jsonl")), events)?;
        }
        if let Some(reg) = reg {
            total.merge(&reg);
        }
        outs.push(out);
    }
    Ok((outs, total))
}

/// Schedules every loop of `corpus` under `params` through [`run_corpus`]
/// and returns the measurements in corpus order, with the merged profile
/// when `profile` is set (an empty registry otherwise).
///
/// * **`ims`** — the paper's scheduler. With a pressure limit, a
///   [`PressureObserver`] vetoes placements and rejects attempts whose
///   MaxLive (or rotating allocation) exceeds it, so an accepted schedule
///   fits a rotating file of that many registers; when even the II cap
///   cannot satisfy the limit ([`ScheduleError::PressureInfeasible`]) the
///   measurement falls back to the pressure-blind schedule — the line
///   still reports an II — with [`PressInfo::ok`] `false` and the blind
///   schedule's (over-limit) pressure.
/// * **`exact`, `sat`** — the provers (the `ims_exact::prove` walk
///   through [`schedule_leaf`]): the iterative scheduler provides the
///   upper bound, then every smaller II is decided under the work budget.
///   `final_steps`/`total_steps` count decider work, the Table 4 counters
///   are zero, and [`LoopMeasurement::exact`] carries the proven bounds.
///
/// With `profile`, every pipeline phase's deterministic work and wall
/// time is filed into the registry, and each loop is also lowered by
/// modulo variable expansion and the emitted code executed on the VLIW
/// simulator and checked against the sequential run, so `codegen.*` and
/// `vliw.sim.*` describe real, correct code. With `trace`, each loop's
/// events are written as [`run_corpus`] describes. Neither tracing nor
/// profiling changes a measurement, and the output — [`corpus_jsonl`]
/// and the trace files alike — is identical for every thread count.
///
/// # Errors
///
/// A message naming the cause: an I/O error creating the trace directory
/// or writing a trace file, or, in a profiled run, the first loop in
/// corpus order whose emitted code fails on the simulator or leaves
/// memory unlike the sequential run's.
///
/// # Panics
///
/// Panics if the scheduler fails to find any schedule for a loop
/// (impossible for well-formed corpus loops with the automatic II cap).
pub fn measure_corpus(
    corpus: &Corpus,
    machine: &MachineModel,
    params: &MeasureParams,
    threads: usize,
    trace: Option<(&Path, &str)>,
    profile: bool,
) -> Result<(Vec<LoopMeasurement>, MetricsRegistry), String> {
    let (ms, reg) = run_corpus(
        corpus,
        machine,
        threads,
        trace,
        profile,
        |index, l, body, problem, rec, reg| {
            let m = match rec {
                Some(rec) => measure_loop(l, body, problem, params, rec, reg),
                // Untraced runs stay monomorphized over the null observer.
                None => measure_loop(l, body, problem, params, &mut NullObserver, reg),
            };
            m.map_err(|e| format!("loop {index} ({}): {e}", body.name()))
        },
    )
    .map_err(|e| format!("cannot write traces: {e}"))?;
    Ok((ms.into_iter().collect::<Result<_, _>>()?, reg))
}

/// Renders one corpus loop's measurement as a JSON line: every per-loop
/// quantity the paper reports (II, ΔII, schedule length, scheduling
/// steps, the Table 4 work counters). Exact-backend measurements append
/// their `proved_lb`/`best_ub`/`limit_hit` bounds, and pressure-aware
/// measurements their `press_limit`/`press_ok`/`max_live`/`rot_size`
/// verdict. The line holds no timings and no thread identity, so corpus
/// runs at different thread counts produce byte-identical output.
pub fn measurement_json_line(index: usize, m: &LoopMeasurement) -> String {
    let mut line = measurement_json_core(index, m);
    if let Some(e) = m.exact {
        line.pop();
        line.push_str(&format!(
            ",\"proved_lb\":{},\"best_ub\":{},\"limit_hit\":{}}}",
            e.proved_lb, e.best_ub, e.limit_hit
        ));
    }
    if let Some(p) = m.press {
        line.pop();
        line.push_str(&format!(
            ",\"press_limit\":{},\"press_ok\":{},\"max_live\":{},\"rot_size\":{}}}",
            p.limit, p.ok, p.max_live, p.rot_size
        ));
    }
    line
}

fn measurement_json_core(index: usize, m: &LoopMeasurement) -> String {
    let c = &m.counters;
    format!(
        "{{\"loop\":{index},\"ops\":{},\"edges\":{},\"res_mii\":{},\"rec_mii\":{},\
         \"mii\":{},\"ii\":{},\"delta_ii\":{},\"length\":{},\"length_lower\":{},\
         \"final_steps\":{},\"total_steps\":{},\"scc_work\":{},\"resmii_work\":{},\
         \"mindist_work\":{},\"heightr_work\":{},\"estart_preds\":{},\
         \"findslot_iters\":{},\"evictions\":{},\"mrt_probes\":{}}}",
        m.n_ops,
        m.n_edges,
        m.res_mii,
        m.rec_mii,
        m.mii,
        m.ii,
        m.delta_ii(),
        m.schedule_length,
        m.schedule_length_lower,
        m.final_steps,
        m.total_steps,
        c.scc_work,
        c.resmii_work,
        c.mindist_work,
        c.heightr_work,
        c.estart_preds,
        c.findslot_iters,
        c.evictions,
        c.mrt_probes,
    )
}

/// Renders a whole corpus run as JSON lines, one
/// [`measurement_json_line`] per loop in corpus order, followed by one
/// aggregate line summing the deterministic quantities. When any
/// measurement carries exact bounds, the aggregate line additionally
/// reports how many loops were proven optimal, the summed proven gap, and
/// how many searches hit their node budget. The output is
/// byte-identical across thread counts by construction.
pub fn corpus_jsonl(ms: &[LoopMeasurement]) -> String {
    let mut out = String::with_capacity(ms.len() * 200);
    let mut total = Counters::new();
    let (mut steps, mut ops, mut delta) = (0u64, 0usize, 0i64);
    for (i, m) in ms.iter().enumerate() {
        out.push_str(&measurement_json_line(i, m));
        out.push('\n');
        total.add(&m.counters);
        steps += m.total_steps;
        ops += m.n_ops;
        delta += m.delta_ii();
    }
    let mut agg = format!(
        "{{\"loops\":{},\"ops\":{ops},\"total_steps\":{steps},\"sum_delta_ii\":{delta},\
         \"mindist_work\":{},\"findslot_iters\":{},\"evictions\":{},\"mrt_probes\":{}}}",
        ms.len(),
        total.mindist_work,
        total.findslot_iters,
        total.evictions,
        total.mrt_probes,
    );
    if ms.iter().any(|m| m.exact.is_some()) {
        let exact: Vec<ExactInfo> = ms.iter().filter_map(|m| m.exact).collect();
        let proven = exact.iter().filter(|e| e.proved_lb == e.best_ub).count();
        let gap: i64 = exact.iter().map(|e| e.best_ub - e.proved_lb).sum();
        let limit_hits = exact.iter().filter(|e| e.limit_hit).count();
        agg.pop();
        agg.push_str(&format!(
            ",\"proven_optimal\":{proven},\"open_gap\":{gap},\"limit_hits\":{limit_hits}}}"
        ));
    }
    if let Some(first) = ms.iter().find_map(|m| m.press) {
        let press: Vec<PressInfo> = ms.iter().filter_map(|m| m.press).collect();
        let fit = press.iter().filter(|p| p.ok).count();
        let infeasible = press.len() - fit;
        let sum_max_live: u64 = press.iter().map(|p| p.max_live as u64).sum();
        let peak_max_live = press.iter().map(|p| p.max_live).max().unwrap_or(0);
        agg.pop();
        agg.push_str(&format!(
            ",\"press_limit\":{},\"press_fit\":{fit},\"press_infeasible\":{infeasible},\
             \"sum_max_live\":{sum_max_live},\"peak_max_live\":{peak_max_live}}}",
            first.limit
        ));
    }
    out.push_str(&agg);
    out.push('\n');
    out
}

/// Aggregate Figure 6 quantities over a set of measurements:
/// `(execution-time dilation, scheduling inefficiency)`.
///
/// Dilation is `(Σ exec_time / Σ exec_time_lower) − 1` over executed loops;
/// inefficiency is `Σ total_steps / Σ N` over all loops.
pub fn aggregate_figure6(ms: &[LoopMeasurement]) -> (f64, f64) {
    let (mut t, mut tl) = (0u64, 0u64);
    for m in ms.iter().filter(|m| m.profile.executed) {
        t += m.execution_time();
        tl += m.execution_time_lower();
    }
    let dilation = if tl == 0 {
        0.0
    } else {
        t as f64 / tl as f64 - 1.0
    };
    let steps: u64 = ms.iter().map(|m| m.total_steps).sum();
    let ops: usize = ms.iter().map(|m| m.n_ops).sum();
    let inefficiency = if ops == 0 {
        0.0
    } else {
        steps as f64 / ops as f64
    };
    (dilation, inefficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_loopgen::corpus_of_size;
    use ims_machine::cydra;

    fn measure(
        corpus: &Corpus,
        machine: &MachineModel,
        params: MeasureParams,
    ) -> Vec<LoopMeasurement> {
        measure_corpus(corpus, machine, &params, 2, None, false)
            .expect("no trace dir, no I/O")
            .0
    }

    #[test]
    fn small_corpus_measures_cleanly() {
        let corpus = corpus_of_size(5, 40);
        let ms = measure(&corpus, &cydra(), MeasureParams::ims(6.0));
        assert_eq!(ms.len(), 40);
        for m in &ms {
            assert!(m.ii >= m.mii, "II below MII");
            assert!(m.mii >= m.res_mii);
            assert!(m.rec_mii >= m.res_mii); // seeded formulation
            assert!(m.schedule_length >= m.schedule_length_lower);
            assert!(m.final_steps >= m.n_ops as u64);
            assert!(m.total_steps >= m.final_steps);
            assert!(m.execution_time() >= m.execution_time_lower());
        }
    }

    #[test]
    fn figure6_aggregates_are_sane() {
        let corpus = corpus_of_size(6, 30);
        let ms = measure(&corpus, &cydra(), MeasureParams::ims(6.0));
        let (dilation, ineff) = aggregate_figure6(&ms);
        assert!(dilation >= 0.0);
        assert!(ineff >= 1.0, "each op is scheduled at least once: {ineff}");
    }

    #[test]
    fn exact_backend_measurements_carry_bounds() {
        let corpus = corpus_of_size(5, 12);
        let machine = cydra();
        let ims = measure(&corpus, &machine, MeasureParams::ims(6.0));
        // Hand kernel 23 needs 1,132,922 nodes, so it hits this budget.
        let exact = measure(
            &corpus,
            &machine,
            MeasureParams {
                backend: BackendKind::Exact,
                work_limit: Some(200_000),
                ..MeasureParams::ims(6.0)
            },
        );
        let mut open_gaps = 0;
        for (i, e) in ims.iter().zip(&exact) {
            assert!(i.exact.is_none());
            let b = e.exact.expect("exact measurements carry bounds");
            assert!(b.proved_lb <= b.best_ub);
            assert_eq!(e.ii, b.best_ub, "the measured II is the best in hand");
            assert!(e.mii <= e.ii);
            assert!(e.ii <= i.ii, "exact never does worse than the heuristic");
            if !b.limit_hit {
                assert_eq!(b.proved_lb, b.best_ub, "a completed search is exact");
            } else if b.proved_lb < b.best_ub {
                open_gaps += 1;
            }
        }
        assert!(open_gaps > 0, "a search cut by its budget leaves a gap");

        // Exact lines grow bounds fields; iterative lines are unchanged.
        let line = measurement_json_line(0, &exact[0]);
        assert!(line.contains("\"proved_lb\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(!measurement_json_line(0, &ims[0]).contains("proved_lb"));
        let agg = corpus_jsonl(&exact);
        assert!(agg.contains("\"proven_optimal\":"), "{agg}");
    }

    #[test]
    fn pressure_runs_fit_or_flag_infeasibility() {
        let corpus = corpus_of_size(9, 12);
        let machine = ims_machine::cydra_rf(16);
        let limit = machine.register_file().expect("cydra_rf declares a file");
        let blind = measure(&corpus, &machine, MeasureParams::ims(6.0));
        let aware = measure(
            &corpus,
            &machine,
            MeasureParams {
                pressure_limit: Some(limit),
                ..MeasureParams::ims(6.0)
            },
        );
        let mut fits = 0;
        for (b, a) in blind.iter().zip(&aware) {
            assert!(b.press.is_none());
            let p = a.press.expect("pressure measurements carry a verdict");
            assert_eq!(p.limit, limit);
            if p.ok {
                fits += 1;
                assert!(p.max_live <= limit);
                assert!(p.rot_size <= limit as usize);
                assert!(a.ii >= b.ii, "pressure can only push the II up");
            }
            // Blind lines are byte-unchanged; pressure lines grow fields.
            let line = measurement_json_line(0, a);
            assert!(line.contains("\"press_limit\":"), "{line}");
            assert!(!measurement_json_line(0, b).contains("press_limit"));
        }
        assert!(fits > 0, "a 16-register file fits some small loops");
        let agg = corpus_jsonl(&aware);
        assert!(agg.contains("\"press_fit\":"), "{agg}");
        assert!(agg.contains("\"peak_max_live\":"), "{agg}");
    }

    #[test]
    fn pressure_corpus_is_thread_invariant() {
        let corpus = corpus_of_size(10, 10);
        let machine = ims_machine::cydra_rf(12);
        let params = MeasureParams {
            pressure_limit: Some(12),
            ..MeasureParams::ims(6.0)
        };
        let run = |threads| {
            measure_corpus(&corpus, &machine, &params, threads, None, false)
                .unwrap()
                .0
        };
        assert_eq!(corpus_jsonl(&run(1)), corpus_jsonl(&run(4)));
    }

    #[test]
    fn tighter_budget_never_reduces_ii() {
        let corpus = corpus_of_size(7, 15);
        let gen = measure(&corpus, &cydra(), MeasureParams::ims(6.0));
        let tight = measure(&corpus, &cydra(), MeasureParams::ims(1.0));
        for (g, t) in gen.iter().zip(&tight) {
            assert!(t.ii >= g.ii, "a tighter budget cannot improve the II");
        }
    }
}
