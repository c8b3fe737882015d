//! The compile-pipeline workloads.
//!
//! Each loop goes through every layer a compiler would run it through:
//! back-substitution and dependence analysis (`ims-deps`), the iterative
//! modulo scheduler (`ims-core`, with `ims-press` under a register
//! limit), the schedule validator, code generation (`ims-codegen`), and
//! the simulator (`ims-vliw`), which runs the loop sequentially and as
//! generated code; the two final memories must match.

use std::time::Instant;

use ims_codegen::{generate_mve, generate_rotating, lifetimes, MveCode, RotatingCode};
use ims_core::{
    validate_schedule, BackendKind, SchedConfig, SchedObserver, SchedOutcome, Schedule,
    ScheduleError, Scheduler,
};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_graph::NodeId;
use ims_machine::{cydra, cydra_rf, MachineModel};
use ims_press::PressureObserver;
use ims_vliw::{compare_memory, run_mve, run_rotating, run_sequential, ExecResult, SimError};

use crate::load::{pipeline_load, LoopInput};
use crate::span::{self, Recorder};
use crate::{fail, EndToEnd, Layers, RunConfig, RunResult, TraceSummary, SETUPS};

/// A pipeline workload.
#[derive(Debug)]
pub struct PipelineSpec {
    /// Workload name.
    pub name: &'static str,
    /// Corpus loops per pass.
    pub loops: usize,
    /// Corpus loops per pass with `--quick`.
    pub quick_loops: usize,
    /// Register-pressure limit; `None` compiles for `cydra` with MVE
    /// code, `Some(n)` for `cydra_rf(n)` with rotating code.
    pub pressure_limit: Option<u32>,
    /// Loops (the lowest corpus indices, at most a quarter of a pass)
    /// compiled in each set-up's warm-up.
    pub warmup: usize,
}

/// `pipeline-paper`: the paper's traffic, spread across every layer.
pub const PAPER: PipelineSpec = PipelineSpec {
    name: "pipeline-paper",
    loops: 1327,
    quick_loops: 40,
    pressure_limit: None,
    warmup: 128,
};

/// `pipeline-regs16`: the same layers, with the scheduler and `ims-press`
/// doing almost all the work and rotating kernel-only code.
pub const REGS16: PipelineSpec = PipelineSpec {
    name: "pipeline-regs16",
    loops: 200,
    quick_loops: 12,
    pressure_limit: Some(16),
    warmup: 32,
};

/// The paper's default BudgetRatio.
const BUDGET_RATIO: f64 = 6.0;

/// One `ims-press` hook call in this many is timed.
pub const PRESS_SAMPLE: u64 = 64;

/// Runs one pipeline workload.
///
/// # Errors
///
/// The peak resident memory cannot be read.
pub fn measure(spec: &PipelineSpec, cfg: &RunConfig) -> Result<RunResult, String> {
    let count = if cfg.quick {
        spec.quick_loops
    } else {
        spec.loops
    };
    let load = pipeline_load(cfg.seed, count);
    let warmup: Vec<&LoopInput> = load
        .iter()
        .filter(|l| l.index < spec.warmup.min(count / 4))
        .collect();

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut machine = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let m = match spec.pressure_limit {
            None => cydra(),
            Some(n) => cydra_rf(n),
        };
        let mut scratch = Run::new(false);
        for l in &warmup {
            scratch.compile_and_run(&m, l, spec.pressure_limit);
        }
        setups_s.push(t0.elapsed().as_secs_f64());
        machine = Some(m);
    }
    let machine = machine.expect("at least one set-up");

    let mut run = Run::new(cfg.trace);
    let mut pass_unit_ns = Vec::new();
    let mut passes = 0u64;
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let mut latencies_ns = Vec::with_capacity(load.len());
        for l in &load {
            let t = Instant::now();
            run.compile_and_run(&machine, l, spec.pressure_limit);
            latencies_ns.push(t.elapsed().as_nanos() as u64);
        }
        pass_unit_ns.push(latencies_ns);
        passes += 1;
        if passes == 1 {
            peak_rss_mb = crate::peak_rss_mb()?;
        }
        if passes >= crate::MIN_PASSES && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let per_pass = |x: u64| x as f64 / passes as f64;
    let ms = |name: &str| per_pass(run.rec.busy_ns(name)) / 1e6;
    let sampled_ns = run.press_sampled_ns.max(0) as u64 * PRESS_SAMPLE;
    let press_ms = per_pass(sampled_ns + run.press_setup_ns) / 1e6;
    let t = &run.tally;
    let layers = Layers {
        deps_ms: ms("deps"),
        deps_edges: per_pass(t.edges),
        sched_ms: (ms("core.sched") - press_ms).max(0.0),
        validate_ms: ms("core.validate"),
        attempts: per_pass(t.attempts),
        steps: per_pass(t.steps),
        final_steps: per_pass(t.final_steps),
        evictions: per_pass(t.counters.evictions),
        findslot_iters: per_pass(t.counters.findslot_iters),
        mrt_probes: per_pass(t.counters.mrt_probes),
        mindist_work: per_pass(t.counters.mindist_work),
        heightr_work: per_pass(t.counters.heightr_work),
        resmii_work: per_pass(t.counters.resmii_work),
        press_ms,
        press_fallback_ms: ms("press.fallback"),
        press_vetoes: per_pass(t.press_vetoes),
        press_updates: per_pass(t.press_updates),
        press_ii_bumps: per_pass(t.press_ii_bumps),
        press_fits: per_pass(t.press_fits),
        press_loops: per_pass(t.press_loops),
        codegen_ms: ms("codegen"),
        insts: per_pass(t.insts),
        unroll: per_pass(t.unroll),
        rot_regs: per_pass(t.rot_regs),
        rot_fallbacks: per_pass(t.rot_fallbacks),
        ref_ms: ms("vliw.ref"),
        sim_ms: ms("vliw.sim"),
        sim_cycles: per_pass(t.cycles),
        sim_errors: per_pass(t.sim_errors),
        mismatches: per_pass(t.mismatches),
        ..Layers::default()
    };
    let tail_percentile = crate::stats::tail_percentile(load.len());
    let end_to_end = EndToEnd {
        unit_items: vec![1; load.len()],
        pass_unit_ns,
        tail_percentile,
        attempted: t.loops,
        failed: t.failed,
        ii_over_mii: crate::ratio(t.ii as f64, t.mii as f64),
        code: Some((per_pass(t.cycles), per_pass(t.insts))),
        setups_s,
        peak_rss_mb,
    };
    let trace = cfg.trace.then(|| {
        let spans = run.rec.take_spans();
        TraceSummary {
            layers: span::self_times(&spans, passes),
            coverage: span::coverage(&spans, "loop"),
            spans,
        }
    });
    Ok(RunResult {
        workload: spec.name,
        seed: cfg.seed,
        passes,
        attempted: t.loops,
        failed: t.failed,
        failures: run.failures,
        tail_percentile,
        end_to_end: end_to_end.metrics(),
        per_layer: layers.metrics(),
        trace,
    })
}

/// Whole-run totals of the pipeline's counts.
#[derive(Debug, Default)]
struct Tally {
    loops: u64,
    failed: u64,
    ii: u64,
    mii: u64,
    edges: u64,
    attempts: u64,
    steps: u64,
    final_steps: u64,
    counters: ims_core::Counters,
    press_vetoes: u64,
    press_updates: u64,
    press_ii_bumps: u64,
    press_fits: u64,
    press_loops: u64,
    insts: u64,
    unroll: u64,
    rot_regs: u64,
    rot_fallbacks: u64,
    cycles: u64,
    sim_errors: u64,
    mismatches: u64,
}

/// The state of one measuring run: layer timers, counts, failures.
struct Run {
    rec: Recorder,
    tally: Tally,
    failures: Vec<String>,
    press_calls: u64,
    press_sampled_ns: i64,
    press_setup_ns: u64,
}

/// Generated code of either form.
enum Code {
    Mve(MveCode),
    Rotating(RotatingCode),
}

impl Run {
    fn new(trace: bool) -> Self {
        Run {
            rec: Recorder::new(trace),
            tally: Tally::default(),
            failures: Vec::new(),
            press_calls: 0,
            press_sampled_ns: 0,
            press_setup_ns: 0,
        }
    }

    fn fail(&mut self, l: &LoopInput, what: String) {
        fail(
            &mut self.tally.failed,
            &mut self.failures,
            format!("loop {}: {what}", l.index),
        );
    }

    /// Compiles, checks and executes one loop.
    fn compile_and_run(&mut self, machine: &MachineModel, l: &LoopInput, limit: Option<u32>) {
        self.tally.loops += 1;
        let item = l.index as u32;
        let root = self.rec.open("loop", item);
        self.compile_and_run_in(machine, l, limit, item, root);
        self.rec.close(root);
    }

    fn compile_and_run_in(
        &mut self,
        machine: &MachineModel,
        l: &LoopInput,
        limit: Option<u32>,
        item: u32,
        root: Option<u32>,
    ) {
        let (body, problem) = self.rec.time("deps", item, root, || {
            let body = back_substitute(&l.body, machine);
            let problem = build_problem(&body, machine, &BuildOptions::default());
            (body, problem)
        });
        self.tally.edges += problem.num_real_edges() as u64;

        let config = SchedConfig::new().budget_ratio(BUDGET_RATIO);
        let scheduled = match limit {
            None => self.rec.time("core.sched", item, root, || {
                Scheduler::new(&problem).config(config).run()
            }),
            Some(limit) => {
                self.tally.press_loops += 1;
                let calls = self.press_calls;
                let (result, obs) = self.rec.time("core.sched", item, root, || {
                    let t = Instant::now();
                    let inner = PressureObserver::for_body(&body, &problem, limit);
                    let mut obs = Sampled {
                        inner,
                        calls,
                        sampled_ns: 0,
                        setup_ns: 0,
                    };
                    obs.setup_ns = t.elapsed().as_nanos() as u64;
                    let result = Scheduler::new(&problem)
                        .config(config.clone().pressure_limit(limit))
                        .observer(&mut obs)
                        .run();
                    (result, obs)
                });
                self.press_calls = obs.calls;
                self.press_sampled_ns += obs.sampled_ns;
                self.press_setup_ns += obs.setup_ns;
                self.tally.press_vetoes += obs.inner.rejects();
                self.tally.press_updates += obs.inner.updates();
                self.tally.press_ii_bumps += obs.inner.ii_bumps();
                match result {
                    Err(ScheduleError::PressureInfeasible { .. }) => {
                        self.rec.time("press.fallback", item, root, || {
                            Scheduler::new(&problem).config(config).run()
                        })
                    }
                    other => {
                        if other.is_ok() {
                            self.tally.press_fits += 1;
                        }
                        other
                    }
                }
            }
        };
        let outcome: SchedOutcome = match scheduled {
            Ok(o) => o,
            Err(e) => return self.fail(l, format!("schedule failed: {e}")),
        };
        let stats = &outcome.stats;
        self.tally.attempts += stats.attempts.len() as u64;
        self.tally.steps += stats.total_steps();
        self.tally.final_steps += stats.final_steps();
        self.tally.counters.add(&stats.counters);
        let s: &Schedule = &outcome.schedule;
        self.tally.ii += s.ii as u64;
        self.tally.mii += outcome.mii.mii as u64;

        if let Err(v) = self.rec.time("core.validate", item, root, || {
            validate_schedule(&problem, s)
        }) {
            return self.fail(l, format!("validator rejected the schedule: {v}"));
        }
        if s.ii < outcome.mii.mii {
            return self.fail(l, format!("II {} below MII {}", s.ii, outcome.mii.mii));
        }

        let code = self.rec.time("codegen", item, root, || {
            let lts = lifetimes(&body, &problem, s);
            match limit {
                None => Code::Mve(generate_mve(&body, &problem, s, &lts)),
                Some(_) => match generate_rotating(&body, &problem, s, &lts) {
                    Ok(c) => Code::Rotating(c),
                    Err(_) => Code::Mve(generate_mve(&body, &problem, s, &lts)),
                },
            }
        });
        match &code {
            Code::Mve(c) => {
                self.tally.insts += (c.prologue.len() + c.kernel.len() + c.coda.len()) as u64;
                self.tally.unroll += c.unroll as u64;
                if limit.is_some() {
                    self.tally.rot_fallbacks += 1;
                }
            }
            Code::Rotating(c) => {
                self.tally.insts += c.kernel.len() as u64;
                self.tally.rot_regs += c.rotating_size as u64;
            }
        }

        let reference = self.rec.time("vliw.ref", item, root, || {
            run_sequential(&body, l.memory.clone())
        });
        let simulated: Result<ExecResult, SimError> =
            self.rec.time("vliw.sim", item, root, || match &code {
                Code::Mve(c) => run_mve(c, &body, machine, l.memory.clone()),
                Code::Rotating(c) => run_rotating(c, &body, machine, l.memory.clone()),
            });
        let reference = match reference {
            Ok(r) => r,
            Err(e) => return self.fail(l, format!("reference run failed: {e}")),
        };
        let simulated = match simulated {
            Ok(r) => r,
            Err(e) => {
                self.tally.sim_errors += 1;
                return self.fail(l, format!("sim error: {e}"));
            }
        };
        self.tally.cycles += simulated.cycles;
        if let Some(m) = compare_memory(&reference.memory, &simulated.memory) {
            self.tally.mismatches += 1;
            self.fail(l, format!("memory differs from the sequential run: {m:?}"));
        }
    }
}

/// Forwards every hook to the pressure observer and times one call in
/// [`PRESS_SAMPLE`], chosen by the run-wide call index, of the hooks it
/// implements.
struct Sampled<'a, 'm> {
    inner: PressureObserver<'a, 'm>,
    calls: u64,
    /// Σ sampled hook time; a sample can come out negative.
    sampled_ns: i64,
    setup_ns: u64,
}

impl<'a, 'm> Sampled<'a, 'm> {
    fn sample<R>(&mut self, f: impl FnOnce(&mut PressureObserver<'a, 'm>) -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(PRESS_SAMPLE) {
            return f(&mut self.inner);
        }
        // A hook call costs about as much as reading the clock, so the
        // clock is read three times: the first gap is what a reading costs
        // here and now, and is taken off the second, which holds the call.
        let t0 = Instant::now();
        let t1 = Instant::now();
        let out = f(&mut self.inner);
        let t2 = Instant::now();
        self.sampled_ns += (t2 - t1).as_nanos() as i64 - (t1 - t0).as_nanos() as i64;
        out
    }
}

impl SchedObserver for Sampled<'_, '_> {
    fn backend(&mut self, kind: BackendKind) {
        self.inner.backend(kind);
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.sample(|o| o.attempt_start(ii, budget));
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        self.sample(|o| o.op_scheduled(node, time, alt, forced));
    }
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        self.sample(|o| o.op_evicted(node, evictor));
    }
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        self.inner.slot_search(node, estart, iters);
    }
    fn estart_computed(&mut self, node: NodeId, preds: u32) {
        self.inner.estart_computed(node, preds);
    }
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        self.inner.budget_exhausted(ii, spent);
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        self.inner.attempt_done(ii, ok);
    }
    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        self.sample(|o| o.placement_vetoed(node, time))
    }
    fn attempt_accept(&mut self, ii: i64, schedule: &Schedule) -> bool {
        self.sample(|o| o.attempt_accept(ii, schedule))
    }
}
