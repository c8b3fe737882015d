#![warn(missing_docs)]

//! One benchmark for the compile pipeline and the scheduling service.
//!
//! Four workloads, each built from the same fixed corpus and a seed
//! (see [`load`]):
//!
//! | workload | what runs |
//! |---|---|
//! | `pipeline-paper` | every corpus loop through deps → IMS → validator → MVE codegen → sequential and MVE simulation on `cydra` |
//! | `pipeline-regs16` | corpus loops scheduled under a 16-register MaxLive limit on `cydra_rf(16)`, rotating codegen and simulation |
//! | `serve-replay` | a read-heavy request stream (renumbered repeats of the corpus) through the service engine |
//! | `serve-portfolio` | a write-heavy stream of `portfolio(ims,sat)` requests against a cold cache |
//!
//! A run ([`measure`]) generates the load (untimed), sets up several
//! times and keeps the median set-up time, then repeats whole passes
//! over the load until its time is up. It calls only the public
//! functions of the other crates, checks every output, and returns the
//! end-to-end metrics and one set of per-layer metrics shared by every
//! workload. Every count is per pass, so it repeats exactly between runs
//! of the same code. The `benchmark` binary runs workloads in child processes,
//! compares result files, and writes traced runs' spans ([`span`]).

pub mod load;
mod pipeline;
pub mod results;
mod serve;
pub mod span;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in the order `benchmark run` cycles through them.
pub const WORKLOADS: [&str; 4] = [
    "pipeline-paper",
    "pipeline-regs16",
    "serve-replay",
    "serve-portfolio",
];

/// Passes every run makes, however short its time: each unit's reported
/// time is its fastest over the passes.
pub const MIN_PASSES: u64 = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// How one run is made.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Seed for the generated load.
    pub seed: u64,
    /// Measuring time; whole passes repeat until it is used up and at
    /// least [`MIN_PASSES`] have run.
    pub seconds: f64,
    /// Keep spans of every layer call.
    pub trace: bool,
    /// Small inputs, for smoke tests.
    pub quick: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `items_per_s`.
    pub name: &'static str,
    /// Unit, e.g. `items/s`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a traced run adds: per-layer self time and span coverage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Self time and calls per span name, per pass.
    pub layers: BTreeMap<&'static str, span::SelfTime>,
    /// Share of each loop's traced time covered by its layer spans
    /// (pipeline workloads; 0 for the service).
    pub coverage: f64,
    /// Every span, in recording order.
    pub spans: Vec<span::Span>,
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Load seed.
    pub seed: u64,
    /// Whole passes measured.
    pub passes: u64,
    /// Loops or requests processed in the timed passes.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// The first failures, by loop index or request id.
    pub failures: Vec<String>,
    /// Percentile reported as `lat_tail_us`.
    pub tail_percentile: f64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Present on traced runs.
    pub trace: Option<TraceSummary>,
}

/// Failures listed by name in a result; the count is always complete.
const MAX_LISTED_FAILURES: usize = 50;

/// Records a failed item: counts it and lists the first few.
pub(crate) fn fail(failed: &mut u64, failures: &mut Vec<String>, what: String) {
    *failed += 1;
    if failures.len() < MAX_LISTED_FAILURES {
        failures.push(what);
    }
}

/// Runs `workload` once.
///
/// # Errors
///
/// An unknown workload name, or a failure to read the process's peak
/// memory.
pub fn measure(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    match workload {
        "pipeline-paper" => pipeline::measure(&pipeline::PAPER, cfg),
        "pipeline-regs16" => pipeline::measure(&pipeline::REGS16, cfg),
        "serve-replay" => serve::measure(&serve::REPLAY, cfg),
        "serve-portfolio" => serve::measure(&serve::PORTFOLIO, cfg),
        _ => Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Per-pass totals of every layer. Each workload fills the layers it
/// passes through; the rest stay 0, so every workload reports the same
/// metric names.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Layers {
    deps_ms: f64,
    deps_edges: f64,
    sched_ms: f64,
    validate_ms: f64,
    attempts: f64,
    steps: f64,
    final_steps: f64,
    evictions: f64,
    findslot_iters: f64,
    mrt_probes: f64,
    mindist_work: f64,
    heightr_work: f64,
    resmii_work: f64,
    press_ms: f64,
    press_fallback_ms: f64,
    press_vetoes: f64,
    press_updates: f64,
    press_ii_bumps: f64,
    press_fits: f64,
    press_loops: f64,
    codegen_ms: f64,
    insts: f64,
    unroll: f64,
    rot_regs: f64,
    rot_fallbacks: f64,
    ref_ms: f64,
    sim_ms: f64,
    sim_cycles: f64,
    sim_errors: f64,
    mismatches: f64,
    parse_ms: f64,
    canon_ms: f64,
    serve_sched_ms: f64,
    serve_sched_p99_us: f64,
    batch_ms: f64,
    hits: f64,
    misses: f64,
    serve_failed: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// The per-layer metrics, in a fixed order.
    fn metrics(&self) -> Vec<Metric> {
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("deps.busy_ms", "ms", self.deps_ms),
            m("deps.edges", "count", self.deps_edges),
            m("core.sched.busy_ms", "ms", self.sched_ms),
            m("core.validate.busy_ms", "ms", self.validate_ms),
            m("core.attempts", "count", self.attempts),
            m("core.steps", "count", self.steps),
            m(
                "core.useful_step_ratio",
                "ratio",
                ratio(self.final_steps, self.steps),
            ),
            m("core.evictions", "count", self.evictions),
            m("core.findslot_iters", "count", self.findslot_iters),
            m("core.mrt_probes", "count", self.mrt_probes),
            m("core.mindist_work", "count", self.mindist_work),
            m("core.heightr_work", "count", self.heightr_work),
            m("core.resmii_work", "count", self.resmii_work),
            m("press.busy_ms", "ms", self.press_ms),
            m("press.fallback_ms", "ms", self.press_fallback_ms),
            m("press.vetoes", "count", self.press_vetoes),
            m("press.updates", "count", self.press_updates),
            m("press.ii_bumps", "count", self.press_ii_bumps),
            m(
                "press.fit_ratio",
                "ratio",
                ratio(self.press_fits, self.press_loops),
            ),
            m("codegen.busy_ms", "ms", self.codegen_ms),
            m("codegen.insts", "count", self.insts),
            m("codegen.unroll", "count", self.unroll),
            m("codegen.rot_regs", "count", self.rot_regs),
            m("codegen.rot_fallbacks", "count", self.rot_fallbacks),
            m("vliw.ref.busy_ms", "ms", self.ref_ms),
            m("vliw.sim.busy_ms", "ms", self.sim_ms),
            m("vliw.sim.cycles", "count", self.sim_cycles),
            m("vliw.sim.errors", "count", self.sim_errors),
            m("vliw.mismatches", "count", self.mismatches),
            m("serve.parse.busy_ms", "ms", self.parse_ms),
            m("serve.canon.busy_ms", "ms", self.canon_ms),
            m("serve.sched.busy_ms", "ms", self.serve_sched_ms),
            m("serve.sched.p99_us", "us", self.serve_sched_p99_us),
            m("serve.batch.busy_ms", "ms", self.batch_ms),
            m(
                "serve.other.busy_ms",
                "ms",
                self.batch_ms - self.parse_ms - self.canon_ms - self.serve_sched_ms,
            ),
            m("serve.hits", "count", self.hits),
            m("serve.misses", "count", self.misses),
            m(
                "serve.hit_ratio",
                "ratio",
                ratio(self.hits, self.hits + self.misses),
            ),
            m("serve.failed", "count", self.serve_failed),
        ]
    }
}

/// The end-to-end measurements of one run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EndToEnd {
    /// Items in each timed unit: 1 for a loop, the batch size for a
    /// service batch.
    unit_items: Vec<u32>,
    /// Time of every unit, in nanoseconds, per pass; units come in the
    /// same order in every pass.
    pass_unit_ns: Vec<Vec<u64>>,
    /// Percentile reported as the tail.
    tail_percentile: f64,
    /// Items attempted and failed.
    attempted: u64,
    /// Items that failed a check.
    failed: u64,
    /// Σ II over Σ MII.
    ii_over_mii: f64,
    /// Σ simulated cycles and Σ emitted instructions per pass (pipeline
    /// workloads only).
    code: Option<(f64, f64)>,
    /// Set-up times, in seconds.
    setups_s: Vec<f64>,
    /// Peak resident memory through set-up and the first pass, in MiB.
    /// Later passes are left out: how far the allocator's heap grows over
    /// repeated passes varies from run to run.
    peak_rss_mb: f64,
}

impl EndToEnd {
    /// The end-to-end metrics. Each unit's time is its fastest over the
    /// run's passes: outside load only ever slows a unit down, so the
    /// minimum is the steadiest estimate of what the code costs. An
    /// item's latency is its unit's time; throughput is items over the
    /// summed unit times. Set-up is the median over set-ups.
    fn metrics(self) -> Vec<Metric> {
        let best: Vec<u64> = (0..self.unit_items.len())
            .map(|u| {
                self.pass_unit_ns
                    .iter()
                    .map(|p| p[u])
                    .min()
                    .expect("at least one pass")
            })
            .collect();
        let items: u64 = self.unit_items.iter().map(|&n| n as u64).sum();
        let mut latencies: Vec<u64> = best
            .iter()
            .zip(&self.unit_items)
            .flat_map(|(&t, &n)| std::iter::repeat_n(t, n as usize))
            .collect();
        latencies.sort_unstable();
        let us = |p| stats::percentile(&latencies, p) as f64 / 1e3;
        let m = |name, unit, value| Metric { name, unit, value };
        let mut out = vec![
            m(
                "items_per_s",
                "items/s",
                items as f64 / (best.iter().sum::<u64>() as f64 / 1e9),
            ),
            m("lat_p50_us", "us", us(50.0)),
            m("lat_tail_us", "us", us(self.tail_percentile)),
            m(
                "failed_share",
                "ratio",
                ratio(self.failed as f64, self.attempted as f64),
            ),
            m("ii_over_mii", "ratio", self.ii_over_mii),
        ];
        if let Some((cycles, insts)) = self.code {
            out.push(m("sim_cycles", "cycles", cycles));
            out.push(m("code_insts", "insts", insts));
        }
        out.push(m("setup_s", "s", stats::median(&self.setups_s)));
        out.push(m("peak_rss_mb", "MB", self.peak_rss_mb));
        out
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Renders `metrics` as the body of a JSON object:
/// `"name":{"value":V,"unit":"U"},...`.
pub fn metrics_json(metrics: &[&Metric]) -> String {
    let mut s = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full result as one JSON line: every metric, the failures, and
    /// on traced runs the per-layer self times.
    pub fn detail_json(&self) -> String {
        let all = |ms: &[Metric]| metrics_json(&ms.iter().collect::<Vec<_>>());
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", ims_serve::json::escape(f)))
            .collect();
        let mut s = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"passes\":{},\"attempted\":{},\"failed\":{},\
             \"failures\":[{}],\"tail_percentile\":{},\"end_to_end\":{{{}}},\"per_layer\":{{{}}}",
            self.workload,
            self.seed,
            self.passes,
            self.attempted,
            self.failed,
            failures.join(","),
            self.tail_percentile,
            all(&self.end_to_end),
            all(&self.per_layer),
        );
        if let Some(t) = &self.trace {
            let _ = write!(s, ",\"trace\":{{\"coverage\":{},\"layers\":{{", t.coverage);
            for (i, (name, st)) in t.layers.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\"{name}\":{{\"self_ms\":{},\"calls\":{}}}",
                    st.self_ms, st.calls
                );
            }
            s.push_str("}}");
        }
        s.push('}');
        s
    }
}
