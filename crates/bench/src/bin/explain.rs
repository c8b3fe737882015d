//! Corpus-wide II attribution and budget forensics.
//!
//! For every corpus loop the driver answers two questions with evidence:
//! *why is the MII what it is* (the saturated resource or the critical
//! recurrence circuit, from `ims-explain`'s [`attribute_mii`]), and
//! *where did the scheduling budget go* (per-attempt waste, the eviction
//! graph, slot-search effort — mined from the scheduler's own event
//! stream). The per-loop JSON lines, the aggregate line and the top-K
//! pathological-loop digest are byte-identical across `--threads` values.
//!
//! ```text
//! explain [--seed H] [--loops N] [--threads T] [--budget-ratio R]
//!         [--top K] [--max-circuits C] [--trace DIR] [--from-trace DIR]
//!         [--optgap FILE] [--profile FILE]
//! ```
//!
//! Defaults: 300 loops at seed `0xC4D5` (the optgap corpus), BudgetRatio
//! 6, top-10 digest, 10 000-circuit enumeration cap per binding SCC.
//!
//! Two event sources, one analyzer:
//!
//! * by default each loop is scheduled in-process and the observer's
//!   event stream is mined directly — no trace files needed. The mined
//!   totals and the profiler's counters fold the same events, so they
//!   agree by construction.
//! * `--from-trace DIR` re-analyzes a previously written trace directory
//!   (`loop_00042.jsonl`, …) instead of scheduling. Because the JSONL
//!   encoding is lossless, stdout is byte-identical to the in-process
//!   run that wrote the traces. Truncated traces are mined from their
//!   well-formed prefix.
//!
//! `--trace DIR` writes the event stream out while analyzing (the files
//! a later `--from-trace` run consumes). `--optgap FILE` joins each loop
//! against the proved `exact_lb`/`exact_ub` bounds in an `optgap` run's
//! saved stdout, adding the true optimality gap to the report.
//! `--profile FILE` writes a `BENCH_explain.json` snapshot whose
//! deterministic sections (the `explain.*` counters among them) are
//! byte-identical across `--threads` values.

use std::path::PathBuf;

use ims_bench::profile::{write_profile, ProfObserver};
use ims_bench::run_corpus;
use ims_core::{Counters, SchedConfig, Scheduler};
use ims_explain::{
    attribute_mii, parse_optgap_bounds, CorpusStats, LoopReport, MiiBound, TraceMine,
};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_prof::{phase, PhaseTimer};
use ims_serve::pool;
use ims_trace::{parse_trace_prefix, Recorder};

const USAGE: &str = "usage: explain [--seed H] [--loops N] [--threads T] [--budget-ratio R]
               [--top K] [--max-circuits C] [--trace DIR] [--from-trace DIR]
               [--optgap FILE] [--profile FILE]";

fn main() {
    let args = pool::args_or_exit(USAGE);
    let seed: u64 = pool::flag_or_exit(&args, "--seed", USAGE).unwrap_or(0xC4D5);
    let loops: usize = pool::flag_or_exit(&args, "--loops", USAGE).unwrap_or(300);
    let budget_ratio: f64 = pool::flag_or_exit(&args, "--budget-ratio", USAGE).unwrap_or(6.0);
    let top: usize = pool::flag_or_exit(&args, "--top", USAGE).unwrap_or(10);
    let max_circuits: usize = pool::flag_or_exit(&args, "--max-circuits", USAGE).unwrap_or(10_000);
    let threads = pool::threads_or_exit(&args, USAGE);
    let trace_dir: Option<PathBuf> = pool::flag_or_exit(&args, "--trace", USAGE);
    let from_trace: Option<PathBuf> = pool::flag_or_exit(&args, "--from-trace", USAGE);
    let optgap_path: Option<PathBuf> = pool::flag_or_exit(&args, "--optgap", USAGE);
    let profile_path: Option<PathBuf> = pool::flag_or_exit(&args, "--profile", USAGE);

    if trace_dir.is_some() && from_trace.is_some() {
        eprintln!("explain: --trace writes what --from-trace reads; pick one");
        std::process::exit(2);
    }
    let bounds = match &optgap_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => Some(parse_optgap_bounds(&text)),
            Err(e) => {
                eprintln!("explain: cannot read optgap output {}: {e}", p.display());
                std::process::exit(1);
            }
        },
        None => None,
    };

    let corpus = corpus_of_size(seed, loops);
    let machine = cydra();
    let config = SchedConfig::new().budget_ratio(budget_ratio);

    let t0 = std::time::Instant::now();
    let trace = trace_dir.as_deref().map(|dir| (dir, ""));
    let run = run_corpus(
        &corpus,
        &machine,
        threads,
        trace,
        profile_path.is_some(),
        |index, _, _, problem, rec, mut reg| {
            let label = format!("loop_{index:05}");
            let mine = match &from_trace {
                Some(dir) => {
                    let text = std::fs::read_to_string(dir.join(format!("{label}.jsonl")))
                        .unwrap_or_default();
                    // Truncated or damaged traces contribute their
                    // well-formed prefix, like trace_report.
                    TraceMine::from_events(&parse_trace_prefix(&text).0)
                }
                None => {
                    // The runner's recorder when tracing, so the written
                    // trace and the report come from one buffer.
                    let mut own = Recorder::new();
                    let rec = rec.unwrap_or(&mut own);
                    let t = PhaseTimer::start(phase::WALL_SCHED);
                    Scheduler::new(problem)
                        .config(config.clone())
                        .observer((ProfObserver::new(reg.as_deref_mut()), &mut *rec))
                        .run()
                        .expect("corpus loops always schedule under the automatic II cap");
                    t.finish_if(reg.as_deref_mut());
                    TraceMine::from_events(&rec.events)
                }
            };

            let mut counters = Counters::new();
            let attribution = attribute_mii(problem, max_circuits, &mut counters);
            let report = LoopReport {
                label,
                ops: problem.num_ops(),
                attribution,
                mine,
                bounds: bounds.as_ref().and_then(|b| b.get(&index).copied()),
            };

            if let Some(r) = reg {
                r.add(phase::GRAPH_SCC_WORK, counters.scc_work);
                r.add(phase::SCHED_RESMII_WORK, counters.resmii_work);
                r.add(phase::GRAPH_MINDIST_WORK, counters.mindist_work);
                r.add(phase::EXPLAIN_LOOPS, 1);
                r.add(
                    match report.attribution.bound {
                        MiiBound::Resource => phase::EXPLAIN_BOUND_RES,
                        MiiBound::Recurrence => phase::EXPLAIN_BOUND_REC,
                        MiiBound::Tie => phase::EXPLAIN_BOUND_BOTH,
                    },
                    1,
                );
                if report.mii_gap().unwrap_or(0) > 0 {
                    r.add(phase::EXPLAIN_GAP_LOOPS, 1);
                }
                r.add(
                    phase::EXPLAIN_WASTED_STEPS,
                    report.mine.summary.wasted_steps(),
                );
                if report.attribution.rec.circuits_truncated {
                    r.add(phase::EXPLAIN_CIRCUITS_TRUNCATED, 1);
                }
            }
            report
        },
    );
    let (reports, total) = run.unwrap_or_else(|e| {
        eprintln!("explain: cannot write traces: {e}");
        std::process::exit(1);
    });
    let elapsed = t0.elapsed();

    if let Some(p) = &profile_path {
        if let Err(e) = write_profile(p, "explain", &total) {
            eprintln!("explain: cannot write profile {}: {e}", p.display());
            std::process::exit(1);
        }
    }

    let mut stats = CorpusStats::default();
    let mut out = String::with_capacity(reports.len() * 200);
    for report in &reports {
        stats.add(report, &machine);
        out.push_str(&report.to_json_line(&machine));
        out.push('\n');
    }
    out.push_str(&stats.to_json_line(top));
    out.push('\n');

    let (top_wasted, wasted_total) = stats.concentration(top);
    out.push_str(&format!("== top {top} loops by wasted budget ==\n"));
    for (label, _) in stats.top_wasted(top) {
        let report = reports
            .iter()
            .find(|r| r.label == label)
            .expect("top_wasted labels come from reports");
        out.push_str(&report.render_text(&machine));
    }
    print!("{out}");

    let share = if wasted_total == 0 {
        0.0
    } else {
        100.0 * top_wasted as f64 / wasted_total as f64
    };
    eprintln!(
        "explain: {} loops ({} res / {} rec / {} tie bound, {} above MII) in {:.1} ms \
         on {} thread{}; top-{top} loops hold {:.1}% of {} wasted steps",
        stats.loops,
        stats.res_bound,
        stats.rec_bound,
        stats.tie_bound,
        stats.gap_loops,
        elapsed.as_secs_f64() * 1e3,
        threads,
        if threads == 1 { "" } else { "s" },
        share,
        wasted_total,
    );
    if let Some(p) = &profile_path {
        eprintln!("profile snapshot written to {}", p.display());
    }
}
