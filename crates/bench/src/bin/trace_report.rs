//! Renders per-loop convergence reports from a `--trace` directory.
//!
//! ```text
//! trace_report DIR [--top K]
//! ```
//!
//! Reads every `*.jsonl` event trace under `DIR` (as written by the
//! corpus binaries' `--trace` flag), summarizes each with
//! [`ims_trace::TraceSummary`], and prints an aggregate convergence
//! picture followed by the `K` (default 10) loops that wasted the most
//! scheduling budget on failed II attempts — the loops worth staring at
//! when tuning BudgetRatio or the priority function. Traces of the
//! provers (`corpus --backend exact|sat --trace DIR`) record no
//! scheduling steps, so for them the report says so instead of ranking.
//!
//! Truncated or damaged traces (a killed run, a half-flushed file) are
//! summarized from their longest well-formed prefix and flagged
//! `(truncated)` rather than aborting the whole report; an attempt the
//! trace ends inside is reported as unresolved (`II…`), never as a bogus
//! success or failure.

use ims_serve::pool::{args_or_exit, flag_or_exit, positionals};
use ims_trace::{parse_trace_prefix, TraceSummary};

const USAGE: &str = "usage: trace_report DIR [--top K]";

fn main() {
    let args = args_or_exit(USAGE);
    let [dir] = positionals(&args, USAGE)[..] else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let top: usize = flag_or_exit(&args, "--top", USAGE).unwrap_or(10);

    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("trace_report: cannot read {dir}: {e}");
            std::process::exit(1);
        })
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    entries.sort();

    let mut summaries = Vec::with_capacity(entries.len());
    let mut truncated = 0usize;
    for path in &entries {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("trace_report: cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let (events, complete) = parse_trace_prefix(&text);
        if !complete {
            truncated += 1;
            eprintln!(
                "trace_report: truncated trace {} ({} events recovered)",
                path.display(),
                events.len()
            );
        }
        let label = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_string();
        summaries.push((label, TraceSummary::from_events(&events)));
    }
    if summaries.is_empty() {
        eprintln!("trace_report: no .jsonl traces under {dir}");
        std::process::exit(1);
    }

    let loops = summaries.len();
    let first_try = summaries
        .iter()
        .filter(|(_, s)| s.attempts.len() == 1 && s.final_ii().is_some())
        .count();
    let converged = summaries
        .iter()
        .filter(|(_, s)| s.final_ii().is_some())
        .count();
    let max_attempts = summaries
        .iter()
        .map(|(_, s)| s.attempts.len())
        .max()
        .unwrap_or(0);
    let total_steps: u64 = summaries.iter().map(|(_, s)| s.total_steps()).sum();
    let wasted_steps: u64 = summaries.iter().map(|(_, s)| s.wasted_steps()).sum();
    let evictions: u64 = summaries.iter().map(|(_, s)| s.evictions).sum();
    let slots: u64 = summaries.iter().map(|(_, s)| s.slots_examined).sum();

    println!("trace report — {loops} loops");
    println!(
        "  converged {converged}/{loops}, at the first candidate II {first_try} \
         ({:.1}%), worst case {max_attempts} attempts",
        100.0 * first_try as f64 / loops as f64
    );
    println!(
        "  {total_steps} scheduling steps ({wasted_steps} wasted on failed attempts, \
         {:.1}%), {evictions} evictions, {slots} slots examined",
        100.0 * wasted_steps as f64 / total_steps.max(1) as f64
    );
    if truncated > 0 {
        println!("  {truncated} truncated trace(s) summarized from their well-formed prefix");
    }

    // A prover reports its search as work counters, which traces do not
    // keep, so its traces carry no step to rank loops by.
    if total_steps == 0 {
        println!("\nno trace records a scheduling step, so no loop ranks as hardest");
        return;
    }
    summaries.sort_by(|a, b| {
        b.1.wasted_steps()
            .cmp(&a.1.wasted_steps())
            .then_with(|| b.1.evictions.cmp(&a.1.evictions))
            .then_with(|| a.0.cmp(&b.0))
    });
    println!("\nhardest loops (by wasted steps):");
    for (label, s) in summaries.iter().take(top) {
        println!("  {}", s.render_line(label));
    }
}
