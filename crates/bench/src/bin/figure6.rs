//! Figure 6: variation of execution time and scheduling cost with the
//! parameter BudgetRatio.
//!
//! Sweeps BudgetRatio over [1.0, 4.0] in steps of 0.25 (the paper's x-axis)
//! and reports, for each value, the aggregate execution-time dilation over
//! the lower bound and the aggregate scheduling inefficiency (operation
//! scheduling steps per operation, across all II attempts). The paper's
//! findings to reproduce in shape: dilation falls monotonically and then
//! flattens; inefficiency first falls, reaches its minimum near
//! BudgetRatio ≈ 1.75–2, then creeps up; around BudgetRatio 2 both are
//! near their minima.

use ims_bench::pool::threads_from_args;
use ims_bench::{aggregate_figure6, measure_corpus, parse_trace_dir, MeasureParams};
use ims_loopgen::paper_corpus;
use ims_machine::cydra;
use ims_stats::table::{num, Table};

fn main() {
    let corpus = paper_corpus(0xC4D5);
    let machine = cydra();
    let threads = threads_from_args();
    let args: Vec<String> = std::env::args().collect();
    // With --trace DIR, every sweep point writes its own per-loop traces,
    // prefixed by the BudgetRatio (`b1.25_loop_00042.jsonl`, ...).
    let trace_dir = parse_trace_dir(&args);
    let budgets: Vec<f64> = (4..=16).map(|i| i as f64 * 0.25).collect();

    println!(
        "Figure 6 — execution-time dilation and scheduling inefficiency vs BudgetRatio"
    );
    println!("({} loops per point)\n", corpus.len());

    let mut t = Table::new(vec![
        "BudgetRatio".into(),
        "ExecTimeDilation".into(),
        "SchedInefficiency".into(),
    ]);
    let mut series = Vec::new();
    for &b in &budgets {
        eprintln!("  BudgetRatio {b:.2} ({threads} threads)...");
        let prefix = format!("b{b:.2}_");
        let trace = trace_dir.as_deref().map(|dir| (dir, prefix.as_str()));
        let (ms, _) = measure_corpus(
            &corpus,
            &machine,
            &MeasureParams::ims(b),
            threads,
            trace,
            false,
        )
        .unwrap_or_else(|e| {
            eprintln!("figure6: cannot write traces: {e}");
            std::process::exit(1);
        });
        let (dilation, inefficiency) = aggregate_figure6(&ms);
        series.push((b, dilation, inefficiency));
        t.row(vec![num(b, 2), num(dilation, 4), num(inefficiency, 3)]);
    }
    print!("{}", t.render());

    // The paper's reading of the figure.
    let first = series.first().expect("non-empty sweep");
    let last = series.last().expect("non-empty sweep");
    let min_ineff = series
        .iter()
        .cloned()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
        .expect("non-empty sweep");
    println!("\nReadings (paper figures in brackets):");
    println!(
        "  dilation at BudgetRatio 1:    {:.2}%   [5.2%]",
        100.0 * first.1
    );
    println!(
        "  dilation at BudgetRatio 4:    {:.2}%   [~2.8-2.9%]",
        100.0 * last.1
    );
    println!(
        "  minimum inefficiency:         {:.3} at BudgetRatio {:.2}   [~1.55 at 1.75]",
        min_ineff.2, min_ineff.0
    );
    let at2 = series
        .iter()
        .find(|(b, _, _)| (*b - 2.0).abs() < 1e-9)
        .expect("2.0 is in the sweep");
    println!(
        "  at BudgetRatio 2:             dilation {:.2}% , inefficiency {:.3}   [2.8%, 1.59]",
        100.0 * at2.1,
        at2.2
    );
}
