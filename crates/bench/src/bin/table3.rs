//! Table 3: distribution statistics for various measurements over the
//! corpus, plus the prose claims of §4.2 and §4.3.
//!
//! The paper ran 1327 loops at BudgetRatio 6 (*"well above the largest
//! value actually needed by any loop"*); so does this binary. Accepts
//! `--threads N`, `--trace DIR` (per-loop event traces) and
//! `--profile FILE` (a `BENCH_<name>.json` phase-profile snapshot; see
//! the `corpus` binary).

use ims_bench::pool::threads_from_args;
use ims_bench::profile::{parse_profile_path, write_profile};
use ims_bench::{measure_corpus, parse_trace_dir, LoopMeasurement, MeasureParams};
use ims_loopgen::paper_corpus;
use ims_machine::cydra;
use ims_stats::table::{num, Table};
use ims_stats::{DistributionStats, Histogram};

fn row(t: &mut Table, name: &str, s: &DistributionStats) {
    t.row(vec![
        name.to_string(),
        num(s.minimum_possible, 0),
        num(s.freq_of_minimum, 3),
        num(s.median, 2),
        num(s.mean, 2),
        num(s.maximum, 2),
    ]);
}

fn main() {
    let corpus = paper_corpus(0xC4D5);
    let threads = threads_from_args();
    eprintln!(
        "scheduling {} loops (BudgetRatio = 6, {threads} threads)...",
        corpus.len()
    );
    let args: Vec<String> = std::env::args().collect();
    let trace_dir = parse_trace_dir(&args);
    let profile_path = parse_profile_path(&args);
    let trace = trace_dir.as_deref().map(|dir| (dir, ""));
    let params = MeasureParams::ims(6.0);
    let (ms, reg) = measure_corpus(
        &corpus,
        &cydra(),
        &params,
        threads,
        trace,
        profile_path.is_some(),
    )
    .unwrap_or_else(|e| {
        eprintln!("table3: cannot write traces: {e}");
        std::process::exit(1);
    });
    if let Some(profile_path) = &profile_path {
        write_profile(profile_path, "table3", &reg).unwrap_or_else(|e| {
            eprintln!(
                "table3: cannot write profile {}: {e}",
                profile_path.display()
            );
            std::process::exit(1);
        });
    }

    let stats = |f: &dyn Fn(&LoopMeasurement) -> f64, min: f64| -> DistributionStats {
        let v: Vec<f64> = ms.iter().map(f).collect();
        DistributionStats::from_samples(&v, min)
    };
    let executed: Vec<&LoopMeasurement> = ms.iter().filter(|m| m.profile.executed).collect();

    println!("Table 3 — distribution statistics ({} loops)\n", ms.len());
    let mut t = Table::new(vec![
        "Measurement".into(),
        "MinPossible".into(),
        "Freq(min)".into(),
        "Median".into(),
        "Mean".into(),
        "Maximum".into(),
    ]);
    row(&mut t, "Number of operations", &stats(&|m| m.n_ops as f64, 4.0));
    row(&mut t, "MII", &stats(&|m| m.mii as f64, 1.0));
    row(
        &mut t,
        "Minimum modulo schedule length",
        &stats(&|m| m.schedule_length_lower as f64, 4.0),
    );
    row(
        &mut t,
        "max(0, RecMII - ResMII)",
        &stats(&|m| (m.rec_mii - m.res_mii).max(0) as f64, 0.0),
    );
    row(
        &mut t,
        "Number of non-trivial SCCs",
        &stats(&|m| m.non_trivial_sccs as f64, 0.0),
    );
    {
        let sizes: Vec<f64> = ms
            .iter()
            .flat_map(|m| m.scc_sizes.iter().map(|&s| s as f64))
            .collect();
        row(
            &mut t,
            "Number of nodes per SCC",
            &DistributionStats::from_samples(&sizes, 1.0),
        );
    }
    row(&mut t, "II - MII", &stats(&|m| m.delta_ii() as f64, 0.0));
    row(
        &mut t,
        "II / MII",
        &stats(&|m| m.ii as f64 / m.mii as f64, 1.0),
    );
    row(
        &mut t,
        "Schedule length (ratio)",
        &stats(
            &|m| m.schedule_length as f64 / m.schedule_length_lower.max(1) as f64,
            1.0,
        ),
    );
    {
        let ratios: Vec<f64> = executed
            .iter()
            .map(|m| m.execution_time() as f64 / m.execution_time_lower().max(1) as f64)
            .collect();
        row(
            &mut t,
            "Execution time (ratio)",
            &DistributionStats::from_samples(&ratios, 1.0),
        );
    }
    row(
        &mut t,
        "Number of nodes scheduled (ratio)",
        &stats(&|m| m.final_steps as f64 / m.n_ops.max(1) as f64, 1.0),
    );
    print!("{}", t.render());

    // ----- Prose claims of §4.2 -----
    println!("\nProse claims (paper figure in brackets):");
    let frac = |pred: &dyn Fn(&LoopMeasurement) -> bool| {
        ms.iter().filter(|m| pred(m)).count() as f64 / ms.len() as f64
    };
    println!(
        "  RecMII <= ResMII:                    {:.1}%  [84%]",
        100.0 * frac(&|m| m.rec_mii <= m.res_mii)
    );
    println!(
        "  loops with no non-trivial SCC:       {:.1}%  [77%]",
        100.0 * frac(&|m| m.non_trivial_sccs == 0)
    );
    let all_sizes: Vec<usize> = ms.iter().flat_map(|m| m.scc_sizes.iter().copied()).collect();
    let scc_frac = |k: usize| {
        all_sizes.iter().filter(|&&s| s <= k).count() as f64 / all_sizes.len() as f64
    };
    println!("  SCCs with 1 operation:               {:.1}%  [93%]", 100.0 * scc_frac(1));
    println!("  SCCs with <= 2 operations:           {:.1}%  [97%]", 100.0 * scc_frac(2));
    println!("  SCCs with <= 8 operations:           {:.1}%  [99%]", 100.0 * scc_frac(8));

    // ----- Prose claims of §4.3 -----
    let delta: Histogram = ms.iter().map(|m| m.delta_ii()).collect();
    println!(
        "  II = MII (optimal):                  {:.1}%  [96%]",
        100.0 * frac(&|m| m.delta_ii() == 0)
    );
    println!(
        "  DeltaII = 1: {} loops, = 2: {} loops, > 2: {} loops  [32 / 8 / 11]",
        delta.count_of(1),
        delta.count_of(2),
        delta.count_greater_than(2)
    );
    println!(
        "  ops scheduled exactly once:          {:.1}%  [90%]",
        100.0 * frac(&|m| m.final_steps == m.n_ops as u64)
    );
    let at_bound = executed
        .iter()
        .filter(|m| m.execution_time() == m.execution_time_lower())
        .count() as f64
        / executed.len().max(1) as f64;
    println!(
        "  executed loops at exec-time bound:   {:.1}%  [54%]  ({} executed loops)",
        100.0 * at_bound,
        executed.len()
    );
    let total: u64 = executed.iter().map(|m| m.execution_time()).sum();
    let total_lower: u64 = executed.iter().map(|m| m.execution_time_lower()).sum();
    println!(
        "  aggregate execution-time overhead:   {:.1}%  [2.8%]",
        100.0 * (total as f64 / total_lower.max(1) as f64 - 1.0)
    );
}
