//! Table 4: computational complexity of the sub-activities of iterative
//! modulo scheduling — worst case vs. empirical least-mean-square fits.
//!
//! §4.4 fits each sub-activity's measured inner-loop trip count against N
//! (the number of operations): E ≈ 3.0036·N, MinDist ≈ 11.9133·N + 3.05
//! (with a large residual — the work is largely uncorrelated with N),
//! HeightR ≈ 4.5021·N, Estart ≈ 3.3321·N, FindTimeSlot ≈ 0.0587·N² +
//! 0.2001·N + 0.5. The conclusion to reproduce: every sub-activity is
//! empirically O(N) except the scheduler's slot search, which is O(N²), so
//! iterative modulo scheduling is empirically O(N²) overall.

use ims_bench::pool::threads_from_args;
use ims_bench::profile::{parse_profile_path, write_profile};
use ims_bench::{measure_corpus, parse_trace_dir, MeasureParams};
use ims_loopgen::paper_corpus;
use ims_machine::cydra;
use ims_stats::table::Table;
use ims_stats::{linear_fit_through_origin, polyfit};

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
        eprintln!("table4: cannot write traces: {e}");
        std::process::exit(1);
    });
    if let Some(profile_path) = &profile_path {
        write_profile(profile_path, "table4", &reg).unwrap_or_else(|e| {
            eprintln!(
                "table4: cannot write profile {}: {e}",
                profile_path.display()
            );
            std::process::exit(1);
        });
    }

    let ns: Vec<f64> = ms.iter().map(|m| m.n_ops as f64).collect();
    let fit1 = |ys: &[f64]| {
        linear_fit_through_origin(&ns, ys).expect("corpus has non-degenerate N values")
    };

    println!("Table 4 — computational complexity per sub-activity\n");
    let mut t = Table::new(vec![
        "Activity".into(),
        "Worst-case".into(),
        "Empirical fit".into(),
        "Paper's fit".into(),
    ]);

    let es: Vec<f64> = ms.iter().map(|m| m.n_edges as f64).collect();
    let e_fit = fit1(&es);
    t.row(vec![
        "Dependence edges E".into(),
        "O(N^2)".into(),
        format!("{e_fit}"),
        "3.0036N".into(),
    ]);

    let scc: Vec<f64> = ms.iter().map(|m| m.counters.scc_work as f64).collect();
    t.row(vec![
        "SCC identification".into(),
        "O(N+E)".into(),
        format!("{}", fit1(&scc)),
        "O(N)".into(),
    ]);

    let resmii: Vec<f64> = ms.iter().map(|m| m.counters.resmii_work as f64).collect();
    t.row(vec![
        "ResMII calculation".into(),
        "O(N)".into(),
        format!("{}", fit1(&resmii)),
        "O(N)".into(),
    ]);

    let mindist: Vec<f64> = ms.iter().map(|m| m.counters.mindist_work as f64).collect();
    let md_fit = polyfit(&ns, &mindist, 1).expect("non-degenerate");
    t.row(vec![
        "MII calculation (MinDist inner loop)".into(),
        "O(N^3) per SCC".into(),
        format!("{md_fit} (resid sd {:.1})", md_fit.residual_stddev),
        "11.9133N + 3.05 (resid sd 1842.7)".into(),
    ]);

    let hr: Vec<f64> = ms.iter().map(|m| m.counters.heightr_work as f64).collect();
    t.row(vec![
        "HeightR calculation".into(),
        "O(NE)".into(),
        format!("{}", fit1(&hr)),
        "4.5021N".into(),
    ]);

    let es_w: Vec<f64> = ms.iter().map(|m| m.counters.estart_preds as f64).collect();
    t.row(vec![
        "Iterative scheduling: Estart".into(),
        "NP-complete overall".into(),
        format!("{}", fit1(&es_w)),
        "3.3321N".into(),
    ]);

    let fs: Vec<f64> = ms.iter().map(|m| m.counters.findslot_iters as f64).collect();
    let fs_fit = polyfit(&ns, &fs, 2).expect("non-degenerate");
    t.row(vec![
        "Iterative scheduling: FindTimeSlot".into(),
        "NP-complete overall".into(),
        format!("{fs_fit}"),
        "0.0587N^2 + 0.2001N + 0.5".into(),
    ]);
    print!("{}", t.render());

    // Is the quadratic term real? Compare against the linear-only fit.
    let fs_lin = polyfit(&ns, &fs, 1).expect("non-degenerate");
    println!(
        "\nFindTimeSlot residual: quadratic fit sd {:.1} vs linear fit sd {:.1} \
         (the quadratic term should reduce the residual, as in the paper)",
        fs_fit.residual_stddev, fs_lin.residual_stddev
    );
    println!(
        "\nConclusion check: every sub-activity is empirically ~linear in N except\n\
         the slot search, so iterative modulo scheduling is empirically O(N^2)."
    );
}
