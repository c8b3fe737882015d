//! The §4.3 comparison: iterative modulo scheduling vs.
//! "unroll-before-scheduling".
//!
//! For each corpus loop, the unroll-before-scheduling baseline unrolls the
//! body U times and list-schedules the unrolled body acyclically; the
//! back-edge remains a scheduling barrier, so its effective initiation
//! interval is `schedule_length(unrolled) / U`. The paper's claim: to be
//! competitive with iterative modulo scheduling (within 2.8% of the
//! execution-time bound), such schemes must not expand the code beyond
//! ~2.18× the loop body — while in practice *"unroll-before-scheduling
//! schemes typically unroll the loop body many tens of times"*.
//!
//! This binary measures the effective II of the unrolled baseline at
//! U ∈ {1, 2, 4, 8, 16} against the modulo scheduler's II, along with the
//! code-size expansion each needs.

use ims_bench::run_corpus;
use ims_core::{list_schedule, SchedConfig, Scheduler};
use ims_deps::{build_problem, unroll, BuildOptions};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_serve::pool::{args_or_exit, default_threads};
use ims_stats::table::{num, Table};

const USAGE: &str = "usage: unroll_comparison";

const FACTORS: [u32; 5] = [1, 2, 4, 8, 16];

fn main() {
    args_or_exit(USAGE);
    let machine = cydra();
    let corpus = corpus_of_size(0xC4D5, 300);

    // Per loop: the modulo II, and the unrolled baseline's effective II
    // at each factor.
    let (per_loop, _) = run_corpus(
        &corpus,
        &machine,
        default_threads(),
        None,
        false,
        |_, _, body, problem, _, _| {
            let out = Scheduler::new(problem)
                .config(SchedConfig::new().budget_ratio(6.0))
                .run()
                .expect("corpus loops schedule under the automatic II cap");
            let effective = FACTORS.map(|u| {
                let unrolled = unroll(body, u);
                let up = build_problem(&unrolled, &machine, &BuildOptions::default());
                list_schedule(&up).length as f64 / u as f64
            });
            (out.schedule.ii as f64, effective)
        },
    )
    .expect("no trace directory, so no I/O");
    let count = per_loop.len();

    println!("Unroll-before-scheduling vs iterative modulo scheduling ({count} loops)\n");
    let mut t = Table::new(vec![
        "scheme".into(),
        "mean effective II".into(),
        "vs modulo".into(),
        "code size".into(),
        "modulo wins/ties".into(),
    ]);
    let modulo_mean = per_loop.iter().map(|l| l.0).sum::<f64>() / count as f64;
    t.row(vec![
        "modulo scheduling".into(),
        num(modulo_mean, 2),
        "1.00x".into(),
        "1x body".into(),
        "-".into(),
    ]);
    for (fi, u) in FACTORS.into_iter().enumerate() {
        let mean = per_loop.iter().map(|l| l.1[fi]).sum::<f64>() / count as f64;
        let wins = per_loop.iter().filter(|l| l.0 <= l.1[fi]).count();
        t.row(vec![
            format!("unroll x{u} + list schedule"),
            num(mean, 2),
            format!("{:.2}x", mean / modulo_mean),
            format!("{u}x body"),
            format!("{wins}/{count}"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nThe unrolled baseline pays the back-edge drain every U iterations;\n\
         its effective II approaches the modulo II only as the unroll factor\n\
         (and code size) grows — the paper's 2.18x break-even argument (§4.3)."
    );
}
