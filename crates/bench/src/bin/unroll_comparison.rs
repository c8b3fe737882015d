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

use ims_core::{list_schedule, SchedConfig, Scheduler};
use ims_deps::{back_substitute, build_problem, unroll, BuildOptions};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_stats::table::{num, Table};

fn main() {
    let machine = cydra();
    let corpus = corpus_of_size(0xC4D5, 300);
    let factors = [1u32, 2, 4, 8, 16];

    // Per-loop modulo II, and per-factor unrolled effective II.
    let mut modulo_total = 0f64;
    let mut unrolled_totals = vec![0f64; factors.len()];
    let mut kernel_ops_modulo = 0usize;
    let mut wins = vec![0usize; factors.len()];
    let mut count = 0usize;

    for l in &corpus.loops {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let out = match Scheduler::new(&problem)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
        {
            Ok(o) => o,
            Err(_) => continue,
        };
        count += 1;
        modulo_total += out.schedule.ii as f64;
        // Modulo scheduling's code size: the kernel is the loop body (plus
        // MVE unrolling where rotating registers are absent; the paper's
        // 2.18x figure includes scheduling effort, not MVE copies).
        kernel_ops_modulo += problem.num_ops();

        for (fi, &u) in factors.iter().enumerate() {
            let unrolled = unroll(&body, u);
            let up = build_problem(&unrolled, &machine, &BuildOptions::default());
            let sl = list_schedule(&up).length;
            let eff = sl as f64 / u as f64;
            unrolled_totals[fi] += eff;
            if out.schedule.ii as f64 <= eff {
                wins[fi] += 1;
            }
        }
    }

    println!("Unroll-before-scheduling vs iterative modulo scheduling ({count} loops)\n");
    let mut t = Table::new(vec![
        "scheme".into(),
        "mean effective II".into(),
        "vs modulo".into(),
        "code size".into(),
        "modulo wins/ties".into(),
    ]);
    let modulo_mean = modulo_total / count as f64;
    t.row(vec![
        "modulo scheduling".into(),
        num(modulo_mean, 2),
        "1.00x".into(),
        "1x body".into(),
        "-".into(),
    ]);
    for (fi, &u) in factors.iter().enumerate() {
        let mean = unrolled_totals[fi] / count as f64;
        t.row(vec![
            format!("unroll x{u} + list schedule"),
            num(mean, 2),
            format!("{:.2}x", mean / modulo_mean),
            format!("{u}x body"),
            format!("{}/{}", wins[fi], count),
        ]);
    }
    print!("{}", t.render());
    let _ = kernel_ops_modulo;
    println!(
        "\nThe unrolled baseline pays the back-edge drain every U iterations;\n\
         its effective II approaches the modulo II only as the unroll factor\n\
         (and code size) grows — the paper's 2.18x break-even argument (§4.3)."
    );
}
