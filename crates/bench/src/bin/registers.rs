//! Register requirements of modulo-scheduled loops (extension).
//!
//! The paper defers register allocation to its companion work (Rau et al.,
//! "Register allocation for software pipelined loops", cited as \[35\], and
//! Huff's lifetime-sensitive scheduling \[18\]), but the quantities involved
//! fall out of this implementation directly: per-value lifetimes under the
//! achieved schedule, the kernel-unroll factor modulo variable expansion
//! needs on a machine without rotating registers, and the rotating-file
//! size needed with them. This binary reports their distributions over the
//! corpus — the data a machine designer would use to size a rotating
//! register file.

use ims_bench::run_corpus;
use ims_codegen::{allocate_rotating, lifetimes};
use ims_core::{SchedConfig, Scheduler};
use ims_loopgen::paper_corpus;
use ims_machine::cydra;
use ims_serve::pool::{args_or_exit, default_threads};
use ims_stats::table::{num, Table};
use ims_stats::DistributionStats;

const USAGE: &str = "usage: registers";

fn main() {
    args_or_exit(USAGE);
    let machine = cydra();
    let corpus = paper_corpus(0xC4D5);
    eprintln!("scheduling {} loops...", corpus.len());

    // Per loop with loop-variant values: their count, the MVE unroll
    // factor (the most names any one value needs) and the rotating-file
    // size.
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
            let lts = lifetimes(body, problem, &out.schedule);
            let unroll = lts.iter().map(|t| t.names).max()?;
            let alloc = allocate_rotating(body, &lts, out.schedule.ii);
            Some([lts.len() as f64, unroll as f64, alloc.size as f64])
        },
    )
    .expect("no trace directory, so no I/O");
    let per_loop: Vec<[f64; 3]> = per_loop.into_iter().flatten().collect();

    println!(
        "Register requirements across {} scheduled loops\n",
        per_loop.len()
    );
    let mut t = Table::new(vec![
        "quantity".into(),
        "median".into(),
        "mean".into(),
        "max".into(),
    ]);
    for (k, name) in [
        "loop-variant values per loop",
        "MVE kernel-unroll factor (Lam's kmax)",
        "rotating register file size",
    ]
    .into_iter()
    .enumerate()
    {
        let xs: Vec<f64> = per_loop.iter().map(|l| l[k]).collect();
        let s = DistributionStats::from_samples(&xs, 1.0);
        t.row(vec![
            name.into(),
            num(s.median, 1),
            num(s.mean, 2),
            num(s.maximum, 0),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nReading: with rotating registers the kernel is never unrolled and\n\
         the file size above suffices; without them, modulo variable\n\
         expansion replicates the kernel by the unroll factor — the paper's\n\
         motivation for rotating register files (§1, [35], [36])."
    );
}
