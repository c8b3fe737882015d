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

use ims_codegen::{allocate_rotating, lifetimes};
use ims_core::{SchedConfig, Scheduler};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_loopgen::paper_corpus;
use ims_machine::cydra;
use ims_stats::table::{num, Table};
use ims_stats::DistributionStats;

fn main() {
    let machine = cydra();
    let corpus = paper_corpus(0xC4D5);
    eprintln!("scheduling {} loops...", corpus.len());

    let mut unrolls = Vec::new();
    let mut rotating_sizes = Vec::new();
    let mut max_names = Vec::new();
    let mut live_values = Vec::new();

    for l in &corpus.loops {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let Ok(out) = Scheduler::new(&problem)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
        else {
            continue;
        };
        let lts = lifetimes(&body, &problem, &out.schedule);
        if lts.is_empty() {
            continue;
        }
        let k = lts.iter().map(|t| t.names).max().unwrap_or(1);
        unrolls.push(k as f64);
        max_names.push(lts.iter().map(|t| t.names).max().unwrap_or(1) as f64);
        live_values.push(lts.len() as f64);
        let alloc = allocate_rotating(&body, &lts, out.schedule.ii);
        rotating_sizes.push(alloc.size as f64);
    }

    println!(
        "Register requirements across {} scheduled loops\n",
        unrolls.len()
    );
    let mut t = Table::new(vec![
        "quantity".into(),
        "median".into(),
        "mean".into(),
        "max".into(),
    ]);
    let mut row = |name: &str, xs: &[f64], min: f64| {
        let s = DistributionStats::from_samples(xs, min);
        t.row(vec![
            name.into(),
            num(s.median, 1),
            num(s.mean, 2),
            num(s.maximum, 0),
        ]);
    };
    row("loop-variant values per loop", &live_values, 1.0);
    row("MVE kernel-unroll factor (Lam's kmax)", &unrolls, 1.0);
    row("max register names for one value", &max_names, 1.0);
    row("rotating register file size", &rotating_sizes, 1.0);
    print!("{}", t.render());
    println!(
        "\nReading: with rotating registers the kernel is never unrolled and\n\
         the file size above suffices; without them, modulo variable\n\
         expansion replicates the kernel by the unroll factor — the paper's\n\
         motivation for rotating register files (§1, [35], [36])."
    );
}
