//! Renders a `BENCH_<name>.json` profile snapshot as human-readable
//! tables.
//!
//! ```text
//! profile_report FILE
//! ```
//!
//! `FILE` is a snapshot written by the corpus drivers' `--profile FILE`
//! flag (`corpus`, `optgap`, `table3`, `table4`). The report prints one
//! table per snapshot section — deterministic counters, per-operation
//! histograms, and wall-clock spans — annotating each phase
//! with its one-line description from the profiler's phase-name registry.
//!
//! Exit status: 0 on success, 1 when the snapshot is missing or
//! malformed, 2 on usage errors.

use ims_prof::phase;
use ims_prof::snapshot::Snapshot;
use ims_serve::pool::{args_or_exit, positionals};
use ims_stats::table::{num, Table};

/// The registry description for `name`, or a placeholder for a phase this
/// build no longer registers (snapshots outlive phase registries).
fn what(name: &str) -> &'static str {
    phase::describe(name).map_or("(unregistered phase)", |d| d.what)
}

const USAGE: &str = "usage: profile_report FILE";

fn main() {
    let args = args_or_exit(USAGE);
    let [path] = positionals(&args, USAGE)[..] else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("profile_report: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let snap = Snapshot::parse(&text).unwrap_or_else(|e| {
        eprintln!("profile_report: malformed snapshot {path}: {e}");
        std::process::exit(1);
    });

    println!(
        "Profile snapshot \"{}\" (schema {})\n",
        snap.name, snap.schema
    );

    if !snap.counters.is_empty() {
        println!("Deterministic counters:");
        let mut t = Table::new(vec![
            "Phase".into(),
            "Count".into(),
            "What it counts".into(),
        ]);
        for (name, value) in &snap.counters {
            t.row(vec![name.clone(), value.to_string(), what(name).into()]);
        }
        print!("{}", t.render());
    }

    if !snap.histograms.is_empty() {
        println!("\nPer-step distributions:");
        let mut t = Table::new(vec![
            "Phase".into(),
            "Count".into(),
            "Sum".into(),
            "P50".into(),
            "P90".into(),
            "P99".into(),
            "Max".into(),
        ]);
        for (name, h) in &snap.histograms {
            t.row(vec![
                name.clone(),
                h.count.to_string(),
                h.sum.to_string(),
                h.p50.to_string(),
                h.p90.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
        print!("{}", t.render());
    }

    if !snap.wall.is_empty() {
        println!("\nWall-clock spans (advisory; never byte-compared):");
        let mut t = Table::new(vec![
            "Phase".into(),
            "Spans".into(),
            "Total ms".into(),
            "P50 us".into(),
            "P90 us".into(),
            "P99 us".into(),
            "Max us".into(),
        ]);
        for (name, w) in &snap.wall {
            t.row(vec![
                name.clone(),
                w.spans.to_string(),
                num(w.total_ns as f64 / 1e6, 2),
                num(w.p50_ns as f64 / 1e3, 1),
                num(w.p90_ns as f64 / 1e3, 1),
                num(w.p99_ns as f64 / 1e3, 1),
                num(w.max_ns as f64 / 1e3, 1),
            ]);
        }
        print!("{}", t.render());
    }
}
