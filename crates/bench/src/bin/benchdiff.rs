//! Compares two `BENCH_<name>.json` profile snapshots and fails on
//! regression — the perf gate behind `scripts/verify.sh` and CI.
//!
//! ```text
//! benchdiff BASE NEW [--counter-threshold R] [--wall-threshold R]
//!           [--min-wall-ns N] [--strict-counters] [--no-wall]
//! ```
//!
//! Deterministic counters and histogram sums regress when the new value
//! exceeds `base × counter-threshold` (default 1.0: any increase in
//! deterministic work is a regression). `--strict-counters` demands exact
//! equality in both directions — the CI mode, where the deterministic
//! sections must match a committed baseline byte-for-byte. Gauges must
//! always match exactly (differing gauges mean the workloads are not
//! comparable). Wall-clock totals regress only past `wall-threshold`
//! (default 2.0) and only when the base total is at least `min-wall-ns`
//! (default 1 ms — below that, timing noise dominates); `--no-wall`
//! skips wall comparison entirely, e.g. when the snapshots come from
//! different machines. Improvements are reported but never fail.
//!
//! Exit status: 0 when the comparison passes, 1 on regression, 2 on
//! usage, I/O, or parse errors.

use ims_bench::pool::flag_or_exit;
use ims_prof::diff::{diff_snapshots, DiffOptions};
use ims_prof::snapshot::Snapshot;

const USAGE: &str = "usage: benchdiff BASE NEW [--counter-threshold R] [--wall-threshold R]
                      [--min-wall-ns N] [--strict-counters] [--no-wall]";

/// The flags that take a value.
const VALUED: [&str; 3] = ["--counter-threshold", "--wall-threshold", "--min-wall-ns"];

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn load(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Snapshot::parse(&text).unwrap_or_else(|e| {
        eprintln!("benchdiff: malformed snapshot {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let defaults = DiffOptions::default();
    let opts = DiffOptions {
        counter_threshold: flag_or_exit(&args, "--counter-threshold", USAGE)
            .unwrap_or(defaults.counter_threshold),
        wall_threshold: flag_or_exit(&args, "--wall-threshold", USAGE)
            .unwrap_or(defaults.wall_threshold),
        min_wall_ns: flag_or_exit(&args, "--min-wall-ns", USAGE).unwrap_or(defaults.min_wall_ns),
        strict_counters: args.iter().any(|a| a == "--strict-counters"),
        compare_wall: !args.iter().any(|a| a == "--no-wall"),
    };

    // What is left once the flags and their values are set aside are the
    // two snapshot paths.
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if VALUED.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            paths.push(a);
        } else if !matches!(a.as_str(), "--strict-counters" | "--no-wall")
            && !VALUED.iter().any(|f| a.starts_with(&format!("{f}=")))
        {
            eprintln!("benchdiff: unknown flag {a}");
            usage();
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        usage();
    };

    let base = load(base_path);
    let new = load(new_path);
    let report = diff_snapshots(&base, &new, &opts);
    print!("{}", report.render(base_path, new_path));
    std::process::exit(if report.passed() { 0 } else { 1 });
}
