//! The parallel corpus-scheduling driver.
//!
//! Schedules an entire corpus across a worker pool and emits one
//! deterministic JSON line per loop (plus one aggregate line) on stdout.
//! The stdout stream is **byte-identical for every `--threads` value** —
//! only the stderr timing summary differs — which `scripts/verify.sh`
//! checks on every run.
//!
//! ```text
//! corpus [--seed H] [--loops N] [--budget R] [--threads T] [--trace DIR]
//!        [--backend ims|exact|sat] [--profile FILE] [--pressure-limit N]
//! ```
//!
//! Defaults: the paper's 1327-loop corpus at seed `0xC4D5`, BudgetRatio 6,
//! one worker per available core, the iterative (`ims`) backend. With
//! `--trace DIR`, one JSON-lines event trace per loop is written under
//! `DIR` (`loop_00042.jsonl`, …) — also byte-identical across thread
//! counts; render them with the `trace_report` binary.
//!
//! `--backend exact` proves II optimality per loop by branch-and-bound
//! and `--backend sat` by CDCL search over the modulo-scheduling CNF
//! encoding (both adding `proved_lb`/`best_ub`/`limit_hit` to each JSON
//! line). Each prover runs under its decider's default work budget, the
//! one the service uses — 2^22 branch-and-bound nodes or 2^18 CDCL
//! conflicts per loop — which is deterministic, so the output stays
//! byte-identical across runs and thread counts. Portfolio specs belong
//! to the service driver (`scheduled`), not this per-loop harness; they
//! exit 2 here.
//!
//! `--pressure-limit N` (iterative backend only) schedules the same
//! corpus against the `cydra_rf(N)` machine variant — the Cydra 5 model
//! with an `N`-register rotating file — enforcing MaxLive ≤ N and a
//! fitting rotating allocation through `ims-press`. Each JSON line gains
//! `press_limit`/`press_ok`/`max_live`/`rot_size`; loops infeasible even
//! at the II cap fall back to their pressure-blind schedule with
//! `press_ok:false`.
//!
//! `--profile FILE` additionally profiles every pipeline phase (including
//! code generation and VLIW simulation, which only run under this flag)
//! and writes a versioned `BENCH_<name>.json` snapshot to `FILE`. The
//! emitted code of every loop must run on the simulator and leave the
//! memory the sequential run leaves; otherwise the run exits 1 naming
//! the loop. The JSON lines on stdout — and any `--trace` files — are
//! byte-identical with and without profiling, and the snapshot's
//! deterministic sections are byte-identical across `--threads` values;
//! only its wall section varies. Render snapshots with `profile_report`;
//! `scripts/verify.sh` pins the deterministic section of its 120-loop
//! run in `scripts/golden.sha256`.

use std::num::NonZeroU32;
use std::path::PathBuf;

use ims_bench::profile::write_profile;
use ims_bench::{corpus_jsonl, measure_corpus, MeasureParams};
use ims_core::{BackendKind, BackendSpec};
use ims_loopgen::corpus_of_size;
use ims_machine::{cydra, cydra_rf};
use ims_serve::pool::{args_or_exit, flag_or_exit, threads_or_exit};

const USAGE: &str = "usage: corpus [--seed H] [--loops N] [--budget R] [--threads T] [--trace DIR]
              [--backend ims|exact|sat] [--profile FILE] [--pressure-limit N]";

fn main() {
    let args = args_or_exit(USAGE);
    let seed: u64 = flag_or_exit(&args, "--seed", USAGE).unwrap_or(0xC4D5);
    let loops: usize = flag_or_exit(&args, "--loops", USAGE).unwrap_or(1327);
    let budget: f64 = flag_or_exit(&args, "--budget", USAGE).unwrap_or(6.0);
    let threads = threads_or_exit(&args, USAGE);
    let trace_dir: Option<PathBuf> = flag_or_exit(&args, "--trace", USAGE);
    let profile_path: Option<PathBuf> = flag_or_exit(&args, "--profile", USAGE);

    // This harness measures one backend per loop; portfolio racing lives
    // in the service driver, where the members share a cache entry.
    let spec: BackendSpec = flag_or_exit(&args, "--backend", USAGE).unwrap_or_default();
    let Some(backend) = spec.as_leaf() else {
        eprintln!(
            "corpus: --backend {spec} is not supported here (expected a leaf: ims, exact, or sat)"
        );
        std::process::exit(2);
    };
    // Zero is malformed like any other bad value: no register file fits it.
    let pressure_limit = flag_or_exit(&args, "--pressure-limit", USAGE).map(NonZeroU32::get);
    if pressure_limit.is_some() && backend != BackendKind::Ims {
        eprintln!("corpus: --pressure-limit is only supported with --backend ims");
        std::process::exit(2);
    }
    let params = MeasureParams {
        backend,
        pressure_limit,
        ..MeasureParams::ims(budget)
    };

    let corpus = corpus_of_size(seed, loops);
    // A pressure limit names a register-file capacity, so it also selects
    // the machine variant that declares that capacity.
    let machine = match pressure_limit {
        Some(limit) => cydra_rf(limit),
        None => cydra(),
    };
    let t0 = std::time::Instant::now();
    let trace = trace_dir.as_deref().map(|dir| (dir, ""));
    let (ms, reg) = measure_corpus(
        &corpus,
        &machine,
        &params,
        threads,
        trace,
        profile_path.is_some(),
    )
    .unwrap_or_else(|e| {
        eprintln!("corpus: {e}");
        std::process::exit(1);
    });
    if let Some(profile_path) = &profile_path {
        write_profile(profile_path, "corpus", &reg).unwrap_or_else(|e| {
            eprintln!(
                "corpus: cannot write profile {}: {e}",
                profile_path.display()
            );
            std::process::exit(1);
        });
    }
    let elapsed = t0.elapsed();

    print!("{}", corpus_jsonl(&ms));
    eprintln!(
        "scheduled {} loops ({}) in {:.1} ms on {} thread{} ({:.1} loops/ms)",
        ms.len(),
        backend,
        elapsed.as_secs_f64() * 1e3,
        threads,
        if threads == 1 { "" } else { "s" },
        ms.len() as f64 / (elapsed.as_secs_f64() * 1e3),
    );
    if let Some(p) = &profile_path {
        eprintln!("profile snapshot written to {}", p.display());
    }
}
