//! Corpus-wide optimality-gap harness: iterative vs. exact scheduling.
//!
//! For every corpus loop, an exact backend establishes the true minimum
//! II (or explicit bounds when its work budget runs out), and the
//! iterative scheduler is run at BudgetRatios 1, 2, 3 and 6 — the sweep
//! of the paper's §4.3. The per-loop JSON lines and the aggregate line
//! quantify how far Rau's heuristic sits from optimal at each budget.
//!
//! ```text
//! optgap [--seed H] [--loops N] [--threads T] [--backend exact|sat]
//!        [--trace DIR] [--profile FILE]
//! ```
//!
//! Defaults: 300 loops at seed `0xC4D5`, one worker per core, the
//! branch-and-bound (`exact`) prover. Each prover runs under its
//! decider's default work budget, the one the service uses: 2^22
//! branch-and-bound nodes, or 2^18 CDCL conflicts with `--backend sat`.
//! The budget counts work, never wall-clock time, so stdout is
//! byte-identical across runs and `--threads` values —
//! `scripts/verify.sh` diffs `--threads 1` against `--threads 4` on
//! every run. Because the gap is measured *against* an exact prover,
//! `--backend ims` (and portfolio specs, which include it) are rejected
//! with exit 2.
//!
//! Per-loop fields: `exact_lb`/`exact_ub` bound the true minimum II
//! (equal when proven), `limit_hit` flags an aborted search, `nodes` its
//! cost (CDCL conflicts under `--backend sat`), and `ii_b1` … `ii_b6`
//! are the heuristic IIs. The aggregate line reports, over the `decided`
//! loops (those with proven optima), the summed gap `Σ (II − II*)` and
//! the count of optimally scheduled loops per budget ratio.
//!
//! The corpus driver's opt-in extras work here too, with the same
//! determinism contract:
//!
//! * `--trace DIR` writes one JSON-lines event trace per loop
//!   (`loop_00042.jsonl`, …), byte-identical across thread counts. Each
//!   trace carries five back-to-back runs: the exact backend's, then the
//!   four heuristic runs in BudgetRatio order, each introduced by its
//!   `backend` event.
//! * `--profile FILE` writes a versioned `BENCH_<name>.json` snapshot
//!   covering every phase of the harness (exact search, the heuristic
//!   sweep, graph analysis, MRT probes), with deterministic sections
//!   byte-identical across `--threads` values. stdout is unchanged.

use std::path::PathBuf;

use ims_bench::profile::{write_profile, ProfObserver};
use ims_bench::run_corpus;
use ims_core::{BackendKind, BackendSpec, NullObserver, SchedConfig, SchedObserver, Scheduler};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_prof::{phase, PhaseTimer};
use ims_sat::{schedule_leaf, LeafOutcome};
use ims_serve::pool;

const USAGE: &str = "usage: optgap [--seed H] [--loops N] [--threads T] [--backend exact|sat]
              [--trace DIR] [--profile FILE]";

/// The §4.3 BudgetRatio sweep, labeled `b1` … `b6` in the output.
const RATIOS: [(f64, &str); 4] = [(1.0, "b1"), (2.0, "b2"), (3.0, "b3"), (6.0, "b6")];

struct Row {
    ops: usize,
    mii: i64,
    exact_lb: i64,
    exact_ub: i64,
    limit_hit: bool,
    nodes: u64,
    iis: [i64; RATIOS.len()],
}

fn main() {
    let args = pool::args_or_exit(USAGE);
    let seed: u64 = pool::flag_or_exit(&args, "--seed", USAGE).unwrap_or(0xC4D5);
    let loops: usize = pool::flag_or_exit(&args, "--loops", USAGE).unwrap_or(300);
    let threads = pool::threads_or_exit(&args, USAGE);
    let trace_dir: Option<PathBuf> = pool::flag_or_exit(&args, "--trace", USAGE);
    let profile_path: Option<PathBuf> = pool::flag_or_exit(&args, "--profile", USAGE);

    // The gap is measured against a prover; `ims` (and portfolio specs,
    // which include it) cannot certify optimality, so they are usage
    // errors here, not silent downgrades.
    let spec = pool::flag_or_exit(&args, "--backend", USAGE)
        .unwrap_or(BackendSpec::Leaf(BackendKind::Exact));
    let backend = match spec.as_leaf() {
        Some(kind @ (BackendKind::Exact | BackendKind::Sat)) => kind,
        _ => {
            eprintln!("optgap: --backend {spec} cannot prove optimality (expected exact or sat)");
            std::process::exit(2);
        }
    };

    let corpus = corpus_of_size(seed, loops);
    let machine = cydra();
    let sched = SchedConfig::new().budget_ratio(6.0);

    let t0 = std::time::Instant::now();
    let trace = trace_dir.as_deref().map(|dir| (dir, ""));
    let run = run_corpus(
        &corpus,
        &machine,
        threads,
        trace,
        profile_path.is_some(),
        |_, _, _, problem, rec, mut reg| {
            let mut null = NullObserver;
            let obs: &mut dyn SchedObserver = match rec {
                Some(r) => r,
                None => &mut null,
            };

            let t = PhaseTimer::start(match backend {
                BackendKind::Sat => phase::WALL_SAT,
                _ => phase::WALL_EXACT,
            });
            let mut prover_obs = (ProfObserver::new(reg.as_deref_mut()), &mut *obs);
            let Ok(LeafOutcome::Prover(proof)) =
                schedule_leaf(backend, problem, &sched, None, &mut prover_obs)
            else {
                panic!("corpus loops always schedule under the automatic II cap");
            };
            t.finish_if(reg.as_deref_mut());

            let t = PhaseTimer::start(phase::WALL_SCHED);
            let mut iis = [0i64; RATIOS.len()];
            for (slot, (ratio, _)) in iis.iter_mut().zip(RATIOS) {
                let out = Scheduler::new(problem)
                    .config(SchedConfig::new().budget_ratio(ratio))
                    .observer((ProfObserver::new(reg.as_deref_mut()), &mut *obs))
                    .run()
                    .expect("corpus loops always schedule under the automatic II cap");
                *slot = out.schedule.ii;
            }
            t.finish_if(reg);

            Row {
                ops: problem.num_ops(),
                mii: proof.mii.mii,
                exact_lb: proof.bounds.proved_lb,
                exact_ub: proof.bounds.best_ub,
                limit_hit: proof.limit_hit,
                nodes: proof.work,
                iis,
            }
        },
    );
    let (rows, total) = run.unwrap_or_else(|e| {
        eprintln!("optgap: cannot write traces: {e}");
        std::process::exit(1);
    });
    let elapsed = t0.elapsed();

    if let Some(p) = &profile_path {
        if let Err(e) = write_profile(p, "optgap", &total) {
            eprintln!("optgap: cannot write profile {}: {e}", p.display());
            std::process::exit(1);
        }
    }

    let mut out = String::with_capacity(rows.len() * 160);
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{{\"loop\":{i},\"ops\":{},\"mii\":{},\"exact_lb\":{},\"exact_ub\":{},\
             \"limit_hit\":{},\"nodes\":{}",
            r.ops, r.mii, r.exact_lb, r.exact_ub, r.limit_hit, r.nodes,
        ));
        for (&ii, (_, label)) in r.iis.iter().zip(RATIOS) {
            out.push_str(&format!(",\"ii_{label}\":{ii}"));
        }
        out.push_str("}\n");
    }

    let decided: Vec<&Row> = rows.iter().filter(|r| r.exact_lb == r.exact_ub).collect();
    let limit_hits = rows.iter().filter(|r| r.limit_hit).count();
    out.push_str(&format!(
        "{{\"loops\":{},\"decided\":{},\"limit_hits\":{limit_hits}",
        rows.len(),
        decided.len(),
    ));
    for (k, (_, label)) in RATIOS.iter().enumerate() {
        let gap: i64 = decided.iter().map(|r| r.iis[k] - r.exact_ub).sum();
        let optimal = decided.iter().filter(|r| r.iis[k] == r.exact_ub).count();
        out.push_str(&format!(",\"gap_{label}\":{gap},\"opt_{label}\":{optimal}"));
    }
    out.push_str("}\n");
    print!("{out}");

    eprintln!(
        "optgap: {} loops ({} decided, {} limit hits) in {:.1} ms on {} thread{}",
        rows.len(),
        decided.len(),
        limit_hits,
        elapsed.as_secs_f64() * 1e3,
        threads,
        if threads == 1 { "" } else { "s" },
    );
    if let Some(p) = &profile_path {
        eprintln!("profile snapshot written to {}", p.display());
    }
}
