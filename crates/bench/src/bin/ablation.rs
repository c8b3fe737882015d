//! Ablations beyond the paper's headline results (see DESIGN.md §5):
//!
//! 1. **Complex vs. simple reservation tables** for the same machine —
//!    quantifies how much iteration/displacement the complex tables force
//!    (the paper's motivation for iterative scheduling).
//! 2. **VLIW vs. conservative delay model** (Table 1's two columns) — the
//!    conservative model can only lengthen delays, so MIIs and IIs may
//!    grow.
//! 3. **Priority functions** — HeightR against a critical path without
//!    the II discount and input order (§3.2's claim).
//! 4. **RecMII via MinDist vs. circuit enumeration** — the two methods of
//!    §2.2 must agree wherever enumeration is feasible; enumeration blows
//!    up on dense recurrence structures, which is why the paper uses the
//!    MinDist formulation.
//!
//! Every part takes the loops from `run_corpus`, back-substituted as the
//! paper's corpus was, and part 1's complex run is also part 2's VLIW row
//! and part 3's HeightR row: one mean II for cydra at BudgetRatio 6.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ims_bench::{measure_corpus, run_corpus, LoopMeasurement, MeasureParams};
use ims_core::{
    rec_mii, rec_mii_by_circuits, Counters, PriorityKind, Problem, SchedConfig, Scheduler,
};
use ims_deps::{build_problem, BuildOptions, DelayModel};
use ims_loopgen::corpus_of_size;
use ims_machine::{cydra, cydra_simple, MachineModel};
use ims_serve::pool::{args_or_exit, flag_or_exit, threads_or_exit};
use ims_stats::table::{num, Table};

const USAGE: &str = "usage: ablation [--threads N] [--trace DIR]";

fn main() {
    let args = args_or_exit(USAGE);
    let threads = threads_or_exit(&args, USAGE);
    // With --trace DIR, the two reservation-table runs write their
    // per-loop traces side by side (`complex_loop_*` / `simple_loop_*`).
    let trace_dir: Option<PathBuf> = flag_or_exit(&args, "--trace", USAGE);
    let corpus = corpus_of_size(0xC4D5, 400);
    println!("Ablations over {} corpus loops\n", corpus.len());

    // ----- 1. Complex vs simple reservation tables -----
    let trace = |machine: &MachineModel, prefix: &str| {
        let trace = trace_dir.as_deref().map(|dir| (dir, prefix));
        measure_corpus(
            &corpus,
            machine,
            &MeasureParams::ims(6.0),
            threads,
            trace,
            false,
        )
        .unwrap_or_else(|e| {
            eprintln!("ablation: {e}");
            std::process::exit(1);
        })
        .0
    };
    let complex = trace(&cydra(), "complex_");
    let simple = trace(&cydra_simple(), "simple_");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let ineff = |ms: &[LoopMeasurement]| {
        let steps: u64 = ms.iter().map(|m| m.total_steps).sum();
        let ops: usize = ms.iter().map(|m| m.n_ops).sum();
        steps as f64 / ops as f64
    };
    let frac_opt = |ms: &[LoopMeasurement]| {
        ms.iter().filter(|m| m.delta_ii() == 0).count() as f64 / ms.len() as f64
    };
    let mut t = Table::new(vec![
        "Reservation tables".into(),
        "mean II".into(),
        "II=MII".into(),
        "sched inefficiency".into(),
    ]);
    for (name, ms) in [
        ("complex (cydra)", &complex),
        ("simple (cydra_simple)", &simple),
    ] {
        let iis: Vec<f64> = ms.iter().map(|m| m.ii as f64).collect();
        t.row(vec![
            name.into(),
            num(mean(&iis), 2),
            format!("{:.1}%", 100.0 * frac_opt(ms)),
            num(ineff(ms), 3),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(both models contain the unpipelined divide-unit blocks that force\n\
         displacement; the simple model makes divide/sqrt block the whole\n\
         multiplier, so it can be *harder* to pack than the complex one)\n"
    );

    // Parts 2-4 take each loop as part 1 does, back-substituted with its
    // problem built for cydra under the VLIW delay model, in one pass.
    // Part 1's complex run is part 2's VLIW row and part 3's HeightR row,
    // so this pass schedules only the conservative model and the other
    // two priorities.
    let machine = cydra();
    let (per_loop, _) = run_corpus(
        &corpus,
        &machine,
        threads,
        None,
        false,
        |_, _, body, problem, _, _| {
            let schedule = |p: &Problem<'_>, priority| {
                Scheduler::new(p)
                    .config(SchedConfig::new().budget_ratio(6.0).priority(priority))
                    .run()
                    .expect("corpus loops schedule")
            };
            let conservative = BuildOptions {
                delay_model: DelayModel::Conservative,
            };
            let conservative = build_problem(body, &machine, &conservative);
            let out = schedule(&conservative, PriorityKind::HeightR);
            let delays = (out.mii.mii, out.schedule.ii);
            let priorities = [PriorityKind::CriticalPath, PriorityKind::InputOrder].map(|kind| {
                let out = schedule(problem, kind);
                (
                    out.delta_ii() == 0,
                    out.schedule.ii,
                    out.stats.total_steps(),
                )
            });
            let s = Instant::now();
            let by_mindist = rec_mii(problem, 1, &mut Counters::new());
            let mindist_time = s.elapsed();
            let s = Instant::now();
            let by_circuits = rec_mii_by_circuits(problem, 200_000);
            let rec = (by_mindist, by_circuits, mindist_time, s.elapsed());
            (delays, priorities, rec)
        },
    )
    .expect("no trace directory, so no I/O");

    // ----- 2. Delay models -----
    let mut rows = Table::new(vec![
        "Delay model".into(),
        "mean MII".into(),
        "mean II".into(),
    ]);
    let vliw: Vec<(i64, i64)> = complex.iter().map(|m| (m.mii, m.ii)).collect();
    let conservative: Vec<(i64, i64)> = per_loop.iter().map(|run| run.0).collect();
    for (name, runs) in [
        ("VLIW (Table 1 left)", &vliw),
        ("conservative (Table 1 right)", &conservative),
    ] {
        let miis: Vec<f64> = runs.iter().map(|run| run.0 as f64).collect();
        let iis: Vec<f64> = runs.iter().map(|run| run.1 as f64).collect();
        rows.row(vec![name.into(), num(mean(&miis), 2), num(mean(&iis), 2)]);
    }
    print!("{}", rows.render());
    // A mean rounds a one-cycle difference in one loop away; a count does not.
    let differ = vliw.iter().zip(&conservative).filter(|(v, c)| v != c);
    println!(
        "loops whose MII or II differs between the models: {}",
        differ.count()
    );
    println!(
        "(on this system the two models coincide: dynamic single assignment\n\
         eliminates register anti/output dependences, and the remaining\n\
         memory anti/output dependences always have a 1-cycle store as the\n\
         successor/predecessor, where Table 1's two columns agree — the\n\
         formulas themselves are unit-tested in ims-deps)\n"
    );

    // ----- 3. Priority functions (§3.2's claim) -----
    let ops: usize = complex.iter().map(|m| m.n_ops).sum();
    let loops = complex.len() as f64;
    let mut pt = Table::new(vec![
        "priority".into(),
        "II=MII".into(),
        "mean II".into(),
        "sched inefficiency".into(),
    ]);
    let heightr: Vec<(bool, i64, u64)> = complex
        .iter()
        .map(|m| (m.delta_ii() == 0, m.ii, m.total_steps))
        .collect();
    let other = |k: usize| -> Vec<_> { per_loop.iter().map(|(_, runs, _)| runs[k]).collect() };
    for (name, runs) in [
        ("HeightR (paper)", heightr),
        ("critical path (no II discount)", other(0)),
        ("input order", other(1)),
    ] {
        let optimal = runs.iter().filter(|run| run.0).count();
        let ii_sum: i64 = runs.iter().map(|run| run.1).sum();
        let steps: u64 = runs.iter().map(|run| run.2).sum();
        pt.row(vec![
            name.into(),
            format!("{:.1}%", 100.0 * optimal as f64 / loops),
            num(ii_sum as f64 / loops, 2),
            num(steps as f64 / ops as f64, 3),
        ]);
    }
    print!("{}", pt.render());
    println!(
        "(§3.2 claims HeightR is near-best; on this corpus all three achieve\n\
         the MII almost everywhere — back-substitution leaves few tight\n\
         recurrences — so the differences are small and show up mainly in\n\
         scheduling effort)\n"
    );

    // ----- 4. RecMII: MinDist vs circuit enumeration -----
    let recs = || per_loop.iter().map(|(.., rec)| rec);
    let enumerable = recs().filter(|rec| rec.1.is_some()).count();
    let agree = recs().filter(|rec| rec.1 == Some(rec.0)).count();
    let truncated = per_loop.len() - enumerable;
    let mindist_time: Duration = recs().map(|rec| rec.2).sum();
    let circuits_time: Duration = recs().map(|rec| rec.3).sum();
    println!(
        "RecMII cross-check: {agree}/{enumerable} agreements, {truncated} loops with\n\
         too many elementary circuits to enumerate (cap 200k).\n\
         MinDist method: {mindist_time:?} total; circuit enumeration: {circuits_time:?} total."
    );
    assert_eq!(agree, enumerable, "the two RecMII methods must agree");
}
