//! Ablations beyond the paper's headline results (see DESIGN.md §5):
//!
//! 1. **Complex vs. simple reservation tables** for the same machine —
//!    quantifies how much iteration/displacement the complex tables force
//!    (the paper's motivation for iterative scheduling).
//! 2. **VLIW vs. conservative delay model** (Table 1's two columns) — the
//!    conservative model can only lengthen delays, so MIIs and IIs may
//!    grow.
//! 3. **RecMII via MinDist vs. circuit enumeration** — the two methods of
//!    §2.2 must agree wherever enumeration is feasible; enumeration blows
//!    up on dense recurrence structures, which is why the paper uses the
//!    MinDist formulation.

use ims_bench::pool::threads_from_args;
use ims_bench::{measure_corpus, parse_trace_dir, MeasureParams};
use ims_core::{
    modulo_schedule, rec_mii, rec_mii_by_circuits, Counters, PriorityKind, SchedConfig,
};
use ims_deps::{build_problem, BuildOptions, DelayModel};
use ims_loopgen::corpus_of_size;
use ims_machine::{cydra, cydra_simple};
use ims_stats::table::{num, Table};

fn main() {
    let corpus = corpus_of_size(0xC4D5, 400);
    let threads = threads_from_args();
    let args: Vec<String> = std::env::args().collect();
    // With --trace DIR, the two reservation-table runs write their
    // per-loop traces side by side (`complex_loop_*` / `simple_loop_*`).
    let trace_dir = parse_trace_dir(&args);
    println!("Ablations over {} corpus loops\n", corpus.len());

    // ----- 1. Complex vs simple reservation tables -----
    let trace = |machine: &ims_machine::MachineModel, prefix: &str| {
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
            eprintln!("ablation: cannot write traces: {e}");
            std::process::exit(1);
        })
        .0
    };
    let complex = trace(&cydra(), "complex_");
    let simple = trace(&cydra_simple(), "simple_");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let ineff = |ms: &[ims_bench::LoopMeasurement]| {
        let steps: u64 = ms.iter().map(|m| m.total_steps).sum();
        let ops: usize = ms.iter().map(|m| m.n_ops).sum();
        steps as f64 / ops as f64
    };
    let frac_opt = |ms: &[ims_bench::LoopMeasurement]| {
        ms.iter().filter(|m| m.delta_ii() == 0).count() as f64 / ms.len() as f64
    };
    let mut t = Table::new(vec![
        "Reservation tables".into(),
        "mean II".into(),
        "II=MII".into(),
        "sched inefficiency".into(),
    ]);
    for (name, ms) in [("complex (cydra)", &complex), ("simple (cydra_simple)", &simple)] {
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

    // ----- 2. Delay models -----
    let machine = cydra();
    let mut rows = Table::new(vec![
        "Delay model".into(),
        "mean MII".into(),
        "mean II".into(),
    ]);
    for (name, model) in [
        ("VLIW (Table 1 left)", DelayModel::Vliw),
        ("conservative (Table 1 right)", DelayModel::Conservative),
    ] {
        let mut miis = Vec::new();
        let mut iis = Vec::new();
        for l in &corpus.loops {
            let p = build_problem(&l.body, &machine, &BuildOptions { delay_model: model });
            let out = modulo_schedule(&p, &SchedConfig::with_budget_ratio(6.0))
                .expect("corpus loops schedule");
            miis.push(out.mii.mii as f64);
            iis.push(out.schedule.ii as f64);
        }
        rows.row(vec![name.into(), num(mean(&miis), 3), num(mean(&iis), 3)]);
    }
    print!("{}", rows.render());
    println!(
        "(on this system the two models coincide: dynamic single assignment\n\
         eliminates register anti/output dependences, and the remaining\n\
         memory anti/output dependences always have a 1-cycle store as the\n\
         successor/predecessor, where Table 1's two columns agree — the\n\
         formulas themselves are unit-tested in ims-deps)\n"
    );

    // ----- 3. Priority functions (§3.2's claim) -----
    let mut pt = Table::new(vec![
        "priority".into(),
        "II=MII".into(),
        "mean II".into(),
        "sched inefficiency".into(),
    ]);
    for (name, kind) in [
        ("HeightR (paper)", PriorityKind::HeightR),
        ("critical path (no II discount)", PriorityKind::CriticalPath),
        ("input order", PriorityKind::InputOrder),
    ] {
        let mut optimal = 0usize;
        let mut ii_sum = 0f64;
        let mut steps = 0u64;
        let mut ops = 0usize;
        for l in &corpus.loops {
            let p = build_problem(&l.body, &machine, &BuildOptions::default());
            let out = modulo_schedule(&p, &SchedConfig::new().budget_ratio(6.0).priority(kind))
                .expect("corpus loops schedule");
            if out.delta_ii() == 0 {
                optimal += 1;
            }
            ii_sum += out.schedule.ii as f64;
            steps += out.stats.total_steps();
            ops += p.num_ops();
        }
        pt.row(vec![
            name.into(),
            format!("{:.1}%", 100.0 * optimal as f64 / corpus.loops.len() as f64),
            num(ii_sum / corpus.loops.len() as f64, 2),
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
    let mut agree = 0usize;
    let mut enumerable = 0usize;
    let mut truncated = 0usize;
    let t0 = std::time::Instant::now();
    let mut mindist_time = std::time::Duration::ZERO;
    let mut circuits_time = std::time::Duration::ZERO;
    for l in &corpus.loops {
        let p = build_problem(&l.body, &machine, &BuildOptions::default());
        let s = std::time::Instant::now();
        let by_mindist = rec_mii(&p, 1, &mut Counters::new());
        mindist_time += s.elapsed();
        let s = std::time::Instant::now();
        let by_circuits = rec_mii_by_circuits(&p, 200_000);
        circuits_time += s.elapsed();
        match by_circuits {
            Some(c) => {
                enumerable += 1;
                if c == by_mindist {
                    agree += 1;
                }
            }
            None => truncated += 1,
        }
    }
    println!(
        "RecMII cross-check: {agree}/{enumerable} agreements, {truncated} loops with\n\
         too many elementary circuits to enumerate (cap 200k).\n\
         MinDist method: {:?} total; circuit enumeration: {:?} total ({:?} elapsed).",
        mindist_time,
        circuits_time,
        t0.elapsed()
    );
    assert_eq!(agree, enumerable, "the two RecMII methods must agree");
}
