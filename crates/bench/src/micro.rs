//! Std-only micro-benchmarks on the [`ims_testkit::bench`] harness.
//!
//! These replace the former Criterion benches with plain functions that run
//! under `cargo run --release` (via the `bench_scheduler` / `bench_mii`
//! binaries) or, in smoke form, under `cargo test --release`. Each bench
//! emits one machine-readable JSON line combining the timing order
//! statistics with the scheduler's own observability counters (budget
//! consumed, evictions, IIs attempted), so appending runs to a
//! `BENCH_*.json` file accumulates a trajectory over time.

use ims_core::{
    compute_mii, height_r, modulo_schedule, rec_mii, rec_mii_by_circuits, res_mii, Counters,
    Problem, SchedConfig,
};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_graph::elementary_circuits;
use ims_loopgen::{generate_loop, SynthConfig};
use ims_machine::{cydra, MachineModel};
use ims_testkit::bench::{black_box, run, BenchResult, BenchSpec};
use ims_testkit::json::Value;
use ims_testkit::Xoshiro256;

/// Builds the deterministic synthetic problem used by a bench scenario.
fn synth_problem<'m>(
    machine: &'m MachineModel,
    seed: u64,
    ops_target: usize,
    recurrences: Vec<usize>,
) -> Problem<'m> {
    let cfg = SynthConfig {
        ops_target,
        recurrences,
        with_branch: true,
    };
    let body = generate_loop(&mut Xoshiro256::seed_from_u64(seed), &cfg);
    let body = back_substitute(&body, machine);
    build_problem(&body, machine, &BuildOptions::default())
}

/// Times one full [`modulo_schedule`] run and emits a JSON line carrying
/// the timing plus the run's scheduler counters.
fn scheduler_line(
    name: &str,
    spec: &BenchSpec,
    problem: &Problem<'_>,
    config: &SchedConfig,
) -> String {
    let result = run(name, *spec, || {
        black_box(modulo_schedule(black_box(problem), config).expect("schedules"));
    });
    // Counters are deterministic per problem, so one un-timed run suffices.
    let out = modulo_schedule(problem, config).expect("schedules");
    result.json_line(&[
        ("ops", Value::Int(problem.op_nodes().count() as i128)),
        ("ii", Value::Int(out.schedule.ii.into())),
        ("mii", Value::Int(out.mii.mii.into())),
        ("budget_steps", Value::Int(out.stats.total_steps().into())),
        ("evictions", Value::Int(out.stats.counters.evictions.into())),
        (
            "iis_attempted",
            Value::Int(out.stats.attempts.len() as i128),
        ),
    ])
}

/// Scheduler throughput benches: whole-pipeline scheduling across loop
/// sizes, budget-ratio sensitivity, and front-end (back-substitution +
/// problem construction) cost. Returns one JSON line per scenario.
pub fn scheduler_benches(spec: &BenchSpec) -> Vec<String> {
    let machine = cydra();
    let mut lines = Vec::new();

    // Whole-pipeline scheduling time as loop size grows (Table 4's regime).
    for &n in &[8usize, 16, 32, 64, 128] {
        let recurrences = if n >= 16 { vec![3] } else { vec![] };
        let problem = synth_problem(&machine, n as u64, n, recurrences);
        lines.push(scheduler_line(
            &format!("schedule/ops_{n}"),
            spec,
            &problem,
            &SchedConfig::default(),
        ));
    }

    // Budget-ratio sensitivity (§4.3's BudgetRatio sweep) on a fixed loop.
    let problem = synth_problem(&machine, 7, 48, vec![4]);
    for &ratio in &[1.0f64, 2.0, 4.0, 6.0] {
        lines.push(scheduler_line(
            &format!("schedule/budget_{ratio}"),
            spec,
            &problem,
            &SchedConfig::with_budget_ratio(ratio),
        ));
    }

    // Front-end cost: IR back-substitution plus dependence-graph build.
    let cfg = SynthConfig {
        ops_target: 48,
        recurrences: vec![4],
        with_branch: true,
    };
    let raw = generate_loop(&mut Xoshiro256::seed_from_u64(3), &cfg);
    let result = run("front_end/build_48", *spec, || {
        let body = back_substitute(black_box(&raw), &machine);
        black_box(build_problem(&body, &machine, &BuildOptions::default()));
    });
    lines.push(result.json_line(&[("ops", Value::Int(raw.num_ops() as i128))]));

    lines
}

/// MII-computation benches: ResMII, RecMII by MinDist, RecMII by circuit
/// enumeration, the combined MII, and the HeightR priority, across loop
/// sizes. Returns one JSON line per scenario. Each line's `work` comes
/// from one untimed call, like [`scheduler_benches`]' counters, so it
/// does not depend on the iteration plan: the summed Table 4 counters,
/// or for the circuit lines the enumeration's own work counter.
pub fn mii_benches(spec: &BenchSpec) -> Vec<String> {
    let machine = cydra();
    let mut lines = Vec::new();
    for &n in &[12usize, 40, 120] {
        let problem = synth_problem(&machine, n as u64, n, vec![3, 2]);
        let ops = problem.op_nodes().count() as u64;
        let mut mii_work = Counters::new();
        let mii = compute_mii(&problem, &mut mii_work);

        let line = |result: BenchResult, work: u64| {
            result.json_line(&[
                ("ops", Value::Int(ops.into())),
                ("mii", Value::Int(mii.mii.into())),
                ("work", Value::Int(work.into())),
            ])
        };
        let table4 = |c: &Counters| {
            c.scc_work
                + c.resmii_work
                + c.mindist_work
                + c.heightr_work
                + c.estart_preds
                + c.findslot_iters
        };

        let mut c = Counters::new();
        res_mii(&problem, &mut c);
        let r = run(&format!("mii/res_mii_{n}"), *spec, || {
            black_box(res_mii(black_box(&problem), &mut Counters::new()));
        });
        lines.push(line(r, table4(&c)));

        let mut c = Counters::new();
        rec_mii(&problem, 1, &mut c);
        let r = run(&format!("mii/rec_mii_mindist_{n}"), *spec, || {
            black_box(rec_mii(black_box(&problem), 1, &mut Counters::new()));
        });
        lines.push(line(r, table4(&c)));

        let mut work = 0u64;
        elementary_circuits(problem.graph(), 100_000, &mut work);
        let r = run(&format!("mii/rec_mii_circuits_{n}"), *spec, || {
            black_box(rec_mii_by_circuits(black_box(&problem), 100_000));
        });
        lines.push(line(r, work));

        let r = run(&format!("mii/compute_mii_{n}"), *spec, || {
            black_box(compute_mii(black_box(&problem), &mut Counters::new()));
        });
        lines.push(line(r, table4(&mii_work)));

        let mut c = Counters::new();
        height_r(&problem, mii.mii, &mut c);
        let r = run(&format!("mii/height_r_{n}"), *spec, || {
            black_box(height_r(black_box(&problem), mii.mii, &mut Counters::new()));
        });
        lines.push(line(r, table4(&c)));
    }
    lines
}

/// Corpus-scheduling throughput across worker-thread counts: the same
/// 96-loop corpus slice scheduled by the [`crate::pool`] driver at 1, 2,
/// 4, and 8 threads. Each line carries the thread count and the
/// deterministic aggregate step/eviction counters — which must be
/// identical on every line, the pool's determinism guarantee in bench
/// form. Returns one JSON line per thread count.
pub fn corpus_scaling_benches(spec: &BenchSpec) -> Vec<String> {
    use crate::{measure_corpus, LoopMeasurement, MeasureParams};
    use ims_loopgen::corpus_of_size;

    let machine = cydra();
    let corpus = corpus_of_size(0xC4D5, 96);
    let params = MeasureParams::ims(2.0);
    let measure = |threads| -> Vec<LoopMeasurement> {
        measure_corpus(black_box(&corpus), &machine, &params, threads, None, false)
            .expect("no trace dir, no I/O")
            .0
    };
    let mut lines = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let result = run(&format!("corpus/threads_{threads}"), *spec, || {
            black_box(measure(threads));
        });
        let ms = measure(threads);
        let steps: u64 = ms.iter().map(|m| m.total_steps).sum();
        let evictions: u64 = ms.iter().map(|m| m.counters.evictions).sum();
        lines.push(result.json_line(&[
            ("threads", Value::Int(threads as i128)),
            ("loops", Value::Int(ms.len() as i128)),
            ("total_steps", Value::Int(steps.into())),
            ("evictions", Value::Int(evictions.into())),
        ]));
    }
    lines
}

/// Reads the iteration plan from `IMS_BENCH_WARMUP` / `IMS_BENCH_ITERS`
/// (defaults 3 and 30), so CI and local runs can tune cost without
/// recompiling.
pub fn spec_from_env() -> BenchSpec {
    let get = |key: &str, default: u32| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    BenchSpec::new(get("IMS_BENCH_WARMUP", 3), get("IMS_BENCH_ITERS", 30))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke-level runs (1 warmup, 2 iterations) keep the benches exercised
    // by `cargo test --release` without meaningful wall-clock cost.

    #[test]
    fn scheduler_benches_emit_valid_json_lines() {
        let lines = scheduler_benches(&BenchSpec::smoke());
        assert_eq!(lines.len(), 10);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"median_ns\":"), "{line}");
        }
        // Scheduler scenarios carry the observability counters.
        assert!(lines[0].contains("\"budget_steps\":"), "{}", lines[0]);
        assert!(lines[0].contains("\"evictions\":"), "{}", lines[0]);
        assert!(lines[0].contains("\"iis_attempted\":"), "{}", lines[0]);
    }

    #[test]
    fn corpus_scaling_benches_agree_across_thread_counts() {
        let lines = corpus_scaling_benches(&BenchSpec::smoke());
        assert_eq!(lines.len(), 4);
        // The deterministic aggregates must match on every line: only the
        // timings and the thread count may differ.
        let tail = |l: &str| l.split("\"loops\":").nth(1).map(str::to_string);
        let first = tail(&lines[0]).expect("loops field present");
        for line in &lines[1..] {
            assert_eq!(tail(line).as_ref(), Some(&first), "{line}");
        }
    }

    #[test]
    fn mii_benches_emit_valid_json_lines() {
        let lines = mii_benches(&BenchSpec::smoke());
        assert_eq!(lines.len(), 15);
        for line in &lines {
            assert!(line.contains("\"bench\":\"mii/"), "{line}");
            assert!(line.contains("\"work\":"), "{line}");
        }
        // Work is one call's worth, whatever the iteration plan: the smoke
        // plan makes three calls per line, this one a single call.
        let work = |lines: &[String]| -> Vec<(String, i64)> {
            lines
                .iter()
                .map(|line| {
                    let v = ims_testkit::json::parse(line).expect("valid JSON");
                    let name = v.get("bench").and_then(|b| b.as_str()).expect("name");
                    let work = v.get("work").and_then(|w| w.as_i64()).expect("work");
                    (name.to_string(), work)
                })
                .collect()
        };
        let smoke = work(&lines);
        assert_eq!(smoke, work(&mii_benches(&BenchSpec::new(0, 1))));
        for (name, w) in &smoke {
            if name.contains("rec_mii_circuits") {
                assert!(*w > 0, "{name} counts its enumeration");
            }
        }
    }
}
