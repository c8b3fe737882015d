use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use ims_benchmark::load::{pipeline_load, renumber, serve_load, CORPUS_SEED};
use ims_benchmark::results::{self, compare, judge, Bound, Summary, Verdict};
use ims_benchmark::stats::{percentile, quartiles, samples_beyond, tail_percentile};
use ims_core::BackendSpec;
use ims_serve::{gen_requests, key_request, parse_request};

#[test]
fn tail_percentile_leaves_at_least_ten_samples_beyond() {
    assert_eq!(tail_percentile(1327), 99.0);
    assert_eq!(tail_percentile(1000), 99.0, "p99 of 1000 leaves exactly 10");
    assert_eq!(tail_percentile(999), 90.0, "p99 of 999 leaves 9");
    assert_eq!(tail_percentile(400), 90.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(99), 50.0);
    for n in [20, 99, 100, 400, 999, 1010, 1327, 21232] {
        assert!(samples_beyond(n, tail_percentile(n)) >= 10, "n = {n}");
    }
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 50.0), 50);
    assert_eq!(percentile(&sorted, 90.0), 90);
    assert_eq!(percentile(&sorted, 99.0), 99);
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
}

#[test]
fn load_is_a_function_of_the_seed() {
    let order = |seed| {
        pipeline_load(seed, 60)
            .iter()
            .map(|l| l.index)
            .collect::<Vec<_>>()
    };
    let memory = |seed| {
        pipeline_load(seed, 60)
            .into_iter()
            .map(|l| l.memory)
            .collect::<Vec<_>>()
    };
    assert_eq!(order(1), order(1));
    assert_eq!(memory(1), memory(1));
    assert_ne!(order(1), order(2));
    assert_ne!(memory(1), memory(2));

    let ims = BackendSpec::default();
    let lines = |seed| {
        serve_load(seed, 40, 2, &ims)
            .into_iter()
            .map(|r| r.line)
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(5), lines(5));
    assert_ne!(lines(5), lines(6));
    assert_eq!(lines(5).len(), 80);
}

#[test]
fn renumbered_requests_share_the_original_key() {
    let ims = BackendSpec::default();
    for line in gen_requests(CORPUS_SEED, 60) {
        let original = parse_request(&line).expect("generated lines parse");
        let n = original.ops.len();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let copy = renumber(&original, &reversed, "copy".into());
        assert_eq!(key_request(&copy).key, key_request(&original).key, "{line}");
    }
    for r in serve_load(9, 40, 2, &ims) {
        let original = parse_request(&gen_requests(CORPUS_SEED, 40)[r.origin]).unwrap();
        assert_eq!(key_request(&r.request).key, key_request(&original).key);
    }
}

fn summary(values: &[f64]) -> Summary {
    Summary {
        unit: "u".into(),
        values: values.to_vec(),
    }
}

#[test]
fn judge_applies_bounds_and_spread() {
    let lower = Bound {
        name: "lat".into(),
        lower_is_better: true,
        bound: 0.10,
    };
    let higher = Bound {
        name: "rate".into(),
        lower_is_better: false,
        bound: 0.10,
    };
    let base = summary(&[100.0, 101.0, 99.0]);
    assert_eq!(
        judge(&base, &summary(&[104.0, 105.0, 103.0]), &lower).0,
        Verdict::Same
    );
    assert_eq!(
        judge(&base, &summary(&[120.0, 121.0, 119.0]), &lower).0,
        Verdict::Worse
    );
    assert_eq!(
        judge(&base, &summary(&[80.0, 81.0, 79.0]), &lower).0,
        Verdict::Better
    );
    assert_eq!(
        judge(&base, &summary(&[120.0, 121.0, 119.0]), &higher).0,
        Verdict::Better
    );
    // A spread wider than the bound leaves the verdict open...
    let noisy = summary(&[60.0, 100.0, 140.0]);
    assert_eq!(judge(&base, &noisy, &lower).0, Verdict::Unresolved);
    // ...unless every new value beats every old one.
    let wide_win = summary(&[10.0, 50.0, 90.0]);
    assert_eq!(judge(&base, &wide_win, &lower).0, Verdict::Better);
    // Exact metrics: any change beyond a zero bound counts.
    let exact = Bound {
        name: "ii".into(),
        lower_is_better: true,
        bound: 0.0,
    };
    assert_eq!(
        judge(&summary(&[2.0; 3]), &summary(&[2.0; 3]), &exact).0,
        Verdict::Same
    );
    assert_eq!(
        judge(&summary(&[2.0; 3]), &summary(&[2.001; 3]), &exact).0,
        Verdict::Worse
    );
}

fn result_file(items: [f64; 3], failed_share: f64) -> String {
    let metric = |unit: &str, v: [f64; 3]| {
        format!("{{\"unit\": \"{unit}\", \"median\": {}, \"q1\": 0, \"q3\": 0, \"values\": [{}, {}, {}]}}", v[1], v[0], v[1], v[2])
    };
    format!(
        "{{\"seed\": 1, \"workloads\": {{\"pipeline-paper\": {{\"end_to_end\": {{\"items_per_s\": {}, \"failed_share\": {}}}, \"per_layer\": {{}}}}}}}}",
        metric("items/s", items),
        metric("ratio", [failed_share; 3])
    )
}

#[test]
fn compare_reads_hand_written_result_files() {
    let bench = r#"{"end_to_end": [{"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.1}]}"#;
    let bounds = results::read_bounds(bench).unwrap();
    let base = results::read(&result_file([100.0, 101.0, 102.0], 0.0)).unwrap();

    let same = results::read(&result_file([98.0, 99.0, 100.0], 0.0)).unwrap();
    let c = compare(&base, &same, &bounds);
    assert!(!c.regression);
    assert_eq!(c.rows.len(), 1, "one row per workload");
    assert!(
        c.rows[0].starts_with("pipeline-paper:") && c.rows[0].contains("items_per_s same"),
        "{:?}",
        c.rows
    );

    let slow = results::read(&result_file([80.0, 81.0, 82.0], 0.0)).unwrap();
    let c = compare(&base, &slow, &bounds);
    assert!(c.regression);
    assert!(c.rows[0].contains("items_per_s worse"), "{:?}", c.rows);

    let noisy = results::read(&result_file([50.0, 101.0, 150.0], 0.0)).unwrap();
    let c = compare(&base, &noisy, &bounds);
    assert!(!c.regression);
    assert!(c.rows[0].contains("unresolved"), "{:?}", c.rows);

    let failing = results::read(&result_file([100.0, 101.0, 102.0], 0.01)).unwrap();
    let c = compare(&base, &failing, &bounds);
    assert!(c.regression, "a rise in failed_share is a regression");
    assert!(c.rows[0].contains("failed_share rose"), "{:?}", c.rows);
}

/// Runs the built binary with `args` from the crate directory.
fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn quick_run_covers_every_workload_and_metric() {
    let out_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick_result.json");
    let t0 = Instant::now();
    let out = benchmark(&[
        "run",
        "--quick",
        "--reps",
        "1",
        "--seconds",
        "0",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    let elapsed = t0.elapsed();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "quick run took {elapsed:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = results::read(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    let e2e = [
        "items_per_s",
        "lat_p50_us",
        "lat_tail_us",
        "failed_share",
        "ii_over_mii",
        "setup_s",
        "peak_rss_mb",
    ];
    for w in ims_benchmark::WORKLOADS {
        assert!(stdout.contains(&format!("== {w}:")), "{stdout}");
        let r = &parsed[w];
        let mut expected: Vec<&str> = e2e.to_vec();
        if w.starts_with("pipeline") {
            expected.extend(["sim_cycles", "code_insts"]);
        }
        let names: Vec<&str> = r.end_to_end.keys().map(String::as_str).collect();
        for name in expected {
            assert!(names.contains(&name), "{w} lacks {name}: {names:?}");
        }
        assert_eq!(
            r.end_to_end["failed_share"].median(),
            0.0,
            "{w} failed a check"
        );
        assert!(r.end_to_end["items_per_s"].median() > 0.0);
        assert_eq!(r.per_layer.len(), 39, "{w}");
    }
}

#[test]
fn measure_prints_the_metrics_benchmark_json_lists() {
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(bench).unwrap();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = benchmark(&[
            "measure",
            "--workload",
            "serve-portfolio",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--quick",
            "--bench",
            bench,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = ims_serve::json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&String> = last.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = last.get("metrics").and_then(|m| m.as_obj()).unwrap();
        let mut want = results::metric_names(&text, key).unwrap();
        want.sort();
        let got: Vec<String> = metrics.keys().cloned().collect();
        assert_eq!(got, want);
    }
    let mut units = BTreeMap::new();
    for w in ims_benchmark::WORKLOADS {
        let out = benchmark(&[
            "measure",
            "--workload",
            w,
            "--seconds",
            "0",
            "--quick",
            "--bench",
            bench,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = ims_serve::json::parse(stdout.lines().last().unwrap()).unwrap();
        for (name, m) in last.get("metrics").and_then(|m| m.as_obj()).unwrap() {
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap().to_string();
            assert_eq!(
                units.entry(name.clone()).or_insert(unit.clone()),
                &unit,
                "{w}: {name}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["measure"][..],
        &["measure", "--workload", "nope", "--detail"],
        &["frobnicate"],
        &["run", "--reps", "x"],
    ] {
        let out = benchmark(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
