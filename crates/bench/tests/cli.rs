//! Exit-code and message contracts of the drivers: `trace_report` on
//! missing or malformed trace directories, `benchdiff` as a regression
//! gate, `profile_report` rendering, and the strict flag parsing every
//! driver shares (a bad flag exits 2 with the binary's own usage line).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ims_prof::snapshot::render_snapshot;
use ims_prof::{phase, MetricsRegistry};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A per-test scratch directory (tests run concurrently in one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ims_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A baseline-shaped registry with a controllable MinDist counter and
/// wall span, so tests can inject precise regressions.
fn registry(mindist: u64, wall_ns: u64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.add(phase::GRAPH_MINDIST_WORK, mindist);
    reg.add(phase::SCHED_FINDSLOT_ITERS, 900);
    reg.observe(phase::HIST_SLOT_SEARCH, 3);
    reg.record_wall_ns(phase::WALL_SCHED, wall_ns);
    reg
}

fn write_snapshot(dir: &Path, file: &str, reg: &MetricsRegistry) -> String {
    let path = dir.join(file);
    std::fs::write(&path, render_snapshot("test", reg)).unwrap();
    path.to_string_lossy().into_owned()
}

/// A file of 200,000 nested `[`: a parser without a depth bound
/// overflows its stack on it.
fn write_deep(dir: &Path) -> String {
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    path.to_string_lossy().into_owned()
}

/// Asserts that `bin args` is a usage error: exit 2, `flag` named on
/// stderr next to the binary's own usage line, and nothing on stdout.
/// Returns stderr.
fn assert_usage_error(bin: &str, args: &[&str], flag: &str) -> String {
    let out = run(bin, args);
    assert_eq!(code(&out), 2, "{bin} {args:?}");
    let err = stderr(&out);
    let name = Path::new(bin).file_name().unwrap().to_str().unwrap();
    assert!(err.contains(flag), "{bin} {args:?} -> {err}");
    assert!(
        err.contains(&format!("usage: {name}")),
        "{bin} {args:?} -> {err}"
    );
    assert!(out.stdout.is_empty(), "no partial output on a bad flag");
    err
}

#[test]
fn explain_and_corpus_write_identical_trace_directories() {
    // Both drivers trace one BudgetRatio-6 run of the iterative scheduler
    // per loop through the one corpus runner. 40 loops are the 31 hand
    // kernels plus 9 synthetic ones.
    let dir = scratch("explain_vs_corpus");
    let (explain, corpus) = (dir.join("explain"), dir.join("corpus"));
    for (bin, trace) in [
        (env!("CARGO_BIN_EXE_explain"), &explain),
        (env!("CARGO_BIN_EXE_corpus"), &corpus),
    ] {
        let trace = trace.to_str().unwrap();
        let out = run(bin, &["--loops", "40", "--threads", "2", "--trace", trace]);
        assert_eq!(code(&out), 0, "{bin}: {}", stderr(&out));
    }
    let read = |trace: &Path| -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(trace)
            .expect("trace dir exists")
            .map(|e| {
                let path = e.expect("readable entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("readable trace"))
            })
            .collect()
    };
    let traces = read(&explain);
    assert_eq!(traces.len(), 40, "one trace per loop");
    assert!(traces.contains_key("loop_00039.jsonl"));
    assert!(traces == read(&corpus), "explain and corpus traces differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_report_rejects_a_missing_directory() {
    let out = run(
        env!("CARGO_BIN_EXE_trace_report"),
        &["/nonexistent/ims-trace-dir"],
    );
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn trace_report_summarizes_a_malformed_trace_from_its_prefix() {
    // A damaged trace (e.g. a crashed or truncated run) is summarized
    // from its well-formed prefix — here, zero events — not rejected.
    let dir = scratch("malformed");
    std::fs::write(dir.join("loop_00000.jsonl"), "this is not a trace event\n").unwrap();
    let out = run(env!("CARGO_BIN_EXE_trace_report"), &[dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains("truncated trace"), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("summarized from their well-formed prefix"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_report_rejects_an_empty_directory() {
    let dir = scratch("empty");
    let out = run(env!("CARGO_BIN_EXE_trace_report"), &[dir.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("no .jsonl traces"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchdiff_usage_errors_exit_2() {
    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));

    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &["a.json", "b.json", "--bogus"],
    );
    assert_eq!(code(&out), 2);

    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &["/nonexistent/a.json", "/nonexistent/b.json"],
    );
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    // A snapshot nested past the parser's depth bound is malformed input,
    // not a stack overflow.
    let dir = scratch("diff_deep");
    let deep = write_deep(&dir);
    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&deep, &deep]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("nesting deeper than"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchdiff_passes_a_self_compare_and_flags_an_injected_regression() {
    let dir = scratch("diff");
    let base = write_snapshot(&dir, "base.json", &registry(1000, 10_000_000));
    // The issue's acceptance case: MinDist work tripled.
    let worse = write_snapshot(&dir, "worse.json", &registry(3000, 10_000_000));

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &base]);
    assert_eq!(code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("PASS"), "{}", stdout(&out));

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &worse]);
    assert_eq!(code(&out), 1, "a 3x MinDist regression must fail");
    let text = stdout(&out);
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains(phase::GRAPH_MINDIST_WORK), "{text}");
    assert!(text.contains("FAIL"), "{text}");

    // A generous counter threshold tolerates the same delta.
    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &[&base, &worse, "--counter-threshold", "4.0"],
    );
    assert_eq!(code(&out), 0, "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchdiff_strict_counters_fail_in_both_directions() {
    let dir = scratch("strict");
    let base = write_snapshot(&dir, "base.json", &registry(1000, 10_000_000));
    let better = write_snapshot(&dir, "better.json", &registry(900, 10_000_000));

    // Less deterministic work is an improvement by default...
    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &better]);
    assert_eq!(code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("improved"), "{}", stdout(&out));

    // ...but strict mode (the CI baseline gate) demands exact equality.
    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &[&base, &better, "--strict-counters"],
    );
    assert_eq!(code(&out), 1, "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchdiff_wall_regressions_respect_threshold_and_no_wall() {
    let dir = scratch("wall");
    let base = write_snapshot(&dir, "base.json", &registry(1000, 10_000_000));
    let slower = write_snapshot(&dir, "slower.json", &registry(1000, 30_000_000));

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &slower]);
    assert_eq!(
        code(&out),
        1,
        "a 3x wall regression past the floor must fail"
    );
    assert!(stdout(&out).contains(phase::WALL_SCHED), "{}", stdout(&out));

    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &[&base, &slower, "--no-wall"],
    );
    assert_eq!(code(&out), 0, "{}", stdout(&out));

    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &[&base, &slower, "--wall-threshold", "5.0"],
    );
    assert_eq!(code(&out), 0, "{}", stdout(&out));

    // The `--flag=value` spelling works like every other driver's.
    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &[&base, &slower, "--wall-threshold=25"],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drivers_reject_malformed_threads_values() {
    // A malformed `--threads` must be a hard error (exit 2 + usage), not
    // a silent fallback to the core count: a silently single-threaded
    // bench run skews wall numbers without failing anything. Both drivers
    // funnel into the same strict parser.
    for bin in [env!("CARGO_BIN_EXE_corpus"), env!("CARGO_BIN_EXE_table3")] {
        for args in [
            &["--threads", "abc"][..],
            &["--threads=1.5"][..],
            &["--threads", "0"][..],
            &["--threads"][..], // value missing entirely
        ] {
            let out = run(bin, args);
            assert_eq!(code(&out), 2, "{bin} {args:?}");
            let err = stderr(&out);
            assert!(err.contains("usage:"), "{bin} {args:?} -> {err}");
            assert!(err.contains("--threads"), "{bin} {args:?} -> {err}");
            assert!(out.stdout.is_empty(), "no partial output on a bad flag");
        }
    }
}

#[test]
fn drivers_reject_malformed_numeric_flags() {
    // Every numeric flag is as strict as `--threads`: `--loops abc` must
    // not silently run the default corpus size.
    for bin in [
        env!("CARGO_BIN_EXE_corpus"),
        env!("CARGO_BIN_EXE_optgap"),
        env!("CARGO_BIN_EXE_explain"),
    ] {
        for args in [
            &["--loops", "abc"][..],
            &["--loops=-3"][..],
            &["--loops"][..],
        ] {
            let out = run(bin, args);
            assert_eq!(code(&out), 2, "{bin} {args:?}");
            let err = stderr(&out);
            assert!(err.contains("usage:"), "{bin} {args:?} -> {err}");
            assert!(err.contains("--loops"), "{bin} {args:?} -> {err}");
            assert!(out.stdout.is_empty(), "no partial output on a bad flag");
        }
    }

    // The report tools are just as strict, with their own usage lines:
    // no silent `--top 10`, no panic on `--iters abc`, no `-5` clamped
    // to a floor of 0.
    let trace_report = env!("CARGO_BIN_EXE_trace_report");
    let mrt = env!("CARGO_BIN_EXE_mrt_microbench");
    let benchdiff = env!("CARGO_BIN_EXE_benchdiff");
    for (bin, args, flag) in [
        (trace_report, &["/tmp", "--top", "abc"][..], "--top"),
        (trace_report, &["/tmp", "--top"][..], "--top"),
        (mrt, &["--iters", "abc"][..], "--iters"),
        (mrt, &["--iters"][..], "--iters"),
        (mrt, &["--iters", "5", "extra"][..], "extra"),
        (
            benchdiff,
            &["a", "b", "--min-wall-ns", "-5"][..],
            "--min-wall-ns",
        ),
        (
            benchdiff,
            &["a", "b", "--wall-threshold", "x"][..],
            "--wall-threshold",
        ),
        (
            benchdiff,
            &["a", "b", "--counter-threshold"][..],
            "--counter-threshold",
        ),
    ] {
        assert_usage_error(bin, args, flag);
    }
}

#[test]
fn corpus_accepts_wellformed_threads() {
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &["--threads", "2", "--loops", "1"],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(!out.stdout.is_empty());
}

#[test]
fn drivers_reject_malformed_backend_values() {
    // A malformed `--backend` is the same hard error as a malformed
    // `--threads`: exit 2 with a usage line naming the flag, never a
    // silent fallback to the default backend.
    for bin in [env!("CARGO_BIN_EXE_corpus"), env!("CARGO_BIN_EXE_optgap")] {
        for args in [
            &["--backend", "magic"][..],
            &["--backend=portfolio(ims,"][..],
            &["--backend", "portfolio()"][..],
            &["--backend"][..], // value missing entirely
        ] {
            let out = run(bin, args);
            assert_eq!(code(&out), 2, "{bin} {args:?}");
            let err = stderr(&out);
            assert!(err.contains("usage:"), "{bin} {args:?} -> {err}");
            assert!(err.contains("--backend"), "{bin} {args:?} -> {err}");
            assert!(out.stdout.is_empty(), "no partial output on a bad flag");
        }
    }

    // Well-formed specs can still be wrong for a particular driver:
    // `corpus` measures one backend per loop (no portfolios), and
    // `optgap` needs a prover (no `ims`, alone or inside a portfolio).
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &["--backend", "portfolio(ims,exact)", "--loops", "1"],
    );
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("leaf"), "{}", stderr(&out));

    for spec in ["ims", "portfolio(ims,sat)"] {
        let out = run(
            env!("CARGO_BIN_EXE_optgap"),
            &["--backend", spec, "--loops", "1"],
        );
        assert_eq!(code(&out), 2, "--backend {spec}: {}", stderr(&out));
        assert!(stderr(&out).contains("prove"), "{}", stderr(&out));
    }
}

#[test]
fn corpus_rejects_malformed_pressure_limits() {
    // Malformed or zero `--pressure-limit` values are the same hard error
    // as a malformed `--threads`, never a silent "pressure off".
    for args in [
        &["--pressure-limit", "lots"][..],
        &["--pressure-limit=2.5"][..],
        &["--pressure-limit", "0"][..],
        &["--pressure-limit=-4"][..],
        &["--pressure-limit"][..], // value missing entirely
    ] {
        let out = run(env!("CARGO_BIN_EXE_corpus"), args);
        assert_eq!(code(&out), 2, "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("usage:"), "{args:?} -> {err}");
        assert!(err.contains("--pressure-limit"), "{args:?} -> {err}");
        assert!(out.stdout.is_empty(), "no partial output on a bad flag");
    }

    // Well-formed, but only the iterative backend tracks pressure, and a
    // pressure run cannot also stream per-loop traces.
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &[
            "--pressure-limit",
            "16",
            "--backend",
            "exact",
            "--loops",
            "1",
        ],
    );
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("--backend ims"), "{}", stderr(&out));
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &[
            "--pressure-limit",
            "16",
            "--trace",
            "/tmp/ims_press_trace",
            "--loops",
            "1",
        ],
    );
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("--trace"), "{}", stderr(&out));
}

#[test]
fn corpus_pressure_lines_carry_the_verdict() {
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &["--pressure-limit", "16", "--loops", "2", "--threads", "1"],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"press_limit\":16"), "{text}");
    assert!(text.contains("\"press_ok\":"), "{text}");
    assert!(text.contains("\"max_live\":"), "{text}");
    assert!(text.contains("\"press_fit\":"), "aggregate line: {text}");
}

#[test]
fn corpus_accepts_the_sat_backend() {
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &["--backend", "sat", "--loops", "1", "--threads", "1"],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("\"proved_lb\":"),
        "sat lines carry bounds: {text}"
    );
}

#[test]
fn profile_report_renders_and_rejects_bad_input() {
    let dir = scratch("report");
    let snap = write_snapshot(&dir, "snap.json", &registry(1000, 10_000_000));

    let out = run(env!("CARGO_BIN_EXE_profile_report"), &[&snap]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains(phase::GRAPH_MINDIST_WORK), "{text}");
    assert!(
        text.contains("MinDist relaxations"),
        "phase descriptions render: {text}"
    );
    assert!(text.contains("Wall-clock spans"), "{text}");

    let out = run(env!("CARGO_BIN_EXE_profile_report"), &[]);
    assert_eq!(code(&out), 2);

    let out = run(
        env!("CARGO_BIN_EXE_profile_report"),
        &["/nonexistent/snap.json"],
    );
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_profile_report"),
        &[bad.to_str().unwrap()],
    );
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("malformed snapshot"),
        "{}",
        stderr(&out)
    );

    let out = run(env!("CARGO_BIN_EXE_profile_report"), &[&write_deep(&dir)]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("malformed snapshot") && err.contains("nesting deeper than"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table_drivers_print_their_own_usage() {
    // A bad flag prints the binary's own usage line, which lists its
    // flags. Every value here is rejected before any loop is scheduled.
    for bin in [
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_figure6"),
        env!("CARGO_BIN_EXE_ablation"),
    ] {
        let err = assert_usage_error(bin, &["--threads", "x"], "--threads");
        assert!(err.contains("[--trace DIR]"), "{bin}: {err}");
        assert_usage_error(bin, &["--trace"], "--trace");
    }
    for bin in [env!("CARGO_BIN_EXE_table3"), env!("CARGO_BIN_EXE_table4")] {
        assert_usage_error(bin, &["--profile"], "--profile");
    }
}
