//! Exit-code and message contracts of the report/diff binaries:
//! `trace_report` on missing or malformed trace directories, `benchdiff`
//! as a regression gate, and `profile_report` rendering.

use std::path::PathBuf;
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

fn write_snapshot(dir: &PathBuf, file: &str, reg: &MetricsRegistry) -> String {
    let path = dir.join(file);
    std::fs::write(&path, render_snapshot("test", reg)).unwrap();
    path.to_string_lossy().into_owned()
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
    assert!(stderr(&out).contains("no .jsonl traces"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchdiff_usage_errors_exit_2() {
    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &["a.json", "b.json", "--bogus"]);
    assert_eq!(code(&out), 2);

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &["/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
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
    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &better, "--strict-counters"]);
    assert_eq!(code(&out), 1, "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchdiff_wall_regressions_respect_threshold_and_no_wall() {
    let dir = scratch("wall");
    let base = write_snapshot(&dir, "base.json", &registry(1000, 10_000_000));
    let slower = write_snapshot(&dir, "slower.json", &registry(1000, 30_000_000));

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &slower]);
    assert_eq!(code(&out), 1, "a 3x wall regression past the floor must fail");
    assert!(stdout(&out).contains(phase::WALL_SCHED), "{}", stdout(&out));

    let out = run(env!("CARGO_BIN_EXE_benchdiff"), &[&base, &slower, "--no-wall"]);
    assert_eq!(code(&out), 0, "{}", stdout(&out));

    let out = run(
        env!("CARGO_BIN_EXE_benchdiff"),
        &[&base, &slower, "--wall-threshold", "5.0"],
    );
    assert_eq!(code(&out), 0, "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drivers_reject_malformed_threads_values() {
    // A malformed `--threads` must be a hard error (exit 2 + usage), not
    // a silent fallback to the core count: a silently single-threaded
    // bench run skews wall numbers without failing anything. `corpus`
    // parses argv explicitly, `table3` goes through `threads_from_args`;
    // both funnel into the same strict parser.
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
}

#[test]
fn corpus_accepts_wellformed_threads() {
    let out = run(env!("CARGO_BIN_EXE_corpus"), &["--threads", "2", "--loops", "1"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(!out.stdout.is_empty());
}

#[test]
fn drivers_reject_malformed_backend_values() {
    // A malformed `--backend` is the same hard error as a malformed
    // `--threads`: exit 2 with a usage line naming the flag, never a
    // silent fallback to the default backend. `corpus` and `optgap` both
    // funnel into `pool::backend_or_exit`.
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
        let out = run(env!("CARGO_BIN_EXE_optgap"), &["--backend", spec, "--loops", "1"]);
        assert_eq!(code(&out), 2, "--backend {spec}: {}", stderr(&out));
        assert!(stderr(&out).contains("prove"), "{}", stderr(&out));
    }
}

#[test]
fn corpus_rejects_malformed_pressure_limits() {
    // `--pressure-limit` funnels into `pool::pressure_or_exit`: malformed
    // or zero values are the same hard error as a malformed `--threads`,
    // never a silent "pressure off".
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
        &["--pressure-limit", "16", "--backend", "exact", "--loops", "1"],
    );
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("--backend ims"), "{}", stderr(&out));
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &["--pressure-limit", "16", "--trace", "/tmp/ims_press_trace", "--loops", "1"],
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
    assert!(text.contains("\"proved_lb\":"), "sat lines carry bounds: {text}");
}

#[test]
fn profile_report_renders_and_rejects_bad_input() {
    let dir = scratch("report");
    let snap = write_snapshot(&dir, "snap.json", &registry(1000, 10_000_000));

    let out = run(env!("CARGO_BIN_EXE_profile_report"), &[&snap]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains(phase::GRAPH_MINDIST_WORK), "{text}");
    assert!(text.contains("MinDist relaxations"), "phase descriptions render: {text}");
    assert!(text.contains("Wall-clock spans"), "{text}");

    let out = run(env!("CARGO_BIN_EXE_profile_report"), &[]);
    assert_eq!(code(&out), 2);

    let out = run(env!("CARGO_BIN_EXE_profile_report"), &["/nonexistent/snap.json"]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    let out = run(env!("CARGO_BIN_EXE_profile_report"), &[bad.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("malformed snapshot"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}
