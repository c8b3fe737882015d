//! Exit-code and message contracts of the drivers: `trace_report` on
//! missing or malformed trace directories, `profile_report` rendering
//! and its rejection of malformed snapshots, and the strict argument
//! parsing every driver shares (a bad flag value or an undeclared
//! argument exits 2 with the binary's own usage line).

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

/// A small registry with two counters, a histogram and a wall span.
fn registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.add(phase::GRAPH_MINDIST_WORK, 1000);
    reg.add(phase::SCHED_FINDSLOT_ITERS, 900);
    reg.observe(phase::HIST_SLOT_SEARCH, 3);
    reg.record_wall(phase::WALL_SCHED, 10_000_000);
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
fn trace_report_takes_its_directory_anywhere_among_the_flags() {
    let dir = scratch("report_order");
    let trace = dir.to_str().unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &["--loops", "1", "--threads", "2", "--trace", trace],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let report = env!("CARGO_BIN_EXE_trace_report");
    let last = run(report, &["--top", "2", trace]);
    let first = run(report, &[trace, "--top", "2"]);
    assert_eq!(code(&last), 0, "{}", stderr(&last));
    assert_eq!(stdout(&last), stdout(&first));
    assert!(stdout(&last).contains("hardest loops"), "{}", stdout(&last));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_report_does_not_rank_prover_traces_by_steps_they_lack() {
    let dir = scratch("prover_report");
    let all = dir.join("all");
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &[
            "--backend",
            "sat",
            "--loops",
            "1",
            "--threads",
            "2",
            "--trace",
            all.to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let few = dir.join("few");
    std::fs::create_dir_all(&few).unwrap();
    for name in &trace_names(&all)[..3] {
        std::fs::copy(all.join(name), few.join(name)).unwrap();
    }
    let out = run(env!("CARGO_BIN_EXE_trace_report"), &[few.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("trace report — 3 loops"), "{text}");
    assert!(
        text.contains("no trace records a scheduling step"),
        "{text}"
    );
    assert!(!text.contains("hardest loops"), "{text}");
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

    // The report tool is just as strict, with its own usage line: no
    // silent `--top 10`.
    let trace_report = env!("CARGO_BIN_EXE_trace_report");
    for (args, flag) in [
        (&["/tmp", "--top", "abc"][..], "--top"),
        (&["/tmp", "--top"][..], "--top"),
    ] {
        assert_usage_error(trace_report, args, flag);
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

    // Well-formed, but only the iterative backend tracks pressure.
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
}

/// Reads the names of the traces `dir` holds.
fn trace_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn corpus_pressure_lines_carry_the_verdict() {
    // A pressure run can trace too: one trace per loop.
    let dir = scratch("press_trace");
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &[
            "--pressure-limit",
            "16",
            "--loops",
            "2",
            "--threads",
            "1",
            "--trace",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"press_limit\":16"), "{text}");
    assert!(text.contains("\"press_ok\":"), "{text}");
    assert!(text.contains("\"max_live\":"), "{text}");
    assert!(text.contains("\"press_fit\":"), "aggregate line: {text}");
    assert_eq!(trace_names(&dir).len(), 31, "the 31 hand kernels");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_accepts_the_sat_backend() {
    // The provers trace like the iterative backend: one trace per loop.
    let dir = scratch("sat_trace");
    let out = run(
        env!("CARGO_BIN_EXE_corpus"),
        &[
            "--backend",
            "sat",
            "--loops",
            "1",
            "--threads",
            "1",
            "--trace",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("\"proved_lb\":"),
        "sat lines carry bounds: {text}"
    );
    let names = trace_names(&dir);
    assert_eq!(names.len(), 31, "the 31 hand kernels");
    assert_eq!(names[0], "loop_00000.jsonl");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drivers_reject_undeclared_arguments() {
    // An argument the usage line does not declare is a usage error, not a
    // silent default: a misspelt `--thread`, a stray word, a flag of
    // another driver and `--wall`, a switch this harness no longer has.
    // Every value here is rejected before any loop is scheduled.
    let corpus = env!("CARGO_BIN_EXE_corpus");
    let optgap = env!("CARGO_BIN_EXE_optgap");
    for (bin, args, named) in [
        (
            corpus,
            &["--loops", "2", "--thread", "4", "--bogus", "1"][..],
            "--thread",
        ),
        (corpus, &["--wall"][..], "--wall"),
        (corpus, &["--loops", "2", "extra"][..], "extra"),
        (optgap, &["--budget=2"][..], "--budget"),
        (optgap, &["--wall"][..], "--wall"),
    ] {
        assert_usage_error(bin, args, named);
    }
    for bin in [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_explain"),
        env!("CARGO_BIN_EXE_figure1"),
        env!("CARGO_BIN_EXE_figure6"),
        env!("CARGO_BIN_EXE_profile_report"),
        env!("CARGO_BIN_EXE_registers"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_unroll_comparison"),
    ] {
        assert_usage_error(bin, &["--bogus"], "--bogus");
    }
    let trace_report = env!("CARGO_BIN_EXE_trace_report");
    assert_usage_error(trace_report, &["/tmp", "--bogus", "1"], "--bogus");
    assert_usage_error(trace_report, &["/tmp", "/tmp"], "/tmp");
}

#[test]
fn profile_report_renders_and_rejects_bad_input() {
    let dir = scratch("report");
    let snap = write_snapshot(&dir, "snap.json", &registry());

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
