//! End-to-end contract of the `scheduled` binary: replaying a request
//! file twice yields byte-identical response halves with the second pass
//! fully cache-served, the response stream is byte-identical across
//! `--threads` values, failures come back as structured responses, and a
//! malformed `--threads` or an undeclared argument is a hard usage error.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use ims_prof::phase;
use ims_prof::snapshot::Snapshot;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ims_serve_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `scheduled` with `args`, feeding `input` on stdin.
fn scheduled(args: &[&str], input: impl AsRef<[u8]>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scheduled"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scheduled");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_ref())
        .unwrap();
    child.wait_with_output().expect("scheduled runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

/// A deterministic request corpus: the first `n` seeded corpus loops.
fn requests(n: usize) -> String {
    let out = scheduled(&["--gen-requests", &n.to_string(), "--seed", "7"], "");
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), n);
    text
}

fn counters(profile_path: &PathBuf) -> std::collections::BTreeMap<String, u64> {
    let text = std::fs::read_to_string(profile_path).expect("profile written");
    Snapshot::parse(&text).expect("profile parses").counters
}

#[test]
fn replay_is_byte_identical_and_second_pass_fully_cached() {
    let dir = scratch("replay");
    let reqs = requests(8);
    let doubled = format!("{reqs}{reqs}");
    let profile = dir.join("replay.json");

    let out = scheduled(
        &["--threads", "1", "--profile", profile.to_str().unwrap()],
        &doubled,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 16, "one response per request line");
    // The two passes over the same file answer byte-identically: a cache
    // hit must be indistinguishable from a fresh schedule.
    assert_eq!(lines[..8], lines[8..], "cold and warm halves differ");
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    let c = counters(&profile);
    let hits = c[phase::SERVE_CACHE_HITS];
    let misses = c[phase::SERVE_CACHE_MISSES];
    assert_eq!(c[phase::SERVE_REQUESTS], 16);
    assert_eq!(hits + misses, 16);
    assert!(
        misses <= 8,
        "at most one miss per distinct problem: {misses}"
    );
    assert!(
        hits >= 8,
        "the whole second pass must be cache-served: {hits}"
    );
    assert_eq!(c[phase::SERVE_FAILED], 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    let dir = scratch("threads");
    let reqs = requests(10);
    let run = |threads: &str, profile: &PathBuf| {
        let out = scheduled(
            &["--threads", threads, "--profile", profile.to_str().unwrap()],
            &reqs,
        );
        assert!(out.status.success());
        stdout(&out)
    };
    let p1 = dir.join("t1.json");
    let p4 = dir.join("t4.json");
    let serial = run("1", &p1);
    let parallel = run("4", &p4);
    assert_eq!(serial, parallel, "--threads must not change response bytes");
    // The cache tallies are part of the determinism contract too.
    assert_eq!(counters(&p1), counters(&p4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn requests_file_flag_matches_stdin() {
    let dir = scratch("reqfile");
    let reqs = requests(5);
    let path = dir.join("reqs.jsonl");
    std::fs::write(&path, &reqs).unwrap();
    let from_stdin = scheduled(&["--threads", "2"], &reqs);
    let from_file = scheduled(
        &["--threads", "2", "--requests", path.to_str().unwrap()],
        "",
    );
    assert!(from_file.status.success());
    assert_eq!(stdout(&from_stdin), stdout(&from_file));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failures_are_structured_responses_not_crashes() {
    // A parse error, a contained constructor panic (wide0), a clean
    // scheduling failure (max_ii below MII), two documents nested far past
    // the parser's depth bound, and a line that is not UTF-8 each answer
    // in place, between good requests.
    let good = "{\"id\":\"ok\",\"machine\":\"minimal\",\"ops\":[\"add\"]}\n";
    let input = [
        good.as_bytes(),
        b"not json\n",
        b"{\"id\":\"w\",\"machine\":\"wide0\",\"ops\":[\"add\"]}\n",
        b"{\"id\":\"cap\",\"machine\":\"minimal\",\"max_ii\":1,\"ops\":[\"add\",\"add\"],\"edges\":[[0,1,3,0,\"flow\",false],[1,0,3,1,\"flow\",false]]}\n",
        "[".repeat(200_000).as_bytes(),
        b"\n",
        "{\"a\":".repeat(200_000).as_bytes(),
        b"\n{\"id\":\"b\xff\",\"ops\":[\"add\"]}\n",
        good.as_bytes(),
    ]
    .concat();
    let out = scheduled(&["--threads", "2"], input);
    assert!(out.status.success(), "failures must not kill the service");
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "one response per request line:\n{text}");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\":false") && lines[1].contains("invalid JSON"));
    assert!(
        lines[2].contains("\"ok\":false") && lines[2].contains("panicked"),
        "{}",
        lines[2]
    );
    assert!(lines[3].contains("\"ok\":false") && lines[3].contains("schedule failed"));
    for deep in &lines[4..6] {
        assert!(
            deep.contains("\"ok\":false") && deep.contains("nesting deeper than 64 levels"),
            "{deep}"
        );
    }
    assert!(
        lines[6].contains("\"ok\":false") && lines[6].contains("not UTF-8"),
        "{}",
        lines[6]
    );
    assert!(lines[7].contains("\"ok\":true"), "{}", lines[7]);
}

#[test]
fn oversized_input_is_refused_without_killing_the_service() {
    // A line past the 1 MiB cap, and a machine so wide that building it
    // would abort the process on a 40 GB allocation, each get an error in
    // place between good requests.
    let good = "{\"id\":\"ok\",\"machine\":\"minimal\",\"ops\":[\"add\"]}\n";
    let long = format!(
        "{{\"id\":\"long\",\"ops\":[\"add\"],\"pad\":\"{}\"}}\n",
        "x".repeat(2 << 20)
    );
    let wide = "{\"id\":\"w\",\"machine\":\"wide10000000000\",\"ops\":[\"add\"]}\n";
    let out = scheduled(
        &["--threads", "2"],
        [good, &long, good, wide, good].concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one response per request line:\n{text}");
    for ok in [lines[0], lines[2], lines[4]] {
        assert!(ok.contains("\"ok\":true"), "{ok}");
    }
    assert_eq!(
        lines[1],
        r#"{"id":"","ok":false,"error":"invalid request: line longer than 1048576 bytes"}"#
    );
    assert_eq!(
        lines[3],
        r#"{"id":"w","ok":false,"error":"invalid request: unknown machine \"wide10000000000\""}"#
    );
}

#[test]
fn an_mii_past_the_ceiling_is_refused_without_killing_the_service() {
    // One long dependence gives a RecMII near 10^9, whose MRT would need
    // 16 GB: every backend refuses it before allocating, in place between
    // good requests.
    let good = "{\"id\":\"ok\",\"machine\":\"minimal\",\"ops\":[\"add\"]}\n";
    let big = |backend: &str| {
        format!(
            "{{\"id\":\"big\",\"machine\":\"minimal\",\"backend\":\"{backend}\",\"ops\":[\"add\",\"add\"],\
             \"edges\":[[0,1,1000000000,0,\"flow\",false],[1,0,1,1,\"flow\",false]]}}\n"
        )
    };
    let bigs = ["ims", "exact", "sat"].map(big);
    let out = scheduled(
        &["--threads", "1"],
        [good, &bigs[0], good, &bigs[1], &bigs[2], good].concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request line:\n{text}");
    for ok in [lines[0], lines[2], lines[5]] {
        assert!(ok.contains("\"ok\":true"), "{ok}");
    }
    for refused in [lines[1], lines[3], lines[4]] {
        assert!(
            refused.contains("\"ok\":false")
                && refused.contains("II cap 65536 is below the MII 1000000001"),
            "{refused}"
        );
    }
}

#[test]
fn a_same_iteration_cycle_is_refused_before_any_scheduling() {
    // Distance-0 dependences in a cycle: two adds, a zero-delay self-edge,
    // and a unit-delay self-edge under the ims backend, a portfolio and a
    // pressure limit. Each gets one structured error, in place between
    // good requests, and no worker panics.
    let good = "{\"id\":\"ok\",\"machine\":\"minimal\",\"ops\":[\"add\"]}\n";
    let cycles = [
        r#"{"id":"c0","machine":"cydra","ops":["add","add"],"edges":[[0,1,0,0,"flow",false],[1,0,0,0,"flow",false]]}"#,
        r#"{"id":"c3","machine":"cydra","ops":["add"],"edges":[[0,0,0,0,"flow",false]]}"#,
        r#"{"id":"z","machine":"minimal","ops":["add"],"edges":[[0,0,1,0,"flow",false]]}"#,
        r#"{"id":"zp","machine":"minimal","backend":"portfolio(ims,sat)","ops":["add"],"edges":[[0,0,1,0,"flow",false]]}"#,
        r#"{"id":"zr","machine":"cydra_rf16","pressure_limit":16,"ops":["add"],"edges":[[0,0,1,0,"flow",false]]}"#,
    ];
    let mut input = good.to_string();
    for c in cycles {
        input += &format!("{c}\n{good}");
    }
    let out = scheduled(&["--threads", "2"], input);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(
        !err.lines().any(|l| l.contains("panicked")),
        "a worker panicked:\n{err}"
    );
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 11, "one response per request line:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        if i % 2 == 0 {
            assert!(line.contains("\"ok\":true"), "{line}");
        } else {
            let id = cycles[i / 2].split('"').nth(3).unwrap();
            assert!(
                line.starts_with(&format!("{{\"id\":\"{id}\",\"ok\":false,\"key\":"))
                    && line.ends_with(
                        "\"error\":\"schedule failed: the distance-0 dependences form a cycle\"}"
                    ),
                "{line}"
            );
        }
    }
}

#[test]
fn malformed_threads_is_a_usage_error() {
    for args in [
        &["--threads", "zero"][..],
        &["--threads", "0"][..],
        &["--threads"][..],
    ] {
        let out = scheduled(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?} -> {err}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    // Every numeric flag is as strict as --threads: a bad value exits 2
    // with the usage line instead of falling back to the default.
    for args in [&["--batch", "x"][..], &["--batch=x"][..], &["--batch"][..]] {
        let out = scheduled(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--batch") && err.contains("usage:"),
            "{args:?} -> {err}"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn undeclared_arguments_are_usage_errors() {
    // An argument the usage line does not declare exits 2 with it, never
    // runs the defaults: here a misspelt `--seed`, a value given to the
    // `--latency` switch, and a stray word.
    for (args, named) in [
        (&["--gen-requests", "1", "--sed", "9"][..], "--sed"),
        (&["--latency=1"][..], "--latency"),
        (&["--threads", "1", "extra"][..], "extra"),
    ] {
        let out = scheduled(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(named) && err.contains("usage: scheduled"),
            "{args:?} -> {err}"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn gen_requests_is_reproducible_and_dedup_reports() {
    let a = requests(6);
    let b = requests(6);
    assert_eq!(a, b, "generation is a pure function of (seed, n)");

    let dir = scratch("dedup");
    let path = dir.join("corpus.jsonl");
    // Append a renumbered duplicate of a tiny problem plus its original.
    let extra = concat!(
        r#"{"id":"d1","ops":["load","add"],"edges":[[0,1,13,0,"flow",false]]}"#,
        "\n",
        r#"{"id":"d2","ops":["add","load"],"edges":[[1,0,13,0,"flow",false]]}"#,
        "\n"
    );
    std::fs::write(&path, format!("{a}{extra}")).unwrap();
    let out = scheduled(&["--dedup", path.to_str().unwrap()], "");
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("8 lines"), "{text}");
    assert!(text.contains("structural duplicate"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedup_skips_lines_the_service_refuses_unread() {
    // A line that is not UTF-8 and one past the 1 MiB cap, between good
    // lines: dedup counts only the good ones instead of failing.
    let dir = scratch("dedup_bytes");
    let path = dir.join("mixed.jsonl");
    let a = r#"{"id":"a","ops":["load","add"],"edges":[[0,1,13,0,"flow",false]]}"#;
    let b = r#"{"id":"b","ops":["add","load"],"edges":[[1,0,13,0,"flow",false]]}"#;
    let long = format!(
        r#"{{"id":"long","ops":["add"],"pad":"{}"}}"#,
        "x".repeat(2 << 20)
    );
    let input = [
        a.as_bytes(),
        b"\n{\"id\":\"b\xff\",\"ops\":[\"add\"]}\n",
        b.as_bytes(),
        b"\n",
        long.as_bytes(),
        b"\n",
        a.as_bytes(),
        b"\n",
    ]
    .concat();
    std::fs::write(&path, input).unwrap();
    let out = scheduled(&["--dedup", path.to_str().unwrap()], "");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        stdout(&out),
        "5 lines, 1 distinct canonical problems, 2 structural duplicates\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn socket_mode_serves_a_connection() {
    use std::io::Read;
    use std::os::unix::net::UnixStream;

    let dir = scratch("socket");
    let sock = dir.join("scheduled.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_scheduled"))
        .args([
            "--threads",
            "2",
            "--socket",
            sock.to_str().unwrap(),
            "--conns",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scheduled --socket");

    // Wait for the listener to come up.
    let mut stream = None;
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(&sock) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut stream = stream.expect("socket accepts within 2s");
    stream
        .write_all(b"{\"id\":\"s\",\"machine\":\"minimal\",\"ops\":[\"add\"]}\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(
        reply.contains("\"id\":\"s\"") && reply.contains("\"ok\":true"),
        "{reply}"
    );

    let status = child.wait().expect("exits after --conns 1");
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}
