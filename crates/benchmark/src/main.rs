//! `benchmark`: runs, traces and compares the workloads of `ims-benchmark`.
//!
//! ```text
//! benchmark run [--seed S] [--reps N] [--seconds T] [--out FILE] [--trace DIR] [--quick]
//! benchmark measure --workload W [--seed S] [--seconds T] [--trace 0|1]
//!                   [--quick] [--detail] [--trace-dir DIR] [--bench FILE]
//! benchmark compare A.json B.json [--bench FILE]
//! ```
//!
//! `run` measures every workload `--reps` times, each (workload, rep)
//! pair in its own child process, round-robin, and prints every metric's
//! median and quartiles; `--trace DIR` adds one traced run per workload
//! and writes its spans to `DIR/<workload>.jsonl`. `measure` is one run
//! of one workload; its last output line is a JSON object with
//! `correct`, `attempted`, `failed` and the `metrics` that `--bench`
//! (default `BENCHMARK.json`) lists under `end_to_end` (`--trace 0`) or
//! `per_layer` (`--trace 1`). `compare` judges result file B against A
//! with the bounds in `--bench` and exits 1 on any regression or any
//! rise in `failed_share`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

use ims_benchmark::load::DEFAULT_SEED;
use ims_benchmark::results::{self, Traced, WorkloadResult};
use ims_benchmark::{measure, metrics_json, span, RunConfig, WORKLOADS};
use ims_serve::json::{self, Value};

const USAGE: &str = "usage: benchmark run [--seed S] [--reps N] [--seconds T] [--out FILE] [--trace DIR] [--quick]
       benchmark measure --workload W [--seed S] [--seconds T] [--trace 0|1] [--quick] [--detail] [--trace-dir DIR] [--bench FILE]
       benchmark compare A.json B.json [--bench FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("measure") => cmd_measure(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(Error::Usage("expected run, measure or compare".into())),
    };
    match result {
        Ok(code) => exit(code),
        Err(Error::Usage(msg)) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            exit(2);
        }
        Err(Error::Failed(msg)) => {
            eprintln!("benchmark: {msg}");
            exit(1);
        }
    }
}

enum Error {
    Usage(String),
    Failed(String),
}

fn failed(msg: impl Into<String>) -> Error {
    Error::Failed(msg.into())
}

/// Parsed command-line flags: `--name value` pairs, `--name` switches,
/// and positional arguments.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Self, Error> {
        let mut f = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| Error::Usage(format!("{a} needs a value")))?;
                f.values.insert(a.clone(), v.clone());
            } else if switches.contains(&a.as_str()) {
                f.switches.push(a.clone());
            } else if a.starts_with("--") {
                return Err(Error::Usage(format!("unknown flag {a}")));
            } else {
                f.positional.push(a.clone());
            }
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Error> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::Usage(format!("{name}: bad value {v:?}"))),
        }
    }

    fn seed(&self) -> Result<u64, Error> {
        match self.get("--seed") {
            None => Ok(DEFAULT_SEED),
            Some(v) => match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| Error::Usage(format!("--seed: bad value {v:?}"))),
        }
    }
}

fn cmd_measure(args: &[String]) -> Result<i32, Error> {
    let f = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-dir",
            "--bench",
        ],
        &["--quick", "--detail"],
    )?;
    if !f.positional.is_empty() {
        return Err(Error::Usage(format!(
            "unexpected argument {}",
            f.positional[0]
        )));
    }
    let workload = f
        .get("--workload")
        .ok_or_else(|| Error::Usage("--workload is required".into()))?;
    let trace = match f.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return Err(Error::Usage(format!("--trace: expected 0 or 1, got {v:?}"))),
    };
    let cfg = RunConfig {
        seed: f.seed()?,
        seconds: f.num("--seconds", 3.0)?,
        trace: trace || f.get("--trace-dir").is_some(),
        quick: f.has("--quick"),
    };
    // Read the metric list before measuring, so a missing description
    // fails fast.
    let wanted = if f.has("--detail") {
        None
    } else {
        let bench = f.get("--bench").unwrap_or("BENCHMARK.json");
        let text = std::fs::read_to_string(bench).map_err(|e| failed(format!("{bench}: {e}")))?;
        let key = if trace { "per_layer" } else { "end_to_end" };
        Some(results::metric_names(&text, key).map_err(|e| failed(format!("{bench}: {e}")))?)
    };

    let r = measure(workload, &cfg).map_err(failed)?;
    if let (Some(dir), Some(t)) = (f.get("--trace-dir"), &r.trace) {
        std::fs::create_dir_all(dir).map_err(|e| failed(format!("{dir}: {e}")))?;
        let path = Path::new(dir).join(format!("{workload}.jsonl"));
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| failed(format!("{}: {e}", path.display())))?,
        );
        span::write_jsonl(&t.spans, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| failed(format!("{}: {e}", path.display())))?;
    }
    let Some(wanted) = wanted else {
        println!("{}", r.detail_json());
        return Ok(0);
    };
    let all: Vec<_> = r.end_to_end.iter().chain(&r.per_layer).collect();
    let mut picked = Vec::with_capacity(wanted.len());
    for name in &wanted {
        let m = all
            .iter()
            .find(|m| m.name == name.as_str())
            .ok_or_else(|| failed(format!("{workload} does not report {name}")))?;
        picked.push(*m);
    }
    for failure in &r.failures {
        eprintln!("{}: {failure}", r.workload);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(&picked)
    );
    Ok(0)
}

/// Runs one child `measure` and returns its detail line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace_dir: Option<&str>,
) -> Result<Value, Error> {
    let exe =
        std::env::current_exe().map_err(|e| failed(format!("cannot find own executable: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "measure",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ])
    .args(["--seconds", &seconds.to_string(), "--detail"]);
    if quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = trace_dir {
        cmd.args(["--trace-dir", dir]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| failed(format!("cannot start {workload}: {e}")))?;
    if !out.status.success() {
        return Err(failed(format!("{workload} run failed: {}", out.status)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| failed(format!("{workload}: bad result line: {e}")))
}

fn cmd_run(args: &[String]) -> Result<i32, Error> {
    let f = Flags::parse(
        args,
        &["--seed", "--reps", "--seconds", "--out", "--trace"],
        &["--quick"],
    )?;
    if !f.positional.is_empty() {
        return Err(Error::Usage(format!(
            "unexpected argument {}",
            f.positional[0]
        )));
    }
    let seed = f.seed()?;
    let reps: usize = f.num("--reps", 3)?;
    let seconds: f64 = f.num("--seconds", 3.0)?;
    let quick = f.has("--quick");
    if reps == 0 {
        return Err(Error::Usage("--reps must be at least 1".into()));
    }
    let out = PathBuf::from(f.get("--out").unwrap_or("target/benchmark/result.json"));

    // The first child after a build starts cold (its binary and the page
    // cache); one small throwaway run keeps that out of the first rep.
    child(WORKLOADS[0], seed, 0.0, true, None)?;
    // Round-robin, so a burst of noise spreads across workloads.
    let mut results: BTreeMap<String, WorkloadResult> = BTreeMap::new();
    for rep in 0..reps {
        for w in WORKLOADS {
            eprintln!("benchmark: {w} rep {}/{reps}", rep + 1);
            let detail = child(w, seed, seconds, quick, None)?;
            results
                .entry(w.to_string())
                .or_default()
                .add_rep(&detail)
                .map_err(failed)?;
        }
    }
    let mut traced = BTreeMap::new();
    if let Some(dir) = f.get("--trace") {
        for w in WORKLOADS {
            eprintln!("benchmark: {w} traced");
            let detail = child(w, seed, seconds, quick, Some(dir))?;
            let untraced = results[w].end_to_end["items_per_s"].median();
            traced.insert(w.to_string(), Traced::from_detail(&detail, untraced));
        }
    }

    for w in WORKLOADS {
        print_workload(w, &results[w], traced.get(w), reps, seconds);
    }
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let header = [
        ("commit", format!("\"{commit}\"")),
        ("seed", seed.to_string()),
        ("reps", reps.to_string()),
        ("seconds", seconds.to_string()),
        ("quick", quick.to_string()),
    ];
    let text = results::render(&header, &results, &traced);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| failed(format!("{}: {e}", dir.display())))?;
    }
    std::fs::write(&out, text).map_err(|e| failed(format!("{}: {e}", out.display())))?;
    println!("result written to {}", out.display());
    Ok(0)
}

fn print_workload(
    name: &str,
    r: &WorkloadResult,
    traced: Option<&Traced>,
    reps: usize,
    seconds: f64,
) {
    let attempted: u64 = r.attempted.iter().sum();
    let failed: u64 = r.failed.iter().sum();
    println!(
        "\n== {name}: {reps} reps of {seconds} s, {failed} failed of {attempted}; tail = p{} ==",
        r.tail_percentile
    );
    for fail in &r.failures {
        println!("  failed: {fail}");
    }
    println!(
        "  {:<24} {:<11} {:>14} {:>14} {:>14}",
        "metric", "unit", "median", "q1", "q3"
    );
    for (kind, metrics) in [
        ("end-to-end", &r.end_to_end),
        ("per layer, per pass", &r.per_layer),
    ] {
        println!("  -- {kind}");
        for (metric, s) in metrics {
            let (q1, q3) = ims_benchmark::stats::quartiles(&s.values);
            println!(
                "  {metric:<24} {:<11} {:>14.4} {q1:>14.4} {q3:>14.4}",
                s.unit,
                s.median()
            );
        }
    }
    let Some(t) = traced else {
        return;
    };
    println!(
        "  -- traced run: tracing overhead {:.1}% of items_per_s",
        100.0 * t.overhead
    );
    if t.coverage > 0.0 {
        println!(
            "     layer spans cover {:.1}% of each loop's traced time",
            100.0 * t.coverage
        );
    }
    println!(
        "  {:<24} {:>14} {:>14}",
        "span", "self ms/pass", "calls/pass"
    );
    for (layer, st) in &t.layers {
        println!("  {layer:<24} {:>14.3} {:>14.1}", st.self_ms, st.calls);
    }
}

fn cmd_compare(args: &[String]) -> Result<i32, Error> {
    let f = Flags::parse(args, &["--bench"], &[])?;
    let [a, b] = f.positional.as_slice() else {
        return Err(Error::Usage("compare needs two result files".into()));
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| failed(format!("{p}: {e}")));
    let bench = f.get("--bench").unwrap_or("BENCHMARK.json");
    let bounds =
        results::read_bounds(&read(bench)?).map_err(|e| failed(format!("{bench}: {e}")))?;
    let ra = results::read(&read(a)?).map_err(|e| failed(format!("{a}: {e}")))?;
    let rb = results::read(&read(b)?).map_err(|e| failed(format!("{b}: {e}")))?;
    let c = results::compare(&ra, &rb, &bounds);
    for row in &c.rows {
        println!("{row}");
    }
    Ok(if c.regression { 1 } else { 0 })
}
