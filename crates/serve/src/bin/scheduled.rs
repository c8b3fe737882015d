//! `scheduled` — the scheduling service daemon.
//!
//! Reads JSONL scheduling requests (stdin by default), answers each line
//! with a JSONL response, and serves repeated problems from a
//! content-addressed cache. Byte-deterministic: the same request stream
//! yields the same response bytes at any `--threads N`, cache hot or
//! cold.
//!
//! ```text
//! scheduled [--threads N] [--batch N] [--requests FILE] [--profile FILE]
//!           [--latency] [--socket PATH [--conns N]]
//! scheduled --gen-requests N [--seed S] [--backend SPEC]
//! scheduled --dedup FILE
//! ```
//!
//! * default: serve stdin → stdout until EOF.
//! * `--requests FILE`: serve the lines of FILE instead of stdin.
//! * `--socket PATH`: serve Unix-socket connections sequentially against
//!   one shared cache; `--conns N` exits after N connections (for tests).
//! * `--profile FILE`: write a `BENCH_*`-style snapshot with the
//!   `serve.*` counters on exit.
//! * `--latency`: collect per-backend scheduling-latency histograms,
//!   reported on `{"id":…,"stats":true}` probe responses. Off by
//!   default because wall-clock figures are non-deterministic; the rest
//!   of a stats response (request/hit/miss/failure/entry tallies over
//!   the strictly-preceding lines) is deterministic and always on.
//! * `--gen-requests N --seed S --backend SPEC`: print N request lines
//!   generated from the seeded benchmark corpus, routed to SPEC (`ims`,
//!   `exact`, `sat`, or `portfolio(a,b,...)`; default `ims`), then exit.
//! * `--dedup FILE`: canonicalize the request lines of FILE and report
//!   distinct-problem / structural-duplicate counts, then exit. FILE is
//!   read as the service reads a stream, so a line that is not UTF-8 or
//!   is over the line cap is skipped as unparsable.

use std::fs::File;
use std::io::{self, BufReader, Write};

use ims_prof::{snapshot, MetricsRegistry};
use ims_serve::{dedup_keys, gen_requests_backend, pool, read_line, serve_stream, Engine};

const USAGE: &str = "usage: scheduled [--threads N] [--batch N] [--requests FILE] [--profile FILE]
                 [--latency] [--socket PATH [--conns N]]
       scheduled --gen-requests N [--seed S] [--backend SPEC]
       scheduled --dedup FILE";

/// Reads the value of `--flag V` / `--flag=V` from `args`, exiting with
/// usage on a present-but-malformed value.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    pool::flag_or_exit(args, name, USAGE)
}

fn main() -> io::Result<()> {
    let args: Vec<String> = std::env::args().collect();

    if let Some(n) = flag::<usize>(&args, "--gen-requests") {
        let seed = flag::<u64>(&args, "--seed").unwrap_or(7);
        let backend: ims_core::BackendSpec = flag(&args, "--backend").unwrap_or_default();
        let stdout = io::stdout();
        let mut out = stdout.lock();
        for line in gen_requests_backend(seed, n, &backend) {
            writeln!(out, "{line}")?;
        }
        return Ok(());
    }

    if let Some(path) = flag::<String>(&args, "--dedup") {
        let mut reader = BufReader::new(File::open(&path)?);
        let (mut lines, mut line) = (Vec::new(), Vec::new());
        while read_line(&mut reader, &mut line)? {
            lines.push(std::mem::take(&mut line));
        }
        let (keys, dups) = dedup_keys(&lines);
        println!(
            "{} lines, {} distinct canonical problems, {} structural duplicates",
            lines.len(),
            keys.len(),
            dups
        );
        return Ok(());
    }

    // --threads is strict: a malformed value exits 2 with a usage line,
    // never a silent default.
    let threads = pool::threads_or_exit(&args, USAGE);
    let batch = flag::<usize>(&args, "--batch").unwrap_or(256);
    let profile = flag::<String>(&args, "--profile");
    let mut engine = Engine::new(threads);
    if args.iter().any(|a| a == "--latency") {
        engine.enable_latency();
    }

    if let Some(socket_path) = flag::<String>(&args, "--socket") {
        #[cfg(unix)]
        {
            let conns = flag::<usize>(&args, "--conns");
            ims_serve::serve_socket(
                &mut engine,
                std::path::Path::new(&socket_path),
                batch,
                conns,
            )?;
        }
        #[cfg(not(unix))]
        {
            let _ = socket_path;
            eprintln!("error: --socket requires a Unix platform");
            std::process::exit(2);
        }
    } else if let Some(requests_path) = flag::<String>(&args, "--requests") {
        let reader = BufReader::new(File::open(&requests_path)?);
        let stdout = io::stdout();
        serve_stream(&mut engine, reader, stdout.lock(), batch)?;
    } else {
        let stdin = io::stdin();
        let stdout = io::stdout();
        serve_stream(&mut engine, stdin.lock(), stdout.lock(), batch)?;
    }

    if let Some(profile_path) = profile {
        let mut reg = MetricsRegistry::new();
        engine.export_metrics(&mut reg);
        std::fs::write(&profile_path, snapshot::render_snapshot("serve", &reg))?;
    }
    eprintln!("{}", engine.summary());
    Ok(())
}
