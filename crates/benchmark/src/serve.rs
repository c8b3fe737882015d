//! The service workloads.
//!
//! An [`Engine`] with [`POOL_THREADS`] pool threads is driven closed-loop
//! by one client: it sends one batch of [`BATCH`] lines, waits for the
//! responses, then sends the next, so a request's latency is its batch's
//! `process_batch` time. The engine takes one batch at a time, so a
//! second client would only add lock hand-offs between the clients; on
//! two cores those cost about 12% of a `serve-replay` pass and widened
//! the spread between passes. Every pass starts from a cold cache.

use std::collections::HashMap;
use std::time::Instant;

use ims_core::BackendSpec;
use ims_serve::json::{self, Value};
use ims_serve::{key_request, parse_request, Engine};
use ims_stats::Histogram;

use crate::load::{serve_load, StreamRequest};
use crate::span::{self, Recorder};
use crate::{fail, EndToEnd, Layers, RunConfig, RunResult, TraceSummary, SETUPS};

/// A service workload.
#[derive(Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Backend every request names.
    pub backend: &'static str,
    /// Generated requests per round.
    pub base: usize,
    /// Rounds per pass; each round sends every request once, renumbered
    /// (see [`serve_load`]).
    pub rounds: usize,
    /// `base` and `rounds` with `--quick`.
    pub quick: (usize, usize),
    /// Generated requests (the first ones, at most a quarter of a round)
    /// sent through a throwaway engine in each set-up.
    pub warmup: usize,
}

/// `serve-replay`: read-heavy, about 94.5% cache hits.
pub const REPLAY: ServeSpec = ServeSpec {
    name: "serve-replay",
    backend: "ims",
    base: 1327,
    rounds: 16,
    quick: (48, 3),
    warmup: 64,
};

/// `serve-portfolio`: write-heavy, every distinct request is a miss
/// scheduled by IMS and the CDCL prover.
pub const PORTFOLIO: ServeSpec = ServeSpec {
    name: "serve-portfolio",
    backend: "portfolio(ims,sat)",
    base: 1327,
    rounds: 1,
    quick: (24, 1),
    warmup: 28,
};

/// Engine pool threads.
pub const POOL_THREADS: usize = 2;
/// Lines per batch.
pub const BATCH: usize = 2;

/// What one pass leaves behind: per-batch latency and response bytes,
/// and the engine's tallies.
struct Pass {
    batches: Vec<(u64, Vec<u8>)>,
    engine: Engine,
}

fn new_engine() -> Engine {
    let mut e = Engine::new(POOL_THREADS);
    e.enable_latency();
    e
}

/// Runs one pass of `batches` through a cold engine, one batch at a
/// time.
fn run_pass(batches: &[Vec<String>], rec: &mut Recorder) -> Pass {
    let mut engine = new_engine();
    let mut out = Vec::with_capacity(batches.len());
    for (b, lines) in batches.iter().enumerate() {
        let mut bytes = Vec::new();
        let start = Instant::now();
        engine
            .process_batch(lines, &mut bytes)
            .expect("writing to memory cannot fail");
        let ns = rec.record("serve.batch", b as u32, None, start, Instant::now());
        out.push((ns, bytes));
    }
    Pass {
        batches: out,
        engine,
    }
}

/// One response's checked content.
struct Answer {
    ii: i64,
    mii: i64,
    length: i64,
}

/// Checks one response line against its request: same id, success,
/// II ≥ MII, one time per operation, every edge satisfied.
fn check(resp: &str, req: &StreamRequest) -> Result<Answer, String> {
    let v = json::parse(resp).map_err(|e| format!("unparsable response: {e}"))?;
    let r = &req.request;
    if v.get("id").and_then(Value::as_str) != Some(r.id.as_str()) {
        return Err("response id does not match".into());
    }
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = v.get("error").and_then(Value::as_str).unwrap_or("");
        return Err(format!("ok:false: {err}"));
    }
    let int = |k: &str| {
        v.get(k)
            .and_then(Value::as_i64)
            .ok_or(format!("missing {k}"))
    };
    let (ii, mii, length) = (int("ii")?, int("mii")?, int("length")?);
    if ii < mii {
        return Err(format!("II {ii} below MII {mii}"));
    }
    let times: Vec<i64> = v
        .get("times")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_i64).collect())
        .unwrap_or_default();
    if times.len() != r.ops.len() {
        return Err(format!(
            "{} times for {} operations",
            times.len(),
            r.ops.len()
        ));
    }
    for e in &r.edges {
        let gap = times[e.to as usize] - times[e.from as usize];
        if gap < e.delay - ii * e.distance as i64 {
            return Err(format!("edge {}->{} violated", e.from, e.to));
        }
    }
    Ok(Answer { ii, mii, length })
}

/// Runs one service workload.
///
/// # Errors
///
/// The peak resident memory cannot be read.
pub fn measure(spec: &ServeSpec, cfg: &RunConfig) -> Result<RunResult, String> {
    let backend: BackendSpec = spec.backend.parse().expect("workload backends parse");
    let (base, rounds) = if cfg.quick {
        spec.quick
    } else {
        (spec.base, spec.rounds)
    };
    let stream = serve_load(cfg.seed, base, rounds, &backend);
    let batches: Vec<Vec<String>> = stream
        .chunks(BATCH)
        .map(|c| c.iter().map(|r| r.line.clone()).collect())
        .collect();
    // The first round keeps the generated order, so every seed warms up
    // on the same requests.
    let warmup = &batches[..spec.warmup.min(base / 4) / BATCH];

    let mut setups_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut e = new_engine();
        for lines in warmup {
            e.process_batch(lines, &mut std::io::sink())
                .expect("a sink cannot fail");
        }
        setups_s.push(t0.elapsed().as_secs_f64());
    }

    let mut rec = Recorder::new(cfg.trace);
    let mut pass_unit_ns = Vec::new();
    let mut sched = Histogram::new();
    let (mut passes, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let mut failures = Vec::new();
    let (mut hits, mut misses, mut engine_failed) = (0u64, 0u64, 0u64);
    let (mut ii_sum, mut mii_sum) = (0u64, 0u64);
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let pass = run_pass(&batches, &mut rec);
        passes += 1;
        if passes == 1 {
            peak_rss_mb = crate::peak_rss_mb()?;
        }
        pass_unit_ns.push(pass.batches.iter().map(|(ns, _)| *ns).collect::<Vec<u64>>());
        hits += pass.engine.cache.hits;
        misses += pass.engine.cache.misses;
        engine_failed += pass.engine.failed;
        if let Some(h) = pass.engine.latency_of(&backend.to_string()) {
            sched.merge(h);
        }

        // Checking is not timed.
        let mut first: HashMap<usize, (i64, i64)> = HashMap::new();
        for (b, (_, bytes)) in pass.batches.iter().enumerate() {
            let reqs = &stream[b * BATCH..(b * BATCH + BATCH).min(stream.len())];
            let text = String::from_utf8_lossy(bytes);
            let lines: Vec<&str> = text.lines().collect();
            for (i, req) in reqs.iter().enumerate() {
                attempted += 1;
                let answer = match lines.get(i) {
                    Some(resp) if lines.len() == reqs.len() => check(resp, req),
                    _ => Err(format!(
                        "{} responses for {} requests",
                        lines.len(),
                        reqs.len()
                    )),
                };
                match answer {
                    Ok(a) => {
                        ii_sum += a.ii as u64;
                        mii_sum += a.mii as u64;
                        let seen = *first.entry(req.origin).or_insert((a.ii, a.length));
                        if seen != (a.ii, a.length) {
                            let what = format!(
                                "request {}: II/length {}/{} differ from the original's {}/{}",
                                req.request.id, a.ii, a.length, seen.0, seen.1
                            );
                            fail(&mut failed, &mut failures, what);
                        }
                    }
                    Err(e) => fail(
                        &mut failed,
                        &mut failures,
                        format!("request {}: {e}", req.request.id),
                    ),
                }
            }
        }
        if passes >= crate::MIN_PASSES && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    // Parse and canonicalization happen inside the engine; time them
    // again here, once, on the same lines.
    let mut once = Recorder::new(cfg.trace);
    for (i, r) in stream.iter().enumerate() {
        let item = i as u32;
        let req = once.time("serve.parse", item, None, || parse_request(&r.line));
        let req = req.expect("generated lines parse");
        once.time("serve.canon", item, None, || key_request(&req));
    }

    let per_pass = |x: u64| x as f64 / passes as f64;
    let layers = Layers {
        parse_ms: once.busy_ns("serve.parse") as f64 / 1e6,
        canon_ms: once.busy_ns("serve.canon") as f64 / 1e6,
        serve_sched_ms: sched.sum() as f64 / passes as f64 / 1e6,
        serve_sched_p99_us: sched.p99().unwrap_or(0) as f64 / 1e3,
        batch_ms: per_pass(rec.busy_ns("serve.batch")) / 1e6,
        hits: per_pass(hits),
        misses: per_pass(misses),
        serve_failed: per_pass(engine_failed),
        ..Layers::default()
    };
    let tail_percentile = crate::stats::tail_percentile(stream.len());
    let end_to_end = EndToEnd {
        unit_items: batches.iter().map(|b| b.len() as u32).collect(),
        pass_unit_ns,
        tail_percentile,
        attempted,
        failed,
        ii_over_mii: crate::ratio(ii_sum as f64, mii_sum as f64),
        code: None,
        setups_s,
        peak_rss_mb,
    };
    let trace = cfg.trace.then(|| {
        let (batch, once) = (rec.take_spans(), once.take_spans());
        let mut layers = span::self_times(&batch, passes);
        layers.extend(span::self_times(&once, 1));
        // The re-timed spans have no parents, so appending keeps every
        // parent index valid.
        TraceSummary {
            layers,
            coverage: 0.0,
            spans: [batch, once].concat(),
        }
    });
    Ok(RunResult {
        workload: spec.name,
        seed: cfg.seed,
        passes,
        attempted,
        failed,
        failures,
        tail_percentile,
        end_to_end: end_to_end.metrics(),
        per_layer: layers.metrics(),
        trace,
    })
}
