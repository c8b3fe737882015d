//! The batch engine: JSONL requests in, JSONL responses out, through the
//! content-addressed cache and the deterministic worker pool.
//!
//! One batch is processed in three deterministic stages:
//!
//! 1. **Parse + canonicalize** (serial; graphs are tiny): every line
//!    becomes a [`Request`] with its [`Keyed`] canonical form, or an
//!    error response.
//! 2. **Schedule the misses** (parallel): the distinct cache keys not yet
//!    present, in first-appearance order, fan out over
//!    [`pool::try_par_map`]. A worker panic is contained per job and
//!    cached as a failure entry — the service never dies on one bad
//!    request, and the panic text replays from cache exactly like a
//!    clean error.
//! 3. **Respond** (serial, input order): every response is rendered from
//!    the cache entry through the request's own canonicalization
//!    permutation.
//!
//! Stage 2 is the only parallel stage and its results are keyed by
//! content, not by arrival, so the byte stream and all counters are
//! identical for any `--threads N`, any batch size, and cache hot or
//! cold — the repo-wide determinism contract extended to the service
//! (`DESIGN.md` §5e).
//!
//! A `{"id":…,"stats":true}` line anywhere in the stream is answered
//! in-line with the engine's tallies over the lines that *strictly
//! precede* it (stage 3 runs in input order, so the snapshot is
//! deterministic even though the preceding lines were scheduled in
//! parallel). With [`Engine::enable_latency`] the stats response also
//! carries per-backend wall-clock histograms of cache-miss scheduling
//! time — explicitly opt-in and explicitly *non*-deterministic, which
//! is why it is off by default and excluded from every determinism
//! gate.

use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, Write};
use std::time::Instant;

use ims_core::{
    BackendKind, BackendSpec, NullObserver, Problem, ProblemBuilder, SchedConfig, ScheduleError,
    Scheduler,
};
use ims_press::PressureObserver;
use ims_prof::{phase, MetricsRegistry};
use ims_sat::{schedule_leaf, LeafOutcome};
use ims_stats::Histogram;

use crate::cache::{key_request, CanonProblem, Entry, Keyed, ScheduleCache};
use crate::json;
use crate::pool;
use crate::wire::{decode, machine_by_name, Decoded, Rejected, Request, MAX_LINE_BYTES};

/// Schedules one cache miss: `canon`, the canonical problem of `req`, the
/// first request that missed on its key. Every field of `req` read here is
/// part of the key, so any other request sharing the key carries the same
/// values. Runs inside a pool worker; panics (e.g. a machine that does not
/// implement a requested opcode) are contained by [`pool::try_par_map`]
/// and turned into cached failures.
fn run_job(req: &Request, canon: &CanonProblem) -> Entry {
    let machine = machine_by_name(&req.machine).expect("machine validated at parse time");
    let mut pb = ProblemBuilder::new(&machine);
    let nodes: Vec<_> = canon
        .ops
        .iter()
        .enumerate()
        .map(|(i, &op)| pb.add_op(op, ims_ir::OpId(i as u32)))
        .collect();
    for e in &canon.edges {
        pb.add_dep(
            nodes[e.from as usize],
            nodes[e.to as usize],
            e.delay,
            e.distance,
            e.kind,
            e.is_mem,
        );
    }
    let problem = pb.finish();

    let mut cfg = SchedConfig::new().budget_ratio(req.budget_ratio);
    if let Some(m) = req.max_ii {
        cfg = cfg.max_ii(m);
    }
    let n = problem.num_ops();
    let entry_ok = |schedule: &ims_core::Schedule, mii: i64, max_live: Option<u32>| Entry::Ok {
        ii: schedule.ii,
        mii,
        length: schedule.length,
        max_live,
        times: (0..n).map(|i| schedule.time[i + 1]).collect(),
        alts: (0..n).map(|i| schedule.alternative[i + 1]).collect(),
    };
    // A pressure limit steers the iterative scheduler through its
    // observer seam, so it only composes with the plain ims leaf; the
    // graph-level MaxLive bound is what the service enforces (the
    // rotating-allocation fit check needs a loop body, which wire
    // requests do not carry).
    if let Some(limit) = req.pressure_limit {
        if req.backend.as_leaf() != Some(BackendKind::Ims) {
            return Entry::Failed {
                error: "schedule failed: pressure_limit requires the ims backend".to_string(),
            };
        }
        let mut obs = PressureObserver::for_problem(&problem, limit);
        return match Scheduler::new(&problem)
            .config(cfg.pressure_limit(limit))
            .observer(&mut obs)
            .run()
        {
            Ok(out) => entry_ok(&out.schedule, out.mii.mii, Some(obs.max_live())),
            Err(e) => Entry::Failed {
                error: format!("schedule failed: {e}"),
            },
        };
    }
    match race(&req.backend, &problem, &cfg, req.node_limit) {
        Ok(out) => entry_ok(out.schedule(), out.mii().mii, None),
        Err(e) => Entry::Failed {
            error: format!("schedule failed: {e}"),
        },
    }
}

/// Runs every member of `spec` to completion under `cfg` and keeps the
/// lowest II, ties going to the earliest member. Members never cancel
/// each other, so the winner is a pure function of the request. A leaf
/// (or one-member portfolio) runs inline; several members run on one
/// scoped thread each, since a batch's misses may all land on one pool
/// worker. `node_limit` reaches only the exact prover and defaults to
/// its node budget; the SAT prover keeps its default conflict budget.
///
/// # Errors
///
/// The first member's error, when every member failed.
fn race(
    spec: &BackendSpec,
    problem: &Problem<'_>,
    cfg: &SchedConfig,
    node_limit: Option<u64>,
) -> Result<LeafOutcome, ScheduleError> {
    let run = |kind: BackendKind| {
        let work_limit = node_limit.filter(|_| kind == BackendKind::Exact);
        schedule_leaf(kind, problem, cfg, work_limit, &mut NullObserver)
    };
    let results: Vec<_> = match spec.members() {
        &[kind] => vec![run(kind)],
        members => std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = members
                .iter()
                .map(|&k| scope.spawn(move || run(k)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio member panicked"))
                .collect()
        }),
    };
    // `min_by_key` keeps the first of equal minima: ties go to member order.
    let mut first_err = None;
    let best = results
        .into_iter()
        .filter_map(|r| r.map_err(|e| _ = first_err.get_or_insert(e)).ok())
        .min_by_key(|out| out.schedule().ii);
    best.ok_or_else(|| first_err.expect("a spec has at least one member"))
}

/// The text of a request line, or why the service refuses it unread: it
/// is longer than [`MAX_LINE_BYTES`], or it is not UTF-8.
pub(crate) fn line_text(line: &[u8]) -> Result<&str, String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
    }
    std::str::from_utf8(line).map_err(|e| format!("line is not UTF-8: {e}"))
}

/// Classifies one request line: a stats probe, a keyed request, or an
/// error response. Only the bytes are checked here ([`line_text`]); the
/// decoder ([`decode`]) decides the rest, the echoed `id` included.
fn parse_line(line: &[u8]) -> Parsed {
    let invalid = |id: &str, e: &str| {
        Parsed::Invalid(render_error(id, None, &format!("invalid request: {e}")))
    };
    let text = match line_text(line) {
        Ok(text) => text,
        Err(e) => return invalid("", &e),
    };
    let Decoded { probe, request } = decode(text);
    if let Some(id) = probe {
        return Parsed::Stats(id);
    }
    match request {
        Ok(req) => {
            let keyed = key_request(&req);
            Parsed::Request(Box::new(req), keyed)
        }
        Err(Rejected { id, error }) => invalid(&id, &error),
    }
}

fn render_error(id: &str, key: Option<u128>, error: &str) -> String {
    let mut s = format!("{{\"id\":\"{}\",\"ok\":false", json::escape(id));
    if let Some(k) = key {
        s.push_str(&format!(",\"key\":\"{k:032x}\""));
    }
    s.push_str(&format!(",\"error\":\"{}\"}}", json::escape(error)));
    s
}

fn render_response(req: &Request, keyed: &Keyed, entry: &Entry) -> String {
    match entry {
        Entry::Failed { error } => render_error(&req.id, Some(keyed.key), error),
        Entry::Ok {
            ii,
            mii,
            length,
            max_live,
            times,
            alts,
        } => {
            let mut s = format!(
                "{{\"id\":\"{}\",\"ok\":true,\"key\":\"{:032x}\",\"ii\":{},\"mii\":{},\"length\":{}",
                json::escape(&req.id),
                keyed.key,
                ii,
                mii,
                length
            );
            if let Some(m) = max_live {
                s.push_str(&format!(",\"max_live\":{m}"));
            }
            s.push_str(",\"times\":[");
            // Cached times are in canonical order; emit them in the
            // request's own numbering via its permutation.
            for i in 0..req.ops.len() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&times[keyed.position[i]].to_string());
            }
            s.push_str("],\"alts\":[");
            for i in 0..req.ops.len() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&alts[keyed.position[i]].to_string());
            }
            s.push_str("]}");
            s
        }
    }
}

/// One input line after stage 1: a schedulable request, a stats probe,
/// or a pre-rendered error response.
enum Parsed {
    Request(Box<Request>, Keyed),
    Stats(String),
    Invalid(String),
}

/// The long-lived service state: cache plus response tallies.
#[derive(Debug)]
pub struct Engine {
    /// The content-addressed store (exposed for inspection in tests).
    pub cache: ScheduleCache,
    threads: usize,
    /// Total requests answered (every input line gets exactly one
    /// response line; stats probes count too).
    pub requests: u64,
    /// Responses with `ok:false` — parse rejections, clean scheduling
    /// errors, and contained worker panics alike.
    pub failed: u64,
    /// Per-backend wall-clock histograms (nanoseconds per cache-miss
    /// scheduling job), keyed by canonical backend spec. `None` unless
    /// [`Engine::enable_latency`] was called: timing is inherently
    /// non-deterministic, so it is opt-in and never part of the
    /// byte-determinism contract.
    latency: Option<BTreeMap<String, Histogram>>,
}

impl Engine {
    /// A fresh engine scheduling cache misses on `threads` pool workers.
    pub fn new(threads: usize) -> Self {
        Engine {
            cache: ScheduleCache::new(),
            threads,
            requests: 0,
            failed: 0,
            latency: None,
        }
    }

    /// Starts collecting per-backend scheduling-latency histograms,
    /// reported on stats responses. Non-deterministic by nature — keep
    /// it off anywhere response bytes are diffed.
    pub fn enable_latency(&mut self) {
        self.latency = Some(BTreeMap::new());
    }

    /// The recorded latency histogram for a canonical backend spec, if
    /// collection is on and that backend scheduled at least one miss.
    pub fn latency_of(&self, backend: &str) -> Option<&Histogram> {
        self.latency.as_ref()?.get(backend)
    }

    /// Renders the stats response for one probe: tallies over every line
    /// answered so far (within a batch, the strictly-preceding lines),
    /// plus latency percentiles when collection is on. `entries` is
    /// passed in because mid-batch the store already holds the whole
    /// batch's jobs; the caller knows how many belong to preceding lines.
    fn render_stats(&self, id: &str, entries: usize) -> String {
        let mut s = format!(
            "{{\"id\":\"{}\",\"ok\":true,\"stats\":{{\"requests\":{},\"hits\":{},\"misses\":{},\"failed\":{},\"entries\":{}",
            json::escape(id),
            self.requests,
            self.cache.hits,
            self.cache.misses,
            self.failed,
            entries
        );
        if let Some(lat) = &self.latency {
            s.push_str(",\"latency\":{");
            for (i, (backend, h)) in lat.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                    json::escape(backend),
                    h.total(),
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// Processes one batch of request lines, writing one response line
    /// per request in input order. Lines are bytes: one that is not
    /// UTF-8 gets an error response like any other malformed line.
    ///
    /// # Errors
    ///
    /// Only I/O errors from `out`; malformed requests become error
    /// responses, not process errors.
    pub fn process_batch<L: AsRef<[u8]>>(
        &mut self,
        lines: &[L],
        out: &mut impl Write,
    ) -> io::Result<()> {
        // Stage 1: parse + canonicalize, one pass of the JSON reader per
        // line. Stats probes carry no problem and are never hashed.
        let parsed: Vec<Parsed> = lines.iter().map(|line| parse_line(line.as_ref())).collect();

        // Stage 2: schedule the distinct missing keys, first-appearance
        // order, in parallel.
        let mut jobs: Vec<(&Request, &Keyed)> = Vec::new();
        let mut queued: HashSet<u128> = HashSet::new();
        for item in &parsed {
            let Parsed::Request(req, keyed) = item else {
                continue;
            };
            if self.cache.get(keyed.key).is_none() && queued.insert(keyed.key) {
                jobs.push((req, keyed));
            }
        }
        let results = pool::try_par_map(&jobs, self.threads, |_, &(req, keyed)| {
            let t0 = Instant::now();
            let entry = run_job(req, &keyed.canon);
            (entry, t0.elapsed().as_nanos() as i64)
        });
        let fresh: HashSet<u128> = jobs.iter().map(|(_, keyed)| keyed.key).collect();
        for (&(req, keyed), result) in jobs.iter().zip(results) {
            let entry = match result {
                Ok((entry, ns)) => {
                    // Latency is folded in serially, keyed by canonical
                    // backend spec; it feeds only opt-in stats output.
                    if let Some(lat) = self.latency.as_mut() {
                        lat.entry(req.backend.to_string()).or_default().add(ns);
                    }
                    entry
                }
                Err(p) => Entry::Failed {
                    error: format!("schedule worker panicked: {}", p.message),
                },
            };
            self.cache.insert(keyed.key, entry);
        }

        // Stage 3: respond in input order, tallying hits and misses. A
        // stats probe is rendered *before* it is counted, so it reports
        // exactly the strictly-preceding lines — the scheduling of later
        // lines in stage 2 never leaks into the snapshot because the
        // cache tallies are also only advanced here, in input order.
        // Same for the entry count: stage 2 already inserted the whole
        // batch, so a probe's `entries` is the pre-batch store size plus
        // the fresh keys owed to preceding lines.
        let prior_entries = self.cache.len() - jobs.len();
        let mut counted: HashSet<u128> = HashSet::new();
        for item in &parsed {
            match item {
                Parsed::Stats(id) => {
                    writeln!(
                        out,
                        "{}",
                        self.render_stats(id, prior_entries + counted.len())
                    )?;
                    self.requests += 1;
                }
                Parsed::Invalid(line) => {
                    self.requests += 1;
                    self.failed += 1;
                    writeln!(out, "{line}")?;
                }
                Parsed::Request(req, keyed) => {
                    self.requests += 1;
                    if fresh.contains(&keyed.key) && counted.insert(keyed.key) {
                        self.cache.misses += 1;
                    } else {
                        self.cache.hits += 1;
                    }
                    let entry = self.cache.get(keyed.key).expect("miss was scheduled above");
                    if matches!(entry, Entry::Failed { .. }) {
                        self.failed += 1;
                    }
                    writeln!(out, "{}", render_response(req, keyed, entry))?;
                }
            }
        }
        Ok(())
    }

    /// Copies the engine's tallies into a profiler registry under the
    /// `serve.*` phase names.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add(phase::SERVE_REQUESTS, self.requests);
        reg.add(phase::SERVE_CACHE_HITS, self.cache.hits);
        reg.add(phase::SERVE_CACHE_MISSES, self.cache.misses);
        reg.add(phase::SERVE_FAILED, self.failed);
    }

    /// One-line summary for stderr logging.
    pub fn summary(&self) -> String {
        format!(
            "serve: {} requests, {} hits, {} misses, {} failed, {} cached entries",
            self.requests,
            self.cache.hits,
            self.cache.misses,
            self.failed,
            self.cache.len()
        )
    }
}

/// Pumps a whole request stream through `engine` in batches of `batch`
/// lines, flushing responses after every batch (so interactive clients
/// and sockets see answers without waiting for EOF). Lines end at `\n`
/// (an `\r` before it is dropped) and are read as bytes, so a line that
/// is not UTF-8 is answered with an error instead of ending the stream.
/// At most [`MAX_LINE_BYTES`]` + 1` bytes of a line are kept, and the
/// rest is skipped: a line over the cap is answered with one error, and
/// memory stays bounded whatever the stream holds. Blank lines are
/// skipped.
///
/// # Errors
///
/// I/O errors from either side of the stream.
pub fn serve_stream(
    engine: &mut Engine,
    mut reader: impl BufRead,
    mut writer: impl Write,
    batch: usize,
) -> io::Result<()> {
    let batch = batch.max(1);
    let mut pending: Vec<Vec<u8>> = Vec::with_capacity(batch);
    let mut line = Vec::new();
    while read_line(&mut reader, &mut line)? {
        if line_text(&line).is_ok_and(|s| s.trim().is_empty()) {
            continue;
        }
        pending.push(std::mem::take(&mut line));
        if pending.len() >= batch {
            engine.process_batch(&pending, &mut writer)?;
            writer.flush()?;
            pending.clear();
        }
    }
    if !pending.is_empty() {
        engine.process_batch(&pending, &mut writer)?;
    }
    writer.flush()
}

/// Reads the next `\n`-terminated line into `line`, without the `\n` or
/// an `\r` before it. Keeps at most [`MAX_LINE_BYTES`]` + 1` bytes, so a
/// longer line still reads as over the cap while its rest is skipped.
/// Returns `false` at the end of the stream.
///
/// # Errors
///
/// I/O errors from `reader`.
pub fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    let (mut read_any, mut skipped) = (false, false);
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            break;
        }
        read_any = true;
        let end = buf.iter().position(|&b| b == b'\n');
        let part = &buf[..end.unwrap_or(buf.len())];
        let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
        skipped |= part.len() > room;
        line.extend_from_slice(&part[..part.len().min(room)]);
        let used = end.map_or(buf.len(), |i| i + 1);
        reader.consume(used);
        if end.is_some() {
            break;
        }
    }
    if !skipped && line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(read_any)
}

/// Serves JSONL request streams over a Unix domain socket: binds `path`,
/// then accepts connections one at a time, each connection a complete
/// [`serve_stream`] conversation against the same shared engine (so the
/// cache stays warm across connections). `max_conns` limits how many
/// connections are served before returning (`None` serves forever).
///
/// # Errors
///
/// Bind/accept/stream I/O errors.
#[cfg(unix)]
pub fn serve_socket(
    engine: &mut Engine,
    path: &std::path::Path,
    batch: usize,
    max_conns: Option<usize>,
) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let mut served = 0usize;
    while max_conns.is_none_or(|m| served < m) {
        let (stream, _) = listener.accept()?;
        let reader = io::BufReader::new(stream.try_clone()?);
        serve_stream(engine, reader, &stream, batch)?;
        stream.shutdown(std::net::Shutdown::Both).ok();
        served += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn respond(engine: &mut Engine, lines: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        engine.process_batch(lines, &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    const CHAIN: &str =
        r#"{"id":"c1","machine":"minimal","ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]]}"#;
    /// The same chain with the two ops listed in the other order.
    const CHAIN_PERM: &str =
        r#"{"id":"c2","machine":"minimal","ops":["mul","add"],"edges":[[1,0,1,0,"flow",false]]}"#;

    #[test]
    fn schedules_and_caches_a_simple_chain() {
        let mut engine = Engine::new(1);
        let out = respond(&mut engine, &[CHAIN, CHAIN]);
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        // Two ops on the minimal machine's single universal unit: ResMII 2.
        assert!(out[0].contains("\"ii\":2"), "{}", out[0]);
        assert!(out[0].contains("\"times\":[0,1]"));
        // Identical requests differ only in nothing — same bytes.
        assert_eq!(out[0], out[1]);
        assert_eq!(engine.cache.misses, 1);
        assert_eq!(engine.cache.hits, 1);
        assert_eq!(engine.cache.len(), 1);
    }

    #[test]
    fn isomorphic_requests_hit_one_entry_with_times_in_their_own_order() {
        let mut engine = Engine::new(1);
        let out = respond(&mut engine, &[CHAIN, CHAIN_PERM]);
        assert_eq!(engine.cache.len(), 1, "one canonical entry");
        assert_eq!(engine.cache.misses, 1);
        assert_eq!(engine.cache.hits, 1);
        // c1: add is op 0 (time 0), mul op 1 (time 1).
        assert!(out[0].contains("\"times\":[0,1]"), "{}", out[0]);
        // c2 lists mul first: its times come back permuted.
        assert!(out[1].contains("\"times\":[1,0]"), "{}", out[1]);
        // Same key on both responses.
        let key = |s: &str| s.split("\"key\":\"").nth(1).unwrap()[..32].to_string();
        assert_eq!(key(&out[0]), key(&out[1]));
    }

    #[test]
    fn output_is_identical_across_thread_counts_and_batch_splits() {
        let reqs: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    r#"{{"id":"r{i}","machine":"wide2","ops":["load","add","store"],"edges":[[0,1,{d},0,"flow",false],[1,2,1,0,"flow",false]]}}"#,
                    d = 1 + (i % 3)
                )
            })
            .collect();
        let run = |threads: usize, split: usize| -> (String, u64, u64) {
            let mut engine = Engine::new(threads);
            let mut out = Vec::new();
            for chunk in reqs.chunks(split) {
                engine.process_batch(chunk, &mut out).unwrap();
            }
            (
                String::from_utf8(out).unwrap(),
                engine.cache.hits,
                engine.cache.misses,
            )
        };
        let baseline = run(1, reqs.len());
        for (threads, split) in [(4, 12), (4, 5), (2, 1), (8, 3)] {
            assert_eq!(
                run(threads, split),
                baseline,
                "threads={threads} split={split}"
            );
        }
        // 3 distinct delays → 3 canonical problems.
        assert_eq!(baseline.2, 3);
        assert_eq!(baseline.1, 9);
    }

    #[test]
    fn malformed_lines_get_error_responses_not_process_death() {
        let mut engine = Engine::new(2);
        let out = respond(
            &mut engine,
            &[
                "this is not json",
                r#"{"id":"bad-op","ops":["warp"]}"#,
                CHAIN,
            ],
        );
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("\"ok\":false") && out[0].contains("invalid JSON"));
        assert!(out[1].contains("\"id\":\"bad-op\"") && out[1].contains("unknown opcode"));
        assert!(out[2].contains("\"ok\":true"));
        assert_eq!(engine.failed, 2);
        assert_eq!(engine.requests, 3);
        // Parse failures touch no cache counters.
        assert_eq!(engine.cache.hits + engine.cache.misses, 1);
    }

    #[test]
    fn worker_panic_is_contained_cached_and_deterministic() {
        // "wide0" is shape-valid at parse time but its constructor
        // panics ("machine width must be positive") inside the worker.
        let line = r#"{"id":"p","machine":"wide0","ops":["add"],"edges":[]}"#;
        let mut a = Engine::new(1);
        let first = respond(&mut a, &[line, CHAIN]);
        assert!(first[0].contains("\"ok\":false"), "{}", first[0]);
        assert!(first[0].contains("panicked"), "{}", first[0]);
        assert!(
            first[1].contains("\"ok\":true"),
            "healthy request unaffected"
        );
        // Replay: the failure is served from cache, byte-identical.
        let again = respond(&mut a, &[line]);
        assert_eq!(first[0], again[0]);
        assert_eq!(a.cache.hits, 1, "second pass is a hit");
        // And identical across thread counts.
        let mut b = Engine::new(4);
        let parallel = respond(&mut b, &[line, CHAIN]);
        assert_eq!(first, parallel);
    }

    #[test]
    fn clean_scheduling_errors_are_structured() {
        // max_ii below the MII: IiCapExceeded, no panic.
        let line = r#"{"id":"cap","machine":"minimal","max_ii":1,"ops":["add","add"],"edges":[[0,1,3,0,"flow",false],[1,0,3,1,"flow",false]]}"#;
        let mut engine = Engine::new(1);
        let out = respond(&mut engine, &[line]);
        assert!(out[0].contains("\"ok\":false"), "{}", out[0]);
        assert!(out[0].contains("schedule failed"), "{}", out[0]);
        assert!(
            out[0].contains("\"key\":\""),
            "failures still carry the key"
        );
    }

    #[test]
    fn exact_backend_answers_and_caches_separately_from_ims() {
        let ims = r#"{"id":"i","machine":"minimal","ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]]}"#;
        let exact = r#"{"id":"x","machine":"minimal","backend":"exact","ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]]}"#;
        let mut engine = Engine::new(2);
        let out = respond(&mut engine, &[ims, exact]);
        assert!(out[0].contains("\"ok\":true"));
        assert!(out[1].contains("\"ok\":true"));
        assert_eq!(engine.cache.len(), 2, "backend is part of the key");
        assert_eq!(engine.cache.misses, 2);
    }

    #[test]
    fn portfolio_requests_answer_identically_across_thread_counts() {
        let lines = [
            r#"{"id":"pf","machine":"figure1","backend":"portfolio(ims,exact,sat)","ops":["mul","add"],"edges":[[0,1,5,0,"flow",false],[1,0,4,2,"flow",false]]}"#,
            r#"{"id":"sat","machine":"figure1","backend":"sat","ops":["mul","add"],"edges":[[0,1,5,0,"flow",false],[1,0,4,2,"flow",false]]}"#,
        ];
        let mut a = Engine::new(1);
        let cold = respond(&mut a, &lines);
        // Every member lands on the optimal II 6 of the Figure 1 loop.
        assert!(
            cold[0].contains("\"ok\":true") && cold[0].contains("\"ii\":6,"),
            "{}",
            cold[0]
        );
        assert!(
            cold[1].contains("\"ok\":true") && cold[1].contains("\"ii\":6,"),
            "{}",
            cold[1]
        );
        assert_eq!(a.cache.len(), 2, "spec is part of the key");
        // Hot replay and a parallel engine both reproduce the bytes.
        let hot = respond(&mut a, &lines);
        assert_eq!(cold, hot);
        let mut b = Engine::new(4);
        assert_eq!(respond(&mut b, &lines), cold);
    }

    /// Request `loop-00004` of `--gen-requests 30 --seed 11` with a
    /// backend spec and extra fields spliced in. `ims` alone answers II 5
    /// here; both provers answer the MII, 4.
    fn loop4(backend: &str, extra: &str) -> String {
        format!(
            r#"{{"id":"l4","machine":"cydra","backend":"{backend}"{extra},"ops":["load","load","load","load","mul","add","mul","add","mul","add","store","aadd","aadd","aadd","aadd","aadd"],"edges":[[12,0,3,1,"flow",false],[13,1,3,1,"flow",false],[14,2,3,1,"flow",false],[15,3,3,1,"flow",false],[3,4,20,0,"flow",false],[2,5,20,0,"flow",false],[4,5,5,0,"flow",false],[5,6,4,0,"flow",false],[0,7,20,0,"flow",false],[6,7,5,0,"flow",false],[1,8,20,0,"flow",false],[7,9,4,0,"flow",false],[8,9,5,0,"flow",false],[11,10,3,1,"flow",false],[9,10,4,0,"flow",false],[11,11,3,3,"flow",false],[12,12,3,3,"flow",false],[13,13,3,3,"flow",false],[14,14,3,3,"flow",false],[15,15,3,3,"flow",false]]}}"#
        )
    }

    /// A response from `"ii"` on: everything but the id and the key, which
    /// differ between backends by design.
    fn answer(response: &str) -> &str {
        let at = response
            .find("\"ii\":")
            .unwrap_or_else(|| panic!("no II in {response}"));
        &response[at..]
    }

    #[test]
    fn the_lowest_ii_wins_a_portfolio_over_member_order() {
        let mut engine = Engine::new(2);
        let lines = [
            loop4("ims", ""),
            loop4("exact", ""),
            loop4("sat", ""),
            loop4("portfolio(ims,exact)", ""),
            loop4("portfolio(ims,sat)", ""),
        ];
        let out = respond(&mut engine, &lines.each_ref().map(String::as_str));
        assert!(
            answer(&out[0]).starts_with("\"ii\":5,\"mii\":4,"),
            "{}",
            out[0]
        );
        assert!(answer(&out[1]).starts_with("\"ii\":4,"), "{}", out[1]);
        assert!(answer(&out[2]).starts_with("\"ii\":4,"), "{}", out[2]);
        // ims comes first in both portfolios, yet the prover's II 4 wins.
        assert_eq!(answer(&out[3]), answer(&out[1]));
        assert_eq!(answer(&out[4]), answer(&out[2]));
    }

    #[test]
    fn portfolio_ties_go_to_the_first_member() {
        let mut engine = Engine::new(1);
        let lines = [
            loop4("exact", ""),
            loop4("sat", ""),
            loop4("portfolio(exact,sat)", ""),
            loop4("portfolio(sat,exact)", ""),
        ];
        let out = respond(&mut engine, &lines.each_ref().map(String::as_str));
        // Both provers land on II 4 with different schedules.
        assert_ne!(answer(&out[0]), answer(&out[1]));
        assert_eq!(answer(&out[2]), answer(&out[0]));
        assert_eq!(answer(&out[3]), answer(&out[1]));
    }

    #[test]
    fn a_portfolio_whose_every_member_fails_answers_the_first_error() {
        let mut engine = Engine::new(1);
        let out = respond(
            &mut engine,
            &[&loop4("portfolio(exact,ims)", r#","max_ii":3"#)],
        );
        assert!(
            out[0].ends_with(
                r#""error":"schedule failed: II cap 3 is below the MII 4: no candidate II admissible"}"#
            ),
            "{}",
            out[0]
        );
    }

    #[test]
    fn node_limit_reaches_the_exact_prover() {
        let mut engine = Engine::new(1);
        let lines = [
            loop4("ims", ""),
            loop4("exact", ""),
            loop4("exact", r#","node_limit":1"#),
        ];
        let out = respond(&mut engine, &lines.each_ref().map(String::as_str));
        assert!(answer(&out[1]).starts_with("\"ii\":4,"), "{}", out[1]);
        // One node cannot decide II 4: the walk falls back to its
        // heuristic run, which is the ims schedule at II 5.
        assert_eq!(answer(&out[2]), answer(&out[0]));
        assert_eq!(engine.cache.len(), 3, "node_limit is part of the key");
    }

    #[test]
    fn unknown_backend_specs_fail_per_request_before_any_worker_runs() {
        let mut engine = Engine::new(2);
        let out = respond(
            &mut engine,
            &[
                r#"{"id":"bad","backend":"portfolio(ims,magic)","ops":["add"]}"#,
                CHAIN,
            ],
        );
        assert!(out[0].contains("\"ok\":false"), "{}", out[0]);
        assert!(out[0].contains("unknown backend"), "{}", out[0]);
        assert!(out[1].contains("\"ok\":true"), "healthy request unaffected");
        assert_eq!(engine.failed, 1);
        // The rejection happened at parse time: no cache traffic for it.
        assert_eq!(engine.cache.hits + engine.cache.misses, 1);
    }

    #[test]
    fn pressure_limited_requests_report_max_live_and_split_the_cache() {
        let plain = r#"{"id":"free","machine":"cydra_rf8","ops":["load","add","store"],"edges":[[0,1,13,0,"flow",false],[1,2,1,0,"flow",false]]}"#;
        let limited = r#"{"id":"tight","machine":"cydra_rf8","pressure_limit":8,"ops":["load","add","store"],"edges":[[0,1,13,0,"flow",false],[1,2,1,0,"flow",false]]}"#;
        let mut engine = Engine::new(1);
        let out = respond(&mut engine, &[plain, limited, limited]);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert!(
            !out[0].contains("max_live"),
            "unlimited requests stay unchanged: {}",
            out[0]
        );
        assert!(out[1].contains("\"ok\":true"), "{}", out[1]);
        let m: u32 = out[1]
            .split("\"max_live\":")
            .nth(1)
            .expect("pressure-limited response carries max_live")
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((1..=8).contains(&m), "max_live {m} within the limit");
        // The limit is part of the key: two entries, one hit on replay.
        assert_eq!(engine.cache.len(), 2);
        assert_eq!(out[1], out[2]);
        // And the whole batch replays identically on a parallel engine.
        let mut b = Engine::new(4);
        assert_eq!(respond(&mut b, &[plain, limited, limited]), out);
    }

    #[test]
    fn pressure_limits_compose_only_with_the_ims_backend() {
        let line = r#"{"id":"px","machine":"minimal","backend":"exact","pressure_limit":4,"ops":["add"],"edges":[]}"#;
        let mut engine = Engine::new(1);
        let out = respond(&mut engine, &[line]);
        assert!(out[0].contains("\"ok\":false"), "{}", out[0]);
        assert!(
            out[0].contains("pressure_limit requires the ims backend"),
            "{}",
            out[0]
        );
        assert!(
            out[0].contains("\"key\":\""),
            "clean failure still carries the key"
        );
    }

    #[test]
    fn infeasible_pressure_limits_fail_with_a_structured_error() {
        // Two loads feeding one add, with edge delays covering the load
        // latency: both values are live when the add issues, so no
        // schedule at any II keeps a single register live.
        let line = r#"{"id":"inf","machine":"cydra_rf8","pressure_limit":1,"max_ii":3,"ops":["load","load","add"],"edges":[[0,2,20,0,"flow",false],[1,2,20,0,"flow",false]]}"#;
        let mut engine = Engine::new(1);
        let out = respond(&mut engine, &[line]);
        assert!(out[0].contains("\"ok\":false"), "{}", out[0]);
        assert!(
            out[0].contains("pressure"),
            "structured pressure error: {}",
            out[0]
        );
        // Deterministic: the failure replays from cache byte-identically.
        let again = respond(&mut engine, &[line]);
        assert_eq!(out[0], again[0]);
    }

    #[test]
    fn serve_stream_batches_and_flushes() {
        let input = format!("{CHAIN}\n\n{CHAIN_PERM}\n{CHAIN}\n");
        let mut engine = Engine::new(2);
        let mut out = Vec::new();
        serve_stream(&mut engine, input.as_bytes(), &mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3, "blank line skipped:\n{text}");
        assert_eq!(engine.requests, 3);
        assert_eq!(engine.cache.misses, 1);
        assert_eq!(engine.cache.hits, 2);
    }

    #[test]
    fn lines_over_the_cap_are_refused_before_parsing() {
        let mut engine = Engine::new(1);
        let at_cap = CHAIN.to_string() + &" ".repeat(MAX_LINE_BYTES - CHAIN.len());
        let over = format!("{at_cap} ");
        let out = respond(&mut engine, &[&at_cap, &over]);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert_eq!(
            out[1],
            r#"{"id":"","ok":false,"error":"invalid request: line longer than 1048576 bytes"}"#
        );
    }

    #[test]
    fn read_line_keeps_at_most_one_byte_past_the_cap() {
        let cap = MAX_LINE_BYTES;
        let input = [
            "a".repeat(cap) + "\r\n",
            "b".repeat(cap + 1) + "\r\n",
            "c".repeat(cap) + "\r" + &"c".repeat(2 * cap) + "\n",
            "d\r\n".to_string(),
            "e".to_string(),
        ]
        .concat();
        // A small buffer, so lines span many reads.
        let mut reader = io::BufReader::with_capacity(4096, input.as_bytes());
        let mut line = Vec::new();
        let mut read = Vec::new();
        while read_line(&mut reader, &mut line).unwrap() {
            read.push((line.len(), line[0], line.last().copied()));
        }
        assert_eq!(
            read,
            [
                (cap, b'a', Some(b'a')),
                (cap + 1, b'b', Some(b'b')),
                (cap + 1, b'c', Some(b'\r')),
                (1, b'd', Some(b'd')),
                (1, b'e', Some(b'e')),
            ]
        );
    }

    const STATS: &str = r#"{"id":"s","stats":true}"#;

    #[test]
    fn stats_probes_report_strictly_preceding_lines() {
        let mut engine = Engine::new(2);
        let out = respond(&mut engine, &[STATS, CHAIN, STATS, CHAIN, "garbage", STATS]);
        assert_eq!(
            out[0],
            r#"{"id":"s","ok":true,"stats":{"requests":0,"hits":0,"misses":0,"failed":0,"entries":0}}"#
        );
        assert_eq!(
            out[2],
            r#"{"id":"s","ok":true,"stats":{"requests":2,"hits":0,"misses":1,"failed":0,"entries":1}}"#
        );
        assert_eq!(
            out[5],
            r#"{"id":"s","ok":true,"stats":{"requests":5,"hits":1,"misses":1,"failed":1,"entries":1}}"#
        );
        assert_eq!(
            engine.requests, 6,
            "stats probes count as requests after rendering"
        );
        // A probe in a later batch sees the accumulated totals.
        let next = respond(&mut engine, &[STATS]);
        assert_eq!(
            next[0],
            r#"{"id":"s","ok":true,"stats":{"requests":6,"hits":1,"misses":1,"failed":1,"entries":1}}"#
        );
    }

    #[test]
    fn a_stats_probe_stays_a_probe_whatever_rides_along() {
        let mut engine = Engine::new(1);
        let probe = r#"{"id":"s","machine":"minimal","ops":["add"],"stats":true}"#;
        let out = respond(&mut engine, &[probe]);
        assert_eq!(
            out[0],
            r#"{"id":"s","ok":true,"stats":{"requests":0,"hits":0,"misses":0,"failed":0,"entries":0}}"#
        );
    }

    #[test]
    fn stats_probes_are_deterministic_across_threads_and_splits() {
        let lines: Vec<String> = [STATS, CHAIN, STATS, CHAIN_PERM, STATS, CHAIN, STATS]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let run = |threads: usize, split: usize| -> String {
            let mut engine = Engine::new(threads);
            let mut out = Vec::new();
            for chunk in lines.chunks(split) {
                engine.process_batch(chunk, &mut out).unwrap();
            }
            String::from_utf8(out).unwrap()
        };
        let baseline = run(1, lines.len());
        for (threads, split) in [(4, 7), (4, 2), (2, 1), (8, 3)] {
            assert_eq!(
                run(threads, split),
                baseline,
                "threads={threads} split={split}"
            );
        }
    }

    #[test]
    fn latency_histograms_are_opt_in_and_per_backend() {
        let mut engine = Engine::new(1);
        engine.enable_latency();
        let out = respond(&mut engine, &[CHAIN, STATS]);
        assert!(
            out[1].contains("\"latency\":{\"ims\":{\"count\":1,\"p50_ns\":"),
            "{}",
            out[1]
        );
        let h = engine.latency_of("ims").expect("one miss recorded");
        assert_eq!(h.total(), 1);
        assert!(engine.latency_of("exact").is_none());
        // Cache hits schedule nothing, so they record nothing.
        let again = respond(&mut engine, &[CHAIN, STATS]);
        assert!(again[1].contains("\"count\":1,"), "{}", again[1]);
        // Without the opt-in the stats response has no latency key.
        let mut plain = Engine::new(1);
        let o = respond(&mut plain, &[CHAIN, STATS]);
        assert!(!o[1].contains("latency"), "{}", o[1]);
    }

    #[test]
    fn metrics_export_uses_registered_phase_names() {
        let mut engine = Engine::new(1);
        respond(&mut engine, &[CHAIN, CHAIN, "garbage"]);
        let mut reg = MetricsRegistry::new();
        engine.export_metrics(&mut reg);
        assert_eq!(reg.counter(phase::SERVE_REQUESTS), 3);
        assert_eq!(reg.counter(phase::SERVE_CACHE_MISSES), 1);
        assert_eq!(reg.counter(phase::SERVE_CACHE_HITS), 1);
        assert_eq!(reg.counter(phase::SERVE_FAILED), 1);
        for name in [
            phase::SERVE_REQUESTS,
            phase::SERVE_CACHE_HITS,
            phase::SERVE_CACHE_MISSES,
            phase::SERVE_FAILED,
        ] {
            assert!(phase::describe(name).is_some(), "{name} not in REGISTRY");
        }
    }
}
