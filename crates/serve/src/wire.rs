//! The JSONL wire format: one request object per line in, one response
//! object per line out.
//!
//! A **request** describes one modulo-scheduling problem:
//!
//! ```json
//! {"id":"loop-00012","machine":"cydra","backend":"ims","budget_ratio":2.0,
//!  "ops":["load","add","store"],
//!  "edges":[[0,1,13,0,"flow",false],[1,2,1,0,"flow",false]]}
//! ```
//!
//! * `id` (required): opaque string echoed on the response. Never hashed.
//! * `ops` (required): opcode mnemonics, one per operation; operation `i`
//!   in `edges` refers to `ops[i]`.
//! * `edges`: `[from, to, delay, distance, kind, is_mem]` sextuples with
//!   `kind` one of `"flow" | "anti" | "output" | "control"`.
//! * `machine` (default `"cydra"`): a named machine model —
//!   `cydra`, `cydra_simple`, `figure1`, `minimal`, `single_alu`,
//!   `cydra_rf<N>`, or `wide<K>` with `K` at most [`MAX_WIDE`].
//! * `backend` (default `"ims"`): any backend spec — `"ims"`,
//!   `"exact"`, `"sat"`, or `"portfolio(a,b,...)"` over those names.
//!   Unknown names are rejected *at parse time* with a structured
//!   per-request error response; a bad spec can never reach (let alone
//!   kill) a scheduling worker.
//! * `budget_ratio` (default 2.0), `max_ii` (default none): the
//!   [`SchedConfig`] knobs.
//! * `node_limit` (exact backend only; default the branch-and-bound
//!   [`Decider::DEFAULT_WORK_LIMIT`]): branch-and-bound node budget. Wall-clock deadlines are
//!   deliberately not exposed — they would break response determinism.
//! * `pressure_limit` (iterative backend only; default none): a
//!   register-pressure cap. The scheduler rejects placements and attempts
//!   whose MaxLive exceeds it (via `ims-press`), and a capacity that is
//!   infeasible even at the II cap becomes a structured error response.
//!   Successful pressure-limited responses add `"max_live":…`.
//!
//! A **response** is `{"id":…,"ok":true,"key":…,"ii":…,"mii":…,
//! "length":…,"times":[…],"alts":[…]}` with `times[i]`/`alts[i]` the
//! issue time and chosen alternative of `ops[i]`, or
//! `{"id":…,"ok":false,[…"key":…,]"error":…}`. Responses carry no
//! cache-hit marker: a hit and a recomputation are byte-identical by
//! design (the cache-determinism contract, `DESIGN.md` §5e); hit/miss
//! tallies go to the profiler registry and stderr instead.
//!
//! A **stats request** is `{"id":"…","stats":true}`, whatever other
//! fields ride along. It is answered in-line with the engine's running
//! tallies over every line that *strictly precedes* it in the stream —
//! deterministic by construction, so clients can interleave stats probes
//! with work without breaking the byte-identity contract. See
//! [`Engine`](crate::service::Engine).
//!
//! **Reading a line.** A line longer than [`MAX_LINE_BYTES`] is refused
//! before any of it is parsed. Every other line is first decoded straight
//! from the JSON pull reader ([`json::Reader`]), with no tree. The
//! decoder reads scalars through the same [`Value`] accessors as the tree
//! path, and it gives up on any error, a duplicate field, a `stats` field
//! or `edges` before `ops`. The line then goes through [`json::parse`]
//! and the tree path, which gives the answer. So the decoder only has to
//! agree with the tree on lines the tree accepts, and every error text
//! is the tree's.

use ims_core::BackendSpec;
use ims_graph::{DepGraph, DepKind};
use ims_ir::Opcode;
use ims_machine::{
    cydra, cydra_rf, cydra_simple, figure1_machine, minimal, single_alu, wide, MachineModel,
};

use crate::json::{self, Reader, Token, Value};

#[cfg(doc)]
use ims_core::SchedConfig;
#[cfg(doc)]
use ims_exact::Decider;

/// One dependence edge as carried on the wire, endpoints in request
/// operation indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEdge {
    /// Source operation index into the request's `ops`.
    pub from: u32,
    /// Target operation index into the request's `ops`.
    pub to: u32,
    /// Minimum issue-time separation.
    pub delay: i64,
    /// Iteration distance.
    pub distance: u32,
    /// Dependence kind.
    pub kind: DepKind,
    /// Whether this is a memory dependence.
    pub is_mem: bool,
}

/// A parsed, validated scheduling request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Opaque client identifier, echoed on the response (never hashed).
    pub id: String,
    /// Named machine model (part of the cache key).
    pub machine: String,
    /// Scheduling backend spec (part of the cache key, in canonical
    /// form).
    pub backend: BackendSpec,
    /// The `BudgetRatio` for the iterative scheduler (part of the key).
    pub budget_ratio: f64,
    /// Optional candidate-II cap (part of the key).
    pub max_ii: Option<i64>,
    /// Optional branch-and-bound node budget, exact backend only (part of
    /// the key).
    pub node_limit: Option<u64>,
    /// Optional register-pressure cap, iterative backend only (part of
    /// the key).
    pub pressure_limit: Option<u32>,
    /// The operations, by opcode.
    pub ops: Vec<Opcode>,
    /// The dependence edges over `ops`.
    pub edges: Vec<WireEdge>,
}

/// The widest `wide<K>` machine a request may name: one occupancy word
/// per MRT row. A wider name is an unknown machine, so a request cannot
/// make the worker allocate tables of any size it likes.
pub const MAX_WIDE: usize = 64;

/// The longest request line, in bytes, that the service reads. A longer
/// line is answered with an error before any of it is parsed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Resolves a wire-format machine name to a model. `cydra_rf<N>` accepts
/// any `u32` suffix (e.g. `cydra_rf16`), `wide<K>` any suffix up to
/// [`MAX_WIDE`] (e.g. `wide3`).
///
/// # Panics
///
/// Propagates constructor panics (`wide0`: width must be positive;
/// `cydra_rf0`: register file must be positive). [`parse_request`] checks
/// only the name *shape*, so such a request reaches the scheduling
/// worker, whose panic containment turns the constructor failure into a
/// per-request error response instead of taking the service down.
pub fn machine_by_name(name: &str) -> Option<MachineModel> {
    match name {
        "cydra" => Some(cydra()),
        "cydra_simple" => Some(cydra_simple()),
        "figure1" => Some(figure1_machine()),
        "minimal" => Some(minimal()),
        "single_alu" => Some(single_alu()),
        _ => {
            if let Some(n) = name.strip_prefix("cydra_rf") {
                return n.parse().ok().map(cydra_rf);
            }
            wide_width(name).map(wide)
        }
    }
}

/// The `K` of a `wide<K>` name, if it is at most [`MAX_WIDE`].
fn wide_width(name: &str) -> Option<usize> {
    let k: usize = name.strip_prefix("wide")?.parse().ok()?;
    (k <= MAX_WIDE).then_some(k)
}

/// Shape-only name check used at parse time; construction (and any
/// constructor panic) is deferred to the worker.
fn machine_name_is_wellformed(name: &str) -> bool {
    matches!(
        name,
        "cydra" | "cydra_simple" | "figure1" | "minimal" | "single_alu"
    ) || wide_width(name).is_some()
        || name
            .strip_prefix("cydra_rf")
            .is_some_and(|n| n.parse::<u32>().is_ok())
}

fn opcode_by_mnemonic(s: &str) -> Option<Opcode> {
    Opcode::ALL.iter().copied().find(|o| o.mnemonic() == s)
}

fn kind_by_name(s: &str) -> Option<DepKind> {
    match s {
        "flow" => Some(DepKind::Flow),
        "anti" => Some(DepKind::Anti),
        "output" => Some(DepKind::Output),
        "control" => Some(DepKind::Control),
        _ => None,
    }
}

/// Detects a statistics request — `{"id":"…","stats":true}` — in a
/// parsed line and returns its `id`.
///
/// A line whose `stats` field is boolean `true` and whose `id` is a
/// string is a stats request regardless of any other fields present;
/// anything else (including `"stats":false` or a missing `id`) returns
/// `None` and goes on to [`request_from_value`] as usual. Stats requests
/// never touch the cache and are never hashed.
pub(crate) fn stats_id(v: &Value) -> Option<String> {
    let obj = v.as_obj()?;
    if obj.get("stats").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    obj.get("id").and_then(Value::as_str).map(str::to_string)
}

/// Parses and validates one request line.
///
/// # Errors
///
/// A human-readable description of the first problem found: JSON syntax,
/// missing/ill-typed fields, unknown mnemonics/machines/kinds, or
/// out-of-range edge endpoints. The error string is a pure function of
/// the line, so error responses are as deterministic as successes.
pub fn parse_request(line: &str) -> Result<Request, String> {
    match decode(line) {
        Some(req) => Ok(req),
        None => {
            let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
            request_from_value(&v)
        }
    }
}

/// The fields of a request besides `ops` and `edges`, in the order
/// [`request_from_value`] checks them.
const HEAD: [&str; 7] = [
    "id",
    "machine",
    "backend",
    "budget_ratio",
    "max_ii",
    "node_limit",
    "pressure_limit",
];

/// Decodes a request line straight from the pull reader, with no tree.
///
/// `None` sends the line to the tree path ([`json::parse`] and
/// [`request_from_value`]), which then gives the answer: any syntax or
/// field error, a duplicate field, a `stats` field, or `edges` before
/// `ops`. So this path only has to agree with the tree on lines the tree
/// accepts, and it reads their numbers through the same [`Value`]
/// accessors.
pub(crate) fn decode(line: &str) -> Option<Request> {
    let mut r = Reader::new(line);
    if !matches!(r.next_token(), Ok(Token::ObjectStart)) {
        return None;
    }
    let mut head: [Option<Value>; HEAD.len()] = Default::default();
    let mut ops = None;
    let mut edges = None;
    while let Ok(Token::Key(key)) = r.next_token() {
        if let Some(i) = HEAD.iter().position(|&h| h == key) {
            let value = match r.next_token() {
                Ok(Token::Str(s)) => Value::Str(s.into_owned()),
                Ok(Token::Scalar(v)) => v,
                _ => return None,
            };
            if head[i].replace(value).is_some() {
                return None;
            }
        } else if key == "ops" && ops.is_none() {
            ops = Some(decode_ops(&mut r)?);
        } else if key == "edges" && edges.is_none() {
            let n_ops = ops.as_ref().map(Vec::len)?;
            edges = Some(decode_edges(&mut r, n_ops)?);
        } else if matches!(&*key, "ops" | "edges" | "stats") {
            return None;
        } else {
            r.skip_value().ok()?;
        }
    }
    // The loop also ends on an error; only a complete document passes.
    r.finish().ok()?;
    let mut req = request_head(head).ok()?;
    req.ops = ops.filter(|ops| !ops.is_empty())?;
    req.edges = edges.unwrap_or_default();
    Some(req)
}

/// The `ops` array, from its `[` on.
fn decode_ops(r: &mut Reader<'_>) -> Option<Vec<Opcode>> {
    if !matches!(r.next_token(), Ok(Token::ArrayStart)) {
        return None;
    }
    let mut ops = Vec::new();
    loop {
        match r.next_token() {
            Ok(Token::Str(s)) => ops.push(opcode_by_mnemonic(&s)?),
            Ok(Token::ArrayEnd) => return Some(ops),
            _ => return None,
        }
    }
}

/// The `edges` array, from its `[` on, over `n_ops` operations.
fn decode_edges(r: &mut Reader<'_>, n_ops: usize) -> Option<Vec<WireEdge>> {
    if !matches!(r.next_token(), Ok(Token::ArrayStart)) {
        return None;
    }
    let mut edges = Vec::new();
    loop {
        match r.next_token() {
            Ok(Token::ArrayStart) => {}
            Ok(Token::ArrayEnd) => return Some(edges),
            _ => return None,
        }
        let mut scalar = || match r.next_token() {
            Ok(Token::Scalar(v)) => Some(v),
            _ => None,
        };
        let [from, to, delay, distance] = [scalar()?, scalar()?, scalar()?, scalar()?];
        let kind = match r.next_token() {
            Ok(Token::Str(s)) => kind_by_name(&s),
            _ => return None,
        };
        let is_mem = match r.next_token() {
            Ok(Token::Scalar(v)) => v,
            _ => return None,
        };
        if !matches!(r.next_token(), Ok(Token::ArrayEnd)) {
            return None;
        }
        let nums = [&from, &to, &delay, &distance, &is_mem];
        edges.push(edge(edges.len(), n_ops, nums, kind).ok()?);
    }
}

/// [`parse_request`] over an already-parsed line.
pub(crate) fn request_from_value(v: &Value) -> Result<Request, String> {
    let obj = v.as_obj().ok_or("request must be a JSON object")?;
    let mut req = request_head(HEAD.map(|k| obj.get(k).cloned()))?;

    let ops_v = obj
        .get("ops")
        .and_then(Value::as_arr)
        .ok_or("missing array field \"ops\"")?;
    if ops_v.is_empty() {
        return Err("\"ops\" must name at least one operation".to_string());
    }
    for (i, o) in ops_v.iter().enumerate() {
        let s = o
            .as_str()
            .ok_or_else(|| format!("ops[{i}] must be a mnemonic string"))?;
        req.ops
            .push(opcode_by_mnemonic(s).ok_or_else(|| format!("unknown opcode {s:?}"))?);
    }

    if let Some(edges_v) = obj.get("edges") {
        let arr = edges_v.as_arr().ok_or("field \"edges\" must be an array")?;
        for (i, e) in arr.iter().enumerate() {
            let t = e.as_arr().filter(|t| t.len() == 6).ok_or_else(|| {
                format!("edges[{i}] must be [from,to,delay,distance,kind,is_mem]")
            })?;
            let kind = t[4].as_str().and_then(kind_by_name);
            let nums = [&t[0], &t[1], &t[2], &t[3], &t[5]];
            req.edges.push(edge(i, req.ops.len(), nums, kind)?);
        }
    }
    Ok(req)
}

/// A request with every field but `ops` and `edges` checked and set from
/// `head`, the values of the [`HEAD`] fields in that order; `ops` and
/// `edges` are empty.
fn request_head(head: [Option<Value>; HEAD.len()]) -> Result<Request, String> {
    let [id, machine, backend, budget_ratio, max_ii, node_limit, pressure_limit] = head;
    let Some(Value::Str(id)) = id else {
        return Err("missing string field \"id\"".to_string());
    };

    let machine = match machine {
        None => "cydra".to_string(),
        Some(Value::Str(m)) => m,
        Some(_) => return Err("field \"machine\" must be a string".to_string()),
    };
    if !machine_name_is_wellformed(&machine) {
        return Err(format!("unknown machine {machine:?}"));
    }

    let backend = match backend {
        None => BackendSpec::default(),
        Some(b) => {
            let s = b.as_str().ok_or("field \"backend\" must be a string")?;
            s.parse::<BackendSpec>().map_err(|e| e.to_string())?
        }
    };

    let budget_ratio = match budget_ratio {
        None => 2.0,
        Some(r) => {
            let f = r
                .as_f64()
                .ok_or("field \"budget_ratio\" must be a number")?;
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("budget_ratio must be finite and positive, got {f}"));
            }
            f
        }
    };

    let max_ii = match max_ii {
        None | Some(Value::Null) => None,
        Some(m) => {
            let n = m.as_i64().ok_or("field \"max_ii\" must be an integer")?;
            if n < 1 {
                return Err(format!("max_ii must be at least 1, got {n}"));
            }
            Some(n)
        }
    };

    let node_limit = match node_limit {
        None | Some(Value::Null) => None,
        Some(m) => {
            let n = m
                .as_i64()
                .ok_or("field \"node_limit\" must be an integer")?;
            if n < 0 {
                return Err(format!("node_limit must be non-negative, got {n}"));
            }
            Some(n as u64)
        }
    };

    let pressure_limit = match pressure_limit {
        None | Some(Value::Null) => None,
        Some(m) => {
            let n = m
                .as_i64()
                .ok_or("field \"pressure_limit\" must be an integer")?;
            if !(1..=u32::MAX as i64).contains(&n) {
                return Err(format!("pressure_limit must be at least 1, got {n}"));
            }
            Some(n as u32)
        }
    };

    Ok(Request {
        id,
        machine,
        backend,
        budget_ratio,
        max_ii,
        node_limit,
        pressure_limit,
        ops: Vec::new(),
        edges: Vec::new(),
    })
}

/// Edge `i` over `n_ops` operations, from its `from`, `to`, `delay`,
/// `distance` and `is_mem` values and its resolved kind.
fn edge(
    i: usize,
    n_ops: usize,
    [from, to, delay, distance, is_mem]: [&Value; 5],
    kind: Option<DepKind>,
) -> Result<WireEdge, String> {
    let endpoint = |v: &Value| v.as_i64().filter(|&n| n >= 0 && (n as usize) < n_ops);
    let from = endpoint(from).ok_or_else(|| format!("edges[{i}]: from out of range"))?;
    let to = endpoint(to).ok_or_else(|| format!("edges[{i}]: to out of range"))?;
    let delay = delay
        .as_i64()
        .ok_or_else(|| format!("edges[{i}]: delay must be an integer"))?;
    let distance = distance
        .as_i64()
        .filter(|&n| (0..=u32::MAX as i64).contains(&n))
        .ok_or_else(|| format!("edges[{i}]: distance must be a u32"))?;
    let kind = kind.ok_or_else(|| format!("edges[{i}]: unknown dependence kind"))?;
    let is_mem = is_mem
        .as_bool()
        .ok_or_else(|| format!("edges[{i}]: is_mem must be a boolean"))?;
    Ok(WireEdge {
        from: from as u32,
        to: to as u32,
        delay,
        distance: distance as u32,
        kind,
        is_mem,
    })
}

impl Request {
    /// The request's dependence graph over its operations (no START/STOP
    /// pseudo-nodes — those are machine-derived and added by the problem
    /// builder), as fed to the canonicalization pass.
    pub fn graph(&self) -> DepGraph {
        let mut g = DepGraph::with_nodes(self.ops.len());
        for e in &self.edges {
            g.add_edge(
                ims_graph::NodeId(e.from),
                ims_graph::NodeId(e.to),
                e.delay,
                e.distance,
                e.kind,
                e.is_mem,
            );
        }
        g
    }

    /// Canonicalization labels for [`Request::graph`]: the opcode's index
    /// in [`Opcode::ALL`] — stable across node renumberings by
    /// construction, and the only per-node attribute the wire carries.
    pub fn labels(&self) -> Vec<u64> {
        self.ops
            .iter()
            .map(|op| {
                Opcode::ALL
                    .iter()
                    .position(|o| o == op)
                    .expect("every opcode appears in Opcode::ALL") as u64
            })
            .collect()
    }

    /// Serializes the request back to one wire line (used by the request
    /// generator; field order is fixed so generated corpora are
    /// byte-stable).
    pub fn to_line(&self) -> String {
        let mut s = format!(
            "{{\"id\":\"{}\",\"machine\":\"{}\",\"backend\":\"{}\"",
            json::escape(&self.id),
            json::escape(&self.machine),
            self.backend
        );
        if self.budget_ratio != 2.0 {
            // budget_ratio values are restricted to halves by the
            // generator, so this Display form is byte-stable.
            s.push_str(&format!(",\"budget_ratio\":{}", self.budget_ratio));
        }
        if let Some(m) = self.max_ii {
            s.push_str(&format!(",\"max_ii\":{m}"));
        }
        if let Some(n) = self.node_limit {
            s.push_str(&format!(",\"node_limit\":{n}"));
        }
        if let Some(p) = self.pressure_limit {
            s.push_str(&format!(",\"pressure_limit\":{p}"));
        }
        s.push_str(",\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", op.mnemonic()));
        }
        s.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "[{},{},{},{},\"{}\",{}]",
                e.from, e.to, e.delay, e.distance, e.kind, e.is_mem
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::gen_requests;
    use crate::json::MAX_DEPTH;
    use ims_testkit::rng::{Rng, Xoshiro256};

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id":"x","machine":"minimal","backend":"exact","budget_ratio":4.0,
                "max_ii":9,"node_limit":1000,"ops":["add","mul"],
                "edges":[[0,1,2,0,"flow",false],[1,0,1,1,"anti",true]]}"#,
        )
        .unwrap();
        assert_eq!(r.id, "x");
        assert_eq!(r.machine, "minimal");
        assert_eq!(r.backend, BackendSpec::Leaf(ims_core::BackendKind::Exact));
        assert_eq!(r.budget_ratio, 4.0);
        assert_eq!(r.max_ii, Some(9));
        assert_eq!(r.node_limit, Some(1000));
        assert_eq!(r.ops, vec![Opcode::Add, Opcode::Mul]);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.edges[1].kind, DepKind::Anti);
        assert!(r.edges[1].is_mem);
    }

    #[test]
    fn defaults_apply() {
        let r = parse_request(r#"{"id":"d","ops":["add"]}"#).unwrap();
        assert_eq!(r.machine, "cydra");
        assert_eq!(r.backend, BackendSpec::Leaf(ims_core::BackendKind::Ims));
        assert_eq!(r.budget_ratio, 2.0);
        assert_eq!(r.max_ii, None);
        assert!(r.edges.is_empty());
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, needle) in [
            ("{\"ops\":[\"add\"]}", "\"id\""),
            (r#"{"id":"a","ops":[]}"#, "at least one"),
            (r#"{"id":"a","ops":["frobnicate"]}"#, "unknown opcode"),
            (
                r#"{"id":"a","machine":"pdp11","ops":["add"]}"#,
                "unknown machine",
            ),
            (
                r#"{"id":"a","backend":"magic","ops":["add"]}"#,
                "unknown backend",
            ),
            (
                r#"{"id":"a","backend":"portfolio(ims,magic)","ops":["add"]}"#,
                "unknown backend",
            ),
            (
                r#"{"id":"a","backend":"portfolio()","ops":["add"]}"#,
                "at least one member",
            ),
            (
                r#"{"id":"a","ops":["add"],"edges":[[0,5,1,0,"flow",false]]}"#,
                "out of range",
            ),
            (
                r#"{"id":"a","ops":["add"],"edges":[[0,0,1,0,"data",false]]}"#,
                "kind",
            ),
            (
                r#"{"id":"a","budget_ratio":-1,"ops":["add"]}"#,
                "budget_ratio",
            ),
            (r#"{"id":"a","max_ii":0,"ops":["add"]}"#, "max_ii"),
            (
                r#"{"id":"a","pressure_limit":0,"ops":["add"]}"#,
                "pressure_limit",
            ),
            (
                r#"{"id":"a","pressure_limit":"big","ops":["add"]}"#,
                "pressure_limit",
            ),
            ("not json", "invalid JSON"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn stats_requests_are_detected() {
        let stats = |line: &str| json::parse(line).ok().as_ref().and_then(stats_id);
        assert_eq!(stats(r#"{"id":"s1","stats":true}"#).as_deref(), Some("s1"));
        // `stats` wins over any scheduling fields riding along.
        assert_eq!(
            stats(r#"{"id":"s2","stats":true,"ops":["add"]}"#).as_deref(),
            Some("s2")
        );
        for line in [
            r#"{"id":"a","stats":false}"#,
            r#"{"id":"a","stats":1}"#,
            r#"{"stats":true}"#,
            r#"{"id":"a","ops":["add"]}"#,
            "not json",
        ] {
            assert!(stats(line).is_none(), "{line}");
        }
    }

    #[test]
    fn machine_names_resolve() {
        for name in [
            "cydra",
            "cydra_simple",
            "figure1",
            "minimal",
            "single_alu",
            "wide4",
            "cydra_rf16",
        ] {
            assert!(machine_by_name(name).is_some(), "{name}");
        }
        assert!(machine_by_name("widex").is_none());
        assert!(machine_by_name("cydra_rfx").is_none());
        assert!(machine_by_name("vax").is_none());
        assert_eq!(
            machine_by_name("cydra_rf12").unwrap().register_file(),
            Some(12)
        );
    }

    #[test]
    fn pressure_limited_requests_round_trip() {
        let line = r#"{"id":"pl","machine":"cydra_rf16","backend":"ims","pressure_limit":16,"ops":["load","add"],"edges":[[0,1,13,0,"flow",false]]}"#;
        let r = parse_request(line).unwrap();
        assert_eq!(r.pressure_limit, Some(16));
        assert_eq!(r.machine, "cydra_rf16");
        assert_eq!(r.to_line(), line);
        assert_eq!(parse_request(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn wide0_parses_but_construction_panics() {
        // Shape-valid name with a panicking constructor: the parse layer
        // lets it through so the worker's panic containment (not the
        // serial parse stage) owns the failure.
        let line = r#"{"id":"w","machine":"wide0","ops":["add"]}"#;
        assert_eq!(parse_request(line).unwrap().machine, "wide0");
        assert!(std::panic::catch_unwind(|| machine_by_name("wide0")).is_err());
    }

    #[test]
    fn wide_machines_stop_at_one_occupancy_word() {
        let line = |m: &str| format!(r#"{{"id":"w","machine":"{m}","ops":["add"]}}"#);
        assert_eq!(parse_request(&line("wide64")).unwrap().machine, "wide64");
        assert_eq!(machine_by_name("wide64").unwrap().name(), "wide64");
        // Constructing wide10000000000 would allocate 40 GB and abort the
        // process, out of reach of any panic containment.
        for name in ["wide65", "wide10000000000", "wide99999999999999999999"] {
            assert_eq!(
                parse_request(&line(name)),
                Err(format!("unknown machine {name:?}"))
            );
            assert!(machine_by_name(name).is_none(), "{name}");
        }
    }

    /// `parse_request` before the decoder: the tree alone.
    fn tree(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        request_from_value(&v)
    }

    /// Lines in shapes the generator never writes, made from `line`: the
    /// decoder takes some of them and leaves the rest to the tree.
    fn mutations(line: &str, rng: &mut Xoshiro256) -> Vec<String> {
        let body = &line[1..line.len() - 1];
        let (head, edges) = body.split_at(body.find(r#","edges":"#).unwrap());
        let (id, rest) = body.split_at(body.find(r#","machine":"#).unwrap());
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let n_ops = tree(line).unwrap().ops.len();
        let out_of_range = format!(r#"[[{n_ops},0,1,0,"flow",false],["#);
        let mut out = vec![
            // Duplicate keys: the last one wins.
            format!(r#"{{{body},"machine":"minimal"}}"#),
            format!(r#"{{"id":"first",{body}}}"#),
            format!(r#"{{{body},"zz":1,"zz":[2]}}"#),
            // Keys out of order: edges before ops, also with an edge out
            // of their range, and id last.
            format!("{{{},{head}}}", &edges[1..]),
            format!("{{{},{head}}}", &edges[1..]).replacen("[[", &out_of_range, 1),
            format!("{{{},{id}}}", &rest[1..]),
            // Unknown and nested fields.
            format!(r#"{{"zz":{{"a":[1,{{"b":null}}],"c":"\""}},{body},"more":[[],{{}},true]}}"#),
            // Escaped keys and an escaped id.
            line.replacen(r#""id":"l"#, r#""\u0069d":"\u006c"#, 1),
            line.replacen(r#""ops""#, r#""\u006fps""#, 1),
            line.replacen(r#""id":"l"#, r#""id":"\"\\\/l"#, 1),
            // Numbers: integral floats, -0, 1e17, fractions and signs.
            line.replace(r#",0,""#, r#",-0,""#),
            line.replace(r#",0,""#, r#",0.0,""#),
            line.replacen(r#",0,""#, r#",0.5,""#, 1),
            line.replacen(",3,", ",3e0,", 1),
            line.replacen(",3,", ",3.5,", 1),
            line.replacen(",3,", ",+3,", 1),
            line.replacen(r#""ops""#, r#""max_ii":1e17,"ops""#, 1),
            line.replacen(
                r#""ops""#,
                r#""budget_ratio":2.5,"max_ii":40.0,"node_limit":null,"pressure_limit":null,"ops""#,
                1,
            ),
            line.replacen(r#""ops""#, r#""budget_ratio":-0,"ops""#, 1),
            // Whitespace between tokens.
            format!(" {} ", line.replace(',', " ,\t").replace(':', " :\n")),
            // Nesting at and past the depth bound.
            format!(r#"{{"deep":{},{body}}}"#, nest(MAX_DEPTH - 1)),
            format!(r#"{{"deep":{},{body}}}"#, nest(MAX_DEPTH)),
            // A stats key, which only a stats probe reads.
            format!(r#"{{"stats":true,{body}}}"#),
        ];
        // Byte flips and truncations.
        for _ in 0..4 {
            let mut bytes = line.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = *rng.choose(br#""\,:[]{}0-.e x"#).unwrap();
            out.push(String::from_utf8(bytes).expect("generated lines are ASCII"));
            out.push(line[..rng.gen_range(0..line.len())].to_string());
        }
        out
    }

    #[test]
    fn the_decoder_agrees_with_the_tree() {
        let mut rng = Xoshiro256::seed_from_u64(0xC4D5);
        let (mut decoded, mut fell_back) = (0, 0);
        for line in gen_requests(50389, 1327) {
            // The decoder alone reads every generated request.
            let fast = decode(&line).unwrap_or_else(|| panic!("decoder fell back on {line}"));
            assert_eq!(Ok(fast), tree(&line), "{line}");
            for m in mutations(&line, &mut rng) {
                assert_eq!(parse_request(&m), tree(&m), "{m}");
                match decode(&m) {
                    Some(_) => decoded += 1,
                    None => fell_back += 1,
                }
            }
        }
        // Both paths see thousands of the mutated lines.
        assert!(
            decoded > 10_000 && fell_back > 10_000,
            "{decoded} / {fell_back}"
        );
    }

    #[test]
    fn to_line_round_trips() {
        let line = r#"{"id":"rt","machine":"wide2","backend":"ims","ops":["load","add"],"edges":[[0,1,13,0,"flow",false]]}"#;
        let r = parse_request(line).unwrap();
        assert_eq!(r.to_line(), line);
        assert_eq!(parse_request(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn portfolio_specs_parse_canonically_and_round_trip() {
        let r = parse_request(r#"{"id":"p","backend":" portfolio( exact , sat ) ","ops":["add"]}"#)
            .unwrap();
        // Whitespace-tolerant in, canonical form out.
        assert_eq!(r.backend.to_string(), "portfolio(exact,sat)");
        let line = r.to_line();
        assert!(
            line.contains("\"backend\":\"portfolio(exact,sat)\""),
            "{line}"
        );
        assert_eq!(parse_request(&line).unwrap(), r);
    }
}
