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
//! before any of it is parsed. Every other line is read in one pass of
//! the JSON pull reader ([`json::Reader`]), with no tree, keeping the last
//! value of each field. Then the first fault found decides the answer, in
//! this order: JSON syntax, a document that is not an object, a stats
//! probe, then the fields `id`, `machine`, `backend`, `budget_ratio`,
//! `max_ii`, `node_limit`, `pressure_limit`, `ops` and `edges` by index.
//! An error response echoes the line's `id` when that is a string.

use std::borrow::Cow;
use std::sync::OnceLock;

use ims_core::BackendSpec;
use ims_graph::{DepEdge, DepKind, NodeId};
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

impl From<WireEdge> for DepEdge {
    fn from(e: WireEdge) -> Self {
        DepEdge {
            from: NodeId(e.from),
            to: NodeId(e.to),
            delay: e.delay,
            distance: e.distance,
            kind: e.kind,
            is_mem: e.is_mem,
        }
    }
}

impl From<DepEdge> for WireEdge {
    fn from(e: DepEdge) -> Self {
        WireEdge {
            from: e.from.0,
            to: e.to.0,
            delay: e.delay,
            distance: e.distance,
            kind: e.kind,
            is_mem: e.is_mem,
        }
    }
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

/// A machine constructor that takes no parameter.
type Build = fn() -> MachineModel;

/// The machines a request names without a parameter, with their
/// constructors.
const NAMED_MACHINES: [(&str, Build); 5] = [
    ("cydra", cydra),
    ("cydra_simple", cydra_simple),
    ("figure1", figure1_machine),
    ("minimal", minimal),
    ("single_alu", single_alu),
];

/// Resolves a wire-format machine name to a model. `cydra_rf<N>` accepts
/// any `u32` suffix (e.g. `cydra_rf16`), `wide<K>` any suffix up to
/// [`MAX_WIDE`] (e.g. `wide3`).
///
/// Each machine named without a parameter is built once per process, on
/// first use, and lent out; `cydra_rf<N>` and `wide<K>` are built per
/// call, so no table grows with the names requests carry.
///
/// # Panics
///
/// Propagates constructor panics (`wide0`: width must be positive;
/// `cydra_rf0`: register file must be positive). [`parse_request`] checks
/// only the name *shape*, so such a request reaches the scheduling
/// worker, whose panic containment turns the constructor failure into a
/// per-request error response instead of taking the service down.
pub fn machine_by_name(name: &str) -> Option<Cow<'static, MachineModel>> {
    static BUILT: [OnceLock<MachineModel>; NAMED_MACHINES.len()] =
        [const { OnceLock::new() }; NAMED_MACHINES.len()];
    if let Some(i) = NAMED_MACHINES.iter().position(|&(n, _)| n == name) {
        return Some(Cow::Borrowed(BUILT[i].get_or_init(NAMED_MACHINES[i].1)));
    }
    if let Some(n) = name.strip_prefix("cydra_rf") {
        return n.parse().ok().map(|n| Cow::Owned(cydra_rf(n)));
    }
    wide_width(name).map(|k| Cow::Owned(wide(k)))
}

/// The `K` of a `wide<K>` name, if it is at most [`MAX_WIDE`].
fn wide_width(name: &str) -> Option<usize> {
    let k: usize = name.strip_prefix("wide")?.parse().ok()?;
    (k <= MAX_WIDE).then_some(k)
}

/// Shape-only name check used at parse time; construction (and any
/// constructor panic) is deferred to the worker.
fn machine_name_is_wellformed(name: &str) -> bool {
    NAMED_MACHINES.iter().any(|&(n, _)| n == name)
        || wide_width(name).is_some()
        || name
            .strip_prefix("cydra_rf")
            .is_some_and(|n| n.parse::<u32>().is_ok())
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

/// Parses and validates one request line. A `stats` field plays no
/// part here: it makes a probe only in the engine.
///
/// # Errors
///
/// A human-readable description of the first problem found: JSON syntax,
/// missing/ill-typed fields, unknown mnemonics/machines/kinds, or
/// out-of-range edge endpoints. The error string is a pure function of
/// the line, so error responses are as deterministic as successes.
pub fn parse_request(line: &str) -> Result<Request, String> {
    decode(line).request.map_err(|r| r.error)
}

/// The fields of a request besides `ops` and `edges`, in the order their
/// errors take precedence.
const HEAD: [&str; 7] = [
    "id",
    "machine",
    "backend",
    "budget_ratio",
    "max_ii",
    "node_limit",
    "pressure_limit",
];

/// One request line as [`decode`] reads it.
pub(crate) struct Decoded {
    /// The `id` of a stats probe: an object whose last `stats` is `true`
    /// and whose last `id` is a string, whatever else it holds.
    pub(crate) probe: Option<String>,
    /// The request, or why it is refused.
    pub(crate) request: Result<Request, Rejected>,
}

/// A refused request line: the first problem found, and the `id` its
/// response echoes (the line's `id` when that is a string, else empty).
pub(crate) struct Rejected {
    pub(crate) id: String,
    pub(crate) error: String,
}

/// The last value of each request field of a line, as JSON keeps the
/// last of duplicate keys.
#[derive(Default)]
struct Fields {
    /// The [`HEAD`] fields, a container held as an empty array.
    head: [Option<Value>; HEAD.len()],
    /// Whether `stats` is `true`.
    stats: bool,
    ops: Option<Result<Vec<Opcode>, String>>,
    edges: Option<Edges>,
}

/// Reads one line in one pass of the pull reader, with no tree, and
/// decides what it is once the document has ended: a syntax error, a
/// document that is not an object, a stats probe, then the first field
/// error in the order `id`, the rest of [`HEAD`], `ops`, `edges`.
pub(crate) fn decode(line: &str) -> Decoded {
    let mut f = Fields::default();
    let error = match read_fields(line, &mut f) {
        Ok(true) => {
            let id = f.head[0].as_ref().and_then(Value::as_str);
            let probe = id.filter(|_| f.stats).map(str::to_string);
            let request = request(f);
            return Decoded { probe, request };
        }
        Ok(false) => "request must be a JSON object".to_string(),
        Err(e) => format!("invalid JSON: {e}"),
    };
    let (id, probe) = (String::new(), None);
    let request = Err(Rejected { id, error });
    Decoded { probe, request }
}

/// Reads every token of `line` into `f`: `Ok(false)` when the document is
/// not an object, `Err` at the first syntax error.
///
/// Each token is matched in the `Result` that [`Reader::next_token`]
/// returns, binding only its payload: moving a whole token out, as `?`
/// would, costs a misaligned copy per token.
fn read_fields(line: &str, f: &mut Fields) -> Result<bool, String> {
    let mut r = Reader::new(line);
    let first = r.next_token()?;
    if !matches!(first, Token::ObjectStart) {
        r.skip_value(&first)?;
        r.finish()?;
        return Ok(false);
    }
    loop {
        let key = match r.next_token() {
            Ok(Token::Key(key)) => key,
            Ok(_) => break,
            Err(e) => return Err(e),
        };
        match &*key {
            "ops" => f.ops = Some(read_ops(&mut r)?),
            "edges" => f.edges = Some(read_edges(&mut r)?),
            key => {
                let i = HEAD.iter().position(|&h| h == key);
                let value = match r.next_token() {
                    Ok(Token::Scalar(v)) if i.is_some() => v,
                    Ok(Token::Str(s)) if i.is_some() => Value::Str(s.into_owned()),
                    Ok(token) => {
                        r.skip_value(&token)?;
                        if key == "stats" {
                            f.stats = matches!(token, Token::Scalar(Value::Bool(true)));
                        }
                        // A container, which no scalar accessor takes.
                        Value::Arr(Vec::new())
                    }
                    Err(e) => return Err(e),
                };
                if let Some(i) = i {
                    f.head[i] = Some(value);
                }
            }
        }
    }
    r.finish()?;
    Ok(true)
}

/// Reads the `[` that opens an array value: `Ok(false)`, with the value
/// read past, when the value is not an array.
fn open_array(r: &mut Reader<'_>) -> Result<bool, String> {
    match r.next_token() {
        Ok(Token::ArrayStart) => Ok(true),
        Ok(value) => r.skip_value(&value).map(|()| false),
        Err(e) => Err(e),
    }
}

/// The `ops` value: its opcodes, or the error of its first bad element.
/// The outer error is a syntax error.
fn read_ops(r: &mut Reader<'_>) -> Result<Result<Vec<Opcode>, String>, String> {
    if !open_array(r)? {
        return Ok(Err("missing array field \"ops\"".to_string()));
    }
    let mut ops = Vec::new();
    let error = loop {
        match r.next_token() {
            Ok(Token::Str(s)) => match Opcode::from_mnemonic(&s) {
                Some(op) => ops.push(op),
                None => break format!("unknown opcode {s:?}"),
            },
            Ok(Token::ArrayEnd) if ops.is_empty() => {
                return Ok(Err("\"ops\" must name at least one operation".to_string()))
            }
            Ok(Token::ArrayEnd) => return Ok(Ok(ops)),
            Ok(token) => {
                r.skip_value(&token)?;
                break format!("ops[{}] must be a mnemonic string", ops.len());
            }
            Err(e) => return Err(e),
        }
    };
    // Read past the rest of the array, as if its `[` had just been read.
    r.skip_value(&Token::ArrayStart)?;
    Ok(Err(error))
}

/// An `edges` value as read: its edges up to the first error found while
/// reading, and that error. The edge with the error is kept unless its
/// shape is wrong, since its endpoints, checked once the final op count
/// is known, come first. Until then an endpoint that is not a `u32` is
/// held as `u32::MAX`, out of range for any op count below 2³².
struct Edges {
    edges: Vec<WireEdge>,
    error: Option<String>,
}

/// The `edges` value. The error is a syntax error.
fn read_edges(r: &mut Reader<'_>) -> Result<Edges, String> {
    let mut edges = Vec::new();
    if !open_array(r)? {
        let error = Some("field \"edges\" must be an array".to_string());
        return Ok(Edges { edges, error });
    }
    let error = loop {
        let i = edges.len();
        let shape = || format!("edges[{i}] must be [from,to,delay,distance,kind,is_mem]");
        match r.next_token() {
            Ok(Token::ArrayEnd) => return Ok(Edges { edges, error: None }),
            Ok(Token::ArrayStart) => {}
            Ok(token) => {
                r.skip_value(&token)?;
                break shape();
            }
            Err(e) => return Err(e),
        }
        let (mut ends, mut n) = ([u32::MAX; 2], 0);
        let (mut delay, mut distance, mut kind, mut is_mem) = (None, None, None, None);
        loop {
            let field = r.next_token();
            match (n, &field) {
                (_, Ok(Token::ArrayEnd)) => break,
                (0 | 1, Ok(Token::Scalar(v))) => {
                    ends[n] = u32::try_from(v.as_i64().unwrap_or(-1)).unwrap_or(u32::MAX);
                }
                (2, Ok(Token::Scalar(v))) => delay = v.as_i64(),
                (3, Ok(Token::Scalar(v))) => distance = v.as_i64().and_then(|d| d.try_into().ok()),
                (4, Ok(Token::Str(s))) => kind = kind_by_name(s),
                (5, Ok(Token::Scalar(v))) => is_mem = v.as_bool(),
                (_, Ok(token)) => r.skip_value(token)?,
                (_, Err(e)) => return Err(e.clone()),
            }
            n += 1;
        }
        if n != 6 {
            break shape();
        }
        edges.push(WireEdge {
            from: ends[0],
            to: ends[1],
            delay: delay.unwrap_or_default(),
            distance: distance.unwrap_or_default(),
            kind: kind.unwrap_or(DepKind::Flow),
            is_mem: is_mem.unwrap_or_default(),
        });
        let missing = match (delay, distance, kind, is_mem) {
            (None, ..) => "delay must be an integer",
            (_, None, ..) => "distance must be a u32",
            (_, _, None, _) => "unknown dependence kind",
            (.., None) => "is_mem must be a boolean",
            _ => continue,
        };
        break format!("edges[{i}]: {missing}");
    };
    // Read past the rest of the array, as if its `[` had just been read.
    r.skip_value(&Token::ArrayStart)?;
    let error = Some(error);
    Ok(Edges { edges, error })
}

impl Edges {
    /// The edges over `n_ops` operations, or the first error by index.
    fn check(self, n_ops: usize) -> Result<Vec<WireEdge>, String> {
        let out = |n: u32| n as usize >= n_ops;
        for (i, e) in self.edges.iter().enumerate() {
            match (out(e.from), out(e.to)) {
                (false, false) => {}
                (true, _) => return Err(format!("edges[{i}]: from out of range")),
                (false, true) => return Err(format!("edges[{i}]: to out of range")),
            }
        }
        self.error.map_or(Ok(self.edges), Err)
    }
}

/// The request `f` holds, or its first error: `id`, the rest of
/// [`HEAD`] in order, `ops`, then `edges` by index.
fn request(f: Fields) -> Result<Request, Rejected> {
    let [id, head @ ..] = f.head;
    let Some(Value::Str(id)) = id else {
        let error = "missing string field \"id\"".to_string();
        let id = String::new();
        return Err(Rejected { id, error });
    };
    let checked = request_head(head).and_then(|mut req| {
        let missing = || Err("missing array field \"ops\"".to_string());
        req.ops = f.ops.unwrap_or_else(missing)?;
        req.edges = f.edges.map_or(Ok(Vec::new()), |e| e.check(req.ops.len()))?;
        Ok(req)
    });
    match checked {
        Ok(req) => Ok(Request { id, ..req }),
        Err(error) => Err(Rejected { id, error }),
    }
}

/// A request with every [`HEAD`] field but `id` checked and set from
/// `head`, their values in that order; `id`, `ops` and `edges` are empty.
fn request_head(head: [Option<Value>; HEAD.len() - 1]) -> Result<Request, String> {
    let [machine, backend, ratio, max_ii, nodes, pressure] = head;
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
    let budget_ratio = match ratio.map(|r| r.as_f64()) {
        None => 2.0,
        Some(None) => return Err("field \"budget_ratio\" must be a number".to_string()),
        Some(Some(f)) if !f.is_finite() || f <= 0.0 => {
            return Err(format!("budget_ratio must be finite and positive, got {f}"))
        }
        Some(Some(f)) => f,
    };
    let max_ii = int_field(max_ii, "max_ii", 1, i64::MAX)?;
    let nodes = int_field(nodes, "node_limit", 0, i64::MAX)?;
    let pressure = int_field(pressure, "pressure_limit", 1, u32::MAX.into())?;
    Ok(Request {
        id: String::new(),
        machine,
        backend,
        budget_ratio,
        max_ii,
        node_limit: nodes.map(|n| n as u64),
        pressure_limit: pressure.map(|n| n as u32),
        ops: Vec::new(),
        edges: Vec::new(),
    })
}

/// The optional integer field `name`: absent or `null`, or an integer in
/// `min..=max`.
fn int_field(v: Option<Value>, name: &str, min: i64, max: i64) -> Result<Option<i64>, String> {
    match v.filter(|v| *v != Value::Null).map(|v| v.as_i64()) {
        None => Ok(None),
        Some(None) => Err(format!("field \"{name}\" must be an integer")),
        Some(Some(n)) if !(min..=max).contains(&n) => match min {
            0 => Err(format!("{name} must be non-negative, got {n}")),
            _ => Err(format!("{name} must be at least {min}, got {n}")),
        },
        Some(n) => Ok(n),
    }
}

impl Request {
    /// Canonicalization labels, one per operation: the opcode's index in
    /// [`Opcode::ALL`], which is its discriminant (`ims-machine` indexes
    /// its opcode table the same way) — stable across node renumberings by
    /// construction, and the only per-node attribute the wire carries.
    pub fn labels(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().map(|&op| op as u64)
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
        let stats = |line: &str| decode(line).probe;
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
        // A parameterless machine is built once and lent out; the others
        // are built per call.
        for (name, build) in NAMED_MACHINES {
            let (Some(Cow::Borrowed(a)), Some(Cow::Borrowed(b))) =
                (machine_by_name(name), machine_by_name(name))
            else {
                panic!("{name} is lent out");
            };
            assert!(std::ptr::eq(a, b), "{name}");
            assert_eq!(*a, build(), "{name}");
        }
        assert!(matches!(machine_by_name("cydra_rf8"), Some(Cow::Owned(_))));
        assert!(matches!(machine_by_name("wide2"), Some(Cow::Owned(_))));
    }

    #[test]
    fn labels_are_indices_into_opcode_all() {
        let r = Request {
            ops: Opcode::ALL.to_vec(),
            ..parse_request(r#"{"id":"l","ops":["add"]}"#).unwrap()
        };
        let expect: Vec<u64> = (0..Opcode::ALL.len() as u64).collect();
        assert_eq!(r.labels().collect::<Vec<_>>(), expect);
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

    /// The tree path the engine read lines through before the one-pass
    /// reader: [`json::parse`], then a stats probe or a request checked
    /// field by field. Kept verbatim as the reference the reader must
    /// match.
    mod tree {
        use super::super::{kind_by_name, machine_name_is_wellformed, Request, WireEdge, HEAD};
        use crate::json::Value;
        use ims_core::BackendSpec;
        use ims_graph::DepKind;
        use ims_ir::Opcode;

        fn opcode_by_mnemonic(s: &str) -> Option<Opcode> {
            Opcode::ALL.iter().copied().find(|o| o.mnemonic() == s)
        }

        /// Detects a statistics request — `{"id":"…","stats":true}` — in a
        /// parsed line and returns its `id`.
        ///
        /// A line whose `stats` field is boolean `true` and whose `id` is a
        /// string is a stats request regardless of any other fields present;
        /// anything else (including `"stats":false` or a missing `id`) returns
        /// `None` and goes on to [`request_from_value`] as usual. Stats requests
        /// never touch the cache and are never hashed.
        pub(super) fn stats_id(v: &Value) -> Option<String> {
            let obj = v.as_obj()?;
            if obj.get("stats").and_then(Value::as_bool) != Some(true) {
                return None;
            }
            obj.get("id").and_then(Value::as_str).map(str::to_string)
        }

        /// [`parse_request`] over an already-parsed line.
        pub(super) fn request_from_value(v: &Value) -> Result<Request, String> {
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
    }

    /// What the engine makes of one line, short of keying a request: a
    /// probe's id, the request, or the error with the id its response
    /// echoes. An error response is a pure function of that pair.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Probe(String),
        Request(Request),
        Invalid { id: String, error: String },
    }

    /// The reader's answer, as the engine maps it.
    fn answer(line: &str) -> Answer {
        match decode(line) {
            Decoded {
                probe: Some(id), ..
            } => Answer::Probe(id),
            Decoded {
                request: Ok(req), ..
            } => Answer::Request(req),
            Decoded {
                request: Err(Rejected { id, error }),
                ..
            } => Answer::Invalid { id, error },
        }
    }

    /// The tree path's answer: the engine's answer before the reader.
    fn reference(line: &str) -> Answer {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                let (id, error) = (String::new(), format!("invalid JSON: {e}"));
                return Answer::Invalid { id, error };
            }
        };
        if let Some(id) = tree::stats_id(&v) {
            return Answer::Probe(id);
        }
        match tree::request_from_value(&v) {
            Ok(req) => Answer::Request(req),
            Err(error) => {
                let id = v.get("id").and_then(Value::as_str).unwrap_or_default();
                let id = id.to_string();
                Answer::Invalid { id, error }
            }
        }
    }

    /// `parse_request` before the reader: the tree alone.
    fn tree(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        tree::request_from_value(&v)
    }

    /// Lines in shapes the generator never writes, made from `line`: valid
    /// and invalid requests, probes, and lines with more than one fault.
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
            // Stats keys: a probe only when the last one is `true`.
            format!(r#"{{"stats":true,{body}}}"#),
            format!(r#"{{"stats":false,{body}}}"#),
            format!(r#"{{"stats":"true",{body}}}"#),
            format!(r#"{{"stats":[true],{body}}}"#),
            format!(r#"{{"stats":true,{body},"stats":false}}"#),
            format!(r#"{{"stats":false,{body},"stats":true}}"#),
            // Documents that are not objects.
            format!("[{line}]"),
            format!("{n_ops}"),
            // Duplicate ops: the bad copy first, then last.
            format!(r#"{{"ops":["frobnicate"],{body}}}"#),
            format!(r#"{{{body},"ops":["add",7]}}"#),
            format!(r#"{{{body},"ops":"add"}}"#),
            format!(r#"{{{body},"ops":[]}}"#),
            // Edges before a later ops that shrinks the op count.
            format!(r#"{{{},{head},"ops":["add"]}}"#, &edges[1..]),
            // An edge whose endpoint and delay are both bad: the endpoint
            // is reported; so is an earlier edge's before a later delay. A
            // 5-element edge's endpoints are never checked.
            line.replacen("[[", &format!(r#"[[0,{n_ops},1.5,0,"flow",false],["#), 1),
            line.replacen(
                "[[",
                &format!(r#"[[{n_ops},0,1,0,"flow",false],[0,0,[],0,"flow",false],["#),
                1,
            ),
            line.replacen("[[", &format!(r#"[[{n_ops},0,1,0,"flow"],["#), 1),
            // A 5-element edge, and edges with a container field.
            line.replacen(",false]", "]", 1),
            line.replacen(r#",0,""#, r#",[0],""#, 1),
            line.replacen(r#""flow""#, r#"{"k":"flow"}"#, 1),
            // A non-string id together with a field error.
            line.replacen(r#""id":"#, r#""id":7,"x":"#, 1)
                .replacen(r#""cydra""#, r#""pdp11""#, 1),
        ];
        // A container in each head field, the last copy of that field.
        for (i, key) in HEAD.iter().enumerate() {
            let container = if i % 2 == 0 {
                "[1,[]]"
            } else {
                r#"{"k":[null]}"#
            };
            out.push(line.replacen(r#""ops""#, &format!(r#""{key}":{container},"ops""#), 1));
        }
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
        let (mut accepted, mut rejected) = (0, 0);
        for line in gen_requests(50389, 1327) {
            assert!(matches!(answer(&line), Answer::Request(_)), "{line}");
            assert_eq!(answer(&line), reference(&line), "{line}");
            for m in mutations(&line, &mut rng) {
                let a = answer(&m);
                assert_eq!(a, reference(&m), "{m}");
                assert_eq!(parse_request(&m), tree(&m), "{m}");
                match a {
                    Answer::Invalid { .. } => rejected += 1,
                    Answer::Probe(_) | Answer::Request(_) => accepted += 1,
                }
            }
        }
        // Requests and probes, and errors, each make up thousands of lines.
        assert!(
            accepted > 10_000 && rejected > 10_000 && accepted + rejected >= 40_000,
            "{accepted} / {rejected}"
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
