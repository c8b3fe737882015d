//! Versioned `BENCH_<name>.json` profile snapshots.
//!
//! A snapshot is a small, stable JSON document with the **deterministic
//! sections first** (counters and histogram summaries — byte-identical
//! for any `--threads` value) and the **wall section last**
//! (span counts and p50/p90/p99 percentiles in nanoseconds — machine- and
//! run-dependent). The split is load-bearing: determinism tests and
//! `scripts/verify.sh` byte-compare [`deterministic_section`] across
//! thread counts, and the golden gate pins its bytes, while the wall
//! section is never compared.
//!
//! [`Snapshot::parse`] reads a snapshot through the workspace JSON
//! module ([`ims_testkit::json`]). It accepts any JSON object of the
//! snapshot shape (unknown keys are ignored, so the schema can grow) whose
//! numeric fields are integers that fit their field types: the schema
//! writes no floats, so a fraction or exponent is malformed.

use std::collections::BTreeMap;

use ims_testkit::json::{self, Value};

use crate::registry::MetricsRegistry;

/// Current snapshot schema version, rendered as `bench_schema`.
pub const SCHEMA_VERSION: u64 = 1;

/// Percentile summary of a deterministic histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: i128,
    /// 50th/90th/99th percentiles (nearest rank) and the maximum.
    pub p50: i64,
    /// 90th percentile.
    pub p90: i64,
    /// 99th percentile.
    pub p99: i64,
    /// Largest observation.
    pub max: i64,
}

/// Percentile summary of a wall-clock span histogram (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallSummary {
    /// Number of spans recorded.
    pub spans: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: i128,
    /// 50th percentile span, ns.
    pub p50_ns: i64,
    /// 90th percentile span, ns.
    pub p90_ns: i64,
    /// 99th percentile span, ns.
    pub p99_ns: i64,
    /// Longest span, ns.
    pub max_ns: i64,
}

/// A parsed (or freshly built) profile snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Schema version (`bench_schema`).
    pub schema: u64,
    /// Snapshot name (`BENCH_<name>.json`).
    pub name: String,
    /// Deterministic work counters by phase.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic histogram summaries by phase.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Wall-clock span summaries by phase (non-deterministic).
    pub wall: BTreeMap<String, WallSummary>,
}

impl Snapshot {
    /// Summarizes a registry into a snapshot named `name`.
    pub fn from_registry(name: &str, reg: &MetricsRegistry) -> Snapshot {
        let mut s = Snapshot {
            schema: SCHEMA_VERSION,
            name: name.to_string(),
            ..Snapshot::default()
        };
        for (k, v) in reg.counters() {
            s.counters.insert(k.to_string(), v);
        }
        for (k, h) in reg.hists() {
            s.histograms.insert(
                k.to_string(),
                HistSummary {
                    count: h.total(),
                    sum: h.sum(),
                    p50: h.p50().unwrap_or(0),
                    p90: h.p90().unwrap_or(0),
                    p99: h.p99().unwrap_or(0),
                    max: h.max().unwrap_or(0),
                },
            );
        }
        for (k, h) in reg.walls() {
            s.wall.insert(
                k.to_string(),
                WallSummary {
                    spans: h.total(),
                    total_ns: h.sum(),
                    p50_ns: h.p50().unwrap_or(0),
                    p90_ns: h.p90().unwrap_or(0),
                    p99_ns: h.p99().unwrap_or(0),
                    max_ns: h.max().unwrap_or(0),
                },
            );
        }
        s
    }

    /// Renders the snapshot as pretty-printed JSON, deterministic
    /// sections first, keys in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"bench_schema\": {},\n", self.schema));
        out.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&self.name)));
        out.push_str("  \"deterministic\": {\n");
        render_map(&mut out, "counters", &self.counters, 4, |v| v.to_string());
        out.push_str(",\n");
        render_map(&mut out, "histograms", &self.histograms, 4, |h| {
            format!(
                "{{ \"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }}",
                h.count, h.sum, h.p50, h.p90, h.p99, h.max
            )
        });
        out.push_str("\n  },\n");
        render_map(&mut out, "wall", &self.wall, 2, |w| {
            format!(
                "{{ \"spans\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {} }}",
                w.spans, w.total_ns, w.p50_ns, w.p90_ns, w.p99_ns, w.max_ns
            )
        });
        out.push_str("\n}\n");
        out
    }

    /// Parses a rendered snapshot.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON or a missing/mistyped
    /// required field.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = json::parse(text)?;
        let top = v.as_obj().ok_or("snapshot is not a JSON object")?;
        let schema = int(top, "bench_schema")?;
        let name = match top.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing string field \"name\"".into()),
        };
        let det = top
            .get("deterministic")
            .and_then(Value::as_obj)
            .ok_or("missing object field \"deterministic\"")?;

        let mut s = Snapshot {
            schema,
            name,
            ..Snapshot::default()
        };
        if let Some(c) = det.get("counters").and_then(Value::as_obj) {
            for (k, v) in c {
                s.counters
                    .insert(k.clone(), v.as_int().ok_or("counter is not a u64")?);
            }
        }
        if let Some(hs) = det.get("histograms").and_then(Value::as_obj) {
            for (k, v) in hs {
                let o = v.as_obj().ok_or("histogram summary is not an object")?;
                s.histograms.insert(
                    k.clone(),
                    HistSummary {
                        count: int(o, "count")?,
                        sum: int(o, "sum")?,
                        p50: int(o, "p50")?,
                        p90: int(o, "p90")?,
                        p99: int(o, "p99")?,
                        max: int(o, "max")?,
                    },
                );
            }
        }
        if let Some(ws) = top.get("wall").and_then(Value::as_obj) {
            for (k, v) in ws {
                let o = v.as_obj().ok_or("wall summary is not an object")?;
                s.wall.insert(
                    k.clone(),
                    WallSummary {
                        spans: int(o, "spans")?,
                        total_ns: int(o, "total_ns")?,
                        p50_ns: int(o, "p50_ns")?,
                        p90_ns: int(o, "p90_ns")?,
                        p99_ns: int(o, "p99_ns")?,
                        max_ns: int(o, "max_ns")?,
                    },
                );
            }
        }
        Ok(s)
    }
}

/// The integer field `key`, which must fit `T`.
fn int<T: TryFrom<i128>>(obj: &BTreeMap<String, Value>, key: &str) -> Result<T, String> {
    obj.get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("missing integer field \"{key}\""))
}

/// Renders `name`'s registry as a snapshot document (the string written
/// to `BENCH_<name>.json`).
pub fn render_snapshot(name: &str, reg: &MetricsRegistry) -> String {
    Snapshot::from_registry(name, reg).render()
}

/// The deterministic slice of a rendered snapshot: everything from the
/// `"deterministic"` key up to (but excluding) the `"wall"` key. Two
/// profiled runs of the same work at different `--threads` values must
/// agree byte-for-byte on this slice; tests and `scripts/verify.sh`
/// compare exactly this.
pub fn deterministic_section(text: &str) -> Option<&str> {
    let start = text.find("\"deterministic\"")?;
    let end = text[start..].find("\"wall\"")? + start;
    Some(&text[start..end])
}

fn render_map<V>(
    out: &mut String,
    key: &str,
    map: &BTreeMap<String, V>,
    indent: usize,
    mut f: impl FnMut(&V) -> String,
) {
    let pad = " ".repeat(indent);
    if map.is_empty() {
        out.push_str(&format!("{pad}\"{key}\": {{}}"));
        return;
    }
    out.push_str(&format!("{pad}\"{key}\": {{\n"));
    let inner = " ".repeat(indent + 2);
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("{inner}\"{}\": {}", json::escape(k), f(v)));
    }
    out.push_str(&format!("\n{pad}}}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add(phase::GRAPH_MINDIST_WORK, 1234);
        reg.add(phase::SCHED_EVICTIONS, 5);
        for v in [1, 1, 2, 3, 10] {
            reg.observe(phase::HIST_SLOT_SEARCH, v);
        }
        reg.record_wall(phase::WALL_SCHED, 1_000);
        reg.record_wall(phase::WALL_SCHED, 3_000);
        reg
    }

    #[test]
    fn render_parse_round_trips() {
        let reg = sample_registry();
        let text = render_snapshot("corpus", &reg);
        let snap = Snapshot::parse(&text).expect("parses");
        assert_eq!(snap.schema, SCHEMA_VERSION);
        assert_eq!(snap.name, "corpus");
        assert_eq!(snap.counters[phase::GRAPH_MINDIST_WORK], 1234);
        let h = snap.histograms[phase::HIST_SLOT_SEARCH];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 17);
        assert_eq!(h.p50, 2);
        assert_eq!(h.max, 10);
        let w = snap.wall[phase::WALL_SCHED];
        assert_eq!(w.spans, 2);
        assert_eq!(w.total_ns, 4_000);
        // Rendering the parsed snapshot reproduces the bytes exactly.
        assert_eq!(snap.render(), text);
    }

    #[test]
    fn deterministic_section_excludes_wall() {
        let text = render_snapshot("x", &sample_registry());
        let det = deterministic_section(&text).expect("section present");
        assert!(det.contains(phase::GRAPH_MINDIST_WORK));
        assert!(det.contains("histograms"));
        assert!(!det.contains("total_ns"));
        assert!(!det.contains("spans"));
    }

    #[test]
    fn wall_differences_leave_the_deterministic_section_identical() {
        let mut a = sample_registry();
        let mut b = sample_registry();
        a.record_wall(phase::WALL_BUILD, 7);
        b.record_wall(phase::WALL_BUILD, 999_999);
        let ta = render_snapshot("n", &a);
        let tb = render_snapshot("n", &b);
        assert_ne!(ta, tb);
        assert_eq!(deterministic_section(&ta), deterministic_section(&tb));
    }

    #[test]
    fn empty_registry_renders_and_parses() {
        let text = render_snapshot("empty", &MetricsRegistry::new());
        let snap = Snapshot::parse(&text).unwrap();
        assert!(snap.counters.is_empty());
        assert!(snap.wall.is_empty());
        assert_eq!(snap.render(), text);
    }

    #[test]
    fn malformed_snapshots_are_rejected_with_messages() {
        for bad in [
            "",
            "{",
            "[1,2]",
            "{\"bench_schema\": 1}",
            "{\"bench_schema\": 1.5, \"name\": \"x\", \"deterministic\": {}}",
            "{\"bench_schema\": 1, \"name\": \"x\"}",
            "not json at all",
            "{\"bench_schema\": 1, \"name\": \"x\", \"deterministic\": {\"counters\": {\"c\": -1}}}",
            &"[".repeat(200_000),
        ] {
            let err = Snapshot::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:.40}");
        }
    }

    #[test]
    fn integer_extremes_round_trip() {
        let mut snap = Snapshot::from_registry("x", &sample_registry());
        snap.counters.insert("c".into(), u64::MAX);
        let h = HistSummary {
            count: u64::MAX,
            sum: i128::MAX,
            p50: i64::MIN,
            p90: 0,
            p99: 1,
            max: i64::MAX,
        };
        snap.histograms.insert("h".into(), h);
        let text = snap.render();
        assert_eq!(Snapshot::parse(&text).unwrap(), snap);
    }
}
