//! Result files and their comparison.
//!
//! `benchmark run` gathers the detail line of every child run and writes
//! one result file: per workload, every metric's median and quartiles
//! over the repetitions, plus the raw values. `benchmark compare` reads
//! two such files and judges each end-to-end metric against the bounds
//! in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ims_serve::json::{self, Value};

use crate::span::SelfTime;
use crate::stats::{median, quartiles};
use crate::WORKLOADS;

/// A metric's values over the repetitions of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Unit of the values.
    pub unit: String,
    /// One value per repetition.
    pub values: Vec<f64>,
}

impl Summary {
    /// Median over repetitions.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = quartiles(&self.values);
        let m = self.median();
        if m == 0.0 {
            if q3 == q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((q3 - q1) / m).abs()
        }
    }
}

/// Every metric of every repetition of one workload, keyed by name, plus
/// what the repetitions failed on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// End-to-end metrics.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer metrics.
    pub per_layer: BTreeMap<String, Summary>,
    /// Items attempted and failed, per repetition.
    pub attempted: Vec<u64>,
    /// Items that failed, per repetition.
    pub failed: Vec<u64>,
    /// Failures named by the repetitions (duplicates removed).
    pub failures: Vec<String>,
    /// Percentile reported as `lat_tail_us`.
    pub tail_percentile: f64,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("missing number {key:?}"))
}

fn add_metrics(into: &mut BTreeMap<String, Summary>, obj: Option<&Value>) -> Result<(), String> {
    for (name, m) in obj.and_then(Value::as_obj).into_iter().flatten() {
        let unit = m
            .get("unit")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let s = into.entry(name.clone()).or_insert(Summary {
            unit,
            values: Vec::new(),
        });
        s.values.push(num(m, "value")?);
    }
    Ok(())
}

impl WorkloadResult {
    /// Adds one repetition's detail line (see
    /// [`crate::RunResult::detail_json`]).
    ///
    /// # Errors
    ///
    /// The line is not a detail object.
    pub fn add_rep(&mut self, detail: &Value) -> Result<(), String> {
        add_metrics(&mut self.end_to_end, detail.get("end_to_end"))?;
        add_metrics(&mut self.per_layer, detail.get("per_layer"))?;
        self.attempted.push(num(detail, "attempted")? as u64);
        self.failed.push(num(detail, "failed")? as u64);
        self.tail_percentile = num(detail, "tail_percentile")?;
        for f in detail
            .get("failures")
            .and_then(Value::as_arr)
            .into_iter()
            .flatten()
        {
            let f = f.as_str().unwrap_or("").to_string();
            if !self.failures.contains(&f) {
                self.failures.push(f);
            }
        }
        Ok(())
    }
}

fn summaries_json(s: &mut String, metrics: &BTreeMap<String, Summary>) {
    s.push('{');
    for (i, (name, m)) in metrics.iter().enumerate() {
        let (q1, q3) = quartiles(&m.values);
        let values: Vec<String> = m.values.iter().map(f64::to_string).collect();
        let _ = write!(
            s,
            "{}\n      \"{name}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"values\": [{}]}}",
            if i > 0 { "," } else { "" },
            m.unit,
            m.median(),
            values.join(", ")
        );
    }
    s.push_str("\n    }");
}

/// What a workload's traced run showed.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Throughput of the traced run.
    pub items_per_s: f64,
    /// Share of the untraced median throughput lost to tracing.
    pub overhead: f64,
    /// Share of each loop's time covered by its layer spans.
    pub coverage: f64,
    /// Self time and calls per span name, per pass.
    pub layers: Vec<(String, SelfTime)>,
}

impl Traced {
    /// Reads a traced run's detail line, against the untraced median
    /// throughput.
    pub fn from_detail(detail: &Value, untraced_items_per_s: f64) -> Self {
        let trace = detail.get("trace");
        let f = |v: Option<&Value>, k: &str| {
            v.and_then(|v| v.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let items_per_s = f(
            detail.get("end_to_end").and_then(|m| m.get("items_per_s")),
            "value",
        );
        let layers = trace
            .and_then(|t| t.get("layers"))
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
            .map(|(name, t)| {
                (
                    name.clone(),
                    SelfTime {
                        self_ms: f(Some(t), "self_ms"),
                        calls: f(Some(t), "calls"),
                    },
                )
            })
            .collect();
        Traced {
            items_per_s,
            overhead: 1.0 - items_per_s / untraced_items_per_s,
            coverage: f(trace, "coverage"),
            layers,
        }
    }
}

/// Renders a result file, with the traced run of each workload in
/// `traced`.
pub fn render(
    header: &[(&str, String)],
    results: &BTreeMap<String, WorkloadResult>,
    traced: &BTreeMap<String, Traced>,
) -> String {
    let mut s = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(s, "  \"{k}\": {v},");
    }
    s.push_str("  \"workloads\": {");
    let names = WORKLOADS.iter().filter(|w| results.contains_key(**w));
    for (i, name) in names.enumerate() {
        let r = &results[*name];
        let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let failures: Vec<String> = r
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        let _ = write!(
            s,
            "{}\n  \"{name}\": {{\n    \"attempted\": [{}],\n    \"failed\": [{}],\n    \"failures\": [{}],\n    \"tail_percentile\": {},\n    \"end_to_end\": ",
            if i > 0 { "," } else { "" },
            list(&r.attempted),
            list(&r.failed),
            failures.join(", "),
            r.tail_percentile,
        );
        summaries_json(&mut s, &r.end_to_end);
        s.push_str(",\n    \"per_layer\": ");
        summaries_json(&mut s, &r.per_layer);
        if let Some(t) = traced.get(*name) {
            let _ = write!(
                s,
                ",\n    \"traced\": {{\"items_per_s\": {}, \"overhead\": {}, \"coverage\": {}, \"layers\": {{",
                t.items_per_s, t.overhead, t.coverage
            );
            for (j, (layer, st)) in t.layers.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}\n      \"{layer}\": {{\"self_ms\": {}, \"calls\": {}}}",
                    if j > 0 { "," } else { "" },
                    st.self_ms,
                    st.calls
                );
            }
            s.push_str("\n    }}");
        }
        s.push_str("\n  }");
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Reads the metrics of a result file back; the other fields of each
/// [`WorkloadResult`] stay empty.
///
/// # Errors
///
/// The text is not a result file.
pub fn read(text: &str) -> Result<BTreeMap<String, WorkloadResult>, String> {
    let v = json::parse(text)?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("no \"workloads\" object")?;
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let mut r = WorkloadResult::default();
        for (key, into) in [
            ("end_to_end", &mut r.end_to_end),
            ("per_layer", &mut r.per_layer),
        ] {
            for (metric, m) in w.get(key).and_then(Value::as_obj).into_iter().flatten() {
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                let values = m
                    .get("values")
                    .and_then(Value::as_arr)
                    .ok_or(format!("{name}.{metric}: no values"))?
                    .iter()
                    .map(|x| x.as_f64().ok_or(format!("{name}.{metric}: bad value")))
                    .collect::<Result<Vec<f64>, String>>()?;
                if values.is_empty() {
                    return Err(format!("{name}.{metric}: no values"));
                }
                into.insert(metric.clone(), Summary { unit, values });
            }
        }
        out.insert(name.clone(), r);
    }
    Ok(out)
}

/// An end-to-end metric's regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the first median by which the second may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// The text is not a benchmark description.
pub fn read_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(text)?;
    v.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no \"end_to_end\" list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let lower_is_better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: \"better\" must be lower or higher")),
            };
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound: num(m, "bound")?,
            })
        })
        .collect()
}

/// Names listed under `key` (`end_to_end` or `per_layer`) in a
/// `BENCHMARK.json`.
///
/// # Errors
///
/// The text is not a benchmark description.
pub fn metric_names(text: &str, key: &str) -> Result<Vec<String>, String> {
    let v = json::parse(text)?;
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("no {key:?} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or("metric without a name".into())
        })
        .collect()
}

/// How the second result stands against the first on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound: a regression.
    Worse,
    /// The spread between repetitions is wider than the bound, and not
    /// every second value beats every first value.
    Unresolved,
}

/// Judges `b` against `a`. Returns the verdict and the change of the
/// median as a share of `a`'s, positive when worse.
pub fn judge(a: &Summary, b: &Summary, bound: &Bound) -> (Verdict, f64) {
    let (ma, mb) = (a.median(), b.median());
    let change = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(mb)
        }
    } else {
        (mb - ma) / ma.abs()
    };
    let worse = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let better_everywhere = a.values.iter().all(|&x| {
        b.values
            .iter()
            .all(|&y| if bound.lower_is_better { y < x } else { y > x })
    });
    let verdict = if a.spread().max(b.spread()) > bound.bound {
        if better_everywhere {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound.bound {
        Verdict::Worse
    } else if worse < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse)
}

/// The outcome of comparing two result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One line per workload present in both files.
    pub rows: Vec<String>,
    /// Whether any metric got worse, or any workload's `failed_share`
    /// rose.
    pub regression: bool,
}

/// Compares result file `b` against `a` under `bounds`.
pub fn compare(
    a: &BTreeMap<String, WorkloadResult>,
    b: &BTreeMap<String, WorkloadResult>,
    bounds: &[Bound],
) -> Comparison {
    let mut rows = Vec::new();
    let mut regression = false;
    for name in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(name), b.get(name)) else {
            continue;
        };
        let mut row = format!("{name}:");
        for bound in bounds {
            let (Some(sa), Some(sb)) = (
                ra.end_to_end.get(&bound.name),
                rb.end_to_end.get(&bound.name),
            ) else {
                let _ = write!(row, " {} missing;", bound.name);
                continue;
            };
            let (verdict, worse) = judge(sa, sb, bound);
            regression |= verdict == Verdict::Worse;
            let word = match verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            let how = if worse > 0.0 {
                " worse"
            } else if worse < 0.0 {
                " better"
            } else {
                ""
            };
            let _ = write!(
                row,
                " {} {word} ({:.2}%{how});",
                bound.name,
                100.0 * worse.abs()
            );
        }
        let share = |r: &WorkloadResult| {
            r.end_to_end
                .get("failed_share")
                .map_or(0.0, Summary::median)
        };
        let (fa, fb) = (share(ra), share(rb));
        if fb > fa {
            regression = true;
            let _ = write!(row, " failed_share rose ({fa} -> {fb});");
        }
        rows.push(row.trim_end_matches(';').to_string());
    }
    Comparison { rows, regression }
}
