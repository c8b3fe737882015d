//! A std-only wall-clock micro-benchmark harness.
//!
//! [`run`] executes a closure for a configurable number of warmup and
//! timed iterations and summarizes the per-iteration wall-clock times
//! (min / median / p90 / mean / max). [`BenchResult::json_line`] renders
//! one machine-readable JSON object per benchmark — timings plus any
//! caller-supplied observability counters, written by
//! [`json_object`] — so repeated runs can be appended to a
//! `BENCH_*.jsonl` file and tracked over time.
//!
//! This replaces the Criterion benches the workspace used to carry: no
//! statistical outlier rejection, no plotting — just deterministic
//! iteration counts and honest order statistics, with zero dependencies.

use std::time::Instant;

use crate::json::{json_object, Value};

/// Re-export of [`std::hint::black_box`], the optimization barrier every
/// bench body should wrap its inputs and outputs in.
pub use std::hint::black_box;

/// Iteration counts for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Untimed warmup iterations (cache/branch-predictor settling).
    pub warmup: u32,
    /// Timed iterations; each contributes one sample.
    pub iters: u32,
}

impl BenchSpec {
    /// `iters` timed iterations after `warmup` untimed ones.
    ///
    /// # Panics
    ///
    /// Panics if `iters` is zero.
    pub fn new(warmup: u32, iters: u32) -> Self {
        assert!(iters > 0, "at least one timed iteration is required");
        BenchSpec { warmup, iters }
    }

    /// The spec scaled down for smoke tests (1 warmup, 2 iters).
    pub fn smoke() -> Self {
        BenchSpec::new(1, 2)
    }
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (the JSON `bench` field).
    pub name: String,
    /// Timed iteration count.
    pub iters: u32,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Median iteration (lower-median for even counts).
    pub median_ns: u64,
    /// 90th-percentile iteration.
    pub p90_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
}

impl BenchResult {
    /// Renders the result as one JSON object line, appending the given
    /// `extra` counter fields after the timing fields.
    pub fn json_line(&self, extra: &[(&str, Value)]) -> String {
        let mut fields = vec![
            ("bench", Value::Str(self.name.clone())),
            ("iters", Value::Int(self.iters.into())),
            ("min_ns", Value::Int(self.min_ns.into())),
            ("median_ns", Value::Int(self.median_ns.into())),
            ("p90_ns", Value::Int(self.p90_ns.into())),
            ("max_ns", Value::Int(self.max_ns.into())),
            ("mean_ns", Value::Int(self.mean_ns.into())),
        ];
        fields.extend_from_slice(extra);
        json_object(&fields)
    }
}

/// Runs `body` for `spec.warmup` untimed and `spec.iters` timed
/// iterations and returns the timing summary.
pub fn run<F: FnMut()>(name: &str, spec: BenchSpec, mut body: F) -> BenchResult {
    for _ in 0..spec.warmup {
        body();
    }
    let mut samples: Vec<u64> = Vec::with_capacity(spec.iters as usize);
    for _ in 0..spec.iters {
        let t0 = Instant::now();
        body();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let n = samples.len();
    BenchResult {
        name: name.to_string(),
        iters: spec.iters,
        min_ns: samples[0],
        median_ns: samples[(n - 1) / 2],
        p90_ns: samples[(n * 9 / 10).min(n - 1)],
        max_ns: samples[n - 1],
        mean_ns: (samples.iter().sum::<u64>() / n as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_collects_ordered_statistics() {
        let mut count = 0u64;
        let r = run("spin", BenchSpec::new(2, 9), || {
            count += 1;
            let mut acc = 0u64;
            for i in 0..(1000 * count % 5000) {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
        });
        assert_eq!(count, 11, "warmup + timed iterations all execute");
        assert_eq!(r.iters, 9);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p90_ns);
        assert!(r.p90_ns <= r.max_ns);
        assert!(r.mean_ns >= r.min_ns && r.mean_ns <= r.max_ns);
    }

    #[test]
    fn json_line_is_well_formed() {
        let r = BenchResult {
            name: "mii \"n=12\"".into(),
            iters: 3,
            min_ns: 10,
            median_ns: 20,
            p90_ns: 30,
            max_ns: 40,
            mean_ns: 23,
        };
        let line = r.json_line(&[
            ("evictions", Value::Int(7)),
            ("ratio", Value::Num(1.5)),
            ("ok", Value::Bool(true)),
            ("tag", Value::Str("a\\b".into())),
        ]);
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(r#""bench":"mii \"n=12\""#), "{line}");
        assert!(line.contains(r#""median_ns":20"#), "{line}");
        assert!(line.contains(r#""evictions":7"#), "{line}");
        assert!(line.contains(r#""ratio":1.5"#), "{line}");
        assert!(line.contains(r#""ok":true"#), "{line}");
        assert!(line.contains(r#""tag":"a\\b""#), "{line}");
        assert!(!line.contains(",}"), "{line}");
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        let r = run("noop", BenchSpec::smoke(), || {});
        let line = r.json_line(&[("bad", Value::Num(f64::NAN))]);
        assert!(line.contains(r#""bad":null"#), "{line}");
    }

    #[test]
    #[should_panic(expected = "at least one timed iteration")]
    fn zero_iters_rejected() {
        let _ = BenchSpec::new(0, 0);
    }
}
