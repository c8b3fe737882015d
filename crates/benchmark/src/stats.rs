//! Order statistics for latency samples and for repeated runs.

/// Tail percentiles the benchmark may report, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of p99, p90 and p50 that leaves at least ten samples
/// beyond it in `n` samples (p50 when none does).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(TAIL_CANDIDATES[TAIL_CANDIDATES.len() - 1])
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending, non-empty).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles of `values` by the exclusive method (what
/// Python's `statistics.quantiles(values, n=4)` returns); both equal the
/// single value when there is only one.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}
