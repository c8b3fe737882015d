//! Distribution summaries with the columns of the paper's Table 3.

use std::fmt;

/// A five-number summary of a sample distribution, matching the columns of
/// Table 3 in the paper: *"the second column lists the minimum value that the
/// measurement can possibly yield, ... the frequency with which the minimum
/// possible value was encountered, the median and the mean of the
/// distribution, and the maximum value that was encountered"*.
///
/// # Examples
///
/// ```
/// use ims_stats::DistributionStats;
///
/// // II / MII for four loops, three of which achieved the bound of 1.0.
/// let ratios = [1.0, 1.0, 1.0, 1.5];
/// let s = DistributionStats::from_samples(&ratios, 1.0);
/// assert_eq!(s.freq_of_minimum, 0.75);
/// assert_eq!(s.maximum, 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionStats {
    /// The smallest value the measurement can possibly yield (supplied by the
    /// caller, not derived from the data — e.g. a loop always has at least 4
    /// operations in the paper's corpus).
    pub minimum_possible: f64,
    /// Fraction of samples equal to `minimum_possible` (within `1e-9`).
    pub freq_of_minimum: f64,
    /// Median of the samples (mean of the two middle samples when the count
    /// is even).
    pub median: f64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Largest sample observed.
    pub maximum: f64,
    /// Number of samples summarized.
    pub count: usize,
}

impl DistributionStats {
    /// Summarizes `samples`, using `minimum_possible` as the theoretical
    /// lower bound for the "frequency of minimum" column.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a NaN.
    pub fn from_samples(samples: &[f64], minimum_possible: f64) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample set");
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "samples must not contain NaN"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN was excluded above"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let at_min = sorted
            .iter()
            .take_while(|v| (**v - minimum_possible).abs() <= 1e-9)
            .count();
        DistributionStats {
            minimum_possible,
            freq_of_minimum: at_min as f64 / n as f64,
            median,
            mean,
            maximum: *sorted.last().expect("non-empty"),
            count: n,
        }
    }
}

impl fmt::Display for DistributionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min_possible={:.2} freq_min={:.3} median={:.2} mean={:.2} max={:.2} (n={})",
            self.minimum_possible,
            self.freq_of_minimum,
            self.median,
            self.mean,
            self.maximum,
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_median_is_middle_element() {
        let s = DistributionStats::from_samples(&[1.0, 9.0, 5.0], 1.0);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn even_count_median_is_midpoint() {
        let s = DistributionStats::from_samples(&[1.0, 3.0, 5.0, 9.0], 1.0);
        assert_eq!(s.median, 4.0);
    }

    #[test]
    fn freq_of_minimum_counts_only_exact_minimum() {
        let s = DistributionStats::from_samples(&[2.0, 2.0, 3.0, 4.0], 2.0);
        assert_eq!(s.freq_of_minimum, 0.5);
        // Minimum possible below every sample: frequency is zero.
        let s = DistributionStats::from_samples(&[2.0, 2.0, 3.0, 4.0], 1.0);
        assert_eq!(s.freq_of_minimum, 0.0);
    }

    #[test]
    fn mean_and_max() {
        let s = DistributionStats::from_samples(&[1.0, 2.0, 3.0, 6.0], 1.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.maximum, 6.0);
        assert_eq!(s.count, 4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_samples_panic() {
        let _ = DistributionStats::from_samples(&[], 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = DistributionStats::from_samples(&[1.0], 1.0);
        assert!(!format!("{s}").is_empty());
    }
}
