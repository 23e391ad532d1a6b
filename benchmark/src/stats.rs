//! Sample summaries: median, quartiles, and the highest percentile the
//! sample count supports.
//!
//! Quartiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), because
//! that is what the driver applies to the medians this harness prints.

/// Percentiles a timing may be reported at, ascending, in tenths of a
/// percent (integers, so "ten samples beyond" is decided exactly).
const CANDIDATE_PERMILLES: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// How many samples must lie beyond a percentile before it is reported.
const SAMPLES_BEYOND: usize = 10;

/// Summary of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` when even the median has fewer
    /// (then the median alone is the report).
    pub tail: Option<(f64, f64)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile at position `p ∈ (0, 1)` of an ascending slice, exclusive
/// method: rank `p·(n+1)`, linear interpolation, clamped to the ends.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let rank = p * (n as f64 + 1.0);
            let lo = (rank.floor() as usize).clamp(1, n - 1);
            let frac = (rank - lo as f64).clamp(0.0, 1.0);
            v[lo - 1] + (v[lo] - v[lo - 1]) * frac
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest candidate percentile that still has at least ten of `n`
/// samples beyond it.
pub fn supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERMILLES
        .iter()
        .rfind(|&&p| n * (1_000 - p) >= SAMPLES_BEYOND * 1_000)
        .map(|&p| p as f64 / 10.0)
}

/// Summarises one series.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        tail: supported_percentile(v.len()).map(|p| (p, quantile_sorted(&v, p / 100.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which the
        // clamp keeps inside the sample: [1, 1.5, 2].
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(5), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_is_reported_only_when_supported() {
        assert_eq!(summarize(&[1.0; 10]).tail, None);
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let (p, value) = summarize(&v).tail.expect("1000 samples support p99");
        assert_eq!(p, 99.0);
        assert!((value - 990.99).abs() < 1e-9, "{value}");
    }
}
