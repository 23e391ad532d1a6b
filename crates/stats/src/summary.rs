//! Serializable metric summaries.
//!
//! The sweep engine's JSON output needs a plain-data snapshot of an
//! [`Online`] accumulator: a fixed set of moments that can be rendered
//! deterministically (field order and float formatting are stable, so two
//! runs of the same sweep produce byte-identical summaries regardless of
//! worker count).

use std::fmt;

use crate::json::write_json_f64;
use crate::online::Online;

/// Plain-data snapshot of one metric across repetitions.
///
/// Obtained from an [`Online`] accumulator via [`Summary::from`]; rendered
/// to JSON with [`Summary::to_json`].
///
/// # Examples
///
/// ```
/// use abe_stats::{Online, Summary};
///
/// let acc: Online = [1.0, 2.0, 3.0].into_iter().collect();
/// let s = Summary::from(&acc);
/// assert_eq!(s.count, 3);
/// assert_eq!(s.mean, 2.0);
/// assert_eq!(s.min, 1.0);
/// assert!(s.to_json().starts_with("{\"count\":3,"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (0 with fewer than 2 observations).
    pub std_dev: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95_half_width: f64,
}

impl From<&Online> for Summary {
    fn from(acc: &Online) -> Self {
        Self {
            count: acc.count(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: acc.min().unwrap_or(0.0),
            max: acc.max().unwrap_or(0.0),
            ci95_half_width: acc.ci95_half_width(),
        }
    }
}

impl Summary {
    /// Renders the summary as a JSON object with a fixed key order.
    ///
    /// Floats use [`json_f64`], so the output is deterministic and always
    /// valid JSON (non-finite values render as `null`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"std_dev\":{},\"min\":{},\"max\":{},\"ci95\":{}}}",
            self.count,
            json_f64(self.mean),
            json_f64(self.std_dev),
            json_f64(self.min),
            json_f64(self.max),
            json_f64(self.ci95_half_width),
        )
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} ±{:.4} [{:.4}, {:.4}]",
            self.count, self.mean, self.ci95_half_width, self.min, self.max
        )
    }
}

/// Formats a float as a JSON number.
///
/// Uses Rust's shortest round-trip `Display` (never exponent notation for
/// `f64`), which is deterministic across runs and platforms; non-finite
/// values, which JSON cannot represent, render as `null`.
///
/// # Examples
///
/// ```
/// use abe_stats::json_f64;
///
/// assert_eq!(json_f64(1.5), "1.5");
/// assert_eq!(json_f64(-0.25), "-0.25");
/// assert_eq!(json_f64(f64::INFINITY), "null");
/// assert_eq!(json_f64(f64::NAN), "null");
/// ```
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    write_json_f64(&mut out, x);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_snapshots_online() {
        let acc: Online = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        let s = Summary::from(&acc);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.std_dev - acc.std_dev()).abs() < 1e-12);
        assert!((s.ci95_half_width - acc.ci95_half_width()).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::from(&Online::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn json_has_fixed_key_order() {
        let acc: Online = [1.0, 3.0].into_iter().collect();
        let json = Summary::from(&acc).to_json();
        assert_eq!(
            json,
            "{\"count\":2,\"mean\":2,\"std_dev\":1.4142135623730951,\
             \"min\":1,\"max\":3,\"ci95\":1.96}"
        );
    }

    #[test]
    fn json_is_identical_across_identical_inputs() {
        let a: Online = (0..100).map(|i| (i as f64).sin()).collect();
        let b: Online = (0..100).map(|i| (i as f64).sin()).collect();
        assert_eq!(Summary::from(&a).to_json(), Summary::from(&b).to_json());
    }

    #[test]
    fn json_f64_never_uses_exponents() {
        assert_eq!(json_f64(0.0000001), "0.0000001");
        assert_eq!(json_f64(1e20), "100000000000000000000");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(-0.0), "-0");
    }

    #[test]
    fn display_is_human_readable() {
        let acc: Online = [1.0, 2.0, 3.0].into_iter().collect();
        let s = Summary::from(&acc).to_string();
        assert!(s.contains("n=3"));
        assert!(s.contains("mean=2.0000"));
    }
}
