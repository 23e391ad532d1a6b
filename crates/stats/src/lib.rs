//! # abe-stats — statistics toolkit for the ABE evaluation harness
//!
//! The paper's claims are *statistical* ("average linear time and message
//! complexity"), so the reproduction needs machinery to (a) aggregate many
//! seeded runs and (b) decide empirically which complexity class a measured
//! series belongs to:
//!
//! * [`Online`] — Welford running moments with exact merge, 95% CIs;
//! * [`fit_line`] / [`fit_power_law`] — ordinary least squares;
//! * [`classify_growth`] / [`best_growth`] — model selection among
//!   `O(1)`, `O(n)`, `O(n log n)`, `O(n²)` fitted through the origin;
//! * [`Histogram`] / [`quantile`] — distribution readouts;
//! * [`Summary`] — plain-data metric snapshots with deterministic JSON
//!   rendering (consumed by the sweep engine's machine-readable output);
//! * [`Table`] — paper-style ASCII/markdown table rendering.
//!
//! ## Example
//!
//! ```
//! use abe_stats::{best_growth, GrowthModel, Online};
//!
//! // Aggregate repetitions, then classify growth across sizes.
//! let series: Vec<(f64, f64)> = [8, 16, 32, 64]
//!     .iter()
//!     .map(|&n| {
//!         let reps: Online = (0..10).map(|r| (n * 3) as f64 + r as f64 * 0.01).collect();
//!         (n as f64, reps.mean())
//!     })
//!     .collect();
//! assert_eq!(best_growth(&series).unwrap().model, GrowthModel::Linear);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod json;
mod online;
mod regression;
mod summary;
mod table;

pub use histogram::{quantile, Histogram};
pub use json::{json_str, write_json_f64, write_json_str};
pub use online::Online;
pub use regression::{
    best_growth, classify_growth, fit_line, fit_power_law, GrowthFit, GrowthModel, LineFit,
};
pub use summary::{json_f64, Summary};
pub use table::{fmt_num, Align, Table};
