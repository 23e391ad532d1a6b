//! # abe-election — leader election on anonymous unidirectional ABE rings
//!
//! The headline contribution of *Bakhshi, Endrullis, Fokkink, Pang —
//! "Asynchronous Bounded Expected Delay Networks" (PODC 2010)*: a
//! probabilistic leader-election algorithm for **anonymous, unidirectional
//! rings of known size `n`** in the ABE model, with *average linear time
//! and message complexity* — beating the `Ω(n log n)` message lower bound
//! that binds purely asynchronous rings.
//!
//! This crate ships:
//!
//! * [`AbeElection`] — the paper's §3 algorithm (adaptive activation
//!   probability `1 − (1 − A0)^d`);
//! * [`FixedActivation`] — the non-adaptive ablation (constant `A0`),
//!   showing why adaptivity is what buys linearity;
//! * [`ItaiRodeh`] — the classic anonymous asynchronous baseline
//!   (`Ω(n log n)` messages);
//! * [`ChangRoberts`] — the classic identity-based asynchronous baseline
//!   (`n·H_n` average messages);
//! * [`Peterson`] — the deterministic `O(n log n)` worst-case
//!   identity-based baseline;
//! * [`runner`] — one-call configuration→outcome helpers used by the
//!   benchmark harness and the integration tests.
//!
//! ## Example
//!
//! ```
//! use abe_core::RunConfig;
//! use abe_election::{run_abe_calibrated, RingConfig};
//!
//! // A0 calibrated to a/n² — the regime in which the linear bounds hold.
//! let cfg = RingConfig::new(32, RunConfig::new().seed(7));
//! let outcome = run_abe_calibrated(&cfg, 1.0);
//! assert!(outcome.terminated);
//! assert_eq!(outcome.leaders, 1);
//! // Linear message complexity: a small constant per node on average.
//! assert!(outcome.messages < 32 * 20);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

pub mod abe;
mod chang_roberts;
mod fixed;
mod itai_rodeh;
mod peterson;
pub mod runner;
mod state;

pub use abe::AbeElection;
pub use chang_roberts::ChangRoberts;
pub use fixed::FixedActivation;
pub use itai_rodeh::{IrToken, ItaiRodeh};
pub use peterson::{Peterson, PetersonMsg};
pub use runner::{
    random_permutation, run_abe, run_abe_calibrated, run_chang_roberts, run_fixed, run_itai_rodeh,
    run_peterson, ElectionOutcome, RingConfig, RingKind,
};
pub use state::ElectionState;

/// Error returned when an algorithm parameter is outside its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfigError {
    param: &'static str,
    constraint: &'static str,
}

impl InvalidConfigError {
    /// Creates an error for `param` violating `constraint`.
    pub fn new(param: &'static str, constraint: &'static str) -> Self {
        Self { param, constraint }
    }

    /// The offending parameter name.
    pub fn param(&self) -> &'static str {
        self.param
    }
}

impl fmt::Display for InvalidConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid election parameter `{}`: {}",
            self.param, self.constraint
        )
    }
}

impl Error for InvalidConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_error_display() {
        let e = InvalidConfigError::new("a0", "must lie in (0, 1)");
        assert!(e.to_string().contains("a0"));
        assert!(e.to_string().contains("(0, 1)"));
        assert_eq!(e.param(), "a0");
    }
}
