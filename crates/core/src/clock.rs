//! Local clocks with bounded drift.
//!
//! Definition 1.2 of the paper: for every node `A` the local clock `C_A`
//! satisfies `s_low · (t2 - t1) ≤ |C_A(t2) - C_A(t1)| ≤ s_high · (t2 - t1)`
//! for known bounds `0 < s_low ≤ s_high`. Nodes act on **local** clock
//! ticks (the election algorithm flips its activation coin once per tick),
//! so the rate at which a node takes steps in real time varies per node and
//! — under [`DriftMode::Wander`] — over time, while always respecting the
//! bounds.

use abe_sim::{SimDuration, SimTime, Xoshiro256PlusPlus};

use crate::error::InvalidParamError;

/// How a node's clock rate evolves over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftMode {
    /// Each node draws one rate in `[s_low, s_high]` at start-up and keeps
    /// it forever (constant skew).
    #[default]
    Fixed,
    /// The rate is re-drawn from `[s_low, s_high]` at every tick (bounded
    /// wander); models temperature-dependent oscillators.
    Wander,
}

/// Specification of the clock population: rate bounds plus drift behaviour.
///
/// # Examples
///
/// ```
/// use abe_core::clock::{ClockSpec, DriftMode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let perfect = ClockSpec::perfect();
/// assert_eq!(perfect.s_low(), 1.0);
///
/// let drifty = ClockSpec::new(0.5, 2.0, DriftMode::Wander)?;
/// assert_eq!(drifty.ratio(), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSpec {
    s_low: f64,
    s_high: f64,
    drift: DriftMode,
}

impl ClockSpec {
    /// Creates a clock specification with rates in `[s_low, s_high]`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < s_low ≤ s_high` and both are finite.
    pub fn new(s_low: f64, s_high: f64, drift: DriftMode) -> Result<Self, InvalidParamError> {
        if !(s_low.is_finite() && s_low > 0.0) {
            return Err(InvalidParamError::new(
                "s_low",
                "must be finite and positive",
                s_low,
            ));
        }
        if !(s_high.is_finite() && s_high >= s_low) {
            return Err(InvalidParamError::new(
                "s_high",
                "must be finite and >= s_low",
                s_high,
            ));
        }
        Ok(Self {
            s_low,
            s_high,
            drift,
        })
    }

    /// All clocks run at exactly rate 1 (no skew, no drift).
    pub fn perfect() -> Self {
        Self {
            s_low: 1.0,
            s_high: 1.0,
            drift: DriftMode::Fixed,
        }
    }

    /// The slowest admissible rate.
    pub fn s_low(&self) -> f64 {
        self.s_low
    }

    /// The fastest admissible rate.
    pub fn s_high(&self) -> f64 {
        self.s_high
    }

    /// The drift behaviour.
    pub fn drift(&self) -> DriftMode {
        self.drift
    }

    /// `s_high / s_low`, the worst-case relative speed between two nodes.
    pub fn ratio(&self) -> f64 {
        self.s_high / self.s_low
    }

    /// Draws a rate uniformly from `[s_low, s_high]`.
    fn draw_rate(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        if self.s_low == self.s_high {
            self.s_low
        } else {
            self.s_low + rng.uniform_f64() * (self.s_high - self.s_low)
        }
    }

    /// Instantiates one node's clock, drawing its initial rate from `rng`.
    pub fn instantiate(&self, rng: &mut Xoshiro256PlusPlus) -> LocalClock {
        let rate = self.draw_rate(rng);
        LocalClock {
            rate,
            local: 0.0,
            last_real: SimTime::ZERO,
        }
    }
}

/// One node's local clock: maps real time to local time at a bounded rate.
///
/// The mapping is piecewise linear: within a segment the rate is constant;
/// [`DriftMode::Wander`] re-draws the rate at tick boundaries. The
/// population's [`ClockSpec`] is not stored per clock: the network holds
/// one and passes it to [`real_interval`](Self::real_interval).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalClock {
    rate: f64,
    local: f64,
    last_real: SimTime,
}

impl LocalClock {
    /// The current rate (local seconds per real second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Advances the clock to real time `now`, returning the local time.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last observed real time (clocks never
    /// run backwards).
    pub fn advance_to(&mut self, now: SimTime) -> f64 {
        let elapsed = now.duration_since(self.last_real);
        self.local += elapsed.as_secs() * self.rate;
        self.last_real = now;
        self.local
    }

    /// The local time at the last [`advance_to`](Self::advance_to) call.
    pub fn local_time(&self) -> f64 {
        self.local
    }

    /// Real-time duration of the next local interval of length
    /// `local_interval`, re-drawing the rate from `spec` (the spec this
    /// clock was instantiated from) first under [`DriftMode::Wander`].
    ///
    /// # Panics
    ///
    /// Panics if `local_interval` is not finite and positive.
    pub fn real_interval(
        &mut self,
        spec: &ClockSpec,
        local_interval: f64,
        rng: &mut Xoshiro256PlusPlus,
    ) -> SimDuration {
        assert!(
            local_interval.is_finite() && local_interval > 0.0,
            "local_interval must be finite and positive, got {local_interval}"
        );
        if spec.drift == DriftMode::Wander {
            self.rate = spec.draw_rate(rng);
        }
        SimDuration::from_secs(local_interval / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_sim::Xoshiro256PlusPlus;
    use rand::SeedableRng;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn perfect_clock_tracks_real_time() {
        let mut clock = ClockSpec::perfect().instantiate(&mut rng(1));
        assert_eq!(clock.rate(), 1.0);
        assert_eq!(clock.advance_to(t(5.0)), 5.0);
        assert_eq!(clock.advance_to(t(7.5)), 7.5);
    }

    #[test]
    fn spec_validation() {
        assert!(ClockSpec::new(0.0, 1.0, DriftMode::Fixed).is_err());
        assert!(ClockSpec::new(-1.0, 1.0, DriftMode::Fixed).is_err());
        assert!(ClockSpec::new(2.0, 1.0, DriftMode::Fixed).is_err());
        assert!(ClockSpec::new(1.0, f64::NAN, DriftMode::Fixed).is_err());
        assert!(ClockSpec::new(0.5, 0.5, DriftMode::Wander).is_ok());
    }

    #[test]
    fn ratio_reports_relative_speed() {
        let spec = ClockSpec::new(0.5, 2.0, DriftMode::Fixed).unwrap();
        assert_eq!(spec.ratio(), 4.0);
    }

    #[test]
    fn rates_respect_bounds() {
        let spec = ClockSpec::new(0.5, 2.0, DriftMode::Fixed).unwrap();
        let mut r = rng(2);
        for _ in 0..1000 {
            let clock = spec.instantiate(&mut r);
            assert!((0.5..=2.0).contains(&clock.rate()));
        }
    }

    #[test]
    fn rates_are_spread_across_the_range() {
        let spec = ClockSpec::new(1.0, 2.0, DriftMode::Fixed).unwrap();
        let mut r = rng(3);
        let rates: Vec<f64> = (0..1000).map(|_| spec.instantiate(&mut r).rate()).collect();
        let below = rates.iter().filter(|&&x| x < 1.5).count();
        assert!((300..700).contains(&below), "rates not spread: {below}");
    }

    #[test]
    fn local_time_advances_at_rate() {
        let spec = ClockSpec::new(2.0, 2.0, DriftMode::Fixed).unwrap();
        let mut clock = spec.instantiate(&mut rng(4));
        assert_eq!(clock.advance_to(t(3.0)), 6.0);
        assert_eq!(clock.local_time(), 6.0);
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn clock_panics_on_time_reversal() {
        let mut clock = ClockSpec::perfect().instantiate(&mut rng(5));
        clock.advance_to(t(5.0));
        clock.advance_to(t(4.0));
    }

    #[test]
    fn real_interval_inverts_rate() {
        let spec = ClockSpec::new(2.0, 2.0, DriftMode::Fixed).unwrap();
        let mut clock = spec.instantiate(&mut rng(6));
        let mut r = rng(7);
        // Rate 2 local/real: one local unit takes 0.5 real seconds.
        assert_eq!(clock.real_interval(&spec, 1.0, &mut r).as_secs(), 0.5);
    }

    #[test]
    fn wander_redraws_rate_within_bounds() {
        let spec = ClockSpec::new(0.5, 2.0, DriftMode::Wander).unwrap();
        let mut clock = spec.instantiate(&mut rng(8));
        let mut r = rng(9);
        let mut rates = std::collections::HashSet::new();
        for _ in 0..100 {
            let d = clock.real_interval(&spec, 1.0, &mut r);
            assert!((0.5..=2.0).contains(&clock.rate()));
            // interval = 1/rate ∈ [0.5, 2.0]
            assert!((0.5..=2.0).contains(&d.as_secs()));
            rates.insert(clock.rate().to_bits());
        }
        assert!(rates.len() > 50, "wander should visit many rates");
    }

    #[test]
    fn fixed_mode_keeps_rate() {
        let spec = ClockSpec::new(0.5, 2.0, DriftMode::Fixed).unwrap();
        let mut clock = spec.instantiate(&mut rng(10));
        let initial = clock.rate();
        let mut r = rng(11);
        for _ in 0..10 {
            clock.real_interval(&spec, 1.0, &mut r);
            assert_eq!(clock.rate(), initial);
        }
    }

    #[test]
    fn drift_bounds_definition_holds() {
        // Definition 1.2: s_low·(t2-t1) ≤ C(t2)-C(t1) ≤ s_high·(t2-t1),
        // checked over many random advance patterns.
        let spec = ClockSpec::new(0.25, 4.0, DriftMode::Wander).unwrap();
        let mut r = rng(12);
        for trial in 0..100 {
            let mut clock = spec.instantiate(&mut r);
            let mut real = SimTime::ZERO;
            let mut prev_local = 0.0;
            let mut step_rng = rng(trial);
            for _ in 0..20 {
                let dt = 0.1 + step_rng.uniform_f64();
                real += SimDuration::from_secs(dt);
                let local = clock.advance_to(real);
                let dl = local - prev_local;
                assert!(dl >= 0.25 * dt - 1e-9 && dl <= 4.0 * dt + 1e-9);
                prev_local = local;
                // Occasionally re-draw the rate (as ticks would).
                clock.real_interval(&spec, 1.0, &mut step_rng);
            }
        }
    }

    #[test]
    #[should_panic(expected = "local_interval")]
    fn real_interval_rejects_non_positive() {
        let spec = ClockSpec::perfect();
        let mut clock = spec.instantiate(&mut rng(13));
        let mut r = rng(14);
        clock.real_interval(&spec, 0.0, &mut r);
    }
}
