//! Message-delay models with a known expected value.
//!
//! Definition 1 of the paper only requires a **bound on the expected
//! delay** to be known; the delay itself may be unbounded. This module
//! provides the distribution families used throughout the evaluation:
//!
//! * bounded support (ABD-compatible): [`Deterministic`], [`Uniform`],
//!   [`Bimodal`];
//! * unbounded support with finite mean (strictly ABE): [`Exponential`],
//!   [`Erlang`], [`Pareto`], [`LogNormal`], [`Hyperexponential`], and
//!   [`Retransmission`] — the paper's §1 case (iii) lossy-channel model
//!   whose mean is exactly `slot / p`.
//!
//! Every model reports its exact analytic [`mean`](DelayModel::mean) and the
//! supremum of its support via [`upper_bound`](DelayModel::upper_bound)
//! (`None` when unbounded), which is what network-class validation checks.

use std::fmt;
use std::sync::Arc;

use abe_sim::{SimDuration, Xoshiro256PlusPlus};

use crate::error::InvalidParamError;

/// A distribution over non-negative message delays with known mean.
///
/// Models are immutable and shareable (`Send + Sync`); all randomness flows
/// through the caller-supplied RNG, keeping simulations deterministic.
///
/// # Examples
///
/// ```
/// use abe_core::delay::{DelayModel, Exponential};
/// use abe_sim::Xoshiro256PlusPlus;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = Exponential::from_mean(2.0)?;
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let d = model.sample(&mut rng);
/// assert!(d.as_secs() >= 0.0);
/// assert_eq!(model.mean().as_secs(), 2.0);
/// assert!(model.upper_bound().is_none()); // unbounded support
/// # Ok(())
/// # }
/// ```
pub trait DelayModel: fmt::Debug + Send + Sync {
    /// Draws one delay.
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration;

    /// The exact expected value of the distribution.
    fn mean(&self) -> SimDuration;

    /// Supremum of the support, or `None` if the support is unbounded.
    ///
    /// ABD networks require `Some(bound)`; ABE networks only require a
    /// finite [`mean`](Self::mean).
    fn upper_bound(&self) -> Option<SimDuration>;

    /// Infimum of the support: a time no sample can undercut.
    ///
    /// This is the static *lookahead* the sharded kernel builds its time
    /// windows from — a cross-shard message sent at `t` cannot arrive
    /// before `t + min_delay()`, so shards may safely advance that far
    /// without synchronising. Models with a genuine floor (deterministic,
    /// uniform `lo`, Pareto `scale`, …) override this. Models whose
    /// support reaches down to zero (the exponential family) return
    /// `0.0`; for them the kernel derives the lookahead from the delays
    /// it pre-draws on each cross-shard edge instead (see
    /// [`crate::shard`]), and single-steps only where those are zero too.
    ///
    /// Implementations must guarantee `sample(rng) >= min_delay()` for
    /// every RNG state.
    fn min_delay(&self) -> f64 {
        0.0
    }

    /// Whether [`sample`](Self::sample) advances the RNG it is handed.
    ///
    /// Deterministic models ignore the RNG entirely and return `false`;
    /// everything else consumes draws and must return `true` (the
    /// default). The network runtime uses this to decide whether a
    /// sampling stream must be materialised per edge for shard-order
    /// independence — a model that never draws needs no stream at all.
    fn consumes_rng(&self) -> bool {
        true
    }

    /// Short human-readable family name (e.g. `"exponential"`).
    fn name(&self) -> &'static str;
}

/// Shared handle to a delay model.
pub type SharedDelay = Arc<dyn DelayModel>;

fn require(
    ok: bool,
    param: &'static str,
    constraint: &'static str,
    value: impl fmt::Display,
) -> Result<(), InvalidParamError> {
    if ok {
        Ok(())
    } else {
        Err(InvalidParamError::new(param, constraint, value))
    }
}

fn finite_non_negative(value: f64, param: &'static str) -> Result<(), InvalidParamError> {
    require(
        value.is_finite() && value >= 0.0,
        param,
        "must be finite and non-negative",
        value,
    )
}

fn finite_positive(value: f64, param: &'static str) -> Result<(), InvalidParamError> {
    require(
        value.is_finite() && value > 0.0,
        param,
        "must be finite and positive",
        value,
    )
}

/// Constant delay — the degenerate, fully synchronous-friendly model.
///
/// With `Deterministic::new(d)`, every message takes exactly `d`. This is
/// the classic ABD assumption expressed as an ABE model, and the basis of
/// the `ABD ⊂ ABE` containment tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a constant delay of `value` seconds.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is negative, NaN, or infinite.
    pub fn new(value: f64) -> Result<Self, InvalidParamError> {
        finite_non_negative(value, "value")?;
        Ok(Self { value })
    }

    /// A zero delay, useful as a processing model meaning "instantaneous".
    pub fn zero() -> Self {
        Self { value: 0.0 }
    }
}

impl DelayModel for Deterministic {
    fn sample(&self, _rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        SimDuration::from_secs(self.value)
    }

    fn min_delay(&self) -> f64 {
        self.value
    }

    fn consumes_rng(&self) -> bool {
        false
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.value)
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(self.value))
    }

    fn name(&self) -> &'static str {
        "deterministic"
    }
}

/// Uniform delay on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform delay on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 <= lo <= hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, InvalidParamError> {
        finite_non_negative(lo, "lo")?;
        finite_non_negative(hi, "hi")?;
        require(lo <= hi, "hi", "must be >= lo", hi)?;
        Ok(Self { lo, hi })
    }

    /// Uniform on `[(1-spread)·mean, (1+spread)·mean]` for `spread ∈ [0,1]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is not positive/finite or `spread` is
    /// outside `[0, 1]`.
    pub fn from_mean(mean: f64, spread: f64) -> Result<Self, InvalidParamError> {
        finite_positive(mean, "mean")?;
        require(
            (0.0..=1.0).contains(&spread),
            "spread",
            "must lie in [0, 1]",
            spread,
        )?;
        Self::new(mean * (1.0 - spread), mean * (1.0 + spread))
    }
}

impl DelayModel for Uniform {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        let u = rng.uniform_f64();
        SimDuration::from_secs(self.lo + u * (self.hi - self.lo))
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(0.5 * (self.lo + self.hi))
    }

    fn min_delay(&self) -> f64 {
        self.lo
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(self.hi))
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Exponential delay — the canonical unbounded-support, finite-mean model.
///
/// The memoryless single-parameter family; the default delay model of the
/// evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential delay with the given mean (`1/λ`).
    ///
    /// # Errors
    ///
    /// Returns an error unless `mean` is finite and positive.
    pub fn from_mean(mean: f64) -> Result<Self, InvalidParamError> {
        finite_positive(mean, "mean")?;
        Ok(Self { mean })
    }

    /// Creates an exponential delay with the given rate `λ`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `rate` is finite and positive.
    pub fn from_rate(rate: f64) -> Result<Self, InvalidParamError> {
        finite_positive(rate, "rate")?;
        Ok(Self { mean: 1.0 / rate })
    }
}

impl DelayModel for Exponential {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        // Inverse-CDF: -mean · ln(1 - U), with U ∈ [0, 1) so the argument of
        // ln stays in (0, 1].
        let u = rng.uniform_f64();
        SimDuration::from_secs(-self.mean * (1.0 - u).ln())
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.mean)
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "exponential"
    }
}

/// Erlang-`k` delay: sum of `k` independent exponentials.
///
/// Interpolates between exponential (`k = 1`) and nearly deterministic
/// (`k → ∞`) while keeping unbounded support; models multi-stage pipelines
/// such as the paper's §1 case (ii), dynamic multi-hop routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    k: u32,
    stage_mean: f64,
}

impl Erlang {
    /// Creates an Erlang-`k` delay with overall mean `mean`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `k >= 1` and `mean` is finite and positive.
    pub fn from_mean(k: u32, mean: f64) -> Result<Self, InvalidParamError> {
        require(k >= 1, "k", "must be at least 1", k)?;
        finite_positive(mean, "mean")?;
        Ok(Self {
            k,
            stage_mean: mean / f64::from(k),
        })
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.k
    }
}

impl DelayModel for Erlang {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        let mut total = 0.0;
        for _ in 0..self.k {
            let u = rng.uniform_f64();
            total -= self.stage_mean * (1.0 - u).ln();
        }
        SimDuration::from_secs(total)
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.stage_mean * f64::from(self.k))
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "erlang"
    }
}

/// Pareto (power-law) delay — heavy-tailed with finite mean for shape > 1.
///
/// Models the paper's §1 case (i): queueing spikes under bursty load. The
/// tail is polynomial, so extreme delays are far more likely than under the
/// exponential model, yet the expected delay stays bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

impl Pareto {
    /// Creates a Pareto delay with tail index `shape` and minimum `scale`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `shape > 1` (finite mean) and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, InvalidParamError> {
        require(
            shape.is_finite() && shape > 1.0,
            "shape",
            "must be finite and > 1 for a finite mean",
            shape,
        )?;
        finite_positive(scale, "scale")?;
        Ok(Self { shape, scale })
    }

    /// Creates a Pareto delay with the given `shape` and overall `mean`.
    ///
    /// The scale is derived from `mean = shape·scale/(shape-1)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `shape > 1` and `mean` is finite and positive.
    pub fn from_mean(shape: f64, mean: f64) -> Result<Self, InvalidParamError> {
        finite_positive(mean, "mean")?;
        require(
            shape.is_finite() && shape > 1.0,
            "shape",
            "must be finite and > 1 for a finite mean",
            shape,
        )?;
        let scale = mean * (shape - 1.0) / shape;
        Self::new(shape, scale)
    }

    /// The tail index.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl DelayModel for Pareto {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        let u = rng.uniform_f64();
        // Inverse-CDF: scale · (1 - U)^(-1/shape).
        SimDuration::from_secs(self.scale * (1.0 - u).powf(-1.0 / self.shape))
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.shape * self.scale / (self.shape - 1.0))
    }

    fn min_delay(&self) -> f64 {
        self.scale
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "pareto"
    }
}

/// Log-normal delay: `exp(N(mu, sigma²))`.
///
/// A common empirical fit for wide-area latencies; unbounded support,
/// finite mean `exp(mu + sigma²/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal delay from the underlying normal parameters.
    ///
    /// # Errors
    ///
    /// Returns an error unless `mu` is finite and `sigma` is finite and
    /// non-negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidParamError> {
        require(mu.is_finite(), "mu", "must be finite", mu)?;
        require(
            sigma.is_finite() && sigma >= 0.0,
            "sigma",
            "must be finite and non-negative",
            sigma,
        )?;
        Ok(Self { mu, sigma })
    }

    /// Creates a log-normal delay with the given `mean` and shape `sigma`.
    ///
    /// `mu` is derived from `mean = exp(mu + sigma²/2)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `mean` is finite and positive and `sigma` is
    /// finite and non-negative.
    pub fn from_mean(mean: f64, sigma: f64) -> Result<Self, InvalidParamError> {
        finite_positive(mean, "mean")?;
        require(
            sigma.is_finite() && sigma >= 0.0,
            "sigma",
            "must be finite and non-negative",
            sigma,
        )?;
        Self::new(mean.ln() - 0.5 * sigma * sigma, sigma)
    }
}

impl DelayModel for LogNormal {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        // Box–Muller transform; we consume two uniforms and use one normal,
        // keeping the stream layout simple and deterministic.
        let u1 = rng.uniform_f64();
        let u2 = rng.uniform_f64();
        let r = (-2.0 * (1.0 - u1).ln()).sqrt();
        let z = r * (2.0 * std::f64::consts::PI * u2).cos();
        SimDuration::from_secs((self.mu + self.sigma * z).exp())
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "lognormal"
    }
}

/// Mixture of exponentials — high variance with a finite mean.
///
/// Each branch `(weight, mean)` is chosen with probability proportional to
/// its weight, then an exponential with that branch's mean is drawn. Models
/// multi-path routing where a message takes one of several route classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperexponential {
    /// `(cumulative_weight, mean)` with weights normalised to sum 1.
    branches: Vec<(f64, f64)>,
    mean: f64,
}

impl Hyperexponential {
    /// Creates a mixture from `(weight, mean)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if no branches are given, any weight is
    /// non-positive, or any branch mean is non-positive.
    pub fn new(branches: &[(f64, f64)]) -> Result<Self, InvalidParamError> {
        require(
            !branches.is_empty(),
            "branches",
            "must contain at least one branch",
            branches.len(),
        )?;
        let mut total_weight = 0.0;
        for &(w, m) in branches {
            require(
                w.is_finite() && w > 0.0,
                "weight",
                "must be finite and positive",
                w,
            )?;
            finite_positive(m, "branch mean")?;
            total_weight += w;
        }
        let mut cumulative = 0.0;
        let mut normalised = Vec::with_capacity(branches.len());
        let mut mean = 0.0;
        for &(w, m) in branches {
            let p = w / total_weight;
            cumulative += p;
            normalised.push((cumulative, m));
            mean += p * m;
        }
        // Guard against floating-point undershoot in the final cumulative.
        if let Some(last) = normalised.last_mut() {
            last.0 = 1.0;
        }
        Ok(Self {
            branches: normalised,
            mean,
        })
    }
}

impl DelayModel for Hyperexponential {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        let pick = rng.uniform_f64();
        let branch_mean = self
            .branches
            .iter()
            .find(|(cum, _)| pick < *cum)
            .map(|(_, m)| *m)
            .unwrap_or_else(|| self.branches[self.branches.len() - 1].1);
        let u = rng.uniform_f64();
        SimDuration::from_secs(-branch_mean * (1.0 - u).ln())
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.mean)
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "hyperexponential"
    }
}

/// Two-point delay: `fast` with probability `1 - slow_prob`, else `slow`.
///
/// The simplest "mostly fine, occasionally congested" model; bounded
/// support, so it is also ABD-compatible with bound `slow`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bimodal {
    fast: f64,
    slow: f64,
    slow_prob: f64,
}

impl Bimodal {
    /// Creates a two-point delay.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 <= fast <= slow` (finite) and
    /// `slow_prob ∈ [0, 1]`.
    pub fn new(fast: f64, slow: f64, slow_prob: f64) -> Result<Self, InvalidParamError> {
        finite_non_negative(fast, "fast")?;
        finite_non_negative(slow, "slow")?;
        require(fast <= slow, "slow", "must be >= fast", slow)?;
        require(
            (0.0..=1.0).contains(&slow_prob),
            "slow_prob",
            "must lie in [0, 1]",
            slow_prob,
        )?;
        Ok(Self {
            fast,
            slow,
            slow_prob,
        })
    }
}

impl DelayModel for Bimodal {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        let v = if rng.uniform_f64() < self.slow_prob {
            self.slow
        } else {
            self.fast
        };
        SimDuration::from_secs(v)
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.fast + (self.slow - self.fast) * self.slow_prob)
    }

    fn min_delay(&self) -> f64 {
        if self.slow_prob >= 1.0 {
            self.slow
        } else {
            self.fast
        }
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(if self.slow_prob > 0.0 {
            self.slow
        } else {
            self.fast
        }))
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

/// The gamma function Γ(x) for positive arguments (Lanczos approximation,
/// g = 7, 9 coefficients; relative error below 1e-13 over the range the
/// delay models use). Only what [`Weibull`]'s analytic mean needs — not a
/// general special-functions library.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps small shapes' 1 + 1/k arguments exact.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut acc = C[0];
        for (i, &c) in C.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
    }
}

/// Weibull delay: `scale · (−ln(1−U))^(1/shape)`.
///
/// The standard reliability-engineering latency family: `shape < 1` gives
/// a heavy-tailed, bursty channel (decreasing hazard rate), `shape = 1`
/// *is* the exponential, `shape > 1` concentrates around the mean.
/// Unbounded support for every shape, with analytic mean
/// `scale · Γ(1 + 1/shape)` — so the family is strictly ABE and slots
/// directly under a Definition-1 expected-delay bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull delay with the given `shape` (k) and `scale` (λ).
    ///
    /// # Errors
    ///
    /// Returns an error unless both are finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, InvalidParamError> {
        finite_positive(shape, "shape")?;
        finite_positive(scale, "scale")?;
        Ok(Self { shape, scale })
    }

    /// Creates a Weibull delay with the given `shape` and overall `mean`.
    ///
    /// The scale is derived from `mean = scale · Γ(1 + 1/shape)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `shape` and `mean` are finite and positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use abe_core::delay::{DelayModel, Weibull};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let bursty = Weibull::from_mean(0.5, 2.0)?;
    /// assert!((bursty.mean().as_secs() - 2.0).abs() < 1e-9);
    /// assert!(bursty.upper_bound().is_none()); // unbounded support
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_mean(shape: f64, mean: f64) -> Result<Self, InvalidParamError> {
        finite_positive(shape, "shape")?;
        finite_positive(mean, "mean")?;
        Self::new(shape, mean / gamma(1.0 + 1.0 / shape))
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl DelayModel for Weibull {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        // Inverse-CDF: λ · (−ln(1−U))^(1/k), with U ∈ [0, 1).
        let u = rng.uniform_f64();
        SimDuration::from_secs(self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape))
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.scale * gamma(1.0 + 1.0 / self.shape))
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        None
    }

    fn name(&self) -> &'static str {
        "weibull"
    }
}

/// The paper's §1 case (iii): retransmission over a lossy physical channel.
///
/// Each transmission attempt takes one `slot` and succeeds independently
/// with probability `p`. The number of attempts is geometric, hence
/// **unbounded**, but the expected attempt count is `1/p` and the expected
/// delay `slot/p` — the motivating example for the ABE model.
///
/// # Examples
///
/// ```
/// use abe_core::delay::{DelayModel, Retransmission};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let channel = Retransmission::new(0.25, 1.0)?;
/// assert_eq!(channel.mean().as_secs(), 4.0); // slot/p = 1/0.25
/// assert!(channel.upper_bound().is_none()); // k retransmissions w.p. (1-p)^k
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retransmission {
    success_prob: f64,
    slot: f64,
}

impl Retransmission {
    /// Creates a lossy-channel delay with per-attempt success probability
    /// `success_prob` and per-attempt duration `slot` seconds.
    ///
    /// # Errors
    ///
    /// Returns an error unless `success_prob ∈ (0, 1]` and `slot > 0`.
    pub fn new(success_prob: f64, slot: f64) -> Result<Self, InvalidParamError> {
        require(
            success_prob.is_finite() && success_prob > 0.0 && success_prob <= 1.0,
            "success_prob",
            "must lie in (0, 1]",
            success_prob,
        )?;
        finite_positive(slot, "slot")?;
        Ok(Self { success_prob, slot })
    }

    /// Per-attempt success probability `p`.
    pub fn success_prob(&self) -> f64 {
        self.success_prob
    }

    /// Draws the number of transmission attempts (≥ 1) for one message.
    pub fn sample_attempts(&self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        if self.success_prob >= 1.0 {
            return 1;
        }
        // Inverse-CDF of the geometric distribution (number of Bernoulli(p)
        // trials up to and including the first success):
        // k = 1 + floor(ln(1-U) / ln(1-p)).
        let u = rng.uniform_f64();
        let k = 1.0 + ((1.0 - u).ln() / (1.0 - self.success_prob).ln()).floor();
        // Clamp pathological floating-point outcomes; k is ≥ 1 by design.
        k.max(1.0) as u64
    }
}

impl DelayModel for Retransmission {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        let attempts = self.sample_attempts(rng);
        SimDuration::from_secs(attempts as f64 * self.slot)
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_secs(self.slot / self.success_prob)
    }

    fn min_delay(&self) -> f64 {
        self.slot
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        if self.success_prob >= 1.0 {
            Some(SimDuration::from_secs(self.slot))
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "retransmission"
    }
}

/// Adds a constant propagation offset to an inner model.
///
/// `Shifted::new(offset, inner)` models "wire time plus queueing time".
#[derive(Debug, Clone)]
pub struct Shifted<D> {
    offset: f64,
    inner: D,
}

impl<D: DelayModel> Shifted<D> {
    /// Wraps `inner`, adding `offset` seconds to every sample.
    ///
    /// # Errors
    ///
    /// Returns an error unless `offset` is finite and non-negative.
    pub fn new(offset: f64, inner: D) -> Result<Self, InvalidParamError> {
        finite_non_negative(offset, "offset")?;
        Ok(Self { offset, inner })
    }

    /// The wrapped model.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: DelayModel> DelayModel for Shifted<D> {
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> SimDuration {
        self.inner.sample(rng) + SimDuration::from_secs(self.offset)
    }

    fn mean(&self) -> SimDuration {
        self.inner.mean() + SimDuration::from_secs(self.offset)
    }

    fn min_delay(&self) -> f64 {
        self.offset + self.inner.min_delay()
    }

    fn consumes_rng(&self) -> bool {
        self.inner.consumes_rng()
    }

    fn upper_bound(&self) -> Option<SimDuration> {
        self.inner
            .upper_bound()
            .map(|b| b + SimDuration::from_secs(self.offset))
    }

    fn name(&self) -> &'static str {
        "shifted"
    }
}

/// The standard delay families used by the evaluation harness, all scaled
/// to a common mean.
///
/// Returns `(label, model)` pairs; used by the delay-robustness experiment
/// (the model only promises results in terms of the *expected* delay, so
/// complexity shapes must be family-invariant).
///
/// # Panics
///
/// Panics if `mean` is not finite and positive (the constituent
/// constructors validate it).
pub fn standard_families(mean: f64) -> Vec<(&'static str, SharedDelay)> {
    vec![
        (
            "deterministic",
            Arc::new(Deterministic::new(mean).expect("valid mean")) as SharedDelay,
        ),
        (
            "uniform",
            Arc::new(Uniform::from_mean(mean, 0.5).expect("valid mean")),
        ),
        (
            "exponential",
            Arc::new(Exponential::from_mean(mean).expect("valid mean")),
        ),
        (
            "erlang-4",
            Arc::new(Erlang::from_mean(4, mean).expect("valid mean")),
        ),
        (
            "pareto-2.5",
            Arc::new(Pareto::from_mean(2.5, mean).expect("valid mean")),
        ),
        (
            "lognormal",
            Arc::new(LogNormal::from_mean(mean, 1.0).expect("valid mean")),
        ),
        (
            "hyperexp",
            Arc::new(
                Hyperexponential::new(&[(0.9, mean * 0.5), (0.1, mean * 5.5)])
                    .expect("valid branches"),
            ),
        ),
        (
            "retransmission",
            Arc::new(Retransmission::new(1.0 / mean.max(1.0), 1.0).expect("valid p")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    /// Empirical mean over `n` samples.
    fn empirical_mean(model: &dyn DelayModel, n: u64, seed: u64) -> f64 {
        let mut r = rng(seed);
        (0..n).map(|_| model.sample(&mut r).as_secs()).sum::<f64>() / n as f64
    }

    fn assert_mean_close(model: &dyn DelayModel, tolerance: f64) {
        let analytic = model.mean().as_secs();
        let empirical = empirical_mean(model, 200_000, 42);
        let rel = (empirical - analytic).abs() / analytic.max(1e-12);
        assert!(
            rel < tolerance,
            "{}: empirical mean {empirical} vs analytic {analytic} (rel err {rel})",
            model.name()
        );
    }

    #[test]
    fn deterministic_is_constant() {
        let m = Deterministic::new(2.5).unwrap();
        let mut r = rng(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r).as_secs(), 2.5);
        }
        assert_eq!(m.mean().as_secs(), 2.5);
        assert_eq!(m.upper_bound().unwrap().as_secs(), 2.5);
    }

    #[test]
    fn deterministic_zero() {
        let m = Deterministic::zero();
        assert_eq!(m.mean().as_secs(), 0.0);
    }

    #[test]
    fn deterministic_rejects_negative() {
        assert!(Deterministic::new(-1.0).is_err());
        assert!(Deterministic::new(f64::NAN).is_err());
    }

    #[test]
    fn uniform_support_and_mean() {
        let m = Uniform::new(1.0, 3.0).unwrap();
        let mut r = rng(2);
        for _ in 0..1000 {
            let s = m.sample(&mut r).as_secs();
            assert!((1.0..=3.0).contains(&s));
        }
        assert_eq!(m.mean().as_secs(), 2.0);
        assert_eq!(m.upper_bound().unwrap().as_secs(), 3.0);
        assert_mean_close(&m, 0.01);
    }

    #[test]
    fn uniform_from_mean() {
        let m = Uniform::from_mean(2.0, 0.5).unwrap();
        assert_eq!(m.mean().as_secs(), 2.0);
        assert_eq!(m.upper_bound().unwrap().as_secs(), 3.0);
    }

    #[test]
    fn uniform_rejects_reversed_bounds() {
        assert!(Uniform::new(3.0, 1.0).is_err());
        assert!(Uniform::from_mean(1.0, 1.5).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let m = Exponential::from_mean(2.0).unwrap();
        assert_eq!(m.mean().as_secs(), 2.0);
        assert!(m.upper_bound().is_none());
        assert_mean_close(&m, 0.02);
    }

    #[test]
    fn exponential_from_rate() {
        let m = Exponential::from_rate(4.0).unwrap();
        assert_eq!(m.mean().as_secs(), 0.25);
    }

    #[test]
    fn exponential_rejects_bad_params() {
        assert!(Exponential::from_mean(0.0).is_err());
        assert!(Exponential::from_rate(-1.0).is_err());
        assert!(Exponential::from_mean(f64::INFINITY).is_err());
    }

    #[test]
    fn erlang_mean_matches() {
        let m = Erlang::from_mean(4, 2.0).unwrap();
        assert_eq!(m.stages(), 4);
        assert_eq!(m.mean().as_secs(), 2.0);
        assert_mean_close(&m, 0.02);
    }

    #[test]
    fn erlang_k1_equals_exponential_family() {
        let m = Erlang::from_mean(1, 3.0).unwrap();
        assert_eq!(m.mean().as_secs(), 3.0);
        assert!(m.upper_bound().is_none());
    }

    #[test]
    fn erlang_rejects_zero_stages() {
        assert!(Erlang::from_mean(0, 1.0).is_err());
    }

    #[test]
    fn erlang_has_lower_variance_than_exponential() {
        let exp = Exponential::from_mean(1.0).unwrap();
        let erl = Erlang::from_mean(16, 1.0).unwrap();
        let var = |m: &dyn DelayModel| {
            let mut r = rng(7);
            let n = 50_000;
            let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut r).as_secs()).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64
        };
        assert!(var(&erl) < var(&exp) * 0.25);
    }

    #[test]
    fn pareto_mean_matches() {
        let m = Pareto::from_mean(2.5, 1.0).unwrap();
        assert!((m.mean().as_secs() - 1.0).abs() < 1e-12);
        assert!(m.upper_bound().is_none());
        // Heavy tail: wider tolerance.
        assert_mean_close(&m, 0.05);
    }

    #[test]
    fn pareto_samples_at_least_scale() {
        let m = Pareto::new(2.0, 0.5).unwrap();
        let mut r = rng(3);
        for _ in 0..1000 {
            assert!(m.sample(&mut r).as_secs() >= 0.5);
        }
    }

    #[test]
    fn pareto_rejects_shape_at_most_one() {
        assert!(Pareto::new(1.0, 1.0).is_err());
        assert!(Pareto::from_mean(0.5, 1.0).is_err());
    }

    #[test]
    fn lognormal_mean_matches() {
        let m = LogNormal::from_mean(2.0, 0.75).unwrap();
        assert!((m.mean().as_secs() - 2.0).abs() < 1e-12);
        assert_mean_close(&m, 0.03);
    }

    #[test]
    fn lognormal_rejects_bad_sigma() {
        assert!(LogNormal::new(0.0, -1.0).is_err());
        assert!(LogNormal::from_mean(-2.0, 0.5).is_err());
    }

    #[test]
    fn hyperexponential_mean_matches() {
        let m = Hyperexponential::new(&[(0.9, 0.5), (0.1, 5.5)]).unwrap();
        assert!((m.mean().as_secs() - 1.0).abs() < 1e-12);
        assert_mean_close(&m, 0.03);
    }

    #[test]
    fn hyperexponential_single_branch_is_exponential() {
        let m = Hyperexponential::new(&[(1.0, 2.0)]).unwrap();
        assert_eq!(m.mean().as_secs(), 2.0);
    }

    #[test]
    fn hyperexponential_rejects_empty_and_bad_weights() {
        assert!(Hyperexponential::new(&[]).is_err());
        assert!(Hyperexponential::new(&[(0.0, 1.0)]).is_err());
        assert!(Hyperexponential::new(&[(1.0, 0.0)]).is_err());
    }

    #[test]
    fn bimodal_mean_and_bounds() {
        let m = Bimodal::new(1.0, 10.0, 0.1).unwrap();
        assert!((m.mean().as_secs() - 1.9).abs() < 1e-12);
        assert_eq!(m.upper_bound().unwrap().as_secs(), 10.0);
        assert_mean_close(&m, 0.03);
    }

    #[test]
    fn bimodal_never_slow_bound_is_fast() {
        let m = Bimodal::new(1.0, 10.0, 0.0).unwrap();
        assert_eq!(m.upper_bound().unwrap().as_secs(), 1.0);
    }

    #[test]
    fn bimodal_rejects_reversed_modes() {
        assert!(Bimodal::new(2.0, 1.0, 0.5).is_err());
        assert!(Bimodal::new(1.0, 2.0, 1.5).is_err());
    }

    #[test]
    fn gamma_matches_known_values() {
        // Γ(n) = (n−1)! on integers; Γ(1/2) = √π.
        for (x, want) in [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (5.0, 24.0)] {
            assert!((gamma(x) - want).abs() < 1e-10, "Γ({x}) = {}", gamma(x));
        }
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // k = 1 collapses to Exp(λ): identical inverse-CDF, so identical
        // samples from identical streams.
        let w = Weibull::from_mean(1.0, 2.0).unwrap();
        let e = Exponential::from_mean(2.0).unwrap();
        assert!((w.mean().as_secs() - 2.0).abs() < 1e-12);
        let (mut ra, mut rb) = (rng(14), rng(14));
        for _ in 0..100 {
            assert!((w.sample(&mut ra).as_secs() - e.sample(&mut rb).as_secs()).abs() < 1e-12);
        }
    }

    #[test]
    fn weibull_mean_matches() {
        for shape in [0.5, 1.0, 1.5, 3.0] {
            let m = Weibull::from_mean(shape, 2.0).unwrap();
            assert!(
                (m.mean().as_secs() - 2.0).abs() < 1e-9,
                "shape {shape}: analytic mean {}",
                m.mean()
            );
            // Heavy tails at small shape: widen the tolerance there.
            assert_mean_close(&m, if shape < 1.0 { 0.05 } else { 0.02 });
        }
        assert!(Weibull::from_mean(2.0, 1.0)
            .unwrap()
            .upper_bound()
            .is_none());
        assert_eq!(Weibull::from_mean(2.0, 1.0).unwrap().shape(), 2.0);
    }

    #[test]
    fn weibull_rejects_bad_params() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::from_mean(f64::NAN, 1.0).is_err());
        assert!(Weibull::from_mean(1.0, -2.0).is_err());
        assert!(Weibull::from_mean(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn retransmission_mean_is_slot_over_p() {
        // The paper's §1 computation: k_avg = Σ (k+1)(1-p)^k p = 1/p.
        for &p in &[0.1, 0.25, 0.5, 0.9, 1.0] {
            let m = Retransmission::new(p, 1.0).unwrap();
            assert!((m.mean().as_secs() - 1.0 / p).abs() < 1e-12);
        }
        let m = Retransmission::new(0.25, 2.0).unwrap();
        assert_eq!(m.mean().as_secs(), 8.0);
        assert_mean_close(&m, 0.02);
    }

    #[test]
    fn retransmission_attempts_at_least_one() {
        let m = Retransmission::new(0.05, 1.0).unwrap();
        let mut r = rng(4);
        for _ in 0..10_000 {
            assert!(m.sample_attempts(&mut r) >= 1);
        }
    }

    #[test]
    fn retransmission_attempts_mean_is_one_over_p() {
        let m = Retransmission::new(0.2, 1.0).unwrap();
        let mut r = rng(5);
        let n = 200_000u64;
        let mean = (0..n)
            .map(|_| m.sample_attempts(&mut r) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "got {mean}");
    }

    #[test]
    fn retransmission_perfect_channel_is_bounded() {
        let m = Retransmission::new(1.0, 3.0).unwrap();
        let mut r = rng(6);
        assert_eq!(m.sample(&mut r).as_secs(), 3.0);
        assert_eq!(m.upper_bound().unwrap().as_secs(), 3.0);
    }

    #[test]
    fn retransmission_lossy_channel_is_unbounded() {
        let m = Retransmission::new(0.5, 1.0).unwrap();
        assert!(m.upper_bound().is_none());
    }

    #[test]
    fn retransmission_rejects_bad_p() {
        assert!(Retransmission::new(0.0, 1.0).is_err());
        assert!(Retransmission::new(1.5, 1.0).is_err());
        assert!(Retransmission::new(0.5, 0.0).is_err());
    }

    #[test]
    fn shifted_adds_offset() {
        let m = Shifted::new(1.0, Deterministic::new(2.0).unwrap()).unwrap();
        let mut r = rng(8);
        assert_eq!(m.sample(&mut r).as_secs(), 3.0);
        assert_eq!(m.mean().as_secs(), 3.0);
        assert_eq!(m.upper_bound().unwrap().as_secs(), 3.0);
    }

    #[test]
    fn shifted_preserves_unboundedness() {
        let m = Shifted::new(1.0, Exponential::from_mean(1.0).unwrap()).unwrap();
        assert!(m.upper_bound().is_none());
        assert_eq!(m.mean().as_secs(), 2.0);
    }

    #[test]
    fn all_samples_non_negative_and_finite() {
        let mean = 1.5;
        for (label, model) in standard_families(mean) {
            let mut r = rng(9);
            for _ in 0..10_000 {
                let s = model.sample(&mut r).as_secs();
                assert!(s.is_finite() && s >= 0.0, "{label} produced {s}");
            }
        }
    }

    #[test]
    fn standard_families_share_the_mean() {
        // The retransmission member's mean is slot/p = mean only when
        // mean >= 1 (p ≤ 1); use such a mean here.
        for (label, model) in standard_families(2.0) {
            assert!(
                (model.mean().as_secs() - 2.0).abs() < 1e-9,
                "{label} has mean {}",
                model.mean()
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = Exponential::from_mean(1.0).unwrap();
        let mut a = rng(10);
        let mut b = rng(10);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }
}
