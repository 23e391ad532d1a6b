//! Budgeted scheduling adversaries — the *adversarial* half of Definition 1.
//!
//! The paper defines message delays as "chosen by an adversary, subject to
//! a known bound on the **expected** delay". Everything else in this
//! workspace samples delays obliviously from a fixed distribution; this
//! module is the hook through which a strategy may *choose* them instead:
//!
//! * an [`Adversary`] intercepts every send at delay-sampling time and
//!   returns the channel delay it wants (stretch, burst, or reorder —
//!   non-FIFO delivery is the default, so inversions are legal);
//! * a [`BudgetAuditor`] tracks the **per-edge empirical mean** of the
//!   delays actually granted (one [`abe_stats::Online`] accumulator per
//!   edge) and clamps any proposal that would push an edge's mean above
//!   the configured Definition-1 bound `δ` — so every adversarial run is
//!   still a *legal* ABE execution, by construction;
//! * an adversary may be **adaptive**: each send carries a [`SendView`]
//!   exposing the edge, the current virtual time, the obliviously sampled
//!   delay, the remaining per-edge allowance, and a narrow protocol view
//!   ([`SendView::heat`], fed by [`Protocol::heat`](crate::Protocol::heat))
//!   — enough to target the current token-holder of an election or the
//!   frontier of a wave, and nothing more.
//!
//! ## Determinism
//!
//! Adversary randomness draws from a dedicated `"adversary"`
//! [`SeedStream`](abe_sim::SeedStream) child of the builder's master seed.
//! An **empty plan consumes no draws and schedules nothing**: a network
//! built with [`AdversaryPlan::none`] is bit-identical to one built
//! without calling [`NetworkBuilder::adversary`](crate::NetworkBuilder::adversary)
//! at all.
//!
//! ## Interplay with faults
//!
//! The adversary replaces the *channel* delay of messages that will be
//! delivered; fault-plan drops are decided first (and consume their own
//! stream), and delay storms multiply the adversary's granted delay
//! afterwards. The auditor bounds the adversary's choices only — storms
//! deliberately model bound violations and stay un-audited.
//!
//! Concrete strategies (oblivious swapper, heavy-tail burster, reorderer,
//! adaptive targeting) live in the `abe-adversary` crate; this module owns
//! the trait, the plan, and the enforcement so the runtime never depends
//! on any particular strategy.

use std::fmt;

use abe_sim::{SimDuration, Xoshiro256PlusPlus};
use abe_stats::Online;

use crate::error::InvalidParamError;

/// One intercepted send, as the adversary sees it.
///
/// Deliberately narrow: no message payloads, no protocol internals beyond
/// the coarse per-node [`heat`](Self::heat) — the adversary schedules, it
/// does not inspect state.
pub struct SendView<'a> {
    /// Index of the edge carrying the message (dense, in topology order).
    pub edge: u32,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Virtual time of the send (seconds).
    pub now: f64,
    /// The delay the edge's oblivious model sampled for this message
    /// (seconds); returning it unchanged reproduces the oblivious run.
    pub sampled: f64,
    /// The configured Definition-1 bound `δ` on per-edge expected delay.
    pub budget: f64,
    /// The largest delay the auditor would grant un-clamped right now:
    /// `δ·(k+1) − Σ granted` for an edge with `k` prior sends. Always at
    /// least `budget`; grows when the adversary banks cheap deliveries.
    pub allowance: f64,
    pub(crate) heat: &'a dyn Fn(u32) -> u32,
    pub(crate) node_count: u32,
}

impl SendView<'_> {
    /// The [`Protocol::heat`](crate::Protocol::heat) of node `node` right
    /// now — the narrow protocol view for adaptive strategies (0 = cold).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn heat(&self, node: u32) -> u32 {
        assert!(node < self.node_count, "node {node} out of range");
        (self.heat)(node)
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }
}

impl fmt::Debug for SendView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SendView")
            .field("edge", &self.edge)
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("now", &self.now)
            .field("sampled", &self.sampled)
            .field("budget", &self.budget)
            .field("allowance", &self.allowance)
            .finish()
    }
}

/// A scheduling adversary: chooses the channel delay of every send.
///
/// Implementations are stateful (`&mut self`) and may be adaptive (read
/// the [`SendView`]) or oblivious (ignore it). Returned delays are
/// **proposals**: the runtime's [`BudgetAuditor`] grants at most the
/// current per-edge allowance, so no strategy can break the Definition-1
/// bound — it can only waste its own clamped proposals.
pub trait Adversary: fmt::Debug + Send {
    /// Short stable strategy name (used in tables and JSON).
    fn name(&self) -> &'static str;

    /// Proposes the channel delay (seconds) for one send.
    ///
    /// `rng` is the dedicated `"adversary"` stream; using any other source
    /// of randomness would break run reproducibility. Non-finite or
    /// negative proposals are clamped to zero (and counted as clamps).
    fn delay(&mut self, send: &SendView<'_>, rng: &mut Xoshiro256PlusPlus) -> f64;

    /// Clones the strategy behind the object-safe interface (lets
    /// [`AdversaryPlan`] — and configs holding one — stay `Clone`).
    fn box_clone(&self) -> Box<dyn Adversary>;
}

impl Clone for Box<dyn Adversary> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Declarative adversary configuration for
/// [`NetworkBuilder::adversary`](crate::NetworkBuilder::adversary).
///
/// The default ([`AdversaryPlan::none`]) installs nothing and leaves the
/// simulation bit-identical to a build without any plan.
#[derive(Debug, Clone, Default)]
pub struct AdversaryPlan {
    strategy: Option<Box<dyn Adversary>>,
    budget: f64,
}

impl AdversaryPlan {
    /// The empty plan: no interception, no random draws, no telemetry.
    pub fn none() -> Self {
        Self::default()
    }

    /// Installs `strategy` under the per-edge expected-delay bound
    /// `budget` (the `δ` of Definition 1, in seconds).
    ///
    /// # Errors
    ///
    /// Returns an error unless `budget` is finite and positive.
    pub fn new(budget: f64, strategy: impl Adversary + 'static) -> Result<Self, InvalidParamError> {
        if !(budget.is_finite() && budget > 0.0) {
            return Err(InvalidParamError::new(
                "budget",
                "must be finite and positive",
                budget,
            ));
        }
        Ok(Self {
            strategy: Some(Box::new(strategy)),
            budget,
        })
    }

    /// Whether the plan installs nothing.
    pub fn is_empty(&self) -> bool {
        self.strategy.is_none()
    }

    /// The configured Definition-1 bound, or `None` for an empty plan.
    pub fn budget(&self) -> Option<f64> {
        self.strategy.as_ref().map(|_| self.budget)
    }

    /// The installed strategy's name, or `None` for an empty plan.
    pub fn strategy_name(&self) -> Option<&'static str> {
        self.strategy.as_ref().map(|s| s.name())
    }

    /// Compiles the plan into runtime state; `rng` must come from the
    /// builder's `"adversary"` seed stream. Returns `None` for an empty
    /// plan so the dispatch hot path stays branch-cheap.
    pub(crate) fn compile(
        &self,
        edge_count: usize,
        rng: Xoshiro256PlusPlus,
    ) -> Option<AdversaryRuntime> {
        self.strategy.as_ref().map(|strategy| AdversaryRuntime {
            strategy: strategy.clone(),
            auditor: BudgetAuditor::new(self.budget, edge_count),
            rng,
            intercepted: 0,
        })
    }
}

/// Online enforcement of the Definition-1 bound over adversary proposals.
///
/// Keeps one [`Online`] accumulator of **granted** delays per edge. A
/// proposal is granted un-clamped iff accepting it keeps that edge's
/// empirical mean at or below the budget; otherwise it is clamped down to
/// the exact allowance (never below zero). The invariant maintained after
/// every send: `mean(granted delays on edge e) ≤ budget` for every `e`.
#[derive(Debug, Clone)]
pub struct BudgetAuditor {
    budget: f64,
    edges: Vec<Online>,
    clamped: u64,
}

impl BudgetAuditor {
    /// An auditor for `edge_count` edges under per-edge bound `budget`.
    pub fn new(budget: f64, edge_count: usize) -> Self {
        Self {
            budget,
            edges: vec![Online::new(); edge_count],
            clamped: 0,
        }
    }

    /// The configured per-edge bound `δ`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The largest delay `edge` can be granted right now without pushing
    /// its empirical mean past the budget: `δ·(k+1) − Σ granted`.
    ///
    /// By induction this is never below `δ` (a legal edge always has at
    /// least one full budget of headroom for its next send).
    pub fn allowance(&self, edge: usize) -> f64 {
        let acc = &self.edges[edge];
        self.budget * (acc.count() + 1) as f64 - acc.total()
    }

    /// Grants `proposed` on `edge`, clamping it into the legal range;
    /// returns the granted delay and records it in the edge's mean.
    pub fn admit(&mut self, edge: usize, proposed: f64) -> f64 {
        let allowance = self.allowance(edge);
        let granted = if proposed.is_nan() || proposed < 0.0 {
            self.clamped += 1;
            0.0
        } else if proposed > allowance {
            self.clamped += 1;
            allowance
        } else {
            proposed
        };
        self.edges[edge].push(granted);
        granted
    }

    /// Proposals clamped so far (rejected excesses and invalid values).
    pub fn clamp_count(&self) -> u64 {
        self.clamped
    }

    /// The largest per-edge empirical mean of granted delays (0 if no
    /// edge has seen a send). The headline auditor telemetry: must never
    /// exceed the budget beyond floating-point noise.
    pub fn max_edge_mean(&self) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.count() > 0)
            .map(Online::mean)
            .fold(0.0, f64::max)
    }

    /// Edges whose empirical mean exceeds the budget beyond a relative
    /// `1e-9` floating-point tolerance. The enforced invariant: **always
    /// zero** (clamping is exact up to rounding).
    pub fn violations(&self) -> u64 {
        let bound = self.budget * (1.0 + 1e-9);
        self.edges
            .iter()
            .filter(|e| e.count() > 0 && e.mean() > bound)
            .count() as u64
    }
}

/// Auditor telemetry for one run, surfaced on
/// [`NetworkReport`](crate::NetworkReport); all zero when no adversary
/// was installed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdversaryStats {
    /// Sends intercepted by the adversary.
    pub intercepted: u64,
    /// Proposals clamped by the auditor.
    pub clamped: u64,
    /// Largest per-edge empirical mean of granted delays (seconds).
    pub max_edge_mean: f64,
    /// Edges whose empirical mean ended above the budget (must be 0).
    pub violations: u64,
}

/// The compiled, mutable runtime state of a plan inside a running
/// [`Network`](crate::Network).
#[derive(Clone)]
pub(crate) struct AdversaryRuntime {
    strategy: Box<dyn Adversary>,
    auditor: BudgetAuditor,
    rng: Xoshiro256PlusPlus,
    intercepted: u64,
}

impl AdversaryRuntime {
    /// Intercepts one send: consults the strategy, audits its proposal,
    /// and returns the granted channel delay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn intercept(
        &mut self,
        edge: usize,
        src: u32,
        dst: u32,
        now: f64,
        sampled: SimDuration,
        heat: &dyn Fn(u32) -> u32,
        node_count: u32,
    ) -> SimDuration {
        let send = SendView {
            edge: edge as u32,
            src,
            dst,
            now,
            sampled: sampled.as_secs(),
            budget: self.auditor.budget(),
            allowance: self.auditor.allowance(edge),
            heat,
            node_count,
        };
        let proposed = self.strategy.delay(&send, &mut self.rng);
        let granted = self.auditor.admit(edge, proposed);
        self.intercepted += 1;
        SimDuration::from_secs(granted)
    }

    /// Final run telemetry.
    pub(crate) fn stats(&self) -> AdversaryStats {
        AdversaryStats {
            intercepted: self.intercepted,
            clamped: self.auditor.clamp_count(),
            max_edge_mean: self.auditor.max_edge_mean(),
            violations: self.auditor.violations(),
        }
    }
}

impl fmt::Debug for AdversaryRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversaryRuntime")
            .field("strategy", &self.strategy.name())
            .field("budget", &self.auditor.budget())
            .field("intercepted", &self.intercepted)
            .field("clamped", &self.auditor.clamp_count())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use abe_sim::SeedStream;

    /// Always proposes a fixed delay (test strategy).
    #[derive(Debug, Clone)]
    pub(crate) struct Constant(pub(crate) f64);

    impl Adversary for Constant {
        fn name(&self) -> &'static str {
            "constant"
        }
        fn delay(&mut self, _send: &SendView<'_>, _rng: &mut Xoshiro256PlusPlus) -> f64 {
            self.0
        }
        fn box_clone(&self) -> Box<dyn Adversary> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = AdversaryPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.budget(), None);
        assert_eq!(plan.strategy_name(), None);
        let rng = SeedStream::new(0).stream("adversary", 0);
        assert!(plan.compile(4, rng).is_none());
    }

    #[test]
    fn plan_rejects_bad_budgets() {
        assert!(AdversaryPlan::new(0.0, Constant(1.0)).is_err());
        assert!(AdversaryPlan::new(-1.0, Constant(1.0)).is_err());
        assert!(AdversaryPlan::new(f64::NAN, Constant(1.0)).is_err());
        assert!(AdversaryPlan::new(f64::INFINITY, Constant(1.0)).is_err());
        let plan = AdversaryPlan::new(2.0, Constant(1.0)).unwrap();
        assert_eq!(plan.budget(), Some(2.0));
        assert_eq!(plan.strategy_name(), Some("constant"));
    }

    #[test]
    fn auditor_grants_within_budget_unclamped() {
        let mut a = BudgetAuditor::new(1.0, 2);
        for _ in 0..100 {
            assert_eq!(a.admit(0, 0.5), 0.5);
        }
        assert_eq!(a.clamp_count(), 0);
        assert!((a.max_edge_mean() - 0.5).abs() < 1e-12);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn auditor_clamps_excess_to_the_exact_allowance() {
        let mut a = BudgetAuditor::new(1.0, 1);
        // First send: allowance is exactly the budget.
        assert_eq!(a.allowance(0), 1.0);
        assert_eq!(a.admit(0, 10.0), 1.0);
        assert_eq!(a.clamp_count(), 1);
        // The edge sits exactly at the bound; next allowance is again δ.
        assert!((a.allowance(0) - 1.0).abs() < 1e-12);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn banking_cheap_sends_grows_the_allowance() {
        let mut a = BudgetAuditor::new(1.0, 1);
        for _ in 0..4 {
            assert_eq!(a.admit(0, 0.0), 0.0);
        }
        // Four banked budgets plus the new send's own.
        assert!((a.allowance(0) - 5.0).abs() < 1e-12);
        assert_eq!(a.admit(0, 5.0), 5.0);
        assert_eq!(a.clamp_count(), 0);
        // Mean is exactly at the bound: 5 / 5 = 1.
        assert!((a.max_edge_mean() - 1.0).abs() < 1e-12);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn invalid_proposals_are_clamped_to_zero() {
        let mut a = BudgetAuditor::new(1.0, 1);
        assert_eq!(a.admit(0, f64::NAN), 0.0);
        assert_eq!(a.admit(0, -3.0), 0.0);
        assert_eq!(a.admit(0, f64::INFINITY), 3.0); // allowance after 2 zeros
        assert_eq!(a.clamp_count(), 3);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn mean_never_exceeds_budget_under_greedy_spending() {
        // A strategy that always proposes f64::MAX is clamped to the
        // allowance every time; the per-edge mean must pin to the budget.
        let mut a = BudgetAuditor::new(2.5, 3);
        for i in 0..1000 {
            let edge = i % 3;
            let granted = a.admit(edge, f64::MAX);
            assert!(granted >= 2.5, "allowance dipped below the budget");
        }
        assert!(a.max_edge_mean() <= 2.5 * (1.0 + 1e-9));
        assert_eq!(a.violations(), 0);
        assert_eq!(a.clamp_count(), 1000);
    }

    #[test]
    fn stats_default_is_all_zero() {
        let s = AdversaryStats::default();
        assert_eq!(s.intercepted, 0);
        assert_eq!(s.clamped, 0);
        assert_eq!(s.max_edge_mean, 0.0);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn boxed_adversaries_clone() {
        let boxed: Box<dyn Adversary> = Box::new(Constant(0.25));
        let mut cloned = boxed.clone();
        let heat = |_: u32| 0u32;
        let send = SendView {
            edge: 0,
            src: 0,
            dst: 1,
            now: 0.0,
            sampled: 1.0,
            budget: 1.0,
            allowance: 1.0,
            heat: &heat,
            node_count: 2,
        };
        let mut rng = SeedStream::new(0).stream("adversary", 0);
        assert_eq!(cloned.delay(&send, &mut rng), 0.25);
        assert_eq!(send.node_count(), 2);
        assert_eq!(send.heat(1), 0);
        assert!(format!("{send:?}").contains("edge"));
    }
}
