//! # abe-adversary — scheduling strategies that probe the ABE boundary
//!
//! Definition 1 of the paper grants an **adversary** the choice of every
//! message delay, constrained only by a known bound `δ` on the *expected*
//! delay per channel. The runtime half of that sentence lives in
//! [`abe_core::adversary`]: an [`Adversary`] hook at delay-sampling time
//! plus a [`BudgetAuditor`](abe_core::BudgetAuditor) that clamps any
//! strategy back inside the bound. This crate supplies the strategies:
//!
//! | Strategy | Class | Idea |
//! |----------|-------|------|
//! | [`Swap`] | oblivious | replace the channel's distribution wholesale |
//! | [`Burst`] | oblivious | bank ~zero delays, then spend the whole accumulated allowance at once (extreme heavy tail) |
//! | [`Reorder`] | oblivious | alternate near-zero and double-budget delays per edge, inverting consecutive deliveries (FIFO violation) |
//! | [`TargetHeat`] | **adaptive** | read the narrow protocol view and dump the banked allowance onto messages heading for *hot* nodes (the election's token-holder, a wave's frontier) |
//!
//! All four are *legal* ABE adversaries: the auditor guarantees every
//! per-edge empirical mean stays at or below the configured budget, so an
//! adversarial run differs from an oblivious one only in *which* legal
//! execution it picks. That is exactly the regime the paper's expected
//! complexity bounds must survive — experiments `e17`/`e18` in
//! `abe-bench` measure how much room the bounds leave.
//!
//! ## Example
//!
//! ```
//! use abe_adversary::TargetHeat;
//! use abe_core::{AdversaryPlan, RunConfig};
//! use abe_election::{run_abe_calibrated, RingConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let plan = AdversaryPlan::new(1.0, TargetHeat::new())?;
//! let cfg = RingConfig::new(16, RunConfig::new().seed(3).adversary(plan));
//! let outcome = run_abe_calibrated(&cfg, 1.0);
//! assert_eq!(outcome.leaders, 1); // still correct — just slower
//! // Every per-edge empirical mean honoured the Definition-1 bound.
//! assert_eq!(outcome.report.adversary.violations, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use abe_core::delay::SharedDelay;
use abe_core::{Adversary, SendView};
use abe_sim::Xoshiro256PlusPlus;

/// Oblivious distribution-swapper: ignores the view and samples every
/// delay from a replacement [`DelayModel`](abe_core::delay::DelayModel).
///
/// The baseline adversary: a model with mean at or below the budget is
/// admissible in aggregate (its audited means settle under the bound),
/// though individual samples above an edge's current allowance still get
/// clamped; a model with a *larger* mean is systematically cut back —
/// clamp count grows and the audited mean pins to the budget.
#[derive(Debug, Clone)]
pub struct Swap {
    model: SharedDelay,
}

impl Swap {
    /// Swaps every channel delay for a draw from `model`.
    pub fn new(model: SharedDelay) -> Self {
        Self { model }
    }
}

impl Adversary for Swap {
    fn name(&self) -> &'static str {
        "swap"
    }

    fn delay(&mut self, _send: &SendView<'_>, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.model.sample(rng).as_secs()
    }

    fn box_clone(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Heavy-tail burster: with probability `p` spends the edge's **entire
/// accumulated allowance** in one delivery, otherwise delivers instantly.
///
/// Between bursts the edge banks a full budget per send, so a burst after
/// `k` quiet sends stalls one message for `(k+1)·δ` — a delay tail far
/// heavier than any fixed distribution with the same mean, yet never
/// clamped: the per-edge empirical mean rides exactly at the bound after
/// every burst.
#[derive(Debug, Clone)]
pub struct Burst {
    p: f64,
}

impl Burst {
    /// Bursts each send independently with probability `p ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]` (a configuration error).
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && p > 0.0 && p <= 1.0,
            "burst probability must lie in (0, 1], got {p}"
        );
        Self { p }
    }
}

impl Adversary for Burst {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn delay(&mut self, send: &SendView<'_>, rng: &mut Xoshiro256PlusPlus) -> f64 {
        if rng.uniform_f64() < self.p {
            send.allowance
        } else {
            0.0
        }
    }

    fn box_clone(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// FIFO-violating reorderer: per edge, even-numbered sends deliver
/// instantly and odd-numbered sends absorb the full (two-budget)
/// allowance — so a slow message is regularly overtaken by the fast one
/// sent right after it.
///
/// Channels are non-FIFO by default ("the order of messages is arbitrary
/// between any pair of nodes"), but oblivious exponential draws invert
/// neighbours only occasionally; this strategy manufactures inversions
/// deterministically while keeping every per-edge mean exactly on budget.
#[derive(Debug, Clone, Default)]
pub struct Reorder {
    /// Per-edge send parity, grown on demand.
    odd: Vec<bool>,
}

impl Reorder {
    /// Creates the reorderer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for Reorder {
    fn name(&self) -> &'static str {
        "reorder"
    }

    fn delay(&mut self, send: &SendView<'_>, _rng: &mut Xoshiro256PlusPlus) -> f64 {
        let edge = send.edge as usize;
        if self.odd.len() <= edge {
            self.odd.resize(edge + 1, false);
        }
        let odd = self.odd[edge];
        self.odd[edge] = !odd;
        if odd {
            // The preceding fast send banked one budget: the allowance is
            // 2δ, landing this message *behind* the next fast one.
            send.allowance
        } else {
            0.0
        }
    }

    fn box_clone(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Adaptive adversary: reads the narrow protocol view and stalls messages
/// headed for **hot** nodes, banking budget on everything else.
///
/// [`SendView::heat`] surfaces each node's
/// [`Protocol::heat`](abe_core::Protocol::heat): the election reports its
/// token-holders (active nodes) and wake-up candidates (idle nodes), waves
/// their frontier. Messages toward cold nodes (e.g. knocked-out passive
/// ring nodes) are delivered instantly — each one banks a full budget on
/// its edge — and the accumulated allowance is dumped onto the next
/// delivery that actually advances the protocol. The per-edge empirical
/// mean still never exceeds `δ`: this is the strongest adversary the ABE
/// definition admits, concentrated where it hurts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TargetHeat;

impl TargetHeat {
    /// Creates the adaptive targeting adversary.
    pub fn new() -> Self {
        Self
    }
}

impl Adversary for TargetHeat {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn delay(&mut self, send: &SendView<'_>, _rng: &mut Xoshiro256PlusPlus) -> f64 {
        if send.heat(send.dst) > 0 {
            send.allowance
        } else {
            0.0
        }
    }

    fn box_clone(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_core::delay::{Deterministic, Exponential, Pareto};
    use abe_core::{AdversaryPlan, Ctx, InPort, NetworkBuilder, OutPort, Protocol, Topology};
    use abe_sim::RunLimits;
    use std::sync::Arc;

    /// Source ticks out sequence-numbered pings; the sink records both the
    /// sequence numbers (delivery order) and arrival times.
    #[derive(Debug)]
    struct SeqPing {
        source: bool,
        to_send: u32,
        next: u32,
        seen: Vec<u32>,
        times: Vec<f64>,
    }

    impl Protocol for SeqPing {
        type Message = u32;
        fn on_tick(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.next += 1;
            ctx.send(OutPort(0), self.next);
        }
        fn on_message(&mut self, _from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push(msg);
            self.times.push(ctx.local_time());
        }
        fn wants_tick(&self) -> bool {
            self.source && self.next < self.to_send
        }
        fn heat(&self) -> u32 {
            u32::from(!self.source) // the sink is permanently hot
        }
    }

    fn ping_net(plan: AdversaryPlan, pings: u32, seed: u64) -> abe_core::Network<SeqPing> {
        NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(seed)
            .adversary(plan)
            .build(|i| SeqPing {
                source: i == 0,
                to_send: pings,
                next: 0,
                seen: Vec::new(),
                times: Vec::new(),
            })
            .unwrap()
    }

    #[test]
    fn every_strategy_stays_within_budget() {
        let budget = 1.5;
        let plans: Vec<AdversaryPlan> = vec![
            AdversaryPlan::new(
                budget,
                Swap::new(Arc::new(Pareto::from_mean(2.5, budget).unwrap())),
            )
            .unwrap(),
            AdversaryPlan::new(budget, Burst::new(0.1)).unwrap(),
            AdversaryPlan::new(budget, Reorder::new()).unwrap(),
            AdversaryPlan::new(budget, TargetHeat::new()).unwrap(),
        ];
        for plan in plans {
            let name = plan.strategy_name().unwrap();
            let (report, _) = ping_net(plan, 200, 5).run(RunLimits::unbounded());
            let a = report.adversary;
            assert_eq!(a.intercepted, 200, "{name}");
            assert_eq!(a.violations, 0, "{name}: {a:?}");
            assert!(
                a.max_edge_mean <= budget * (1.0 + 1e-9),
                "{name}: mean {} exceeds budget {budget}",
                a.max_edge_mean
            );
        }
    }

    #[test]
    fn adversarial_runs_are_deterministic_per_seed() {
        let plan = || {
            AdversaryPlan::new(
                1.0,
                Swap::new(Arc::new(Exponential::from_mean(1.0).unwrap())),
            )
            .unwrap()
        };
        let (a, na) = ping_net(plan(), 50, 9).run(RunLimits::unbounded());
        let (b, nb) = ping_net(plan(), 50, 9).run(RunLimits::unbounded());
        assert_eq!(a, b);
        assert_eq!(na.node(1).times, nb.node(1).times);
        let (c, _) = ping_net(plan(), 50, 10).run(RunLimits::unbounded());
        assert_ne!(a.end_time, c.end_time);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let without = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(4)
            .build(|i| SeqPing {
                source: i == 0,
                to_send: 40,
                next: 0,
                seen: Vec::new(),
                times: Vec::new(),
            })
            .unwrap();
        let (a, na) = without.run(RunLimits::unbounded());
        let (b, nb) = ping_net(AdversaryPlan::none(), 40, 4).run(RunLimits::unbounded());
        assert_eq!(a, b);
        assert_eq!(na.node(1).seen, nb.node(1).seen);
        assert_eq!(na.node(1).times, nb.node(1).times);
    }

    #[test]
    fn reorder_manufactures_fifo_inversions() {
        let plan = AdversaryPlan::new(1.0, Reorder::new()).unwrap();
        let (report, net) = ping_net(plan, 100, 2).run(RunLimits::unbounded());
        let seen = &net.node(1).seen;
        assert_eq!(seen.len(), 100);
        let inversions = seen.windows(2).filter(|w| w[0] > w[1]).count();
        // Roughly every slow/fast pair inverts; demand a solid fraction.
        assert!(inversions >= 20, "only {inversions} inversions: {seen:?}");
        assert_eq!(report.adversary.violations, 0);
        // The alternation spends allowances exactly: nothing clamped.
        assert_eq!(report.adversary.clamped, 0);
    }

    #[test]
    fn swap_above_budget_is_clamped_back_to_the_bound() {
        // A model whose mean is 4× the budget: the auditor must cut it.
        let plan =
            AdversaryPlan::new(0.5, Swap::new(Arc::new(Deterministic::new(2.0).unwrap()))).unwrap();
        let (report, _) = ping_net(plan, 100, 6).run(RunLimits::unbounded());
        let a = report.adversary;
        assert!(a.clamped > 0, "over-budget proposals must clamp: {a:?}");
        assert_eq!(a.violations, 0);
        assert!((a.max_edge_mean - 0.5).abs() < 1e-9, "mean pins to budget");
    }

    #[test]
    fn burst_banks_and_spends_multiple_budgets() {
        let plan = AdversaryPlan::new(1.0, Burst::new(0.05)).unwrap();
        let (report, net) = ping_net(plan, 400, 11).run(RunLimits::unbounded());
        // Some delivery gap must exceed several budgets (a burst after a
        // banked quiet streak); under the oblivious exponential the same
        // seed count virtually never produces a 10δ gap on one edge.
        let times = &net.node(1).times;
        let max_delay_seen = report.adversary.max_edge_mean;
        assert!(max_delay_seen <= 1.0 + 1e-9);
        assert!(!times.is_empty());
        assert_eq!(report.adversary.violations, 0);
        assert_eq!(report.adversary.clamped, 0);
    }

    #[test]
    fn adaptive_targets_hot_destinations_only() {
        // Ring of 2: node 1 (sink) is hot, node 0 (source) cold. All
        // pings go 0 → 1 (hot): every delivery is stalled by the full
        // allowance, so consecutive arrivals are exactly δ apart on
        // average and the mean pins to the budget.
        let plan = AdversaryPlan::new(2.0, TargetHeat::new()).unwrap();
        let (report, _) = ping_net(plan, 100, 3).run(RunLimits::unbounded());
        let a = report.adversary;
        assert_eq!(a.clamped, 0);
        assert!((a.max_edge_mean - 2.0).abs() < 1e-9, "{a:?}");
        assert_eq!(a.violations, 0);
    }

    #[test]
    #[should_panic(expected = "burst probability")]
    fn burst_rejects_invalid_probability() {
        let _ = Burst::new(0.0);
    }
}
