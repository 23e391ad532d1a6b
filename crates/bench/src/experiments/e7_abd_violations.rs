//! E7 — the ABD synchroniser is unsound in ABE networks.
//!
//! Paper (§2): "The more efficient ABD synchroniser by Tel et al. relies on
//! knowledge of the bounded message delay. As in asynchronous networks the
//! message delay in ABE networks is unbounded (although we assume a bound
//! on the expected delay)."
//!
//! The clock-driven ABD synchroniser fires pulse `r+1` after a fixed local
//! wait `Φ`; a round-`r` message arriving later **violates** the
//! synchronous abstraction. We sweep `Φ` (as a multiple of the expected
//! delay δ) under (a) a *bounded* delay model — violations drop to exactly
//! zero once `Φ` clears the bound — and (b) unbounded-support models with
//! the same mean — violations persist at every `Φ`, shrinking but never
//! reaching zero. This is the empirical content of ABD ⊊ ABE.

use abe_core::delay::{Bimodal, Exponential, Pareto};
use abe_core::{NetworkBuilder, Topology};
use abe_sim::RunLimits;
use abe_stats::{fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};
use abe_sync::{abd_counters, AbdSynchronizer, Chatter};

use crate::{ExperimentReport, RunCtx};

fn violation_rate(delay: DelayKind, phi: f64, rounds: u64, n: u32, seed: u64) -> (f64, u64, u64) {
    let topo = Topology::unidirectional_ring(n).expect("n >= 1");
    let builder = NetworkBuilder::new(topo).tick_interval(phi).seed(seed);
    let builder = match delay {
        DelayKind::BoundedBimodal => {
            // Support {0.5, 2.5}, mean 1.0, hard bound 2.5 — a legal ABD
            // model with δ = 1.
            builder.delay(Bimodal::new(0.5, 2.5, 0.25).expect("valid params"))
        }
        DelayKind::Exponential => builder.delay(Exponential::from_mean(1.0).expect("valid mean")),
        DelayKind::Pareto => builder.delay(Pareto::from_mean(2.5, 1.0).expect("valid params")),
    };
    let net = builder
        .build(|_| AbdSynchronizer::new(Chatter, rounds))
        .expect("valid build");
    let (report, _) = net.run(RunLimits::unbounded());
    let app = report.counter(abd_counters::APP_MESSAGES).max(1);
    let violations = report.counter(abd_counters::VIOLATIONS);
    (violations as f64 / app as f64, violations, app)
}

#[derive(Debug, Clone, Copy)]
enum DelayKind {
    BoundedBimodal,
    Exponential,
    Pareto,
}

const KINDS: [DelayKind; 3] = [
    DelayKind::BoundedBimodal,
    DelayKind::Exponential,
    DelayKind::Pareto,
];

impl DelayKind {
    fn label(self) -> &'static str {
        match self {
            DelayKind::BoundedBimodal => "bimodal (bounded ≤ 2.5, ABD)",
            DelayKind::Exponential => "exponential (unbounded, ABE)",
            DelayKind::Pareto => "pareto-2.5 (heavy tail, ABE)",
        }
    }
}

/// Runs E7.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let rounds = ctx.scale.pick3(150u64, 300, 2000);
    let n = ctx.scale.pick3(8u32, 8, 16);
    let phis: &[f64] = &[1.0, 2.0, 3.0, 4.0, 8.0, 16.0];

    let labels: Vec<&'static str> = KINDS.iter().map(|k| k.label()).collect();
    let spec = SweepSpec::new()
        .axis_str("delay", &labels)
        .axis_f64("phi", phis)
        .seeds(1);
    let outcome = ctx.sweep(spec, |cell| {
        let kind = KINDS[cell.idx("delay")];
        let (rate, violations, app) = violation_rate(kind, cell.f64("phi"), rounds, n, cell.seed());
        CellMetrics::new()
            .metric("rate", rate)
            .counter("violations", violations)
            .counter("app_msgs", app)
    });

    let mut table = Table::new(&[
        "delay model",
        "Φ/δ",
        "violations",
        "app msgs",
        "violation rate",
    ]);
    let mut bounded_zero_from = None;

    for group in outcome.groups() {
        let kind = KINDS[group.idx("delay")];
        let phi = group.value("phi").as_f64();
        let violations = group.counter_total("violations");
        if matches!(kind, DelayKind::BoundedBimodal) && violations == 0 {
            bounded_zero_from.get_or_insert(phi);
        }
        table.row(&[
            kind.label().to_string(),
            fmt_num(phi),
            violations.to_string(),
            group.counter_total("app_msgs").to_string(),
            format!("{:.5}", group.mean("rate")),
        ]);
    }

    let findings = vec![
        format!(
            "bounded delay (legal ABD model): violations are exactly 0 for every Φ ≥ {} — the \
             ABD synchroniser is sound once the pulse interval clears the hard bound, and stays \
             sound forever after",
            bounded_zero_from.map_or("<not reached>".to_string(), |p| p.to_string())
        ),
        "unbounded-support models with the same mean never reach a safe Φ: the exponential \
         tail makes the violation rate decay ~e^-Φ (so huge Φ shows 0 only for want of \
         samples), while the Pareto tail decays only polynomially and still violates at Φ = \
         16δ — no finite pulse interval is safe, which is why the ABD synchroniser does not \
         carry over to ABE networks"
            .to_string(),
    ];

    ExperimentReport {
        id: "E7",
        title: "ABD synchroniser violations under unbounded delay",
        claim: "\"The more efficient ABD synchroniser by Tel et al. relies on knowledge of the bounded message delay. As in asynchronous networks the message delay in ABE networks is unbounded\" (§2)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_model_goes_quiet_and_unbounded_does_not() {
        // Direct probe at a pulse interval beyond the hard bound.
        let (rate_bounded, v_bounded, _) =
            violation_rate(DelayKind::BoundedBimodal, 3.0, 300, 8, 7);
        assert_eq!(v_bounded, 0, "bounded delay must be silent at Φ=3δ");
        assert_eq!(rate_bounded, 0.0);
        let (_, v_exp, _) = violation_rate(DelayKind::Exponential, 3.0, 300, 8, 7);
        assert!(v_exp > 0, "exponential delay must violate at Φ=3δ");
    }
}
