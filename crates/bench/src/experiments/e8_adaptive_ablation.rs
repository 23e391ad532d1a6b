//! E8 — why the adaptive wake-up probability matters (ablation).
//!
//! Paper (§3): "A higher value of d(A) increases the probability that a
//! node A becomes active. By taking 1−(1−A0)^d(A) as wake-up probability
//! for nodes A, we achieve that the overall wake-up probability for all
//! nodes stays constant over time. This ensures that the algorithm has
//! linear time and message complexity."
//!
//! Ablation: replace `1−(1−A0)^d` by the constant `A0` (same `A0 = a/n²`)
//! and measure. Without adaptivity the aggregate wake-up rate *decays* as
//! nodes are knocked out; the endgame (one idle survivor) waits `Θ(n²/a)`
//! ticks instead of `Θ(n/a)`, and measured time turns superlinear.

use abe_election::{run_abe_calibrated, run_fixed};
use abe_stats::{best_growth, fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

use super::{election_stats, ring};

use super::{A, DELTA};

/// Runs E8.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let sizes: &[u32] = ctx.scale.pick3(
        &[8, 16, 32][..],
        &[8, 16, 32, 64][..],
        &[8, 16, 32, 64, 128, 256][..],
    );
    let reps = ctx.scale.pick3(8, 25, 100);

    let spec = SweepSpec::new()
        .axis_str("wakeup", &["adaptive", "fixed"])
        .axis_u32("n", sizes)
        .seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let n = cell.u32("n");
        let cfg = ring(ctx, n, DELTA, cell.seed());
        let o = if cell.idx("wakeup") == 0 {
            run_abe_calibrated(&cfg, A)
        } else {
            let a0 = A / (f64::from(n) * f64::from(n));
            run_fixed(&cfg, a0)
        };
        CellMetrics::new().with_election(&o)
    });

    let mut table = Table::new(&[
        "n",
        "adaptive time/(n·δ)",
        "fixed time/(n·δ)",
        "slowdown",
        "adaptive msgs/n",
        "fixed msgs/n",
    ]);
    let mut adaptive_series = Vec::new();
    let mut fixed_series = Vec::new();

    for (ni, &n) in sizes.iter().enumerate() {
        let adaptive = outcome
            .group_at(&[("wakeup", 0), ("n", ni)])
            .expect("complete grid");
        let fixed = outcome
            .group_at(&[("wakeup", 1), ("n", ni)])
            .expect("complete grid");
        let (am, at) = election_stats(&adaptive);
        let (fm, ft) = election_stats(&fixed);
        adaptive_series.push((f64::from(n), at.mean()));
        fixed_series.push((f64::from(n), ft.mean()));
        table.row(&[
            n.to_string(),
            fmt_num(at.mean() / (f64::from(n) * DELTA)),
            fmt_num(ft.mean() / (f64::from(n) * DELTA)),
            fmt_num(ft.mean() / at.mean()),
            fmt_num(am.mean() / f64::from(n)),
            fmt_num(fm.mean() / f64::from(n)),
        ]);
    }

    let adaptive_fit = best_growth(&adaptive_series).expect("non-empty");
    let fixed_fit = best_growth(&fixed_series).expect("non-empty");
    let findings = vec![
        format!(
            "adaptive 1−(1−A0)^d: time best fit {} (c = {:.3}) — linear, as claimed",
            adaptive_fit.model, adaptive_fit.constant
        ),
        format!(
            "fixed A0 (ablation): time best fit {} (c = {:.3}) — superlinear; the endgame idle \
             survivor waits Θ(n²/a) ticks because its wake probability never rises",
            fixed_fit.model, fixed_fit.constant
        ),
        "the adaptive probability is exactly what keeps the aggregate wake-up rate constant as \
         knockouts accumulate — removing it forfeits the linear-time guarantee"
            .to_string(),
    ];

    ExperimentReport {
        id: "E8",
        title: "Adaptive vs fixed activation probability (ablation)",
        claim: "\"By taking 1−(1−A0)^d(A) as wake-up probability ... the overall wake-up probability for all nodes stays constant over time. This ensures ... linear time and message complexity\" (§3)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_fixed_slowdown() {
        let report = run(&RunCtx::quick());
        assert!(
            report.findings[0].contains("O(n)"),
            "{}",
            report.findings[0]
        );
        assert!(
            !report.findings[1].contains("fit O(n) "),
            "fixed variant should not be linear: {}",
            report.findings[1]
        );
    }
}
