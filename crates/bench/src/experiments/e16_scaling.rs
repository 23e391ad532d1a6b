//! E16 — election scaling to 10⁶ nodes on the rebuilt kernel.
//!
//! The brief announcement claims "(average) linear time and message
//! complexity" (§1) but the full arXiv version validates the bounds by
//! simulation only up to moderate ring sizes, and related work on random
//! asynchronous models (Danezis et al., 2025) finds that the interesting
//! scaling phenomena only appear at node counts far beyond e1/e2's grids
//! (n ≤ 4096). This experiment sweeps the calibrated election from 10³ to
//! 10⁶ nodes — three orders of magnitude past e1 — and fits the measured
//! expected messages and completion time against `O(n)` / `O(n log n)` /
//! `O(n²)`, exhibiting which expected-complexity bound actually governs
//! the process at scale. Feasible on one core *because of* the indexed
//! calendar queue and the zero-alloc dispatch path (see
//! `docs/ARCHITECTURE.md`); the wall-clock side of the same grid lives in
//! `abe-perf`'s `ring_election` suite.

use abe_election::{run_abe_calibrated, RingConfig};
use abe_stats::{best_growth, fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

use super::{election_stats, substrate};

/// Activation budget: expected wake-ups per ring traversal (as in E1/E2).
pub const A: f64 = 1.0;
/// Expected delay bound δ used throughout.
pub const DELTA: f64 = 1.0;

/// Runs E16.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let sizes: &[u32] = ctx.scale.pick3(
        &[256, 1024][..],
        &[1_000, 4_000, 16_000][..],
        &[1_000, 10_000, 100_000, 1_000_000][..],
    );
    let reps: u64 = ctx.scale.pick3(2, 4, 6);

    let spec = SweepSpec::new()
        .axis_u32("n", sizes)
        .seeds(reps)
        // Repetitions taper with n: the big rings dominate wall clock and
        // their per-run variance shrinks as averages concentrate.
        .seeds_for(|c| match c.value("n").as_u32() {
            n if n > 100_000 => 1,
            n if n > 10_000 => 2,
            _ => u64::MAX,
        });
    let outcome = ctx.sweep(spec, |cell| {
        let n = cell.u32("n");
        let run = substrate(ctx, DELTA, cell.seed()).max_events(u64::from(n).saturating_mul(256));
        let cfg = RingConfig::new(n, run);
        let o = run_abe_calibrated(&cfg, A);
        CellMetrics::new()
            .metric("msgs_per_n", o.messages as f64 / f64::from(n))
            .metric("time_per_n", o.time / f64::from(n))
            .with_election(&o)
    });

    let mut table = Table::new(&[
        "n",
        "messages (mean)",
        "messages/n",
        "time (mean)",
        "time/(n·δ)",
        "events",
    ]);
    let mut message_series = Vec::new();
    let mut time_series = Vec::new();
    for group in outcome.groups() {
        let n = group.value("n").as_u32();
        let (messages, time) = election_stats(&group);
        message_series.push((f64::from(n), messages.mean()));
        time_series.push((f64::from(n), time.mean()));
        table.row(&[
            n.to_string(),
            fmt_num(messages.mean()),
            fmt_num(messages.mean() / f64::from(n)),
            fmt_num(time.mean()),
            fmt_num(time.mean() / (f64::from(n) * DELTA)),
            group.counter_total("events").to_string(),
        ]);
    }

    let msg_fit = best_growth(&message_series).expect("non-empty series");
    let time_fit = best_growth(&time_series).expect("non-empty series");
    let span = sizes.last().unwrap() / sizes.first().unwrap();
    let findings = vec![
        format!(
            "messages best-fit growth over a {span}x size span: {} (c = {:.3}, rel. RMSE {:.3})",
            msg_fit.model, msg_fit.constant, msg_fit.rel_rmse
        ),
        format!(
            "completion-time best-fit growth: {} (c = {:.3}, rel. RMSE {:.3})",
            time_fit.model, time_fit.constant, time_fit.rel_rmse
        ),
        format!(
            "messages/n spans {:.2}..{:.2} across the sweep — the expected-message bound \
             stays (at worst) quasi-linear all the way to n = {}",
            message_series
                .iter()
                .map(|(n, m)| m / n)
                .fold(f64::INFINITY, f64::min),
            message_series
                .iter()
                .map(|(n, m)| m / n)
                .fold(f64::NEG_INFINITY, f64::max),
            sizes.last().unwrap(),
        ),
        format!(
            "parameters: A0 = {A}/n², δ = {DELTA}, exponential delays, up to {reps} seeds \
             per point (tapering with n); single simulation thread per cell"
        ),
    ];

    ExperimentReport {
        id: "E16",
        title: "Election scaling to a million nodes",
        claim: "\"a leader election algorithm ... having both (average) linear time and \
                message complexity\" (§1) — checked three orders of magnitude beyond the \
                e1/e2 grids",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_stats::GrowthModel;

    #[test]
    fn smoke_run_has_expected_shape() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E16");
        assert_eq!(report.table.row_count(), 2);
        assert_eq!(report.sweep.cells.len(), 2 * 2);
        assert!(report.findings[0].contains("messages best-fit"));
    }

    #[test]
    fn quick_run_scaling_is_at_worst_quasilinear() {
        let report = run(&RunCtx::quick());
        assert_eq!(report.table.row_count(), 3);
        // 1000 and 4000 run 4 seeds, 16000 tapers to 2.
        assert_eq!(report.sweep.cells.len(), 4 + 4 + 2);
        // The paper claims linear; at quick scale the fit must not degrade
        // past n log n (quadratic would falsify the bound outright).
        let fit = best_growth(
            &report
                .sweep
                .groups()
                .iter()
                .map(|g| {
                    (
                        f64::from(g.value("n").as_u32()),
                        g.online("messages").mean(),
                    )
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(
            matches!(fit.model, GrowthModel::Linear | GrowthModel::Linearithmic),
            "got {:?}",
            fit.model
        );
    }
}
