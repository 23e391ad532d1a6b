//! E1 — election **message** complexity vs ring size.
//!
//! Paper claim (§1/§3): the election algorithm has "(average) linear ...
//! message complexity". We sweep `n`, run many seeded elections with the
//! calibrated activation parameter, and fit the measured series against
//! `O(1) / O(n) / O(n log n) / O(n²)`; the best fit must be `O(n)` and
//! `messages/n` must stay flat.

use abe_election::{run_abe_calibrated, RingConfig};
use abe_stats::{best_growth, fmt_num, Table};
use abe_sweep::{Cell, CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

use super::{election_stats, ring};

/// Activation budget: expected wake-ups per ring traversal.
pub const A: f64 = 1.0;
/// Expected delay bound δ used throughout.
pub const DELTA: f64 = 1.0;

/// The grid at `ctx`'s scale: `(ring sizes, seeds per point)`.
fn grids(ctx: &RunCtx) -> (&'static [u32], u64) {
    let sizes: &[u32] = ctx.scale.pick3(
        &[8, 16, 64][..],
        &[8, 16, 32, 64, 128, 256][..],
        &[8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096][..],
    );
    (sizes, ctx.scale.pick3(10, 40, 200))
}

/// The sweep grid E1 runs at `ctx`'s scale (also drives the `trace`
/// subcommand's cell selection; see `crate::trace_cli`).
pub fn spec(ctx: &RunCtx) -> SweepSpec {
    let (sizes, reps) = grids(ctx);
    SweepSpec::new().axis_u32("n", sizes).seeds(reps)
}

/// The exact ring configuration E1 runs for one cell of [`spec`].
pub fn cell_config(ctx: &RunCtx, cell: &Cell) -> RingConfig {
    ring(ctx, cell.u32("n"), DELTA, cell.seed())
}

/// Runs E1.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let reps = grids(ctx).1;
    let outcome = ctx.sweep(spec(ctx), |cell| {
        let o = run_abe_calibrated(&cell_config(ctx, cell), A);
        CellMetrics::new()
            .metric("knockouts", o.report.counter("knockouts") as f64)
            .with_election(&o)
    });

    let mut table = Table::new(&[
        "n",
        "messages (mean)",
        "±95% CI",
        "messages/n",
        "knockouts/n",
    ]);
    let mut series = Vec::new();
    for group in outcome.groups() {
        let n = group.value("n").as_u32();
        let (messages, _) = election_stats(&group);
        let knockouts = group.online("knockouts");
        series.push((f64::from(n), messages.mean()));
        table.row(&[
            n.to_string(),
            fmt_num(messages.mean()),
            fmt_num(messages.ci95_half_width()),
            fmt_num(messages.mean() / f64::from(n)),
            fmt_num(knockouts.mean() / f64::from(n)),
        ]);
    }

    let fit = best_growth(&series).expect("non-empty series");
    let findings = vec![
        format!(
            "best-fit growth model: {} (c = {:.3}, rel. RMSE {:.3})",
            fit.model, fit.constant, fit.rel_rmse
        ),
        format!(
            "messages/n spans {:.2}..{:.2} across the sweep — flat, confirming linear expected message complexity",
            series
                .iter()
                .map(|(n, m)| m / n)
                .fold(f64::INFINITY, f64::min),
            series
                .iter()
                .map(|(n, m)| m / n)
                .fold(f64::NEG_INFINITY, f64::max),
        ),
        format!("parameters: A0 = {A}/n², δ = {DELTA}, exponential delays, {reps} seeds per point"),
    ];

    ExperimentReport {
        id: "E1",
        title: "Election message complexity vs n",
        claim: "\"a leader election algorithm ... having both (average) linear time and message complexity\" (§1)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_stats::{GrowthModel, Online};

    #[test]
    fn quick_run_classifies_linear() {
        let report = run(&RunCtx::quick());
        assert_eq!(report.id, "E1");
        assert!(
            report.findings[0].contains("O(n)"),
            "{}",
            report.findings[0]
        );
        assert_eq!(report.table.row_count(), 6);
        assert_eq!(report.sweep.cells.len(), 6 * 40);
        // Double-check via a direct fit at tiny scale.
        let series: Vec<(f64, f64)> = [8u32, 32, 128]
            .iter()
            .map(|&n| {
                let messages: Online = (0..20)
                    .map(|seed| {
                        run_abe_calibrated(&ring(&RunCtx::quick(), n, DELTA, seed), A).messages
                            as f64
                    })
                    .collect();
                (f64::from(n), messages.mean())
            })
            .collect();
        assert_eq!(best_growth(&series).unwrap().model, GrowthModel::Linear);
    }

    #[test]
    fn smoke_run_is_small_and_fast() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.table.row_count(), 3);
        assert_eq!(report.sweep.cells.len(), 3 * 10);
    }
}
