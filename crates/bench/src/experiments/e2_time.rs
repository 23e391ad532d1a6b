//! E2 — election **time** complexity vs ring size.
//!
//! Paper claim (§1/§3): "(average) linear time ... complexity". Expected
//! election time, normalised by the expected delay `δ`, must grow linearly
//! in `n` (a message needs `n` sequential hops of expected `δ` each, and
//! the expected number of retries is constant under calibration).

use abe_election::run_abe_calibrated;
use abe_stats::{best_growth, fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

use super::{election_stats, ring};

use super::{A, DELTA};

/// Runs E2.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let sizes: &[u32] = ctx.scale.pick3(
        &[8, 16, 64][..],
        &[8, 16, 32, 64, 128, 256][..],
        &[8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096][..],
    );
    let reps = ctx.scale.pick3(10, 40, 200);

    let spec = SweepSpec::new().axis_u32("n", sizes).seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let o = run_abe_calibrated(&ring(ctx, cell.u32("n"), DELTA, cell.seed()), A);
        CellMetrics::new().with_election(&o)
    });

    let mut table = Table::new(&["n", "time (mean)", "±95% CI", "time/(n·δ)", "ticks (mean)"]);
    let mut series = Vec::new();
    for group in outcome.groups() {
        let n = group.value("n").as_u32();
        let (_, time) = election_stats(&group);
        let ticks = group.online("ticks");
        series.push((f64::from(n), time.mean()));
        table.row(&[
            n.to_string(),
            fmt_num(time.mean()),
            fmt_num(time.ci95_half_width()),
            fmt_num(time.mean() / (f64::from(n) * DELTA)),
            fmt_num(ticks.mean()),
        ]);
    }

    let fit = best_growth(&series).expect("non-empty series");
    let findings = vec![
        format!(
            "best-fit growth model: {} (c = {:.3}, rel. RMSE {:.3})",
            fit.model, fit.constant, fit.rel_rmse
        ),
        format!(
            "time/(n·δ) spans {:.2}..{:.2} — flat, confirming linear expected time complexity",
            series
                .iter()
                .map(|(n, t)| t / (n * DELTA))
                .fold(f64::INFINITY, f64::min),
            series
                .iter()
                .map(|(n, t)| t / (n * DELTA))
                .fold(f64::NEG_INFINITY, f64::max),
        ),
        format!("parameters: A0 = {A}/n², δ = {DELTA}, exponential delays, {reps} seeds per point"),
    ];

    ExperimentReport {
        id: "E2",
        title: "Election time complexity vs n",
        claim: "\"having both (average) linear time and message complexity\" (§1)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_classifies_linear() {
        let report = run(&RunCtx::quick());
        assert!(
            report.findings[0].contains("O(n)"),
            "{}",
            report.findings[0]
        );
    }
}
