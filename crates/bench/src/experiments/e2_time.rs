//! E2 — election **time** complexity vs ring size.
//!
//! Paper claim (§1/§3): "(average) linear time ... complexity". Expected
//! election time, normalised by the expected delay `δ`, must grow linearly
//! in `n` (a message needs `n` sequential hops of expected `δ` each, and
//! the expected number of retries is constant under calibration).
//!
//! The elections are E1's: e2 runs `scenarios/e1_messages.abes` at the
//! same scale and reads each cell's time where E1 reads its messages.

use abe_stats::{best_growth, fmt_num, Table};

use crate::{ExperimentReport, RunCtx};

use super::{activation, delta, e1_messages, election_stats, run_scenario};

/// Runs E2.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let compiled = e1_messages::scenario(ctx);
    let outcome = run_scenario(ctx, &compiled);
    let s = compiled.scenario();
    let (a, delta) = (activation(s), delta(s));

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
            fmt_num(time.mean() / (f64::from(n) * delta)),
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
                .map(|(n, t)| t / (n * delta))
                .fold(f64::INFINITY, f64::min),
            series
                .iter()
                .map(|(n, t)| t / (n * delta))
                .fold(f64::NEG_INFINITY, f64::max),
        ),
        format!(
            "parameters: A0 = {a}/n², δ = {delta}, exponential delays, {} seeds per point",
            s.seeds
        ),
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
