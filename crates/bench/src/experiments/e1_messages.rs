//! E1 — election **message** complexity vs ring size.
//!
//! Paper claim (§1/§3): the election algorithm has "(average) linear ...
//! message complexity". We sweep `n`, run many seeded elections with the
//! calibrated activation parameter, and fit the measured series against
//! `O(1) / O(n) / O(n log n) / O(n²)`; the best fit must be `O(n)` and
//! `messages/n` must stay flat.

use abe_scenario::CompiledScenario;
use abe_stats::{best_growth, fmt_num, Table};

use crate::{ExperimentReport, RunCtx};

use super::{activation, delta, election_stats, run_scenario};

/// E1's committed scenario (`scenarios/e1_messages.abes`) at `ctx`'s
/// scale. The `trace` subcommand re-runs its cells; see
/// `crate::trace_cli`.
pub fn scenario(ctx: &RunCtx) -> CompiledScenario {
    super::scenario(
        ctx,
        include_str!("../../../../scenarios/e1_messages.abes"),
        "axis n 8 16 32 64 128 256\nseeds 40",
        "axis n 8 16 32 64 128 256 512 1024 2048 4096\nseeds 200",
    )
}

/// Runs E1.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let compiled = scenario(ctx);
    let outcome = run_scenario(ctx, &compiled);
    let s = compiled.scenario();

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
        format!(
            "parameters: A0 = {}/n², δ = {}, exponential delays, {} seeds per point",
            activation(s),
            delta(s),
            s.seeds
        ),
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
    use crate::experiments::ring;
    use abe_election::run_abe_calibrated;
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
                        run_abe_calibrated(&ring(&RunCtx::quick(), n, 1.0, seed), 1.0).messages
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
