//! E17 — election complexity under budgeted scheduling adversaries.
//!
//! Definition 1 lets an **adversary** choose every message delay as long
//! as each channel's *expected* delay stays below a known bound δ. The
//! calibrated oblivious baseline (exponential delays of mean δ, as in
//! E1/E2) is just one point of that space; this experiment sweeps four
//! legal adversaries × their budget against it:
//!
//! * `swap` — oblivious distribution swap (heavy-tailed Pareto at mean =
//!   budget): what family choice alone costs;
//! * `burst` — bank ~zero delays, spend the whole accumulated allowance
//!   at once;
//! * `reorder` — deterministic FIFO inversions at mean = budget;
//! * `adaptive` — reads the narrow protocol view ([`abe_core::SendView::heat`])
//!   and dumps every banked allowance onto messages heading for the
//!   election's token-holders and wake-up candidates.
//!
//! Every cell carries the `BudgetAuditor`'s telemetry (max per-edge
//! empirical mean, clamp count, violation count), so the JSON *proves*
//! each adversarial run was a legal ABE execution: zero un-clamped
//! violations, every per-edge mean at or below the configured bound.

use std::sync::Arc;

use abe_adversary::{Burst, Reorder, Swap, TargetHeat};
use abe_core::delay::Pareto;
use abe_core::AdversaryPlan;
use abe_election::{run_abe_calibrated, RingConfig};
use abe_stats::{fmt_num, Table};
use abe_sweep::{Cell, CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

use super::substrate;

/// Activation budget (expected wake-ups per ring traversal), as in E1/E2.
pub const A: f64 = 1.0;
/// Oblivious-baseline expected delay δ (exponential mean on every edge).
pub const DELTA: f64 = 1.0;
/// Burst probability of the heavy-tail burster.
pub const BURST_P: f64 = 0.05;
/// The strategy axis, baseline first.
pub const STRATEGIES: [&str; 5] = ["none", "swap", "burst", "reorder", "adaptive"];

/// Builds the adversary plan for one cell.
fn plan_for(strategy: &str, budget: f64) -> AdversaryPlan {
    match strategy {
        "none" => AdversaryPlan::none(),
        "swap" => AdversaryPlan::new(
            budget,
            Swap::new(Arc::new(
                Pareto::from_mean(2.5, budget).expect("valid mean"),
            )),
        )
        .expect("valid budget"),
        "burst" => AdversaryPlan::new(budget, Burst::new(BURST_P)).expect("valid budget"),
        "reorder" => AdversaryPlan::new(budget, Reorder::new()).expect("valid budget"),
        "adaptive" => AdversaryPlan::new(budget, TargetHeat::new()).expect("valid budget"),
        other => panic!("unknown strategy {other}"),
    }
}

/// The grid at `ctx`'s scale: `(n, budgets, seeds per point)`.
fn grids(ctx: &RunCtx) -> (u32, &'static [f64], u64) {
    let budgets: &[f64] = ctx.scale.pick3(
        &[1.0, 4.0][..],
        &[1.0, 2.0, 4.0][..],
        &[1.0, 2.0, 4.0, 8.0][..],
    );
    (
        ctx.scale.pick3(16, 32, 64),
        budgets,
        ctx.scale.pick3(5, 40, 150),
    )
}

/// The sweep grid E17 runs at `ctx`'s scale (also drives the `trace`
/// subcommand's cell selection; see `crate::trace_cli`).
pub fn spec(ctx: &RunCtx) -> SweepSpec {
    let (_, budgets, reps) = grids(ctx);
    SweepSpec::new()
        .axis_str("strategy", &STRATEGIES)
        .axis_f64("budget", budgets)
        .seeds(reps)
        // The baseline has no budget knob: keep it only at the first
        // budget value so it runs once per seed, not once per budget.
        .filter(|c| c.idx("strategy") != 0 || c.idx("budget") == 0)
}

/// The exact ring configuration E17 runs for one cell of [`spec`], plus
/// the cell's Definition-1 per-edge expected-delay bound (the adversarial
/// budget, or δ for the unbudgeted baseline).
pub fn cell_config(ctx: &RunCtx, cell: &Cell) -> (RingConfig, f64) {
    let n = grids(ctx).0;
    let budget = cell.f64("budget");
    let bound = if cell.idx("strategy") == 0 {
        DELTA
    } else {
        budget
    };
    let plan = plan_for(STRATEGIES[cell.idx("strategy")], budget);
    let run = substrate(ctx, DELTA, cell.seed()).adversary(plan);
    (RingConfig::new(n, run), bound)
}

/// Runs E17.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let (n, budgets, reps) = grids(ctx);
    let outcome = ctx.sweep(spec(ctx), |cell| {
        let adversarial = cell.idx("strategy") != 0;
        let (cfg, _) = cell_config(ctx, cell);
        let o = run_abe_calibrated(&cfg, A);
        let metrics = CellMetrics::new().with_election(&o);
        if adversarial {
            metrics.with_adversary(&o.report)
        } else {
            // Baseline cells carry no auditor telemetry: nothing audited.
            metrics
        }
    });

    let baseline = outcome
        .group_at(&[("strategy", 0), ("budget", 0)])
        .expect("baseline group");
    let base_time = baseline.mean("time");
    let base_messages = baseline.mean("messages");

    let mut table = Table::new(&[
        "strategy",
        "budget",
        "time (mean)",
        "time vs baseline",
        "messages (mean)",
        "max edge mean",
        "clamped",
        "violations",
    ]);
    let mut adaptive_inflation_at_full_budget = 0.0f64;
    let mut worst_edge_mean_ratio = 0.0f64;
    let mut total_violations = 0u64;
    let mut total_clamped = 0u64;
    for group in outcome.groups() {
        let strategy = group.value("strategy").to_string();
        let budget = group.value("budget").as_f64();
        let time = group.mean("time");
        let inflation = time / base_time;
        total_violations += group.counter_total("adv_violations");
        total_clamped += group.counter_total("adv_clamped");
        if group.idx("strategy") != 0 {
            // Max over the group's cells (a per-run auditor maximum).
            let max_mean = group
                .online("adv_max_edge_mean")
                .max()
                .expect("adversarial groups audit every run");
            worst_edge_mean_ratio = worst_edge_mean_ratio.max(max_mean / budget);
            if strategy == "adaptive" && budget == budgets[budgets.len() - 1] {
                adaptive_inflation_at_full_budget = inflation;
            }
            table.row(&[
                strategy,
                fmt_num(budget),
                fmt_num(time),
                format!("{inflation:.2}x"),
                fmt_num(group.mean("messages")),
                fmt_num(max_mean),
                group.counter_total("adv_clamped").to_string(),
                group.counter_total("adv_violations").to_string(),
            ]);
        } else {
            table.row(&[
                strategy,
                "-".to_string(),
                fmt_num(time),
                "1.00x".to_string(),
                fmt_num(base_messages),
                "-".to_string(),
                "0".to_string(),
                "0".to_string(),
            ]);
        }
    }

    let findings = vec![
        format!(
            "the adaptive adversary at full budget ({}δ) inflates mean election time to \
             {adaptive_inflation_at_full_budget:.2}x the calibrated oblivious baseline — \
             the measured gap between the paper's *expected*-case bound and the worst \
             legal schedule this strategy family finds",
            budgets[budgets.len() - 1]
        ),
        format!(
            "every adversarial run stayed a legal ABE execution: 0 un-clamped budget \
             violations across the grid (observed {total_violations}), with every \
             per-edge empirical delay mean at most {worst_edge_mean_ratio:.4}x its \
             configured Definition-1 bound"
        ),
        format!(
            "the auditor clamped {total_clamped} proposals grid-wide (the Pareto swap \
             overshoots its mean on finite samples; the allowance-spending strategies \
             never need clamping by construction)"
        ),
        "elections stay correct under every strategy: exactly one leader in every cell \
         (adversarial scheduling attacks liveness margins, never safety)"
            .to_string(),
        format!(
            "parameters: n = {n}, δ = {DELTA}, A0 = {A}/n², budgets {budgets:?}, \
             {reps} seeds per point, burst p = {BURST_P}"
        ),
    ];

    ExperimentReport {
        id: "E17",
        title: "Election complexity under budgeted scheduling adversaries",
        claim: "Definition 1's delays are \"chosen by an adversary\" subject only to a \
                bounded expectation — the election's linear expected complexity must \
                survive every legal strategy, adaptive ones included",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_audits_every_adversarial_cell() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E17");
        // 1 baseline group + 4 strategies × 2 budgets.
        assert_eq!(report.table.row_count(), 9);
        assert_eq!(report.sweep.cells.len(), (1 + 4 * 2) * 5);
        for cell in &report.sweep.cells {
            assert_eq!(
                cell.metrics.get("leaders"),
                Some(1.0),
                "{}",
                cell.cell.label()
            );
            if cell.cell.value("strategy").to_string() != "none" {
                let budget = cell.cell.f64("budget");
                let max_mean = cell.metrics.get("adv_max_edge_mean").unwrap();
                assert!(
                    max_mean <= budget * (1.0 + 1e-9),
                    "{}: mean {max_mean} over budget {budget}",
                    cell.cell.label()
                );
                assert_eq!(
                    cell.metrics.get_counter("adv_violations"),
                    Some(0),
                    "{}",
                    cell.cell.label()
                );
                assert!(cell.metrics.get_counter("adv_intercepted").unwrap() > 0);
            } else {
                // The baseline never touches the adversary layer.
                assert_eq!(cell.metrics.get("adv_max_edge_mean"), None);
            }
        }
    }

    #[test]
    fn adaptive_at_full_budget_measurably_inflates_election_time() {
        let report = run(&RunCtx::quick());
        let baseline = report
            .sweep
            .group_at(&[("strategy", 0), ("budget", 0)])
            .unwrap()
            .mean("time");
        let adaptive = report
            .sweep
            .group_at(&[("strategy", 4), ("budget", 2)])
            .unwrap()
            .mean("time");
        assert!(
            adaptive > baseline * 1.5,
            "adaptive at 4δ should measurably inflate time: {adaptive} vs {baseline}"
        );
    }
}
