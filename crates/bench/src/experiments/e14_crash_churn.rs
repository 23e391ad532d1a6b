//! E14 — election success rate and message overhead under crash-recover
//! churn.
//!
//! The paper's reliability assumption is load-bearing: §3's election
//! tolerates arbitrary delays and reordering, but **not message loss** —
//! a token consumed by a crashed node leaves an Active node with nothing
//! in flight, and that node purges every later token forever (a permanent
//! livelock the run classifies as *stalled*). This experiment quantifies
//! how fast success probability decays with churn (crash-recover events
//! per run) on both ring orientations, and what the surviving runs pay in
//! extra messages.
//!
//! Churn schedules are generated per cell by
//! [`FaultPlan::churn`](abe_core::fault::FaultPlan::churn) from a child
//! seed of the cell seed, so the whole sweep stays bit-identical at any
//! `--threads` setting.

use abe_scenario::CompiledScenario;
use abe_stats::{fmt_num, Table};

use crate::{ExperimentReport, RunCtx};

use super::{activation, delta, run_scenario};

/// E14's committed scenario (`scenarios/e14_crash_churn.abes`) at
/// `ctx`'s scale.
pub fn scenario(ctx: &RunCtx) -> CompiledScenario {
    super::scenario(
        ctx,
        include_str!("../../../../scenarios/e14_crash_churn.abes"),
        "n 32\naxis churn 0 1 2 4\nseeds 40",
        "n 64\naxis churn 0 1 2 4 8\nseeds 200",
    )
}

/// Runs E14.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let compiled = scenario(ctx);
    let outcome = run_scenario(ctx, &compiled);
    let s = compiled.scenario();
    let fault = s.fault.as_ref().expect("e14 injects churn");

    let mut table = Table::new(&[
        "topology",
        "churn",
        "success rate",
        "survivor messages",
        "survivor overhead",
        "tokens lost",
    ]);
    let mut findings = Vec::new();
    let mut worst_success = 1.0f64;
    let groups = outcome.groups();
    for group in &groups {
        let baseline = outcome
            .group_at(&[("topo", group.idx("topo")), ("churn", 0)])
            .expect("churn axis includes 0")
            .mean("messages_ok");
        let success = group.mean("completed");
        worst_success = worst_success.min(success);
        let survivors = group.online("messages_ok");
        let (survivor_messages, overhead) = if survivors.count() > 0 {
            (
                fmt_num(survivors.mean()),
                format!("{:.2}x", survivors.mean() / baseline),
            )
        } else {
            // No run in this group completed: there is no survivor
            // series to report, which is not the same as "0 messages".
            ("-".to_string(), "-".to_string())
        };
        table.row(&[
            group.value("topo").to_string(),
            group.value("churn").to_string(),
            format!("{:.0}%", success * 100.0),
            survivor_messages,
            overhead,
            group.counter_total("fault_dropped_crash").to_string(),
        ]);
    }
    let zero_churn_ok = groups
        .iter()
        .filter(|g| g.idx("churn") == 0)
        .all(|g| g.mean("completed") == 1.0);
    findings.push(format!(
        "churn = 0 succeeds in 100% of runs on both orientations: {zero_churn_ok}"
    ));
    findings.push(format!(
        "worst-case success rate across the grid: {:.0}% — every failure is a stall \
         (a crash consumed a token; the tokenless Active node then purges every \
         replacement forever), never a wrong leader",
        worst_success * 100.0
    ));
    // Sum the 0/1 cell metric directly: exact in floating point, unlike
    // reconstructing counts from incrementally-accumulated group means.
    let wrong: f64 = outcome
        .cells
        .iter()
        .filter_map(|c| c.metrics.get("wrong_leader"))
        .sum();
    findings.push(format!(
        "wrong-leader (safety) violations observed: {}",
        wrong as u64
    ));
    // Token loss and stalling coincide exactly: one lost token leaves a
    // tokenless Active node (tokens and activations annihilate in pairs),
    // and that node purges every regenerated token forever.
    let loss_iff_stall = outcome.cells.iter().all(|c| {
        let lost = c.metrics.get_counter("fault_dropped_crash").unwrap_or(0) > 0;
        let stalled = c.metrics.get("stalled") == Some(1.0);
        lost == stalled
    });
    findings.push(format!(
        "token loss <=> stall holds cell-for-cell across the grid: {loss_iff_stall} — survivors never lost a token (overhead ~1x), so churn failures are all-or-nothing for the election"
    ));
    findings.push(format!(
        "parameters: n = {}, {}δ outages over a {:.0}δ horizon, \
         A0 = {}/n², event budget {} per run, {} seeds per point",
        s.n.expect("e14 fixes n"),
        fault.downtime / delta(s),
        fault.horizon / delta(s),
        activation(s),
        s.max_events,
        s.seeds
    ));

    ExperimentReport {
        id: "E14",
        title: "Election success under crash-recover churn",
        claim: "the §3 election assumes reliable channels: \"the expected message delay is \
                bounded\" says nothing about loss — churn converts token loss into stalls",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_success_and_stalls() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E14");
        // 2 topologies x 2 churn levels.
        assert_eq!(report.table.row_count(), 4);
        assert_eq!(report.sweep.cells.len(), 2 * 2 * 5);
        // Fault telemetry flows into the sweep counters.
        assert!(report
            .sweep
            .cells
            .iter()
            .all(|c| c.metrics.get_counter("fault_crashes").is_some()));
        // Zero churn always completes.
        assert!(
            report.findings[0].ends_with("true"),
            "{}",
            report.findings[0]
        );
    }

    #[test]
    fn churn_only_ever_stalls_never_elects_two_leaders() {
        let report = run(&RunCtx::quick());
        for cell in &report.sweep.cells {
            assert_eq!(cell.metrics.get("wrong_leader"), Some(0.0));
            let completed = cell.metrics.get("completed").unwrap();
            let stalled = cell.metrics.get("stalled").unwrap();
            assert_eq!(completed + stalled, 1.0);
            // The sharp invariant: a run stalls iff it lost a token.
            let lost = cell.metrics.get_counter("fault_dropped_crash").unwrap() > 0;
            assert_eq!(lost, stalled == 1.0, "{}", cell.cell.label());
        }
    }
}
