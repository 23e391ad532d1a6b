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
//! Churn schedules are generated per cell by [`FaultPlan::churn`] from a
//! child seed of the cell seed, so the whole sweep stays bit-identical at
//! any `--threads` setting.

use abe_core::fault::FaultPlan;
use abe_core::OutcomeClass;
use abe_election::{run_abe_calibrated, RingConfig, RingKind};
use abe_sim::SeedStream;
use abe_stats::{fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

use super::substrate;

/// Activation budget (expected wake-ups per ring traversal).
pub const A: f64 = 1.0;
/// Expected delay bound δ.
pub const DELTA: f64 = 1.0;
/// Outage length of one churn event, in units of δ.
pub const DOWNTIME: f64 = 4.0;
/// Event budget: stalls livelock, so they are detected by exhaustion.
pub const MAX_EVENTS: u64 = 100_000;

/// Runs E14.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let n: u32 = ctx.scale.pick3(16, 32, 64);
    let churn: &[u32] = ctx
        .scale
        .pick3(&[0, 2][..], &[0, 1, 2, 4][..], &[0, 1, 2, 4, 8][..]);
    let reps = ctx.scale.pick3(5, 40, 200);
    // Churn events are spread over the window the election typically
    // occupies (expected linear time, see E2).
    let horizon = 2.0 * f64::from(n) * DELTA;

    let spec = SweepSpec::new()
        .axis_str("topo", &["uni-ring", "bidi-ring"])
        .axis_u32("churn", churn)
        .seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let kind = if cell.idx("topo") == 0 {
            RingKind::Unidirectional
        } else {
            RingKind::Bidirectional
        };
        let plan = FaultPlan::churn(
            n,
            cell.u32("churn"),
            horizon,
            DOWNTIME * DELTA,
            SeedStream::new(cell.seed()).child_seed("churn-plan", 0),
        );
        let run = substrate(ctx, DELTA, cell.seed())
            .fault(plan)
            .max_events(MAX_EVENTS);
        let cfg = RingConfig::new(n, run).kind(kind);
        let o = run_abe_calibrated(&cfg, A);
        let class = o.class();
        let mut metrics = CellMetrics::new()
            .metric("completed", f64::from(class == OutcomeClass::Completed))
            .metric("stalled", f64::from(class == OutcomeClass::Stalled))
            .metric(
                "wrong_leader",
                f64::from(class == OutcomeClass::WrongLeader),
            )
            .metric("messages", o.messages as f64)
            .metric("time", o.time)
            .with_report(&o.report)
            .with_faults(&o.report);
        if class == OutcomeClass::Completed {
            // Survivor-only series: stalled runs livelock until the event
            // budget, so their message counts measure the budget, not the
            // algorithm. Group aggregation skips cells missing a metric.
            metrics = metrics
                .metric("messages_ok", o.messages as f64)
                .metric("time_ok", o.time);
        }
        metrics
    });

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
    for (topo_idx, topo) in ["uni-ring", "bidi-ring"].iter().enumerate() {
        let baseline = outcome
            .group_at(&[("topo", topo_idx), ("churn", 0)])
            .expect("churn axis includes 0")
            .mean("messages_ok");
        for (churn_idx, &c) in churn.iter().enumerate() {
            let group = outcome
                .group_at(&[("topo", topo_idx), ("churn", churn_idx)])
                .expect("full grid");
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
                (*topo).to_string(),
                c.to_string(),
                format!("{:.0}%", success * 100.0),
                survivor_messages,
                overhead,
                group.counter_total("fault_dropped_crash").to_string(),
            ]);
        }
    }
    let zero_churn_ok = ["uni-ring", "bidi-ring"].iter().enumerate().all(|(i, _)| {
        outcome
            .group_at(&[("topo", i), ("churn", 0)])
            .expect("churn axis includes 0")
            .mean("completed")
            == 1.0
    });
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
        "parameters: n = {n}, {DOWNTIME}δ outages over a {horizon:.0}δ horizon, \
         A0 = {A}/n², event budget {MAX_EVENTS} per run, {reps} seeds per point"
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
