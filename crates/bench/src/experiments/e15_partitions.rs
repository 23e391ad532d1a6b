//! E15 — synchroniser pulse skew across partition heal time × delay
//! storms.
//!
//! Theorem 1's graph synchroniser pays one envelope per edge per round
//! and assumes every envelope arrives. Two fault regimes probe that
//! assumption from opposite sides:
//!
//! * a **partition** window cutting one node off for `[1, 1 + heal)`
//!   loses envelopes outright — and because the synchroniser never
//!   retransmits, the *first* lost envelope permanently blocks its
//!   destination, so the run stalls with nodes frozen at different round
//!   counts (**pulse skew**) no matter how quickly the partition heals;
//! * a **delay storm** multiplying every edge delay over the same window
//!   loses nothing — rounds stay lock-step (zero final skew) and the run
//!   completes, merely paying the stretched delays in wall-clock.
//!
//! The contrast is the point: the graph synchroniser is robust to
//! arbitrary *slowness* (it only ever waits) but brittle to *loss*.

use abe_core::fault::{EdgeSelector, FaultPlan};
use abe_core::{OutcomeClass, Topology};
use abe_stats::{fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};
use abe_sync::{classify_rounds, GraphSynchronizer, Heartbeat};

use crate::{ExperimentReport, RunCtx};

use super::substrate;

/// Expected delay bound δ (exponential mean on every edge).
pub const DELTA: f64 = 1.0;
/// Both fault windows open at this virtual time.
pub const WINDOW_START: f64 = 1.0;
/// Event budget per run (defensive; stalls quiesce on their own).
pub const MAX_EVENTS: u64 = 2_000_000;

/// Runs E15.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let n: u32 = ctx.scale.pick3(8, 16, 24);
    let rounds: u64 = ctx.scale.pick3(10, 24, 48);
    let heal: &[f64] = ctx.scale.pick3(
        &[0.0, 4.0][..],
        &[0.0, 2.0, 8.0][..],
        &[0.0, 2.0, 8.0, 32.0][..],
    );
    let storm: &[f64] = ctx.scale.pick3(
        &[1.0, 8.0][..],
        &[1.0, 4.0, 16.0][..],
        &[1.0, 4.0, 16.0][..],
    );
    let reps = ctx.scale.pick3(5, 25, 100);

    let spec = SweepSpec::new()
        .axis_f64("heal", heal)
        .axis_f64("storm", storm)
        .seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let heal = cell.f64("heal");
        let storm = cell.f64("storm");
        let mut plan = FaultPlan::new();
        if heal > 0.0 {
            // Cut node 0 off until the partition heals.
            plan = plan.partition(vec![0], WINDOW_START, WINDOW_START + heal);
        }
        if storm > 1.0 {
            // Congestion burst on every edge over the same window span
            // (fixed length so the storm axis is comparable across heals).
            plan = plan.delay_storm(EdgeSelector::All, WINDOW_START, WINDOW_START + 8.0, storm);
        }
        let run = substrate(ctx, DELTA, cell.seed())
            .fault(plan)
            .max_events(MAX_EVENTS)
            .run(
                Topology::unidirectional_ring(n).expect("n >= 1 by construction"),
                |_| GraphSynchronizer::new(Heartbeat::new(), rounds),
            )
            .expect("the fault plan fits the ring");
        let report = run.report;
        let fired: Vec<u64> = run.protocols.iter().map(|p| p.rounds_fired()).collect();
        let min = *fired.iter().min().expect("n >= 1");
        let max = *fired.iter().max().expect("n >= 1");
        let class = classify_rounds(fired, rounds);
        CellMetrics::new()
            .metric("completed", f64::from(class == OutcomeClass::Completed))
            .metric("pulses_min", min as f64)
            .metric("pulses_max", max as f64)
            .metric("skew", (max - min) as f64)
            .metric("time", report.end_time.as_secs())
            .with_report(&report)
            .with_faults(&report)
    });

    let mut table = Table::new(&[
        "heal",
        "storm",
        "completed",
        "skew (mean)",
        "rounds (min mean)",
        "time (mean)",
        "envelopes lost",
    ]);
    for group in outcome.groups() {
        table.row(&[
            fmt_num(group.value("heal").as_f64()),
            fmt_num(group.value("storm").as_f64()),
            format!("{:.0}%", group.mean("completed") * 100.0),
            fmt_num(group.mean("skew")),
            fmt_num(group.mean("pulses_min")),
            fmt_num(group.mean("time")),
            group.counter_total("fault_dropped_partition").to_string(),
        ]);
    }

    // Storm-only groups (heal = 0) must complete in lock-step.
    let storm_only_ok = storm.iter().enumerate().all(|(si, _)| {
        let g = outcome
            .group_at(&[("heal", 0), ("storm", si)])
            .expect("full grid");
        g.mean("completed") == 1.0 && g.mean("skew") == 0.0
    });
    // Partitioned groups with at least one lost envelope must stall.
    let mut partition_stalls = true;
    let mut skew_seen = 0.0f64;
    for group in outcome.groups() {
        if group.value("heal").as_f64() > 0.0 {
            skew_seen = skew_seen.max(group.mean("skew"));
            if group.counter_total("fault_dropped_partition") > 0 && group.mean("completed") == 1.0
            {
                partition_stalls = false;
            }
        }
    }
    let baseline_time = outcome
        .group_at(&[("heal", 0), ("storm", 0)])
        .expect("full grid")
        .mean("time");
    let stormed_time = outcome
        .group_at(&[("heal", 0), ("storm", storm.len() - 1)])
        .expect("full grid")
        .mean("time");
    let findings = vec![
        format!(
            "delay storms alone (heal = 0) never break synchrony: all runs complete \
             with zero final skew ({storm_only_ok}), paying {:.1}x the fault-free \
             completion time at the strongest storm",
            stormed_time / baseline_time
        ),
        format!(
            "every partitioned group that lost at least one envelope stalled \
             ({partition_stalls}): the graph synchroniser never retransmits, so heal \
             time cannot rescue a round once an envelope died on the cut"
        ),
        format!(
            "stalled rings freeze with pulse skew up to {skew_seen:.1} rounds \
             (nodes upstream of the cut keep pulsing until the gap propagates \
             around the ring)"
        ),
        format!(
            "parameters: n = {n}, {rounds} rounds, partition cuts node 0 at t = \
             {WINDOW_START}, storms multiply all edges over [{WINDOW_START}, \
             {:.0}), {reps} seeds per point",
            WINDOW_START + 8.0
        ),
    ];

    ExperimentReport {
        id: "E15",
        title: "Synchroniser pulse skew under partitions and delay storms",
        claim: "the Theorem 1 graph synchroniser trades messages for correctness on ABE \
                networks — robust to arbitrary slowness (storms), brittle to loss \
                (partitions)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_contrasts_storms_and_partitions() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E15");
        assert_eq!(report.table.row_count(), 4); // 2 heals x 2 storms
        assert_eq!(report.sweep.cells.len(), 2 * 2 * 5);
        assert!(
            report.findings[0].contains("true"),
            "{}",
            report.findings[0]
        );
        assert!(
            report.findings[1].contains("true"),
            "{}",
            report.findings[1]
        );
    }

    #[test]
    fn quick_run_storm_groups_complete_partitions_stall() {
        let report = run(&RunCtx::quick());
        for group in report.sweep.groups() {
            let heal = group.value("heal").as_f64();
            if heal == 0.0 {
                assert_eq!(group.mean("completed"), 1.0, "{}", group.label());
                assert_eq!(group.mean("skew"), 0.0, "{}", group.label());
            } else if group.counter_total("fault_dropped_partition") > 0 {
                // Loss happened somewhere in the group: at least the cells
                // that lost an envelope cannot have completed.
                assert!(group.mean("completed") < 1.0, "{}", group.label());
            }
        }
    }
}
