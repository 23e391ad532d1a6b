//! E18 — graph-synchroniser pulse skew under adversarial FIFO violation.
//!
//! Theorem 1's synchroniser claims correctness on ABE networks *without*
//! FIFO links: envelopes are round-stamped and buffered, so a neighbour
//! may run ahead (bounded by the graph's diameter) and messages may
//! overtake freely. Two budgeted adversaries attack that claim from
//! opposite sides:
//!
//! * [`Reorder`] alternates near-zero and
//!   double-budget delays per edge — the strategy that *manufactures*
//!   inversions on free-running traffic. Against the synchroniser it is
//!   **neutralised by self-clocking**: an edge never carries two
//!   envelopes at once (the next send waits for the round to complete),
//!   so the alternation collapses into a lock-step slowdown — zero skew,
//!   pure time cost;
//! * [`Burst`] banks budget and stalls a single
//!   envelope for many δ at once. The stalled edge's *sender* keeps
//!   firing rounds fed by its own in-edges, so later envelopes genuinely
//!   overtake the stalled one — real FIFO inversions — and transient
//!   pulse skew climbs toward the buffering bound (diameter + 1).
//!
//! Swept across topologies (ring, hypercube, random-regular — diameters
//! n−1, log n, ~log n) × budget, each cell measures `completed` (must
//! stay 100%), `max_lead` (worst transient skew any node witnessed),
//! `time`, and the budget-auditor telemetry proving every run stayed a
//! legal ABE execution.

use abe_adversary::{Burst, Reorder};
use abe_core::{AdversaryPlan, OutcomeClass, Topology};
use abe_sim::SeedStream;
use abe_stats::{fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};
use abe_sync::{classify_rounds, GraphSynchronizer, Heartbeat};

use crate::{ExperimentReport, RunCtx};

use super::substrate;

/// Oblivious-baseline expected delay δ (exponential mean on every edge).
pub const DELTA: f64 = 1.0;
/// Event budget per run (defensive; healthy runs quiesce on their own).
pub const MAX_EVENTS: u64 = 2_000_000;
/// The topology axis: the paper's ring plus the new generator shapes.
pub const TOPOLOGIES: [&str; 3] = ["uni-ring", "hypercube", "rand-reg"];
/// Burst probability of the heavy-tail burster.
pub const BURST_P: f64 = 0.05;

/// Builds the cell's topology (sizes chosen so all three shapes hold
/// `2^dim` nodes and the random graph is 3-regular).
fn topology_for(shape: &str, dim: u32, seed: u64) -> Topology {
    let n = 1u32 << dim;
    match shape {
        "uni-ring" => Topology::unidirectional_ring(n).expect("n >= 1"),
        "hypercube" => Topology::hypercube(dim).expect("dim within bounds"),
        "rand-reg" => {
            // Deterministic per cell: the graph seed is a child of the
            // cell seed, independent of the simulation streams.
            Topology::random_regular(n, 3, SeedStream::new(seed).child_seed("topo", 0))
                .expect("3-regular on 2^dim nodes is feasible")
        }
        other => panic!("unknown topology {other}"),
    }
}

/// Runs E18.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let dim: u32 = ctx.scale.pick3(3, 4, 5); // 8 / 16 / 32 nodes
    let rounds: u64 = ctx.scale.pick3(8, 20, 40);
    let budgets: &[f64] = ctx.scale.pick3(
        &[1.0, 4.0][..],
        &[1.0, 2.0, 4.0][..],
        &[1.0, 2.0, 4.0, 8.0][..],
    );
    let reps = ctx.scale.pick3(5, 25, 100);
    let n = 1u32 << dim;

    let spec = SweepSpec::new()
        .axis_str("topo", &TOPOLOGIES)
        .axis_str("strategy", &["none", "reorder", "burst"])
        .axis_f64("budget", budgets)
        .seeds(reps)
        // The oblivious baseline has no budget knob: run it once per
        // (topo, seed) at the first budget value only.
        .filter(|c| c.idx("strategy") != 0 || c.idx("budget") == 0);
    let outcome = ctx.sweep(spec, |cell| {
        let shape = cell.value("topo").to_string();
        let adversarial = cell.idx("strategy") != 0;
        let plan = match cell.value("strategy").to_string().as_str() {
            "none" => AdversaryPlan::none(),
            "reorder" => {
                AdversaryPlan::new(cell.f64("budget"), Reorder::new()).expect("valid budget")
            }
            _ => AdversaryPlan::new(cell.f64("budget"), Burst::new(BURST_P)).expect("valid budget"),
        };
        let run = substrate(ctx, DELTA, cell.seed())
            .adversary(plan)
            .max_events(MAX_EVENTS)
            .run(topology_for(&shape, dim, cell.seed()), |_| {
                GraphSynchronizer::new(Heartbeat::new(), rounds)
            })
            .expect("an empty fault plan fits every topology");
        let report = run.report;
        let nodes = run.protocols;
        let fired: Vec<u64> = nodes.iter().map(|p| p.rounds_fired()).collect();
        let max_lead = nodes.iter().map(|p| p.max_lead()).max().expect("n >= 1");
        let completed = classify_rounds(fired, rounds) == OutcomeClass::Completed;
        let metrics = CellMetrics::new()
            .metric("completed", f64::from(completed))
            .metric("max_lead", max_lead as f64)
            .metric("time", report.end_time.as_secs())
            .with_report(&report);
        if adversarial {
            metrics.with_adversary(&report)
        } else {
            metrics
        }
    });

    let mut table = Table::new(&[
        "topology",
        "strategy",
        "budget",
        "completed",
        "max lead (mean)",
        "time (mean)",
        "clamped",
        "violations",
    ]);
    let mut all_complete = true;
    let mut total_violations = 0u64;
    let mut worst_inflation = 0.0f64;
    let mut lead_by_diameter_ok = true;
    for group in outcome.groups() {
        let shape = group.value("topo").to_string();
        let adversarial = group.idx("strategy") != 0;
        let completed = group.mean("completed");
        all_complete &= completed == 1.0;
        total_violations += group.counter_total("adv_violations");
        let baseline_time = outcome
            .group_at(&[("topo", group.idx("topo")), ("strategy", 0), ("budget", 0)])
            .expect("baseline per topology")
            .mean("time");
        if adversarial {
            worst_inflation = worst_inflation.max(group.mean("time") / baseline_time);
        }
        // The buffering bound: no envelope may lead by more than the
        // diameter (+1 round in flight). Diameters: ring n−1, cube dim,
        // rand-reg ≤ n (checked loosely via the ring bound).
        let diameter_bound = match shape.as_str() {
            "hypercube" => u64::from(dim),
            _ => u64::from(n) - 1,
        };
        if group.online("max_lead").max().unwrap_or(0.0) > (diameter_bound + 1) as f64 {
            lead_by_diameter_ok = false;
        }
        table.row(&[
            shape,
            group.value("strategy").to_string(),
            if adversarial {
                fmt_num(group.value("budget").as_f64())
            } else {
                "-".to_string()
            },
            format!("{:.0}%", completed * 100.0),
            fmt_num(group.mean("max_lead")),
            fmt_num(group.mean("time")),
            group.counter_total("adv_clamped").to_string(),
            group.counter_total("adv_violations").to_string(),
        ]);
    }

    // The headline contrast, measured on the ring at the largest budget:
    // the alternator is self-clocked into zero skew, the burster is not.
    let top = budgets.len() - 1;
    let reorder_lead = outcome
        .group_at(&[("topo", 0), ("strategy", 1), ("budget", top)])
        .expect("full grid")
        .mean("max_lead");
    let burst_lead = outcome
        .group_at(&[("topo", 0), ("strategy", 2), ("budget", top)])
        .expect("full grid")
        .mean("max_lead");
    let base_lead = outcome
        .group_at(&[("topo", 0), ("strategy", 0), ("budget", 0)])
        .expect("full grid")
        .mean("max_lead");
    let findings = vec![
        format!(
            "adversarial scheduling never breaks synchrony: every run on every \
             topology completes all {rounds} rounds ({all_complete}) — round-stamped, \
             buffered envelopes make the synchroniser order-oblivious, exactly as the \
             Theorem 1 construction claims"
        ),
        format!(
            "the FIFO-violating alternator is *neutralised by self-clocking*: an edge \
             never carries two envelopes at once, so its inversions cannot occur — \
             ring mean transient skew {reorder_lead:.2} rounds at the top budget \
             (oblivious baseline: {base_lead:.2}) and the whole network degrades into \
             a lock-step slowdown instead"
        ),
        format!(
            "the burster *does* manufacture real inversions — a stalled envelope is \
             overtaken by its successors while the sender runs ahead — driving ring \
             mean transient skew to {burst_lead:.2} rounds at the top budget, yet \
             always within the buffering bound (diameter + 1): {lead_by_diameter_ok}"
        ),
        format!(
            "the price of legal adversarial scheduling is time, not rounds: worst mean \
             completion-time inflation {worst_inflation:.2}x over the oblivious \
             baseline; {total_violations} un-clamped budget violations across the grid"
        ),
        format!(
            "parameters: 2^{dim} = {n} nodes (ring / hypercube / 3-regular random), \
             {rounds} rounds, δ = {DELTA}, budgets {budgets:?}, burst p = {BURST_P}, \
             {reps} seeds per point"
        ),
    ];

    ExperimentReport {
        id: "E18",
        title: "Synchroniser pulse skew under adversarial FIFO violation",
        claim: "the Theorem 1 synchroniser does not assume FIFO links — \"the order of \
                messages is arbitrary\" — so even systematic adversarial inversion may \
                cost time but never rounds",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_completes_on_every_topology() {
        let report = run(&RunCtx::smoke());
        assert_eq!(report.id, "E18");
        // 3 topologies × (1 baseline + 2 strategies × 2 budgets).
        assert_eq!(report.table.row_count(), 15);
        assert_eq!(report.sweep.cells.len(), 3 * (1 + 2 * 2) * 5);
        for cell in &report.sweep.cells {
            assert_eq!(
                cell.metrics.get("completed"),
                Some(1.0),
                "{}",
                cell.cell.label()
            );
            if cell.cell.idx("strategy") != 0 {
                assert_eq!(cell.metrics.get_counter("adv_violations"), Some(0));
                let budget = cell.cell.f64("budget");
                assert!(cell.metrics.get("adv_max_edge_mean").unwrap() <= budget * (1.0 + 1e-9));
            }
        }
        assert!(
            report.findings[0].contains("true"),
            "{}",
            report.findings[0]
        );
        assert!(
            report.findings[2].contains("true"),
            "{}",
            report.findings[2]
        );
    }

    #[test]
    fn bursts_raise_transient_skew_reordering_is_self_clocked_away() {
        let report = run(&RunCtx::quick());
        let lead_of = |strategy: usize, budget: usize| {
            report
                .sweep
                .group_at(&[("topo", 0), ("strategy", strategy), ("budget", budget)])
                .unwrap()
                .mean("max_lead")
        };
        // The burster manufactures genuine inversions: skew above baseline.
        assert!(
            lead_of(2, 2) > lead_of(0, 0),
            "burst at 4δ should raise transient skew: {} vs {}",
            lead_of(2, 2),
            lead_of(0, 0)
        );
        // The alternator cannot: the synchroniser is self-clocking, so its
        // systematic inversions collapse to lock-step (zero skew).
        assert_eq!(lead_of(1, 2), 0.0, "reorder must be self-clocked away");
    }
}
