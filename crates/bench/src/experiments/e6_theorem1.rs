//! E6 — Theorem 1: synchronising an ABE network costs ≥ n messages/round.
//!
//! Paper: "ABE networks of size n cannot be synchronised with fewer than n
//! messages per round" (Theorem 1, inherited from the asynchronous
//! impossibility of Awerbuch 1985 because every asynchronous execution is
//! an ABE execution).
//!
//! We run a *correct* synchroniser (one envelope per edge per round, no
//! FIFO assumption) with a message-free application on several strongly
//! connected topologies and report messages-per-round divided by `n`:
//! the unidirectional ring meets the floor with equality (ratio 1.0);
//! every denser topology pays `m/n > 1`. An empirical demonstration of
//! the bound's tightness, not a proof.

use abe_core::delay::Exponential;
use abe_core::{NetworkBuilder, Topology};
use abe_sim::{RunLimits, SeedStream};
use abe_stats::{fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};
use abe_sync::{GraphSynchronizer, Heartbeat};

use crate::{ExperimentReport, RunCtx};

/// The topology axis, in presentation order.
const TOPOLOGIES: [&str; 5] = [
    "uni-ring",
    "bidi-ring",
    "torus",
    "erdos-renyi(0.3)",
    "complete",
];

fn build_topology(kind: usize, n: u32) -> Topology {
    match kind {
        0 => Topology::unidirectional_ring(n).expect("n >= 1"),
        1 => Topology::bidirectional_ring(n).expect("n >= 1"),
        2 => Topology::torus(n / 4, 4).expect("dims >= 1"),
        3 => {
            let mut er_rng = SeedStream::new(77).stream("er-topo", u64::from(n));
            Topology::erdos_renyi(n, 0.3, &mut er_rng, 50).expect("connected sample")
        }
        _ => Topology::complete(n.min(32)).expect("n >= 1"),
    }
}

/// Runs E6.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let rounds: u64 = ctx.scale.pick3(20, 20, 100);
    let sizes: &[u32] = ctx
        .scale
        .pick3(&[16][..], &[16, 32][..], &[16, 64, 256][..]);

    let spec = SweepSpec::new()
        .axis_str("topology", &TOPOLOGIES)
        .axis_u32("n", sizes)
        .seeds(1);
    let outcome = ctx.sweep(spec, |cell| {
        let topo = build_topology(cell.idx("topology"), cell.u32("n"));
        let tn = f64::from(topo.node_count());
        let edges = topo.edge_count() as u64;
        let net = NetworkBuilder::new(topo)
            .delay(Exponential::from_mean(1.0).expect("valid mean"))
            .seed(cell.seed())
            .build(|_| GraphSynchronizer::new(Heartbeat::new(), rounds))
            .expect("valid build");
        let (report, _) = net.run(RunLimits::unbounded());
        // Envelopes are sent for rounds 0..rounds-1 (none after the
        // final pulse), so divide by rounds-1 completed send-rounds.
        let per_round = report.messages_sent as f64 / (rounds - 1) as f64;
        CellMetrics::new()
            .metric("nodes", tn)
            .metric("msgs_per_round", per_round)
            .metric("ratio", per_round / tn)
            .counter("edges", edges)
            .with_report(&report)
    });

    let mut table = Table::new(&["topology", "n", "edges", "msgs/round", "msgs/round/n"]);
    let mut ring_ratios = Vec::new();
    let mut min_ratio = f64::INFINITY;

    for &n in sizes {
        let ni = sizes.iter().position(|&x| x == n).expect("size present");
        for (ti, name) in TOPOLOGIES.iter().enumerate() {
            let group = outcome
                .group_at(&[("topology", ti), ("n", ni)])
                .expect("complete grid");
            let ratio = group.mean("ratio");
            min_ratio = min_ratio.min(ratio);
            if ti == 0 {
                ring_ratios.push(ratio);
            }
            table.row(&[
                name.to_string(),
                fmt_num(group.mean("nodes")),
                group.counter_total("edges").to_string(),
                fmt_num(group.mean("msgs_per_round")),
                fmt_num(ratio),
            ]);
        }
    }

    let findings = vec![
        format!(
            "minimum observed messages/round/n = {:.3} — never below the Theorem 1 floor of 1",
            min_ratio
        ),
        format!(
            "unidirectional rings meet the floor with equality (ratios: {})",
            ring_ratios
                .iter()
                .map(|r| format!("{r:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        "denser topologies pay m/n > 1 envelopes per round; no correct synchroniser can beat n \
         (empirical tightness demonstration for Theorem 1)"
            .to_string(),
    ];

    ExperimentReport {
        id: "E6",
        title: "Theorem 1: ≥ n messages per synchronised round",
        claim: "\"ABE networks of size n cannot be synchronised with fewer than n messages per round\" (Theorem 1)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_floor() {
        let report = run(&RunCtx::quick());
        assert!(report.findings[0].contains("never below"));
        // Ring ratio is exactly 1.
        assert!(report.findings[1].contains("1.000"));
    }
}
