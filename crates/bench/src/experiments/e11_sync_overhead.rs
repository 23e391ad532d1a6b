//! E11 — running a synchronous algorithm over a synchroniser "destroys the
//! message complexity".
//!
//! Paper (§2): "This of course destroys the message complexity when
//! running synchronous algorithms in an asynchronous network ... Hence, we
//! cannot run synchronous algorithms in ABE networks without losing the
//! message complexity."
//!
//! We elect a leader on the same ABE ring two ways: (a) natively with the
//! paper's ABE algorithm (Θ(n) messages), and (b) by running synchronous
//! Itai–Rodeh over the graph synchroniser, which pays n envelopes per
//! round × Θ(n) rounds = Θ(n²) messages. The overhead factor grows
//! linearly in n — Theorem 1's consequence made concrete.

use abe_core::delay::Exponential;
use abe_core::{NetworkBuilder, Topology};
use abe_sim::RunLimits;
use abe_stats::{fit_power_law, fmt_num, Table};
use abe_sweep::{CellMetrics, SweepSpec};
use abe_sync::{GraphSynchronizer, IrSync};

use crate::{ExperimentReport, RunCtx};

use super::{election_stats, ring};

use super::{A, DELTA};

fn run_ir_over_synchronizer(n: u32, seed: u64) -> (u64, bool) {
    // Round budget: IR phases are ~n rounds each; allow many phases.
    let max_rounds = 64 * u64::from(n) + 64;
    let net = NetworkBuilder::new(Topology::unidirectional_ring(n).expect("n >= 1"))
        .delay(Exponential::from_mean(DELTA).expect("valid mean"))
        .seed(seed)
        .build(|_| GraphSynchronizer::new(IrSync::new(n).expect("n >= 1"), max_rounds))
        .expect("valid build");
    let (report, net) = net.run(RunLimits::events(50_000_000));
    let elected = net.protocols().filter(|p| p.app().is_leader()).count() == 1;
    (report.messages_sent, elected)
}

/// Runs E11.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let sizes: &[u32] = ctx
        .scale
        .pick3(&[8, 16][..], &[8, 16, 32][..], &[8, 16, 32, 64, 128][..]);
    let reps = ctx.scale.pick3(5, 10, 40);

    let spec = SweepSpec::new()
        .axis_str("algorithm", &["native-abe", "ir-over-sync"])
        .axis_u32("n", sizes)
        .seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let n = cell.u32("n");
        if cell.idx("algorithm") == 0 {
            let o = run_abe_calibrated_local(ctx, n, cell.seed());
            CellMetrics::new().with_election(&o)
        } else {
            let (messages, elected) = run_ir_over_synchronizer(n, cell.seed());
            assert!(elected, "IR over synchroniser must elect");
            CellMetrics::new().metric("messages", messages as f64)
        }
    });

    let mut table = Table::new(&[
        "n",
        "native ABE msgs",
        "IR-over-sync msgs",
        "overhead factor",
    ]);
    let mut overhead_series = Vec::new();

    for (ni, &n) in sizes.iter().enumerate() {
        let native_group = outcome
            .group_at(&[("algorithm", 0), ("n", ni)])
            .expect("complete grid");
        let synced_group = outcome
            .group_at(&[("algorithm", 1), ("n", ni)])
            .expect("complete grid");
        let (native, _) = election_stats(&native_group);
        let synced = synced_group.online("messages");
        let overhead = synced.mean() / native.mean();
        overhead_series.push((f64::from(n), overhead));
        table.row(&[
            n.to_string(),
            fmt_num(native.mean()),
            fmt_num(synced.mean()),
            fmt_num(overhead),
        ]);
    }

    let fit = fit_power_law(&overhead_series).expect("non-degenerate series");
    let findings = vec![
        format!(
            "overhead factor grows as ~n^{:.2} (power-law fit) — synchronising multiplies the \
             message bill by Θ(n), exactly the \"destroys the message complexity\" effect",
            fit.slope
        ),
        "the native ABE election exploits the expected-delay bound directly and never pays the \
         per-round synchronisation floor"
            .to_string(),
    ];

    ExperimentReport {
        id: "E11",
        title: "Synchronous algorithm over synchroniser vs native ABE",
        claim: "\"we cannot run synchronous algorithms in ABE networks without losing the message complexity\" (§2)",
        table,
        findings,
        sweep: outcome,
    }
}

fn run_abe_calibrated_local(
    ctx: &crate::RunCtx,
    n: u32,
    seed: u64,
) -> abe_election::ElectionOutcome {
    abe_election::run_abe_calibrated(&ring(ctx, n, DELTA, seed), A)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronised_ir_is_much_more_expensive() {
        let (messages, elected) = run_ir_over_synchronizer(16, 3);
        assert!(elected);
        let native = run_abe_calibrated_local(&crate::RunCtx::quick(), 16, 3);
        assert!(
            messages > 3 * native.messages,
            "sync {messages} vs native {}",
            native.messages
        );
    }
}
