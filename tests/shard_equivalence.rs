//! Differential suite: the sharded parallel kernel versus sequential
//! execution, end to end through the public network API.
//!
//! `Network::run_sharded` promises a [`NetworkReport`] **identical** to
//! `Network::run` for any shard count — counters, fault statistics, queue
//! statistics, outcome, end time, everything the report's equality
//! compares. These tests drive whole networks down both paths and assert
//! exactly that, across every execution regime the sharded kernel has:
//!
//! * positive lookahead (uniform/deterministic delays) → conservative
//!   time windows, the genuinely parallel path, ending in `Quiescent` or
//!   `MaxTime` without ever aborting a window;
//! * infimum-zero delays (exponential) → windows bounded by the delays
//!   pre-drawn on the cross-shard edges, cut short when an edge runs out
//!   of them and aborted when a later draw undercuts them;
//! * really zero delays (`Deterministic(0)`, or a two-point model with an
//!   atom at zero, which flips between the two regimes from barrier to
//!   barrier) → exact single-stepping;
//! * stop requests (every completed election) → exact single-step stop
//!   or the sequential-replay fallback;
//! * fault schedules (crash-recover churn, message drops, delay storms)
//!   → per-entity seed streams keep both paths on the same randomness.
//!
//! The suite sits in the facade package because it drives every layer
//! above the kernel: `abe-core` networks running `abe-election`,
//! `abe-consensus` and `abe-statesync` workloads. The
//! consensus cases matter because Ben-Or flips *private coins* (per-node
//! `SeedStream` children): the equivalence proves the coins are keyed by
//! identity, not by execution order. The state-sync cases matter because
//! anti-entropy is the first workload whose sends carry *payload sizes*
//! (`Ctx::send_sized`): the equivalence proves byte accounting survives
//! the per-shard split and merge exactly.

use std::sync::Arc;

use proptest::prelude::*;

use abe_core::delay::{Bimodal, Deterministic, Exponential, SharedDelay, Uniform};
use abe_core::fault::{EdgeSelector, FaultPlan};
use abe_core::{
    Ctx, InPort, NetworkBuilder, NetworkReport, OutPort, Protocol, RunConfig, Topology,
};
use abe_election::{run_abe, run_abe_calibrated, run_itai_rodeh, ElectionOutcome, RingConfig};
use abe_sim::{RunLimits, RunOutcome, SimTime};

/// A token-passing protocol that quiesces on its own: node 0 launches a
/// token with a hop budget, every hop decrements it, and the network goes
/// silent when the budget is spent. With a positive-`min_delay` model the
/// sharded run exercises the windowed path and must end `Quiescent`.
#[derive(Debug, Clone)]
struct HopToken {
    initiator: bool,
    relayed: u64,
}

impl Protocol for HopToken {
    type Message = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        if self.initiator {
            ctx.send(OutPort(0), 96);
        }
    }

    fn on_message(&mut self, _from: InPort, budget: u32, ctx: &mut Ctx<'_, u32>) {
        self.relayed += 1;
        ctx.count("relays", 1);
        if budget > 0 {
            ctx.send(OutPort(0), budget - 1);
        }
    }
}

/// Runs the hop-token ring once sequentially and once with `shards`,
/// returning both reports plus the per-node relay totals.
fn hop_token_pair(
    n: u32,
    seed: u64,
    shards: u32,
    delay: SharedDelay,
    limits: RunLimits,
) -> ((NetworkReport, Vec<u64>), (NetworkReport, Vec<u64>)) {
    let build = |shards: u32| {
        NetworkBuilder::new(Topology::unidirectional_ring(n).expect("n >= 1"))
            .delay_shared(Arc::clone(&delay))
            .seed(seed)
            .shards(shards)
            .build(|i| HopToken {
                initiator: i == 0,
                relayed: 0,
            })
            .expect("valid build")
    };
    let (seq_report, seq_net) = build(1).run(limits);
    let (par_report, par_net) = build(shards).run_sharded(limits);
    (
        (seq_report, seq_net.protocols().map(|p| p.relayed).collect()),
        (par_report, par_net.protocols().map(|p| p.relayed).collect()),
    )
}

/// Asserts two election outcomes agree on everything observable.
fn assert_outcomes_equal(seq: &ElectionOutcome, par: &ElectionOutcome, what: &str) {
    assert_eq!(seq.report, par.report, "{what}: reports diverge");
    assert_eq!(seq.leaders, par.leaders, "{what}: leader counts diverge");
    assert_eq!(
        seq.terminated, par.terminated,
        "{what}: termination diverges"
    );
}

#[test]
fn windowed_quiescent_run_matches_sequential() {
    for shards in [2, 4, 8] {
        let ((seq_report, seq_relays), (par_report, par_relays)) = hop_token_pair(
            24,
            7,
            shards,
            Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
            RunLimits::events(100_000),
        );
        assert_eq!(seq_report.outcome, RunOutcome::Quiescent);
        assert_eq!(seq_report, par_report, "shards={shards}");
        assert_eq!(seq_relays, par_relays, "shards={shards}");
    }
}

#[test]
fn windowed_max_time_run_matches_sequential() {
    // The horizon cuts the token off mid-flight: the sharded run ends a
    // window early and must report the identical MaxTime state.
    let limits = RunLimits::events(100_000).with_max_time(SimTime::from_secs(9.25));
    for shards in [2, 4, 8] {
        let ((seq_report, seq_relays), (par_report, par_relays)) = hop_token_pair(
            24,
            11,
            shards,
            Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
            limits,
        );
        assert_eq!(seq_report.outcome, RunOutcome::MaxTime);
        assert_eq!(seq_report, par_report, "shards={shards}");
        assert_eq!(seq_relays, par_relays, "shards={shards}");
    }
}

#[test]
fn zero_lookahead_run_matches_sequential() {
    // Exponential delays have min_delay 0 and run in pre-drawn windows; a
    // delay that is really zero goes through exact single-stepping.
    let delays: [SharedDelay; 2] = [
        Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
        Arc::new(Deterministic::zero()),
    ];
    for delay in delays {
        for shards in [2, 4, 8] {
            let ((seq_report, seq_relays), (par_report, par_relays)) = hop_token_pair(
                16,
                3,
                shards,
                Arc::clone(&delay),
                RunLimits::events(100_000),
            );
            assert_eq!(seq_report.outcome, RunOutcome::Quiescent);
            assert_eq!(seq_report, par_report, "{delay:?}, shards={shards}");
            assert_eq!(seq_relays, par_relays, "{delay:?}, shards={shards}");
        }
    }
}

#[test]
fn elections_match_sequential_for_every_shard_count() {
    // Completed elections end in a stop request — the path that forces
    // either an exact single-step stop or the sequential-replay fallback.
    for shards in [2, 4, 8] {
        let seq = RingConfig::new(20, RunConfig::new().seed(5));
        let par = RingConfig::new(20, RunConfig::new().seed(5).shards(shards));
        assert_outcomes_equal(
            &run_abe_calibrated(&seq, 1.0),
            &run_abe_calibrated(&par, 1.0),
            &format!("abe-calibrated, shards={shards}"),
        );
        assert_outcomes_equal(
            &run_itai_rodeh(&seq),
            &run_itai_rodeh(&par),
            &format!("itai-rodeh, shards={shards}"),
        );
    }
}

#[test]
fn deterministic_churn_matches_sequential() {
    // Crash-recover churn plus drops plus a delay storm: every fault
    // counter in the report has to survive the per-shard split and merge.
    for (shards, seed) in [(2, 1u64), (4, 2), (8, 3)] {
        let plan = FaultPlan::churn(18, 3, 40.0, 5.0, seed)
            .drop(EdgeSelector::All, 0.05)
            .delay_storm(EdgeSelector::All, 8.0, 16.0, 4.0);
        let seq = RingConfig::new(
            18,
            RunConfig::new()
                .seed(seed)
                .fault(plan.clone())
                .max_events(60_000),
        );
        let mut par = seq.clone();
        par.run.shards = shards;
        let a = run_abe_calibrated(&seq, 1.0);
        let b = run_abe_calibrated(&par, 1.0);
        assert_outcomes_equal(&a, &b, &format!("churn, shards={shards}"));
        assert_eq!(
            a.report.faults, b.report.faults,
            "churn, shards={shards}: fault stats diverge"
        );
    }
}

#[test]
fn max_time_election_with_positive_lookahead_matches_sequential() {
    // An election capped by a virtual-time horizon under a uniform delay:
    // the sharded side takes real parallel windows and ends at MaxTime
    // without ever seeing the stop request.
    for shards in [2, 4, 8] {
        let seq = RingConfig::new(
            32,
            RunConfig::new()
                .seed(9)
                .delay(Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")))
                .max_time(6.0),
        );
        let mut par = seq.clone();
        par.run.shards = shards;
        let a = run_abe(&seq, 0.4);
        let b = run_abe(&par, 0.4);
        assert_eq!(a.report.outcome, RunOutcome::MaxTime);
        assert_outcomes_equal(&a, &b, &format!("max-time election, shards={shards}"));
    }
}

/// Asserts two Ben-Or outcomes agree on everything observable: the report
/// plus every per-node vector (decisions, rounds, integrity counts).
fn assert_benor_equal(
    seq: &abe_consensus::ConsensusOutcome,
    par: &abe_consensus::ConsensusOutcome,
    what: &str,
) {
    assert_eq!(seq.report, par.report, "{what}: reports diverge");
    assert_eq!(seq.decisions, par.decisions, "{what}: decisions diverge");
    assert_eq!(seq.rounds, par.rounds, "{what}: rounds diverge");
    assert_eq!(
        seq.decide_events, par.decide_events,
        "{what}: decide events diverge"
    );
}

#[test]
fn benor_consensus_matches_sequential_for_every_shard_count() {
    // Ben-Or runs on the complete graph (not a ring), flips private coins
    // from per-node SeedStream children, and ends in a stop request once
    // every node halts — all three must survive the shard split.
    for shards in [2, 4, 8] {
        let seq = abe_consensus::ConsensusConfig::new(7, 2, RunConfig::new().seed(41));
        let mut par = seq.clone();
        par.run.shards = shards;
        let a = abe_consensus::run_benor(&seq, abe_consensus::InputAssignment::Split);
        let b = abe_consensus::run_benor(&par, abe_consensus::InputAssignment::Split);
        assert_benor_equal(&a, &b, &format!("benor split, shards={shards}"));
    }
}

#[test]
fn benor_under_churn_matches_sequential() {
    // Crash-recover churn on top of consensus: fault statistics and the
    // (possibly stalled) decision vectors must merge identically.
    for (shards, seed) in [(2, 1u64), (4, 2), (8, 3)] {
        let plan = FaultPlan::churn(9, 3, 30.0, 6.0, seed);
        let seq = abe_consensus::ConsensusConfig::new(
            9,
            2,
            RunConfig::new().seed(seed).fault(plan).max_events(400_000),
        );
        let mut par = seq.clone();
        par.run.shards = shards;
        let a = abe_consensus::run_benor(&seq, abe_consensus::InputAssignment::Split);
        let b = abe_consensus::run_benor(&par, abe_consensus::InputAssignment::Split);
        assert_benor_equal(&a, &b, &format!("benor churn, shards={shards}"));
        assert_eq!(
            a.report.faults, b.report.faults,
            "benor churn, shards={shards}: fault stats diverge"
        );
    }
}

#[test]
fn reliable_broadcast_matches_sequential_for_every_shard_count() {
    // BRB quiesces on its own (every message is sent at most once): the
    // windowed path with no stop request, on a complete graph.
    for shards in [2, 4, 8] {
        let seq = abe_consensus::ConsensusConfig::new(10, 3, RunConfig::new().seed(17));
        let mut par = seq.clone();
        par.run.shards = shards;
        let a = abe_consensus::run_brb(&seq, 0xB10C);
        let b = abe_consensus::run_brb(&par, 0xB10C);
        assert_eq!(a.report, b.report, "brb shards={shards}: reports diverge");
        assert_eq!(
            a.delivered, b.delivered,
            "brb shards={shards}: deliveries diverge"
        );
        assert_eq!(
            a.delivered_at, b.delivered_at,
            "brb shards={shards}: delivery times diverge"
        );
    }
}

/// Asserts two state-sync outcomes agree on everything observable: the
/// report (payload-byte accounting included), every per-replica state
/// map, and the gossip round vectors.
fn assert_sync_equal(
    seq: &abe_statesync::SyncOutcome,
    par: &abe_statesync::SyncOutcome,
    what: &str,
) {
    assert_eq!(seq.report, par.report, "{what}: reports diverge");
    assert_eq!(
        seq.report.payload_bytes, par.report.payload_bytes,
        "{what}: payload bytes diverge"
    );
    assert_eq!(seq.states, par.states, "{what}: state maps diverge");
    assert_eq!(seq.rounds, par.rounds, "{what}: rounds diverge");
    assert_eq!(seq.alive, par.alive, "{what}: liveness diverges");
    assert_eq!(
        seq.sync_report(),
        par.sync_report(),
        "{what}: sync telemetry diverges"
    );
}

#[test]
fn antientropy_sync_matches_sequential_for_every_shard_count() {
    // The data-plane workload: anti-entropy gossip on the complete graph
    // with every send accounted through `send_sized`, so this is the
    // differential that pins payload-byte accounting across the shard
    // split — bytes are summed per shard and merged, and must land on
    // the sequential total exactly.
    for shards in [2, 4, 8] {
        let mut cfg =
            abe_statesync::SyncConfig::new(6, 64, RunConfig::new().seed(23)).divergence(0.25);
        let seq = abe_statesync::run_antientropy(&cfg);
        cfg.run.shards = shards;
        let par = abe_statesync::run_antientropy(&cfg);
        assert_sync_equal(&seq, &par, &format!("antientropy, shards={shards}"));
        assert!(
            seq.report.payload_bytes > 0,
            "shards={shards}: no bytes accounted"
        );
        assert!(seq.converged(), "shards={shards}");
    }
}

#[test]
fn antientropy_under_churn_and_partition_matches_sequential() {
    // Faulted sync runs: crash churn plus a partition window on top of
    // the digest traffic. Fault statistics, dropped-message accounting,
    // and the (possibly unconverged) residual all have to merge
    // identically.
    for (shards, seed) in [(2, 1u64), (4, 2), (8, 3)] {
        let plan = FaultPlan::churn(8, 2, 12.0, 4.0, seed).partition(vec![0], 0.0, 5.0);
        let mut cfg =
            abe_statesync::SyncConfig::new(8, 64, RunConfig::new().seed(seed).fault(plan))
                .divergence(0.25);
        let seq = abe_statesync::run_antientropy(&cfg);
        cfg.run.shards = shards;
        let par = abe_statesync::run_antientropy(&cfg);
        assert_sync_equal(&seq, &par, &format!("sync churn, shards={shards}"));
        assert_eq!(
            seq.report.faults, par.report.faults,
            "sync churn, shards={shards}: fault stats diverge"
        );
        assert_eq!(
            seq.residual_divergence(),
            par.residual_divergence(),
            "sync churn, shards={shards}"
        );
    }
}

#[test]
fn full_exchange_reference_matches_sequential_for_every_shard_count() {
    // The reference reconciler ships much bigger payloads (whole stores):
    // a second, heavier-tailed byte distribution through the same
    // accounting path.
    for shards in [2, 4, 8] {
        let mut cfg =
            abe_statesync::SyncConfig::new(5, 64, RunConfig::new().seed(29)).divergence(0.25);
        let seq = abe_statesync::run_reference(&cfg);
        cfg.run.shards = shards;
        let par = abe_statesync::run_reference(&cfg);
        assert_sync_equal(&seq, &par, &format!("full-exchange, shards={shards}"));
        assert!(
            seq.report.payload_bytes > 0,
            "shards={shards}: no bytes accounted"
        );
    }
}

/// The delay regimes the property sweep draws from: pre-drawn lookahead
/// (exponential), positive lookahead (uniform), tie-heavy positive
/// lookahead (deterministic), and a two-point delay with an atom at zero,
/// whose pre-drawn lookahead is zero at some barriers and not at others.
fn delay_strategy() -> impl Strategy<Value = SharedDelay> {
    prop_oneof![
        Just(Arc::new(Exponential::from_mean(1.0).expect("valid")) as SharedDelay),
        Just(Arc::new(Uniform::new(0.5, 1.5).expect("valid")) as SharedDelay),
        Just(Arc::new(Deterministic::new(1.0).expect("valid")) as SharedDelay),
        Just(Arc::new(Bimodal::new(0.0, 1.0, 0.8).expect("valid")) as SharedDelay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random ring size, seed, shard count, delay regime, FIFO setting and
    /// churn level: the sharded election report is always identical to the
    /// sequential one.
    #[test]
    fn sharded_election_reports_are_identical(
        n in 4u32..28,
        seed in 0u64..1_000,
        shards in 2u32..9,
        delay in delay_strategy(),
        fifo in any::<bool>(),
        churn_events in 0u32..3,
    ) {
        let run = RunConfig::new()
            .seed(seed)
            .delay(delay)
            .fifo(fifo)
            .max_events(40_000);
        let mut cfg = RingConfig::new(n, run);
        if churn_events > 0 {
            cfg.run.fault = FaultPlan::churn(n, churn_events, 30.0, 4.0, seed);
        }
        let seq = run_abe_calibrated(&cfg, 1.0);
        cfg.run.shards = shards;
        let par = run_abe_calibrated(&cfg, 1.0);
        prop_assert_eq!(&seq.report, &par.report);
        prop_assert_eq!(seq.leaders, par.leaders);
    }

    /// Same property for the self-quiescing hop-token workload, which
    /// (unlike elections) finishes windows without a stop request.
    #[test]
    fn sharded_hop_token_reports_are_identical(
        n in 4u32..28,
        seed in 0u64..1_000,
        shards in 2u32..9,
        delay in delay_strategy(),
        // Below 1.0 means "no horizon" (the vendored proptest has no
        // Option strategy); above, the run is cut off at MaxTime.
        horizon in 0.0f64..20.0,
    ) {
        let limits = if horizon >= 1.0 {
            RunLimits::events(100_000).with_max_time(SimTime::from_secs(horizon))
        } else {
            RunLimits::events(100_000)
        };
        let ((seq_report, seq_relays), (par_report, par_relays)) =
            hop_token_pair(n, seed, shards, delay, limits);
        prop_assert_eq!(seq_report, par_report);
        prop_assert_eq!(seq_relays, par_relays);
    }

    /// Same property for Ben-Or consensus on the complete graph: random
    /// size, seed, shard count, delay regime and churn level never make
    /// the sharded outcome diverge from the sequential one.
    #[test]
    fn sharded_benor_outcomes_are_identical(
        n in 4u32..12,
        seed in 0u64..1_000,
        shards in 2u32..9,
        delay in delay_strategy(),
        unanimous in any::<bool>(),
        churn_events in 0u32..3,
    ) {
        let run = RunConfig::new().seed(seed).delay(delay).max_events(400_000);
        let mut cfg = abe_consensus::ConsensusConfig::new(n, (n - 1) / 3, run);
        if churn_events > 0 {
            cfg.run.fault = FaultPlan::churn(n, churn_events, 30.0, 4.0, seed);
        }
        let inputs = if unanimous {
            abe_consensus::InputAssignment::Unanimous(true)
        } else {
            abe_consensus::InputAssignment::Split
        };
        let seq = abe_consensus::run_benor(&cfg, inputs);
        cfg.run.shards = shards;
        let par = abe_consensus::run_benor(&cfg, inputs);
        prop_assert_eq!(&seq.report, &par.report);
        prop_assert_eq!(&seq.decisions, &par.decisions);
        prop_assert_eq!(&seq.rounds, &par.rounds);
    }

    /// Same property for the anti-entropy data plane: random size, key
    /// space, divergence, shard count, delay regime and churn level never
    /// make the sharded state maps or the payload-byte totals diverge
    /// from the sequential run.
    #[test]
    fn sharded_sync_outcomes_are_identical(
        n in 3u32..9,
        key_space in 8u32..96,
        divergence in 0.05f64..0.6,
        seed in 0u64..1_000,
        shards in 2u32..9,
        delay in delay_strategy(),
        churn_events in 0u32..3,
    ) {
        let run = RunConfig::new().seed(seed).delay(delay).max_events(2_000_000);
        let mut cfg = abe_statesync::SyncConfig::new(n, key_space, run).divergence(divergence);
        if churn_events > 0 {
            cfg.run.fault = FaultPlan::churn(n, churn_events, 12.0, 4.0, seed);
        }
        let seq = abe_statesync::run_antientropy(&cfg);
        cfg.run.shards = shards;
        let par = abe_statesync::run_antientropy(&cfg);
        prop_assert_eq!(&seq.report, &par.report);
        prop_assert_eq!(
            seq.report.payload_bytes,
            par.report.payload_bytes
        );
        prop_assert_eq!(&seq.states, &par.states);
        prop_assert_eq!(&seq.rounds, &par.rounds);
        prop_assert_eq!(
            seq.residual_divergence(),
            par.residual_divergence()
        );
    }
}
