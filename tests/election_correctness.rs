//! Cross-crate integration: election correctness across models, sizes,
//! delay families, clocks, and delivery disciplines.

use std::sync::Arc;

use abe_networks::core::clock::{ClockSpec, DriftMode};
use abe_networks::core::delay::{standard_families, Deterministic, Exponential};
use abe_networks::core::RunConfig;
use abe_networks::election::{
    run_abe, run_abe_calibrated, run_chang_roberts, run_fixed, run_itai_rodeh, RingConfig,
};

#[test]
fn unique_leader_across_sizes_and_seeds() {
    for n in [1u32, 2, 3, 5, 8, 17, 33, 64] {
        for seed in 0..8 {
            let outcome = run_abe_calibrated(&RingConfig::new(n, RunConfig::new().seed(seed)), 1.0);
            assert!(outcome.terminated, "n={n} seed={seed}");
            assert_eq!(outcome.leaders, 1, "n={n} seed={seed}");
        }
    }
}

#[test]
fn unique_leader_across_delay_families() {
    // The election must work under every delay family of the model zoo,
    // bounded or not — only the mean matters.
    for (label, delay) in standard_families(2.0) {
        for seed in 0..5 {
            let cfg = RingConfig::new(24, RunConfig::new().delay(Arc::clone(&delay)).seed(seed));
            let outcome = run_abe_calibrated(&cfg, 1.0);
            assert!(outcome.terminated, "{label} seed={seed}");
            assert_eq!(outcome.leaders, 1, "{label} seed={seed}");
        }
    }
}

#[test]
fn unique_leader_under_clock_drift() {
    for mode in [DriftMode::Fixed, DriftMode::Wander] {
        let clocks = ClockSpec::new(0.25, 4.0, mode).unwrap();
        for seed in 0..8 {
            let cfg = RingConfig::new(32, RunConfig::new().clocks(clocks).seed(seed));
            let outcome = run_abe_calibrated(&cfg, 1.0);
            assert!(outcome.terminated, "{mode:?} seed={seed}");
            assert_eq!(outcome.leaders, 1, "{mode:?} seed={seed}");
        }
    }
}

#[test]
fn unique_leader_with_fifo_channels() {
    // FIFO is a *stronger* network; correctness must be preserved.
    for seed in 0..8 {
        let outcome = run_abe_calibrated(
            &RingConfig::new(32, RunConfig::new().fifo(true).seed(seed)),
            1.0,
        );
        assert_eq!(outcome.leaders, 1, "seed={seed}");
    }
}

#[test]
fn abd_is_a_special_case_of_abe() {
    // Deterministic delay = a legal ABD network; every algorithm for ABE
    // must in particular work there.
    for seed in 0..8 {
        let cfg = RingConfig::new(
            32,
            RunConfig::new()
                .delay(Arc::new(Deterministic::new(1.0).unwrap()))
                .seed(seed),
        );
        let outcome = run_abe_calibrated(&cfg, 1.0);
        assert_eq!(outcome.leaders, 1, "seed={seed}");
    }
}

#[test]
fn all_election_algorithms_agree_on_uniqueness() {
    let cfg = RingConfig::new(16, RunConfig::new().seed(42));
    assert_eq!(run_abe(&cfg, 0.3).leaders, 1);
    assert_eq!(run_abe_calibrated(&cfg, 2.0).leaders, 1);
    assert_eq!(run_fixed(&cfg, 0.01).leaders, 1);
    assert_eq!(run_itai_rodeh(&cfg).leaders, 1);
    assert_eq!(run_chang_roberts(&cfg).leaders, 1);
}

#[test]
fn extreme_activation_budgets_still_elect() {
    for seed in 0..5 {
        // Very eager: many collisions, still terminates.
        let eager = run_abe_calibrated(&RingConfig::new(16, RunConfig::new().seed(seed)), 50.0);
        assert_eq!(eager.leaders, 1, "eager seed={seed}");
        // Very lazy: long waits, still terminates.
        let lazy = run_abe_calibrated(&RingConfig::new(16, RunConfig::new().seed(seed)), 0.05);
        assert_eq!(lazy.leaders, 1, "lazy seed={seed}");
        assert!(
            lazy.time > eager.time * 0.1,
            "lazy should not be faster by 10x"
        );
    }
}

#[test]
fn heterogeneous_links_are_supported() {
    // Per-edge delays: half the ring fast, half slow; δ is the max mean.
    use abe_networks::core::delay::SharedDelay;
    use abe_networks::core::{NetworkBuilder, Topology};
    use abe_networks::election::AbeElection;
    use abe_networks::sim::RunLimits;

    let n: u32 = 16;
    let topo = Topology::unidirectional_ring(n).unwrap();
    let delays: Vec<SharedDelay> = (0..topo.edge_count())
        .map(|e| {
            let mean = if e % 2 == 0 { 0.2 } else { 2.0 };
            Arc::new(Exponential::from_mean(mean).unwrap()) as SharedDelay
        })
        .collect();
    for seed in 0..5 {
        let net = NetworkBuilder::new(topo.clone())
            .edge_delays(delays.clone())
            .seed(seed)
            .build(|_| AbeElection::calibrated(n, 1.0).unwrap())
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        assert!(report.outcome.is_stopped(), "seed={seed}");
        let leaders = net
            .protocols()
            .filter(|p| p.state() == abe_networks::election::ElectionState::Leader)
            .count();
        assert_eq!(leaders, 1, "seed={seed}");
    }
}
