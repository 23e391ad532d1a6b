//! Differential oracle: the Merkle-descent protocol against the
//! full-state-exchange reference reconciler, in lockstep on identical
//! seeds.
//!
//! [`FullExchange`](abe_statesync::FullExchange) is trivially correct —
//! every root mismatch is answered by shipping the entire store, so the
//! only way it can fail is if the merge rule itself is wrong. Running
//! both protocols from the same [`SyncConfig`] therefore pins the clever
//! implementation to the obvious one: on every convergent grid point the
//! two must end with *identical per-replica state maps*, while their
//! wire-byte footprints separate (that asymmetry is asserted by the
//! bytes-bounded oracle in `convergence_oracles.rs`).

use std::sync::Arc;

use abe_core::delay::{Deterministic, Exponential, SharedDelay, Uniform};
use abe_core::fault::FaultPlan;
use abe_core::RunConfig;
use abe_statesync::{run_antientropy, run_reference, SyncConfig};

fn delay_for(family: usize) -> SharedDelay {
    match family {
        0 => Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
        1 => Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
        _ => Arc::new(Deterministic::new(1.0).expect("valid value")),
    }
}

#[test]
fn fault_free_grid_yields_identical_final_state_maps() {
    for family in 0..3 {
        for &divergence in &[0.1, 0.25, 0.5] {
            for seed in 0..4u64 {
                let cfg =
                    SyncConfig::new(5, 64, RunConfig::new().delay(delay_for(family)).seed(seed))
                        .divergence(divergence);
                let a = run_antientropy(&cfg);
                let r = run_reference(&cfg);
                let what = format!("family={family} div={divergence} seed={seed}");
                assert!(a.converged(), "{what}: anti-entropy did not converge");
                assert!(r.converged(), "{what}: reference did not converge");
                assert_eq!(a.states, r.states, "{what}: state maps differ");
                assert_eq!(a.live_union(), r.live_union(), "{what}");
                // Both took the same writes as ground truth.
                assert_eq!(a.writes, r.writes, "{what}");
                assert!(a.invented().is_empty(), "{what}");
                assert!(r.invented().is_empty(), "{what}");
            }
        }
    }
}

#[test]
fn healed_partitions_yield_identical_final_state_maps() {
    // A minority cut off until t = 4δ strands fresh writes on both
    // sides; after the heal both reconcilers must still meet at the
    // same union state.
    for seed in 0..4u64 {
        let cfg = SyncConfig::new(
            6,
            64,
            RunConfig::new()
                .seed(seed)
                .fault(FaultPlan::new().partition(vec![0, 1], 0.0, 4.0)),
        )
        .divergence(0.25);
        let a = run_antientropy(&cfg);
        let r = run_reference(&cfg);
        let what = format!("partition seed={seed}");
        assert!(a.converged(), "{what}: anti-entropy did not converge");
        assert!(r.converged(), "{what}: reference did not converge");
        assert_eq!(a.states, r.states, "{what}: state maps differ");
    }
}

#[test]
fn degenerate_configurations_agree() {
    // n = 1 (nothing to reconcile) and divergence so small it rounds to
    // a single write: the corners where off-by-one bugs live.
    for &(n, key_space, divergence) in &[(1u32, 16u32, 0.5f64), (2, 4, 0.01), (3, 1, 1.0)] {
        for seed in 0..2u64 {
            let cfg =
                SyncConfig::new(n, key_space, RunConfig::new().seed(seed)).divergence(divergence);
            let a = run_antientropy(&cfg);
            let r = run_reference(&cfg);
            let what = format!("n={n} K={key_space} div={divergence} seed={seed}");
            assert!(a.converged() && r.converged(), "{what}");
            assert_eq!(a.states, r.states, "{what}: state maps differ");
        }
    }
}
