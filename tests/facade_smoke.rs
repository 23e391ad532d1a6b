//! Facade smoke test: the `abe-networks` crate's own re-export surface
//! must be enough to run the paper's headline experiment end-to-end.

use abe_networks::core::RunConfig;
use abe_networks::election::{run_abe_calibrated, RingConfig};

/// A 64-node anonymous unidirectional ABE ring elects exactly one leader,
/// for several seeds, through the facade re-exports alone.
#[test]
fn facade_elects_one_leader_on_64_ring_across_seeds() {
    for seed in [1u64, 2, 3] {
        let outcome = run_abe_calibrated(&RingConfig::new(64, RunConfig::new().seed(seed)), 1.0);
        assert!(outcome.terminated, "seed {seed}: election must terminate");
        assert_eq!(outcome.leaders, 1, "seed {seed}: exactly one leader");
        assert!(outcome.time > 0.0, "seed {seed}: non-trivial virtual time");
        assert!(
            outcome.messages > 0,
            "seed {seed}: the ring must exchange messages"
        );
    }
}
