//! # abe-statesync — anti-entropy state synchronisation on ABE networks
//!
//! The repo's first *data-plane* workload: replicas hold keyed versioned
//! state (`Key -> (Version, Payload)`) and reconcile divergence by
//! gossiping deterministic hash summaries over a fixed-fanout
//! Merkle-style digest tree — root-hash gossip, subtree-hash comparison
//! on mismatch, leaf-range transfer on divergence. Under the paper's
//! Definition-1 model (delays adversarial but bounded in expectation),
//! the interesting quantities are **how fast** replicas converge and
//! **how many bytes** the reconciliation puts on the wire — measured per
//! run via [`SyncReport`] on top of the engine's payload-byte accounting
//! ([`Ctx::send_sized`](abe_core::Ctx::send_sized) →
//! [`NetworkReport::payload_bytes`](abe_core::NetworkReport)), and swept
//! by experiments `e21`/`e22` in `abe-bench`.
//!
//! * [`StateStore`] — the per-replica map with a commutative,
//!   associative, idempotent last-writer-wins merge;
//! * [`Digests`] — the fixed-fanout digest-tree shape and the
//!   from-scratch definition of its composed hashes (a pure function of
//!   store content: determinism rule for sharded runs);
//! * [`DigestTree`] — the per-replica cache of every node hash, kept
//!   equal to that definition by rehashing one root-to-leaf path per
//!   applied write, so the protocol's digests are lookups;
//! * [`AntiEntropy`] — the Merkle-descent reconciliation
//!   [`Protocol`](abe_core::Protocol);
//! * [`FullExchange`] — the trivial full-state reference reconciler the
//!   differential oracle runs in lockstep;
//! * [`runner`] — [`SyncConfig`] (the replicated store's parameters and
//!   the shared [`abe_core::RunConfig`] substrate) plus [`run_antientropy`] /
//!   [`run_reference`], with outcomes classified as
//!   [`Decided`](abe_core::fault::OutcomeClass::Decided) (converged) or
//!   [`Stalled`](abe_core::fault::OutcomeClass::Stalled) (residual
//!   divergence).
//!
//! The standing **convergence-oracle suite** in
//! `tests/convergence_oracles.rs` asserts eventual consistency, monotone
//! divergence, no-invention, and bytes-boundedness across delay-family ×
//! fault × adversary × seed grids: a violation is a hard failure under
//! every schedule.
//!
//! ## Example
//!
//! ```
//! use abe_core::RunConfig;
//! use abe_statesync::{run_antientropy, SyncConfig};
//!
//! let cfg = SyncConfig::new(5, 64, RunConfig::new().seed(7)).divergence(0.25);
//! let outcome = run_antientropy(&cfg);
//! assert!(outcome.converged());
//! let report = outcome.sync_report();
//! assert_eq!(report.residual_divergence, 0);
//! assert!(report.wire_bytes > 0, "data-plane traffic is accounted");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod digest;
pub mod protocol;
pub mod runner;
pub mod store;

pub use digest::{DigestTree, Digests, DEFAULT_FANOUT, DEFAULT_LEAF_WIDTH};
pub use protocol::{AntiEntropy, FullExchange, SyncMsg};
pub use runner::{
    base_payload, fresh_payload, run_antientropy, run_reference, FreshWrite, SyncConfig,
    SyncOutcome, SyncReport, WRITE_DOMAIN,
};
pub use store::StateStore;

#[cfg(test)]
mod tests {
    use abe_core::fault::{FaultPlan, OutcomeClass};
    use abe_core::RunConfig;

    use super::*;

    #[test]
    fn fault_free_runs_converge_with_zero_residual() {
        for seed in 0..4 {
            let cfg = SyncConfig::new(5, 64, RunConfig::new().seed(seed)).divergence(0.25);
            let o = run_antientropy(&cfg);
            assert_eq!(o.class(), OutcomeClass::Decided, "seed {seed}");
            let r = o.sync_report();
            assert!(r.converged, "seed {seed}");
            assert_eq!(r.residual_divergence, 0, "seed {seed}");
            assert!(r.wire_bytes > 0, "seed {seed}");
            assert!(r.rounds >= 1, "seed {seed}");
        }
    }

    #[test]
    fn payload_bytes_balance_the_counters() {
        // Every send is `send_sized`, so messages_sent and the two
        // message-class counters must balance, and wire bytes must be at
        // least the per-message floor (8 bytes).
        let cfg = SyncConfig::new(4, 32, RunConfig::new().seed(1)).divergence(0.5);
        let o = run_antientropy(&cfg);
        let digest = o.report.counter("sync_digest_msgs");
        let leaf = o.report.counter("sync_leaf_msgs");
        assert_eq!(digest + leaf, o.report.messages_sent);
        assert!(o.report.payload_bytes >= 8 * o.report.messages_sent);
    }

    #[test]
    fn zero_divergence_converges_with_no_data_transfers() {
        let cfg = SyncConfig::new(4, 32, RunConfig::new().seed(3)).divergence(0.0);
        let o = run_antientropy(&cfg);
        assert!(o.converged());
        assert_eq!(o.report.counter("sync_leaf_msgs"), 0);
        assert_eq!(o.report.counter("sync_entries_sent"), 0);
    }

    #[test]
    fn singleton_network_is_trivially_converged_and_silent() {
        let cfg = SyncConfig::new(1, 16, RunConfig::new()).divergence(1.0);
        let o = run_antientropy(&cfg);
        assert!(o.converged());
        assert_eq!(o.report.messages_sent, 0);
        assert_eq!(o.report.payload_bytes, 0);
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let cfg = SyncConfig::new(6, 64, RunConfig::new().seed(42)).divergence(0.3);
        let a = run_antientropy(&cfg);
        let b = run_antientropy(&cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.states, b.states);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn reference_reconciler_converges_too() {
        let cfg = SyncConfig::new(5, 64, RunConfig::new().seed(9)).divergence(0.25);
        let o = run_reference(&cfg);
        assert!(o.converged());
        assert!(o.report.payload_bytes > 0);
    }

    #[test]
    fn crash_stopped_owner_strands_its_writes_without_blocking_the_rest() {
        // Node stranding: crash a replica at t = 0.05, before gossip can
        // spread its fresh writes; the survivors still converge among
        // themselves (on whatever subset escaped).
        for seed in 0..6 {
            let plan = FaultPlan::new().crash_stop(0, 0.05);
            let cfg =
                SyncConfig::new(5, 32, RunConfig::new().seed(seed).fault(plan)).divergence(0.5);
            let o = run_antientropy(&cfg);
            assert!(!o.alive[0], "seed {seed}");
            assert!(o.converged(), "seed {seed}: survivors must converge");
        }
    }

    #[test]
    fn fresh_writes_are_distinct_keys_with_valid_owners() {
        let cfg = SyncConfig::new(7, 64, RunConfig::new().seed(11)).divergence(0.5);
        let writes = cfg.fresh_writes();
        assert_eq!(writes.len(), 32);
        let mut keys: Vec<u32> = writes.iter().map(|w| w.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 32, "keys must be distinct");
        assert!(writes.iter().all(|w| w.key < 64 && w.owner < 7));
    }
}
