//! Standing convergence oracles for the statesync crate:
//! **eventual consistency**, **monotone divergence**, **no-invention**,
//! and **bytes-bounded reconciliation**, asserted over grids of delay
//! model × crash churn × partition × adversary budget × seed.
//!
//! The contract mirrors the consensus safety-oracle suite:
//!
//! * an **invented entry** — a `(key, version, payload)` any replica ever
//!   holds that nobody wrote — is a *hard failure* under any fault plan
//!   and any legal adversary; scheduling, churn, and partitions may
//!   attack liveness, never integrity;
//! * **fault-free runs must converge** to the exact reconciliation
//!   target (the base image plus every fresh write), under every delay
//!   family and every legal adversary;
//! * along any single run, **residual divergence never increases**: the
//!   store is a join-semilattice and merges only move replicas up it;
//! * the Merkle descent keeps the wire cost proportional to the
//!   *divergence* (times a log-depth digest trail), not the *state
//!   size* — the asymptotic separation from the full-exchange reference
//!   is asserted, not assumed.
//!
//! Every grid point also re-checks the budget auditor: an adversarial
//! sync run must remain a legal ABE execution (zero un-clamped budget
//! violations), exactly as e17/e19/e22 assert.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use abe_adversary::{Burst, Reorder, Swap, TargetHeat};
use abe_core::adversary::AdversaryPlan;
use abe_core::delay::{Deterministic, Exponential, Pareto, SharedDelay, Uniform};
use abe_core::fault::{FaultPlan, OutcomeClass};
use abe_core::RunConfig;
use abe_statesync::{
    base_payload, fresh_payload, run_antientropy, run_reference, SyncConfig, SyncOutcome,
};

/// The delay regimes the grids draw from: zero lookahead (exponential),
/// positive lookahead (uniform), and tie-heavy (deterministic) — the
/// same three families e21 sweeps.
fn delay_for(family: usize) -> SharedDelay {
    match family {
        0 => Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
        1 => Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
        _ => Arc::new(Deterministic::new(1.0).expect("valid value")),
    }
}

/// Builds the adversary plan for one grid point (the e17/e19/e22
/// strategy vocabulary; 0 = oblivious baseline).
fn plan_for(strategy: usize, budget: f64) -> AdversaryPlan {
    match strategy {
        0 => AdversaryPlan::none(),
        1 => AdversaryPlan::new(
            budget,
            Swap::new(Arc::new(
                Pareto::from_mean(2.5, budget).expect("valid mean"),
            )),
        )
        .expect("valid budget"),
        2 => AdversaryPlan::new(budget, Burst::new(0.05)).expect("valid budget"),
        3 => AdversaryPlan::new(budget, Reorder::new()).expect("valid budget"),
        _ => AdversaryPlan::new(budget, TargetHeat::new()).expect("valid budget"),
    }
}

/// The reconciliation target of a fault-free run: the base image with
/// every fresh write applied — computable from the config alone, before
/// the run, because the write set is a pure function of the seed.
fn target(cfg: &SyncConfig) -> BTreeMap<u32, (u64, u64)> {
    let mut map: BTreeMap<u32, (u64, u64)> = (0..cfg.key_space)
        .map(|k| (k, (1, base_payload(k))))
        .collect();
    for w in cfg.fresh_writes() {
        map.insert(w.key, (2, fresh_payload(w.key)));
    }
    map
}

/// The oracles that hold unconditionally — under every fault plan,
/// every adversary, every truncation. Returns the class so callers can
/// add liveness expectations.
fn assert_sync_safe(cfg: &SyncConfig, o: &SyncOutcome, what: &str) -> OutcomeClass {
    // No-invention: every entry anyone holds traces back to a write.
    assert!(
        o.invented().is_empty(),
        "{what}: invented entries {:?}",
        o.invented()
    );
    // The convergence indicators agree with each other and the class.
    let residual = o.residual_divergence();
    assert_eq!(o.converged(), residual == 0, "{what}: indicator mismatch");
    let class = o.class();
    assert!(!class.is_violation(), "{what}: classified {class}");
    assert_eq!(
        class == OutcomeClass::Decided,
        residual == 0,
        "{what}: class {class} with residual {residual}"
    );
    // Wire accounting: payload bytes never exceed what the message
    // counters imply (digests are at most 9 + 16·fanout bytes, data
    // messages 10 bytes of framing plus 20 per entry).
    let r = o.sync_report();
    assert!(
        r.wire_bytes
            <= r.digest_msgs * (9 + 16 * u64::from(cfg.fanout))
                + r.leaf_msgs * 10
                + r.entries_sent * 20,
        "{what}: {} wire bytes exceed the counter-implied ceiling",
        r.wire_bytes
    );
    // The auditor proves the schedule was legal whenever one was active.
    assert_eq!(
        o.report.adversary.violations, 0,
        "{what}: adversary budget violations"
    );
    class
}

#[test]
fn fault_free_runs_reach_the_exact_target_under_every_adversary() {
    // Eventual consistency drilled across the delay × strategy × budget
    // grid: with no faults, every replica must end at exactly the base
    // image plus every fresh write — not merely "all equal".
    for family in 0..3 {
        for strategy in 0..5 {
            for &budget in &[1.0, 4.0] {
                let seed = (family * 100 + strategy) as u64;
                let cfg = SyncConfig::new(
                    5,
                    64,
                    RunConfig::new()
                        .delay(delay_for(family))
                        .seed(seed)
                        .adversary(plan_for(strategy, budget)),
                )
                .divergence(0.25);
                let o = run_antientropy(&cfg);
                let what =
                    format!("family={family} strategy={strategy} budget={budget} seed={seed}");
                assert_eq!(
                    assert_sync_safe(&cfg, &o, &what),
                    OutcomeClass::Decided,
                    "{what}: fault-free run did not converge"
                );
                let want = target(&cfg);
                for (i, state) in o.states.iter().enumerate() {
                    assert_eq!(state, &want, "{what}: replica {i} off target");
                }
            }
        }
    }
}

#[test]
fn residual_divergence_is_monotone_along_every_run() {
    // Truncate the same seeded run at growing virtual-time horizons and
    // re-measure: because the store is a join-semilattice and merges
    // only move replicas toward the union, the residual read at any
    // prefix must dominate the residual at any longer prefix.
    for family in 0..3 {
        for seed in 0..4u64 {
            let base = SyncConfig::new(5, 64, RunConfig::new().delay(delay_for(family)).seed(seed))
                .divergence(0.3);
            let mut last = u64::MAX;
            for horizon in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
                let mut cfg = base.clone();
                cfg.run = cfg.run.max_time(horizon);
                let o = run_antientropy(&cfg);
                let what = format!("family={family} seed={seed} horizon={horizon}");
                assert_sync_safe(&cfg, &o, &what);
                let residual = o.residual_divergence();
                assert!(
                    residual <= last,
                    "{what}: residual rose from {last} to {residual}"
                );
                last = residual;
            }
            // And the untruncated run drains the divergence entirely.
            let o = run_antientropy(&base);
            assert_eq!(o.residual_divergence(), 0, "family={family} seed={seed}");
        }
    }
}

#[test]
fn wire_bytes_scale_with_divergence_not_state_size() {
    // Fix the dirty-entry count while growing the key space 16x: the
    // Merkle protocol may pay only a deeper digest trail (logarithmic),
    // while the full-exchange reference ships whole stores and scales
    // linearly. This is the bytes-bounded oracle in its sharpest form:
    // wire ≤ c · divergence · log(state), demonstrated rather than
    // assumed.
    let n = 6;
    let dirty = 16u32;
    let spaces = [64u32, 1024];
    let mut anti = [0u64; 2];
    let mut reference = [0u64; 2];
    for (i, &key_space) in spaces.iter().enumerate() {
        for seed in 0..3u64 {
            let cfg = SyncConfig::new(n, key_space, RunConfig::new().seed(seed))
                .divergence(f64::from(dirty) / f64::from(key_space));
            assert_eq!(cfg.fresh_writes().len(), dirty as usize);
            let a = run_antientropy(&cfg);
            let r = run_reference(&cfg);
            let what = format!("key_space={key_space} seed={seed}");
            assert_eq!(
                assert_sync_safe(&cfg, &a, &what),
                OutcomeClass::Decided,
                "{what}"
            );
            assert!(r.converged(), "{what}: reference did not converge");
            anti[i] += a.sync_report().wire_bytes;
            reference[i] += r.sync_report().wire_bytes;
        }
    }
    // The reference ships stores: 16x the keys ⇒ near 16x the bytes.
    assert!(
        reference[1] > 8 * reference[0],
        "reference bytes {reference:?} fail to scale with state size"
    );
    // Anti-entropy ships the divergence plus a log-depth digest trail.
    assert!(
        anti[1] < 4 * anti[0],
        "anti-entropy bytes {anti:?} scale with state size, not divergence"
    );
    // At every state size the Merkle protocol undercuts the reference,
    // and the gap widens as divergence shrinks relative to the store.
    assert!(anti[0] < reference[0], "anti {anti:?} ref {reference:?}");
    assert!(
        anti[1] * 4 < reference[1],
        "anti {anti:?} ref {reference:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full grid: any delay family, any churn level, an optional
    /// partition window, any strategy × budget — no-invention and
    /// indicator coherence hold unconditionally, and undisturbed runs
    /// converge.
    #[test]
    fn convergence_oracles_hold_across_the_grid(
        n in 3u32..9,
        key_space_idx in 0usize..3,
        divergence in 0.05f64..0.6,
        family in 0usize..3,
        churn_events in 0u32..3,
        partition in any::<bool>(),
        strategy in 0usize..5,
        budget in 1.0f64..8.0,
        seed in 0u64..1_000,
    ) {
        let key_space = [32u32, 64, 128][key_space_idx];
        let mut fault = if churn_events > 0 {
            FaultPlan::churn(n, churn_events, 12.0, 4.0, seed)
        } else {
            FaultPlan::new()
        };
        let partitioned = partition && n >= 4;
        if partitioned {
            fault = fault.partition(vec![0], 0.0, 5.0);
        }
        let run = RunConfig::new()
            .delay(delay_for(family))
            .seed(seed)
            .fault(fault)
            .adversary(plan_for(strategy, budget))
            .max_events(2_000_000);
        let cfg = SyncConfig::new(n, key_space, run).divergence(divergence);
        let o = run_antientropy(&cfg);
        let what = format!(
            "n={n} K={key_space} div={divergence:.2} family={family} \
             churn={churn_events} partition={partitioned} \
             strategy={strategy} budget={budget:.1} seed={seed}"
        );
        let class = assert_sync_safe(&cfg, &o, &what);
        // Residual divergence is bounded by what live replicas can
        // still be missing: every live replica short of every entry.
        prop_assert!(
            o.residual_divergence()
                <= u64::from(o.live_count()) * u64::from(key_space),
            "{what}: residual beyond the state-space ceiling"
        );
        if churn_events == 0 && !partitioned && strategy == 0 {
            prop_assert_eq!(class, OutcomeClass::Decided, "{}", what);
        }
    }
}
