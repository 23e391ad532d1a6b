//! Property tests for the digest tree: the root hash is a faithful
//! equality witness for whole state maps, and subtree hashes localise a
//! diff to exactly the root-to-leaf path containing it — the two facts
//! the Merkle-descent protocol's correctness and wire-cost bound both
//! rest on — plus the cache invariant: the incrementally maintained
//! [`DigestTree`] equals the from-scratch [`Digests`] definition at every
//! node after every write, in isolation and inside protocol runs.

use std::sync::Arc;

use proptest::prelude::*;

use abe_core::delay::{Deterministic, Exponential, SharedDelay, Uniform};
use abe_core::{NetworkBuilder, RunConfig, Topology};
use abe_sim::RunLimits;
use abe_statesync::{
    base_payload, fresh_payload, AntiEntropy, DigestTree, Digests, StateStore, SyncConfig,
};

/// Expands one raw 64-bit draw into a `(key, version, payload)` entry
/// inside `key_space` (the vendored proptest generates scalars, not
/// tuples, so entry vectors are derived from `Vec<u64>` draws).
fn entry(raw: u64, key_space: u32) -> (u32, u64, u64) {
    let key = (raw as u32) % key_space;
    let version = 1 + (raw >> 32) % 3;
    let payload = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (key, version, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Root-hash equality holds iff the state maps are equal, across
    /// random stores, tree shapes, and single-entry mutations (the
    /// version order guarantees the mutation changes the map, so both
    /// directions of the iff are exercised).
    #[test]
    fn root_hash_equality_iff_state_maps_equal(
        key_space in 4u32..128,
        entries in prop::collection::vec(any::<u64>(), 0..40),
        fanout in 2u32..6,
        leaf_width in 1u32..10,
        mutate in any::<bool>(),
        mutated_key in any::<u32>(),
    ) {
        let mut a = StateStore::new();
        for &raw in &entries {
            let (k, v, p) = entry(raw, key_space);
            a.write(k, v, p);
        }
        let mut b = a.clone();
        if mutate {
            let k = mutated_key % key_space;
            // A strictly higher version always applies, so the maps
            // are guaranteed to differ on this branch.
            let next = b.get(k).map_or(1, |(v, _)| v + 1);
            b.write(k, next, 0xDEAD_BEEF);
        }
        prop_assert_eq!(a.map() == b.map(), !mutate);
        let digests = Digests::with_shape(key_space, fanout, leaf_width);
        prop_assert_eq!(
            digests.root(&a) == digests.root(&b),
            a.map() == b.map(),
            "root hash disagrees with map equality (K={}, fanout={}, leaf={})",
            key_space, fanout, leaf_width
        );
    }

    /// A single-key diff is visible in exactly one child range at every
    /// level of the tree — the range containing the key — so the
    /// protocol's descent provably walks one root-to-leaf path and
    /// nothing else.
    #[test]
    fn subtree_hashes_localise_a_single_key_diff(
        key_space in 8u32..256,
        key_index in any::<u32>(),
        fanout in 2u32..5,
        leaf_width in 1u32..9,
    ) {
        let k = key_index % key_space;
        let mut a = StateStore::new();
        for key in 0..key_space {
            a.write(key, 1, base_payload(key));
        }
        let mut b = a.clone();
        b.write(k, 2, fresh_payload(k));

        let digests = Digests::with_shape(key_space, fanout, leaf_width);
        prop_assert_ne!(digests.root(&a), digests.root(&b));
        let (mut lo, mut hi) = (0u32, key_space);
        while !digests.is_leaf(lo, hi) {
            let mut next = None;
            for (l, h) in digests.children(lo, hi) {
                let differs =
                    digests.range_hash(&a, l, h) != digests.range_hash(&b, l, h);
                prop_assert_eq!(
                    differs,
                    (l..h).contains(&k),
                    "range [{}, {}) vs diff at key {}",
                    l, h, k
                );
                if differs {
                    next = Some((l, h));
                }
            }
            let (l, h) = next.expect("the child containing the key differs");
            lo = l;
            hi = h;
        }
        prop_assert!((lo..hi).contains(&k));
    }

    /// The maintained tree never drifts from the definition: after every
    /// write of a random sequence — applied or rejected, in range or
    /// beyond the key space — every cached node equals
    /// `Digests::range_hash` of its range, and the final tree equals one
    /// built fresh from the final store. Shapes cover ragged last
    /// children, `leaf_width = 1`, and a root that is itself a leaf
    /// (`key_space <= leaf_width`).
    #[test]
    fn maintained_tree_equals_the_definition_after_every_write(
        key_space in 1u32..200,
        fanout in 2u32..6,
        leaf_width in 1u32..12,
        prefill in prop::collection::vec(any::<u64>(), 0..60),
        writes in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let shape = Digests::with_shape(key_space, fanout, leaf_width);
        let mut store = StateStore::new();
        for &raw in &prefill {
            let (k, v, p) = entry(raw, key_space);
            store.write(k, v, p);
        }
        let mut tree = DigestTree::build(shape, &store);
        prop_assert_eq!(tree.root(), shape.root(&store));
        for &raw in &writes {
            // One draw in eight lands past the key space: stored, but
            // outside every digest.
            let (k, v, p) = entry(raw, key_space + key_space / 8 + 1);
            if store.write(k, v, p) {
                tree.update(&store, k);
            }
            for (lo, hi, hash) in tree.nodes() {
                prop_assert_eq!(
                    hash,
                    shape.range_hash(&store, lo, hi),
                    "node [{}, {}) after write at {} (K={}, fanout={}, leaf={})",
                    lo, hi, k, key_space, fanout, leaf_width
                );
            }
        }
        prop_assert_eq!(&tree, &DigestTree::build(shape, &store));
        // Ranges that are no tree node fall back to the definition.
        let (lo, hi) = (key_space / 3, key_space - key_space / 5);
        prop_assert_eq!(
            tree.range_hash(&store, lo, hi),
            shape.range_hash(&store, lo, hi)
        );
    }

    /// Removing the diff heals every range hash: writing the same entry
    /// into the lagging store makes all subtree hashes equal again
    /// (hashes depend only on content, never on write order).
    #[test]
    fn range_hashes_depend_on_content_not_history(
        key_space in 4u32..64,
        entries in prop::collection::vec(any::<u64>(), 1..30),
    ) {
        // Build the same map in two different orders.
        let mut fwd = StateStore::new();
        for &raw in &entries {
            let (k, v, p) = entry(raw, key_space);
            fwd.write(k, v, p);
        }
        let mut rev = StateStore::new();
        for &raw in entries.iter().rev() {
            let (k, v, p) = entry(raw, key_space);
            rev.write(k, v, p);
        }
        // Last-writer-wins is order-independent, so maps agree...
        prop_assert_eq!(fwd.map(), rev.map());
        // ...and so must every range hash, at any granularity.
        let digests = Digests::new(key_space);
        prop_assert_eq!(digests.root(&fwd), digests.root(&rev));
        for lo in (0..key_space).step_by(4) {
            let hi = (lo + 4).min(key_space);
            prop_assert_eq!(
                digests.range_hash(&fwd, lo, hi),
                digests.range_hash(&rev, lo, hi)
            );
        }
    }
}

/// Children never step past `hi`, so a range ending at `u32::MAX` tiles
/// exactly instead of wrapping.
#[test]
fn children_tile_ranges_ending_at_the_top_of_the_key_type() {
    let d = Digests::with_shape(u32::MAX, 4, 2);
    let (lo, hi) = (u32::MAX - 10, u32::MAX);
    let kids: Vec<_> = d.children(lo, hi).collect();
    assert_eq!(kids.len(), 4);
    assert_eq!(kids.first().map(|k| k.0), Some(lo));
    assert_eq!(kids.last().map(|k| k.1), Some(hi));
    assert!(kids.windows(2).all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1));
    assert_eq!(d.children(0, u32::MAX).count(), 4);
}

#[test]
#[should_panic(expected = "fanout >= 2")]
fn tree_shape_is_validated_where_it_is_set() {
    let _ = SyncConfig::new(4, 64, RunConfig::new()).tree(1, 8);
}

/// Inside real runs — e21's smoke grid, sequential and on two shards —
/// every replica's cached root equals the definition on its final store.
#[test]
fn cached_roots_match_the_definition_after_protocol_runs() {
    let families: [SharedDelay; 3] = [
        Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
        Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
        Arc::new(Deterministic::new(1.0).expect("valid value")),
    ];
    for (family, delay) in families.iter().enumerate() {
        for n in [4u32, 8] {
            for divergence in [0.1, 0.4] {
                for shards in [1u32, 2] {
                    let cfg =
                        SyncConfig::new(n, 256, RunConfig::new().seed(7)).divergence(divergence);
                    let (digests, writes) = (cfg.digests(), cfg.fresh_writes());
                    let net = NetworkBuilder::new(Topology::complete(n).expect("n >= 1"))
                        .delay_shared(Arc::clone(delay))
                        .seed(cfg.run.seed)
                        .shards(shards)
                        .build(|i| {
                            let store = cfg.initial_store(i as u32, &writes);
                            AntiEntropy::new(
                                i as u32,
                                n as usize - 1,
                                digests,
                                store,
                                cfg.rounds_cap,
                            )
                        })
                        .expect("valid build");
                    let limits = RunLimits::events(cfg.run.max_events);
                    let (_, net) = if shards > 1 {
                        net.run_sharded(limits)
                    } else {
                        net.run(limits)
                    };
                    let replicas = net.into_protocols();
                    let what = format!("family={family} n={n} div={divergence} shards={shards}");
                    for p in &replicas {
                        assert_eq!(p.root(), digests.root(p.store()), "{what}: node {}", p.id());
                        assert_eq!(p.root(), replicas[0].root(), "{what}: not converged");
                    }
                }
            }
        }
    }
}
