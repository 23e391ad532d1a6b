//! Fixed-fanout Merkle-style digest tree over the key universe.
//!
//! A node is a half-open key range `[lo, hi)`: the root covers
//! `[0, key_space)`, and an internal node splits into at most
//! [`Digests::fanout`] equal-width children until ranges shrink to the
//! leaf width. The hash *composes*: a leaf range folds a 64-bit FNV-1a
//! over its `(key, version, payload)` entries in ascending key order, an
//! internal range folds its children's hashes — so two replicas' hashes
//! of a range are equal iff their stores agree on it (modulo 64-bit
//! collisions), absent keys contribute nothing, and one changed key
//! changes exactly the hashes on its root-to-leaf path.
//!
//! [`Digests::range_hash`] / [`Digests::root`] compute that from scratch
//! and are the **definition**. [`DigestTree`] is the maintained cache
//! the protocol reads: one hash per node, built once from the initial
//! store, with [`DigestTree::update`] rehashing a single path in
//! `O(depth · fanout + leaf_width)` after each applied write.
//!
//! Invariant: after every applied write, every node of the tree equals
//! the definition on its range. The protocol's `Replica` is the only
//! owner of a store/tree pair and enforces it — it calls `update` for
//! each write [`StateStore::write`] reports as applied and
//! debug-asserts the cached root against [`Digests::root`] after every
//! merge; `tests/digest_props.rs` checks every node differentially.
//!
//! Determinism rule: the hash depends only on store *content*, never on
//! insertion order, wall clock, or memory layout — a requirement for the
//! sharded runtime, where the same replica state must produce the same
//! digests on any shard.

use crate::store::StateStore;

/// Default branching factor of the implicit tree.
pub const DEFAULT_FANOUT: u32 = 4;
/// Default widest key range answered with a leaf transfer instead of
/// child digests.
pub const DEFAULT_LEAF_WIDTH: u32 = 8;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn fnv_u64(mut h: u64, word: u64) -> u64 {
    for shift in (0..64).step_by(8) {
        h ^= (word >> shift) & 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Shape of the digest tree: key space, fanout, and leaf width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    key_space: u32,
    fanout: u32,
    leaf_width: u32,
}

impl Digests {
    /// A tree over `0..key_space` with the default fanout and leaf width.
    ///
    /// # Panics
    ///
    /// Panics if `key_space == 0`.
    pub fn new(key_space: u32) -> Self {
        Self::with_shape(key_space, DEFAULT_FANOUT, DEFAULT_LEAF_WIDTH)
    }

    /// A tree with an explicit shape.
    ///
    /// # Panics
    ///
    /// Panics unless `key_space >= 1`, `fanout >= 2`, and
    /// `leaf_width >= 1`.
    pub fn with_shape(key_space: u32, fanout: u32, leaf_width: u32) -> Self {
        assert!(key_space >= 1, "key space must be non-empty");
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(leaf_width >= 1, "leaf width must be at least 1");
        Self {
            key_space,
            fanout,
            leaf_width,
        }
    }

    /// The key universe size `K` (the root covers `[0, K)`).
    pub fn key_space(&self) -> u32 {
        self.key_space
    }

    /// The branching factor.
    pub fn fanout(&self) -> u32 {
        self.fanout
    }

    /// The widest range treated as a leaf.
    pub fn leaf_width(&self) -> u32 {
        self.leaf_width
    }

    /// Hash of the store restricted to `[lo, hi)`, from scratch: a leaf
    /// range folds its entries, an internal range folds its children's
    /// hashes. Equal iff the two stores agree entry-for-entry on the
    /// range (64-bit collisions aside); an empty leaf hashes to a fixed
    /// basis.
    pub fn range_hash(&self, store: &StateStore, lo: u32, hi: u32) -> u64 {
        if self.is_leaf(lo, hi) {
            leaf_hash(store, lo, hi)
        } else {
            let kids = self.children(lo, hi);
            fold_words(kids.map(|(l, h)| self.range_hash(store, l, h)))
        }
    }

    /// The root hash: the whole-store digest gossiped between replicas.
    pub fn root(&self, store: &StateStore) -> u64 {
        self.range_hash(store, 0, self.key_space)
    }

    /// Whether `[lo, hi)` is answered with a leaf transfer (at most
    /// `leaf_width` keys wide) rather than child digests.
    pub fn is_leaf(&self, lo: u32, hi: u32) -> bool {
        hi - lo <= self.leaf_width
    }

    /// Child width of internal node `[lo, hi)` (at least 1).
    fn step(&self, lo: u32, hi: u32) -> u32 {
        (hi - lo).div_ceil(self.fanout)
    }

    /// The child ranges of internal node `[lo, hi)`: up to `fanout`
    /// contiguous equal-width slices (the last possibly narrower), in
    /// ascending order. Empty for leaves. No bound is ever computed past
    /// `hi`, so ranges ending at `u32::MAX` are safe.
    pub fn children(&self, lo: u32, hi: u32) -> impl ExactSizeIterator<Item = (u32, u32)> {
        let step = self.step(lo, hi);
        let count = if self.is_leaf(lo, hi) {
            0
        } else {
            (hi - lo).div_ceil(step)
        };
        (0..count).map(move |i| {
            let start = lo + i * step;
            (start, start + step.min(hi - start))
        })
    }
}

fn leaf_hash(store: &StateStore, lo: u32, hi: u32) -> u64 {
    store.range(lo, hi).fold(FNV_OFFSET, |h, (k, v, p)| {
        fnv_u64(fnv_u64(fnv_u64(h, u64::from(k)), v), p)
    })
}

fn fold_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(FNV_OFFSET, fnv_u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    lo: u32,
    hi: u32,
    /// Index of the first child; a node's children are adjacent.
    first_child: usize,
    hash: u64,
}

/// The digest tree of one store, kept as a cache: the hash of every node
/// of the [`Digests`] shape in a flat vector (breadth-first, root at 0).
/// See the module docs for the invariant and who keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestTree {
    shape: Digests,
    nodes: Vec<Node>,
}

impl DigestTree {
    /// Hashes `store` into a fresh tree of the given shape.
    pub fn build(shape: Digests, store: &StateStore) -> Self {
        let node = |(lo, hi)| Node {
            lo,
            hi,
            first_child: 0,
            hash: 0,
        };
        let mut nodes = vec![node((0, shape.key_space))];
        let mut i = 0;
        while i < nodes.len() {
            nodes[i].first_child = nodes.len();
            nodes.extend(shape.children(nodes[i].lo, nodes[i].hi).map(node));
            i += 1;
        }
        let mut tree = Self { shape, nodes };
        // Children sit after their parent, so reverse order is bottom-up.
        for i in (0..tree.nodes.len()).rev() {
            tree.nodes[i].hash = tree.node_hash(i, store);
        }
        tree
    }

    /// The shape this tree was built with.
    pub fn shape(&self) -> Digests {
        self.shape
    }

    /// The cached root hash.
    pub fn root(&self) -> u64 {
        self.nodes[0].hash
    }

    /// Every node as `(lo, hi, cached hash)`, root first.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.nodes.iter().map(|n| (n.lo, n.hi, n.hash))
    }

    /// Re-establishes the invariant after `store` changed at `key`: the
    /// leaf holding `key` is rehashed from the store and each ancestor
    /// from its children's cached hashes.
    pub fn update(&mut self, store: &StateStore, key: u32) {
        if key < self.shape.key_space {
            self.rehash_path(0, store, key);
        }
    }

    /// The hash of `[lo, hi)`: a lookup when the range is a tree node
    /// (every range the protocol itself produces), the from-scratch
    /// definition otherwise.
    pub fn range_hash(&self, store: &StateStore, lo: u32, hi: u32) -> u64 {
        let mut i = 0;
        loop {
            let n = self.nodes[i];
            if (n.lo, n.hi) == (lo, hi) {
                return n.hash;
            }
            if lo < n.lo || hi > n.hi || lo >= hi || self.shape.is_leaf(n.lo, n.hi) {
                return self.shape.range_hash(store, lo, hi);
            }
            i = n.first_child + ((lo - n.lo) / self.shape.step(n.lo, n.hi)) as usize;
        }
    }

    fn rehash_path(&mut self, i: usize, store: &StateStore, key: u32) {
        let n = self.nodes[i];
        if !self.shape.is_leaf(n.lo, n.hi) {
            let child = (key - n.lo) / self.shape.step(n.lo, n.hi);
            self.rehash_path(n.first_child + child as usize, store, key);
        }
        self.nodes[i].hash = self.node_hash(i, store);
    }

    /// Node `i`'s hash from the store (leaf) or its children's cached
    /// hashes (internal).
    fn node_hash(&self, i: usize, store: &StateStore) -> u64 {
        let n = self.nodes[i];
        if self.shape.is_leaf(n.lo, n.hi) {
            return leaf_hash(store, n.lo, n.hi);
        }
        let count = self.shape.children(n.lo, n.hi).len();
        let kids = &self.nodes[n.first_child..n.first_child + count];
        fold_words(kids.iter().map(|k| k.hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(entries: &[(u32, u64, u64)]) -> StateStore {
        let mut s = StateStore::new();
        for &(k, v, p) in entries {
            s.write(k, v, p);
        }
        s
    }

    #[test]
    fn equal_stores_hash_equal_and_one_key_differs() {
        let d = Digests::new(64);
        let a = store(&[(0, 1, 1), (17, 2, 5), (63, 1, 0)]);
        let b = a.clone();
        assert_eq!(d.root(&a), d.root(&b));
        let mut c = b.clone();
        c.write(17, 3, 5);
        assert_ne!(d.root(&a), d.root(&c));
        // The diff localises: ranges not containing key 17 still agree.
        assert_eq!(d.range_hash(&a, 32, 64), d.range_hash(&c, 32, 64));
        assert_ne!(d.range_hash(&a, 16, 32), d.range_hash(&c, 16, 32));
    }

    #[test]
    fn children_tile_the_parent_exactly() {
        let d = Digests::with_shape(100, 4, 8);
        let kids: Vec<_> = d.children(0, 100).collect();
        assert_eq!(kids.len(), 4);
        assert_eq!(kids.first(), Some(&(0, 25)));
        assert_eq!(kids.last(), Some(&(75, 100)));
        let mut cursor = 0;
        for (lo, hi) in kids {
            assert_eq!(lo, cursor);
            assert!(hi > lo);
            cursor = hi;
        }
        assert_eq!(cursor, 100);
    }

    #[test]
    fn descent_terminates_at_the_leaf_width() {
        let d = Digests::with_shape(4096, 4, 8);
        let (mut lo, mut hi) = (0u32, 4096u32);
        let mut depth = 0;
        while !d.is_leaf(lo, hi) {
            (lo, hi) = d.children(lo, hi).last().expect("internal node");
            depth += 1;
            assert!(depth < 64, "descent must terminate");
        }
        assert!(hi - lo <= 8);
        // log4(4096 / 8) = 4.5 -> 5 levels.
        assert_eq!(depth, 5);
    }

    #[test]
    fn empty_ranges_share_the_basis_hash() {
        let d = Digests::new(32);
        let empty = StateStore::new();
        assert_eq!(
            d.range_hash(&empty, 0, 32),
            d.range_hash(&store(&[(40, 1, 1)]), 0, 32),
            "out-of-range keys must not leak into the hash"
        );
    }
}
