//! The keyed versioned store every replica holds, and its merge rule.
//!
//! A replica's state is a map `Key -> (Version, Payload)` over the dense
//! key universe `0..key_space`. Reconciliation never moves a key backwards:
//! [`StateStore::write`] applies last-writer-wins ordered by `(version,
//! payload)`, which makes merging **commutative, associative, and
//! idempotent** — the order in which leaf transfers arrive (arbitrary
//! under ABE scheduling) cannot affect the converged state.

use std::collections::BTreeMap;

/// One replica's keyed versioned state.
///
/// Keys are dense `u32` indices below the configured key space; values are
/// `(version, payload)` pairs. Absent keys are simply unwritten.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateStore {
    entries: BTreeMap<u32, (u64, u64)>,
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one entry under last-writer-wins: the write is applied iff
    /// `(version, payload)` is strictly greater than the current pair for
    /// `key` (lexicographically), so concurrent same-version writes break
    /// ties deterministically on the payload. Returns whether the store
    /// changed.
    pub fn write(&mut self, key: u32, version: u64, payload: u64) -> bool {
        match self.entries.get(&key) {
            Some(&cur) if cur >= (version, payload) => false,
            _ => {
                self.entries.insert(key, (version, payload));
                true
            }
        }
    }

    /// Removes a key outright (test helper for digest properties; the
    /// reconciliation protocol itself never deletes).
    pub fn remove(&mut self, key: u32) -> bool {
        self.entries.remove(&key).is_some()
    }

    /// The `(version, payload)` pair at `key`, if written.
    pub fn get(&self, key: u32) -> Option<(u64, u64)> {
        self.entries.get(&key).copied()
    }

    /// Number of written keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key has been written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Borrowing walk over the entries with `lo <= key < hi`, ascending
    /// (what digest hashing reads; allocates nothing).
    pub fn range(&self, lo: u32, hi: u32) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.entries.range(lo..hi).map(|(&k, &(v, p))| (k, v, p))
    }

    /// The entries with `lo <= key < hi`, ascending, as an owned vector —
    /// the payload of one leaf-range or full-state transfer.
    pub fn entries_in(&self, lo: u32, hi: u32) -> Vec<(u32, u64, u64)> {
        self.range(lo, hi).collect()
    }

    /// Borrowing view of the full map (oracle comparisons).
    pub fn map(&self) -> &BTreeMap<u32, (u64, u64)> {
        &self.entries
    }

    /// Consumes the store, returning the full map.
    pub fn into_map(self) -> BTreeMap<u32, (u64, u64)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_apply_in_version_order_only() {
        let mut s = StateStore::new();
        assert!(s.write(3, 2, 10));
        assert!(!s.write(3, 1, 99), "older version must lose");
        assert!(!s.write(3, 2, 10), "identical write is idempotent");
        assert!(s.write(3, 2, 11), "same version, larger payload wins");
        assert!(s.write(3, 5, 0), "newer version wins regardless of payload");
        assert_eq!(s.get(3), Some((5, 0)));
    }

    #[test]
    fn merge_is_order_independent() {
        let writes = [(1u32, 1u64, 7u64), (1, 2, 3), (2, 1, 1), (1, 2, 9)];
        let mut fwd = StateStore::new();
        for &(k, v, p) in &writes {
            fwd.write(k, v, p);
        }
        let mut rev = StateStore::new();
        for &(k, v, p) in writes.iter().rev() {
            rev.write(k, v, p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.get(1), Some((2, 9)));
    }

    #[test]
    fn range_view_is_half_open_and_sorted() {
        let mut s = StateStore::new();
        for k in [9u32, 2, 5, 4] {
            s.write(k, 1, u64::from(k));
        }
        assert_eq!(s.entries_in(2, 5), vec![(2, 1, 2), (4, 1, 4)]);
        assert_eq!(s.entries_in(6, 9), vec![]);
    }
}
