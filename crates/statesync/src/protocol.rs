//! The anti-entropy reconciliation protocol and its full-state reference.
//!
//! Replicas gossip their root digest to one peer per tick (cyclic peer
//! selection, so the schedule is a pure function of the round counter).
//! A root mismatch opens a descent: subtree digests are compared level by
//! level, and only the leaf ranges that actually differ are transferred —
//! a push-pull handshake (`want_back`) that leaves both ends agreeing on
//! the leaf after two data messages. The trivial [`FullExchange`]
//! reference reconciler answers every root mismatch by shipping its whole
//! store instead; both converge to the identical merged state (the
//! differential oracle in `tests/reference_equivalence.rs`), but their
//! wire-byte footprints differ asymptotically — which is exactly what the
//! bytes-bounded convergence oracle measures.
//!
//! Every send is accounted through [`Ctx::send_sized`] with the message's
//! serialized size from [`SyncMsg::wire_size`], feeding the
//! `payload_bytes` aggregate in
//! [`NetworkReport`](abe_core::NetworkReport).
//!
//! Termination: tick-driven gossip stops once every peer's last-heard
//! root matches the local root (convergence) or the per-node round budget
//! is exhausted (persistent partitions or crashed peers); message
//! cascades themselves are finite (descents are bounded by the tree
//! depth, data handshakes by the `want_back` flag), so runs always
//! quiesce and residual divergence becomes the measured outcome.

use abe_core::{Ctx, InPort, OutPort, Protocol};
use abe_sim::Xoshiro256PlusPlus;

use crate::digest::{DigestTree, Digests};
use crate::store::StateStore;

/// Wire messages of the reconciliation protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncMsg {
    /// Root-digest gossip; `is_reply` suppresses re-replies so a
    /// handshake is exactly two messages.
    Root {
        /// The sender's root hash.
        hash: u64,
        /// Whether this root answers a received one.
        is_reply: bool,
    },
    /// Request for the child digests (or leaf data) of a key range.
    SubtreeReq {
        /// Range start (inclusive).
        lo: u32,
        /// Range end (exclusive).
        hi: u32,
    },
    /// The child-range hashes of an internal tree node.
    SubtreeDigests {
        /// Range start (inclusive).
        lo: u32,
        /// Range end (exclusive).
        hi: u32,
        /// `(lo, hi, hash)` per child, ascending.
        hashes: Vec<(u32, u32, u64)>,
    },
    /// The entries of one leaf range; `want_back` asks the receiver to
    /// answer with its own (post-merge) entries for the same range.
    LeafData {
        /// Range start (inclusive).
        lo: u32,
        /// Range end (exclusive).
        hi: u32,
        /// `(key, version, payload)` entries, ascending by key.
        entries: Vec<(u32, u64, u64)>,
        /// Whether the receiver should push its own entries back.
        want_back: bool,
    },
    /// The whole store (reference reconciler only).
    FullState {
        /// Every `(key, version, payload)` entry, ascending by key.
        entries: Vec<(u32, u64, u64)>,
        /// Whether the receiver should push its own store back.
        want_back: bool,
    },
}

impl SyncMsg {
    /// Serialized size in bytes under the repo's nominal wire format:
    /// 1-byte tags/flags, 4-byte keys and range bounds, 8-byte hashes,
    /// versions, and payloads — so an entry costs 20 bytes and a child
    /// digest 16.
    pub fn wire_size(&self) -> u64 {
        match self {
            SyncMsg::Root { .. } => 1 + 8 + 1,
            SyncMsg::SubtreeReq { .. } => 1 + 4 + 4,
            SyncMsg::SubtreeDigests { hashes, .. } => 1 + 4 + 4 + 16 * hashes.len() as u64,
            SyncMsg::LeafData { entries, .. } => 1 + 4 + 4 + 1 + 20 * entries.len() as u64,
            SyncMsg::FullState { entries, .. } => 1 + 1 + 20 * entries.len() as u64,
        }
    }

    /// Whether this is control-plane digest traffic (as opposed to leaf
    /// or full-state data transfers).
    pub fn is_digest(&self) -> bool {
        !matches!(self, SyncMsg::LeafData { .. } | SyncMsg::FullState { .. })
    }
}

/// Shared replica state: the store, its digest tree, and the per-peer
/// root bookkeeping that drives gossip and termination.
#[derive(Debug, Clone)]
struct Replica {
    store: StateStore,
    /// Every digest-tree hash of `store`; [`merge`](Self::merge), the
    /// only writer of `store`, keeps it current.
    tree: DigestTree,
    /// Last root heard from each peer, indexed by out-port.
    peer_roots: Vec<Option<u64>>,
    rounds: u64,
    rounds_cap: u64,
}

impl Replica {
    fn new(out_degree: usize, digests: Digests, store: StateStore, rounds_cap: u64) -> Self {
        Self {
            tree: DigestTree::build(digests, &store),
            store,
            peer_roots: vec![None; out_degree],
            rounds: 0,
            rounds_cap,
        }
    }

    /// Whether any peer's last-heard root is unknown or mismatched.
    fn divergent(&self) -> bool {
        let root = self.tree.root();
        self.peer_roots.iter().any(|r| *r != Some(root))
    }

    fn wants_tick(&self) -> bool {
        self.rounds < self.rounds_cap && self.divergent()
    }

    /// Sends `msg` sized and classified (digest vs data counters).
    fn post(ctx: &mut Ctx<'_, SyncMsg>, port: OutPort, msg: SyncMsg) {
        ctx.count(
            if msg.is_digest() {
                "sync_digest_msgs"
            } else {
                "sync_leaf_msgs"
            },
            1,
        );
        if let SyncMsg::LeafData { entries, .. } | SyncMsg::FullState { entries, .. } = &msg {
            ctx.count("sync_entries_sent", entries.len() as u64);
        }
        let bytes = msg.wire_size();
        ctx.send_sized(port, msg, bytes);
    }

    /// One gossip round: the cyclically next peer hears the root.
    fn gossip(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
        if self.peer_roots.is_empty() {
            return;
        }
        let port = OutPort((self.rounds % self.peer_roots.len() as u64) as usize);
        self.rounds += 1;
        ctx.count("sync_rounds", 1);
        Self::post(
            ctx,
            port,
            SyncMsg::Root {
                hash: self.tree.root(),
                is_reply: false,
            },
        );
    }

    /// Merges received entries, rehashing the tree path of each one that
    /// changed the store; returns how many did.
    fn merge(&mut self, entries: &[(u32, u64, u64)]) -> u64 {
        let mut applied = 0;
        for &(k, v, p) in entries {
            if self.store.write(k, v, p) {
                self.tree.update(&self.store, k);
                applied += 1;
            }
        }
        debug_assert_eq!(self.tree.root(), self.tree.shape().root(&self.store));
        applied
    }

    /// The hash of `[lo, hi)` — the protocol's one way to obtain it.
    fn range_hash(&self, lo: u32, hi: u32) -> u64 {
        self.tree.range_hash(&self.store, lo, hi)
    }

    /// Handles a root-gossip message; `descend` is invoked with the reply
    /// port when the roots differ.
    fn on_root(
        &mut self,
        ctx: &mut Ctx<'_, SyncMsg>,
        back: OutPort,
        hash: u64,
        is_reply: bool,
        descend: impl FnOnce(&mut Self, &mut Ctx<'_, SyncMsg>, OutPort),
    ) {
        self.peer_roots[back.0] = Some(hash);
        if !is_reply {
            Self::post(
                ctx,
                back,
                SyncMsg::Root {
                    hash: self.tree.root(),
                    is_reply: true,
                },
            );
        }
        if hash != self.tree.root() {
            descend(self, ctx, back);
        }
    }
}

/// The Merkle-descent anti-entropy protocol.
///
/// Construct per node via [`AntiEntropy::new`] with a pre-seeded store;
/// run on a complete graph through
/// [`run_antientropy`](crate::runner::run_antientropy).
#[derive(Debug, Clone)]
pub struct AntiEntropy {
    id: u32,
    replica: Replica,
}

impl AntiEntropy {
    /// A replica with the given digest shape, initial store, and per-node
    /// gossip round budget.
    pub fn new(
        id: u32,
        out_degree: usize,
        digests: Digests,
        store: StateStore,
        rounds_cap: u64,
    ) -> Self {
        Self {
            id,
            replica: Replica::new(out_degree, digests, store, rounds_cap),
        }
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The replica's current store.
    pub fn store(&self) -> &StateStore {
        &self.replica.store
    }

    /// The replica's current root hash.
    pub fn root(&self) -> u64 {
        self.replica.tree.root()
    }

    /// Gossip rounds initiated so far.
    pub fn rounds(&self) -> u64 {
        self.replica.rounds
    }

    /// Consumes the protocol, returning the final store.
    pub fn into_store(self) -> StateStore {
        self.replica.store
    }
}

impl Protocol for AntiEntropy {
    type Message = SyncMsg;

    fn on_tick(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
        self.replica.gossip(ctx);
    }

    fn on_message(&mut self, from: InPort, msg: SyncMsg, ctx: &mut Ctx<'_, SyncMsg>) {
        let back = ctx.reply_port(from).expect("complete graphs are symmetric");
        let r = &mut self.replica;
        match msg {
            SyncMsg::Root { hash, is_reply } => {
                r.on_root(ctx, back, hash, is_reply, |r, ctx, back| {
                    Replica::post(
                        ctx,
                        back,
                        SyncMsg::SubtreeReq {
                            lo: 0,
                            hi: r.tree.shape().key_space(),
                        },
                    );
                });
            }
            SyncMsg::SubtreeReq { lo, hi } => {
                if r.tree.shape().is_leaf(lo, hi) {
                    let entries = r.store.entries_in(lo, hi);
                    Replica::post(
                        ctx,
                        back,
                        SyncMsg::LeafData {
                            lo,
                            hi,
                            entries,
                            want_back: true,
                        },
                    );
                } else {
                    let kids = r.tree.shape().children(lo, hi);
                    let hashes = kids.map(|(l, h)| (l, h, r.range_hash(l, h))).collect();
                    Replica::post(ctx, back, SyncMsg::SubtreeDigests { lo, hi, hashes });
                }
            }
            SyncMsg::SubtreeDigests { hashes, .. } => {
                // Compare child digests; descend only into mismatches. At
                // leaf width, push our entries straight away (the peer
                // answers with its post-merge set via `want_back`).
                for (l, h, peer_hash) in hashes {
                    if r.range_hash(l, h) == peer_hash {
                        continue;
                    }
                    if r.tree.shape().is_leaf(l, h) {
                        let entries = r.store.entries_in(l, h);
                        Replica::post(
                            ctx,
                            back,
                            SyncMsg::LeafData {
                                lo: l,
                                hi: h,
                                entries,
                                want_back: true,
                            },
                        );
                    } else {
                        Replica::post(ctx, back, SyncMsg::SubtreeReq { lo: l, hi: h });
                    }
                }
            }
            SyncMsg::LeafData {
                lo,
                hi,
                entries,
                want_back,
            } => {
                let applied = r.merge(&entries);
                ctx.count("sync_entries_applied", applied);
                if want_back {
                    let entries = r.store.entries_in(lo, hi);
                    Replica::post(
                        ctx,
                        back,
                        SyncMsg::LeafData {
                            lo,
                            hi,
                            entries,
                            want_back: false,
                        },
                    );
                }
            }
            // Reference-protocol traffic; a Merkle replica never sees it.
            SyncMsg::FullState { .. } => unreachable!("FullState sent to AntiEntropy"),
        }
    }

    fn wants_tick(&self) -> bool {
        self.replica.wants_tick()
    }

    fn tick_stride(&mut self, _rng: &mut Xoshiro256PlusPlus) -> u64 {
        1
    }

    fn heat(&self) -> u32 {
        u32::from(self.replica.divergent())
    }
}

/// The trivial reference reconciler: every root mismatch is answered by
/// shipping the entire store (push-pull). Converges to the same state as
/// [`AntiEntropy`] — at a wire cost proportional to the *store* size
/// rather than the *divergence*.
#[derive(Debug, Clone)]
pub struct FullExchange {
    id: u32,
    replica: Replica,
}

impl FullExchange {
    /// A replica with the given digest shape (used only for the root
    /// hash), initial store, and per-node gossip round budget.
    pub fn new(
        id: u32,
        out_degree: usize,
        digests: Digests,
        store: StateStore,
        rounds_cap: u64,
    ) -> Self {
        Self {
            id,
            replica: Replica::new(out_degree, digests, store, rounds_cap),
        }
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The replica's current store.
    pub fn store(&self) -> &StateStore {
        &self.replica.store
    }

    /// Gossip rounds initiated so far.
    pub fn rounds(&self) -> u64 {
        self.replica.rounds
    }

    /// Consumes the protocol, returning the final store.
    pub fn into_store(self) -> StateStore {
        self.replica.store
    }
}

impl Protocol for FullExchange {
    type Message = SyncMsg;

    fn on_tick(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
        self.replica.gossip(ctx);
    }

    fn on_message(&mut self, from: InPort, msg: SyncMsg, ctx: &mut Ctx<'_, SyncMsg>) {
        let back = ctx.reply_port(from).expect("complete graphs are symmetric");
        let r = &mut self.replica;
        match msg {
            SyncMsg::Root { hash, is_reply } => {
                r.on_root(ctx, back, hash, is_reply, |r, ctx, back| {
                    let key_space = r.tree.shape().key_space();
                    let entries = r.store.entries_in(0, key_space);
                    Replica::post(
                        ctx,
                        back,
                        SyncMsg::FullState {
                            entries,
                            want_back: true,
                        },
                    );
                });
            }
            SyncMsg::FullState { entries, want_back } => {
                let applied = r.merge(&entries);
                ctx.count("sync_entries_applied", applied);
                if want_back {
                    let key_space = r.tree.shape().key_space();
                    let entries = r.store.entries_in(0, key_space);
                    Replica::post(
                        ctx,
                        back,
                        SyncMsg::FullState {
                            entries,
                            want_back: false,
                        },
                    );
                }
            }
            other => unreachable!("Merkle traffic sent to FullExchange: {other:?}"),
        }
    }

    fn wants_tick(&self) -> bool {
        self.replica.wants_tick()
    }

    fn tick_stride(&mut self, _rng: &mut Xoshiro256PlusPlus) -> u64 {
        1
    }

    fn heat(&self) -> u32 {
        u32::from(self.replica.divergent())
    }
}
