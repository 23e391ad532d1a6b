//! Convenience runners: one call from a complete-graph configuration to a
//! convergence-classified sync outcome.
//!
//! The experiment harness (`e21`/`e22`), the scenario compiler, and the
//! convergence-oracle suite all go through these, so the measurement
//! conventions (what counts as converged, how residual divergence is
//! defined, which writes exist) live in exactly one place — mirroring
//! [`abe_consensus`'s runners](https://docs.rs) for consensus.
//!
//! ## Initial divergence
//!
//! Every replica starts with the full base image: key `k` at version 1
//! with the deterministic payload [`base_payload`]`(k)`. Divergence is
//! then injected as `ceil(divergence · key_space)` *fresh writes* —
//! distinct keys at version 2, each placed at exactly one seed-chosen
//! replica — drawn from the dedicated `"statesync-writes"`
//! [`SeedStream`] child, never from the engine RNG, so runs are
//! bit-identical at any `--threads`/`--shards` setting and the complete
//! set of writes that *exist* is known in advance (the no-invention
//! oracle's ground truth).

use std::collections::BTreeMap;
use std::sync::Arc;

use abe_core::adversary::AdversaryPlan;
use abe_core::clock::ClockSpec;
use abe_core::delay::{Exponential, SharedDelay};
use abe_core::fault::{FaultPlan, OutcomeClass};
use abe_core::{NetworkBuilder, NetworkReport, Recording, RunRecorder, Topology};
use abe_sim::{RunLimits, SeedStream};

use crate::digest::{Digests, DEFAULT_FANOUT, DEFAULT_LEAF_WIDTH};
use crate::protocol::{AntiEntropy, FullExchange};
use crate::store::StateStore;

/// [`SeedStream`] domain of the fresh-write placement stream.
pub const WRITE_DOMAIN: &str = "statesync-writes";

/// The version-1 payload of key `k` in the shared base image
/// (SplitMix64-style finalisation of the key; deterministic and
/// identical on every replica).
pub fn base_payload(k: u32) -> u64 {
    let mut z = u64::from(k).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The version-2 payload a fresh write puts at key `k` (distinct from the
/// base payload, deterministic in the key).
pub fn fresh_payload(k: u32) -> u64 {
    base_payload(k) ^ 0xD1B5_4A32_D192_ED03
}

/// One injected divergence: key `key` written at version 2 on replica
/// `owner` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshWrite {
    /// The written key.
    pub key: u32,
    /// The replica holding the write initially.
    pub owner: u32,
}

/// Configuration of one state-sync run on the complete graph `K_n`.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Node count `n ≥ 1`.
    pub n: u32,
    /// Key universe size `K ≥ 1`.
    pub key_space: u32,
    /// Fraction of the key space receiving a fresh write, in `[0, 1]`.
    pub divergence: f64,
    /// Digest-tree branching factor.
    pub fanout: u32,
    /// Digest-tree leaf width.
    pub leaf_width: u32,
    /// Per-node gossip round budget (bounds ticking at crashed or
    /// persistently partitioned peers).
    pub rounds_cap: u64,
    /// Delay model applied to every edge.
    pub delay: SharedDelay,
    /// Clock population (defaults to perfect clocks).
    pub clocks: ClockSpec,
    /// Master seed for the run.
    pub seed: u64,
    /// FIFO channels (defaults to `false`: arbitrary reordering).
    pub fifo: bool,
    /// Event budget; runs exceeding it carry their residual divergence.
    pub max_events: u64,
    /// Optional virtual-time horizon (seconds).
    pub max_time: Option<f64>,
    /// Fault-injection plan (defaults to empty: no faults).
    pub fault: FaultPlan,
    /// Scheduling-adversary plan (defaults to empty: oblivious delays).
    pub adversary: AdversaryPlan,
    /// Shard count for deterministic parallel execution (defaults to 1).
    pub shards: u32,
    /// Optional telemetry recording budget (defaults to `None`: no
    /// recording). Recording never perturbs the run; the captured
    /// recorder lands on [`SyncOutcome::telemetry`].
    pub record: Option<Recording>,
}

impl SyncConfig {
    /// A complete graph of size `n` over `key_space` keys with
    /// exponential delays of mean 1 and defaults everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `key_space == 0`.
    pub fn new(n: u32, key_space: u32) -> Self {
        assert!(n >= 1, "network size must be at least 1");
        assert!(key_space >= 1, "key space must be non-empty");
        Self {
            n,
            key_space,
            divergence: 0.25,
            fanout: DEFAULT_FANOUT,
            leaf_width: DEFAULT_LEAF_WIDTH,
            rounds_cap: 100 + 20 * u64::from(n),
            delay: Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
            clocks: ClockSpec::perfect(),
            seed: 0,
            fifo: false,
            max_events: 5_000_000,
            max_time: None,
            fault: FaultPlan::new(),
            adversary: AdversaryPlan::none(),
            shards: 1,
            record: None,
        }
    }

    /// Sets the injected divergence fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `divergence` is in `[0, 1]`.
    #[track_caller]
    pub fn divergence(mut self, divergence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&divergence),
            "divergence fraction must be in [0, 1], got {divergence}"
        );
        self.divergence = divergence;
        self
    }

    /// Replaces the digest-tree shape.
    ///
    /// # Panics
    ///
    /// Panics unless `fanout >= 2` and `leaf_width >= 1`.
    #[track_caller]
    pub fn tree(mut self, fanout: u32, leaf_width: u32) -> Self {
        assert!(
            fanout >= 2 && leaf_width >= 1,
            "digest tree needs fanout >= 2 and leaf width >= 1, got {fanout} and {leaf_width}"
        );
        self.fanout = fanout;
        self.leaf_width = leaf_width;
        self
    }

    /// Replaces the per-node gossip round budget.
    pub fn rounds_cap(mut self, rounds_cap: u64) -> Self {
        self.rounds_cap = rounds_cap;
        self
    }

    /// Replaces the delay model.
    pub fn delay(mut self, delay: SharedDelay) -> Self {
        self.delay = delay;
        self
    }

    /// Replaces the clock specification.
    pub fn clocks(mut self, clocks: ClockSpec) -> Self {
        self.clocks = clocks;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables FIFO channels.
    pub fn fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Installs a fault-injection plan for the run.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Installs a budgeted scheduling-adversary plan for the run.
    pub fn adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.adversary = adversary;
        self
    }

    /// Replaces the event budget.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Caps the run at a virtual-time horizon (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `max_time` is not finite and non-negative.
    #[track_caller]
    pub fn max_time(mut self, max_time: f64) -> Self {
        assert!(
            max_time.is_finite() && max_time >= 0.0,
            "max_time must be finite and non-negative, got {max_time}"
        );
        self.max_time = Some(max_time);
        self
    }

    /// Sets the shard count for deterministic parallel execution (see
    /// [`abe_core::shard`]); `1` (the default) runs sequentially.
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enables telemetry recording for the run (see
    /// [`abe_core::Recording`]).
    pub fn record(mut self, record: Recording) -> Self {
        self.record = Some(record);
        self
    }

    /// The digest-tree shape of this configuration.
    pub fn digests(&self) -> Digests {
        Digests::with_shape(self.key_space, self.fanout, self.leaf_width)
    }

    /// The fresh writes this configuration injects: `ceil(divergence ·
    /// key_space)` distinct keys via a partial Fisher–Yates shuffle on
    /// the `"statesync-writes"` stream, each placed at one uniformly
    /// drawn owner replica.
    pub fn fresh_writes(&self) -> Vec<FreshWrite> {
        let count =
            ((self.divergence * f64::from(self.key_space)).ceil() as u32).min(self.key_space);
        let mut rng = SeedStream::new(self.seed).stream(WRITE_DOMAIN, 0);
        let mut keys: Vec<u32> = (0..self.key_space).collect();
        let mut writes = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let remaining = keys.len() - i;
            let j = i + ((rng.uniform_f64() * remaining as f64) as usize).min(remaining - 1);
            keys.swap(i, j);
            let owner = ((rng.uniform_f64() * f64::from(self.n)) as u32).min(self.n - 1);
            writes.push(FreshWrite {
                key: keys[i],
                owner,
            });
        }
        writes
    }

    /// The initial store of replica `node`: the full base image plus this
    /// replica's fresh writes.
    pub fn initial_store(&self, node: u32, writes: &[FreshWrite]) -> StateStore {
        let mut store = StateStore::new();
        for k in 0..self.key_space {
            store.write(k, 1, base_payload(k));
        }
        for w in writes {
            if w.owner == node {
                store.write(w.key, 2, fresh_payload(w.key));
            }
        }
        store
    }

    fn builder(&self) -> NetworkBuilder {
        let topo = Topology::complete(self.n).expect("n >= 1 was validated");
        let builder = NetworkBuilder::new(topo)
            .delay_shared(Arc::clone(&self.delay))
            .clocks(self.clocks)
            .fifo(self.fifo)
            .seed(self.seed)
            .fault(self.fault.clone())
            .adversary(self.adversary.clone())
            .shards(self.shards);
        match &self.record {
            Some(r) => builder.record(r.clone()),
            None => builder,
        }
    }

    fn limits(&self) -> RunLimits {
        let limits = RunLimits::events(self.max_events);
        match self.max_time {
            Some(t) => limits.with_max_time(abe_sim::SimTime::from_secs(t)),
            None => limits,
        }
    }

    /// Which replicas are up at virtual time `end` under this fault plan
    /// (crash-stopped or mid-outage replicas are down).
    pub fn alive_at(&self, end: f64) -> Vec<bool> {
        let mut alive = vec![true; self.n as usize];
        for w in self.fault.crashes() {
            if w.at <= end && w.recover_at.is_none_or(|r| r > end) {
                alive[w.node as usize] = false;
            }
        }
        alive
    }
}

/// Condensed per-run telemetry: the numbers the experiments sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncReport {
    /// Whether every live replica ended byte-identical.
    pub converged: bool,
    /// Entries still differing from the live-union state, summed over
    /// live replicas (0 iff converged).
    pub residual_divergence: u64,
    /// Highest per-node gossip round count.
    pub rounds: u64,
    /// Data-plane bytes on the wire ([`NetworkReport::payload_bytes`]).
    pub wire_bytes: u64,
    /// Digest/control messages sent (roots, subtree requests, digests).
    pub digest_msgs: u64,
    /// Data messages sent (leaf ranges or full states).
    pub leaf_msgs: u64,
    /// Entries shipped inside data messages.
    pub entries_sent: u64,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
}

/// Measured outcome of one state-sync run.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Node count.
    pub n: u32,
    /// Key universe size.
    pub key_space: u32,
    /// The fresh writes the run injected (ground truth for the
    /// no-invention oracle).
    pub writes: Vec<FreshWrite>,
    /// Per-node final state maps.
    pub states: Vec<BTreeMap<u32, (u64, u64)>>,
    /// Per-node liveness at the end of the run.
    pub alive: Vec<bool>,
    /// Per-node gossip rounds initiated.
    pub rounds: Vec<u64>,
    /// Virtual time at the end of the run (seconds).
    pub time: f64,
    /// The full network report (payload bytes, counters, faults).
    pub report: NetworkReport,
    /// Captured telemetry, when [`SyncConfig::record`] enabled recording.
    pub telemetry: Option<Box<RunRecorder>>,
}

impl SyncOutcome {
    /// The least-upper-bound state of the *live* replicas: every key at
    /// the maximal `(version, payload)` any live replica holds. The
    /// reconciliation target — writes stranded on crash-stopped replicas
    /// are unrecoverable and excluded by construction.
    pub fn live_union(&self) -> BTreeMap<u32, (u64, u64)> {
        let mut union = StateStore::new();
        for (state, alive) in self.states.iter().zip(&self.alive) {
            if !alive {
                continue;
            }
            for (&k, &(v, p)) in state {
                union.write(k, v, p);
            }
        }
        union.into_map()
    }

    /// Entries differing from [`live_union`](Self::live_union), summed
    /// over live replicas. Zero iff all live replicas are byte-identical
    /// (states are mutually `<=` the union, so pairwise equality and
    /// union equality coincide).
    pub fn residual_divergence(&self) -> u64 {
        let union = self.live_union();
        let mut residual = 0;
        for (state, alive) in self.states.iter().zip(&self.alive) {
            if !alive {
                continue;
            }
            residual += union
                .iter()
                .filter(|(k, vp)| state.get(k) != Some(vp))
                .count() as u64;
            // Keys a replica holds beyond the union are impossible (the
            // union is pointwise maximal), so the count above is exact.
        }
        residual
    }

    /// Whether every live replica ended byte-identical.
    pub fn converged(&self) -> bool {
        self.residual_divergence() == 0
    }

    /// Number of live replicas.
    pub fn live_count(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// Classifies the run: [`OutcomeClass::Decided`] when converged,
    /// [`OutcomeClass::Stalled`] otherwise (anti-entropy has no safety
    /// violation class — invented state is checked structurally by the
    /// oracle suite, not classified).
    pub fn class(&self) -> OutcomeClass {
        if self.converged() {
            OutcomeClass::Decided
        } else {
            OutcomeClass::Stalled
        }
    }

    /// Whether `(key, version, payload)` was ever written by anyone:
    /// the version-1 base image or one of the run's fresh writes.
    pub fn known_write(&self, key: u32, version: u64, payload: u64) -> bool {
        if key >= self.key_space {
            return false;
        }
        match version {
            1 => payload == base_payload(key),
            2 => payload == fresh_payload(key) && self.writes.iter().any(|w| w.key == key),
            _ => false,
        }
    }

    /// Every `(node, key, version, payload)` held by any replica that
    /// nobody ever wrote — must be empty under every schedule.
    pub fn invented(&self) -> Vec<(u32, u32, u64, u64)> {
        let mut out = Vec::new();
        for (i, state) in self.states.iter().enumerate() {
            for (&k, &(v, p)) in state {
                if !self.known_write(k, v, p) {
                    out.push((i as u32, k, v, p));
                }
            }
        }
        out
    }

    /// Condenses the outcome into the per-run telemetry record.
    pub fn sync_report(&self) -> SyncReport {
        SyncReport {
            converged: self.converged(),
            residual_divergence: self.residual_divergence(),
            rounds: self.rounds.iter().copied().max().unwrap_or(0),
            wire_bytes: self.report.payload_bytes,
            digest_msgs: self.report.counter("sync_digest_msgs"),
            leaf_msgs: self.report.counter("sync_leaf_msgs"),
            entries_sent: self.report.counter("sync_entries_sent"),
            time: self.time,
        }
    }
}

/// Runs `net` under the config's limits, sharded when the config asks
/// for it, and assembles the outcome from the final protocol states.
fn execute<P>(
    cfg: &SyncConfig,
    net: abe_core::Network<P>,
    split: impl Fn(P) -> (StateStore, u64),
) -> SyncOutcome
where
    P: abe_core::Protocol + Clone + Send,
    P::Message: Send,
{
    let (report, mut net) = if cfg.shards > 1 {
        net.run_sharded(cfg.limits())
    } else {
        net.run(cfg.limits())
    };
    let telemetry = net.take_telemetry();
    let (states, rounds): (Vec<_>, Vec<_>) = net
        .into_protocols()
        .into_iter()
        .map(|p| {
            let (store, rounds) = split(p);
            (store.into_map(), rounds)
        })
        .unzip();
    let time = report.end_time.as_secs();
    SyncOutcome {
        n: cfg.n,
        key_space: cfg.key_space,
        writes: cfg.fresh_writes(),
        states,
        alive: cfg.alive_at(time),
        rounds,
        time,
        report,
        telemetry,
    }
}

/// Runs the Merkle-descent anti-entropy protocol on `K_n`.
pub fn run_antientropy(cfg: &SyncConfig) -> SyncOutcome {
    let digests = cfg.digests();
    let writes = cfg.fresh_writes();
    let out_degree = cfg.n as usize - 1;
    let net = cfg
        .builder()
        .build(|i| {
            let i = i as u32;
            AntiEntropy::new(
                i,
                out_degree,
                digests,
                cfg.initial_store(i, &writes),
                cfg.rounds_cap,
            )
        })
        .expect("complete-graph configuration is structurally valid");
    execute(cfg, net, |p: AntiEntropy| {
        let rounds = p.rounds();
        (p.into_store(), rounds)
    })
}

/// Runs the full-state-exchange reference reconciler on `K_n` — the
/// differential baseline whose final states the Merkle protocol must
/// reproduce exactly.
pub fn run_reference(cfg: &SyncConfig) -> SyncOutcome {
    let digests = cfg.digests();
    let writes = cfg.fresh_writes();
    let out_degree = cfg.n as usize - 1;
    let net = cfg
        .builder()
        .build(|i| {
            let i = i as u32;
            FullExchange::new(
                i,
                out_degree,
                digests,
                cfg.initial_store(i, &writes),
                cfg.rounds_cap,
            )
        })
        .expect("complete-graph configuration is structurally valid");
    execute(cfg, net, |p: FullExchange| {
        let rounds = p.rounds();
        (p.into_store(), rounds)
    })
}
