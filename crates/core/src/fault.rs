//! Deterministic, seedable fault injection for ABE networks.
//!
//! The ABE model of Definition 1 already absorbs one failure mode — §1
//! case (iii) lossy channels under retransmission, via
//! [`delay::Retransmission`](crate::delay::Retransmission) — but says
//! nothing about *process* failures or adversarial link conditions. This
//! module adds them as a declarative plan composed into
//! [`NetworkBuilder`](crate::NetworkBuilder):
//!
//! * **crash-stop / crash-recover** — a node goes down at a virtual time
//!   and (optionally) comes back; while down it dispatches no handlers,
//!   its pending tick is cancelled, and every message delivered to it is
//!   lost. Protocol state is frozen, not reset (fail-pause semantics);
//!   its local clock keeps running, so on recovery local time has moved.
//! * **random drops** — each message sent on a matching edge is lost
//!   independently with probability `p`, drawn from a per-edge `"drop"`
//!   [`SeedStream`] child stream (keyed by edge id, so sharded runs draw
//!   identically; see `crate::shard`). Runs stay bit-reproducible and an
//!   *empty* plan consumes zero random draws.
//! * **partition windows** — a node set is cut off during `[from, until)`:
//!   messages **sent** inside the window on an edge crossing the cut are
//!   dropped. Messages already in flight when the window opens escape it.
//! * **delay storms** — delays sampled on matching edges for sends inside
//!   `[from, until)` are multiplied by a factor (overlapping storms
//!   compound), modelling congestion bursts that stretch the expected
//!   delay past its bound without losing messages.
//!
//! Every loss and every crash is counted in [`FaultStats`], surfaced on
//! [`NetworkReport`](crate::NetworkReport) — faults never silently vanish
//! from the telemetry.
//!
//! # Examples
//!
//! ```
//! use abe_core::delay::Deterministic;
//! use abe_core::fault::FaultPlan;
//! use abe_core::{Ctx, InPort, NetworkBuilder, OutPort, Protocol, Topology};
//! use abe_sim::RunLimits;
//!
//! /// Forwards a token around the ring forever (until someone dies).
//! #[derive(Debug)]
//! struct Forwarder {
//!     fire: bool,
//! }
//! impl Protocol for Forwarder {
//!     type Message = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         if self.fire {
//!             ctx.send(OutPort(0), ());
//!         }
//!     }
//!     fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
//!         ctx.send(OutPort(0), ());
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Node 2 crash-stops at t = 5: the token dies with it.
//! let net = NetworkBuilder::new(Topology::unidirectional_ring(4)?)
//!     .delay(Deterministic::new(1.0)?)
//!     .fault(FaultPlan::new().crash_stop(2, 5.0))
//!     .build(|i| Forwarder { fire: i == 0 })?;
//! let (report, _) = net.run(RunLimits::unbounded());
//! assert!(report.outcome.is_quiescent());
//! assert_eq!(report.faults.crashes, 1);
//! assert_eq!(report.faults.dropped_crash, 1);
//! assert_eq!(report.in_flight, 0); // the lost message is accounted for
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use abe_sim::{SeedStream, Xoshiro256PlusPlus};

use crate::topology::{EdgeId, Topology};

/// Which edges a drop rule or delay storm applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeSelector {
    /// Every edge of the topology.
    All,
    /// An explicit list of edge indices (in [`Topology`] edge-id order).
    Edges(Vec<u32>),
}

impl EdgeSelector {
    fn validate(&self, topo: &Topology) -> Result<(), FaultPlanError> {
        if let EdgeSelector::Edges(edges) = self {
            let count = topo.edge_count();
            for &edge in edges {
                if edge as usize >= count {
                    return Err(FaultPlanError::EdgeOutOfRange { edge, edges: count });
                }
            }
        }
        Ok(())
    }

    /// Per-edge membership mask, or `None` for "all edges".
    fn mask(&self, edge_count: usize) -> Option<Vec<bool>> {
        match self {
            EdgeSelector::All => None,
            EdgeSelector::Edges(edges) => {
                let mut mask = vec![false; edge_count];
                for &edge in edges {
                    mask[edge as usize] = true;
                }
                Some(mask)
            }
        }
    }
}

/// One node outage: down at `at`, back at `recover_at` (never, if `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashWindow {
    /// The node that goes down.
    pub node: u32,
    /// Virtual time of the crash (seconds).
    pub at: f64,
    /// Virtual time of the recovery; `None` means crash-stop.
    pub recover_at: Option<f64>,
}

/// Independent per-message loss on a set of edges.
#[derive(Debug, Clone, PartialEq)]
pub struct DropRule {
    /// The edges the rule applies to.
    pub edges: EdgeSelector,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// A node set cut off from the rest of the network for `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// The nodes on the minority side of the cut.
    pub nodes: Vec<u32>,
    /// Window start (seconds, inclusive).
    pub from: f64,
    /// Window end (seconds, exclusive; may be `f64::INFINITY`).
    pub until: f64,
}

/// A delay-multiplication window on a set of edges.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayStorm {
    /// The edges the storm covers.
    pub edges: EdgeSelector,
    /// Window start (seconds, inclusive).
    pub from: f64,
    /// Window end (seconds, exclusive).
    pub until: f64,
    /// Multiplier applied to sampled channel delays (must be finite, > 0).
    pub factor: f64,
}

/// A declarative fault schedule, composed into
/// [`NetworkBuilder::fault`](crate::NetworkBuilder::fault).
///
/// The default plan is empty and injects nothing; an empty plan leaves a
/// simulation bit-identical to one built without any plan at all (no
/// extra events, no random draws).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<CrashWindow>,
    drops: Vec<DropRule>,
    partitions: Vec<PartitionWindow>,
    storms: Vec<DelayStorm>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.drops.is_empty()
            && self.partitions.is_empty()
            && self.storms.is_empty()
    }

    /// Crashes `node` at `at` forever (crash-stop).
    pub fn crash_stop(mut self, node: u32, at: f64) -> Self {
        self.crashes.push(CrashWindow {
            node,
            at,
            recover_at: None,
        });
        self
    }

    /// Crashes `node` at `at`, recovering it at `recover_at`
    /// (crash-recover; state is frozen while down).
    pub fn crash_recover(mut self, node: u32, at: f64, recover_at: f64) -> Self {
        self.crashes.push(CrashWindow {
            node,
            at,
            recover_at: Some(recover_at),
        });
        self
    }

    /// Drops each message on `edges` independently with probability `p`.
    ///
    /// Multiple rules covering the same edge compound:
    /// `p = 1 − Π (1 − p_i)`.
    pub fn drop(mut self, edges: EdgeSelector, p: f64) -> Self {
        self.drops.push(DropRule {
            edges,
            probability: p,
        });
        self
    }

    /// Cuts `nodes` off from the rest of the network during
    /// `[from, until)`: messages sent inside the window on an edge with
    /// exactly one endpoint in the set are dropped.
    pub fn partition(mut self, nodes: Vec<u32>, from: f64, until: f64) -> Self {
        self.partitions.push(PartitionWindow { nodes, from, until });
        self
    }

    /// Multiplies delays sampled on `edges` by `factor` for sends inside
    /// `[from, until)`. Overlapping storms compound multiplicatively.
    pub fn delay_storm(mut self, edges: EdgeSelector, from: f64, until: f64, factor: f64) -> Self {
        self.storms.push(DelayStorm {
            edges,
            from,
            until,
            factor,
        });
        self
    }

    /// Generates a crash-recover churn schedule: `events` outages of
    /// `downtime` seconds each, on nodes and start times drawn uniformly
    /// from `[0, horizon)` via the `"churn"` [`SeedStream`] child stream
    /// of `seed` — fully deterministic in `(n, events, horizon, downtime,
    /// seed)`, independent of any other stream in the simulation.
    ///
    /// A non-positive `downtime` means zero-length outages: the plan is
    /// empty (nodes and times are still drawn, so a downtime sweep axis
    /// keeps its crash sites paired across downtime values).
    pub fn churn(n: u32, events: u32, horizon: f64, downtime: f64, seed: u64) -> Self {
        let mut rng = SeedStream::new(seed).stream("churn", 0);
        let mut plan = Self::new();
        for _ in 0..events {
            let node = ((rng.uniform_f64() * f64::from(n)) as u32).min(n.saturating_sub(1));
            let at = rng.uniform_f64() * horizon;
            if downtime > 0.0 {
                plan = plan.crash_recover(node, at, at + downtime);
            }
        }
        plan
    }

    /// The crash windows of the plan, in insertion order.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Checks every node index, edge index, time, probability, and factor
    /// against the topology and its own domain.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint. Called automatically by
    /// [`NetworkBuilder::build`](crate::NetworkBuilder::build).
    pub fn validate(&self, topo: &Topology) -> Result<(), FaultPlanError> {
        let n = topo.node_count();
        let check_node = |node: u32| {
            if node >= n {
                Err(FaultPlanError::NodeOutOfRange { node, nodes: n })
            } else {
                Ok(())
            }
        };
        let check_time = |what: &'static str, value: f64| {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(FaultPlanError::InvalidTime { what, value })
            }
        };
        for crash in &self.crashes {
            check_node(crash.node)?;
            check_time("crash time", crash.at)?;
            if let Some(recover_at) = crash.recover_at {
                check_time("recovery time", recover_at)?;
                if recover_at <= crash.at {
                    return Err(FaultPlanError::InvalidWindow {
                        what: "crash window",
                        from: crash.at,
                        until: recover_at,
                    });
                }
            }
        }
        for rule in &self.drops {
            rule.edges.validate(topo)?;
            if !(0.0..=1.0).contains(&rule.probability) {
                return Err(FaultPlanError::InvalidProbability {
                    p: rule.probability,
                });
            }
        }
        for part in &self.partitions {
            for &node in &part.nodes {
                check_node(node)?;
            }
            check_time("partition start", part.from)?;
            // NaN-safe: a NaN `until` must be rejected, not accepted.
            if part.until.is_nan() || part.until <= part.from {
                return Err(FaultPlanError::InvalidWindow {
                    what: "partition window",
                    from: part.from,
                    until: part.until,
                });
            }
        }
        for storm in &self.storms {
            storm.edges.validate(topo)?;
            check_time("storm start", storm.from)?;
            if storm.until.is_nan() || storm.until <= storm.from {
                return Err(FaultPlanError::InvalidWindow {
                    what: "storm window",
                    from: storm.from,
                    until: storm.until,
                });
            }
            if !(storm.factor.is_finite() && storm.factor > 0.0) {
                return Err(FaultPlanError::InvalidFactor {
                    factor: storm.factor,
                });
            }
        }
        Ok(())
    }
}

/// Error returned when a [`FaultPlan`] references a node or edge the
/// topology does not have, or uses a value outside its domain.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A node index was `>= node_count`.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// Number of nodes in the topology.
        nodes: u32,
    },
    /// An edge index was `>= edge_count`.
    EdgeOutOfRange {
        /// The offending edge index.
        edge: u32,
        /// Number of edges in the topology.
        edges: usize,
    },
    /// A window had `until <= from`.
    InvalidWindow {
        /// Which window kind was rejected.
        what: &'static str,
        /// Window start.
        from: f64,
        /// Window end.
        until: f64,
    },
    /// A drop probability was outside `[0, 1]`.
    InvalidProbability {
        /// The offending probability.
        p: f64,
    },
    /// A storm factor was not finite and positive.
    InvalidFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A time was negative, NaN, or infinite where finiteness is required.
    InvalidTime {
        /// Which time was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { node, nodes } => {
                write!(f, "fault plan node {node} out of range for {nodes} nodes")
            }
            FaultPlanError::EdgeOutOfRange { edge, edges } => {
                write!(f, "fault plan edge {edge} out of range for {edges} edges")
            }
            FaultPlanError::InvalidWindow { what, from, until } => {
                write!(f, "invalid {what}: [{from}, {until}) is empty or reversed")
            }
            FaultPlanError::InvalidProbability { p } => {
                write!(f, "drop probability {p} outside [0, 1]")
            }
            FaultPlanError::InvalidFactor { factor } => {
                write!(f, "storm factor {factor} must be finite and positive")
            }
            FaultPlanError::InvalidTime { what, value } => {
                write!(f, "invalid {what}: {value} must be finite and non-negative")
            }
        }
    }
}

impl Error for FaultPlanError {}

/// Fault-injection telemetry for one run, surfaced on
/// [`NetworkReport`](crate::NetworkReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crash events fired.
    pub crashes: u64,
    /// Recovery events fired.
    pub recoveries: u64,
    /// Messages lost because the destination was down at delivery time.
    pub dropped_crash: u64,
    /// Messages lost to a partition window at send time.
    pub dropped_partition: u64,
    /// Messages lost to random edge drops.
    pub dropped_random: u64,
    /// Deliveries whose delay was stretched by at least one storm.
    pub storm_deliveries: u64,
}

impl FaultStats {
    /// Total messages lost to faults (crash + partition + random).
    ///
    /// # Examples
    ///
    /// ```
    /// use abe_core::fault::FaultStats;
    ///
    /// let stats = FaultStats {
    ///     dropped_crash: 1,
    ///     dropped_partition: 2,
    ///     dropped_random: 3,
    ///     ..FaultStats::default()
    /// };
    /// assert_eq!(stats.dropped(), 6);
    /// ```
    pub fn dropped(&self) -> u64 {
        self.dropped_crash + self.dropped_partition + self.dropped_random
    }

    /// Folds another counter set into this one (used to combine per-shard
    /// fault telemetry into one run-level report).
    ///
    /// # Examples
    ///
    /// ```
    /// use abe_core::fault::FaultStats;
    ///
    /// let mut a = FaultStats { crashes: 1, ..FaultStats::default() };
    /// let b = FaultStats { crashes: 2, dropped_random: 5, ..FaultStats::default() };
    /// a.merge(&b);
    /// assert_eq!(a.crashes, 3);
    /// assert_eq!(a.dropped_random, 5);
    /// ```
    pub fn merge(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.dropped_crash += other.dropped_crash;
        self.dropped_partition += other.dropped_partition;
        self.dropped_random += other.dropped_random;
        self.storm_deliveries += other.storm_deliveries;
    }
}

/// How a run under faults ended, as classified by the algorithm runners
/// (election, waves, synchronisers, consensus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// The algorithm reached its goal (one leader, full coverage, all
    /// rounds fired).
    Completed,
    /// The run ended without reaching the goal — typically because a
    /// fault consumed a message the algorithm cannot regenerate.
    Stalled,
    /// The run produced an *incorrect* result (e.g. more than one
    /// leader), the worst failure mode.
    WrongLeader,
    /// A consensus run in which a quorum of correct nodes decided a
    /// common value (the consensus analogue of [`Completed`](Self::Completed)).
    Decided,
    /// Two nodes decided *different* values — a consensus safety
    /// violation, never acceptable under any fault or adversary budget.
    AgreementViolation,
    /// A node decided a value that no node proposed (binary consensus) or
    /// delivered a payload the broadcaster never sent (reliable
    /// broadcast) — the other consensus safety violation.
    ValidityViolation,
}

impl OutcomeClass {
    /// Every variant, in declaration order (for exhaustive property
    /// tests over the name round-trip).
    pub const ALL: [OutcomeClass; 6] = [
        OutcomeClass::Completed,
        OutcomeClass::Stalled,
        OutcomeClass::WrongLeader,
        OutcomeClass::Decided,
        OutcomeClass::AgreementViolation,
        OutcomeClass::ValidityViolation,
    ];

    /// Stable lower-case name, as used in tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeClass::Completed => "completed",
            OutcomeClass::Stalled => "stalled",
            OutcomeClass::WrongLeader => "wrong-leader",
            OutcomeClass::Decided => "decided",
            OutcomeClass::AgreementViolation => "agreement-violation",
            OutcomeClass::ValidityViolation => "validity-violation",
        }
    }

    /// Inverse of [`as_str`](Self::as_str): resolves a stable name back to
    /// the class, or `None` for anything else.
    ///
    /// ```
    /// use abe_core::fault::OutcomeClass;
    /// assert_eq!(
    ///     OutcomeClass::from_name("wrong-leader"),
    ///     Some(OutcomeClass::WrongLeader)
    /// );
    /// assert_eq!(
    ///     OutcomeClass::from_name("agreement-violation"),
    ///     Some(OutcomeClass::AgreementViolation)
    /// );
    /// assert_eq!(OutcomeClass::from_name("mixed"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "completed" => Some(OutcomeClass::Completed),
            "stalled" => Some(OutcomeClass::Stalled),
            "wrong-leader" => Some(OutcomeClass::WrongLeader),
            "decided" => Some(OutcomeClass::Decided),
            "agreement-violation" => Some(OutcomeClass::AgreementViolation),
            "validity-violation" => Some(OutcomeClass::ValidityViolation),
            _ => None,
        }
    }

    /// Whether this class is a *correctness* violation (an incorrect
    /// result, as opposed to a merely unfinished one). Violations are
    /// hard failures for every standing oracle regardless of what a
    /// scenario declared it expects.
    ///
    /// ```
    /// use abe_core::fault::OutcomeClass;
    /// assert!(OutcomeClass::WrongLeader.is_violation());
    /// assert!(OutcomeClass::AgreementViolation.is_violation());
    /// assert!(!OutcomeClass::Stalled.is_violation());
    /// ```
    pub fn is_violation(self) -> bool {
        matches!(
            self,
            OutcomeClass::WrongLeader
                | OutcomeClass::AgreementViolation
                | OutcomeClass::ValidityViolation
        )
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fate of one message at send time, decided by [`FaultRuntime::on_send`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SendFate {
    /// Deliver, with the sampled channel delay multiplied by `stretch`.
    Deliver {
        /// Compound storm factor (1.0 when no storm applies).
        stretch: f64,
    },
    /// Lost to a partition window.
    DropPartition,
    /// Lost to a random edge drop.
    DropRandom,
}

#[derive(Clone)]
struct CompiledPartition {
    member: Vec<bool>,
    from: f64,
    until: f64,
}

#[derive(Clone)]
struct CompiledStorm {
    /// Per-edge membership; `None` means all edges.
    member: Option<Vec<bool>>,
    from: f64,
    until: f64,
    factor: f64,
}

/// The compiled, mutable runtime state of a plan inside a running
/// [`Network`](crate::Network).
#[derive(Clone)]
pub(crate) struct FaultRuntime {
    crashes: Vec<CrashWindow>,
    /// Per-node down counter (overlapping windows nest). Allocated only
    /// when the plan schedules crashes; empty means "nobody ever down".
    down: Vec<u32>,
    /// Per-edge compound drop probability; empty when no drop rules.
    drop_p: Vec<f64>,
    /// Per-edge drop-decision streams, populated exactly for edges with a
    /// positive drop probability. Keyed by edge id (`"drop"` seed-stream
    /// children), so the decision sequence of an edge is the same whether
    /// the whole network or only its shard executes the sends.
    drop_rngs: Vec<Option<Box<Xoshiro256PlusPlus>>>,
    partitions: Vec<CompiledPartition>,
    storms: Vec<CompiledStorm>,
    pub(crate) stats: FaultStats,
}

impl FaultRuntime {
    /// Compiles a validated plan against `topo`; `seeds` must be the
    /// builder's master [`SeedStream`] (drop streams derive from its
    /// `"drop"` children, one per edge with a positive probability).
    pub(crate) fn compile(plan: &FaultPlan, topo: &Topology, seeds: &SeedStream) -> Self {
        let n = topo.node_count() as usize;
        let edge_count = topo.edge_count();
        let drop_p = if plan.drops.is_empty() {
            Vec::new()
        } else {
            let mut keep = vec![1.0f64; edge_count];
            for rule in &plan.drops {
                match rule.edges.mask(edge_count) {
                    None => keep.iter_mut().for_each(|k| *k *= 1.0 - rule.probability),
                    Some(mask) => {
                        for (k, covered) in keep.iter_mut().zip(mask) {
                            if covered {
                                *k *= 1.0 - rule.probability;
                            }
                        }
                    }
                }
            }
            keep.into_iter().map(|k| 1.0 - k).collect()
        };
        let partitions = plan
            .partitions
            .iter()
            .map(|p| {
                let mut member = vec![false; n];
                for &node in &p.nodes {
                    member[node as usize] = true;
                }
                CompiledPartition {
                    member,
                    from: p.from,
                    until: p.until,
                }
            })
            .collect();
        let storms = plan
            .storms
            .iter()
            .map(|s| CompiledStorm {
                member: s.edges.mask(edge_count),
                from: s.from,
                until: s.until,
                factor: s.factor,
            })
            .collect();
        let drop_rngs = drop_p
            .iter()
            .enumerate()
            .map(|(e, &p)| (p > 0.0).then(|| Box::new(seeds.stream("drop", e as u64))))
            .collect();
        Self {
            crashes: plan.crashes.clone(),
            down: if plan.crashes.is_empty() {
                Vec::new()
            } else {
                vec![0; n]
            },
            drop_p,
            drop_rngs,
            partitions,
            storms,
            stats: FaultStats::default(),
        }
    }

    /// The crash windows to prime as events (insertion order).
    pub(crate) fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Whether `node` is currently down.
    pub(crate) fn is_down(&self, node: usize) -> bool {
        // `down` is empty for crash-free plans (the common case at scale:
        // no per-node allocation, no memory traffic on the hot path); an
        // out-of-range index with crashes present must fail loudly.
        !self.down.is_empty() && self.down[node] > 0
    }

    pub(crate) fn on_crash(&mut self, node: usize) {
        self.down[node] += 1;
        self.stats.crashes += 1;
    }

    pub(crate) fn on_recover(&mut self, node: usize) {
        self.down[node] = self.down[node].saturating_sub(1);
        self.stats.recoveries += 1;
    }

    pub(crate) fn note_dropped_crash(&mut self) {
        self.stats.dropped_crash += 1;
    }

    /// Decides the fate of a message sent at `now` on `edge` from `src`
    /// to `dst`. Check order is fixed (partition → random drop → storms)
    /// so each edge's `"drop"` RNG stream is consumed deterministically:
    /// exactly one draw per send on an edge with a positive drop
    /// probability that was not already lost to a partition.
    pub(crate) fn on_send(&mut self, edge: usize, src: usize, dst: usize, now: f64) -> SendFate {
        for p in &self.partitions {
            if now >= p.from && now < p.until && (p.member[src] != p.member[dst]) {
                self.stats.dropped_partition += 1;
                return SendFate::DropPartition;
            }
        }
        if !self.drop_p.is_empty() {
            let p = self.drop_p[edge];
            if p > 0.0 {
                let rng = self.drop_rngs[edge]
                    .as_deref_mut()
                    .expect("positive-probability edge has a drop stream");
                if rng.uniform_f64() < p {
                    self.stats.dropped_random += 1;
                    return SendFate::DropRandom;
                }
            }
        }
        let mut stretch = 1.0;
        for s in &self.storms {
            if now >= s.from && now < s.until && s.member.as_ref().is_none_or(|m| m[edge]) {
                stretch *= s.factor;
            }
        }
        if stretch != 1.0 {
            self.stats.storm_deliveries += 1;
        }
        SendFate::Deliver { stretch }
    }

    /// Folds in `owner`, the runtime of the shard that ran nodes `lo..hi`
    /// and their out-edges `edges`: its stats, those nodes' down-state and
    /// those edges' drop streams.
    pub(crate) fn absorb_shard(
        &mut self,
        owner: &mut FaultRuntime,
        lo: usize,
        hi: usize,
        edges: impl Iterator<Item = EdgeId>,
    ) {
        self.stats.merge(&owner.stats);
        if !self.down.is_empty() {
            self.down[lo..hi].copy_from_slice(&owner.down[lo..hi]);
        }
        if !self.drop_rngs.is_empty() {
            for e in edges {
                self.drop_rngs[e.index()] = owner.drop_rngs[e.index()].take();
            }
        }
    }

    /// A static lower bound on the compound storm stretch any send on
    /// `edge` can ever receive: the product of all sub-unity factors whose
    /// storm covers the edge (as if they all overlapped). Used by the
    /// sharded kernel's lookahead; 1.0 when no storm can shrink delays.
    pub(crate) fn min_stretch(&self, edge: usize) -> f64 {
        self.storms
            .iter()
            .filter(|s| s.factor < 1.0 && s.member.as_ref().is_none_or(|m| m[edge]))
            .map(|s| s.factor)
            .product()
    }
}

impl fmt::Debug for FaultRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultRuntime")
            .field("crashes", &self.crashes.len())
            .field(
                "drop_edges",
                &self.drop_p.iter().filter(|&&p| p > 0.0).count(),
            )
            .field("partitions", &self.partitions.len())
            .field("storms", &self.storms.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> Topology {
        Topology::unidirectional_ring(n).unwrap()
    }

    fn seeds() -> SeedStream {
        SeedStream::new(0)
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.validate(&ring(3)).is_ok());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn builders_accumulate_rules() {
        let plan = FaultPlan::new()
            .crash_stop(0, 1.0)
            .crash_recover(1, 2.0, 3.0)
            .drop(EdgeSelector::All, 0.1)
            .partition(vec![0], 1.0, 2.0)
            .delay_storm(EdgeSelector::Edges(vec![0]), 0.0, 5.0, 4.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.crashes().len(), 2);
        assert!(plan.validate(&ring(3)).is_ok());
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let topo = ring(3);
        assert!(matches!(
            FaultPlan::new().crash_stop(9, 1.0).validate(&topo),
            Err(FaultPlanError::NodeOutOfRange { node: 9, nodes: 3 })
        ));
        assert!(matches!(
            FaultPlan::new().crash_recover(0, 2.0, 1.0).validate(&topo),
            Err(FaultPlanError::InvalidWindow { .. })
        ));
        assert!(matches!(
            FaultPlan::new().crash_stop(0, f64::NAN).validate(&topo),
            Err(FaultPlanError::InvalidTime { .. })
        ));
        assert!(matches!(
            FaultPlan::new()
                .drop(EdgeSelector::All, 1.5)
                .validate(&topo),
            Err(FaultPlanError::InvalidProbability { .. })
        ));
        assert!(matches!(
            FaultPlan::new()
                .drop(EdgeSelector::Edges(vec![7]), 0.5)
                .validate(&topo),
            Err(FaultPlanError::EdgeOutOfRange { edge: 7, edges: 3 })
        ));
        assert!(matches!(
            FaultPlan::new()
                .partition(vec![0], 3.0, 3.0)
                .validate(&topo),
            Err(FaultPlanError::InvalidWindow { .. })
        ));
        assert!(matches!(
            FaultPlan::new()
                .delay_storm(EdgeSelector::All, 0.0, 1.0, 0.0)
                .validate(&topo),
            Err(FaultPlanError::InvalidFactor { .. })
        ));
        // Errors render without panicking.
        for err in [
            FaultPlanError::NodeOutOfRange { node: 1, nodes: 1 },
            FaultPlanError::EdgeOutOfRange { edge: 1, edges: 1 },
            FaultPlanError::InvalidWindow {
                what: "w",
                from: 1.0,
                until: 0.0,
            },
            FaultPlanError::InvalidProbability { p: 2.0 },
            FaultPlanError::InvalidFactor { factor: -1.0 },
            FaultPlanError::InvalidTime {
                what: "t",
                value: f64::NAN,
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn infinite_partition_end_is_allowed() {
        let plan = FaultPlan::new().partition(vec![0], 1.0, f64::INFINITY);
        assert!(plan.validate(&ring(3)).is_ok());
    }

    #[test]
    fn churn_is_deterministic_and_sized() {
        let a = FaultPlan::churn(8, 4, 100.0, 5.0, 42);
        let b = FaultPlan::churn(8, 4, 100.0, 5.0, 42);
        assert_eq!(a, b);
        assert_eq!(a.crashes().len(), 4);
        for c in a.crashes() {
            assert!(c.node < 8);
            assert!((0.0..100.0).contains(&c.at));
            assert_eq!(c.recover_at, Some(c.at + 5.0));
        }
        assert_ne!(a, FaultPlan::churn(8, 4, 100.0, 5.0, 43));
        assert!(FaultPlan::churn(8, 0, 100.0, 5.0, 42).is_empty());
        // Zero-length outages yield a valid empty plan, not recover <= at.
        assert!(FaultPlan::churn(8, 4, 100.0, 0.0, 42).is_empty());
        assert!(FaultPlan::churn(8, 4, 100.0, -1.0, 42).is_empty());
        assert!(a.validate(&ring(8)).is_ok());
    }

    #[test]
    fn runtime_tracks_down_state() {
        let plan = FaultPlan::new().crash_recover(1, 1.0, 2.0);
        let mut rt = FaultRuntime::compile(&plan, &ring(3), &seeds());
        assert!(!rt.is_down(1));
        rt.on_crash(1);
        assert!(rt.is_down(1));
        assert!(!rt.is_down(0));
        // Overlapping windows nest.
        rt.on_crash(1);
        rt.on_recover(1);
        assert!(rt.is_down(1));
        rt.on_recover(1);
        assert!(!rt.is_down(1));
        assert_eq!(rt.stats.crashes, 2);
        assert_eq!(rt.stats.recoveries, 2);
    }

    #[test]
    fn partition_drops_only_cut_crossing_sends_inside_window() {
        let plan = FaultPlan::new().partition(vec![1], 1.0, 2.0);
        let mut rt = FaultRuntime::compile(&plan, &ring(3), &seeds());
        // Edge 0: n0 -> n1 crosses the cut.
        assert_eq!(rt.on_send(0, 0, 1, 1.5), SendFate::DropPartition);
        // Outside the window: delivered.
        assert_eq!(rt.on_send(0, 0, 1, 0.5), SendFate::Deliver { stretch: 1.0 });
        assert_eq!(rt.on_send(0, 0, 1, 2.0), SendFate::Deliver { stretch: 1.0 });
        // Edge 2: n2 -> n0 does not cross the cut.
        assert_eq!(rt.on_send(2, 2, 0, 1.5), SendFate::Deliver { stretch: 1.0 });
        assert_eq!(rt.stats.dropped_partition, 1);
    }

    #[test]
    fn drop_probability_extremes() {
        let always = FaultPlan::new().drop(EdgeSelector::All, 1.0);
        let mut rt = FaultRuntime::compile(&always, &ring(3), &seeds());
        for _ in 0..10 {
            assert_eq!(rt.on_send(0, 0, 1, 0.0), SendFate::DropRandom);
        }
        let never = FaultPlan::new().drop(EdgeSelector::All, 0.0);
        let mut rt = FaultRuntime::compile(&never, &ring(3), &seeds());
        for _ in 0..10 {
            assert_eq!(rt.on_send(0, 0, 1, 0.0), SendFate::Deliver { stretch: 1.0 });
        }
        assert_eq!(rt.stats.dropped_random, 0);
    }

    #[test]
    fn drop_rules_compound_per_edge() {
        let plan = FaultPlan::new()
            .drop(EdgeSelector::Edges(vec![0]), 0.5)
            .drop(EdgeSelector::Edges(vec![0]), 0.5);
        let rt = FaultRuntime::compile(&plan, &ring(3), &seeds());
        assert!((rt.drop_p[0] - 0.75).abs() < 1e-12);
        assert_eq!(rt.drop_p[1], 0.0);
    }

    #[test]
    fn storms_stretch_and_compound() {
        let plan = FaultPlan::new()
            .delay_storm(EdgeSelector::All, 1.0, 3.0, 2.0)
            .delay_storm(EdgeSelector::Edges(vec![0]), 2.0, 4.0, 5.0);
        let mut rt = FaultRuntime::compile(&plan, &ring(3), &seeds());
        assert_eq!(rt.on_send(0, 0, 1, 0.5), SendFate::Deliver { stretch: 1.0 });
        assert_eq!(rt.on_send(0, 0, 1, 1.5), SendFate::Deliver { stretch: 2.0 });
        assert_eq!(
            rt.on_send(0, 0, 1, 2.5),
            SendFate::Deliver { stretch: 10.0 }
        );
        assert_eq!(rt.on_send(1, 1, 2, 2.5), SendFate::Deliver { stretch: 2.0 });
        assert_eq!(rt.on_send(0, 0, 1, 3.5), SendFate::Deliver { stretch: 5.0 });
        assert_eq!(rt.stats.storm_deliveries, 4);
    }

    #[test]
    fn fault_stats_dropped_sums_losses() {
        let stats = FaultStats {
            dropped_crash: 2,
            dropped_partition: 3,
            dropped_random: 5,
            ..FaultStats::default()
        };
        assert_eq!(stats.dropped(), 10);
        assert_eq!(FaultStats::default().dropped(), 0);
    }

    #[test]
    fn outcome_class_names() {
        assert_eq!(OutcomeClass::Completed.as_str(), "completed");
        assert_eq!(OutcomeClass::Stalled.to_string(), "stalled");
        assert_eq!(OutcomeClass::WrongLeader.as_str(), "wrong-leader");
        assert_eq!(OutcomeClass::Decided.as_str(), "decided");
        assert_eq!(
            OutcomeClass::AgreementViolation.to_string(),
            "agreement-violation"
        );
        assert_eq!(
            OutcomeClass::ValidityViolation.as_str(),
            "validity-violation"
        );
    }

    #[test]
    fn outcome_class_violations_are_exactly_the_incorrect_results() {
        let violations: Vec<_> = OutcomeClass::ALL
            .into_iter()
            .filter(|c| c.is_violation())
            .collect();
        assert_eq!(
            violations,
            vec![
                OutcomeClass::WrongLeader,
                OutcomeClass::AgreementViolation,
                OutcomeClass::ValidityViolation,
            ]
        );
    }
}
