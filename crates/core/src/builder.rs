//! Fluent construction of [`Network`]s.
//!
//! The builder owns every knob of the model — topology, delay model(s),
//! clock population, processing model, FIFO-ness, master seed — and
//! optionally a declared [`NetworkClass`] that the configuration is
//! validated against at [`build`](NetworkBuilder::build) time, so an
//! experiment cannot silently hand an ABE algorithm a network stronger or
//! weaker than claimed.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use abe_sim::SeedStream;
use abe_telemetry::{Recording, RunRecorder};

use crate::adversary::AdversaryPlan;
use crate::class::NetworkClass;
use crate::clock::ClockSpec;
use crate::delay::{DelayModel, Deterministic, Exponential, SharedDelay};
use crate::error::{BuildError, InvalidParamError};
use crate::fault::{FaultPlan, FaultRuntime};
use crate::net::{ChannelState, CrossSends, Network, NodeSlot};
use crate::protocol::Protocol;
use crate::topology::Topology;

/// Builder for [`Network`].
///
/// # Examples
///
/// ```
/// use abe_core::{Ctx, InPort, NetworkBuilder, OutPort, Protocol, Topology};
/// use abe_core::delay::Exponential;
/// use abe_sim::RunLimits;
///
/// #[derive(Debug)]
/// struct Echo;
/// impl Protocol for Echo {
///     type Message = u32;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
///         ctx.send(OutPort(0), 1);
///     }
///     fn on_message(&mut self, _from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
///         if msg < 5 {
///             ctx.send(OutPort(0), msg + 1);
///         }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = NetworkBuilder::new(Topology::unidirectional_ring(3)?)
///     .delay(Exponential::from_mean(1.0)?)
///     .seed(7)
///     .build(|_| Echo)?;
/// let (report, _net) = net.run(RunLimits::unbounded());
/// assert!(report.outcome.is_quiescent());
/// assert_eq!(report.messages_sent, report.messages_delivered);
/// # Ok(())
/// # }
/// ```
pub struct NetworkBuilder {
    topo: Topology,
    delay: SharedDelay,
    edge_delays: Option<Vec<SharedDelay>>,
    clocks: ClockSpec,
    processing: SharedDelay,
    fifo: bool,
    seed: u64,
    tick_interval: f64,
    class: Option<NetworkClass>,
    record: Option<Recording>,
    fault: FaultPlan,
    adversary: AdversaryPlan,
    shards: u32,
}

impl NetworkBuilder {
    /// Starts a builder for the given topology with defaults:
    /// exponential delay of mean 1, perfect clocks, zero processing time,
    /// non-FIFO channels, seed 0, tick interval 1 local unit.
    pub fn new(topo: Topology) -> Self {
        Self {
            topo,
            delay: Arc::new(Exponential::from_mean(1.0).expect("1.0 is a valid mean")),
            edge_delays: None,
            clocks: ClockSpec::perfect(),
            processing: Arc::new(Deterministic::zero()),
            fifo: false,
            seed: 0,
            tick_interval: 1.0,
            class: None,
            record: None,
            fault: FaultPlan::new(),
            adversary: AdversaryPlan::none(),
            shards: 1,
        }
    }

    /// Sets the shard count used by [`Network::run_sharded`]: the node
    /// space is split into `shards` contiguous ranges, each with its own
    /// event queue, advanced in conservative time windows (see the
    /// [`shard`](crate::shard) module docs). `1` (the default) runs
    /// sequentially; the count is clamped to the node count.
    ///
    /// Shard count never influences random streams — every stream is
    /// keyed by node or edge id — so any shard count produces a
    /// [`NetworkReport`](crate::NetworkReport) equal to the sequential
    /// one.
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the delay model used by every edge.
    pub fn delay(mut self, model: impl DelayModel + 'static) -> Self {
        self.delay = Arc::new(model);
        self
    }

    /// Sets a shared delay model used by every edge.
    pub fn delay_shared(mut self, model: SharedDelay) -> Self {
        self.delay = model;
        self
    }

    /// Sets per-edge delay models (heterogeneous links).
    ///
    /// The list must have exactly one entry per topology edge, in edge-id
    /// order; validated at build time.
    pub fn edge_delays(mut self, models: Vec<SharedDelay>) -> Self {
        self.edge_delays = Some(models);
        self
    }

    /// Sets the clock population specification.
    pub fn clocks(mut self, spec: ClockSpec) -> Self {
        self.clocks = spec;
        self
    }

    /// Sets the local-event processing model (the `γ` of Definition 1).
    pub fn processing(mut self, model: impl DelayModel + 'static) -> Self {
        self.processing = Arc::new(model);
        self
    }

    /// Enables FIFO delivery per edge (default: non-FIFO, as the paper's
    /// election algorithm permits arbitrary reordering).
    pub fn fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Sets the master seed; all node/channel/clock streams derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the local-clock interval between ticks (in local seconds);
    /// validated at build time.
    pub fn tick_interval(mut self, interval: f64) -> Self {
        self.tick_interval = interval;
        self
    }

    /// Declares the network class this configuration must satisfy.
    pub fn class(mut self, class: NetworkClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Installs a fault-injection plan (crashes, drops, partitions, delay
    /// storms); validated against the topology at build time.
    ///
    /// The default (empty) plan injects nothing and leaves the simulation
    /// bit-identical to one built without this call.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Installs a budgeted scheduling adversary (see
    /// [`adversary`](crate::adversary)): the strategy chooses every
    /// channel delay, audited online against the plan's per-edge
    /// expected-delay bound. Composes with [`fault`](Self::fault) plans
    /// (drops decided first, storms stretch the granted delay).
    ///
    /// The auditor bounds the **granted** delays; with
    /// [`fifo(true)`](Self::fifo) the per-edge ordering clamp may still
    /// push an arrival later than granted (so delivered delays can
    /// exceed the audited means), and it neutralises reordering
    /// strategies by construction — adversarial FIFO violation is only
    /// meaningful on the default non-FIFO channels.
    ///
    /// The default (empty) plan intercepts nothing and leaves the
    /// simulation bit-identical to one built without this call.
    pub fn adversary(mut self, plan: AdversaryPlan) -> Self {
        self.adversary = plan;
        self
    }

    /// Enables execution tracing, retaining at most `capacity` event
    /// records (default 0 = disabled). Read back via
    /// [`Network::trace`](crate::Network::trace).
    ///
    /// Sugar for [`record`](Self::record) with
    /// `Recording::ring(capacity).payloads(true)`; `0` disables recording
    /// entirely.
    pub fn trace_capacity(self, capacity: usize) -> Self {
        let record = (capacity > 0).then(|| Recording::ring(capacity).payloads(true));
        Self { record, ..self }
    }

    /// Installs a telemetry [`Recording`] budget: every kernel event
    /// (dispatches, sends, deliveries, drops, faults, protocol marks) is
    /// recorded as a typed [`abe_telemetry::TraceRecord`]. Read back via
    /// [`Network::trace`](crate::Network::trace) /
    /// [`Network::telemetry`](crate::Network::telemetry).
    ///
    /// Recording is passive: it draws no randomness and never perturbs
    /// scheduling, so the run (and its report) is identical with recording
    /// on or off.
    pub fn record(mut self, recording: Recording) -> Self {
        self.record = Some(recording);
        self
    }

    /// Builds the network, instantiating one protocol per node via
    /// `factory(node_index)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the tick interval is not finite and positive,
    /// a per-edge delay list has the wrong length, or the declared
    /// [`NetworkClass`] is violated by the configuration.
    pub fn build<P, F>(self, mut factory: F) -> Result<Network<P>, BuildError>
    where
        P: Protocol,
        F: FnMut(usize) -> P,
    {
        if !(self.tick_interval.is_finite() && self.tick_interval > 0.0) {
            return Err(InvalidParamError::new(
                "tick_interval",
                "must be finite and positive",
                self.tick_interval,
            )
            .into());
        }
        let edge_count = self.topo.edge_count();
        if let Some(models) = &self.edge_delays {
            if models.len() != edge_count {
                return Err(BuildError::EdgeDelayCount {
                    supplied: models.len(),
                    edges: edge_count,
                });
            }
        }

        if let Some(class) = &self.class {
            let check = |delay: &SharedDelay| {
                class.validate(delay.as_ref(), &self.clocks, self.processing.as_ref())
            };
            match &self.edge_delays {
                Some(models) => models.iter().try_for_each(check)?,
                // A shared model is validated once, when some edge uses it.
                None if edge_count > 0 => check(&self.delay)?,
                None => {}
            }
        }

        self.fault.validate(&self.topo)?;

        // Every stream is keyed by `(domain, node or edge id)`, so the
        // draws do not depend on build order or on shard count.
        let seeds = SeedStream::new(self.seed);
        let nodes = (0..self.topo.node_count())
            .map(|i| {
                let clock = self
                    .clocks
                    .instantiate(&mut seeds.stream("clock", i.into()));
                NodeSlot::new(factory(i as usize), clock, seeds.stream("node", i.into()))
            })
            .collect();
        // Consuming processing models draw from one dedicated stream per
        // edge (keyed by edge id, so draws are shard-invariant);
        // non-consuming models (e.g. `Deterministic`) get only the scratch
        // stream, which they never read.
        let consumes = self.processing.consumes_rng();
        let channels = (0..edge_count as u64)
            .map(|e| {
                let delay = self
                    .edge_delays
                    .as_ref()
                    .map_or(&self.delay, |m| &m[e as usize]);
                ChannelState::new(
                    Arc::clone(delay),
                    seeds.stream("channel", e),
                    consumes.then(|| Box::new(seeds.stream("proc-edge", e))),
                )
            })
            .collect();
        let faults = FaultRuntime::compile(&self.fault, &self.topo, &seeds);
        // The adversary draws from its own dedicated child stream; stream
        // derivation is a pure hash, so an empty plan (compile → None)
        // leaves every other stream — and the whole run — untouched.
        let adversary = self
            .adversary
            .compile(edge_count, seeds.stream("adversary", 0));

        Ok(Network {
            topo: Arc::new(self.topo),
            nodes,
            clocks: self.clocks,
            channels,
            processing: self.processing,
            proc_rng: seeds.stream("processing", 0),
            fifo: self.fifo,
            tick_interval: self.tick_interval,
            counters: BTreeMap::new(),
            messages_sent: 0,
            messages_delivered: 0,
            ticks: 0,
            payload_bytes: 0,
            rec: self.record.map(|r| Box::new(RunRecorder::new(&r))),
            faults,
            adversary,
            shards: self.shards,
            shard_lo: 0,
            edge_ranks: None,
            outbox: Vec::new(),
            cross: CrossSends::new(Vec::new()),
            timing: None,
        })
    }
}

impl fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkBuilder")
            .field("nodes", &self.topo.node_count())
            .field("edges", &self.topo.edge_count())
            .field("delay", &self.delay)
            .field("clocks", &self.clocks)
            .field("fifo", &self.fifo)
            .field("seed", &self.seed)
            .field("tick_interval", &self.tick_interval)
            .field("class", &self.class)
            .field("fault", &self.fault)
            .field("adversary", &self.adversary)
            .field("shards", &self.shards)
            .finish()
    }
}
