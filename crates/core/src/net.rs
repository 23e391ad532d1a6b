//! The network runtime: wires protocols, channels, and clocks into an
//! [`abe_sim::Simulation`].
//!
//! Responsibilities:
//!
//! * deliver each sent message after an independent draw from the edge's
//!   delay model (non-FIFO by default — "the order of messages is arbitrary
//!   between any pair of nodes"), plus a processing-time draw (`γ`);
//! * drive each node's local clock ticks at its own bounded-drift rate,
//!   but only while the protocol [`wants_tick`](Protocol::wants_tick) —
//!   so networks quiesce once all activity ceases;
//! * aggregate message counts and experiment counters into a
//!   [`NetworkReport`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::Arc;

use abe_sim::{
    EventToken, QueueStats, RunLimits, RunOutcome, SimTime, Simulation, StepCtx, World,
    Xoshiro256PlusPlus,
};
use abe_telemetry::{RunRecorder, TraceEvent};

use crate::adversary::{AdversaryRuntime, AdversaryStats};
use crate::clock::{ClockSpec, LocalClock};
use crate::delay::SharedDelay;
use crate::fault::{FaultRuntime, FaultStats, SendFate};
use crate::protocol::{Ctx, InPort, Mark, Protocol};
use crate::topology::{EdgeId, NodeId, Topology};

/// Events driving a [`Network`].
#[derive(Debug, Clone)]
pub enum NetEvent<M> {
    /// Node start-up (dispatched once per node at time zero).
    Start(u32),
    /// A local clock tick at the given node.
    Tick(u32),
    /// Delivery of a message on the given edge.
    Deliver {
        /// The edge carrying the message.
        edge: u32,
        /// Declared wire size of the payload in bytes (0 for plain
        /// [`Ctx::send`]); carried so delivery-side trace records can
        /// stamp the size without consulting send-side state.
        size: u64,
        /// The payload.
        msg: M,
    },
    /// A scheduled node crash (from the fault plan).
    Crash(u32),
    /// A scheduled node recovery (from the fault plan).
    Recover(u32),
}

#[derive(Clone)]
pub(crate) struct NodeSlot<P> {
    pub(crate) proto: P,
    clock: LocalClock,
    rng: Xoshiro256PlusPlus,
    tick_token: Option<EventToken>,
    messages_sent: u64,
    messages_received: u64,
}

impl<P> NodeSlot<P> {
    pub(crate) fn new(proto: P, clock: LocalClock, rng: Xoshiro256PlusPlus) -> Self {
        Self {
            proto,
            clock,
            rng,
            tick_token: None,
            messages_sent: 0,
            messages_received: 0,
        }
    }
}

#[derive(Clone)]
pub(crate) struct ChannelState {
    pub(crate) delay: SharedDelay,
    pub(crate) rng: Xoshiro256PlusPlus,
    /// Dedicated processing-delay stream for this edge; `None` when the
    /// processing model does not consume randomness (see
    /// [`DelayModel::consumes_rng`](crate::delay::DelayModel::consumes_rng)).
    /// Keyed by edge id so the draw sequence is independent of which shard
    /// executes the edge.
    proc: Option<Box<Xoshiro256PlusPlus>>,
    last_arrival: SimTime,
    sent: u64,
}

impl ChannelState {
    pub(crate) fn new(
        delay: SharedDelay,
        rng: Xoshiro256PlusPlus,
        proc: Option<Box<Xoshiro256PlusPlus>>,
    ) -> Self {
        Self {
            delay,
            rng,
            proc,
            last_arrival: SimTime::ZERO,
            sent: 0,
        }
    }

    /// The next `k` delays [`Network::transmit`] will draw on this
    /// channel, in seconds and in draw order. Peeked from a *clone* of the
    /// channel stream: the real stream, and with it every delay the run
    /// actually uses, is untouched. Exact because delay models are
    /// stateless — the draws are a pure function of the stream.
    pub(crate) fn peek_delays(&self, k: u32) -> impl Iterator<Item = f64> + '_ {
        let mut rng = self.rng.clone();
        (0..k).map(move |_| self.delay.sample(&mut rng).as_secs())
    }
}

/// One edge whose next few delays are pre-drawn: a cross-shard out-edge
/// with no static lookahead, or a *feeder* — a shard-local in-edge, also
/// without one, of such an edge's source node.
#[derive(Clone)]
pub(crate) struct EdgeCredit {
    pub(crate) edge: u32,
    /// Pre-drawn delays the edge has not consumed yet.
    pub(crate) left: u32,
    /// Lower bound on the latency of the sends those delays will carry.
    pub(crate) bound: f64,
}

/// The source node of pre-drawn cross-shard out-edges. It can send on them
/// only while it handles an event, so a lower bound on its next event —
/// the events already scheduled for it, and the soonest a shard-local
/// neighbour could reach it with a new message — is added to their bounds.
#[derive(Clone)]
pub(crate) struct CrossSource {
    pub(crate) node: u32,
    /// Its pre-drawn cross-shard out-edges, as indices into the credits.
    pub(crate) out: Vec<usize>,
    /// Its feeders, as indices into the credits.
    pub(crate) feeders: Vec<usize>,
    /// Least static lookahead over its shard-local in-edges that have a
    /// positive one (`∞` if none).
    pub(crate) feed_static: f64,
    /// Times of the events scheduled for the node so far (start, ticks,
    /// deliveries, crash schedule), earliest first. Cancelled ticks stay —
    /// the bound only gets more careful — and the barriers prune the past.
    pub(crate) pending: BinaryHeap<Reverse<SimTime>>,
}

/// Send-side bookkeeping of one partition during a windowed pass (see
/// [`crate::shard`]). Empty and inert on a full network, where no send is
/// ever cross-shard.
#[derive(Clone)]
pub(crate) struct CrossSends {
    /// Every edge whose bound is pre-drawn, ascending by edge id. The
    /// shard's lookahead covers exactly the sends these edges have credit
    /// left for.
    pub(crate) credits: Vec<EdgeCredit>,
    /// The source nodes of the pre-drawn cross-shard out-edges, ascending.
    pub(crate) sources: Vec<CrossSource>,
    /// The furthest horizon any window has been granted so far: no shard
    /// has processed an event at or beyond it.
    pub(crate) horizon: f64,
    /// A credit was consumed since the last barrier (the pre-drawn bounds
    /// are stale).
    pub(crate) spent: bool,
    /// Some edge is out of credit: the next draw on it is not covered by
    /// the lookahead, so the shard must end its window.
    pub(crate) exhausted: bool,
    /// A cross-shard send arrived before `horizon` — possibly in the
    /// destination shard's past. The windowed pass must abort.
    pub(crate) late: bool,
}

impl CrossSends {
    /// Bookkeeping for the given sources (ascending by node), whose `out`
    /// and `feeders` still list edge ids: they are resolved to credit
    /// slots here. No edge has any credit yet: the first barrier pre-draws.
    pub(crate) fn new(mut sources: Vec<CrossSource>) -> Self {
        let mut edges: Vec<usize> = sources
            .iter()
            .flat_map(|s| s.out.iter().chain(&s.feeders).copied())
            .collect();
        edges.sort_unstable();
        for source in &mut sources {
            for edge in source.out.iter_mut().chain(&mut source.feeders) {
                *edge = edges.binary_search(edge).expect("listed above");
            }
        }
        Self {
            spent: !edges.is_empty(),
            credits: edges
                .into_iter()
                .map(|edge| EdgeCredit {
                    edge: edge as u32,
                    left: 0,
                    bound: 0.0,
                })
                .collect(),
            sources,
            horizon: f64::NEG_INFINITY,
            exhausted: false,
            late: false,
        }
    }

    /// Accounts one delay draw on `edge`, if its bound is pre-drawn.
    #[inline]
    fn spend(&mut self, edge: u32) {
        if let Ok(i) = self.credits.binary_search_by_key(&edge, |c| c.edge) {
            let left = &mut self.credits[i].left;
            *left = left.saturating_sub(1);
            self.spent = true;
            self.exhausted |= *left == 0;
        }
    }

    /// Notes an event scheduled for `node` at time `at`, if the node is
    /// the source of a pre-drawn cross-shard edge. Kept out of line: its
    /// callers are the send and tick hot paths, which skip it entirely on
    /// a network without pre-drawn edges.
    #[inline(never)]
    pub(crate) fn note_event(&mut self, node: u32, at: SimTime) {
        if let Ok(i) = self.sources.binary_search_by_key(&node, |s| s.node) {
            self.sources[i].pending.push(Reverse(at));
        }
    }
}

/// Canonical total order of same-time events, encoded into the queue's
/// 64-bit ordering key (see [`abe_sim::EventQueue::schedule_keyed`]):
/// kind in bits 61–63, entity id (node or edge) in bits 29–60, a per-entity
/// sequence number in bits 0–28. The order is a *deterministic function of
/// the event's identity*, never of scheduling order, which is what makes
/// sequential and sharded execution pop identical event sequences.
pub(crate) const KIND_START: u64 = 0;
pub(crate) const KIND_CRASH: u64 = 1;
pub(crate) const KIND_RECOVER: u64 = 2;
pub(crate) const KIND_TICK: u64 = 3;
pub(crate) const KIND_DELIVER: u64 = 4;

const KEY_SEQ_BITS: u32 = 29;

#[inline]
pub(crate) fn event_key(kind: u64, id: u32, seq: u64) -> u64 {
    debug_assert!(kind < 8, "event kind out of range");
    debug_assert!(seq < 1 << KEY_SEQ_BITS, "per-entity sequence overflow");
    (kind << 61) | (u64::from(id) << KEY_SEQ_BITS) | (seq & ((1 << KEY_SEQ_BITS) - 1))
}

/// Aggregated outcome of a network run.
///
/// Equality (`==`) compares every field except the *structure-dependent*
/// dead-entry skim counters of [`QueueStats`] (`front_dead` / `far_dead`):
/// those count internal queue maintenance work, which legitimately differs
/// between a sequential run (one queue) and a sharded run (one queue per
/// shard) that are otherwise event-for-event identical.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Why the simulation returned.
    pub outcome: RunOutcome,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
    /// Kernel events processed.
    pub events_processed: u64,
    /// Messages handed to channels.
    pub messages_sent: u64,
    /// Messages delivered to protocols.
    pub messages_delivered: u64,
    /// Messages still in flight when the run ended.
    pub in_flight: u64,
    /// Local clock ticks dispatched.
    pub ticks: u64,
    /// Data-plane payload bytes accounted via [`Ctx::send_sized`],
    /// accumulated at *send* time (like `messages_sent`) so the total is
    /// identical under sequential and sharded execution. Control-plane
    /// protocols that only use [`Ctx::send`] report zero.
    pub payload_bytes: u64,
    /// Kernel event-queue telemetry (scheduled/cancelled/popped) for the
    /// whole run, so harness output can report raw engine activity.
    pub queue_stats: QueueStats,
    /// Fault-injection telemetry (crashes, drops, storm deliveries); all
    /// zero when no fault plan was installed.
    pub faults: FaultStats,
    /// Scheduling-adversary auditor telemetry (intercepts, clamps, max
    /// per-edge empirical mean); all zero when no adversary was installed.
    pub adversary: AdversaryStats,
    /// Trace records observed by the recorder (0 when recording was off).
    /// Observability metadata: excluded from `==`, which compares what
    /// *happened* in the run, not how much of it was watched.
    pub trace_records: u64,
    /// Trace records evicted by the recorder's retention cap (0 when
    /// recording was off or unbounded). Excluded from `==` like
    /// [`trace_records`](Self::trace_records).
    pub trace_dropped: u64,
    /// Experiment counters accumulated via [`Ctx::count`].
    pub counters: BTreeMap<&'static str, u64>,
}

impl NetworkReport {
    /// Convenience accessor for a counter, defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl PartialEq for NetworkReport {
    fn eq(&self, other: &Self) -> bool {
        // Logical queue activity must match; the skim counters are
        // maintenance telemetry and excluded (see the type-level docs).
        let queue_eq = self.queue_stats.scheduled == other.queue_stats.scheduled
            && self.queue_stats.cancelled == other.queue_stats.cancelled
            && self.queue_stats.popped == other.queue_stats.popped;
        self.outcome == other.outcome
            && self.end_time == other.end_time
            && self.events_processed == other.events_processed
            && self.messages_sent == other.messages_sent
            && self.messages_delivered == other.messages_delivered
            && self.in_flight == other.in_flight
            && self.ticks == other.ticks
            && self.payload_bytes == other.payload_bytes
            && queue_eq
            && self.faults == other.faults
            && self.adversary == other.adversary
            && self.counters == other.counters
    }
}

/// Wall-clock telemetry of one sharded run, attached to the returned
/// [`Network`] by [`Network::run_sharded`] (absent after sequential runs).
///
/// Everything needed to say *why* a sharded run was slow, or why it fell
/// back, from recorded data: how the run split into windows and
/// single-steps, how evenly the work spread (`busy_nanos`), how much of it
/// was serial (`critical_path_nanos`), and what cut windows short. The
/// speedup itself is a wall-clock ratio against the sequential run, which
/// only a harness timing both can measure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardTiming {
    /// Number of shards the run actually used.
    pub shards: u32,
    /// Time windows executed (parallel phase).
    pub windows: u64,
    /// Events executed one-at-a-time because the lookahead was really
    /// zero (e.g. `Deterministic(0)` on a cross-shard edge).
    pub single_steps: u64,
    /// Windows a shard ended early because one of its cross-shard edges
    /// had used up its pre-drawn delays.
    pub credit_halts: u64,
    /// Per-shard busy time in nanoseconds (event processing only).
    pub busy_nanos: Vec<u64>,
    /// Sum over windows of the slowest shard's busy time: the part of
    /// the event processing no number of cores can overlap.
    pub critical_path_nanos: u64,
    /// Whether the run aborted the windowed pass and re-ran sequentially
    /// (stop request, event-budget overshoot, or a late cross-shard
    /// arrival mid-window).
    pub fell_back: bool,
    /// Whether the abort was a cross-shard send arriving before a horizon
    /// already granted — a delay beyond the pre-drawn ones undercut them.
    pub late_arrival_abort: bool,
}

/// A fully wired network of `P`-protocol nodes, ready to simulate.
///
/// Construct through [`NetworkBuilder`](crate::NetworkBuilder); run with
/// [`Network::run`].
pub struct Network<P: Protocol> {
    pub(crate) topo: Arc<Topology>,
    pub(crate) nodes: Vec<NodeSlot<P>>,
    /// The clock population every node's [`LocalClock`] was drawn from.
    pub(crate) clocks: ClockSpec,
    pub(crate) channels: Vec<ChannelState>,
    pub(crate) processing: SharedDelay,
    /// Scratch stream handed to non-consuming processing models (see
    /// [`ChannelState::proc`] for the consuming case). Never observable:
    /// models with `consumes_rng() == false` must not read it.
    pub(crate) proc_rng: Xoshiro256PlusPlus,
    pub(crate) fifo: bool,
    pub(crate) tick_interval: f64,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) messages_sent: u64,
    pub(crate) messages_delivered: u64,
    pub(crate) ticks: u64,
    pub(crate) payload_bytes: u64,
    /// The run recorder, when recording was requested (boxed: the
    /// recorder is cold state and the network is cloned per shard).
    pub(crate) rec: Option<Box<RunRecorder>>,
    pub(crate) faults: FaultRuntime,
    pub(crate) adversary: Option<AdversaryRuntime>,
    /// Requested shard count (from [`NetworkBuilder::shards`]); 1 = run
    /// sequentially even under [`Network::run_sharded`].
    pub(crate) shards: u32,
    /// First node id owned by this (partition of a) network; 0 for a full
    /// network. `nodes` holds the contiguous range starting here.
    pub(crate) shard_lo: u32,
    /// Global edge ids owned by this partition, sorted ascending; `None`
    /// when the network owns every edge (`channels[e]` is edge `e`).
    pub(crate) edge_ranks: Option<Vec<u32>>,
    /// Cross-shard sends produced during a window: `(arrival, key, edge,
    /// size, message)`, routed into the destination shard at the next
    /// barrier.
    pub(crate) outbox: Vec<(SimTime, u64, u32, u64, P::Message)>,
    /// Credit and horizon bookkeeping for cross-shard sends.
    pub(crate) cross: CrossSends,
    /// Telemetry of the last sharded run (set on the merged network).
    pub(crate) timing: Option<ShardTiming>,
}

impl<P: Protocol + Clone> Clone for Network<P>
where
    P::Message: Clone,
{
    fn clone(&self) -> Self {
        Self {
            topo: Arc::clone(&self.topo),
            nodes: self.nodes.clone(),
            clocks: self.clocks,
            channels: self.channels.clone(),
            processing: Arc::clone(&self.processing),
            proc_rng: self.proc_rng.clone(),
            fifo: self.fifo,
            tick_interval: self.tick_interval,
            counters: self.counters.clone(),
            messages_sent: self.messages_sent,
            messages_delivered: self.messages_delivered,
            ticks: self.ticks,
            payload_bytes: self.payload_bytes,
            rec: self.rec.clone(),
            faults: self.faults.clone(),
            adversary: self.adversary.clone(),
            shards: self.shards,
            shard_lo: self.shard_lo,
            edge_ranks: self.edge_ranks.clone(),
            outbox: self.outbox.clone(),
            cross: self.cross.clone(),
            timing: self.timing.clone(),
        }
    }
}

enum Dispatch<M> {
    Start,
    Tick,
    Message(InPort, M),
}

impl<P: Protocol> Network<P> {
    /// Index of `node` in this (partition of a) network's `nodes` vector.
    #[inline]
    pub(crate) fn node_slot(&self, node: u32) -> usize {
        (node - self.shard_lo) as usize
    }

    /// Index of `edge`'s channel in this (partition of a) network's
    /// `channels` vector.
    #[inline]
    pub(crate) fn channel_slot(&self, edge: usize) -> usize {
        match &self.edge_ranks {
            None => edge,
            Some(ranks) => ranks
                .binary_search(&(edge as u32))
                .expect("edge not owned by this shard"),
        }
    }

    /// Whether `node` is owned by this partition (always true for a full
    /// network).
    #[inline]
    pub(crate) fn owns_node(&self, node: u32) -> bool {
        (node.wrapping_sub(self.shard_lo) as usize) < self.nodes.len()
    }

    /// Telemetry of the last [`run_sharded`](Network::run_sharded) call,
    /// attached to the returned network; `None` after sequential runs.
    pub fn shard_timing(&self) -> Option<&ShardTiming> {
        self.timing.as_ref()
    }

    /// The retained execution trace, if recording was enabled via
    /// [`NetworkBuilder::record`](crate::NetworkBuilder::record) (or its
    /// [`trace_capacity`](crate::NetworkBuilder::trace_capacity) sugar).
    ///
    /// Yields typed [`TraceRecord`](abe_telemetry::TraceRecord)s, oldest
    /// first, bounded by the recording's retention cap. `Display` on a
    /// record's event reproduces the historical string-trace lines
    /// (`"start n0"`, `"deliver n0 -> n1: ()"`, …).
    pub fn trace(&self) -> impl Iterator<Item = &abe_telemetry::TraceRecord> {
        self.rec.iter().flat_map(|r| r.records())
    }

    /// The run recorder, when recording was enabled: retained records,
    /// seen/dropped counts, and the optional histogram aggregate.
    pub fn telemetry(&self) -> Option<&RunRecorder> {
        self.rec.as_deref()
    }

    /// Detaches the run recorder from the network, leaving recording
    /// disabled. Runner layers use this to hand the captured telemetry to
    /// their outcome structs without cloning the record buffer.
    pub fn take_telemetry(&mut self) -> Option<Box<RunRecorder>> {
        self.rec.take()
    }

    /// The topology this network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Shared access to the protocol state of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &P {
        &self.nodes[i].proto
    }

    /// Iterates over all protocol states in node order.
    pub fn protocols(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter().map(|s| &s.proto)
    }

    /// Consumes the network, returning the protocol states in node order.
    ///
    /// The clone-free way to claim a protocol's final state after a
    /// run (instead of cloning out of [`Network::node`]).
    pub fn into_protocols(self) -> Vec<P> {
        // Moved, not collected in place: that would keep the much wider
        // node array's block around them, which fragments the malloc
        // arenas over thousands of small runs.
        let mut protos = Vec::with_capacity(self.nodes.len());
        protos.extend(self.nodes.into_iter().map(|s| s.proto));
        protos
    }

    /// Messages sent by node `i` so far.
    pub fn node_messages_sent(&self, i: usize) -> u64 {
        self.nodes[i].messages_sent
    }

    /// Messages received by node `i` so far.
    pub fn node_messages_received(&self, i: usize) -> u64 {
        self.nodes[i].messages_received
    }

    /// Runs the network from time zero until quiescence, a stop request,
    /// or a limit; returns the report and the final network state.
    ///
    /// Quiescence means: no messages in flight *and* no node wants ticks.
    pub fn run(self, limits: RunLimits) -> (NetworkReport, Network<P>) {
        let n = self.topo.node_count();
        let mut sim = Simulation::new(self);
        for i in 0..n {
            sim.prime_keyed(
                SimTime::ZERO,
                event_key(KIND_START, i, 0),
                NetEvent::Start(i),
            );
        }
        // Prime the fault schedule. Crash/recover events order *before*
        // same-time ticks and deliveries by key kind, so a crash at t = 0
        // still lets `on_start` run first (start < crash by kind).
        let windows: Vec<_> = sim.world().faults.crash_windows().to_vec();
        for (w_idx, w) in windows.into_iter().enumerate() {
            let seq = w_idx as u64;
            sim.prime_keyed(
                SimTime::from_secs(w.at),
                event_key(KIND_CRASH, w.node, seq),
                NetEvent::Crash(w.node),
            );
            if let Some(recover_at) = w.recover_at {
                sim.prime_keyed(
                    SimTime::from_secs(recover_at),
                    event_key(KIND_RECOVER, w.node, seq),
                    NetEvent::Recover(w.node),
                );
            }
        }
        let kernel_report = sim.run(limits);
        let end_time = sim.now();
        let events_processed = sim.events_processed();
        let mut net = sim.into_world();
        let report = NetworkReport {
            outcome: kernel_report.outcome,
            end_time,
            events_processed,
            messages_sent: net.messages_sent,
            messages_delivered: net.messages_delivered,
            in_flight: net.messages_sent - net.messages_delivered - net.faults.stats.dropped(),
            ticks: net.ticks,
            payload_bytes: net.payload_bytes,
            queue_stats: kernel_report.queue_stats,
            faults: net.faults.stats,
            adversary: net
                .adversary
                .as_ref()
                .map_or_else(AdversaryStats::default, AdversaryRuntime::stats),
            trace_records: net.rec.as_ref().map_or(0, |r| r.seen()),
            trace_dropped: net.rec.as_ref().map_or(0, |r| r.dropped()),
            // The report takes ownership of the accumulated counters; the
            // returned network keeps the protocol states but no longer
            // carries them (they have no accessor on `Network` anyway).
            counters: std::mem::take(&mut net.counters),
        };
        (report, net)
    }

    /// Dispatches one protocol handler and applies its effects.
    fn dispatch(
        &mut self,
        step: &mut StepCtx<'_, NetEvent<P::Message>>,
        node_index: u32,
        kind: Dispatch<P::Message>,
    ) {
        let node_id = NodeId::new(node_index);
        let out_degree = self.topo.out_degree(node_id);
        let in_degree = self.topo.in_degree(node_id);
        let network_size = self.topo.node_count();

        let local = self.node_slot(node_index);
        let (outbox, counters, marks, payload_bytes, stop) = {
            let reply_ports = self.topo.reply_ports(node_id);
            let slot = &mut self.nodes[local];
            let local_time = slot.clock.advance_to(step.now());
            let mut ctx = Ctx::new(
                local_time,
                network_size,
                out_degree,
                in_degree,
                reply_ports,
                &mut slot.rng,
            );
            match kind {
                Dispatch::Start => slot.proto.on_start(&mut ctx),
                Dispatch::Tick => slot.proto.on_tick(&mut ctx),
                Dispatch::Message(port, msg) => slot.proto.on_message(port, msg, &mut ctx),
            }
            ctx.into_effects()
        };

        for (port, msg, bytes) in outbox {
            self.transmit(step, node_id, port.0, msg, bytes);
        }
        // Marks trail the dispatch's send records, in call order.
        if let Some(r) = self.rec.as_deref_mut() {
            for mark in marks {
                r.emit(match mark {
                    Mark::State(to) => TraceEvent::StateChange {
                        node: node_index,
                        to,
                    },
                    Mark::Decide(value) => TraceEvent::Decide {
                        node: node_index,
                        value,
                    },
                });
            }
        }
        for (name, amount) in counters {
            *self.counters.entry(name).or_insert(0) += amount;
        }
        self.payload_bytes += payload_bytes;
        if stop {
            step.request_stop();
        }
        self.sync_tick(step, node_index);
    }

    /// Samples delays and schedules the delivery of one message.
    fn transmit(
        &mut self,
        step: &mut StepCtx<'_, NetEvent<P::Message>>,
        src: NodeId,
        port: usize,
        msg: P::Message,
        size: u64,
    ) {
        let edge = self.topo.out_edges(src)[port];
        let dst = self.topo.edge(edge).dst;
        let src_local = self.node_slot(src.index() as u32);
        let cross = !self.owns_node(dst.index() as u32);
        let channel_slot = self.channel_slot(edge.index());
        let channel = &mut self.channels[channel_slot];
        // Delay and processing draws happen before the fault verdict, so
        // the channel/processing RNG streams advance identically whether a
        // message is dropped or not. Consuming processing models draw from
        // the edge's dedicated stream (shard-invariant); non-consuming
        // models get the never-read scratch stream.
        let channel_delay = channel.delay.sample(&mut channel.rng);
        if !self.cross.credits.is_empty() {
            // Every draw on a pre-drawn edge uses up one of its delays,
            // dropped sends included: the draw precedes the verdict. (The
            // list is empty on a full network, and in a partition whose
            // cross-shard edges all have a static lookahead.)
            self.cross.spend(edge.index() as u32);
        }
        let proc_delay = match channel.proc.as_deref_mut() {
            Some(rng) => self.processing.sample(rng),
            None => self.processing.sample(&mut self.proc_rng),
        };
        let fate =
            self.faults
                .on_send(edge.index(), src.index(), dst.index(), step.now().as_secs());
        // The per-edge send sequence feeds the delivery's ordering key;
        // dropped sends consume a sequence number too, keeping the key of
        // every *delivered* message independent of fault verdicts ordering.
        let send_seq = channel.sent;
        let stretch = match fate {
            SendFate::Deliver { stretch } => stretch,
            SendFate::DropPartition | SendFate::DropRandom => {
                // Sent but lost in transit: the send is accounted, the
                // delivery never scheduled; FaultStats carries the loss.
                // The drop verdict precedes the adversary hook, so no
                // granted delay exists — the trace carries only the drop
                // record (no `Send`).
                channel.sent += 1;
                self.messages_sent += 1;
                self.nodes[src_local].messages_sent += 1;
                if let Some(r) = self.rec.as_deref_mut() {
                    let (edge, src, dst) =
                        (edge.index() as u32, src.index() as u32, dst.index() as u32);
                    r.emit(if fate == SendFate::DropPartition {
                        TraceEvent::DropPartition {
                            edge,
                            src,
                            dst,
                            seq: send_seq,
                            size,
                        }
                    } else {
                        TraceEvent::DropRandom {
                            edge,
                            src,
                            dst,
                            seq: send_seq,
                            size,
                        }
                    });
                }
                return;
            }
        };
        // Adversary hook: a scheduling adversary replaces the sampled
        // channel delay for messages that will be delivered, audited
        // against its per-edge budget. Storm stretch applies on top (the
        // auditor bounds the adversary, not the fault plan).
        let channel_delay = match self.adversary.as_mut() {
            Some(adv) => {
                let nodes = &self.nodes;
                let heat = |i: u32| nodes[i as usize].proto.heat();
                adv.intercept(
                    edge.index(),
                    src.index() as u32,
                    dst.index() as u32,
                    step.now().as_secs(),
                    channel_delay,
                    &heat,
                    self.topo.node_count(),
                )
            }
            None => channel_delay,
        };
        let mut arrival = step.now() + channel_delay * stretch + proc_delay;
        if self.fifo && arrival < channel.last_arrival {
            arrival = channel.last_arrival;
        }
        channel.last_arrival = arrival;
        channel.sent += 1;
        self.messages_sent += 1;
        self.nodes[src_local].messages_sent += 1;
        if let Some(r) = self.rec.as_deref_mut() {
            // `channel_delay` here is the *granted* delay: post-adversary,
            // pre-storm-stretch — exactly what Definition 1 bounds in
            // expectation and what `BudgetAuditor` audits.
            r.emit(TraceEvent::Send {
                edge: edge.index() as u32,
                src: src.index() as u32,
                dst: dst.index() as u32,
                seq: send_seq,
                size,
                delay: channel_delay.as_secs(),
            });
        }
        let key = event_key(KIND_DELIVER, edge.index() as u32, send_seq);
        if !cross {
            step.schedule_at_keyed(
                arrival,
                key,
                NetEvent::Deliver {
                    edge: edge.index() as u32,
                    size,
                    msg,
                },
            );
            if !self.cross.sources.is_empty() {
                self.cross.note_event(dst.index() as u32, arrival);
            }
        } else {
            // Cross-shard send: held in the outbox and routed into the
            // destination shard's queue at the next window barrier. The
            // key makes insertion order irrelevant. The lookahead bounds
            // only the pre-drawn delays, so an arrival before a horizon
            // already granted is detected here, not ruled out.
            self.cross.late |= arrival.as_secs() < self.cross.horizon;
            self.outbox
                .push((arrival, key, edge.index() as u32, size, msg));
        }
    }

    /// Ensures the node's tick schedule matches its `wants_tick` state.
    fn sync_tick(&mut self, step: &mut StepCtx<'_, NetEvent<P::Message>>, node_index: u32) {
        let local = self.node_slot(node_index);
        let slot = &mut self.nodes[local];
        let wants = slot.proto.wants_tick();
        match (wants, slot.tick_token) {
            (true, None) => {
                let stride = slot.proto.tick_stride(&mut slot.rng).max(1);
                // Under wandering drift the rate is re-drawn once per
                // stride; rates stay within the clock bounds throughout.
                let interval = slot.clock.real_interval(
                    &self.clocks,
                    self.tick_interval * stride as f64,
                    &mut slot.rng,
                );
                let at = step.now() + interval;
                let token = step.schedule_at_keyed(
                    at,
                    event_key(KIND_TICK, node_index, 0),
                    NetEvent::Tick(node_index),
                );
                slot.tick_token = Some(token);
                if !self.cross.sources.is_empty() {
                    self.cross.note_event(node_index, at);
                }
            }
            (false, Some(token)) => {
                step.cancel(token);
                slot.tick_token = None;
            }
            _ => {}
        }
    }

    /// Number of messages sent over `edge` so far.
    pub fn edge_messages(&self, edge: EdgeId) -> u64 {
        self.channels[edge.index()].sent
    }
}

impl<P: Protocol> World for Network<P> {
    type Event = NetEvent<P::Message>;

    fn handle(&mut self, step: &mut StepCtx<'_, Self::Event>, event: Self::Event) {
        // Open the dispatch's trace stamp: `(now, key)` identify the
        // kernel event being handled, identically in sequential and
        // sharded execution (keys encode event identity, not order).
        if let Some(r) = self.rec.as_deref_mut() {
            r.begin(step.now(), step.key());
        }
        match event {
            NetEvent::Start(i) => {
                if let Some(r) = self.rec.as_deref_mut() {
                    r.emit(TraceEvent::Start { node: i });
                }
                if self.faults.is_down(i as usize) {
                    return;
                }
                self.dispatch(step, i, Dispatch::Start);
            }
            NetEvent::Tick(i) => {
                if let Some(r) = self.rec.as_deref_mut() {
                    r.emit(TraceEvent::Tick { node: i });
                }
                let local = self.node_slot(i);
                self.nodes[local].tick_token = None;
                // Defensive: crashes cancel the pending tick, so a tick
                // firing on a down node should be impossible.
                if self.faults.is_down(i as usize) {
                    return;
                }
                self.ticks += 1;
                self.dispatch(step, i, Dispatch::Tick);
            }
            NetEvent::Deliver { edge, size, msg } => {
                let eid = EdgeId_from(edge);
                let e = self.topo.edge(eid);
                let dst = e.dst;
                let src = e.src;
                if self.faults.is_down(dst.index()) {
                    // The destination is crashed: the message is lost, not
                    // delivered — counted so telemetry still balances.
                    if let Some(r) = self.rec.as_deref_mut() {
                        // The deliver key embeds the per-edge send seq.
                        let seq = step.key() & ((1 << KEY_SEQ_BITS) - 1);
                        r.emit(TraceEvent::DropCrash {
                            edge,
                            src: src.index() as u32,
                            dst: dst.index() as u32,
                            seq,
                            size,
                        });
                    }
                    self.faults.note_dropped_crash();
                    return;
                }
                if let Some(r) = self.rec.as_deref_mut() {
                    let seq = step.key() & ((1 << KEY_SEQ_BITS) - 1);
                    let payload = r.payload(&msg);
                    r.emit(TraceEvent::Deliver {
                        edge,
                        src: src.index() as u32,
                        dst: dst.index() as u32,
                        seq,
                        size,
                        payload,
                    });
                }
                let port = InPort(self.topo.in_port(eid));
                self.messages_delivered += 1;
                let local = self.node_slot(dst.index() as u32);
                self.nodes[local].messages_received += 1;
                self.dispatch(step, dst.index() as u32, Dispatch::Message(port, msg));
            }
            NetEvent::Crash(i) => {
                if let Some(r) = self.rec.as_deref_mut() {
                    r.emit(TraceEvent::Crash { node: i });
                }
                // Freeze the node: cancel its pending tick (visible in the
                // queue's cancelled counter) and mark it down.
                let local = self.node_slot(i);
                if let Some(token) = self.nodes[local].tick_token.take() {
                    step.cancel(token);
                }
                self.faults.on_crash(i as usize);
            }
            NetEvent::Recover(i) => {
                if let Some(r) = self.rec.as_deref_mut() {
                    r.emit(TraceEvent::Recover { node: i });
                }
                self.faults.on_recover(i as usize);
                if !self.faults.is_down(i as usize) {
                    // Resume ticking if the (frozen) protocol wants it.
                    self.sync_tick(step, i);
                }
            }
        }
    }
}

// EdgeId has no public raw constructor (indices are issued by Topology);
// the runtime reconstructs ids from its own events, which always hold
// valid indices for the owned topology.
#[allow(non_snake_case)]
fn EdgeId_from(raw: u32) -> EdgeId {
    // Safety of representation: Topology hands out dense indices starting
    // at zero; NetEvent::Deliver is only constructed from those.
    crate::topology::edge_id_from_raw(raw)
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Network<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("edges", &self.channels.len())
            .field("messages_sent", &self.messages_sent)
            .field("messages_delivered", &self.messages_delivered)
            .field("ticks", &self.ticks)
            .finish()
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    /// Pins the per-node and per-edge footprint of the runtime: a field
    /// added to either path shows up as an edit here.
    #[test]
    fn per_node_and_per_edge_state_stay_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<LocalClock>(), 24);
        assert!(size_of::<ChannelState>() <= 72);
        assert!(size_of::<NodeSlot<[u64; 5]>>() <= 136);
    }

    /// The builder writes every node slot and channel from the stream
    /// keyed by its node or edge id, and gives each channel the model
    /// listed for its edge — on the branches a shared-delay ring never
    /// takes: per-edge models, a consuming processing model and drifting
    /// clocks.
    #[test]
    fn build_draws_every_slot_from_its_keyed_stream() {
        use crate::builder::NetworkBuilder;
        use crate::clock::DriftMode;
        use crate::delay::{Exponential, Uniform};
        use crate::protocol::Ctx;
        use crate::Topology;
        use abe_sim::SeedStream;

        #[derive(Debug)]
        struct Idle;
        impl Protocol for Idle {
            type Message = ();
            fn on_message(&mut self, _from: InPort, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
        }

        let seed = 42;
        let topo = Topology::bidirectional_ring(5).unwrap();
        let models: Vec<SharedDelay> = (0..topo.edge_count())
            .map(|e| Arc::new(Uniform::new(0.5, 1.0 + e as f64).unwrap()) as SharedDelay)
            .collect();
        let spec = ClockSpec::new(0.5, 2.0, DriftMode::Wander).unwrap();
        let net = NetworkBuilder::new(topo)
            .edge_delays(models.clone())
            .processing(Exponential::from_mean(0.1).unwrap())
            .clocks(spec)
            .seed(seed)
            .build(|_| Idle)
            .unwrap();

        let seeds = SeedStream::new(seed);
        assert_eq!(net.nodes.len(), 5);
        for (i, slot) in net.nodes.iter().enumerate() {
            let i = i as u64;
            assert_eq!(slot.rng, seeds.stream("node", i));
            assert_eq!(slot.clock, spec.instantiate(&mut seeds.stream("clock", i)));
        }
        assert_eq!(net.channels.len(), models.len());
        for (e, (chan, model)) in net.channels.iter().zip(&models).enumerate() {
            let e = e as u64;
            assert!(
                Arc::ptr_eq(&chan.delay, model),
                "edge {e} holds its own model"
            );
            assert_eq!(chan.rng, seeds.stream("channel", e));
            assert_eq!(chan.proc.as_deref(), Some(&seeds.stream("proc-edge", e)));
        }
        assert_eq!(net.proc_rng, seeds.stream("processing", 0));
    }
}

#[cfg(test)]
mod tick_tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::delay::Deterministic;
    use crate::protocol::{Ctx, OutPort};
    use crate::Topology;
    use abe_sim::RunLimits;

    /// Ticks `limit` times with a fixed stride, recording tick times.
    #[derive(Debug)]
    struct Strider {
        stride: u64,
        remaining: u32,
        tick_times: Vec<f64>,
    }

    impl Protocol for Strider {
        type Message = ();
        fn on_message(&mut self, _from: InPort, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
        fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.remaining -= 1;
            self.tick_times.push(ctx.local_time());
        }
        fn wants_tick(&self) -> bool {
            self.remaining > 0
        }
        fn tick_stride(&mut self, _rng: &mut Xoshiro256PlusPlus) -> u64 {
            self.stride
        }
    }

    fn run_strider(stride: u64, ticks: u32) -> Vec<f64> {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(1).unwrap())
            .delay(Deterministic::zero())
            .build(|_| Strider {
                stride,
                remaining: ticks,
                tick_times: Vec::new(),
            })
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        // Take ownership of the final state instead of cloning mid-run
        // telemetry out of a borrowed node.
        net.into_protocols().swap_remove(0).tick_times
    }

    #[test]
    fn stride_one_ticks_every_interval() {
        let times = run_strider(1, 5);
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn stride_k_ticks_every_k_intervals() {
        let times = run_strider(4, 3);
        assert_eq!(times, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    fn stride_zero_is_clamped_to_one() {
        let times = run_strider(0, 2);
        assert_eq!(times, vec![1.0, 2.0]);
    }

    /// Uses the reply port to bounce a message back where it came from.
    #[derive(Debug)]
    struct Bouncer {
        serve: bool,
        bounces: u32,
        got_back: u32,
    }

    impl Protocol for Bouncer {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.serve {
                for p in 0..ctx.out_degree() {
                    ctx.send(OutPort(p), 0);
                }
            }
        }
        fn on_message(&mut self, from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if self.serve {
                self.got_back += 1;
            } else if msg < self.bounces {
                let back = ctx.reply_port(from).expect("symmetric topology");
                ctx.send(back, msg + 1);
            }
        }
    }

    #[test]
    fn reply_ports_route_back_to_sender() {
        let net = NetworkBuilder::new(Topology::star(5).unwrap())
            .delay(Deterministic::new(1.0).unwrap())
            .build(|i| Bouncer {
                serve: i == 0,
                bounces: 1,
                got_back: 0,
            })
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        // Hub sent 4, each leaf bounced once back to the hub.
        assert_eq!(net.node(0).got_back, 4);
        assert_eq!(report.messages_sent, 8);
    }

    /// Every event kind advances the local clock before dispatch.
    #[derive(Debug)]
    struct ClockWatcher {
        fire: bool,
        seen: Vec<f64>,
    }

    impl Protocol for ClockWatcher {
        type Message = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.seen.push(ctx.local_time());
            if self.fire {
                ctx.send(OutPort(0), ());
            }
        }
        fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
            self.seen.push(ctx.local_time());
        }
    }

    #[test]
    fn local_time_advances_with_delivery() {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(2.5).unwrap())
            .build(|i| ClockWatcher {
                fire: i == 0,
                seen: Vec::new(),
            })
            .unwrap();
        let (_, net) = net.run(RunLimits::unbounded());
        assert_eq!(net.node(0).seen, vec![0.0]);
        assert_eq!(net.node(1).seen, vec![0.0, 2.5]);
    }

    #[test]
    fn edge_message_counters_track_per_channel() {
        let topo = Topology::unidirectional_ring(2).unwrap();
        let edges: Vec<_> = topo.edges().map(|(id, _)| id).collect();
        let net = NetworkBuilder::new(topo)
            .delay(Deterministic::new(1.0).unwrap())
            .build(|i| ClockWatcher {
                fire: i == 0,
                seen: Vec::new(),
            })
            .unwrap();
        let (_, net) = net.run(RunLimits::unbounded());
        assert_eq!(net.edge_messages(edges[0]), 1);
        assert_eq!(net.edge_messages(edges[1]), 0);
    }

    #[test]
    fn tracing_records_events_in_order() {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(1.0).unwrap())
            .trace_capacity(64)
            .build(|i| ClockWatcher {
                fire: i == 0,
                seen: Vec::new(),
            })
            .unwrap();
        let (_, net) = net.run(RunLimits::unbounded());
        let lines: Vec<String> = net.trace().map(|r| r.event.to_string()).collect();
        assert_eq!(
            lines,
            vec![
                "start n0",
                "send n0 -> n1",
                "start n1",
                "deliver n0 -> n1: ()",
            ]
        );
        // Timestamps are monotone.
        let times: Vec<f64> = net.trace().map(|r| r.time.as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Records of one dispatch share its (time, key) stamp with
        // consecutive sub indices: `start n0` and its send.
        let stamps: Vec<(u64, u32)> = net.trace().map(|r| (r.key, r.sub)).collect();
        assert_eq!(stamps[0].0, stamps[1].0);
        assert_eq!((stamps[0].1, stamps[1].1), (0, 1));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(1.0).unwrap())
            .build(|i| ClockWatcher {
                fire: i == 0,
                seen: Vec::new(),
            })
            .unwrap();
        let (_, net) = net.run(RunLimits::unbounded());
        assert_eq!(net.trace().count(), 0);
    }

    #[test]
    fn trace_capacity_bounds_retention() {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(1.0).unwrap())
            .trace_capacity(1)
            .build(|i| ClockWatcher {
                fire: i == 0,
                seen: Vec::new(),
            })
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        // Only the newest record is retained; evictions are counted.
        assert_eq!(net.trace().count(), 1);
        assert_eq!(
            net.trace().next().unwrap().event.to_string(),
            "deliver n0 -> n1: ()"
        );
        let rec = net.telemetry().expect("recording enabled");
        assert_eq!(rec.seen(), 4);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(report.trace_records, 4);
        assert_eq!(report.trace_dropped, 3);
    }

    #[test]
    fn shared_processing_model_is_applied_per_delivery() {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(1.0).unwrap())
            .processing(Deterministic::new(0.25).unwrap())
            .build(|i| ClockWatcher {
                fire: i == 0,
                seen: Vec::new(),
            })
            .unwrap();
        let (_, net) = net.run(RunLimits::unbounded());
        assert_eq!(net.node(1).seen, vec![0.0, 1.25]);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::delay::Deterministic;
    use crate::fault::{EdgeSelector, FaultPlan};
    use crate::protocol::{Ctx, OutPort};
    use crate::Topology;
    use abe_sim::RunLimits;

    /// Sends one ping per tick forever; receivers record arrival times.
    #[derive(Debug)]
    struct Ticker {
        source: bool,
        budget: u32,
        seen: Vec<f64>,
    }

    impl Protocol for Ticker {
        type Message = ();
        fn on_tick(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.budget -= 1;
            ctx.send(OutPort(0), ());
        }
        fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
            self.seen.push(ctx.local_time());
        }
        fn wants_tick(&self) -> bool {
            self.source && self.budget > 0
        }
    }

    fn ticker_net(plan: FaultPlan, budget: u32) -> Network<Ticker> {
        NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(0.25).unwrap())
            .fault(plan)
            .build(|i| Ticker {
                source: i == 0,
                budget,
                seen: Vec::new(),
            })
            .unwrap()
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let without = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(0.25).unwrap())
            .seed(9)
            .build(|i| Ticker {
                source: i == 0,
                budget: 5,
                seen: Vec::new(),
            })
            .unwrap();
        let with = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(0.25).unwrap())
            .seed(9)
            .fault(FaultPlan::new())
            .build(|i| Ticker {
                source: i == 0,
                budget: 5,
                seen: Vec::new(),
            })
            .unwrap();
        let (a, na) = without.run(RunLimits::unbounded());
        let (b, nb) = with.run(RunLimits::unbounded());
        assert_eq!(a, b);
        assert_eq!(na.node(1).seen, nb.node(1).seen);
        assert_eq!(a.faults, crate::fault::FaultStats::default());
    }

    #[test]
    fn crashed_destination_loses_messages_and_accounting_balances() {
        // Node 1 is down for t in [1, 2): pings arriving in that window
        // (sent at 0.75..1.75, arriving 0.25 later) are lost.
        let plan = FaultPlan::new().crash_recover(1, 1.0, 2.0);
        let (report, net) = ticker_net(plan, 8).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.recoveries, 1);
        assert!(report.faults.dropped_crash > 0);
        assert_eq!(report.messages_sent, 8);
        assert_eq!(report.messages_delivered, 8 - report.faults.dropped_crash);
        assert_eq!(report.in_flight, 0);
        // No arrival timestamp falls inside the down window.
        assert!(net.node(1).seen.iter().all(|&t| !(1.0..2.0).contains(&t)));
    }

    #[test]
    fn crash_stop_cancels_ticks_and_quiesces() {
        // The ticking source crash-stops at t = 2.5; its pending tick is
        // cancelled and the network quiesces early.
        let plan = FaultPlan::new().crash_stop(0, 2.5);
        let (report, _) = ticker_net(plan, 100).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.recoveries, 0);
        // Ticks at t = 1 and t = 2 fired before the crash.
        assert_eq!(report.messages_sent, 2);
        assert!(
            report.queue_stats.cancelled >= 1,
            "{:?}",
            report.queue_stats
        );
    }

    #[test]
    fn crash_recover_resumes_ticking() {
        // Source down for [1.5, 4.5): ticks pause, then resume.
        let plan = FaultPlan::new().crash_recover(0, 1.5, 4.5);
        let (report, net) = ticker_net(plan, 4).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        // Tick at t=1 fires; ticks at 2, 3, 4 are suppressed; ticking
        // resumes after 4.5, so all 4 budgeted pings go out eventually.
        assert_eq!(report.messages_sent, 4);
        assert_eq!(net.node(1).seen.len(), 4);
        assert!(net.node(1).seen.iter().any(|&t| t > 4.5));
    }

    #[test]
    fn partition_window_drops_cut_crossing_sends() {
        // Cut node 1 off for [0.5, 2.5): pings sent (at integer times)
        // inside the window are dropped at send time.
        let plan = FaultPlan::new().partition(vec![1], 0.5, 2.5);
        let (report, net) = ticker_net(plan, 5).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.faults.dropped_partition, 2); // sends at t=1, 2
        assert_eq!(report.messages_sent, 5);
        assert_eq!(report.messages_delivered, 3);
        assert_eq!(report.in_flight, 0);
        assert_eq!(net.node(1).seen, vec![3.25, 4.25, 5.25]);
    }

    #[test]
    fn random_drop_probability_one_loses_everything() {
        let plan = FaultPlan::new().drop(EdgeSelector::All, 1.0);
        let (report, net) = ticker_net(plan, 6).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.messages_sent, 6);
        assert_eq!(report.messages_delivered, 0);
        assert_eq!(report.faults.dropped_random, 6);
        assert_eq!(report.in_flight, 0);
        assert!(net.node(1).seen.is_empty());
    }

    #[test]
    fn delay_storm_stretches_latency_in_window() {
        // Storm multiplies the 0.25 delay by 8 for sends in [1.5, 2.5):
        // the ping sent at t=2 arrives at 4.0 instead of 2.25.
        let plan = FaultPlan::new().delay_storm(EdgeSelector::All, 1.5, 2.5, 8.0);
        let (report, net) = ticker_net(plan, 3).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.faults.storm_deliveries, 1);
        // Deliveries arrive in time order: the stormed ping overtakes none
        // here but lands last (sent t=2, arrives 4.0).
        assert_eq!(net.node(1).seen, vec![1.25, 3.25, 4.0]);
    }

    #[test]
    fn fault_events_appear_in_trace() {
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(0.25).unwrap())
            .trace_capacity(64)
            .fault(FaultPlan::new().crash_recover(1, 0.5, 1.5))
            .build(|i| Ticker {
                source: i == 0,
                budget: 2,
                seen: Vec::new(),
            })
            .unwrap();
        let (_, net) = net.run(RunLimits::unbounded());
        let lines: Vec<String> = net.trace().map(|r| r.event.to_string()).collect();
        assert!(lines.iter().any(|l| l == "crash n1"), "{lines:?}");
        assert!(lines.iter().any(|l| l == "recover n1"), "{lines:?}");
        // A delivery that hit the down window is recorded as a typed
        // crash-drop, not a delivery.
        assert!(
            lines.iter().any(|l| l.starts_with("drop-crash")),
            "{lines:?}"
        );
    }

    #[test]
    fn empty_adversary_plan_is_bit_identical_to_no_plan() {
        let build = |with_plan: bool| {
            let mut b = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
                .delay(crate::delay::Exponential::from_mean(0.25).unwrap())
                .seed(17);
            if with_plan {
                b = b.adversary(crate::adversary::AdversaryPlan::none());
            }
            b.build(|i| Ticker {
                source: i == 0,
                budget: 6,
                seen: Vec::new(),
            })
            .unwrap()
        };
        let (a, na) = build(false).run(RunLimits::unbounded());
        let (b, nb) = build(true).run(RunLimits::unbounded());
        assert_eq!(a, b);
        assert_eq!(na.node(1).seen, nb.node(1).seen);
        assert_eq!(a.adversary, crate::adversary::AdversaryStats::default());
    }

    #[test]
    fn invalid_plan_fails_build() {
        let err = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .fault(FaultPlan::new().crash_stop(7, 1.0))
            .build(|i| Ticker {
                source: i == 0,
                budget: 1,
                seen: Vec::new(),
            })
            .unwrap_err();
        assert!(matches!(err, crate::BuildError::Fault(_)), "{err}");
        assert!(err.to_string().contains("fault plan"));
    }
}
