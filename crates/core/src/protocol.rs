//! The protocol programming model.
//!
//! A [`Protocol`] is a deterministic state machine driven by three kinds of
//! local events: start-up, local clock ticks, and message arrivals. All
//! interaction with the environment flows through a [`Ctx`] capability
//! object, which deliberately exposes **no node identity** — protocols
//! address neighbours by *port* only, so anonymity (required by the paper's
//! election algorithm) is enforced by construction. Algorithms that need
//! identities (e.g. Chang–Roberts) receive them as initial state from their
//! node factory instead.

use std::fmt;

use abe_sim::Xoshiro256PlusPlus;
use smallvec::SmallVec;

use crate::topology::NO_REPLY;

/// Position of an incoming edge in a node's in-edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InPort(pub usize);

impl fmt::Display for InPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in:{}", self.0)
    }
}

/// Position of an outgoing edge in a node's out-edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutPort(pub usize);

impl fmt::Display for OutPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "out:{}", self.0)
    }
}

/// A node's algorithm: state plus handlers for start, tick, and message
/// events.
///
/// Handlers run to completion ("expected processing time γ" is modelled by
/// the network runtime as an extra delay on message delivery, not by
/// interleaving handler execution).
///
/// # Examples
///
/// A one-shot forwarder that passes every message to out-port 0:
///
/// ```
/// use abe_core::{Ctx, InPort, OutPort, Protocol};
///
/// #[derive(Debug)]
/// struct Forwarder;
///
/// impl Protocol for Forwarder {
///     type Message = u32;
///     fn on_message(&mut self, _from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
///         ctx.send(OutPort(0), msg + 1);
///     }
/// }
/// ```
pub trait Protocol {
    /// The message type exchanged by this protocol.
    type Message: Clone + fmt::Debug;

    /// Called once at simulation start (time zero).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called at every local clock tick while [`wants_tick`](Self::wants_tick)
    /// returns `true`.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a message arrives on `from` (after channel delay and
    /// processing delay).
    fn on_message(&mut self, from: InPort, msg: Self::Message, ctx: &mut Ctx<'_, Self::Message>);

    /// Whether this node currently needs local clock ticks.
    ///
    /// The runtime schedules the next tick only while this returns `true`,
    /// so simulations of protocols that eventually go tick-less (e.g. the
    /// election algorithm once no node is idle) can reach quiescence.
    fn wants_tick(&self) -> bool {
        false
    }

    /// How many tick intervals ahead the next [`on_tick`](Self::on_tick)
    /// should fire. Defaults to 1 (a tick every interval).
    ///
    /// Protocols that flip a coin with a *fixed* probability `p` at every
    /// tick can instead return a geometric sample (the index of the first
    /// success) and treat the eventual `on_tick` as the success — one
    /// simulation event replaces `1/p` of them, without changing the
    /// process distribution. Only valid while the per-tick behaviour does
    /// not change between ticks; the runtime re-queries the stride whenever
    /// the node handles any event.
    ///
    /// The runtime clamps the result to at least 1.
    fn tick_stride(&mut self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        let _ = rng;
        1
    }

    /// A coarse non-negative "heat" of this node's current state, exposed
    /// read-only to scheduling adversaries through
    /// [`SendView::heat`](crate::SendView::heat). Zero (the default) means
    /// cold: nothing an adversary gains by targeting this node. Protocols
    /// with a natural critical locus — the token-holder of an election,
    /// the frontier of a wave — report it here so *adaptive* adversaries
    /// can probe the model without access to any other protocol state.
    fn heat(&self) -> u32 {
        0
    }
}

/// Samples the 1-based index of the first success in independent
/// Bernoulli(`p`) trials (a geometric random variable).
///
/// Intended for [`Protocol::tick_stride`] implementations. `p ≥ 1` returns
/// 1; `p ≤ 0` saturates to a large bound (2^40) rather than diverging.
///
/// # Examples
///
/// ```
/// use abe_core::geometric_trials;
/// use abe_sim::Xoshiro256PlusPlus;
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let k = geometric_trials(&mut rng, 0.25);
/// assert!(k >= 1);
/// ```
pub fn geometric_trials(rng: &mut Xoshiro256PlusPlus, p: f64) -> u64 {
    const MAX: u64 = 1 << 40;
    if p >= 1.0 {
        return 1;
    }
    if p <= 0.0 {
        return MAX;
    }
    let u = rng.uniform_f64();
    let k = 1.0 + ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if k.is_finite() && k >= 1.0 {
        (k as u64).min(MAX)
    } else {
        1
    }
}

/// Inline capacity of the per-dispatch effect buffers. Handlers that send
/// (or count) at most this many times per event — all the algorithms in
/// this workspace — never touch the allocator on the dispatch hot path.
pub(crate) const INLINE_EFFECTS: usize = 4;

/// Inline send buffer: `(port, message, declared bytes)` triples in send
/// order. The per-send byte count feeds both the aggregate
/// `payload_bytes` and the wire `size` stamped on trace records.
pub(crate) type Outbox<M> = SmallVec<[(OutPort, M, u64); INLINE_EFFECTS]>;

/// Inline counter buffer: `(name, amount)` increments in call order.
pub(crate) type CounterBumps = SmallVec<[(&'static str, u64); INLINE_EFFECTS]>;

/// Inline mark buffer: observability marks in call order.
pub(crate) type Marks = SmallVec<[Mark; 2]>;

/// Internal tuple form of the collected effects:
/// `(outbox, counters, marks, payload bytes, stop)`.
pub(crate) type RawEffects<M> = (Outbox<M>, CounterBumps, Marks, u64, bool);

/// An observability mark a handler declared via [`Ctx::note_state`] or
/// [`Ctx::decide`].
///
/// Marks are trace-only: they never influence scheduling, RNG streams,
/// counters, or the final report. With recording disabled they are
/// discarded unread, so instrumented protocols behave bit-identically
/// whether or not anyone is watching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The node entered the named protocol state.
    State(&'static str),
    /// The node irrevocably decided a value.
    Decide(u64),
}

/// Effects collected by a [`Ctx`] during one handler dispatch.
///
/// Returned by [`Ctx::finish`]; consumed by the runtime executing the
/// protocol (the built-in simulator or an external live runtime).
#[derive(Debug)]
pub struct CtxEffects<M> {
    /// Messages to transmit, in send order.
    pub sends: Vec<(OutPort, M)>,
    /// Counter increments to aggregate.
    pub counters: Vec<(&'static str, u64)>,
    /// Observability marks, in call order (trace-only; see [`Mark`]).
    pub marks: Vec<Mark>,
    /// Total declared payload bytes of this dispatch's sends (see
    /// [`Ctx::send_sized`]).
    pub payload_bytes: u64,
    /// Whether the handler requested a global stop.
    pub stop: bool,
}

/// Capability object handed to [`Protocol`] handlers.
///
/// Collects the handler's effects (sends, counter bumps, stop requests) for
/// the runtime to apply after the handler returns.
pub struct Ctx<'a, M> {
    local_time: f64,
    network_size: u32,
    out_degree: usize,
    in_degree: usize,
    /// Per-in-port reverse out-port, or [`NO_REPLY`] (see
    /// [`Topology::reply_ports`](crate::Topology::reply_ports)).
    reply_ports: &'a [u32],
    rng: &'a mut Xoshiro256PlusPlus,
    outbox: Outbox<M>,
    counters: CounterBumps,
    marks: Marks,
    payload_bytes: u64,
    stop: bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Creates a context; called by the network runtime per dispatch.
    pub(crate) fn new(
        local_time: f64,
        network_size: u32,
        out_degree: usize,
        in_degree: usize,
        reply_ports: &'a [u32],
        rng: &'a mut Xoshiro256PlusPlus,
    ) -> Self {
        Self {
            local_time,
            network_size,
            out_degree,
            in_degree,
            reply_ports,
            rng,
            outbox: SmallVec::new(),
            counters: SmallVec::new(),
            marks: SmallVec::new(),
            payload_bytes: 0,
            stop: false,
        }
    }

    /// Sends `msg` on the outgoing edge at `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not below [`out_degree`](Self::out_degree); a
    /// protocol addressing a port it does not have is a programming error.
    #[track_caller]
    pub fn send(&mut self, port: OutPort, msg: M) {
        assert!(
            port.0 < self.out_degree,
            "send on {port} but node has out-degree {}",
            self.out_degree
        );
        self.outbox.push((port, msg, 0));
    }

    /// Sends `msg` on the outgoing edge at `port`, declaring its wire size.
    ///
    /// Control-plane tokens have no meaningful size and use
    /// [`send`](Self::send) (0 bytes). Data-plane protocols — where message
    /// *size* is part of the measurement — declare their serialized payload
    /// size here; the runtime aggregates the total into
    /// [`NetworkReport::payload_bytes`](crate::NetworkReport). Bytes are
    /// accounted at send time (like `messages_sent`), so totals are
    /// identical at any `--shards` setting and unaffected by later drops.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not below [`out_degree`](Self::out_degree).
    #[track_caller]
    pub fn send_sized(&mut self, port: OutPort, msg: M, bytes: u64) {
        assert!(
            port.0 < self.out_degree,
            "send on {port} but node has out-degree {}",
            self.out_degree
        );
        self.outbox.push((port, msg, bytes));
        self.payload_bytes += bytes;
    }

    /// The node's local clock reading (local seconds).
    ///
    /// Local clocks advance within the `[s_low, s_high]` rate bounds of
    /// Definition 1; two nodes' local times are not comparable.
    pub fn local_time(&self) -> f64 {
        self.local_time
    }

    /// Total number of nodes `n`.
    ///
    /// The paper's election algorithm assumes known ring size; protocols
    /// for unknown-size networks simply ignore this.
    pub fn network_size(&self) -> u32 {
        self.network_size
    }

    /// Number of outgoing ports of this node.
    pub fn out_degree(&self) -> usize {
        self.out_degree
    }

    /// Number of incoming ports of this node.
    pub fn in_degree(&self) -> usize {
        self.in_degree
    }

    /// The out-port pointing back along the in-edge at `from`, if the
    /// reverse edge exists.
    ///
    /// The "bidirectional channel" convention of wave algorithms: a node
    /// can answer whoever it heard from without learning identities.
    /// Returns `None` on asymmetric edges (e.g. unidirectional rings).
    pub fn reply_port(&self, from: InPort) -> Option<OutPort> {
        let port = *self.reply_ports.get(from.0)?;
        (port != NO_REPLY).then_some(OutPort(port as usize))
    }

    /// This node's private random stream.
    pub fn rng(&mut self) -> &mut Xoshiro256PlusPlus {
        self.rng
    }

    /// Draws `true` with probability `p` (clamped to `[0, 1]`).
    pub fn coin(&mut self, p: f64) -> bool {
        self.rng.uniform_f64() < p
    }

    /// Requests the whole network simulation to stop after this handler.
    ///
    /// Used by termination conditions that are *global* observations (e.g.
    /// "a leader was elected") rather than part of the algorithm itself.
    pub fn stop_network(&mut self) {
        self.stop = true;
    }

    /// Adds `amount` to the named experiment counter.
    ///
    /// Counters are aggregated network-wide into the final report; use
    /// stable static names like `"knockout"` or `"purged"`.
    pub fn count(&mut self, counter: &'static str, amount: u64) {
        self.counters.push((counter, amount));
    }

    /// Declares that this node just entered protocol state `state`.
    ///
    /// Trace-only (see [`Mark`]): with recording off the mark is
    /// discarded; it never affects scheduling, RNG draws, counters, or
    /// the report. Use stable static names like `"leader"` or
    /// `"decided"`.
    pub fn note_state(&mut self, state: &'static str) {
        self.marks.push(Mark::State(state));
    }

    /// Declares that this node irrevocably decided `value`. Trace-only,
    /// like [`note_state`](Self::note_state).
    pub fn decide(&mut self, value: u64) {
        self.marks.push(Mark::Decide(value));
    }

    /// Consumes the context, returning collected effects
    /// `(outbox, counters, marks, payload bytes, stop)`.
    pub(crate) fn into_effects(self) -> RawEffects<M> {
        (
            self.outbox,
            self.counters,
            self.marks,
            self.payload_bytes,
            self.stop,
        )
    }

    /// Creates a context for an **external runtime** (one not built on the
    /// discrete-event simulator, e.g. a thread-per-node live executor).
    ///
    /// The built-in [`Network`](crate::Network) constructs contexts
    /// internally; this constructor exists so the same [`Protocol`] values
    /// can be driven by other executors. `reply_ports` is the node's
    /// [`Topology::reply_ports`](crate::Topology::reply_ports) slice.
    pub fn external(
        local_time: f64,
        network_size: u32,
        out_degree: usize,
        in_degree: usize,
        reply_ports: &'a [u32],
        rng: &'a mut Xoshiro256PlusPlus,
    ) -> Self {
        Self::new(
            local_time,
            network_size,
            out_degree,
            in_degree,
            reply_ports,
            rng,
        )
    }

    /// Consumes the context, returning the collected [`CtxEffects`].
    ///
    /// The counterpart of [`Ctx::external`] for external runtimes. Unlike
    /// the internal simulator path (which drains the inline buffers
    /// directly), this converts to plain `Vec`s for API stability.
    pub fn finish(self) -> CtxEffects<M> {
        CtxEffects {
            sends: self
                .outbox
                .into_iter()
                .map(|(port, msg, _bytes)| (port, msg))
                .collect(),
            counters: self.counters.into_vec(),
            marks: self.marks.into_vec(),
            payload_bytes: self.payload_bytes,
            stop: self.stop,
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("local_time", &self.local_time)
            .field("network_size", &self.network_size)
            .field("out_degree", &self.out_degree)
            .field("in_degree", &self.in_degree)
            .field("outbox", &self.outbox)
            .field("stop", &self.stop)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(1)
    }

    #[test]
    fn ctx_collects_sends_in_order() {
        let mut r = rng();
        let mut ctx: Ctx<'_, u32> = Ctx::new(0.0, 4, 2, 1, &[], &mut r);
        ctx.send(OutPort(0), 10);
        ctx.send(OutPort(1), 20);
        let (outbox, _, _, bytes, _) = ctx.into_effects();
        assert!(!outbox.spilled(), "small outboxes must stay inline");
        assert_eq!(
            outbox.into_vec(),
            vec![(OutPort(0), 10, 0), (OutPort(1), 20, 0)]
        );
        assert_eq!(bytes, 0, "plain sends declare no payload size");
    }

    #[test]
    fn sized_sends_accumulate_payload_bytes() {
        let mut r = rng();
        let mut ctx: Ctx<'_, u32> = Ctx::new(0.0, 4, 2, 1, &[], &mut r);
        ctx.send_sized(OutPort(0), 10, 16);
        ctx.send(OutPort(1), 20);
        ctx.send_sized(OutPort(1), 30, 24);
        let (outbox, _, _, bytes, _) = ctx.into_effects();
        let outbox = outbox.into_vec();
        assert_eq!(outbox.len(), 3, "sized sends still enqueue messages");
        assert_eq!(
            outbox[0],
            (OutPort(0), 10, 16),
            "each send remembers its own declared size"
        );
        assert_eq!(bytes, 40);
    }

    #[test]
    fn finish_exposes_payload_bytes() {
        let mut r = rng();
        let mut ctx: Ctx<'_, u32> = Ctx::external(0.0, 2, 1, 1, &[], &mut r);
        ctx.send_sized(OutPort(0), 1, 8);
        let effects = ctx.finish();
        assert_eq!(effects.sends, vec![(OutPort(0), 1)]);
        assert_eq!(effects.payload_bytes, 8);
    }

    #[test]
    #[should_panic(expected = "out-degree")]
    fn send_on_missing_port_panics() {
        let mut r = rng();
        let mut ctx: Ctx<'_, u32> = Ctx::new(0.0, 4, 1, 1, &[], &mut r);
        ctx.send(OutPort(1), 0);
    }

    #[test]
    fn ctx_exposes_environment() {
        let mut r = rng();
        let ctx: Ctx<'_, ()> = Ctx::new(2.5, 7, 3, 2, &[], &mut r);
        assert_eq!(ctx.local_time(), 2.5);
        assert_eq!(ctx.network_size(), 7);
        assert_eq!(ctx.out_degree(), 3);
        assert_eq!(ctx.in_degree(), 2);
    }

    #[test]
    fn stop_and_counters_are_reported() {
        let mut r = rng();
        let mut ctx: Ctx<'_, ()> = Ctx::new(0.0, 1, 0, 0, &[], &mut r);
        ctx.count("knockout", 2);
        ctx.count("knockout", 1);
        ctx.stop_network();
        let (_, counters, _, _, stop) = ctx.into_effects();
        assert_eq!(counters.into_vec(), vec![("knockout", 2), ("knockout", 1)]);
        assert!(stop);
    }

    #[test]
    fn marks_are_collected_in_call_order() {
        let mut r = rng();
        let mut ctx: Ctx<'_, ()> = Ctx::new(0.0, 1, 0, 0, &[], &mut r);
        ctx.note_state("passive");
        ctx.decide(3);
        ctx.note_state("decided");
        let (_, _, marks, _, _) = ctx.into_effects();
        assert_eq!(
            marks.into_vec(),
            vec![
                Mark::State("passive"),
                Mark::Decide(3),
                Mark::State("decided"),
            ]
        );
    }

    #[test]
    fn finish_exposes_marks_without_sizes() {
        let mut r = rng();
        let mut ctx: Ctx<'_, u32> = Ctx::external(0.0, 2, 1, 1, &[], &mut r);
        ctx.send_sized(OutPort(0), 1, 8);
        ctx.decide(1);
        let effects = ctx.finish();
        assert_eq!(effects.sends, vec![(OutPort(0), 1)]);
        assert_eq!(effects.marks, vec![Mark::Decide(1)]);
    }

    #[test]
    fn coin_respects_probability_extremes() {
        let mut r = rng();
        let mut ctx: Ctx<'_, ()> = Ctx::new(0.0, 1, 0, 0, &[], &mut r);
        assert!(!ctx.coin(0.0));
        assert!(ctx.coin(1.1)); // clamped above 1 ⇒ always true
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = rng();
        let mut ctx: Ctx<'_, ()> = Ctx::new(0.0, 1, 0, 0, &[], &mut r);
        let heads = (0..10_000).filter(|_| ctx.coin(0.5)).count();
        assert!((4500..5500).contains(&heads), "got {heads}");
    }

    #[test]
    fn port_display() {
        assert_eq!(InPort(2).to_string(), "in:2");
        assert_eq!(OutPort(0).to_string(), "out:0");
    }
}

#[cfg(test)]
mod geometric_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn geometric_mean_is_one_over_p() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        for &p in &[0.01f64, 0.1, 0.5, 0.9] {
            let n = 100_000u64;
            let mean: f64 = (0..n)
                .map(|_| geometric_trials(&mut rng, p) as f64)
                .sum::<f64>()
                / n as f64;
            let expect = 1.0 / p;
            assert!(
                (mean - expect).abs() / expect < 0.03,
                "p={p}: mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn geometric_edge_cases() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
        assert_eq!(geometric_trials(&mut rng, 1.0), 1);
        assert_eq!(geometric_trials(&mut rng, 2.0), 1);
        assert_eq!(geometric_trials(&mut rng, 0.0), 1 << 40);
        assert_eq!(geometric_trials(&mut rng, -0.5), 1 << 40);
        // Tiny p saturates rather than overflowing.
        assert!(geometric_trials(&mut rng, 1e-18) <= 1 << 40);
    }

    #[test]
    fn geometric_minimum_is_one() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
        for _ in 0..10_000 {
            assert!(geometric_trials(&mut rng, 0.7) >= 1);
        }
    }
}
