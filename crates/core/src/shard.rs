//! Deterministic parallel execution of a **single** simulation.
//!
//! [`Network::run_sharded`] splits the node space into `shards` contiguous
//! ranges (from [`NetworkBuilder::shards`](crate::NetworkBuilder::shards)),
//! gives each its own event queue, and advances all of them in **time
//! windows** — the null-message-free variant of conservative parallel
//! discrete-event simulation:
//!
//! 1. Every cross-shard edge `e` has a *lookahead* `λ_e`, a lower bound on
//!    the latency of the messages it is about to carry. Where the delay
//!    model has a floor it is static, `min_delay(e) · min_stretch(e) +
//!    min_proc` ([`min_delay`](crate::delay::DelayModel::min_delay), shrunk
//!    by sub-unity delay-storm factors, plus the processing model's own
//!    bound); where that is zero it is pre-drawn (next section).
//! 2. A shard whose earliest pending event is at `t_next` cannot cause a
//!    cross-shard arrival before `t_next + λ_out`, where `λ_out` is the
//!    minimum lookahead over its outgoing cross-shard edges (a pre-drawn
//!    edge counts from its source node's next event rather than the
//!    shard's, which is later).
//! 3. The window end is `W = min over shards` of that earliest arrival;
//!    every shard may process all events strictly before `W` in parallel
//!    without ever seeing a message from the current window arrive "in its
//!    past".
//!
//! Cross-shard sends are buffered in the sending shard's outbox during the
//! window and routed into the destination queue at the barrier. Their
//! ordering keys are a pure function of event identity (edge id plus the
//! per-edge send sequence), so insertion order is irrelevant and every
//! shard pops the exact event subsequence the sequential run would.
//!
//! ## Zero lookahead
//!
//! The ABE model bounds delays only in expectation; its canonical family,
//! the exponential, has `min_delay() == 0`, and a static bound collapses
//! every window to nothing. But ABE delays are random draws, not an
//! adversary's choices, and each one is `delay.sample(&mut channel.rng)`
//! with a stateless model on a stream keyed by edge id — so the delays of
//! the next few messages on an edge exist before the messages do. For
//! every cross-shard out-edge with a zero static lookahead the barrier
//! *pre-draws* the next `CREDIT_DEPTH` delays from a clone of the channel
//! stream (the stream itself, and with it every delay the run uses, stays
//! untouched) and takes `λ_e = min(pre-drawn) · min_stretch(e) + min_proc`.
//!
//! One tiny pre-drawn delay would bound every window until a send has used
//! it up — hundreds of windows on an edge that sends once in a while, each
//! a barrier at which the faster shard waits for the slower. So `λ_e`
//! counts not from the shard's next event but from the next event of the
//! edge's *source node* `u`, the only node that can send on it. The shard
//! keeps the times of the events scheduled for `u` (start, ticks,
//! deliveries, crash schedule); beyond those, `u` can only be woken by a
//! message a shard-local neighbour has yet to send, which takes at least
//! the bound of the in-edge it travels — static, or pre-drawn the same
//! way with its own credit (a *feeder*). A message from another shard
//! arrives after the window in any case. The edge's earliest arrival is
//!
//! ```text
//! min(earliest event scheduled for u, t_next + min over in-edges λ_in) + λ_e
//! ```
//!
//! and a small window now takes two small draws in a row.
//!
//! This is **not** a conservative lookahead: it bounds the next
//! `CREDIT_DEPTH` messages of the edge, not all of them. Channels are
//! non-FIFO, so the message after those may carry a smaller delay than any
//! of them, and no bound short of the distribution's infimum covers every
//! message. Three rules make the windows exact all the same:
//!
//! * **Credit.** Each delay drawn on a pre-drawn edge, feeders included —
//!   for a send the fault layer then drops, too: the draw precedes the
//!   verdict — uses up one pre-drawn delay. A shard with an edge out of
//!   credit ends its window before the next event
//!   ([`ShardTiming::credit_halts`]); the next barrier pre-draws afresh
//!   for every edge that drew since the last one.
//! * **Detection.** Halted shards lag their siblings, and one handler can
//!   draw past its edge's credit, so exactness rests on a check, not on
//!   the bound: a cross-shard send that arrives before the *furthest
//!   horizon any window has been granted* may lie in its destination's
//!   past, and aborts the windowed pass
//!   ([`ShardTiming::late_arrival_abort`]). The check is against the
//!   horizon, never against a sibling's actual progress, so it is a
//!   deterministic function of the run. On a ring it does not fire; on a
//!   small clique whose handlers send several messages per port it fires
//!   early, and the run costs about one sequential run.
//! * **Single steps.** Where the bound really is zero — `Deterministic(0)`
//!   on a cross edge, or a delay model with an atom at zero whose
//!   pre-drawn minimum hits it — the executor finds the globally earliest
//!   `(time, key)` across shards and steps that single shard once: serial,
//!   but still exact. Runs mix all modes freely.
//!
//! Two small draws in a row still happen, and a stretch of windows with a
//! handful of events each follows. A window expected — from the run's
//! event density so far — to process fewer than `SERIAL_WINDOW_THRESHOLD`
//! events is therefore executed on the calling thread: such a stretch
//! costs what it would sequentially, not a thread spawn per window.
//!
//! ## Fidelity and fallback
//!
//! The windowed pass is **byte-identical** to the sequential run by
//! construction: every random stream is keyed by node or edge id (never by
//! shard count), per-edge state (FIFO clamp, send sequence, drop stream)
//! lives with the source shard, and the per-event ordering key reproduces
//! the sequential pop order. Four situations cannot be reproduced
//! mid-window and fall back to the classic sequential loop on a pristine
//! clone of the network (so the result is *still* identical):
//!
//! * a protocol requests a stop inside a parallel window (other shards
//!   have already raced past the stop point) — or in a single step taken
//!   while a shard that halted on credit lags the furthest horizon,
//! * the event budget is exhausted strictly inside a window, or at a
//!   barrier where such a laggard means the events processed so far are
//!   not a prefix of the sequential order,
//! * a cross-shard send arrives before the furthest granted horizon (the
//!   detection rule above),
//! * a scheduling adversary is installed (it observes global node heat on
//!   every send); this delegates up front.
//!
//! Telemetry recording is **not** one of these cases: each shard records
//! into an unbounded shard-local buffer, and the barriers merge the
//! buffers into the master recorder in `(time, key, sub)` order — the
//! exact order the sequential run would have emitted — so traces (and the
//! histograms derived from them) are byte-identical at any shard count.
//! Because shards end a window at different times, a barrier merges only
//! the records stamped strictly before the earliest event still pending
//! on any shard (no shard can emit an earlier one any more) and holds the
//! rest back; everything left is merged once, at the end of the run.
//! Single-stepped events record straight into the master.
//!
//! [`ShardTiming`] on the returned network records windows, single-steps,
//! credit halts, per-shard busy time, the critical path, and whether and
//! why the pass fell back — the data that explains a sharded run's wall
//! clock. The speedup itself is that wall clock against the sequential
//! run's, which `abe-perf` and the repo benchmark measure on real cores.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use abe_sim::{QueueStats, RunLimits, RunOutcome, SimTime, Simulation};
use abe_telemetry::{merge_chunks, RunRecorder};

use crate::adversary::AdversaryStats;
use crate::fault::FaultRuntime;
use crate::net::{
    event_key, ChannelState, CrossSends, CrossSource, NetEvent, Network, NetworkReport, NodeSlot,
    ShardTiming, KIND_CRASH, KIND_RECOVER, KIND_START,
};
use crate::protocol::Protocol;
use crate::topology::{edge_id_from_raw, Topology};

/// A window expected to process fewer events than this is executed on the
/// calling thread (spawning is pure overhead); results are identical
/// either way. Pre-drawn lookaheads can make a stretch of windows that
/// small: tiny pre-drawn delays bound every window until sends have used
/// them up.
const SERIAL_WINDOW_THRESHOLD: f64 = 1024.0;

/// How many delays are pre-drawn per zero-lookahead edge. The bound is the
/// minimum of that many draws, so deeper credit means narrower windows —
/// more barriers, each of which adds the wait for the slower shard to the
/// wall clock; shallower credit means a busy edge halts its shard more
/// often.
const CREDIT_DEPTH: u32 = 2;

/// One shard: a partition of the network driven by its own simulation.
struct Shard<P: Protocol> {
    sim: Simulation<Network<P>>,
    /// Minimum static lookahead over the outgoing cross-shard edges that
    /// have a positive one (`∞` if none). The pre-drawn edges are the
    /// world's `cross.credits`.
    static_lookahead: f64,
    /// Owned node range `lo..hi` (global ids).
    lo: u32,
    hi: u32,
    /// Busy nanoseconds accumulated across windows and single-steps.
    busy_nanos: u64,
}

impl<P: Protocol> Shard<P> {
    /// Brings the pre-drawn bounds up to date at a barrier: every edge
    /// that consumed credit since the last one is pre-drawn afresh, to
    /// full depth. A no-op unless a credit was spent.
    fn refresh_credits(&mut self, proc_min: f64) {
        let world = self.sim.world_mut();
        if !world.cross.spent {
            return;
        }
        let mut credits = std::mem::take(&mut world.cross.credits);
        for credit in &mut credits {
            if credit.left < CREDIT_DEPTH {
                let edge = credit.edge as usize;
                let min_delay = world.channels[world.channel_slot(edge)]
                    .peek_delays(CREDIT_DEPTH)
                    .fold(f64::INFINITY, f64::min);
                credit.bound = min_delay * world.faults.min_stretch(edge) + proc_min;
                credit.left = CREDIT_DEPTH;
            }
        }
        world.cross.credits = credits;
        world.cross.spent = false;
        world.cross.exhausted = false;
    }

    /// The earliest a cross-shard send of this shard can arrive, given
    /// that its next event is at `next` and no edge overdraws its credit.
    fn earliest_cross_arrival(&mut self, next: SimTime) -> f64 {
        let mut earliest = next.as_secs() + self.static_lookahead;
        let cross = &mut self.sim.world_mut().cross;
        for source in &mut cross.sources {
            // The node's next event: one already scheduled, or a delivery
            // a shard-local neighbour has yet to send. (One from another
            // shard cannot arrive inside the window at all.)
            while source.pending.peek().is_some_and(|at| at.0 < next) {
                source.pending.pop();
            }
            let feed = source
                .feeders
                .iter()
                .map(|&f| cross.credits[f].bound)
                .fold(source.feed_static, f64::min);
            let wakes = source
                .pending
                .peek()
                .map_or(f64::INFINITY, |at| at.0.as_secs())
                .min(next.as_secs() + feed);
            for &e in &source.out {
                earliest = earliest.min(wakes + cross.credits[e].bound);
            }
        }
        earliest
    }
}

impl<P> Network<P>
where
    P: Protocol + Clone + Send,
    P::Message: Send,
{
    /// Runs the network like [`Network::run`], but partitioned across the
    /// configured shard count (see
    /// [`NetworkBuilder::shards`](crate::NetworkBuilder::shards)) and
    /// advanced in time windows executed in parallel.
    ///
    /// The returned [`NetworkReport`] — outcome, end time, event count,
    /// message counters, fault statistics, queue telemetry — is equal to
    /// the sequential run's for every shard count; see the
    /// [module docs](crate::shard) for why — including any recorded
    /// trace, which is merged back into global `(time, key, sub)` order at
    /// the window barriers. Runs that cannot be
    /// parallelised faithfully (installed adversary, a mid-window stop,
    /// event-budget exhaustion or late cross-shard arrival) are re-run
    /// sequentially on a pristine copy, preserving the guarantee at the
    /// cost of the speedup; [`Network::shard_timing`] reports whether that
    /// happened, and why.
    pub fn run_sharded(self, limits: RunLimits) -> (NetworkReport, Network<P>) {
        let n = self.topo.node_count();
        let shards = self.shards.min(n).max(1);
        // Delegate whole-run observers (and trivial shard counts) to the
        // sequential loop: an adversary reads global node heat per send.
        // Telemetry recording does NOT delegate — shard-local window
        // buffers are merged at the barriers (see the module docs).
        if shards <= 1 || self.adversary.is_some() {
            return self.run(limits);
        }
        let pristine = self.clone();
        match run_windowed(self, shards, limits) {
            Ok(done) => done,
            Err(mut timing) => {
                // The windowed pass aborted (stop, budget overshoot or
                // late arrival mid-window): discard it and replay
                // sequentially from the pristine clone — identical to
                // `run` by construction.
                timing.fell_back = true;
                let (report, mut net) = pristine.run(limits);
                net.timing = Some(timing);
                (report, net)
            }
        }
    }
}

/// Shard index owning global node `node`, given the `shards + 1` range
/// bounds.
#[inline]
fn shard_of(node: u32, bounds: &[u32]) -> usize {
    bounds.partition_point(|&b| b <= node) - 1
}

/// The windowed parallel pass. `Err(timing)` means the pass aborted and the
/// caller must replay sequentially.
fn run_windowed<P>(
    net: Network<P>,
    shards: u32,
    limits: RunLimits,
) -> Result<(NetworkReport, Network<P>), ShardTiming>
where
    P: Protocol + Clone + Send,
    P::Message: Send,
{
    let requested = net.shards;
    let topo = Arc::clone(&net.topo);
    let proc_min = net.processing.min_delay();
    let n = topo.node_count();
    let bounds: Vec<u32> = (0..=shards)
        .map(|s| (u64::from(s) * u64::from(n) / u64::from(shards)) as u32)
        .collect();
    let (mut parts, mut master) = partition(net, &bounds, proc_min);

    let mut timing = ShardTiming {
        shards,
        ..ShardTiming::default()
    };
    let mut cum: u64 = 0;
    // The furthest horizon any window has been granted. Shards that halt
    // on credit lag behind it, so it — not the last window's end — is
    // what no shard has run past.
    let mut horizon = f64::NEG_INFINITY;
    let mut moved = Vec::new();

    let outcome = loop {
        // ---- barrier: pick the next window (or the run outcome) ----
        let mut min_next: Option<(SimTime, u64, usize)> = None;
        let mut w_end = f64::INFINITY;
        for (i, sh) in parts.iter_mut().enumerate() {
            sh.refresh_credits(proc_min);
            if let Some((t, k)) = sh.sim.peek_time_key() {
                if min_next.is_none_or(|(mt, mk, _)| (t, k) < (mt, mk)) {
                    min_next = Some((t, k, i));
                }
                w_end = w_end.min(sh.earliest_cross_arrival(t));
            }
        }
        // Outcome checks mirror the sequential loop's priority order:
        // quiescence beats MaxTime beats MaxEvents (see `Simulation::run`).
        let Some((t_min, k_min, i_min)) = min_next else {
            break RunOutcome::Quiescent;
        };
        if let Some(max_time) = limits.max_time {
            if t_min > max_time {
                break RunOutcome::MaxTime;
            }
        }
        // With nothing pending before the furthest horizon, the events
        // processed so far are exactly a prefix of the sequential order;
        // while a shard that halted on credit lags, they are not.
        let caught_up = t_min.as_secs() >= horizon;
        if let Some(max_events) = limits.max_events {
            // `cum > max_events` is impossible here: overshoot aborts
            // right after the window that caused it.
            if cum >= max_events {
                if !caught_up {
                    return Err(timing);
                }
                break RunOutcome::MaxEvents;
            }
        }
        collect_trace(&mut parts, master.as_deref_mut(), Some((t_min, k_min)));

        if w_end > t_min.as_secs() {
            // ---- parallel window: every shard runs to the horizon ----
            timing.windows += 1;
            horizon = horizon.max(w_end);
            for sh in parts.iter_mut() {
                sh.sim.world_mut().cross.horizon = horizon;
            }
            let mut slowest = 0u64;
            let mut stopped = false;
            let mut note = |(nanos, end): (u64, WindowEnd)| {
                slowest = slowest.max(nanos);
                match end {
                    WindowEnd::Horizon => {}
                    WindowEnd::CreditHalt => timing.credit_halts += 1,
                    WindowEnd::Stopped => stopped = true,
                    WindowEnd::LateArrival => timing.late_arrival_abort = true,
                }
            };
            // What the window will process, from the run's event density
            // so far; at time zero, everything pending.
            let expected = if t_min > SimTime::ZERO {
                cum as f64 / t_min.as_secs() * (w_end - t_min.as_secs())
            } else {
                parts.iter().map(|sh| sh.sim.pending()).sum::<usize>() as f64
            };
            if expected < SERIAL_WINDOW_THRESHOLD {
                for sh in parts.iter_mut() {
                    note(run_window(sh, w_end, limits.max_time));
                }
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = parts
                        .iter_mut()
                        .map(|sh| scope.spawn(move || run_window(sh, w_end, limits.max_time)))
                        .collect();
                    for h in handles {
                        note(h.join().expect("shard worker panicked"));
                    }
                });
            }
            timing.critical_path_nanos += slowest;
            cum = parts.iter().map(|sh| sh.sim.events_processed()).sum();
            // A late arrival: a delay beyond the pre-drawn ones undercut
            // the lookahead, and the destination may already be past it. A
            // stop inside a parallel window: sibling shards already
            // processed events the sequential run never would have.
            if timing.late_arrival_abort || stopped {
                return Err(timing);
            }
            if let Some(max_events) = limits.max_events {
                if cum > max_events {
                    return Err(timing);
                }
            }
        } else {
            // ---- zero lookahead: step the globally earliest event ----
            timing.single_steps += 1;
            let sh = &mut parts[i_min];
            // Its records are next in sequential order (everything held
            // back is stamped later), so they go straight to the master.
            std::mem::swap(&mut sh.sim.world_mut().rec, &mut master);
            let started = Instant::now();
            sh.sim.step();
            let nanos = started.elapsed().as_nanos() as u64;
            std::mem::swap(&mut sh.sim.world_mut().rec, &mut master);
            sh.busy_nanos += nanos;
            timing.critical_path_nanos += nanos;
            cum += 1;
            if sh.sim.world().cross.late {
                timing.late_arrival_abort = true;
                return Err(timing);
            }
            if sh.sim.stop_requested() {
                if !caught_up {
                    return Err(timing);
                }
                // Exact: this was the globally next event and nothing else
                // ran after it — precisely the sequential stop state.
                break RunOutcome::Stopped;
            }
        }
        route_outboxes(&mut parts, &mut moved, &topo, &bounds);
    };

    collect_trace(&mut parts, master.as_deref_mut(), None);
    timing.busy_nanos = parts.iter().map(|sh| sh.busy_nanos).collect();
    Ok(merge(parts, outcome, cum, requested, timing, master))
}

/// Why a shard stopped processing a window.
enum WindowEnd {
    /// Nothing left before the horizon (or the time limit).
    Horizon,
    /// A cross-shard edge ran out of pre-drawn delays with events still
    /// left before the horizon.
    CreditHalt,
    /// The protocol requested a stop.
    Stopped,
    /// A cross-shard send arrived before the furthest granted horizon.
    LateArrival,
}

/// Runs one shard up to (exclusive) the window horizon, bounded by the time
/// limit. Returns busy nanoseconds and why the shard stopped.
fn run_window<P: Protocol>(
    shard: &mut Shard<P>,
    w_end: f64,
    max_time: Option<SimTime>,
) -> (u64, WindowEnd) {
    let started = Instant::now();
    let end = loop {
        match shard.sim.peek_time_key() {
            None => break WindowEnd::Horizon,
            Some((t, _)) => {
                if t.as_secs() >= w_end || max_time.is_some_and(|mt| t > mt) {
                    break WindowEnd::Horizon;
                }
            }
        }
        // The lookahead covers the pre-drawn delays only: with an edge out
        // of credit the next send on it could arrive anywhere.
        if shard.sim.world().cross.exhausted {
            break WindowEnd::CreditHalt;
        }
        shard.sim.step();
        if shard.sim.world().cross.late {
            break WindowEnd::LateArrival;
        }
        if shard.sim.stop_requested() {
            break WindowEnd::Stopped;
        }
    };
    let nanos = started.elapsed().as_nanos() as u64;
    shard.busy_nanos += nanos;
    (nanos, end)
}

/// Drains every shard's outbox (through the reused `moved` buffer) and
/// schedules each cross-shard delivery into its destination shard's queue.
/// Keys make insertion order irrelevant.
fn route_outboxes<P: Protocol>(
    parts: &mut [Shard<P>],
    moved: &mut Vec<(SimTime, u64, u32, u64, P::Message)>,
    topo: &Topology,
    bounds: &[u32],
) {
    for sh in parts.iter_mut() {
        moved.append(&mut sh.sim.world_mut().outbox);
    }
    for (at, key, edge, size, msg) in moved.drain(..) {
        let dst = topo.edge(edge_id_from_raw(edge)).dst.index() as u32;
        let sim = &mut parts[shard_of(dst, bounds)].sim;
        sim.prime_keyed(at, key, NetEvent::Deliver { edge, size, msg });
        sim.world_mut().cross.note_event(dst, at);
    }
}

/// Merges the shard-local trace buffers into the master recorder in
/// `(time, key, sub)` order — the order the sequential run would have
/// produced the records in. A no-op when recording is disabled.
///
/// Shards end a window at different times, so only the records stamped
/// strictly `before` the earliest event still pending on any shard are
/// merged: every record a shard will ever emit earlier than that has been
/// emitted (cross-shard arrivals included — the outboxes are routed
/// first). The rest is held until a later barrier; `None` drains
/// everything, once, at the end of the run.
fn collect_trace<P: Protocol>(
    parts: &mut [Shard<P>],
    master: Option<&mut RunRecorder>,
    before: Option<(SimTime, u64)>,
) {
    let Some(master) = master else { return };
    let chunks: Vec<_> = parts
        .iter_mut()
        .map(|sh| match sh.sim.world_mut().rec.as_deref_mut() {
            None => Vec::new(),
            Some(buffer) => match before {
                Some((time, key)) => buffer.drain_before(time, key),
                None => buffer.drain(),
            },
        })
        .collect();
    merge_chunks(chunks, |rec| master.absorb_merged(rec));
}

/// Splits a full network into per-shard partitions, each primed with its
/// own nodes' start events and crash schedule. Returns the shards plus the
/// master recorder (if recording is enabled); each shard gets an unbounded
/// shard-local buffer that [`collect_trace`] merges back into the master
/// at the barriers.
fn partition<P>(
    net: Network<P>,
    bounds: &[u32],
    proc_min: f64,
) -> (Vec<Shard<P>>, Option<Box<RunRecorder>>)
where
    P: Protocol + Clone,
{
    let shards = bounds.len() - 1;
    let Network {
        topo,
        mut nodes,
        clocks,
        channels,
        processing,
        proc_rng,
        fifo,
        tick_interval,
        counters,
        messages_sent,
        messages_delivered,
        ticks,
        payload_bytes,
        rec: master,
        faults,
        adversary: _,
        shards: requested,
        shard_lo: _,
        edge_ranks: _,
        outbox: _,
        cross: _,
        timing: _,
    } = net;

    // Split the node vector into contiguous chunks, back to front.
    let mut node_chunks: Vec<Vec<NodeSlot<P>>> = Vec::with_capacity(shards);
    for s in (0..shards).rev() {
        node_chunks.push(nodes.split_off(bounds[s] as usize));
    }
    node_chunks.reverse();

    // Sort each shard's outgoing cross edges into those with a positive
    // static lookahead (folded into one minimum) and those whose lookahead
    // must be pre-drawn, grouped by source node: the node's shard-local
    // in-edges split the same way, and what is scheduled for it so far is
    // its start event and its crash schedule.
    let static_bound = |e: usize| channels[e].delay.min_delay() * faults.min_stretch(e) + proc_min;
    let crash_windows = faults.crash_windows().to_vec();
    let mut static_lookahead = vec![f64::INFINITY; shards];
    let mut sources: Vec<BTreeMap<u32, CrossSource>> =
        (0..shards).map(|_| BTreeMap::new()).collect();
    for e in 0..channels.len() {
        let edge = topo.edge(edge_id_from_raw(e as u32));
        let shard = shard_of(edge.src.index() as u32, bounds);
        if shard == shard_of(edge.dst.index() as u32, bounds) {
            continue;
        }
        let lam = static_bound(e);
        if lam > 0.0 {
            static_lookahead[shard] = static_lookahead[shard].min(lam);
            continue;
        }
        let node = edge.src.index() as u32;
        let source = sources[shard].entry(node).or_insert_with(|| {
            let mut source = CrossSource {
                node,
                out: Vec::new(),
                feeders: Vec::new(),
                feed_static: f64::INFINITY,
                pending: std::iter::once(SimTime::ZERO)
                    .chain(
                        crash_windows
                            .iter()
                            .filter(|w| w.node == node)
                            .flat_map(|w| std::iter::once(w.at).chain(w.recover_at))
                            .map(SimTime::from_secs),
                    )
                    .map(Reverse)
                    .collect(),
            };
            for f in topo.in_edges(edge.src) {
                if shard_of(topo.edge(*f).src.index() as u32, bounds) == shard {
                    match static_bound(f.index()) {
                        lam if lam > 0.0 => source.feed_static = source.feed_static.min(lam),
                        _ => source.feeders.push(f.index()),
                    }
                }
            }
            source
        });
        source.out.push(e);
    }

    // Each channel lives with its *source* shard (send-side state: delay
    // sampling, FIFO clamp, send sequence, drop stream); deliveries touch
    // only the destination node, not the channel.
    let mut chan_chunks: Vec<Vec<ChannelState>> = (0..shards).map(|_| Vec::new()).collect();
    let mut rank_chunks: Vec<Vec<u32>> = (0..shards).map(|_| Vec::new()).collect();
    for (e, ch) in channels.into_iter().enumerate() {
        let src = topo.edge(edge_id_from_raw(e as u32)).src;
        let shard = shard_of(src.index() as u32, bounds);
        chan_chunks[shard].push(ch);
        rank_chunks[shard].push(e as u32);
    }

    let mut parts = Vec::with_capacity(shards);
    let mut node_chunks = node_chunks.into_iter();
    let mut chan_chunks = chan_chunks.into_iter();
    let mut rank_chunks = rank_chunks.into_iter();
    let mut sources = sources.into_iter();
    let mut baseline = Some((
        counters,
        messages_sent,
        messages_delivered,
        ticks,
        payload_bytes,
    ));
    for s in 0..shards {
        let (lo, hi) = (bounds[s], bounds[s + 1]);
        // Shard 0 inherits the pre-run accumulators (normally zero; kept
        // so totals remain lifetime totals, exactly like `run`).
        let (counters, sent, delivered, ticks, payload_bytes) =
            baseline.take().unwrap_or((BTreeMap::new(), 0, 0, 0, 0));
        let mut shard_faults = faults.clone();
        if s > 0 {
            shard_faults.stats = crate::fault::FaultStats::default();
        }
        let part = Network {
            topo: Arc::clone(&topo),
            nodes: node_chunks.next().expect("one node chunk per shard"),
            clocks,
            channels: chan_chunks.next().expect("one channel chunk per shard"),
            processing: Arc::clone(&processing),
            proc_rng: proc_rng.clone(),
            fifo,
            tick_interval,
            counters,
            messages_sent: sent,
            messages_delivered: delivered,
            ticks,
            payload_bytes,
            rec: master.as_ref().map(|m| Box::new(m.window_buffer())),
            faults: shard_faults,
            adversary: None,
            shards: requested,
            shard_lo: lo,
            edge_ranks: Some(rank_chunks.next().expect("one rank chunk per shard")),
            outbox: Vec::new(),
            cross: CrossSends::new(
                sources
                    .next()
                    .expect("one source map per shard")
                    .into_values()
                    .collect(),
            ),
            timing: None,
        };
        let mut sim = Simulation::new(part);
        for i in lo..hi {
            sim.prime_keyed(
                SimTime::ZERO,
                event_key(KIND_START, i, 0),
                NetEvent::Start(i),
            );
        }
        // Crash windows keep their *global* enumeration index as the key
        // sequence so keys match the sequential run's exactly.
        for (w_idx, w) in crash_windows.iter().enumerate() {
            if w.node < lo || w.node >= hi {
                continue;
            }
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
        parts.push(Shard {
            sim,
            static_lookahead: static_lookahead[s],
            lo,
            hi,
            busy_nanos: 0,
        });
    }
    (parts, master)
}

/// Reassembles the partitions into one network plus the run report, the
/// exact mirror of what `Network::run` produces.
fn merge<P: Protocol>(
    parts: Vec<Shard<P>>,
    outcome: RunOutcome,
    events_processed: u64,
    requested_shards: u32,
    timing: ShardTiming,
    master: Option<Box<RunRecorder>>,
) -> (NetworkReport, Network<P>) {
    let end_time = parts
        .iter()
        .map(|sh| sh.sim.now())
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut queue_stats = QueueStats::default();
    for sh in &parts {
        queue_stats.merge(sh.sim.queue_stats());
    }

    let ranges: Vec<(u32, u32)> = parts.iter().map(|sh| (sh.lo, sh.hi)).collect();
    let mut worlds: Vec<Network<P>> = parts.into_iter().map(|sh| sh.sim.into_world()).collect();

    let edge_count = worlds[0].topo.edge_count();
    let mut channel_slots: Vec<Option<ChannelState>> = (0..edge_count).map(|_| None).collect();
    let mut nodes = Vec::with_capacity(worlds[0].topo.node_count() as usize);
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut messages_sent = 0u64;
    let mut messages_delivered = 0u64;
    let mut ticks = 0u64;
    let mut payload_bytes = 0u64;

    // Fault state: start from shard 0's runtime (it carries the baseline
    // stats), fold in sibling stats, and adopt each node's down-state from
    // its owner shard.
    let mut faults: Option<FaultRuntime> = None;
    for (s, world) in worlds.iter_mut().enumerate() {
        nodes.append(&mut world.nodes);
        let ranks = world
            .edge_ranks
            .take()
            .expect("partitions track edge ranks");
        for (rank, ch) in ranks.into_iter().zip(world.channels.drain(..)) {
            channel_slots[rank as usize] = Some(ch);
        }
        for (name, amount) in std::mem::take(&mut world.counters) {
            *counters.entry(name).or_insert(0) += amount;
        }
        messages_sent += world.messages_sent;
        messages_delivered += world.messages_delivered;
        ticks += world.ticks;
        payload_bytes += world.payload_bytes;
        let (lo, hi) = ranges[s];
        match faults.as_mut() {
            None => faults = Some(world.faults.clone()),
            Some(merged) => {
                merged.stats.merge(&world.faults.stats);
                merged.adopt_down(&world.faults, lo as usize, hi as usize);
            }
        }
    }
    let faults = faults.expect("at least one shard");
    let channels: Vec<ChannelState> = channel_slots
        .into_iter()
        .map(|slot| slot.expect("every edge owned by exactly one shard"))
        .collect();

    let first = worlds.swap_remove(0);
    let mut net = Network {
        topo: first.topo,
        nodes,
        clocks: first.clocks,
        channels,
        processing: first.processing,
        proc_rng: first.proc_rng,
        fifo: first.fifo,
        tick_interval: first.tick_interval,
        counters,
        messages_sent,
        messages_delivered,
        ticks,
        payload_bytes,
        rec: master,
        faults,
        adversary: None,
        shards: requested_shards,
        shard_lo: 0,
        edge_ranks: None,
        outbox: Vec::new(),
        cross: CrossSends::new(Vec::new()),
        timing: Some(timing),
    };

    let report = NetworkReport {
        outcome,
        end_time,
        events_processed,
        messages_sent: net.messages_sent,
        messages_delivered: net.messages_delivered,
        in_flight: net.messages_sent - net.messages_delivered - net.faults.stats.dropped(),
        ticks: net.ticks,
        payload_bytes: net.payload_bytes,
        queue_stats,
        faults: net.faults.stats,
        adversary: AdversaryStats::default(),
        counters: std::mem::take(&mut net.counters),
        trace_records: net.rec.as_ref().map_or(0, |r| r.seen()),
        trace_dropped: net.rec.as_ref().map_or(0, |r| r.dropped()),
    };
    (report, net)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use abe_sim::{RunLimits, SimTime};
    use abe_telemetry::{Recording, TraceEvent};
    use proptest::prelude::*;

    use super::CREDIT_DEPTH;
    use crate::delay::{Bimodal, Deterministic, Exponential, SharedDelay, Uniform};
    use crate::fault::{EdgeSelector, FaultPlan};
    use crate::net::{Network, ShardTiming};
    use crate::protocol::{Ctx, InPort, OutPort, Protocol};
    use crate::topology::{EdgeId, NodeId};
    use crate::{NetworkBuilder, Topology};

    /// Forwards a hop-counted token; initiators inject one each.
    #[derive(Debug, Clone)]
    struct Relay {
        initiator: bool,
        hops_left: u32,
        seen: u32,
    }

    impl Protocol for Relay {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.initiator {
                ctx.send(OutPort(0), self.hops_left);
            }
        }
        fn on_message(&mut self, _from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen += 1;
            ctx.count("hops", 1);
            if msg > 0 {
                ctx.send(OutPort(0), msg - 1);
            }
        }
    }

    fn relay_builder(n: u32, seed: u64) -> NetworkBuilder {
        NetworkBuilder::new(Topology::unidirectional_ring(n).unwrap()).seed(seed)
    }

    fn relay_factory(i: usize) -> Relay {
        Relay {
            initiator: i.is_multiple_of(3),
            hops_left: 40,
            seen: 0,
        }
    }

    /// Every channel stream must end a sharded run exactly where it ends
    /// the sequential one: pre-drawing peeks at clones, never at the
    /// streams themselves.
    fn assert_same_channel_streams<P: Protocol>(seq: &Network<P>, par: &Network<P>) {
        for (e, (s, p)) in seq.channels.iter().zip(&par.channels).enumerate() {
            assert!(s.rng == p.rng, "edge {e}: channel streams diverge");
        }
    }

    /// Sequential and sharded runs must produce equal reports and equal
    /// final protocol states. Returns the timing of each sharded run.
    fn assert_equivalent_at(
        make: impl Fn() -> NetworkBuilder,
        limits: RunLimits,
        shard_counts: &[u32],
    ) -> Vec<ShardTiming> {
        let (seq_report, seq_net) = make().build(relay_factory).unwrap().run(limits);
        shard_counts
            .iter()
            .map(|&shards| {
                let (par_report, par_net) = make()
                    .shards(shards)
                    .build(relay_factory)
                    .unwrap()
                    .run_sharded(limits);
                assert_eq!(seq_report, par_report, "shards = {shards}");
                for i in 0..seq_net.topology().node_count() as usize {
                    assert_eq!(seq_net.node(i).seen, par_net.node(i).seen, "node {i}");
                }
                assert_same_channel_streams(&seq_net, &par_net);
                let timing = par_net.shard_timing().expect("sharded run records timing");
                assert_eq!(timing.shards, shards.min(seq_net.topology().node_count()));
                timing.clone()
            })
            .collect()
    }

    fn assert_equivalent(make: impl Fn() -> NetworkBuilder, limits: RunLimits) {
        assert_equivalent_at(make, limits, &[2, 3, 8]);
    }

    #[test]
    fn windowed_run_matches_sequential_with_positive_lookahead() {
        assert_equivalent(
            || relay_builder(24, 11).delay(Uniform::new(0.5, 1.5).unwrap()),
            RunLimits::unbounded(),
        );
    }

    /// A delay that is really zero leaves nothing to pre-draw a bound
    /// from: the executor steps the globally earliest event, one at a
    /// time, and never opens a window.
    #[test]
    fn zero_lookahead_degenerates_to_exact_single_stepping() {
        let timings = assert_equivalent_at(
            || relay_builder(16, 5).delay(Deterministic::zero()),
            RunLimits::unbounded(),
            &[2, 3, 8],
        );
        for timing in timings {
            assert_eq!(timing.windows, 0);
            assert!(timing.single_steps > 0);
            assert!(!timing.fell_back);
        }
    }

    /// Exponential delays have infimum 0 but run in windows all the same:
    /// the lookahead comes from the delays pre-drawn on the cross edges.
    #[test]
    fn exponential_ring_runs_in_windows_not_single_steps() {
        let timings = assert_equivalent_at(
            || relay_builder(48, 21).delay(Exponential::from_mean(1.0).unwrap()),
            RunLimits::until(SimTime::from_secs(12.0)),
            &[2, 3, 4],
        );
        for timing in timings {
            assert_eq!(timing.single_steps, 0);
            assert!(timing.windows > 0);
            assert!(!timing.fell_back, "{timing:?}");
        }
    }

    /// A pre-drawn bound counts from the next event of the edge's source
    /// node: one already scheduled for it, or a delivery its shard-local
    /// in-neighbour has yet to send over the feeder — whichever is sooner.
    #[test]
    fn pre_drawn_bounds_count_from_the_source_nodes_next_event() {
        let net = relay_builder(8, 1)
            .delay(Exponential::from_mean(1.0).unwrap())
            .shards(2)
            .build(relay_factory)
            .unwrap();
        let topo = Arc::clone(&net.topo);
        let (mut parts, _) = super::partition(net, &[0, 4, 8], 0.0);
        let shard = &mut parts[0];
        shard.refresh_credits(0.0);

        // Shard 0 owns nodes 0..4: its one cross edge leaves node 3, and
        // node 3's one in-edge is the feeder.
        let source = NodeId::new(3);
        let (out, feeder) = (topo.out_edges(source)[0], topo.in_edges(source)[0]);
        let world = shard.sim.world();
        let bound = |edge: EdgeId| {
            world.channels[world.channel_slot(edge.index())]
                .peek_delays(CREDIT_DEPTH)
                .fold(f64::INFINITY, f64::min)
        };
        let (out_bound, feeder_bound) = (bound(out), bound(feeder));
        let cross = &world.cross;
        let edges: Vec<_> = cross.credits.iter().map(|c| c.edge as usize).collect();
        assert_eq!(edges, [feeder.index(), out.index()]);
        assert_eq!(cross.sources.len(), 1);
        assert_eq!(cross.sources[0].node, 3);

        // Its start event is pending: it may send at once.
        assert_eq!(shard.earliest_cross_arrival(SimTime::ZERO), out_bound);
        // Past it, with nothing scheduled, only the feeder can wake it.
        let t = SimTime::from_secs(1.0);
        assert_eq!(
            shard.earliest_cross_arrival(t),
            1.0 + feeder_bound + out_bound
        );
        // An event scheduled for it in between comes first.
        let sooner = 1.0 + feeder_bound / 2.0;
        let cross = &mut shard.sim.world_mut().cross;
        cross.note_event(3, SimTime::from_secs(sooner));
        cross.note_event(2, SimTime::from_secs(1.0));
        assert_eq!(shard.earliest_cross_arrival(t), sooner + out_bound);
    }

    /// The dropped-send credit case: a send the fault layer drops has
    /// drawn its delay all the same, and a sub-unity storm shrinks the
    /// pre-drawn bound. Every edge is a cross edge for some shard count.
    #[test]
    fn exponential_ring_with_drops_and_a_shrinking_storm_runs_in_windows() {
        let timings = assert_equivalent_at(
            || {
                relay_builder(48, 21)
                    .delay(Exponential::from_mean(1.0).unwrap())
                    .fault(FaultPlan::new().drop(EdgeSelector::All, 0.15).delay_storm(
                        EdgeSelector::All,
                        1.0,
                        6.0,
                        0.25,
                    ))
            },
            RunLimits::until(SimTime::from_secs(12.0)),
            &[2, 3, 4],
        );
        for timing in timings {
            assert_eq!(timing.single_steps, 0);
            assert!(timing.windows > 0);
            assert!(!timing.fell_back, "{timing:?}");
        }
    }

    /// Sends `burst` copies of every message on every port: more draws
    /// per handler than a cross edge has pre-drawn delays.
    #[derive(Debug, Clone)]
    struct Burst {
        burst: u32,
        seen: u32,
    }

    impl Protocol for Burst {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.flood(1, ctx);
        }
        fn on_message(&mut self, _from: InPort, ttl: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen += 1;
            if ttl > 0 {
                self.flood(ttl - 1, ctx);
            }
        }
    }

    impl Burst {
        fn flood(&self, ttl: u32, ctx: &mut Ctx<'_, u32>) {
            for port in 0..ctx.out_degree() {
                for _ in 0..self.burst {
                    ctx.send(OutPort(port), ttl);
                }
            }
        }
    }

    /// The lookahead bounds only the pre-drawn delays. A handler that
    /// draws past them can undercut it; the executor must notice the late
    /// arrival, say so, and still return the sequential result.
    #[test]
    fn draws_beyond_the_credit_abort_on_a_late_arrival() {
        let make = |shards: u32| {
            NetworkBuilder::new(Topology::complete(8).unwrap())
                .delay(Exponential::from_mean(1.0).unwrap())
                .seed(3)
                .shards(shards)
                .build(|_| Burst {
                    burst: 3 * CREDIT_DEPTH,
                    seen: 0,
                })
                .unwrap()
        };
        let (seq_report, seq_net) = make(1).run(RunLimits::unbounded());
        for shards in [2, 4] {
            let (par_report, par_net) = make(shards).run_sharded(RunLimits::unbounded());
            assert_eq!(seq_report, par_report, "shards = {shards}");
            for i in 0..8 {
                assert_eq!(seq_net.node(i).seen, par_net.node(i).seen, "node {i}");
            }
            let timing = par_net.shard_timing().unwrap();
            assert!(timing.late_arrival_abort, "shards = {shards}: {timing:?}");
            assert!(timing.fell_back);
        }
    }

    #[test]
    fn max_time_limit_matches_sequential() {
        assert_equivalent(
            || relay_builder(24, 3).delay(Uniform::new(0.5, 1.5).unwrap()),
            RunLimits::until(abe_sim::SimTime::from_secs(7.5)),
        );
    }

    #[test]
    fn faulty_runs_match_sequential() {
        let plan = || {
            FaultPlan::new()
                .crash_recover(2, 1.0, 4.0)
                .crash_stop(9, 3.0)
                .drop(EdgeSelector::All, 0.1)
                .delay_storm(EdgeSelector::All, 2.0, 5.0, 3.0)
        };
        assert_equivalent(
            || {
                relay_builder(24, 7)
                    .delay(Uniform::new(0.5, 1.5).unwrap())
                    .fault(plan())
            },
            RunLimits::unbounded(),
        );
    }

    #[test]
    fn deterministic_delay_ties_match_sequential() {
        assert_equivalent(
            || {
                relay_builder(20, 2)
                    .delay(Deterministic::new(1.0).unwrap())
                    .fifo(true)
            },
            RunLimits::unbounded(),
        );
    }

    #[test]
    fn event_budget_overshoot_falls_back_to_sequential() {
        let limits = RunLimits::events(97);
        let (seq_report, _) = relay_builder(24, 11)
            .delay(Uniform::new(0.5, 1.5).unwrap())
            .build(relay_factory)
            .unwrap()
            .run(limits);
        let (par_report, par_net) = relay_builder(24, 11)
            .delay(Uniform::new(0.5, 1.5).unwrap())
            .shards(4)
            .build(relay_factory)
            .unwrap()
            .run_sharded(limits);
        assert_eq!(seq_report, par_report);
        assert_eq!(par_report.outcome, abe_sim::RunOutcome::MaxEvents);
        assert_eq!(par_report.events_processed, 97);
        // Whether this hit a window boundary exactly or fell back, the
        // timing must say which.
        assert!(par_net.shard_timing().is_some());
    }

    /// Shards that halt on credit lag their siblings, so a budget that
    /// runs out at a barrier is the sequential `MaxEvents` state only if
    /// the processed events are a prefix of the sequential order; every
    /// other budget must be replayed. Either way the reports match.
    #[test]
    fn event_budgets_match_sequential_under_exponential_delays() {
        for budget in 100..400 {
            let limits = RunLimits::events(budget);
            let make = |shards: u32| {
                relay_builder(24, 4)
                    .delay(Exponential::from_mean(1.0).unwrap())
                    .shards(shards)
                    .build(|_| Volley)
                    .unwrap()
            };
            let (seq_report, _) = make(1).run(limits);
            assert_eq!(seq_report.outcome, abe_sim::RunOutcome::MaxEvents);
            for shards in [2, 3] {
                let (par_report, _) = make(shards).run_sharded(limits);
                assert_eq!(seq_report, par_report, "budget {budget}, shards {shards}");
            }
        }
    }

    /// A protocol that stops the network mid-flight: the sharded run must
    /// still match (via exact single-step stop or sequential fallback).
    #[test]
    fn stop_requests_match_sequential() {
        #[derive(Debug, Clone)]
        struct StopAfter {
            initiator: bool,
            seen: u32,
        }
        impl Protocol for StopAfter {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.initiator {
                    ctx.send(OutPort(0), ());
                }
            }
            fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
                self.seen += 1;
                if self.seen == 5 {
                    ctx.stop_network();
                } else {
                    ctx.send(OutPort(0), ());
                }
            }
        }
        let make = |shards: u32| {
            NetworkBuilder::new(Topology::unidirectional_ring(12).unwrap())
                .delay(Uniform::new(0.5, 1.5).unwrap())
                .seed(13)
                .shards(shards)
                .build(|i| StopAfter {
                    initiator: i == 0,
                    seen: 0,
                })
                .unwrap()
        };
        let (seq_report, _) = make(1).run(RunLimits::unbounded());
        let (par_report, _) = make(4).run_sharded(RunLimits::unbounded());
        assert_eq!(seq_report, par_report);
        assert!(par_report.outcome.is_stopped());
    }

    /// Traced sharded runs no longer delegate: per-shard window buffers
    /// merged at barriers must reproduce the sequential record stream
    /// exactly — same records, same `(time, key, sub)` stamps, same
    /// derived histograms.
    #[test]
    fn traced_runs_match_sequential_record_for_record() {
        let timings = assert_traces_equivalent(
            || relay_builder(24, 11).delay(Uniform::new(0.5, 1.5).unwrap()),
            relay_factory,
            RunLimits::unbounded(),
            &[2, 3, 8],
        );
        // Recording must not force the sequential fallback.
        assert!(timings.iter().all(|t| !t.fell_back));
    }

    /// Runs `make()` sequentially and at each shard count with full
    /// recording: reports, record streams and hist-v1 documents must be
    /// identical. Returns the timing of each sharded run.
    fn assert_traces_equivalent<P>(
        make: impl Fn() -> NetworkBuilder,
        factory: impl Fn(usize) -> P + Copy,
        limits: RunLimits,
        shard_counts: &[u32],
    ) -> Vec<ShardTiming>
    where
        P: Protocol + Clone + Send,
        P::Message: Send,
    {
        let make = || make().record(Recording::full().histograms(true));
        let hist = |net: &Network<P>| net.telemetry().unwrap().histograms().unwrap().to_json();
        let (seq_report, seq_net) = make().build(factory).unwrap().run(limits);
        assert!(seq_report.trace_records > 0);
        let seq_recs: Vec<_> = seq_net.trace().collect();
        shard_counts
            .iter()
            .map(|&shards| {
                let (par_report, par_net) = make()
                    .shards(shards)
                    .build(factory)
                    .unwrap()
                    .run_sharded(limits);
                assert_eq!(seq_report, par_report, "shards = {shards}");
                assert_eq!(par_report.trace_records, seq_report.trace_records);
                let par_recs: Vec<_> = par_net.trace().collect();
                assert_eq!(seq_recs, par_recs, "shards = {shards}");
                assert_eq!(hist(&seq_net), hist(&par_net), "shards = {shards}");
                par_net.shard_timing().unwrap().clone()
            })
            .collect()
    }

    /// Forwards a hop-counted token escorted by duds, a full credit's
    /// worth of sends per handler: whenever a token crosses a shard
    /// boundary the edge's credit is used up exactly — never overdrawn —
    /// and the shard has to halt.
    #[derive(Debug, Clone)]
    struct Volley;

    impl Volley {
        fn forward(hops: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(OutPort(0), hops);
            for _ in 1..CREDIT_DEPTH {
                ctx.send(OutPort(0), 0);
            }
        }
    }

    impl Protocol for Volley {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            Self::forward(12, ctx);
        }
        fn on_message(&mut self, _from: InPort, hops: u32, ctx: &mut Ctx<'_, u32>) {
            if hops > 0 {
                Self::forward(hops - 1, ctx);
            }
        }
    }

    /// A shard that halts on credit mid-window leaves its siblings ahead
    /// of it; the barrier merge must hold their records back until the
    /// laggard has caught up. Over a handful of seeds some run halts on
    /// credit without tripping a late arrival — all must match.
    #[test]
    fn traced_runs_with_credit_halts_match_sequential() {
        let mut halted_in_windows = 0;
        for seed in 0..12 {
            let timings = assert_traces_equivalent(
                || relay_builder(24, seed).delay(Exponential::from_mean(1.0).unwrap()),
                |_| Volley,
                RunLimits::until(SimTime::from_secs(10.0)),
                &[2, 3],
            );
            for timing in timings {
                assert_eq!(timing.single_steps, 0);
                if timing.credit_halts > 0 && !timing.fell_back {
                    halted_in_windows += 1;
                }
            }
        }
        assert!(halted_in_windows > 0, "no run halted on credit mid-window");
    }

    /// A delay with an atom at zero: the pre-drawn bound is positive at
    /// some barriers and zero at others, so one run mixes windows, credit
    /// halts and single-steps — on tie-heavy times.
    fn sometimes_zero() -> Bimodal {
        Bimodal::new(0.0, 1.0, 0.9).unwrap()
    }

    #[test]
    fn traced_runs_mixing_windows_and_single_steps_match_sequential() {
        let mut mixed = 0;
        for seed in 0..8 {
            let timings = assert_traces_equivalent(
                || relay_builder(24, seed).delay(sometimes_zero()),
                |_| Volley,
                RunLimits::until(SimTime::from_secs(10.0)),
                &[2, 3],
            );
            for t in timings {
                if t.windows > 0 && t.single_steps > 0 && t.credit_halts > 0 && !t.fell_back {
                    mixed += 1;
                }
            }
        }
        assert!(mixed > 0, "no run mixed windows, halts and single-steps");
    }

    /// A [`Volley`] that stops the network at some node's `stop_at`-th
    /// message.
    #[derive(Debug, Clone)]
    struct StopAt {
        seen: u32,
        stop_at: u32,
    }

    impl Protocol for StopAt {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            Volley::forward(12, ctx);
        }
        fn on_message(&mut self, _from: InPort, hops: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen += 1;
            if self.seen == self.stop_at {
                ctx.stop_network();
            } else if hops > 0 {
                Volley::forward(hops - 1, ctx);
            }
        }
    }

    /// A stop is the sequential stop state only if nothing ran past it:
    /// inside a window it never is, and in a single step only when no
    /// sibling is ahead of the stepped shard.
    #[test]
    fn stop_requests_match_sequential_in_windows_and_single_steps() {
        let delays: [SharedDelay; 2] = [
            Arc::new(Exponential::from_mean(1.0).unwrap()),
            Arc::new(sometimes_zero()),
        ];
        for delay in delays {
            for seed in 0..6 {
                for stop_at in [2, 5, 9, 13] {
                    let make = |shards: u32| {
                        relay_builder(24, seed)
                            .delay_shared(Arc::clone(&delay))
                            .shards(shards)
                            .build(|_| StopAt { seen: 0, stop_at })
                            .unwrap()
                    };
                    let (seq_report, seq_net) = make(1).run(RunLimits::unbounded());
                    assert!(seq_report.outcome.is_stopped());
                    for shards in [2, 3] {
                        let (par_report, par_net) =
                            make(shards).run_sharded(RunLimits::unbounded());
                        let what =
                            format!("{delay:?}, seed {seed}, stop_at {stop_at}, {shards} shards");
                        assert_eq!(seq_report, par_report, "{what}");
                        for i in 0..24 {
                            assert_eq!(seq_net.node(i).seen, par_net.node(i).seen, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Zero-delay traced runs: single-stepped events record straight into
    /// the master, including same-time chains that hop between shards
    /// towards *smaller* keys.
    #[test]
    fn traced_single_stepped_runs_match_sequential() {
        let timings = assert_traces_equivalent(
            || relay_builder(16, 5).delay(Deterministic::zero()),
            relay_factory,
            RunLimits::unbounded(),
            &[2, 3, 8],
        );
        assert!(timings.iter().all(|t| t.windows == 0 && !t.fell_back));
    }

    /// Same equivalence under exponential delays with faults injecting
    /// crash/drop records.
    #[test]
    fn traced_faulty_zero_lookahead_runs_match_sequential() {
        assert_traces_equivalent(
            || {
                relay_builder(16, 5)
                    .delay(Exponential::from_mean(1.0).unwrap())
                    .fault(
                        FaultPlan::new()
                            .crash_recover(2, 1.0, 4.0)
                            .drop(EdgeSelector::All, 0.1),
                    )
            },
            relay_factory,
            RunLimits::unbounded(),
            &[4],
        );
    }

    #[test]
    fn adversary_runs_delegate_to_sequential() {
        use crate::adversary::{Adversary, AdversaryPlan, SendView};
        use abe_sim::Xoshiro256PlusPlus;

        /// Always proposes the full per-edge budget.
        #[derive(Debug, Clone)]
        struct Greedy;
        impl Adversary for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn delay(&mut self, send: &SendView<'_>, _rng: &mut Xoshiro256PlusPlus) -> f64 {
                send.budget
            }
            fn box_clone(&self) -> Box<dyn Adversary> {
                Box::new(self.clone())
            }
        }

        let make = |shards: u32| {
            relay_builder(12, 1)
                .delay(Exponential::from_mean(1.0).unwrap())
                .adversary(AdversaryPlan::new(1.0, Greedy).unwrap())
                .shards(shards)
                .build(relay_factory)
                .unwrap()
        };
        let (seq_report, _) = make(1).run(RunLimits::unbounded());
        let (par_report, par_net) = make(4).run_sharded(RunLimits::unbounded());
        assert_eq!(seq_report, par_report);
        // Delegated runs carry no shard timing.
        assert!(par_net.shard_timing().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The `k` delays peeked on an edge are, bit for bit, the next `k`
        /// delays `transmit` draws on it — sequentially and sharded, and
        /// also when the fault layer drops sends (a dropped send has no
        /// `Send` record, but it has drawn: later records keep their
        /// place in the peeked sequence). The sharded run leaves every
        /// channel stream where the sequential run leaves it.
        #[test]
        fn peeked_delays_are_the_delays_transmit_draws(
            seed in 0u64..10_000,
            edge in 0u32..24,
            k in 1u32..12,
            drops in any::<bool>(),
            shards in 2u32..5,
        ) {
            let make = || {
                let plan = if drops {
                    FaultPlan::new().drop(EdgeSelector::All, 0.3)
                } else {
                    FaultPlan::new()
                };
                relay_builder(24, seed)
                    .delay(Exponential::from_mean(1.0).unwrap())
                    .fault(plan)
                    .record(Recording::full())
            };
            let net = make().build(relay_factory).unwrap();
            let peeked: Vec<f64> = net.channels[edge as usize].peek_delays(k).collect();
            let (seq_report, seq_net) = net.run(RunLimits::unbounded());
            let (par_report, par_net) = make()
                .shards(shards)
                .build(relay_factory)
                .unwrap()
                .run_sharded(RunLimits::unbounded());
            prop_assert_eq!(seq_report, par_report);
            for net in [&seq_net, &par_net] {
                for rec in net.trace() {
                    if let TraceEvent::Send { edge: e, seq, delay, .. } = rec.event {
                        if e == edge && seq < u64::from(k) {
                            prop_assert_eq!(delay, peeked[seq as usize]);
                        }
                    }
                }
            }
            assert_same_channel_streams(&seq_net, &par_net);
        }
    }
}
