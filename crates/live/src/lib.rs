//! # abe-live — a thread-per-node live runtime for ABE protocols
//!
//! The discrete-event simulator in `abe-core` is the *measurement*
//! substrate; this crate demonstrates that the same [`Protocol`] values
//! are not simulator-bound. Every node runs on its own OS thread,
//! messages travel through `crossbeam` channels, and link delays are
//! realised by a delivery daemon that holds each message for a wall-clock
//! duration sampled from the configured
//! [`DelayModel`](abe_core::delay::DelayModel) (scaled by
//! [`LiveConfig::time_scale`]).
//!
//! Live executions are **not deterministic** — thread scheduling is real —
//! which is exactly the point: safety properties (unique leader, correct
//! convergecast sums) must hold under true concurrency, and the tests in
//! this crate check precisely that.
//!
//! Limitations (documented, deliberate): clocks run at rate 1 (wall
//! clock), processing time is the actual handler cost, and there is no
//! virtual-time report — use the simulator for complexity measurements.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! use abe_core::delay::Exponential;
//! use abe_core::Topology;
//! use abe_election::{AbeElection, ElectionState};
//! use abe_live::{run_live, LiveConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 6;
//! let report = run_live(
//!     Topology::unidirectional_ring(n)?,
//!     Arc::new(Exponential::from_mean(1.0)?),
//!     &LiveConfig {
//!         time_scale: Duration::from_micros(200), // 1 virtual s = 200 µs
//!         seed: 7,
//!         max_wall: Duration::from_secs(10),
//!     },
//!     |_| AbeElection::calibrated(n, 2.0).expect("valid parameters"),
//!     |stats| stats.stop_requested, // run until a node stops the network
//! );
//! let leaders = report
//!     .protocols
//!     .iter()
//!     .filter(|p| p.state() == ElectionState::Leader)
//!     .count();
//! assert_eq!(leaders, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use abe_core::delay::SharedDelay;
use abe_core::topology::NodeId;
use abe_core::{Ctx, InPort, Protocol, Topology};
use abe_sim::SeedStream;

/// Configuration of a live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Wall-clock duration of one virtual second (delay-model unit).
    pub time_scale: Duration,
    /// Master seed for delay sampling and protocol RNG streams.
    pub seed: u64,
    /// Hard wall-clock deadline; the run stops when it elapses.
    pub max_wall: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            time_scale: Duration::from_micros(500),
            seed: 0,
            max_wall: Duration::from_secs(30),
        }
    }
}

/// Live counters exposed to the `until` predicate of [`run_live`].
#[derive(Debug, Clone, Copy)]
pub struct LiveStats {
    /// Messages handed to the delivery daemon so far.
    pub messages_sent: u64,
    /// Messages delivered to node threads so far.
    pub messages_delivered: u64,
    /// Whether some protocol called `stop_network`.
    pub stop_requested: bool,
    /// Wall-clock time since the run started.
    pub wall_elapsed: Duration,
}

/// Final state of a live run.
#[derive(Debug)]
pub struct LiveReport<P> {
    /// Protocol states in node order.
    pub protocols: Vec<P>,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Whether a protocol requested the stop (vs deadline/predicate).
    pub stop_requested: bool,
    /// Experiment counters aggregated across nodes.
    pub counters: BTreeMap<&'static str, u64>,
    /// Wall-clock duration of the run.
    pub wall_elapsed: Duration,
}

/// One message in flight, ordered by delivery deadline.
struct Delivery<M> {
    due: Instant,
    node: usize,
    port: usize,
    msg: M,
}

impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl<M> Eq for Delivery<M> {}
impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // min-heap by due time
    }
}

struct Shared<M> {
    heap: Mutex<BinaryHeap<Delivery<M>>>,
    wake: Condvar,
    stop: AtomicBool,
    protocol_stop: AtomicBool,
    sent: AtomicU64,
    delivered: AtomicU64,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

/// Runs `factory`-built protocols live, one OS thread per node, until the
/// `until` predicate fires, a protocol requests a stop, or
/// [`LiveConfig::max_wall`] elapses.
///
/// The predicate is polled every few milliseconds with fresh [`LiveStats`];
/// `|stats| stats.stop_requested` runs until a protocol stops the network.
///
/// # Panics
///
/// Panics if a node thread panics (the panic is propagated on join).
pub fn run_live<P, F, U>(
    topo: Topology,
    delay: SharedDelay,
    cfg: &LiveConfig,
    mut factory: F,
    until: U,
) -> LiveReport<P>
where
    P: Protocol + Send + 'static,
    P::Message: Send + 'static,
    F: FnMut(usize) -> P,
    U: Fn(&LiveStats) -> bool,
{
    let n = topo.node_count() as usize;
    let topo = Arc::new(topo);
    let shared: Arc<Shared<P::Message>> = Arc::new(Shared {
        heap: Mutex::new(BinaryHeap::new()),
        wake: Condvar::new(),
        stop: AtomicBool::new(false),
        protocol_stop: AtomicBool::new(false),
        sent: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        counters: Mutex::new(BTreeMap::new()),
    });
    let seeds = SeedStream::new(cfg.seed);
    let start = Instant::now();

    // Per-node inboxes.
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, P::Message)>();
        senders.push(tx);
        receivers.push(rx);
    }

    // Delivery daemon: holds messages until their wall deadline, then
    // forwards them into the destination inbox.
    let daemon = {
        let shared = Arc::clone(&shared);
        let senders = senders.clone();
        thread::spawn(move || loop {
            let mut heap = shared.heap.lock().expect("daemon lock");
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            match heap.peek() {
                Some(d) if d.due <= now => {
                    let d = heap.pop().expect("peeked");
                    drop(heap);
                    shared.delivered.fetch_add(1, Ordering::SeqCst);
                    // A send error only means the node already exited.
                    let _ = senders[d.node].send((d.port, d.msg));
                }
                Some(d) => {
                    let wait = d.due - now;
                    let _ = shared
                        .wake
                        .wait_timeout(heap, wait.min(Duration::from_millis(20)))
                        .expect("daemon wait");
                }
                None => {
                    let _ = shared
                        .wake
                        .wait_timeout(heap, Duration::from_millis(20))
                        .expect("daemon wait");
                }
            }
        })
    };

    // Node threads.
    let mut handles = Vec::with_capacity(n);
    for (i, receiver) in receivers.iter().enumerate() {
        let node_id = NodeId::new(i as u32);
        let proto = factory(i);
        let rx = receiver.clone();
        let shared = Arc::clone(&shared);
        let topo = Arc::clone(&topo);
        let delay = Arc::clone(&delay);
        let mut rng = seeds.stream("live-node", i as u64);
        let mut delay_rng = seeds.stream("live-delay", i as u64);
        let network_size = topo.node_count();
        let (out_degree, in_degree) = (topo.out_degree(node_id), topo.in_degree(node_id));
        let time_scale = cfg.time_scale;

        handles.push(thread::spawn(move || {
            enum NodeEvent<M> {
                Start,
                Tick,
                Message(usize, M),
            }

            let mut proto = proto;
            let thread_start = Instant::now();

            let dispatch = |proto: &mut P,
                            rng: &mut abe_sim::Xoshiro256PlusPlus,
                            delay_rng: &mut abe_sim::Xoshiro256PlusPlus,
                            event: NodeEvent<P::Message>| {
                let local_time = thread_start.elapsed().as_secs_f64() / time_scale.as_secs_f64();
                let mut ctx = Ctx::external(
                    local_time,
                    network_size,
                    out_degree,
                    in_degree,
                    topo.reply_ports(node_id),
                    rng,
                );
                match event {
                    NodeEvent::Start => proto.on_start(&mut ctx),
                    NodeEvent::Tick => proto.on_tick(&mut ctx),
                    NodeEvent::Message(port, msg) => proto.on_message(InPort(port), msg, &mut ctx),
                }
                let effects = ctx.finish();
                for (port, msg) in effects.sends {
                    let edge = topo.out_edges(node_id)[port.0];
                    let (dst, in_port) = (topo.edge(edge).dst.index(), topo.in_port(edge));
                    let virtual_delay = delay.sample(delay_rng).as_secs();
                    let due = Instant::now() + time_scale.mul_f64(virtual_delay);
                    shared.sent.fetch_add(1, Ordering::SeqCst);
                    let mut heap = shared.heap.lock().expect("node lock");
                    heap.push(Delivery {
                        due,
                        node: dst,
                        port: in_port,
                        msg,
                    });
                    drop(heap);
                    shared.wake.notify_all();
                }
                if !effects.counters.is_empty() {
                    let mut counters = shared.counters.lock().expect("counter lock");
                    for (name, amount) in effects.counters {
                        *counters.entry(name).or_insert(0) += amount;
                    }
                }
                if effects.stop {
                    shared.protocol_stop.store(true, Ordering::SeqCst);
                    shared.stop.store(true, Ordering::SeqCst);
                    shared.wake.notify_all();
                }
            };

            dispatch(&mut proto, &mut rng, &mut delay_rng, NodeEvent::Start);

            // Tick scheduling: virtual tick interval 1.0, stride-aware
            // (mirrors the simulator's sync_tick).
            let mut next_tick: Option<Instant> = None;
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return proto;
                }
                if proto.wants_tick() {
                    if next_tick.is_none() {
                        let stride = proto.tick_stride(&mut rng).max(1);
                        next_tick = Some(Instant::now() + time_scale.mul_f64(stride as f64));
                    }
                } else {
                    next_tick = None;
                }
                let now = Instant::now();
                let deadline = next_tick
                    .unwrap_or(now + Duration::from_millis(10))
                    .min(now + Duration::from_millis(10));
                match rx.recv_timeout(deadline.saturating_duration_since(now)) {
                    Ok((port, msg)) => {
                        // Any interaction re-arms the tick schedule.
                        next_tick = None;
                        dispatch(
                            &mut proto,
                            &mut rng,
                            &mut delay_rng,
                            NodeEvent::Message(port, msg),
                        );
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        if let Some(due) = next_tick {
                            if Instant::now() >= due && proto.wants_tick() {
                                next_tick = None;
                                dispatch(&mut proto, &mut rng, &mut delay_rng, NodeEvent::Tick);
                            }
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        return proto;
                    }
                }
            }
        }));
    }
    drop(receivers);

    // Monitor: polls the predicate and the deadline.
    loop {
        let stats = LiveStats {
            messages_sent: shared.sent.load(Ordering::SeqCst),
            messages_delivered: shared.delivered.load(Ordering::SeqCst),
            stop_requested: shared.protocol_stop.load(Ordering::SeqCst),
            wall_elapsed: start.elapsed(),
        };
        if shared.stop.load(Ordering::SeqCst) || until(&stats) || stats.wall_elapsed >= cfg.max_wall
        {
            shared.stop.store(true, Ordering::SeqCst);
            shared.wake.notify_all();
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }

    let mut protocols = Vec::with_capacity(n);
    for handle in handles {
        protocols.push(handle.join().expect("node thread panicked"));
    }
    daemon.join().expect("daemon thread panicked");

    let counters = shared.counters.lock().expect("counter lock").clone();
    LiveReport {
        protocols,
        messages_sent: shared.sent.load(Ordering::SeqCst),
        messages_delivered: shared.delivered.load(Ordering::SeqCst),
        stop_requested: shared.protocol_stop.load(Ordering::SeqCst),
        counters,
        wall_elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_core::delay::{Deterministic, Exponential};
    use abe_election::{AbeElection, ElectionState};
    use abe_wave::{Echo, Flood};

    fn fast_cfg(seed: u64) -> LiveConfig {
        LiveConfig {
            time_scale: Duration::from_micros(200),
            seed,
            max_wall: Duration::from_secs(20),
        }
    }

    #[test]
    fn live_election_elects_exactly_one_leader() {
        for seed in 0..3 {
            let n = 6;
            let report = run_live(
                Topology::unidirectional_ring(n).unwrap(),
                Arc::new(Exponential::from_mean(1.0).unwrap()),
                &fast_cfg(seed),
                |_| AbeElection::calibrated(n, 2.0).unwrap(),
                |stats| stats.stop_requested,
            );
            assert!(report.stop_requested, "seed {seed}: election must finish");
            let leaders = report
                .protocols
                .iter()
                .filter(|p| p.state() == ElectionState::Leader)
                .count();
            assert_eq!(leaders, 1, "seed {seed}");
            assert_eq!(report.counters.get("elected"), Some(&1), "seed {seed}");
        }
    }

    #[test]
    fn live_flood_informs_everyone() {
        let topo = Topology::torus(3, 3).unwrap();
        let edges = topo.edge_count() as u64;
        let report = run_live(
            topo,
            Arc::new(Deterministic::new(0.5).unwrap()),
            &fast_cfg(1),
            |i| Flood::new(i == 0, 42),
            move |stats| stats.messages_delivered >= edges,
        );
        assert!(report.protocols.iter().all(|p| p.payload() == Some(42)));
        assert_eq!(report.messages_sent, edges);
    }

    #[test]
    fn live_echo_aggregates_correctly() {
        let n = 9u64;
        let report = run_live(
            Topology::torus(3, 3).unwrap(),
            Arc::new(Exponential::from_mean(0.5).unwrap()),
            &fast_cfg(2),
            |i| Echo::new(i == 0, i as u64),
            |stats| stats.stop_requested,
        );
        assert!(report.stop_requested, "echo wave must complete");
        assert_eq!(report.protocols[0].result(), Some(n * (n - 1) / 2));
    }

    #[test]
    fn deadline_stops_a_quiet_network() {
        // A protocol that never stops: the wall deadline must end the run.
        let report = run_live(
            Topology::unidirectional_ring(2).unwrap(),
            Arc::new(Deterministic::new(1.0).unwrap()),
            &LiveConfig {
                time_scale: Duration::from_micros(100),
                seed: 0,
                max_wall: Duration::from_millis(100),
            },
            |i| Flood::new(i == 0, 1),
            |_| false,
        );
        assert!(!report.stop_requested);
        assert!(report.wall_elapsed >= Duration::from_millis(100));
    }
}
