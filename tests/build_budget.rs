//! Allocation budgets of network construction and of recorded
//! deliveries, measured with a counting global allocator.
//!
//! Building a network writes each node slot and channel once, in place:
//! the number of allocations does not grow with `n`, and nothing is
//! staged and freed on the way, so the peak live bytes during `build`
//! are exactly the bytes the network keeps. A recorded delivery with
//! payload capture costs about one allocation, the payload's own text.
//! A sharded run allocates no more than the sequential run plus one copy
//! of what the network keeps: the shards' clones of its slices.
//!
//! Everything runs in one `#[test]`: the allocator counters are global
//! and libtest runs the tests of one binary concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use abe_core::delay::{Exponential, Uniform};
use abe_core::{Ctx, InPort, NetworkBuilder, OutPort, Protocol, Topology};
use abe_election::AbeElection;
use abe_sim::{RunLimits, SimTime};
use abe_telemetry::{Recording, TraceEvent};

/// Counts allocator calls and bytes allocated, and tracks live and peak
/// live bytes.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one measured section cost: allocator calls, bytes allocated,
/// bytes still live at its end and the peak live bytes during it, both
/// relative to its start.
#[derive(Debug)]
struct Cost {
    calls: usize,
    bytes: usize,
    kept: usize,
    peak: usize,
}

fn measure<T>(section: impl FnOnce() -> T) -> (T, Cost) {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let calls = CALLS.load(Relaxed);
    let bytes = BYTES.load(Relaxed);
    let out = section();
    let cost = Cost {
        calls: CALLS.load(Relaxed) - calls,
        bytes: BYTES.load(Relaxed) - bytes,
        kept: LIVE.load(Relaxed) - live,
        peak: PEAK.load(Relaxed) - live,
    };
    (out, cost)
}

/// Forwards a token around the ring until it has made its laps.
#[derive(Debug, Clone)]
struct Relay {
    id: u32,
}

/// Laps the token of the recorded run makes.
const LAPS: u32 = 200;

/// A payload whose `Debug` text is about 40 bytes long.
#[derive(Debug, Clone)]
struct Token {
    origin: u32,
    hops: u64,
    laps_left: u32,
}

impl Protocol for Relay {
    type Message = Token;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
        if self.id == 0 {
            let token = Token {
                origin: 0,
                hops: 0,
                laps_left: LAPS,
            };
            ctx.send(OutPort(0), token);
        }
    }

    fn on_message(&mut self, _from: InPort, mut msg: Token, ctx: &mut Ctx<'_, Token>) {
        if self.id == msg.origin {
            msg.laps_left -= 1;
            if msg.laps_left == 0 {
                return;
            }
        }
        msg.hops += 1;
        ctx.send(OutPort(0), msg);
    }
}

fn ring_builder(topo: Topology) -> NetworkBuilder {
    NetworkBuilder::new(topo)
        .delay(Exponential::from_mean(1.0).expect("valid mean"))
        .seed(5)
}

#[test]
fn build_and_recorded_deliveries_stay_within_their_allocation_budgets() {
    // Rule 1: building is linear work in a constant number of
    // allocations, with nothing staged and freed on the way.
    let mut topo_calls = Vec::new();
    let mut build_calls = Vec::new();
    for n in [1_000, 10_000] {
        let (topo, topo_cost) = measure(|| Topology::unidirectional_ring(n).expect("n >= 1"));
        let builder = ring_builder(topo);
        let (net, cost) = measure(|| {
            builder
                .build(|i| Relay { id: i as u32 })
                .expect("valid ring")
        });
        assert_eq!(
            cost.peak, cost.kept,
            "n = {n}: build freed what it allocated ({cost:?})"
        );
        assert_eq!(net.topology().node_count(), n);
        topo_calls.push(topo_cost.calls);
        build_calls.push(cost.calls);
    }
    assert_eq!(
        topo_calls[0], topo_calls[1],
        "Topology::from_edges allocations grow with n"
    );
    assert_eq!(
        build_calls[0], build_calls[1],
        "NetworkBuilder::build allocations grow with n"
    );

    // Rule 2: recording adds about one allocation per recorded payload,
    // its text, over the same run unrecorded; the record buffer's growth
    // adds a few more.
    let run = |record: bool| {
        let mut builder = ring_builder(Topology::unidirectional_ring(64).expect("n >= 1"));
        if record {
            builder = builder.record(Recording::full().payloads(true));
        }
        let net = builder
            .build(|i| Relay { id: i as u32 })
            .expect("valid ring");
        let ((report, net), cost) = measure(|| net.run(RunLimits::unbounded()));
        assert!(report.outcome.is_quiescent());
        (net, cost.calls)
    };
    let (_, plain_calls) = run(false);
    let (net, recorded_calls) = run(true);
    let payloads = net
        .trace()
        .filter(|r| {
            matches!(
                &r.event,
                TraceEvent::Deliver {
                    payload: Some(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(payloads, 64 * LAPS as usize);
    let extra = recorded_calls - plain_calls;
    assert!(
        extra <= payloads + 64,
        "recording made {extra} more allocator calls for {payloads} payloads"
    );

    // Rule 3: a 2-shard run allocates no more than the sequential run
    // plus the bytes `build` keeps — one copy of the network, the shards'
    // clones of its slices, which leave the network itself untouched for
    // the sequential fallback.
    let n = 10_000;
    let election = |shards: u32| {
        NetworkBuilder::new(Topology::unidirectional_ring(n).expect("n >= 1"))
            .delay(Uniform::new(0.5, 1.5).expect("valid bounds"))
            .seed(1)
            .shards(shards)
            .build(|_| AbeElection::new(n, 0.5).expect("valid a0"))
            .expect("valid ring")
    };
    let limits = RunLimits::until(SimTime::from_secs(4.0));
    let (net, build) = measure(|| election(1));
    let ((seq_report, _), seq) = measure(|| net.run(limits));
    let net = election(2);
    let ((par_report, net), par) = measure(|| net.run_sharded(limits));
    assert_eq!(seq_report, par_report);
    assert!(!net.shard_timing().expect("a sharded run").fell_back);
    assert!(
        par.bytes <= seq.bytes + build.kept,
        "run_sharded allocated {} B, over run's {} B plus build's kept {} B",
        par.bytes,
        seq.bytes,
        build.kept
    );
}
