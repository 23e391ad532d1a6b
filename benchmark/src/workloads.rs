//! The six workloads and the run protocol that measures them.
//!
//! Fixed-work batch, closed loop, one driver thread: a workload does one
//! discarded warm-up iteration, then identical timed iterations until the
//! run's seconds are spent. Every iteration carries the workload's
//! correctness checks and must reproduce the warm-up's `sim_digest`.
//! The traced pass alternates plain and span-recording iterations (their
//! ratio is `bench.trace_overhead`) and then drives each layer's public
//! functions alone (the probes) for the per-layer ledger.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{
    self, Activation, Compiled, Counts, Delay, FloorSpec, Probe, QueueTape, RingSpec, Shape,
};
use crate::digest::Fnv64;
use crate::span::{Span, SpanId, Tracer};
use crate::stats::{median, summarize, Summary};

/// Timed iterations a full-size run takes at least, however slow the host.
const MIN_ITERATIONS: usize = 5;
/// The same floor for `--smoke` runs and for each half of a traced pass.
const MIN_ITERATIONS_SMALL: usize = 2;
/// Share of a traced pass's seconds spent on iterations; the probes get
/// the rest.
const TRACED_ITERATION_SHARE: f64 = 0.6;
/// A set-up shorter than this is too short to time once per iteration:
/// it is repeated in batches after the iterations instead.
const SHORT_SETUP_S: f64 = 0.02;
/// Batches a short set-up is timed over, and how long one batch runs.
const SETUP_BATCHES: usize = 40;
const SETUP_BATCH_S: f64 = 0.005;

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The only source of workload randomness.
    pub seed: u64,
    /// Seconds of timed iterations.
    pub seconds: f64,
    /// Record spans and print the per-layer ledger.
    pub traced: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
    /// Sweep workers and shards: `min(2, nproc)`.
    pub workers: usize,
}

impl Settings {
    fn min_iterations(&self) -> usize {
        if self.smoke || self.traced {
            MIN_ITERATIONS_SMALL
        } else {
            MIN_ITERATIONS
        }
    }
}

/// `min(2, nproc)`: the harness never uses more threads than this.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Correctness checks attempted and failed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks over checks attempted.
    pub fn failed_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// Per-layer values of one iteration, by metric name.
type Layer = BTreeMap<&'static str, f64>;

/// What one iteration measured (host time unless named simulated).
#[derive(Debug, Clone)]
struct Sample {
    /// One entry per set-up the iteration performed.
    setup_s: Vec<f64>,
    /// The run phase, the denominator of `events_per_s`.
    run_s: f64,
    /// The `wall_s` metric: the run phase, plus the trace consumers on
    /// `clique-traced`.
    wall_s: f64,
    /// Simulated kernel events of the run phase.
    events: u64,
    sim_digest: u64,
    layer: Layer,
}

/// One iteration's view of the tracer.
struct Iter<'a> {
    tracer: &'a Tracer,
    index: u32,
    /// The enclosing `iteration` span.
    root: Option<SpanId>,
    workers: usize,
}

impl<'a> Iter<'a> {
    /// For set-ups repeated after the iterations, under no span.
    fn outside_iterations(tracer: &'a Tracer) -> Self {
        Self {
            tracer,
            index: 0,
            root: None,
            workers: 1,
        }
    }

    /// Times `f` under a span caused by the iteration.
    fn scope<R>(&self, name: &'static str, f: impl FnOnce(Option<SpanId>) -> R) -> (R, f64) {
        self.tracer.scope(name, self.root, self.index, f)
    }

    fn warm_up(&self) -> bool {
        self.index == 0
    }
}

trait Workload {
    /// One iteration of identical work, with its checks.
    fn iterate(&mut self, it: &Iter<'_>, checks: &mut Checks) -> Sample;

    /// Performs one more set-up and discards it; `false` when the
    /// workload cannot (its set-up is long enough to time per iteration).
    fn setup_only(&mut self) -> bool {
        false
    }

    /// Isolated probes and values derived from the iterations' per-layer
    /// medians; traced pass only.
    fn probes(&mut self, medians: &Layer) -> Layer;
}

fn counts_layer(layer: &mut Layer, c: &Counts) {
    layer.insert("sim.queue.scheduled", c.scheduled as f64);
    layer.insert("sim.queue.cancelled", c.cancelled as f64);
    layer.insert("sim.queue.popped", c.popped as f64);
    layer.insert("core.delay.samples", c.messages_sent as f64);
    layer.insert("core.net.events", c.events as f64);
    layer.insert("core.net.messages_sent", c.messages_sent as f64);
    layer.insert("core.net.messages_delivered", c.messages_delivered as f64);
    layer.insert("core.net.ticks", c.ticks as f64);
    layer.insert("core.net.payload_bytes", c.payload_bytes as f64);
    layer.insert("core.fault.crashes", c.crashes as f64);
    layer.insert("core.fault.dropped", c.dropped as f64);
    layer.insert("core.fault.storm_deliveries", c.storm_deliveries as f64);
    layer.insert("core.adversary.intercepted", c.intercepted as f64);
    layer.insert("core.adversary.clamped", c.clamped as f64);
}

fn ns_per(secs: f64, count: f64) -> f64 {
    secs * 1e9 / count.max(1.0)
}

fn us_per(secs: f64, count: f64) -> f64 {
    secs * 1e6 / count.max(1.0)
}

/// The probes every workload shares: the queue tape shaped by the
/// workload's own counts, the RNG, and the workload's delay family.
/// `nodes` is the size of one network (a sweep's typical cell);
/// `tick_gap` is how far ahead the workload's protocol schedules a tick,
/// in simulated seconds.
fn kernel_probes(
    medians: &Layer,
    delay: Delay,
    nodes: u32,
    tick_gap: f64,
    seed: u64,
    smoke: bool,
) -> Layer {
    let get = |name: &str| medians.get(name).copied().unwrap_or(0.0) as u64;
    let (scheduled, cancelled, popped) = (
        get("sim.queue.scheduled"),
        get("sim.queue.cancelled"),
        get("sim.queue.popped"),
    );
    let scale = if smoke { 50 } else { 1 };
    // An event that is neither a delivery nor a tick is a node's start
    // (fault events are too few to matter). Every send schedules a
    // delivery; what is left of `scheduled` is ticks. The starts have been
    // popped, and have scheduled each node's first tick, before the tape
    // begins.
    let starts = get("core.net.events")
        .saturating_sub(get("core.net.messages_delivered") + get("core.net.ticks"));
    let deliveries = get("core.net.messages_sent");
    let all_ticks = scheduled.saturating_sub(deliveries + starts);
    let pending_ticks = all_ticks.min(u64::from(nodes));
    let queue = adapter::probe_queue(&QueueTape {
        pending_ticks: pending_ticks as usize,
        deliveries,
        ticks: all_ticks - pending_ticks,
        cancels: cancelled,
        pops: popped.saturating_sub(starts),
        tick_gap,
        max_ops: 3_000_000 / scale,
        seed,
    });
    let run_ns = medians["core.net.ns_per_event"] * medians["core.net.events"];
    let queue_ns = queue.ns_per_op() * (scheduled + cancelled + popped) as f64;
    let draws = 4_000_000 / scale;
    Layer::from([
        ("sim.queue.ns_per_op", queue.ns_per_op()),
        ("sim.queue.share", queue_ns / run_ns.max(1.0)),
        (
            "sim.rng.ns_per_stream",
            adapter::probe_rng_stream(draws / 4, seed).ns_per_op(),
        ),
        (
            "sim.rng.ns_per_draw",
            adapter::probe_rng_draw(draws, seed).ns_per_op(),
        ),
        (
            "core.delay.ns_per_sample",
            adapter::probe_delay(delay, draws, seed).ns_per_op(),
        ),
    ])
}

/// A tick every local time unit.
const TICK_EVERY_INTERVAL: f64 = 1.0;
/// The calibrated election wakes with probability ~1/n² per tick, so its
/// geometric stride puts the next tick this far out or further.
const TICK_ALMOST_NEVER: f64 = 1e9;

/// A floor run with the workload's own shape of work: every node starts
/// a token on each out-port, and forwards and ticks as often per node as
/// the workload's counts say its nodes sent and ticked.
fn floor_like(
    medians: &Layer,
    shape: Shape,
    delay: Delay,
    seed: u64,
    horizon: Option<f64>,
) -> FloorSpec {
    let (nodes, out_degree) = match shape {
        Shape::Ring(n) => (f64::from(n), 1.0),
        Shape::Complete(n) => (f64::from(n), f64::from(n - 1)),
    };
    let per_node = |name: &str| medians[name] / nodes;
    FloorSpec {
        shape,
        delay,
        seed,
        all_initiate: true,
        forwards: (per_node("core.net.messages_sent") - out_degree)
            .round()
            .max(0.0) as u32,
        ticks: per_node("core.net.ticks").round() as u32,
        horizon,
        inert_faults: false,
        swap_adversary: false,
    }
}

/// One build and run of the floor protocol: its simulated events and the
/// host time they took; `with_build` counts the build too (a sweep cell
/// pays for its own).
fn floor_probe(spec: &FloorSpec, with_build: bool) -> Probe {
    let built = Instant::now();
    let net = adapter::build_floor(spec);
    let started = Instant::now();
    let report = net.run();
    let done = Instant::now();
    Probe {
        ops: report.counts().events,
        secs: (done - if with_build { built } else { started }).as_secs_f64(),
    }
}

fn builder_layer(layer: &mut Layer, build_s: f64, nodes: u32) {
    layer.insert("core.builder.build_s", build_s);
    layer.insert(
        "core.builder.ns_per_node",
        ns_per(build_s, f64::from(nodes)),
    );
}

// ---------------------------------------------------------------------
// ring-seq-1m
// ---------------------------------------------------------------------

struct RingSeq {
    spec: RingSpec,
    smoke: bool,
}

impl Workload for RingSeq {
    fn iterate(&mut self, it: &Iter<'_>, checks: &mut Checks) -> Sample {
        let (net, setup_s) = it.scope("core.builder.build", |_| adapter::build_ring(&self.spec, 1));
        let (run, run_s) = it.scope("core.net.run", |_| net.run());
        let counts = run.report.counts();
        let leaders = run.leaders();
        checks.check(leaders == 1, || {
            format!("{leaders} leaders, want exactly one")
        });
        checks.check(run.report.stopped_by_protocol(), || {
            format!(
                "run ended `{}`, want stopped by the protocol",
                run.report.outcome()
            )
        });
        let mut hash = Fnv64::default();
        run.report.hash_into(&mut hash);
        let mut layer = Layer::new();
        counts_layer(&mut layer, &counts);
        builder_layer(&mut layer, setup_s, self.spec.n);
        layer.insert("core.net.ns_per_event", ns_per(run_s, counts.events as f64));
        Sample {
            setup_s: vec![setup_s],
            run_s,
            wall_s: run_s,
            events: counts.events,
            sim_digest: hash.finish(),
            layer,
        }
    }

    fn probes(&mut self, medians: &Layer) -> Layer {
        let RingSpec { n, delay, seed, .. } = self.spec;
        let mut out = kernel_probes(medians, delay, n, TICK_ALMOST_NEVER, seed, self.smoke);
        // The election's shape, not `floor_like`'s: every node starts,
        // then a single token makes one lap of the ring.
        let floor = floor_probe(
            &FloorSpec {
                shape: Shape::Ring(n),
                delay,
                seed,
                all_initiate: false,
                forwards: 1,
                ticks: 0,
                horizon: None,
                inert_faults: false,
                swap_adversary: false,
            },
            false,
        );
        out.insert("core.net.ns_per_event_empty", floor.ns_per_op());
        out.insert(
            "election.ns_per_event_self",
            medians["core.net.ns_per_event"] - floor.ns_per_op(),
        );
        out
    }
}

// ---------------------------------------------------------------------
// ring-shard-uniform, ring-shard-exp
// ---------------------------------------------------------------------

struct RingShard {
    spec: RingSpec,
    smoke: bool,
}

impl Workload for RingShard {
    fn iterate(&mut self, it: &Iter<'_>, checks: &mut Checks) -> Sample {
        let shards = it.workers as u32;
        let sequential = |it: &Iter<'_>| {
            let (net, setup_s) =
                it.scope("core.builder.build", |_| adapter::build_ring(&self.spec, 1));
            let (run, run_s) = it.scope("core.net.run", |_| net.run());
            // Only the report outlives the pair's first half, so the two
            // networks never share the process's memory.
            (run.report, setup_s, run_s)
        };
        let sharded = |it: &Iter<'_>| {
            let (net, setup_s) = it.scope("core.builder.build", |_| {
                adapter::build_ring(&self.spec, shards)
            });
            let (run, run_s) = it.scope("core.shard.run_sharded", |_| net.run_sharded());
            (run.report.clone(), run.shard(), setup_s, run_s)
        };
        // Alternate which twin runs first, so neither always inherits the
        // other's warm allocator and caches.
        let (seq, par) = if it.index.is_multiple_of(2) {
            let seq = sequential(it);
            (seq, sharded(it))
        } else {
            let par = sharded(it);
            (sequential(it), par)
        };
        let (seq_report, seq_setup_s, seq_s) = seq;
        let (par_report, shard, par_setup_s, par_s) = par;

        checks.check(seq_report == par_report, || {
            "sharded report differs from the sequential report".to_string()
        });
        let fell_back = shard.as_ref().is_some_and(|s| s.fell_back);
        checks.check(!fell_back, || {
            "sharded run fell back to sequential".to_string()
        });
        let counts = par_report.counts();
        let mut hash = Fnv64::default();
        par_report.hash_into(&mut hash);

        let mut layer = Layer::new();
        counts_layer(&mut layer, &counts);
        builder_layer(&mut layer, (seq_setup_s + par_setup_s) / 2.0, self.spec.n);
        layer.insert("core.net.ns_per_event", ns_per(seq_s, counts.events as f64));
        layer.insert("core.shard.speedup_vs_seq", seq_s / par_s);
        layer.insert("core.shard.seq_wall_s", seq_s);
        if let Some(s) = shard {
            let busy_sum: f64 = s.busy_s.iter().sum();
            let busy_max = s.busy_s.iter().copied().fold(0.0, f64::max);
            let busy_mean = busy_sum / s.busy_s.len().max(1) as f64;
            layer.insert("core.shard.windows", s.windows as f64);
            layer.insert("core.shard.single_steps", s.single_steps as f64);
            layer.insert("core.shard.fell_back", f64::from(u8::from(s.fell_back)));
            layer.insert("core.shard.busy_s_sum", busy_sum);
            layer.insert("core.shard.critical_path_s", s.critical_path_s);
            layer.insert("core.shard.imbalance", busy_max / busy_mean.max(1e-12));
            layer.insert("core.shard.work_inflation", busy_sum / seq_s);
            layer.insert("core.shard.overhead_s", par_s - s.critical_path_s);
        }
        Sample {
            setup_s: vec![seq_setup_s, par_setup_s],
            run_s: par_s,
            wall_s: par_s,
            events: counts.events,
            sim_digest: hash.finish(),
            layer,
        }
    }

    fn probes(&mut self, medians: &Layer) -> Layer {
        let RingSpec {
            n,
            delay,
            seed,
            horizon,
            ..
        } = self.spec;
        // With a0 = 0.5 the stride to the next tick is a couple of
        // intervals.
        let mut out = kernel_probes(
            medians,
            delay,
            n,
            2.0 * TICK_EVERY_INTERVAL,
            seed,
            self.smoke,
        );
        let floor = floor_probe(
            &floor_like(medians, Shape::Ring(n), delay, seed, horizon),
            false,
        );
        out.insert("core.net.ns_per_event_empty", floor.ns_per_op());
        out.insert(
            "election.ns_per_event_self",
            medians["core.net.ns_per_event"] - floor.ns_per_op(),
        );
        out
    }
}

// ---------------------------------------------------------------------
// campaign-mix
// ---------------------------------------------------------------------

/// Which protocol crate a campaign scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Election,
    Consensus,
    Statesync,
}

impl Family {
    fn self_metric(self) -> &'static str {
        match self {
            Family::Election => "election.ns_per_event_self",
            Family::Consensus => "consensus.ns_per_event_self",
            Family::Statesync => "statesync.ns_per_event_self",
        }
    }
}

const CAMPAIGN: [(&str, Family); 6] = [
    (include_str!("../scenarios/rings.abes"), Family::Election),
    (include_str!("../scenarios/churn.abes"), Family::Election),
    (
        include_str!("../scenarios/adversary.abes"),
        Family::Election,
    ),
    (include_str!("../scenarios/benor.abes"), Family::Consensus),
    (include_str!("../scenarios/brb.abes"), Family::Consensus),
    (
        include_str!("../scenarios/antientropy.abes"),
        Family::Statesync,
    ),
];

const SYNC_DIGEST: &str = include_str!("../scenarios/sync_digest.abes");

/// The scenario text the program under test receives: the committed
/// file with the run's seed as its `base-seed` (and, for `--smoke`, a
/// single repetition per grid point).
fn scenario_text(file: &str, seed: u64, smoke: bool) -> String {
    let mut text = String::with_capacity(file.len() + 32);
    for line in file.lines() {
        if smoke && line.starts_with("seeds ") {
            text.push_str("seeds 1");
        } else {
            text.push_str(line);
        }
        text.push('\n');
    }
    text.push_str(&format!("base-seed {seed}\n"));
    text
}

/// Parse + compile + expand of one scenario text, each under its span:
/// the compiled scenario, its cell count, and the three durations.
fn set_up_scenario(it: &Iter<'_>, text: &str) -> (Compiled, adapter::Cells, [f64; 3]) {
    let (parsed, parse_s) = it.scope("scenario.parse", |_| {
        adapter::parse_scenario(text).expect("benchmark scenario parses")
    });
    let (compiled, compile_s) = it.scope("scenario.compile", |_| {
        adapter::compile_scenario(&parsed).expect("benchmark scenario compiles")
    });
    let (cells, expand_s) = it.scope("sweep.expand", |_| compiled.expand());
    (compiled, cells, [parse_s, compile_s, expand_s])
}

struct CampaignMix {
    texts: Vec<(String, Family)>,
    seed: u64,
    smoke: bool,
}

impl CampaignMix {
    fn new(seed: u64, smoke: bool) -> Self {
        Self {
            texts: CAMPAIGN
                .iter()
                .map(|(file, family)| (scenario_text(file, seed, smoke), *family))
                .collect(),
            seed,
            smoke,
        }
    }
}

impl Workload for CampaignMix {
    fn iterate(&mut self, it: &Iter<'_>, checks: &mut Checks) -> Sample {
        // The warm-up runs on one worker and the timed iterations on
        // `workers`, so the digest comparison between them is the
        // "documents byte-equal at any thread count" check.
        let threads = if it.warm_up() { 1 } else { it.workers };
        let mut phases = [0.0f64; 3];
        let mut compiled = Vec::new();
        for (text, family) in &self.texts {
            let (scenario, _cells, spent) = set_up_scenario(it, text);
            for (total, s) in phases.iter_mut().zip(spent) {
                *total += s;
            }
            compiled.push((scenario, *family));
        }
        let setup_s: f64 = phases.iter().sum();

        let mut layer = Layer::new();
        let mut hash = Fnv64::default();
        let (mut run_s, mut document_s, mut oracles_s, mut render_s) = (0.0, 0.0, 0.0, 0.0);
        let mut cells = 0usize;
        let mut document_bytes = 0usize;
        let mut cell_walls: Vec<f64> = Vec::new();
        let mut family_busy: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let mut counts = Counts::default();
        for (scenario, family) in &compiled {
            let walls = Mutex::new(Vec::new());
            let (run, sweep_s) = it.scope("sweep.run", |sweep| {
                scenario.run(threads, |cell| {
                    let ((), cell_s) =
                        it.tracer
                            .scope("scenario.run_cell", sweep, it.index, |_| cell());
                    walls.lock().expect("no cell panics").push(cell_s);
                })
            });
            let run = run.expect("no benchmark cell panics");
            let (doc, doc_s) = it.scope("scenario.document", |_| scenario.document(&run));
            let ((checked, violations), check_s) =
                it.scope("scenario.check_oracles", |_| scenario.check_oracles(&run));
            run_s += sweep_s;
            document_s += doc_s;
            oracles_s += check_s;

            checks.check(violations.is_empty(), || {
                format!(
                    "{}: {} oracle violations, first: {}",
                    scenario.name(),
                    violations.len(),
                    violations[0]
                )
            });
            checks.check(checked == run.cells(), || {
                format!(
                    "{}: oracles saw {checked} of {} cells",
                    scenario.name(),
                    run.cells()
                )
            });
            hash.write(doc.as_bytes());
            document_bytes += doc.len();
            cells += run.cells();

            let walls = walls.into_inner().expect("no cell panics");
            let scenario_counts = run.counts();
            let busy = family_busy.entry(family.self_metric()).or_default();
            busy.0 += walls.iter().sum::<f64>();
            busy.1 += scenario_counts.events;
            cell_walls.extend(walls);
            counts += scenario_counts;
            if *family == Family::Statesync {
                let sync = run.sync_facts();
                layer.insert("statesync.rounds", sync.rounds);
                layer.insert("statesync.wire_bytes", sync.wire_bytes);
            }
            // Not part of `wall_s`: `document` above already paid for one
            // render; this one is timed alone for the sweep layer.
            let (json, json_s) = it.scope("sweep.metrics_json", |_| run.metrics_json());
            render_s += json_s;
            drop(json);
        }

        counts_layer(&mut layer, &counts);
        let busy_sum: f64 = cell_walls.iter().sum();
        let cell_summary = summarize(&cell_walls);
        let n_cells = cells as f64;
        let events = counts.events;
        layer.insert("core.net.ns_per_event", ns_per(busy_sum, events as f64));
        for (metric, (busy_s, family_events)) in family_busy {
            layer.insert(metric, ns_per(busy_s, family_events as f64));
        }
        layer.insert("sweep.cells", n_cells);
        layer.insert("sweep.expand_us_per_cell", us_per(phases[2], n_cells));
        layer.insert("sweep.run_s", run_s);
        layer.insert("sweep.cell_busy_s_sum", busy_sum);
        layer.insert(
            "sweep.parallel_efficiency",
            busy_sum / (threads as f64 * run_s),
        );
        layer.insert("sweep.cell_wall_p50_us", cell_summary.median * 1e6);
        layer.insert(
            "sweep.cell_wall_p99_us",
            cell_summary
                .tail
                .filter(|(p, _)| *p >= 99.0)
                .map_or(0.0, |(_, v)| v * 1e6),
        );
        layer.insert("sweep.render_us_per_cell", us_per(render_s, n_cells));
        layer.insert("scenario.parse_us", phases[0] * 1e6);
        layer.insert("scenario.compile_us", phases[1] * 1e6);
        layer.insert("scenario.document_us_per_cell", us_per(document_s, n_cells));
        layer.insert("scenario.oracles_us_per_cell", us_per(oracles_s, n_cells));
        layer.insert("scenario.document_bytes", document_bytes as f64);
        let wall_s = run_s + document_s + oracles_s;
        Sample {
            setup_s: vec![setup_s],
            run_s: wall_s,
            wall_s,
            events,
            sim_digest: hash.finish(),
            layer,
        }
    }

    fn setup_only(&mut self) -> bool {
        let quiet = Tracer::new(false);
        for (text, _) in &self.texts {
            set_up_scenario(&Iter::outside_iterations(&quiet), text);
        }
        true
    }

    fn probes(&mut self, medians: &Layer) -> Layer {
        // Cells are small and cache-resident: probe at the campaign's
        // typical ring size, many times over, build included (a cell pays
        // for its own build).
        let delay = Delay::Exp { mean: 1.0 };
        let mut out = kernel_probes(
            medians,
            delay,
            256,
            TICK_EVERY_INTERVAL,
            self.seed,
            self.smoke,
        );
        let reps = if self.smoke { 4 } else { 40 };
        let cell = |inert_faults, swap_adversary| FloorSpec {
            shape: Shape::Ring(1_024),
            delay,
            seed: self.seed,
            all_initiate: true,
            forwards: 16,
            ticks: 0,
            horizon: None,
            inert_faults,
            swap_adversary,
        };
        // Interleave the three variants so drift in the host's speed
        // falls on all of them alike.
        let mut probes = [Probe { ops: 0, secs: 0.0 }; 3];
        for _ in 0..reps {
            for (probe, spec) in
                probes
                    .iter_mut()
                    .zip([cell(false, false), cell(true, false), cell(false, true)])
            {
                *probe += floor_probe(&spec, true);
            }
        }
        let [plain, faulty, adversarial] = probes;
        out.insert("core.net.ns_per_event_empty", plain.ns_per_op());
        // The floor forwards once per delivery, so events per send is the
        // same in all three variants and the per-event delta is per send.
        out.insert(
            "core.fault.ns_per_send_delta",
            faulty.ns_per_op() - plain.ns_per_op(),
        );
        out.insert(
            "core.adversary.ns_per_intercept_delta",
            adversarial.ns_per_op() - plain.ns_per_op(),
        );
        for family in [Family::Election, Family::Consensus, Family::Statesync] {
            let metric = family.self_metric();
            out.insert(metric, medians[metric] - plain.ns_per_op());
        }
        // A build per cell cannot be seen from outside a sweep, so the
        // builder is driven alone at the campaign's largest ring.
        let n = 4_096;
        let spec = RingSpec {
            n,
            delay,
            activation: Activation::Calibrated(1.0),
            seed: self.seed,
            horizon: None,
        };
        let builds: Vec<f64> = (0..reps)
            .map(|_| {
                let started = Instant::now();
                let net = adapter::build_ring(&spec, 1);
                let secs = started.elapsed().as_secs_f64();
                drop(net);
                secs
            })
            .collect();
        builder_layer(&mut out, median(&builds), n);
        out.insert(
            "statesync.digest.root_us",
            adapter::probe_digest_root(256, 2_000).ns_per_op() / 1e3,
        );
        out.insert(
            "statesync.store.write_ns",
            adapter::probe_store_write(256, 200).ns_per_op(),
        );
        out
    }
}

// ---------------------------------------------------------------------
// sync-digest
// ---------------------------------------------------------------------

struct SyncDigest {
    text: String,
    seed: u64,
    smoke: bool,
}

impl SyncDigest {
    const REPLICAS: u32 = 16;
    const KEY_SPACE: u32 = 4_096;

    fn new(seed: u64, smoke: bool) -> Self {
        let mut text = scenario_text(SYNC_DIGEST, seed, smoke);
        if smoke {
            text = text
                .replace("key-space=4096", "key-space=128")
                .replace("n 16", "n 6");
        }
        Self { text, seed, smoke }
    }
}

impl Workload for SyncDigest {
    fn iterate(&mut self, it: &Iter<'_>, checks: &mut Checks) -> Sample {
        let (scenario, cells, phases) = set_up_scenario(it, &self.text);
        let setup_s: f64 = phases.iter().sum();
        checks.check(cells.len() == 1, || {
            format!("sync-digest expands to {} cells, want one", cells.len())
        });
        let (cell, run_s) = it.scope("scenario.run_cell", |_| scenario.run_cell(&cells, 0));
        let sync = cell.sync_facts();
        for (metric, got, want) in [
            ("converged", sync.converged, 1.0),
            ("residual_divergence", sync.residual_divergence, 0.0),
            ("invented", sync.invented, 0.0),
        ] {
            checks.check(got == want, || format!("{metric} = {got}, want {want}"));
        }
        let counts = cell.counts();
        let mut hash = Fnv64::default();
        cell.hash_into(&mut hash);
        let mut layer = Layer::new();
        counts_layer(&mut layer, &counts);
        layer.insert("core.net.ns_per_event", ns_per(run_s, counts.events as f64));
        layer.insert("statesync.rounds", sync.rounds);
        layer.insert("statesync.wire_bytes", sync.wire_bytes);
        layer.insert("scenario.parse_us", phases[0] * 1e6);
        layer.insert("scenario.compile_us", phases[1] * 1e6);
        layer.insert("sweep.cells", 1.0);
        layer.insert("sweep.expand_us_per_cell", phases[2] * 1e6);
        Sample {
            setup_s: vec![setup_s],
            run_s,
            wall_s: run_s,
            events: counts.events,
            sim_digest: hash.finish(),
            layer,
        }
    }

    fn setup_only(&mut self) -> bool {
        let quiet = Tracer::new(false);
        set_up_scenario(&Iter::outside_iterations(&quiet), &self.text);
        true
    }

    fn probes(&mut self, medians: &Layer) -> Layer {
        let delay = Delay::Exp { mean: 1.0 };
        let (replicas, key_space) = if self.smoke {
            (6, 128)
        } else {
            (Self::REPLICAS, Self::KEY_SPACE)
        };
        let mut out = kernel_probes(
            medians,
            delay,
            replicas,
            TICK_EVERY_INTERVAL,
            self.seed,
            self.smoke,
        );
        let floor = floor_probe(
            &floor_like(medians, Shape::Complete(replicas), delay, self.seed, None),
            false,
        );
        out.insert("core.net.ns_per_event_empty", floor.ns_per_op());
        out.insert(
            "statesync.ns_per_event_self",
            medians["core.net.ns_per_event"] - floor.ns_per_op(),
        );
        let reps = if self.smoke { 50 } else { 500 };
        out.insert(
            "statesync.digest.root_us",
            adapter::probe_digest_root(key_space, reps).ns_per_op() / 1e3,
        );
        out.insert(
            "statesync.store.write_ns",
            adapter::probe_store_write(key_space, reps / 10).ns_per_op(),
        );
        out
    }
}

// ---------------------------------------------------------------------
// clique-traced
// ---------------------------------------------------------------------

struct CliqueTraced {
    n: u32,
    delay: Delay,
    /// Network seed of an iteration's first run; each further run takes
    /// the next seed.
    seed: u64,
    /// Simulated events one iteration processes, exactly.
    events: u64,
    /// Simulated events one run may process before it is cut off.
    run_cap: u64,
    smoke: bool,
}

impl Workload for CliqueTraced {
    fn iterate(&mut self, it: &Iter<'_>, checks: &mut Checks) -> Sample {
        let mut setup = Vec::new();
        let mut hash = Fnv64::default();
        let mut counts = Counts::default();
        let (mut run_s, mut plain_s, mut render_s, mut validate_s, mut analysis_s) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut bytes = 0usize;
        let mut seed = self.seed;
        // How many rounds Ben-Or needs depends on its coins, so one run's
        // length varies severalfold with the seed (44 k to 780 k events on
        // K_64). Runs are therefore chained, each cut off at `run_cap`,
        // until the iteration has processed exactly `events`: the work,
        // and the size of the largest trace held at once, are the same
        // for every seed.
        while counts.events < self.events {
            let budget = (self.events - counts.events).min(self.run_cap);
            let (net, build_s) = it.scope("core.builder.build", |_| {
                adapter::build_clique(self.n, self.delay, seed, true)
            });
            setup.push(build_s);
            let (run, traced_s) = it.scope("core.net.run", |_| net.run(budget));
            run_s += traced_s;
            let trace = run.trace.as_ref().expect("recording was on");
            let (file, file_s) = it.scope("telemetry.jsonl.render", |_| trace.render());
            render_s += file_s;
            let (validated, valid_s) = it.scope("telemetry.jsonl.validate", |_| {
                adapter::validate_trace_file(&file)
            });
            validate_s += valid_s;
            bytes += file.len();
            drop(file);
            let (facts, facts_s) = it.scope("telemetry.analysis", |_| trace.analyse());
            analysis_s += facts_s;

            let c = run.report.counts();
            checks.check(c.trace_dropped == 0, || {
                format!("seed {seed}: {} trace records dropped", c.trace_dropped)
            });
            checks.check(validated == Ok(trace.len() as u64), || {
                format!(
                    "seed {seed}: trace file validates as {validated:?}, recorder holds {}",
                    trace.len()
                )
            });
            checks.check(facts.records == trace.len(), || {
                format!(
                    "seed {seed}: analysis absorbed {} of {} records",
                    facts.records,
                    trace.len()
                )
            });
            let mut decided = run.decisions.iter().flatten();
            let first = decided.next();
            checks.check(decided.all(|d| Some(d) == first), || {
                format!("seed {seed}: two nodes decided different values")
            });
            if !run.report.cut_at_event_budget() {
                checks.check(run.decisions.iter().all(Option::is_some), || {
                    format!("seed {seed}: the run ended with undecided nodes")
                });
            }
            // The untraced twin: the same run with recording off must
            // report the same execution. Outside `wall_s`.
            let twin = adapter::build_clique(self.n, self.delay, seed, false);
            let started = Instant::now();
            let twin = twin.run(budget);
            plain_s += started.elapsed().as_secs_f64();
            checks.check(twin.report == run.report, || {
                format!("seed {seed}: traced report differs from the untraced report")
            });

            run.report.hash_into(&mut hash);
            counts += c;
            seed = seed.wrapping_add(1);
        }
        if it.warm_up() {
            // At full size the cap cuts every run of the chain short, so
            // the warm-up also lets one untraced run finish: every node
            // must decide, and on one value.
            let whole = adapter::build_clique(self.n, self.delay, self.seed, false)
                .run(adapter::EVENT_BUDGET);
            let first = whole.decisions.first().copied().flatten();
            checks.check(
                first.is_some() && whole.decisions.iter().all(|d| *d == first),
                || {
                    format!(
                        "seed {}: a complete run did not decide one value everywhere",
                        self.seed
                    )
                },
            );
        }
        let records = counts.trace_records as f64;
        let mut layer = Layer::new();
        counts_layer(&mut layer, &counts);
        builder_layer(&mut layer, median(&setup), self.n);
        layer.insert("core.net.ns_per_event", ns_per(run_s, counts.events as f64));
        layer.insert("telemetry.record.records", records);
        layer.insert("telemetry.record.dropped", counts.trace_dropped as f64);
        layer.insert(
            "telemetry.record.ns_per_record",
            ns_per(run_s - plain_s, records),
        );
        layer.insert("telemetry.record.overhead_ratio", run_s / plain_s);
        layer.insert(
            "telemetry.jsonl.render_ns_per_record",
            ns_per(render_s, records),
        );
        layer.insert("telemetry.jsonl.bytes", bytes as f64);
        layer.insert(
            "telemetry.jsonl.validate_ns_per_record",
            ns_per(validate_s, records),
        );
        layer.insert(
            "telemetry.analysis.ns_per_record",
            ns_per(analysis_s, records),
        );
        // The untraced twins' cost per event; `probes` takes the floor off.
        layer.insert(
            "consensus.ns_per_event_self",
            ns_per(plain_s, counts.events as f64),
        );
        Sample {
            setup_s: setup,
            run_s,
            wall_s: run_s + render_s + validate_s + analysis_s,
            events: counts.events,
            sim_digest: hash.finish(),
            layer,
        }
    }

    fn setup_only(&mut self) -> bool {
        drop(adapter::build_clique(self.n, self.delay, self.seed, true));
        true
    }

    fn probes(&mut self, medians: &Layer) -> Layer {
        // Ben-Or takes no ticks, so the gap is never used.
        let mut out = kernel_probes(
            medians,
            self.delay,
            self.n,
            TICK_EVERY_INTERVAL,
            self.seed,
            self.smoke,
        );
        // One floor run with as many sends as the iteration's chain of runs.
        let floor = floor_probe(
            &floor_like(
                medians,
                Shape::Complete(self.n),
                self.delay,
                self.seed,
                None,
            ),
            false,
        );
        out.insert("core.net.ns_per_event_empty", floor.ns_per_op());
        out.insert(
            "consensus.ns_per_event_self",
            medians["consensus.ns_per_event_self"] - floor.ns_per_op(),
        );
        out
    }
}

// ---------------------------------------------------------------------
// The run protocol
// ---------------------------------------------------------------------

fn workload(name: &str, settings: &Settings) -> Option<Box<dyn Workload>> {
    let Settings { seed, smoke, .. } = *settings;
    let size = |full: u32, tiny: u32| if smoke { tiny } else { full };
    Some(match name {
        "ring-seq-1m" => Box::new(RingSeq {
            spec: RingSpec {
                n: size(1_000_000, 2_000),
                delay: Delay::Exp { mean: 1.0 },
                // Not E16's a = 1: there a second node wakes during the
                // first token's lap on about one seed in three, the two
                // tokens purge each other and the election takes 3n + 3
                // events (or more) instead of 2n + 1, at a quarter more
                // events per second. At a = 0.01 that is one seed in 200,
                // so every seed does the same work.
                activation: Activation::Calibrated(0.01),
                seed,
                horizon: None,
            },
            smoke,
        }),
        "ring-shard-uniform" => Box::new(RingShard {
            spec: RingSpec {
                n: size(500_000, 2_000),
                delay: Delay::Uniform { lo: 0.5, hi: 1.5 },
                // Not the calibrated 1/n²: every node activates within
                // its first few ticks, so ~n tokens circulate for the
                // whole horizon and no stop request interrupts a window.
                activation: Activation::Fixed(0.5),
                seed,
                horizon: Some(8.0),
            },
            smoke,
        }),
        "ring-shard-exp" => Box::new(RingShard {
            spec: RingSpec {
                n: size(200_000, 1_000),
                delay: Delay::Exp { mean: 1.0 },
                activation: Activation::Fixed(0.5),
                seed,
                horizon: Some(8.0),
            },
            smoke,
        }),
        "campaign-mix" => Box::new(CampaignMix::new(seed, smoke)),
        "sync-digest" => Box::new(SyncDigest::new(seed, smoke)),
        "clique-traced" => Box::new(CliqueTraced {
            n: size(64, 10),
            delay: Delay::Exp { mean: 1.0 },
            seed,
            events: u64::from(size(360_000, 3_000)),
            run_cap: u64::from(size(40_000, 1_000)),
            smoke,
        }),
        _ => return None,
    })
}

/// What one run of one workload found.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub checks: Checks,
    /// The warm-up's digest; every timed iteration had to match it.
    pub sim_digest: u64,
    /// Untraced timed iterations (the end-to-end sample count).
    pub iterations: usize,
    /// Simulated kernel events one iteration's run phase processes.
    pub events: u64,
    pub events_per_s: Summary,
    pub wall_s: Summary,
    pub setup_s: Summary,
    pub peak_rss_mb: f64,
    /// The per-layer ledger; traced pass only.
    pub per_layer: Option<Layer>,
    /// Spans of the traced iterations; traced pass only.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// No check failed (digest mismatches are checks too).
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Runs one workload by name under the run protocol; `None` for a name
/// that is not a workload.
pub fn measure(name: &str, settings: &Settings) -> Option<Outcome> {
    let mut workload = workload(name, settings)?;
    Some(run_protocol(name, workload.as_mut(), settings))
}

fn run_protocol(name: &str, workload: &mut dyn Workload, settings: &Settings) -> Outcome {
    let mut checks = Checks::default();
    let plain = Tracer::new(false);
    let recording = Tracer::new(true);

    let mut run_one = |tracer: &Tracer, index: u32, checks: &mut Checks| {
        tracer.scope("iteration", None, index, |root| {
            let it = Iter {
                tracer,
                index,
                root,
                workers: settings.workers,
            };
            workload.iterate(&it, checks)
        })
    };

    let (warm, _) = run_one(&plain, 0, &mut checks);
    let sim_digest = warm.sim_digest;

    let budget_s = if settings.traced {
        settings.seconds * TRACED_ITERATION_SHARE
    } else {
        settings.seconds
    };
    let mut untraced: Vec<(Sample, f64)> = Vec::new();
    let mut traced: Vec<(Sample, f64)> = Vec::new();
    let started = Instant::now();
    let mut index = 0u32;
    while untraced.len() < settings.min_iterations()
        || (settings.traced && traced.len() < settings.min_iterations())
        || started.elapsed().as_secs_f64() < budget_s
    {
        index += 1;
        // A traced pass alternates plain and recording iterations.
        let record = settings.traced && index.is_multiple_of(2);
        let (sample, total_s) =
            run_one(if record { &recording } else { &plain }, index, &mut checks);
        checks.check(sample.sim_digest == sim_digest, || {
            format!(
                "iteration {index}: sim_digest {:016x} differs from the warm-up's {sim_digest:016x}",
                sample.sim_digest
            )
        });
        if record {
            traced.push((sample, total_s));
        } else {
            untraced.push((sample, total_s));
        }
    }

    let mut setups: Vec<f64> = untraced
        .iter()
        .flat_map(|(s, _)| s.setup_s.iter().copied())
        .collect();
    let once_s = median(&setups);
    if once_s < SHORT_SETUP_S && workload.setup_only() {
        // Timer resolution and a cold cache dominate one microsecond-scale
        // set-up, so time batches of them back to back and report the
        // per-set-up share of each batch.
        let batch = (SETUP_BATCH_S / once_s).ceil().clamp(1.0, 100_000.0) as u32;
        setups = (0..SETUP_BATCHES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..batch {
                    workload.setup_only();
                }
                started.elapsed().as_secs_f64() / f64::from(batch)
            })
            .collect();
    }
    let series =
        |f: fn(&Sample) -> f64| -> Vec<f64> { untraced.iter().map(|(s, _)| f(s)).collect() };
    let events_per_s = summarize(&series(|s| s.events as f64 / s.run_s));
    let wall_s = summarize(&series(|s| s.wall_s));
    let setup_s = summarize(&setups);
    let peak_rss_mb = peak_rss_mb();

    let per_layer = settings.traced.then(|| {
        let mut names: Vec<&'static str> = traced
            .iter()
            .flat_map(|(s, _)| s.layer.keys().copied())
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut medians: Layer = names
            .into_iter()
            .map(|name| {
                let values: Vec<f64> = traced
                    .iter()
                    .map(|(s, _)| s.layer.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name, median(&values))
            })
            .collect();
        let probes = workload.probes(&medians);
        medians.extend(probes);
        let totals =
            |runs: &[(Sample, f64)]| -> Vec<f64> { runs.iter().map(|(_, t)| *t).collect() };
        medians.insert(
            "bench.trace_overhead",
            median(&totals(&traced)) / median(&totals(&untraced)),
        );
        medians.insert("bench.iterations", traced.len() as f64);
        medians.insert("bench.failed_share", checks.failed_share());
        medians
    });

    Outcome {
        workload: name.to_string(),
        checks,
        sim_digest,
        iterations: untraced.len(),
        events: warm.events,
        events_per_s,
        wall_s,
        setup_s,
        peak_rss_mb,
        per_layer,
        spans: recording.spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
    use crate::report::RunResult;

    fn smoke(seed: u64, traced: bool) -> Settings {
        Settings {
            seed,
            seconds: 0.0,
            traced,
            smoke: true,
            workers: workers(),
        }
    }

    #[test]
    fn every_workload_passes_all_its_checks_at_smoke_size() {
        for w in &WORKLOADS {
            let traced = measure(w.name, &smoke(1, true)).expect("a known workload");
            assert_eq!(traced.checks.failures, Vec::<String>::new(), "{}", w.name);
            assert!(traced.checks.attempted >= 4, "{}", w.name);
            assert!(traced.events > 0 && traced.iterations >= 2, "{}", w.name);

            // The traced pass reports every per-layer metric, finite.
            let result = RunResult::from_outcome(&traced, true);
            let names: Vec<&str> = result.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{}", w.name);
            result
                .to_json()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let layer = traced.per_layer.as_ref().expect("traced pass");
            for name in layer.keys() {
                assert!(
                    want.contains(name),
                    "{}: `{name}` is not in PER_LAYER",
                    w.name
                );
            }
            assert!(layer["core.net.events"] > 0.0, "{}", w.name);
            assert!(layer["sim.queue.ns_per_op"] > 0.0, "{}", w.name);
            assert!(layer["bench.trace_overhead"] > 0.0, "{}", w.name);

            // Spans: one `iteration` root per traced iteration, every
            // other span caused by an earlier one.
            let roots = traced.spans.iter().filter(|s| s.parent.is_none()).count();
            assert_eq!(roots as f64, layer["bench.iterations"], "{}", w.name);
            for (i, span) in traced.spans.iter().enumerate() {
                assert!(span.start_ns <= span.end_ns, "{}", w.name);
                match span.parent {
                    None => assert_eq!(span.name, "iteration"),
                    Some(SpanId(p)) => assert!((p as usize) < i, "{}", w.name),
                }
            }

            // The untraced pass reports every end-to-end metric, none 0,
            // and the same simulated statistics for the same seed.
            let plain = measure(w.name, &smoke(1, false)).expect("a known workload");
            assert!(plain.correct() && plain.per_layer.is_none() && plain.spans.is_empty());
            assert_eq!(plain.sim_digest, traced.sim_digest, "{}", w.name);
            let result = RunResult::from_outcome(&plain, false);
            assert_eq!(result.metrics.len(), END_TO_END.len());
            for (name, value, _) in &result.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}: {name} = {value}",
                    w.name
                );
            }

            // Another seed is another input.
            let other = measure(w.name, &smoke(2, false)).expect("a known workload");
            assert!(other.correct(), "{}: {:?}", w.name, other.checks.failures);
            assert_ne!(other.sim_digest, plain.sim_digest, "{}", w.name);
        }
        assert!(measure("no-such-workload", &smoke(1, false)).is_none());
    }

    #[test]
    fn the_shard_workloads_report_a_measured_speedup() {
        let outcome = measure("ring-shard-uniform", &smoke(1, true)).unwrap();
        let layer = outcome.per_layer.unwrap();
        if workers() > 1 {
            assert!(layer["core.shard.windows"] > 0.0);
            assert!(layer["core.shard.work_inflation"] > 0.0);
        }
        let ratio = layer["core.shard.speedup_vs_seq"];
        assert!(ratio > 0.0 && ratio.is_finite());
        // A ratio of two walls measured in the same iteration.
        assert!(layer["core.shard.seq_wall_s"] > 0.0);
    }

    /// A workload whose simulated statistics change on one iteration and
    /// whose own check fails on another.
    struct Flaky {
        calls: u32,
    }

    impl Workload for Flaky {
        fn iterate(&mut self, _it: &Iter<'_>, checks: &mut Checks) -> Sample {
            self.calls += 1;
            checks.check(self.calls != 3, || "third call fails its check".to_string());
            Sample {
                setup_s: vec![1.0],
                run_s: 1.0,
                wall_s: 1.0,
                events: 10,
                sim_digest: if self.calls == 2 { 7 } else { 1 },
                layer: Layer::new(),
            }
        }

        fn probes(&mut self, _medians: &Layer) -> Layer {
            Layer::new()
        }
    }

    #[test]
    fn a_failed_check_or_a_changed_digest_makes_the_run_incorrect() {
        let outcome = run_protocol("flaky", &mut Flaky { calls: 0 }, &smoke(1, false));
        assert!(!outcome.correct());
        assert_eq!(
            outcome.checks.failures.len(),
            2,
            "{:?}",
            outcome.checks.failures
        );
        assert!(outcome
            .checks
            .failures
            .iter()
            .any(|f| f.contains("sim_digest")));
        assert!(outcome
            .checks
            .failures
            .iter()
            .any(|f| f.contains("third call")));
        // warm-up + two timed iterations: three own checks, two digest checks.
        assert_eq!(outcome.checks.attempted, 5);
        assert_eq!(outcome.checks.failed_share(), 0.4);
        let result = RunResult::from_outcome(&outcome, false);
        assert!(!result.correct);
        assert_eq!((result.attempted, result.failed), (5, 2));
    }

    #[test]
    fn the_harness_never_asks_for_more_than_two_threads() {
        assert!((1..=2).contains(&workers()));
    }

    #[test]
    fn the_seed_reaches_the_scenario_text_as_its_base_seed() {
        let text = scenario_text("scenario x\nseeds 9\n", 42, false);
        assert_eq!(text, "scenario x\nseeds 9\nbase-seed 42\n");
        let tiny = scenario_text("scenario x\nseeds 9\n", 42, true);
        assert_eq!(tiny, "scenario x\nseeds 1\nbase-seed 42\n");
    }
}
