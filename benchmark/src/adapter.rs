//! Every call into the repo's crates lives in this file.
//!
//! The rest of the harness sees only the plain types defined here, so a
//! later issue can follow an API change in the simulator by editing one
//! file. Protocols are wired onto `NetworkBuilder` or `.abes` text —
//! never through `RingConfig` / `ConsensusConfig` / `SyncConfig`, which
//! ROADMAP item 2 collapses.
//!
//! Nothing here measures: functions build, run, render or check, and the
//! callers in `workloads.rs` put the clocks and spans around them. The
//! exceptions are the `probe_*` functions, whose tight loops time
//! themselves so the loop body stays free of harness calls.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use abe_adversary::Swap;
use abe_consensus::{default_faulty, BenOr, COIN_DOMAIN};
use abe_core::delay::{Exponential, SharedDelay, Uniform};
use abe_core::fault::{EdgeSelector, FaultPlan};
use abe_core::{
    AdversaryPlan, Ctx, InPort, Network, NetworkBuilder, NetworkReport, OutPort, Protocol,
    Recording, RunRecorder, Topology,
};
use abe_election::{AbeElection, ElectionState};
use abe_scenario::campaign::{check_oracles, document};
use abe_scenario::{compile, parse, CompiledScenario, Scenario};
use abe_sim::{EventQueue, EventToken, RunLimits, RunOutcome, SeedStream, SimTime, SplitMix64};
use abe_statesync::{base_payload, Digests, StateStore};
use abe_sweep::{run_sweep, Cell, CellMetrics, SweepOutcome};
use abe_telemetry::{render_header, validate_trace, JsonlSink, TraceAnalysis};

use crate::digest::Fnv64;

/// Event budget for runs that must end by protocol stop or quiescence;
/// reaching it is a failed check, never a silent truncation.
pub const EVENT_BUDGET: u64 = 200_000_000;

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// The counts a `NetworkReport` carries, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub ticks: u64,
    pub payload_bytes: u64,
    pub scheduled: u64,
    pub cancelled: u64,
    pub popped: u64,
    pub crashes: u64,
    pub dropped: u64,
    pub storm_deliveries: u64,
    pub intercepted: u64,
    pub clamped: u64,
    pub trace_records: u64,
    pub trace_dropped: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, other: Self) {
        self.events += other.events;
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.ticks += other.ticks;
        self.payload_bytes += other.payload_bytes;
        self.scheduled += other.scheduled;
        self.cancelled += other.cancelled;
        self.popped += other.popped;
        self.crashes += other.crashes;
        self.dropped += other.dropped;
        self.storm_deliveries += other.storm_deliveries;
        self.intercepted += other.intercepted;
        self.clamped += other.clamped;
        self.trace_records += other.trace_records;
        self.trace_dropped += other.trace_dropped;
    }
}

/// The same counts read back from a sweep cell's named counters
/// (`CellMetrics::with_report` / `with_faults` / `with_adversary` /
/// `with_sync`); a counter the cell's record mode left out reads 0.
fn counts_from_counters(counter: impl Fn(&str) -> u64) -> Counts {
    Counts {
        events: counter("events"),
        messages_sent: counter("msgs_sent"),
        messages_delivered: counter("msgs_delivered"),
        ticks: counter("ticks"),
        payload_bytes: counter("payload_bytes"),
        scheduled: counter("queue_scheduled"),
        cancelled: counter("queue_cancelled"),
        popped: counter("queue_popped"),
        crashes: counter("fault_crashes"),
        dropped: counter("fault_dropped_crash")
            + counter("fault_dropped_partition")
            + counter("fault_dropped_random"),
        storm_deliveries: counter("fault_storm_deliveries"),
        intercepted: counter("adv_intercepted"),
        clamped: counter("adv_clamped"),
        trace_records: 0,
        trace_dropped: 0,
    }
}

/// One run's `NetworkReport`, opaque to the rest of the harness.
/// Equality is the report's own (`==` on what happened in the run).
#[derive(Debug, Clone, PartialEq)]
pub struct Report(NetworkReport);

impl Report {
    /// The report's counts.
    pub fn counts(&self) -> Counts {
        let r = &self.0;
        Counts {
            events: r.events_processed,
            messages_sent: r.messages_sent,
            messages_delivered: r.messages_delivered,
            ticks: r.ticks,
            payload_bytes: r.payload_bytes,
            scheduled: r.queue_stats.scheduled,
            cancelled: r.queue_stats.cancelled,
            popped: r.queue_stats.popped,
            crashes: r.faults.crashes,
            dropped: r.faults.dropped(),
            storm_deliveries: r.faults.storm_deliveries,
            intercepted: r.adversary.intercepted,
            clamped: r.adversary.clamped,
            trace_records: r.trace_records,
            trace_dropped: r.trace_dropped,
        }
    }

    /// Why the run returned: `quiescent`, `stopped`, `max-events` or
    /// `max-time`.
    pub fn outcome(&self) -> String {
        self.0.outcome.to_string()
    }

    /// The protocol asked the network to stop.
    pub fn stopped_by_protocol(&self) -> bool {
        self.0.outcome == RunOutcome::Stopped
    }

    /// The run was cut off at its event budget.
    pub fn cut_at_event_budget(&self) -> bool {
        self.0.outcome == RunOutcome::MaxEvents
    }

    /// Folds every simulated statistic the report compares with `==`
    /// into `hash`.
    pub fn hash_into(&self, hash: &mut Fnv64) {
        let r = &self.0;
        hash.write(r.outcome.to_string().as_bytes());
        hash.write_u64(r.end_time.as_secs().to_bits());
        for v in [
            r.events_processed,
            r.messages_sent,
            r.messages_delivered,
            r.in_flight,
            r.ticks,
            r.payload_bytes,
            r.queue_stats.scheduled,
            r.queue_stats.cancelled,
            r.queue_stats.popped,
            r.faults.crashes,
            r.faults.recoveries,
            r.faults.dropped_crash,
            r.faults.dropped_partition,
            r.faults.dropped_random,
            r.faults.storm_deliveries,
            r.adversary.intercepted,
            r.adversary.clamped,
            r.adversary.max_edge_mean.to_bits(),
            r.adversary.violations,
        ] {
            hash.write_u64(v);
        }
        for (name, value) in &r.counters {
            hash.write(name.as_bytes());
            hash.write_u64(*value);
        }
    }
}

// ---------------------------------------------------------------------
// Delay families
// ---------------------------------------------------------------------

/// The delay families the workloads use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delay {
    /// Exponential with the given mean (zero lookahead).
    Exp { mean: f64 },
    /// Uniform on `[lo, hi]` (lookahead `lo`).
    Uniform { lo: f64, hi: f64 },
}

impl Delay {
    fn model(self) -> SharedDelay {
        match self {
            Delay::Exp { mean } => Arc::new(Exponential::from_mean(mean).expect("positive mean")),
            Delay::Uniform { lo, hi } => Arc::new(Uniform::new(lo, hi).expect("ordered bounds")),
        }
    }
}

fn limits(horizon: Option<f64>) -> RunLimits {
    let limits = RunLimits::events(EVENT_BUDGET);
    match horizon {
        Some(t) => limits.with_max_time(SimTime::from_secs(t)),
        None => limits,
    }
}

// ---------------------------------------------------------------------
// Ring election
// ---------------------------------------------------------------------

/// How the §3 election picks its activation probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `AbeElection::calibrated(n, a)`: `A0 = a / n²`.
    Calibrated(f64),
    /// `AbeElection::new(n, a0)`.
    Fixed(f64),
}

/// One election on a unidirectional ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingSpec {
    pub n: u32,
    pub delay: Delay,
    pub activation: Activation,
    pub seed: u64,
    /// Virtual-time horizon; `None` runs until the protocol stops.
    pub horizon: Option<f64>,
}

/// A built, not yet run, election network.
pub struct RingNet {
    net: Network<AbeElection>,
    limits: RunLimits,
}

/// `Topology::unidirectional_ring` + `NetworkBuilder::build`.
pub fn build_ring(spec: &RingSpec, shards: u32) -> RingNet {
    let n = spec.n;
    let net = NetworkBuilder::new(Topology::unidirectional_ring(n).expect("n >= 1"))
        .delay_shared(spec.delay.model())
        .seed(spec.seed)
        .shards(shards)
        .build(|_| match spec.activation {
            Activation::Calibrated(a) => AbeElection::calibrated(n, a).expect("a > 0"),
            Activation::Fixed(a0) => AbeElection::new(n, a0).expect("a0 in (0, 1)"),
        })
        .expect("ring configuration is structurally valid");
    RingNet {
        net,
        limits: limits(spec.horizon),
    }
}

impl RingNet {
    /// `Network::run`.
    pub fn run(self) -> RingRun {
        let (report, net) = self.net.run(self.limits);
        RingRun {
            report: Report(report),
            net,
        }
    }

    /// `Network::run_sharded`.
    pub fn run_sharded(self) -> RingRun {
        let (report, net) = self.net.run_sharded(self.limits);
        RingRun {
            report: Report(report),
            net,
        }
    }
}

/// A finished election: its report plus the final network state.
pub struct RingRun {
    pub report: Report,
    net: Network<AbeElection>,
}

/// `Network::shard_timing()` as plain numbers (host time).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    pub windows: u64,
    pub single_steps: u64,
    pub fell_back: bool,
    pub busy_s: Vec<f64>,
    pub critical_path_s: f64,
}

impl RingRun {
    /// Nodes in the `Leader` state.
    pub fn leaders(&self) -> usize {
        self.net
            .protocols()
            .filter(|p| p.state() == ElectionState::Leader)
            .count()
    }

    /// Telemetry of the sharded run; `None` after `Network::run`.
    pub fn shard(&self) -> Option<ShardStats> {
        self.net.shard_timing().map(|t| ShardStats {
            windows: t.windows,
            single_steps: t.single_steps,
            fell_back: t.fell_back,
            busy_s: t.busy_nanos.iter().map(|&ns| ns as f64 * 1e-9).collect(),
            critical_path_s: t.critical_path_nanos as f64 * 1e-9,
        })
    }
}

// ---------------------------------------------------------------------
// The dispatch floor: the benchmark's own minimal protocol
// ---------------------------------------------------------------------

/// Forwards each received token on the next out-port, `remaining` times,
/// and asks for `ticks` clock ticks it does nothing with. It keeps no
/// other state and draws no randomness, so a run of it costs what the
/// kernel, the network runtime and delay sampling cost alone.
#[derive(Debug, Clone)]
struct Forwarder {
    initiator: bool,
    remaining: u32,
    ticks: u32,
    next_port: usize,
}

impl Protocol for Forwarder {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        if self.initiator {
            for port in 0..ctx.out_degree() {
                ctx.send(OutPort(port), ());
            }
        }
    }

    fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(OutPort(self.next_port), ());
            self.next_port = (self.next_port + 1) % ctx.out_degree();
        }
    }

    fn on_tick(&mut self, _ctx: &mut Ctx<'_, ()>) {
        self.ticks -= 1;
    }

    fn wants_tick(&self) -> bool {
        self.ticks > 0
    }
}

/// Topology of a floor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Unidirectional ring of `n` nodes.
    Ring(u32),
    /// Complete graph on `n` nodes.
    Complete(u32),
}

/// One run of the [`Forwarder`] floor protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloorSpec {
    pub shape: Shape,
    pub delay: Delay,
    pub seed: u64,
    /// Every node starts tokens (one per out-port), or node 0 alone.
    pub all_initiate: bool,
    /// Forwards each node performs before it swallows tokens.
    pub forwards: u32,
    /// Clock ticks each node takes (one per local time unit from zero).
    pub ticks: u32,
    pub horizon: Option<f64>,
    /// Install a non-empty fault plan whose windows never open.
    pub inert_faults: bool,
    /// Install the `Swap` adversary (same family, budget = its mean).
    pub swap_adversary: bool,
}

/// A built, not yet run, floor network.
pub struct FloorNet {
    net: Network<Forwarder>,
    limits: RunLimits,
}

/// Builds the floor network.
pub fn build_floor(spec: &FloorSpec) -> FloorNet {
    let topo = match spec.shape {
        Shape::Ring(n) => Topology::unidirectional_ring(n),
        Shape::Complete(n) => Topology::complete(n),
    }
    .expect("n >= 1");
    let mut builder = NetworkBuilder::new(topo)
        .delay_shared(spec.delay.model())
        .seed(spec.seed);
    if spec.inert_faults {
        // Both windows lie far beyond any run, so every send walks the
        // partition and storm lists and none ever fires.
        let never = 1e15;
        builder = builder.fault(
            FaultPlan::new()
                .partition(vec![0], never, never + 1.0)
                .delay_storm(EdgeSelector::All, never, never + 1.0, 2.0),
        );
    }
    if spec.swap_adversary {
        let model = spec.delay.model();
        let budget = model.mean().as_secs();
        builder = builder.adversary(
            AdversaryPlan::new(budget, Swap::new(model)).expect("positive finite budget"),
        );
    }
    let net = builder
        .build(|i| Forwarder {
            initiator: spec.all_initiate || i == 0,
            remaining: spec.forwards,
            ticks: spec.ticks,
            next_port: 0,
        })
        .expect("floor configuration is structurally valid");
    FloorNet {
        net,
        limits: limits(spec.horizon),
    }
}

impl FloorNet {
    /// `Network::run`.
    pub fn run(self) -> Report {
        Report(self.net.run(self.limits).0)
    }
}

// ---------------------------------------------------------------------
// Scenarios and sweeps
// ---------------------------------------------------------------------

/// A parsed `.abes` scenario.
pub struct Parsed(Scenario);

/// `abe_scenario::parse`.
pub fn parse_scenario(text: &str) -> Result<Parsed, String> {
    parse(text).map(Parsed).map_err(|e| e.to_string())
}

/// A compiled scenario, ready to expand and run.
pub struct Compiled(CompiledScenario);

/// `abe_scenario::compile`.
pub fn compile_scenario(parsed: &Parsed) -> Result<Compiled, String> {
    compile(&parsed.0).map(Compiled).map_err(|e| e.to_string())
}

/// The expanded grid of one scenario.
pub struct Cells(Vec<Cell>);

impl Cells {
    /// Cell count.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// What an anti-entropy cell (or a sweep of them) reports about its sync.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncFacts {
    /// Cells that converged.
    pub converged: f64,
    /// Entries still divergent when the runs ended, summed.
    pub residual_divergence: f64,
    /// `(key, version, payload)` triples no write ever produced, summed.
    pub invented: f64,
    /// Gossip rounds to convergence, summed.
    pub rounds: f64,
    /// Data-plane wire bytes, summed.
    pub wire_bytes: f64,
}

fn sync_facts_from_metrics(metric: impl Fn(&str) -> f64) -> SyncFacts {
    SyncFacts {
        converged: metric("converged"),
        residual_divergence: metric("residual_divergence"),
        invented: metric("invented"),
        rounds: metric("rounds"),
        wire_bytes: metric("wire_bytes"),
    }
}

/// What one cell measured.
pub struct CellRun(CellMetrics);

impl CellRun {
    /// The cell's engine counters.
    pub fn counts(&self) -> Counts {
        counts_from_counters(|name| self.0.get_counter(name).unwrap_or(0))
    }

    /// The cell's `record sync` metrics.
    pub fn sync_facts(&self) -> SyncFacts {
        sync_facts_from_metrics(|name| self.0.get(name).unwrap_or(f64::NAN))
    }

    /// Folds every metric and counter into `hash`.
    pub fn hash_into(&self, hash: &mut Fnv64) {
        // `CellMetrics` keeps ordered maps, so its `Debug` form is a
        // deterministic rendering of every name and value.
        hash.write(format!("{:?}", self.0).as_bytes());
    }
}

/// A finished sweep.
pub struct SweepRun(SweepOutcome);

impl SweepRun {
    /// Cells executed.
    pub fn cells(&self) -> usize {
        self.0.cells.len()
    }

    /// The engine counters summed over every cell.
    pub fn counts(&self) -> Counts {
        counts_from_counters(|name| {
            self.0
                .cells
                .iter()
                .filter_map(|c| c.metrics.get_counter(name))
                .sum()
        })
    }

    /// The `record sync` metrics summed over every cell.
    pub fn sync_facts(&self) -> SyncFacts {
        sync_facts_from_metrics(|name| {
            self.0
                .cells
                .iter()
                .filter_map(|c| c.metrics.get(name))
                .sum()
        })
    }

    /// `SweepOutcome::metrics_json`.
    pub fn metrics_json(&self) -> String {
        self.0.metrics_json()
    }
}

impl Compiled {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.0.scenario().name
    }

    /// `SweepSpec::expand` on the lowered spec.
    pub fn expand(&self) -> Cells {
        Cells(self.0.spec().expand())
    }

    /// `CompiledScenario::run_cell` on one expanded cell.
    pub fn run_cell(&self, cells: &Cells, index: usize) -> CellRun {
        CellRun(self.0.run_cell(&cells.0[index]))
    }

    /// What `CompiledScenario::run(threads)` does — `run_sweep` over the
    /// lowered spec with `run_cell` as the cell closure — with the
    /// closure handed to `around` so the caller can put a span on every
    /// cell. `around` must call its argument exactly once.
    pub fn run(
        &self,
        threads: usize,
        around: impl Fn(&mut dyn FnMut()) + Send + Sync,
    ) -> Result<SweepRun, String> {
        run_sweep(&self.0.spec(), threads, |cell| {
            let mut metrics = None;
            around(&mut || metrics = Some(self.0.run_cell(cell)));
            metrics.expect("`around` runs the cell")
        })
        .map(SweepRun)
        .map_err(|e| e.to_string())
    }

    /// `campaign::document`.
    pub fn document(&self, run: &SweepRun) -> String {
        document(self.0.scenario(), &run.0)
    }

    /// `campaign::check_oracles`: `(cells checked, violations)`.
    pub fn check_oracles(&self, run: &SweepRun) -> (usize, Vec<String>) {
        let report = check_oracles(self.0.scenario(), &run.0);
        (report.cells_checked, report.violations)
    }
}

// ---------------------------------------------------------------------
// Ben-Or on the complete graph, with recording
// ---------------------------------------------------------------------

/// A built, not yet run, Ben-Or network (split inputs, `f = (n−1)/3`).
pub struct CliqueNet(Network<BenOr>);

/// `Topology::complete` + `NetworkBuilder::build`, with
/// `Recording::full().payloads(true).histograms(true)` when `record`.
pub fn build_clique(n: u32, delay: Delay, seed: u64, record: bool) -> CliqueNet {
    let f = default_faulty(n);
    let coins = SeedStream::new(seed);
    let mut builder = NetworkBuilder::new(Topology::complete(n).expect("n >= 1"))
        .delay_shared(delay.model())
        .seed(seed);
    if record {
        builder = builder.record(Recording::full().payloads(true).histograms(true));
    }
    let net = builder
        .build(|i| {
            let i = i as u32;
            BenOr::new(i, n, f, i % 2 == 1, coins.stream(COIN_DOMAIN, u64::from(i)))
        })
        .expect("complete-graph configuration is structurally valid");
    CliqueNet(net)
}

impl CliqueNet {
    /// `Network::run` for at most `max_events` kernel events, then
    /// detaches the recorder and the decisions.
    pub fn run(self, max_events: u64) -> CliqueRun {
        let (report, mut net) = self.0.run(RunLimits::events(max_events));
        let trace = net.take_telemetry().map(Trace);
        let decisions = net.into_protocols().iter().map(BenOr::decision).collect();
        CliqueRun {
            report: Report(report),
            decisions,
            trace,
        }
    }
}

/// A finished Ben-Or run.
pub struct CliqueRun {
    pub report: Report,
    /// Per-node decision (`None` = undecided when the run ended).
    pub decisions: Vec<Option<bool>>,
    /// The recorder, when recording was on.
    pub trace: Option<Trace>,
}

/// A run's recorder.
pub struct Trace(Box<RunRecorder>);

/// What `TraceAnalysis` found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFacts {
    /// Records the analysis absorbed.
    pub records: usize,
    /// Edges with at least one send in the Definition-1 audit.
    pub audited_edges: usize,
    /// Largest per-edge mean granted delay.
    pub max_edge_mean: f64,
}

impl Trace {
    /// Records retained.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `RunRecorder::replay` into a `JsonlSink`, with the header: the
    /// complete `trace-v1` file as text.
    pub fn render(&self) -> String {
        let mut sink = JsonlSink::new();
        self.0.replay(&mut sink);
        let header = render_header(sink.records(), self.0.dropped(), &[]);
        let body = sink.into_body();
        let mut file = String::with_capacity(header.len() + 1 + body.len());
        file.push_str(&header);
        file.push('\n');
        file.push_str(&body);
        file
    }

    /// `TraceAnalysis::from_records` + `delay_audit`.
    pub fn analyse(&self) -> TraceFacts {
        let analysis = TraceAnalysis::from_records(self.0.records().cloned());
        let audit = analysis.delay_audit();
        TraceFacts {
            records: analysis.len(),
            audited_edges: audit.len(),
            max_edge_mean: audit.iter().map(|row| row.2).fold(0.0, f64::max),
        }
    }
}

/// `validate_trace`: the record lines counted, or the first offence.
pub fn validate_trace_file(text: &str) -> Result<u64, String> {
    let summary = validate_trace(text)?;
    if summary.records != summary.declared_records {
        return Err(format!(
            "header declares {} records, file holds {}",
            summary.declared_records, summary.records
        ));
    }
    Ok(summary.records)
}

// ---------------------------------------------------------------------
// Isolated probes: a layer's public functions driven alone
// ---------------------------------------------------------------------

/// Work done and host time taken by one probe loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub ops: u64,
    pub secs: f64,
}

impl std::ops::AddAssign for Probe {
    fn add_assign(&mut self, other: Self) {
        self.ops += other.ops;
        self.secs += other.secs;
    }
}

impl Probe {
    /// Host nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops.max(1) as f64
    }
}

/// The shape of a queue tape, taken from a workload's own counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueTape {
    /// Tick events pending when the clock starts (one per node: what the
    /// start events leave behind).
    pub pending_ticks: usize,
    /// Deliveries scheduled, one mean-1 delay ahead.
    pub deliveries: u64,
    /// Ticks scheduled after the start, `tick_gap` ahead.
    pub ticks: u64,
    /// Tick cancellations, oldest pending tick first.
    pub cancels: u64,
    /// Pops.
    pub pops: u64,
    /// How far ahead a tick is scheduled, in simulated seconds: about 1
    /// for a protocol that ticks every interval, huge for the calibrated
    /// election, whose geometric stride skips ~n² intervals.
    pub tick_gap: f64,
    /// At most this many operations are replayed (the proportions of the
    /// four kinds are kept).
    pub max_ops: u64,
    pub seed: u64,
}

enum QueueOp {
    Deliver(f64),
    Tick(f64),
    CancelTick,
    Pop,
}

/// Replays a schedule/cancel/pop tape through `EventQueue`. The tape is
/// generated, and the pending ticks are scheduled, before the clock
/// starts; operations are shuffled in the proportions of the tape's four
/// counts.
pub fn probe_queue(tape: &QueueTape) -> Probe {
    let mut rng = SplitMix64::new(tape.seed);
    let mut unit = move || (1 + rng.next_u64() % 8_192) as f64 / 4_096.0;
    let kinds = [tape.deliveries, tape.ticks, tape.cancels, tape.pops];
    let total = kinds.iter().sum::<u64>().max(1);
    let ops = total.min(tape.max_ops) as usize;
    let mut pick = SplitMix64::new(tape.seed ^ 0x9E37_79B9_7F4A_7C15);
    let script: Vec<QueueOp> = (0..ops)
        .map(|_| {
            let r = pick.next_u64() % total;
            if r < kinds[0] {
                QueueOp::Deliver(unit())
            } else if r < kinds[0] + kinds[1] {
                QueueOp::Tick(tape.tick_gap * unit())
            } else if r < kinds[0] + kinds[1] + kinds[2] {
                QueueOp::CancelTick
            } else {
                QueueOp::Pop
            }
        })
        .collect();

    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut ticks: Vec<EventToken> = Vec::with_capacity(tape.pending_ticks + ops);
    for _ in 0..tape.pending_ticks {
        ticks.push(queue.schedule(SimTime::from_secs(tape.tick_gap * unit()), 0));
    }
    let mut oldest_tick = 0usize;
    let mut now = 0.0f64;
    let started = Instant::now();
    for op in &script {
        match op {
            QueueOp::Deliver(d) => {
                black_box(queue.schedule(SimTime::from_secs(now + d), 0));
            }
            QueueOp::Tick(d) => ticks.push(queue.schedule(SimTime::from_secs(now + d), 0)),
            QueueOp::CancelTick => {
                if let Some(&token) = ticks.get(oldest_tick) {
                    oldest_tick += 1;
                    black_box(queue.cancel(token));
                }
            }
            QueueOp::Pop => {
                if let Some((t, _)) = queue.pop() {
                    now = t.as_secs();
                }
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    black_box(queue.len());
    Probe {
        ops: ops as u64,
        secs,
    }
}

/// `SeedStream::stream` for `count` distinct entities.
pub fn probe_rng_stream(count: u64, seed: u64) -> Probe {
    let seeds = SeedStream::new(seed);
    let started = Instant::now();
    for i in 0..count {
        black_box(seeds.stream("node", black_box(i)));
    }
    Probe {
        ops: count,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// `Xoshiro256PlusPlus::uniform_f64`, `count` draws from one stream.
pub fn probe_rng_draw(count: u64, seed: u64) -> Probe {
    let mut rng = SeedStream::new(seed).stream("probe", 0);
    let started = Instant::now();
    let mut sum = 0.0;
    for _ in 0..count {
        sum += rng.uniform_f64();
    }
    black_box(sum);
    Probe {
        ops: count,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// `DelayModel::sample` through the shared trait object, as the network
/// runtime calls it.
pub fn probe_delay(delay: Delay, count: u64, seed: u64) -> Probe {
    let model = delay.model();
    let mut rng = SeedStream::new(seed).stream("channel", 0);
    let started = Instant::now();
    let mut sum = 0.0;
    for _ in 0..count {
        sum += black_box(&model).sample(&mut rng).as_secs();
    }
    black_box(sum);
    Probe {
        ops: count,
        secs: started.elapsed().as_secs_f64(),
    }
}

fn full_store(key_space: u32) -> StateStore {
    let mut store = StateStore::new();
    for k in 0..key_space {
        store.write(k, 1, base_payload(k));
    }
    store
}

/// `Digests::root` on a store holding every key of `key_space`.
pub fn probe_digest_root(key_space: u32, count: u64) -> Probe {
    let store = full_store(key_space);
    let digests = Digests::new(key_space);
    let started = Instant::now();
    for _ in 0..count {
        black_box(digests.root(black_box(&store)));
    }
    Probe {
        ops: count,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// `StateStore::write` of a newer version over every key of a full store,
/// `rounds` times.
pub fn probe_store_write(key_space: u32, rounds: u64) -> Probe {
    let mut store = full_store(key_space);
    let started = Instant::now();
    for round in 0..rounds {
        for k in 0..key_space {
            black_box(store.write(k, 2 + round, u64::from(k)));
        }
    }
    Probe {
        ops: rounds * u64::from(key_space),
        secs: started.elapsed().as_secs_f64(),
    }
}
