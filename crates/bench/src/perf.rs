//! The standing kernel perf harness behind the `abe-perf` binary.
//!
//! Runs a fixed macro-benchmark suite against the simulation kernel and
//! renders one `abe-bench/kernel-v1` JSON document (`BENCH_kernel.json` at
//! the repo root by convention) — the perf trajectory's datapoints. Five
//! suites:
//!
//! * **queue_churn** — a steady-state schedule/cancel/pop workload driven
//!   through *both* queue implementations: the indexed calendar
//!   [`EventQueue`] the kernel runs on, and the retained binary-heap
//!   [`HeapQueue`] baseline. The identical operation sequence hits both,
//!   so every document records the indexed queue's speedup over the
//!   pre-refactor design (`churn.speedup`).
//! * **ring_election** — single-threaded ABE ring elections at `n` up to
//!   10⁶ nodes, end-to-end through the network runtime (the headline
//!   "million-node election in seconds on one core" measurement).
//! * **ring_election_parallel** — the same election sharded across the
//!   deterministic parallel kernel (`abe_core::shard`) to a fixed
//!   virtual-time horizon, at 1–8 shards, under a delay family with a
//!   static lookahead (uniform) and one whose lookahead is pre-drawn
//!   (exponential). Each cell records its wall clock, the measured
//!   `speedup_vs_seq` against its `shards = 1` twin, and the
//!   `work_inflation` `Σ busy / sequential wall` that must stay near 1.
//! * **fault_storm** — an election under crash-recover churn plus a delay
//!   storm, measuring dispatch throughput with the fault layer active.
//! * **sync_antientropy** — Merkle-descent anti-entropy on `K₁₆` to
//!   convergence at two key-space sizes: the protocol-dominated workload,
//!   where per-event cost is digest-tree upkeep and leaf transfers rather
//!   than the kernel.
//!
//! Wall-clock numbers are machine-dependent by nature; everything else
//! about the workloads (seeds, grids, op mixes) is fixed, so runs on the
//! same machine are comparable and the `speedup` ratio is meaningful
//! anywhere. See `docs/BENCH_JSON.md` for the field-by-field schema.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use abe_core::delay::Exponential;
use abe_core::fault::{EdgeSelector, FaultPlan};
use abe_core::{NetworkBuilder, RunConfig, Topology};
use abe_election::{run_abe_calibrated, AbeElection, ElectionState, RingConfig};
use abe_sim::{EventQueue, EventToken, HeapQueue, QueueStats, RunLimits, SimTime, SplitMix64};
use abe_statesync::{run_antientropy, SyncConfig};
use abe_stats::{json_f64, json_str};

/// Grid size selector for the perf suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfMode {
    /// Minimal grids for the CI gate: a few seconds in total.
    Smoke,
    /// The full suite, including the 10⁶-node election.
    Full,
}

impl PerfMode {
    /// Lower-case mode name, as used on the CLI and in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            PerfMode::Smoke => "smoke",
            PerfMode::Full => "full",
        }
    }
}

/// One benchmark cell parameter value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParamValue {
    /// An integer parameter (ring size, pending-set size, …).
    U64(u64),
    /// A named parameter (queue backend, …).
    Str(&'static str),
}

impl ParamValue {
    fn to_json(&self) -> String {
        match self {
            ParamValue::U64(v) => v.to_string(),
            ParamValue::Str(s) => json_str(s),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::Str(s) => f.write_str(s),
        }
    }
}

/// One measured benchmark cell.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// The cell's coordinates, e.g. `backend=heap, pending=100000`.
    pub params: Vec<(&'static str, ParamValue)>,
    /// Kernel events (or queue operations) the cell performed.
    pub events: u64,
    /// Wall-clock seconds the cell took.
    pub wall_seconds: f64,
    /// Extra counters (messages, faults, …).
    pub counters: BTreeMap<&'static str, u64>,
    /// Extra real-valued metrics (measured speedups, ratios, …).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl PerfCell {
    /// Throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }

    /// The value of the parameter called `name`, if the cell has one.
    pub fn param(&self, name: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Human-readable parameter list.
    pub fn label(&self) -> String {
        self.params
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn to_json(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(name, value)| format!("{}:{}", json_str(name), value.to_json()))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("{}:{value}", json_str(name)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| format!("{}:{}", json_str(name), json_f64(*value)))
            .collect();
        format!(
            "{{\"params\":{{{}}},\"events\":{},\"wall_seconds\":{},\
             \"events_per_sec\":{},\"counters\":{{{}}},\"metrics\":{{{}}}}}",
            params.join(","),
            self.events,
            json_f64(self.wall_seconds),
            json_f64(self.events_per_sec()),
            counters.join(","),
            metrics.join(","),
        )
    }
}

/// One benchmark suite: a name plus its measured cells.
#[derive(Debug, Clone)]
pub struct PerfSuite {
    /// Suite identifier (`queue_churn`, `ring_election`, `fault_storm`, …).
    pub name: &'static str,
    /// One-line description embedded in the JSON.
    pub about: &'static str,
    /// The measured cells, in grid order.
    pub cells: Vec<PerfCell>,
}

impl PerfSuite {
    fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(PerfCell::to_json).collect();
        format!(
            "{{\"name\":{},\"about\":{},\"cells\":[{}]}}",
            json_str(self.name),
            json_str(self.about),
            cells.join(","),
        )
    }
}

/// The queue-churn comparison distilled: indexed vs recorded baseline.
#[derive(Debug, Clone, Copy)]
pub struct ChurnComparison {
    /// Aggregate ops/s of the retained pre-refactor [`HeapQueue`].
    pub baseline_events_per_sec: f64,
    /// Aggregate ops/s of the indexed calendar [`EventQueue`].
    pub indexed_events_per_sec: f64,
}

impl ChurnComparison {
    /// Indexed-over-baseline throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.indexed_events_per_sec / self.baseline_events_per_sec.max(1e-9)
    }
}

/// A complete `abe-perf` run, renderable as `abe-bench/kernel-v1` JSON.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// The grid mode the run used.
    pub mode: PerfMode,
    /// All suites, in execution order.
    pub suites: Vec<PerfSuite>,
    /// The churn-suite heap-vs-indexed summary.
    pub churn: ChurnComparison,
}

impl KernelBench {
    /// Checks the rules every run must pass on any machine: every suite
    /// measured at least one cell and every cell did work; every election
    /// cell timed its build, run and teardown apart; the sharded
    /// election did the same events at every shard count of a
    /// `(delay, n)` group, measured a positive speedup on every cell and
    /// a positive work inflation on every sharded cell, and ran every
    /// sharded cell in windows without one single-step; and both
    /// churn backends moved. Wall-clock floors depend on the host, so
    /// they belong to the `abe-perf` binary, not to this check.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule, naming its suite and cell.
    pub fn check(&self) -> Result<(), String> {
        for suite in &self.suites {
            ensure(!suite.cells.is_empty(), || {
                format!("{}: no cells", suite.name)
            })?;
            for cell in &suite.cells {
                ensure(cell.events_per_sec() > 0.0, || {
                    format!("{} [{}]: zero events", suite.name, cell.label())
                })?;
                if suite.name == "ring_election" {
                    for phase in ["build_s", "run_s", "teardown_s"] {
                        ensure(cell.metrics.get(phase).is_some_and(|v| *v > 0.0), || {
                            let at = cell.label();
                            format!("ring_election [{at}]: {phase} missing or not positive")
                        })?;
                    }
                }
            }
        }
        let parallel = self
            .suites
            .iter()
            .find(|s| s.name == "ring_election_parallel")
            .ok_or("no ring_election_parallel suite")?;
        let mut group_events = BTreeMap::new();
        for cell in &parallel.cells {
            let at = || format!("ring_election_parallel [{}]", cell.label());
            let group = (cell.param("delay"), cell.param("n"));
            let first = *group_events.entry(group).or_insert(cell.events);
            ensure(cell.events == first, || {
                format!("{}: {} events, not {first}", at(), cell.events)
            })?;
            let positive = |name| cell.metrics.get(name).is_some_and(|v| *v > 0.0);
            ensure(positive("speedup_vs_seq"), || {
                format!("{}: speedup_vs_seq missing or not positive", at())
            })?;
            if cell.param("shards") != Some(&ParamValue::U64(1)) {
                ensure(positive("work_inflation"), || {
                    format!("{}: work_inflation missing or not positive", at())
                })?;
                let counter = |name| cell.counters.get(name).copied().unwrap_or(0);
                let (windows, single_steps) = (counter("windows"), counter("single_steps"));
                ensure(windows > 0 && single_steps == 0, || {
                    format!("{}: {windows} windows, {single_steps} single-steps", at())
                })?;
            }
        }
        let churn = self.churn;
        ensure(
            churn.baseline_events_per_sec > 0.0 && churn.indexed_events_per_sec > 0.0,
            || format!("queue_churn: a backend did no work: {churn:?}"),
        )
    }

    /// Renders the self-describing JSON document (schema
    /// `abe-bench/kernel-v1`; see `docs/BENCH_JSON.md`).
    pub fn to_json(&self) -> String {
        let suites: Vec<String> = self.suites.iter().map(PerfSuite::to_json).collect();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            "{{\"schema\":\"abe-bench/kernel-v1\",\
             \"mode\":{mode},\
             \"threads\":1,\
             \"machine\":{{\"os\":{os},\"arch\":{arch},\"cpus\":{cpus}}},\
             \"suites\":[{suites}],\
             \"churn\":{{\"baseline_events_per_sec\":{base},\
             \"indexed_events_per_sec\":{indexed},\"speedup\":{speedup}}}}}",
            mode = json_str(self.mode.name()),
            os = json_str(std::env::consts::OS),
            arch = json_str(std::env::consts::ARCH),
            suites = suites.join(","),
            base = json_f64(self.churn.baseline_events_per_sec),
            indexed = json_f64(self.churn.indexed_events_per_sec),
            speedup = json_f64(self.churn.speedup()),
        )
    }
}

/// `Ok` when `ok` holds, else the message `what` builds.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The queue operations the churn driver needs, implemented by both
/// backends so the *same* deterministic op sequence hits each.
trait ChurnQueue {
    fn schedule(&mut self, time: SimTime) -> EventToken;
    fn cancel(&mut self, token: EventToken) -> bool;
    fn pop(&mut self) -> Option<SimTime>;
    fn stats(&self) -> QueueStats;
}

impl ChurnQueue for EventQueue<u64> {
    fn schedule(&mut self, time: SimTime) -> EventToken {
        EventQueue::schedule(self, time, 0)
    }
    fn cancel(&mut self, token: EventToken) -> bool {
        EventQueue::cancel(self, token)
    }
    fn pop(&mut self) -> Option<SimTime> {
        EventQueue::pop(self).map(|(t, _)| t)
    }
    fn stats(&self) -> QueueStats {
        EventQueue::stats(self)
    }
}

impl ChurnQueue for HeapQueue<u64> {
    fn schedule(&mut self, time: SimTime) -> EventToken {
        HeapQueue::schedule(self, time, 0)
    }
    fn cancel(&mut self, token: EventToken) -> bool {
        HeapQueue::cancel(self, token)
    }
    fn pop(&mut self) -> Option<SimTime> {
        HeapQueue::pop(self).map(|(t, _)| t)
    }
    fn stats(&self) -> QueueStats {
        HeapQueue::stats(self)
    }
}

/// One pre-generated churn operation. The tape is built *outside* the
/// timed region so both backends execute the identical sequence and the
/// measured wall clock is queue work, not RNG work.
enum ChurnOp {
    /// Schedule at `now + delay`.
    Schedule(f64),
    /// Cancel a recently issued token (`raw` picks one of the newest
    /// [`RESCHEDULE_WINDOW`] tokens, the way `sync_tick` cancels the tick
    /// it scheduled moments ago) and schedule a replacement at
    /// `now + delay`.
    Reschedule(u64, f64),
    /// Pop the earliest live event, advancing `now`.
    Pop,
}

/// How far back the cancel-and-reschedule op reaches: real kernel churn
/// cancels tokens issued moments ago (a node's pending tick), not a
/// uniformly random event from the whole simulation's history.
const RESCHEDULE_WINDOW: usize = 4_096;

/// Builds the deterministic churn tape: `pending` prefill delays plus
/// `ops` operations in a 3/8 schedule, 2/8 cancel-and-reschedule, 3/8 pop
/// mix (which keeps the pending set near its prefill size).
fn churn_tape(pending: u64, ops: u64) -> (Vec<f64>, Vec<ChurnOp>) {
    let mut rng = SplitMix64::new(0x5EED_CAFE);
    let delay = |rng: &mut SplitMix64| {
        // Mostly near-future (mean ≈ 1 s, the harness calibration), with
        // an occasional far-future outlier like a slow clock stride.
        if rng.next_u64().is_multiple_of(64) {
            1_000.0 + (rng.next_u64() % 100_000) as f64
        } else {
            (1 + rng.next_u64() % 8_192) as f64 / 4_096.0
        }
    };
    let prefill: Vec<f64> = (0..pending).map(|_| delay(&mut rng)).collect();
    let tape: Vec<ChurnOp> = (0..ops)
        .map(|_| match rng.next_u64() % 8 {
            0..=2 => ChurnOp::Schedule(delay(&mut rng)),
            3 | 4 => {
                let raw = rng.next_u64();
                ChurnOp::Reschedule(raw, delay(&mut rng))
            }
            _ => ChurnOp::Pop,
        })
        .collect();
    (prefill, tape)
}

/// Replays the churn tape against one queue backend. Returns the number
/// of queue operations that took effect.
fn churn_workload<Q: ChurnQueue>(queue: &mut Q, prefill: &[f64], tape: &[ChurnOp]) -> u64 {
    let mut now = 0.0f64;
    let mut tokens: Vec<EventToken> = Vec::with_capacity(prefill.len() + tape.len());
    for &d in prefill {
        tokens.push(queue.schedule(SimTime::from_secs(now + d)));
    }
    for op in tape {
        match op {
            ChurnOp::Schedule(d) => {
                tokens.push(queue.schedule(SimTime::from_secs(now + d)));
            }
            ChurnOp::Reschedule(raw, d) => {
                let back = (*raw as usize) % tokens.len().min(RESCHEDULE_WINDOW);
                let k = tokens.len() - 1 - back;
                queue.cancel(tokens[k]);
                tokens[k] = queue.schedule(SimTime::from_secs(now + d));
            }
            ChurnOp::Pop => {
                if let Some(t) = queue.pop() {
                    now = t.as_secs();
                }
            }
        }
    }
    let stats = queue.stats();
    stats.scheduled + stats.cancelled + stats.popped
}

fn churn_suite(mode: PerfMode) -> (PerfSuite, ChurnComparison) {
    let (sizes, ops, iters): (&[u64], u64, u32) = match mode {
        PerfMode::Smoke => (&[10_000], 300_000, 2),
        PerfMode::Full => (&[10_000, 1_000_000], 3_000_000, 3),
    };
    let mut cells = Vec::new();
    let mut totals = [(0u64, 0.0f64); 2]; // (events, best wall) per backend
    for &pending in sizes {
        let (prefill, tape) = churn_tape(pending, ops);
        for (backend_idx, backend) in ["heap", "indexed"].into_iter().enumerate() {
            // Best-of-N on a fresh queue each time: the minimum discards
            // first-touch page faults and scheduler noise, which would
            // otherwise dominate run-to-run variance at the 10⁶ size.
            let mut events = 0;
            let mut wall = f64::INFINITY;
            for _ in 0..iters {
                let started = Instant::now();
                events = if backend == "heap" {
                    churn_workload(&mut HeapQueue::new(), &prefill, &tape)
                } else {
                    churn_workload(&mut EventQueue::new(), &prefill, &tape)
                };
                wall = wall.min(started.elapsed().as_secs_f64());
            }
            totals[backend_idx].0 += events;
            totals[backend_idx].1 += wall;
            cells.push(PerfCell {
                params: vec![
                    ("backend", ParamValue::Str(backend)),
                    ("pending", ParamValue::U64(pending)),
                ],
                events,
                wall_seconds: wall,
                counters: BTreeMap::from([("ops", ops), ("iterations", u64::from(iters))]),
                metrics: BTreeMap::new(),
            });
        }
    }
    let comparison = ChurnComparison {
        baseline_events_per_sec: totals[0].0 as f64 / totals[0].1.max(1e-9),
        indexed_events_per_sec: totals[1].0 as f64 / totals[1].1.max(1e-9),
    };
    let suite = PerfSuite {
        name: "queue_churn",
        about: "steady-state schedule/cancel/pop mix through both queue backends \
                (heap = recorded pre-refactor baseline)",
        cells,
    };
    (suite, comparison)
}

/// Standard substrate for the election perf suites: exponential mean-1
/// delays, seed 1, and an event budget generous enough that every run
/// terminates by electing a leader.
fn election_substrate() -> RunConfig {
    RunConfig::new()
        .delay(Arc::new(Exponential::from_mean(1.0).expect("valid mean")))
        .seed(1)
        .max_events(200_000_000)
}

/// The `ring_election` activation constant (`A0 = a/n²`). At `a = 1` a
/// second node wakes during the first token's lap on about one seed in
/// three, and the two tokens purge each other: the cells then do 5n + 7
/// events at one n and 2n + 1 at another, and events/s across n is not
/// like for like. At `a = 0.01` (as in the benchmark's `ring-seq-1m`)
/// every cell elects its first waker in one lap, 2n + 1 events.
const ELECTION_A: f64 = 0.01;

fn election_suite(mode: PerfMode) -> PerfSuite {
    // Smoke keeps 10⁵: at seed 1 it is the size where `a = 1` took
    // 5n + 7 events, so the smoke test's 2n + 1 rule can see that shape.
    let sizes: &[u32] = match mode {
        PerfMode::Smoke => &[1_000, 10_000, 100_000],
        PerfMode::Full => &[1_000, 10_000, 100_000, 1_000_000],
    };
    let mut cells = Vec::new();
    for &n in sizes {
        // The election `run_abe_calibrated` runs on `election_substrate()`,
        // with a clock read between its build, run and teardown.
        let started = Instant::now();
        let net = NetworkBuilder::new(Topology::unidirectional_ring(n).expect("n >= 1"))
            .delay(Exponential::from_mean(1.0).expect("valid mean"))
            .seed(1)
            .build(|_| AbeElection::calibrated(n, ELECTION_A).expect("valid a"))
            .expect("valid build");
        let built = Instant::now();
        let (report, net) = net.run(RunLimits::events(200_000_000));
        let ran = Instant::now();
        let protocols = net.into_protocols();
        let leaders = protocols
            .iter()
            .filter(|p| p.state() == ElectionState::Leader)
            .count();
        drop(protocols);
        let done = Instant::now();
        assert!(
            report.outcome.is_stopped() && leaders == 1,
            "perf election at n={n} must elect exactly one leader \
             (outcome={:?}, leaders={leaders})",
            report.outcome,
        );
        let secs = |from: Instant, to: Instant| (to - from).as_secs_f64();
        cells.push(PerfCell {
            params: vec![("n", ParamValue::U64(u64::from(n)))],
            events: report.events_processed,
            wall_seconds: secs(started, done),
            counters: BTreeMap::from([
                ("messages", report.messages_sent),
                ("leaders", leaders as u64),
                ("queue_scheduled", report.queue_stats.scheduled),
                ("queue_cancelled", report.queue_stats.cancelled),
            ]),
            metrics: BTreeMap::from([
                ("build_s", secs(started, built)),
                ("run_s", secs(built, ran)),
                ("teardown_s", secs(ran, done)),
            ]),
        });
    }
    PerfSuite {
        name: "ring_election",
        about: "single-threaded ABE ring election end-to-end through the network \
                runtime (calibrated A0 = 0.01/n², one lap of one token: 2n + 1 events; \
                exponential mean-1 delays); wall_seconds = build_s + run_s + teardown_s",
        cells,
    }
}

/// One fixed-horizon sharded election run (`MaxTime` outcome by
/// construction, so the windowed parallel path is exercised rather than
/// the stop-request fallback). `seq_wall` is the wall clock of the
/// `shards = 1` cell with the same `delay` and `n`; `None` for that cell
/// itself.
fn parallel_election_cell(
    delay: &'static str,
    n: u32,
    shards: u32,
    horizon: f64,
    seq_wall: Option<f64>,
) -> PerfCell {
    use abe_core::delay::{SharedDelay, Uniform};
    use abe_core::{NetworkBuilder, Topology};
    use abe_election::AbeElection;
    use abe_sim::{RunLimits, RunOutcome};

    let model: SharedDelay = match delay {
        "uniform" => Arc::new(Uniform::new(0.5, 1.5).expect("valid bounds")),
        _ => Arc::new(Exponential::from_mean(1.0).expect("valid mean")),
    };
    // a0 = 0.5 (not the calibrated 1/n²): every node activates within its
    // first few ticks, so ~n tokens circulate for the whole horizon — a
    // steady delivery workload. The election itself needs Ω(n·δ_min)
    // virtual time to complete, far past the horizon, so no stop request
    // ever interrupts a window.
    let net = NetworkBuilder::new(Topology::unidirectional_ring(n).expect("n >= 1"))
        .delay_shared(model)
        .seed(1)
        .shards(shards)
        .build(|_| AbeElection::new(n, 0.5).expect("valid a0"))
        .expect("valid build");
    let limits = RunLimits::events(200_000_000).with_max_time(SimTime::from_secs(horizon));
    let started = Instant::now();
    let (report, net) = net.run_sharded(limits);
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(
        report.outcome,
        RunOutcome::MaxTime,
        "parallel perf run at delay={delay}, n={n}, shards={shards} must end at the horizon"
    );
    let seq_wall = seq_wall.unwrap_or(wall);
    let mut counters = BTreeMap::from([("messages", report.messages_sent)]);
    let mut metrics = BTreeMap::from([("speedup_vs_seq", seq_wall / wall.max(1e-9))]);
    if let Some(timing) = net.shard_timing() {
        assert!(
            !timing.fell_back,
            "parallel perf run at delay={delay}, n={n}, shards={shards} fell back: {timing:?}"
        );
        let busy: u64 = timing.busy_nanos.iter().sum();
        counters.insert("windows", timing.windows);
        counters.insert("single_steps", timing.single_steps);
        counters.insert("credit_halts", timing.credit_halts);
        counters.insert("busy_nanos", busy);
        counters.insert("critical_path_nanos", timing.critical_path_nanos);
        metrics.insert("work_inflation", busy as f64 * 1e-9 / seq_wall.max(1e-9));
    }
    PerfCell {
        params: vec![
            ("delay", ParamValue::Str(delay)),
            ("n", ParamValue::U64(u64::from(n))),
            ("shards", ParamValue::U64(u64::from(shards))),
        ],
        events: report.events_processed,
        wall_seconds: wall,
        counters,
        metrics,
    }
}

fn parallel_election_suite(mode: PerfMode) -> PerfSuite {
    // Every grid starts at `shards = 1`: the sequential twin the other
    // cells of its (delay, n) group are measured against.
    let (sizes, shard_counts, horizon): (&[u32], &[u32], f64) = match mode {
        PerfMode::Smoke => (&[10_000], &[1, 2, 4], 2.0),
        // 10⁷ is deliberately omitted: the fixed horizon alone would put a
        // single cell past the full-mode time budget.
        PerfMode::Full => (&[100_000, 1_000_000], &[1, 2, 4, 8], 4.0),
    };
    let mut cells = Vec::new();
    for delay in ["uniform", "exp"] {
        for &n in sizes {
            let mut seq_wall = None;
            for &shards in shard_counts {
                let cell = parallel_election_cell(delay, n, shards, horizon, seq_wall);
                seq_wall.get_or_insert(cell.wall_seconds);
                cells.push(cell);
            }
        }
    }
    PerfSuite {
        name: "ring_election_parallel",
        about: "sharded ABE ring election to a fixed virtual-time horizon under \
                uniform 0.5-1.5 delays (0.5 s of static lookahead per window) and \
                exponential mean-1 delays (lookahead pre-drawn per cross-shard \
                edge); speedup_vs_seq = wall of the shards=1 cell / this cell's \
                wall, on this machine's cores; work_inflation = total busy time / \
                wall of the shards=1 cell",
        cells,
    }
}

fn fault_storm_suite(mode: PerfMode) -> PerfSuite {
    let n: u32 = match mode {
        PerfMode::Smoke => 1_000,
        PerfMode::Full => 10_000,
    };
    let horizon = f64::from(n);
    let plan = FaultPlan::churn(n, 8, horizon, horizon / 16.0, 7).delay_storm(
        EdgeSelector::All,
        horizon * 0.25,
        horizon * 0.5,
        8.0,
    );
    let run = election_substrate()
        .fault(plan)
        .max_events(u64::from(n) * 64);
    let cfg = RingConfig::new(n, run);
    let started = Instant::now();
    let outcome = run_abe_calibrated(&cfg, 1.0);
    let wall = started.elapsed().as_secs_f64();
    let cell = PerfCell {
        params: vec![("n", ParamValue::U64(u64::from(n)))],
        events: outcome.report.events_processed,
        wall_seconds: wall,
        counters: BTreeMap::from([
            ("messages", outcome.messages),
            ("fault_crashes", outcome.report.faults.crashes),
            ("fault_recoveries", outcome.report.faults.recoveries),
            ("storm_deliveries", outcome.report.faults.storm_deliveries),
        ]),
        metrics: BTreeMap::new(),
    };
    PerfSuite {
        name: "fault_storm",
        about: "election dispatch throughput under crash-recover churn plus an \
                8x delay storm (fault layer active on every send)",
        cells: vec![cell],
    }
}

fn sync_antientropy_suite(mode: PerfMode) -> PerfSuite {
    // The 4096-key cell is full-mode only: a debug build re-derives the
    // root from scratch after every merge, far too slow for the test
    // that runs the smoke grid.
    let key_spaces: &[u32] = match mode {
        PerfMode::Smoke => &[256],
        PerfMode::Full => &[256, 4096],
    };
    let cells = key_spaces
        .iter()
        .map(|&key_space| {
            let cfg = SyncConfig::new(16, key_space, RunConfig::new().seed(1)).divergence(0.25);
            let started = Instant::now();
            let outcome = run_antientropy(&cfg);
            let wall = started.elapsed().as_secs_f64();
            assert!(
                outcome.converged(),
                "perf anti-entropy at key_space={key_space} must converge"
            );
            let sync = outcome.sync_report();
            PerfCell {
                params: vec![
                    ("n", ParamValue::U64(16)),
                    ("key_space", ParamValue::U64(u64::from(key_space))),
                ],
                events: outcome.report.events_processed,
                wall_seconds: wall,
                counters: BTreeMap::from([
                    ("messages", outcome.report.messages_sent),
                    ("rounds", sync.rounds),
                    ("wire_bytes", sync.wire_bytes),
                    ("entries_sent", sync.entries_sent),
                ]),
                metrics: BTreeMap::new(),
            }
        })
        .collect();
    PerfSuite {
        name: "sync_antientropy",
        about: "Merkle-descent anti-entropy on K_16 to convergence (a quarter of the \
                keys dirty, exponential mean-1 delays): digest-tree upkeep and leaf \
                transfers dominate, the kernel is the floor",
        cells,
    }
}

/// Runs the complete kernel macro-benchmark suite at the given mode.
pub fn run(mode: PerfMode) -> KernelBench {
    let (churn, comparison) = churn_suite(mode);
    let election = election_suite(mode);
    let parallel = parallel_election_suite(mode);
    let storm = fault_storm_suite(mode);
    let sync = sync_antientropy_suite(mode);
    KernelBench {
        mode,
        suites: vec![churn, election, parallel, storm, sync],
        churn: comparison,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_workload_is_deterministic_across_backends() {
        // Not a wall-clock assertion: the two backends must perform the
        // exact same number of effective operations, or the throughput
        // comparison would be apples to oranges.
        let (prefill, tape) = churn_tape(500, 5_000);
        let heap_ops = churn_workload(&mut HeapQueue::new(), &prefill, &tape);
        let indexed_ops = churn_workload(&mut EventQueue::new(), &prefill, &tape);
        assert_eq!(heap_ops, indexed_ops);
        assert!(heap_ops >= 5_000);
    }

    // The end-to-end smoke run (all suites, JSON validity, nonzero
    // throughput) is covered once, in
    // `tests/sweep_determinism.rs::perf_harness` — benchmarks are too
    // slow to execute twice per test run.

    /// A bench that passes [`KernelBench::check`]: one cell per suite,
    /// a sequential and a sharded cell in the parallel suite.
    fn passing_bench() -> KernelBench {
        let cell = |params: Vec<(&'static str, ParamValue)>| PerfCell {
            params,
            events: 10,
            wall_seconds: 1.0,
            counters: BTreeMap::from([("windows", 3), ("single_steps", 0)]),
            metrics: BTreeMap::from([("speedup_vs_seq", 1.0), ("work_inflation", 1.0)]),
        };
        let parallel = |shards| {
            cell(vec![
                ("delay", ParamValue::Str("exp")),
                ("n", ParamValue::U64(8)),
                ("shards", ParamValue::U64(shards)),
            ])
        };
        let suite = |name, cells| PerfSuite {
            name,
            about: "",
            cells,
        };
        let mut election = cell(vec![("n", ParamValue::U64(8))]);
        election.metrics = ["build_s", "run_s", "teardown_s"]
            .into_iter()
            .map(|phase| (phase, 0.5))
            .collect();
        KernelBench {
            mode: PerfMode::Smoke,
            suites: vec![
                suite("ring_election", vec![election]),
                suite("ring_election_parallel", vec![parallel(1), parallel(2)]),
            ],
            churn: ChurnComparison {
                baseline_events_per_sec: 1.0,
                indexed_events_per_sec: 2.0,
            },
        }
    }

    #[test]
    fn check_names_each_broken_rule() {
        let fails = |want: &str, mutate: fn(&mut KernelBench)| {
            let mut bench = passing_bench();
            mutate(&mut bench);
            let err = bench.check().unwrap_err();
            assert!(err.contains(want), "want {want:?}, got {err:?}");
        };
        assert_eq!(passing_bench().check(), Ok(()));
        fails("no cells", |b| b.suites[0].cells.clear());
        fails("zero events", |b| b.suites[0].cells[0].events = 0);
        fails("ring_election [n=8]: build_s missing", |b| {
            b.suites[0].cells[0].metrics.remove("build_s");
        });
        fails("run_s missing or not positive", |b| {
            b.suites[0].cells[0].metrics.insert("run_s", 0.0);
        });
        fails("teardown_s missing or not positive", |b| {
            b.suites[0].cells[0].metrics.insert("teardown_s", f64::NAN);
        });
        fails("5 events, not 10", |b| {
            b.suites[1].cells[1].events = 5;
        });
        fails("speedup_vs_seq missing", |b| {
            b.suites[1].cells[0].metrics.remove("speedup_vs_seq");
        });
        fails("speedup_vs_seq missing or not positive", |b| {
            b.suites[1].cells[0].metrics.insert("speedup_vs_seq", 0.0);
        });
        fails("speedup_vs_seq missing or not positive", |b| {
            b.suites[1].cells[1]
                .metrics
                .insert("speedup_vs_seq", f64::NAN);
        });
        fails("work_inflation missing", |b| {
            b.suites[1].cells[1].metrics.remove("work_inflation");
        });
        fails("work_inflation missing or not positive", |b| {
            b.suites[1].cells[1].metrics.insert("work_inflation", 0.0);
        });
        fails("0 windows", |b| {
            b.suites[1].cells[1].counters.insert("windows", 0);
        });
        fails("1 single-steps", |b| {
            b.suites[1].cells[1].counters.insert("single_steps", 1);
        });
        fails("a backend did no work", |b| {
            b.churn.baseline_events_per_sec = 0.0
        });
        fails("a backend did no work", |b| {
            b.churn.indexed_events_per_sec = 0.0
        });
        // A sequential cell needs no windows.
        let mut bench = passing_bench();
        bench.suites[1].cells[0].counters.clear();
        assert_eq!(bench.check(), Ok(()));
    }

    #[test]
    fn cell_json_shape() {
        let cell = PerfCell {
            params: vec![
                ("backend", ParamValue::Str("heap")),
                ("pending", ParamValue::U64(10)),
            ],
            events: 100,
            wall_seconds: 0.5,
            counters: BTreeMap::from([("ops", 7u64)]),
            metrics: BTreeMap::from([("speedup_vs_seq", 2.5)]),
        };
        assert_eq!(cell.events_per_sec(), 200.0);
        assert_eq!(cell.label(), "backend=heap, pending=10");
        let json = cell.to_json();
        assert!(json.contains("\"params\":{\"backend\":\"heap\",\"pending\":10}"));
        assert!(json.contains("\"events\":100"));
        assert!(json.contains("\"counters\":{\"ops\":7}"));
        assert!(json.contains("\"metrics\":{\"speedup_vs_seq\":2.5}"));
    }
}
