//! # abe-sweep — the parallel deterministic sweep engine
//!
//! Every experiment in this crate is a grid of independent simulation
//! *cells*: the cartesian product of a few configuration axes (algorithm,
//! topology, delay model, ring size, …) times a seed axis. This module
//! turns that shape into infrastructure:
//!
//! * [`SweepSpec`] describes the grid declaratively (axes, repetitions,
//!   base seed, optional combo filter);
//! * [`SweepSpec::expand`] materialises the grid into [`Cell`]s, each
//!   carrying a seed derived by hashing the cell's **grid coordinates**
//!   with the base seed — never its position in a work queue — so results
//!   are bit-identical regardless of worker count or scheduling order;
//! * [`run_sweep`] executes the cells on a pool of `std::thread` workers
//!   pulling indices from a shared [`crossbeam::channel`]; a panicking
//!   cell fails the whole sweep with its grid coordinates in the error;
//! * [`SweepOutcome`] holds per-cell metrics in deterministic grid order,
//!   offers seed-axis aggregation via [`SweepOutcome::groups`], and
//!   renders a byte-stable JSON fragment via
//!   [`SweepOutcome::metrics_json`].
//!
//! The engine is deliberately experiment-agnostic: `abe-scenario` lowers
//! declarative `.abes` scenario files onto it, and the `abe-bench`
//! experiments without a scenario build their [`SweepSpec`] in Rust —
//! both run through [`run_sweep`] and produce byte-identical metric
//! blocks at any worker count.
//!
//! ## Example
//!
//! ```
//! use abe_sweep::{run_sweep, CellMetrics, SweepSpec};
//!
//! let spec = SweepSpec::new().axis_u32("n", &[8, 16]).seeds(3);
//! let outcome = run_sweep(&spec, 4, |cell| {
//!     CellMetrics::new().metric("double", f64::from(cell.u32("n")) * 2.0)
//! })
//! .unwrap();
//! assert_eq!(outcome.cells.len(), 6);
//! let groups = outcome.groups();
//! assert_eq!(groups.len(), 2);
//! assert_eq!(groups[0].mean("double"), 16.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use abe_consensus::{BrbOutcome, ConsensusOutcome};
use abe_core::{NetworkReport, OutcomeClass, Recording};
use abe_election::ElectionOutcome;
use abe_sim::SeedStream;
use abe_statesync::SyncOutcome;
use abe_stats::{json_str, Online, Summary};
use crossbeam::channel::{unbounded, RecvTimeoutError};

/// One coordinate value on a sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// An unsigned 32-bit coordinate (ring sizes, round counts, …).
    U32(u32),
    /// A floating-point coordinate (activation budgets, loss rates, …).
    F64(f64),
    /// A named coordinate (algorithm, topology, delay family, …).
    Str(String),
}

impl AxisValue {
    /// The value as `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`AxisValue::U32`].
    pub fn as_u32(&self) -> u32 {
        match self {
            AxisValue::U32(v) => *v,
            other => panic!("axis value {other} is not a u32"),
        }
    }

    /// The value as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`AxisValue::F64`].
    pub fn as_f64(&self) -> f64 {
        match self {
            AxisValue::F64(v) => *v,
            other => panic!("axis value {other} is not an f64"),
        }
    }

    /// Renders the value as a JSON scalar.
    fn to_json(&self) -> String {
        match self {
            AxisValue::U32(v) => v.to_string(),
            AxisValue::F64(v) => abe_stats::json_f64(*v),
            AxisValue::Str(s) => json_str(s),
        }
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::U32(v) => write!(f, "{v}"),
            AxisValue::F64(v) => write!(f, "{v}"),
            AxisValue::Str(s) => f.write_str(s),
        }
    }
}

/// One named configuration axis of a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name, used in cell coordinates, JSON output, and lookups.
    pub name: &'static str,
    /// The axis values, in sweep order.
    pub values: Vec<AxisValue>,
}

/// A read-only view of one grid combination, handed to the spec's filter
/// and per-combo seed-count callbacks during expansion.
#[derive(Debug, Clone, Copy)]
pub struct Coords<'a> {
    axes: &'a [Axis],
    indices: &'a [usize],
}

impl Coords<'_> {
    /// Index of this combination's value on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn idx(&self, axis: &str) -> usize {
        let pos = self
            .axes
            .iter()
            .position(|a| a.name == axis)
            .unwrap_or_else(|| panic!("unknown sweep axis: {axis}"));
        self.indices[pos]
    }

    /// This combination's value on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn value(&self, axis: &str) -> &AxisValue {
        let pos = self
            .axes
            .iter()
            .position(|a| a.name == axis)
            .unwrap_or_else(|| panic!("unknown sweep axis: {axis}"));
        &self.axes[pos].values[self.indices[pos]]
    }
}

type CoordsFilter = Box<dyn Fn(&Coords<'_>) -> bool + Send + Sync>;
type SeedsOverride = Box<dyn Fn(&Coords<'_>) -> u64 + Send + Sync>;

/// Declarative description of a sweep grid: the cartesian product of the
/// configured axes, times `seeds` repetitions per combination.
///
/// Build with the fluent `axis_*` / [`seeds`](SweepSpec::seeds) /
/// [`base_seed`](SweepSpec::base_seed) methods; prune invalid
/// combinations with [`filter`](SweepSpec::filter); shrink the seed axis
/// for selected combinations with [`seeds_for`](SweepSpec::seeds_for).
pub struct SweepSpec {
    axes: Vec<Axis>,
    seeds: u64,
    base_seed: u64,
    filter: Option<CoordsFilter>,
    seeds_for: Option<SeedsOverride>,
    telemetry: Option<Recording>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepSpec")
            .field("axes", &self.axes)
            .field("seeds", &self.seeds)
            .field("base_seed", &self.base_seed)
            .field("filtered", &self.filter.is_some())
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl SweepSpec {
    /// An empty grid: no axes, one seed, base seed 0.
    pub fn new() -> Self {
        Self {
            axes: Vec::new(),
            seeds: 1,
            base_seed: 0,
            filter: None,
            seeds_for: None,
            telemetry: None,
        }
    }

    /// Appends an axis with arbitrary values.
    pub fn axis(mut self, name: &'static str, values: Vec<AxisValue>) -> Self {
        assert!(
            self.axes.iter().all(|a| a.name != name),
            "duplicate sweep axis: {name}"
        );
        self.axes.push(Axis { name, values });
        self
    }

    /// Appends a `u32` axis (ring sizes, round counts, …).
    pub fn axis_u32(self, name: &'static str, values: &[u32]) -> Self {
        self.axis(name, values.iter().map(|&v| AxisValue::U32(v)).collect())
    }

    /// Appends an `f64` axis (activation budgets, probabilities, …).
    pub fn axis_f64(self, name: &'static str, values: &[f64]) -> Self {
        self.axis(name, values.iter().map(|&v| AxisValue::F64(v)).collect())
    }

    /// Appends a string axis (algorithms, topologies, delay families, …).
    pub fn axis_str<S: Into<String> + Clone>(self, name: &'static str, values: &[S]) -> Self {
        self.axis(
            name,
            values
                .iter()
                .map(|v| AxisValue::Str(v.clone().into()))
                .collect(),
        )
    }

    /// Sets the number of seeded repetitions per grid combination.
    pub fn seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the base seed mixed into every cell's derived seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Installs a combination filter: combinations for which `keep`
    /// returns `false` are dropped at expansion time (before any work is
    /// queued), letting one grid hold several experiment parts with
    /// different valid axis subsets.
    pub fn filter(mut self, keep: impl Fn(&Coords<'_>) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Box::new(keep));
        self
    }

    /// Installs a per-combination repetition override: the seed axis of a
    /// combination is `min(self.seeds, reps(coords))`. Returning 0 drops
    /// the combination entirely.
    pub fn seeds_for(mut self, reps: impl Fn(&Coords<'_>) -> u64 + Send + Sync + 'static) -> Self {
        self.seeds_for = Some(Box::new(reps));
        self
    }

    /// Installs a per-cell telemetry budget: every expanded [`Cell`]
    /// carries a clone of `recording`, and experiment runners that honour
    /// it (via [`Cell::recording`]) record each run under that bounded
    /// budget — typically `Recording::ring(0).histograms(true)` so cells
    /// aggregate deterministic histograms without retaining per-event
    /// records. Recording never perturbs runs, so every other byte of the
    /// sweep's metric block is unchanged by this call.
    pub fn telemetry(mut self, recording: Recording) -> Self {
        self.telemetry = Some(recording);
        self
    }

    /// The configured axes.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Materialises the grid into cells, in deterministic order: the first
    /// axis varies slowest, the seed axis fastest, filtered combinations
    /// skipped. Cell seeds depend only on (coordinates, base seed).
    pub fn expand(&self) -> Vec<Cell> {
        if self.axes.iter().any(|a| a.values.is_empty()) {
            return Vec::new();
        }
        let mut cells = Vec::new();
        let mut indices = vec![0usize; self.axes.len()];
        let seed_root = SeedStream::new(self.base_seed);
        loop {
            let coords = Coords {
                axes: &self.axes,
                indices: &indices,
            };
            let keep = self.filter.as_ref().is_none_or(|f| f(&coords));
            if keep {
                let reps = self
                    .seeds_for
                    .as_ref()
                    .map_or(self.seeds, |f| f(&coords).min(self.seeds));
                let coord_values: Vec<(&'static str, AxisValue)> = self
                    .axes
                    .iter()
                    .zip(&indices)
                    .map(|(axis, &i)| (axis.name, axis.values[i].clone()))
                    .collect();
                // The seed domain is the textual grid coordinate, so the
                // derived seed is a pure function of (coordinates, base
                // seed) — stable under reordering or re-slicing the grid.
                let domain: String = coord_values
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect::<Vec<_>>()
                    .join(";");
                for rep in 0..reps {
                    cells.push(Cell {
                        index: cells.len(),
                        axis_indices: indices.clone(),
                        coords: coord_values.clone(),
                        rep,
                        seed: seed_root.child_seed(&domain, rep),
                        record: self.telemetry.clone(),
                    });
                }
            }
            // Mixed-radix increment, last axis fastest; when the counter
            // wraps (or there are no axes at all) the grid is exhausted.
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    return cells;
                }
                pos -= 1;
                indices[pos] += 1;
                if indices[pos] < self.axes[pos].values.len() {
                    break;
                }
                indices[pos] = 0;
            }
        }
    }
}

/// One unit of sweep work: a grid combination plus a seed repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    index: usize,
    axis_indices: Vec<usize>,
    coords: Vec<(&'static str, AxisValue)>,
    rep: u64,
    seed: u64,
    record: Option<Recording>,
}

impl Cell {
    /// Position of this cell in grid expansion order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Index of this cell's value on `axis` (for table lookups).
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn idx(&self, axis: &str) -> usize {
        let pos = self.coord_pos(axis);
        self.axis_indices[pos]
    }

    /// This cell's value on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn value(&self, axis: &str) -> &AxisValue {
        let pos = self.coord_pos(axis);
        &self.coords[pos].1
    }

    /// Shorthand for a `u32` coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not `u32`-valued.
    pub fn u32(&self, axis: &str) -> u32 {
        self.value(axis).as_u32()
    }

    /// Shorthand for an `f64` coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not `f64`-valued.
    pub fn f64(&self, axis: &str) -> f64 {
        self.value(axis).as_f64()
    }

    /// The seed-axis position of this cell (0-based repetition number).
    pub fn rep(&self) -> u64 {
        self.rep
    }

    /// The derived seed: `hash(grid coordinates, base seed)`. Feed this to
    /// the simulation under measurement.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sweep's per-cell telemetry budget, when
    /// [`SweepSpec::telemetry`] installed one. Experiment runners pass it
    /// to their config's `record` knob and attach the resulting
    /// histograms via [`CellMetrics::with_hist`].
    pub fn recording(&self) -> Option<&Recording> {
        self.record.as_ref()
    }

    /// Human-readable grid coordinates, e.g. `n=8, delay=exp, rep=3`.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = self
            .coords
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        parts.push(format!("rep={}", self.rep));
        parts.join(", ")
    }

    fn coord_pos(&self, axis: &str) -> usize {
        self.coords
            .iter()
            .position(|(name, _)| *name == axis)
            .unwrap_or_else(|| panic!("unknown sweep axis: {axis}"))
    }
}

/// The measurements produced by one cell: named `f64` metrics (averaged
/// by [`Group`]s) and named `u64` counters (summed by [`Group`]s).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellMetrics {
    metrics: BTreeMap<&'static str, f64>,
    counters: BTreeMap<&'static str, u64>,
    /// Rendered `abe/hist-v1` JSON document for this cell, when the sweep
    /// recorded telemetry. `None` keeps the metric block byte-identical
    /// to telemetry-free builds.
    hist: Option<String>,
    /// The outcome class the run's own outcome reported, for the outcome
    /// oracles. Never rendered.
    class: Option<OutcomeClass>,
}

impl CellMetrics {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or overwrites) one named metric.
    pub fn metric(mut self, name: &'static str, value: f64) -> Self {
        self.metrics.insert(name, value);
        self
    }

    /// Adds (or overwrites) one named counter.
    pub fn counter(mut self, name: &'static str, value: u64) -> Self {
        self.counters.insert(name, value);
        self
    }

    /// Records the standard per-run telemetry of a [`NetworkReport`]:
    /// kernel events, message totals, ticks, and event-queue activity
    /// (`queue_live` is the events still pending when the run returned —
    /// nonzero when a run stops on a budget rather than quiescing).
    pub fn with_report(self, report: &NetworkReport) -> Self {
        self.counter("events", report.events_processed)
            .counter("msgs_sent", report.messages_sent)
            .counter("msgs_delivered", report.messages_delivered)
            .counter("ticks", report.ticks)
            .counter("queue_scheduled", report.queue_stats.scheduled)
            .counter("queue_cancelled", report.queue_stats.cancelled)
            .counter("queue_popped", report.queue_stats.popped)
            .counter("queue_live", report.queue_stats.live())
    }

    /// Records the fault-injection telemetry of a [`NetworkReport`]
    /// (crash/recovery events, per-cause message losses, storm-stretched
    /// deliveries). Kept separate from [`with_report`](Self::with_report)
    /// so fault-free experiments emit byte-identical JSON to builds that
    /// predate the fault layer.
    pub fn with_faults(self, report: &NetworkReport) -> Self {
        let f = &report.faults;
        self.counter("fault_crashes", f.crashes)
            .counter("fault_recoveries", f.recoveries)
            .counter("fault_dropped_crash", f.dropped_crash)
            .counter("fault_dropped_partition", f.dropped_partition)
            .counter("fault_dropped_random", f.dropped_random)
            .counter("fault_storm_deliveries", f.storm_deliveries)
    }

    /// Sets the cell's outcome class (read back by
    /// [`get_class`](Self::get_class), never rendered).
    pub fn class(mut self, class: OutcomeClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Records the scheduling-adversary auditor telemetry of a
    /// [`NetworkReport`]: intercepted sends, clamped proposals, the max
    /// per-edge empirical delay mean, and bound violations (always 0 by
    /// the auditor's invariant — surfaced so the JSON *proves* it per
    /// cell). Kept separate from [`with_report`](Self::with_report) so
    /// adversary-free experiments emit byte-identical JSON to builds that
    /// predate the adversary layer.
    pub fn with_adversary(self, report: &NetworkReport) -> Self {
        let a = &report.adversary;
        self.metric("adv_max_edge_mean", a.max_edge_mean)
            .counter("adv_intercepted", a.intercepted)
            .counter("adv_clamped", a.clamped)
            .counter("adv_violations", a.violations)
    }

    /// Records the standard metrics of one election run (messages, virtual
    /// time, ticks, leader count), the report telemetry and the run's
    /// class.
    ///
    /// # Panics
    ///
    /// Panics if the run did not terminate within its event budget — the
    /// sweep then fails with this cell's grid coordinates in the error.
    pub fn with_election(self, outcome: &ElectionOutcome) -> Self {
        assert!(
            outcome.terminated,
            "election run did not terminate within its event budget"
        );
        self.with_election_unchecked(outcome)
    }

    /// [`with_election`](Self::with_election) without its termination
    /// assert: a stalled run records `leaders = 0` and class `stalled`
    /// for the outcome oracles to judge.
    pub fn with_election_unchecked(self, outcome: &ElectionOutcome) -> Self {
        self.class(outcome.class())
            .metric("messages", outcome.messages as f64)
            .metric("time", outcome.time)
            .metric("ticks", outcome.ticks as f64)
            .metric("leaders", outcome.leaders as f64)
            .with_report(&outcome.report)
    }

    /// Records a consensus run's class and its four indicator metrics
    /// (`decided`/`stalled`/`agreement_violation`/`validity_violation`,
    /// exactly one set to 1) so group means read as class rates.
    fn with_consensus_class(self, class: OutcomeClass) -> Self {
        let ind = |c: OutcomeClass| if class == c { 1.0 } else { 0.0 };
        self.class(class)
            .metric("decided", ind(OutcomeClass::Decided))
            .metric("stalled", ind(OutcomeClass::Stalled))
            .metric("agreement_violation", ind(OutcomeClass::AgreementViolation))
            .metric("validity_violation", ind(OutcomeClass::ValidityViolation))
    }

    /// Records the standard metrics of one Ben-Or consensus run: the
    /// outcome-class indicators, the decided-node count, rounds to decide
    /// (max round any node reached), message total, virtual time, plus
    /// the report telemetry. Stalls are *data* here (class rates), not
    /// panics — unlike [`with_election`](Self::with_election), which
    /// asserts termination.
    pub fn with_consensus(self, outcome: &ConsensusOutcome) -> Self {
        self.with_consensus_class(outcome.class())
            .metric("decided_nodes", f64::from(outcome.decided_count()))
            .metric("rounds", outcome.max_round() as f64)
            .metric("messages", outcome.report.messages_sent as f64)
            .metric("time", outcome.time)
            .with_report(&outcome.report)
    }

    /// Records the standard metrics of one reliable-broadcast run: the
    /// outcome-class indicators, the delivered-node count, delivery
    /// latency (last local delivery time — present only when at least one
    /// node delivered), message total, virtual time, plus the report
    /// telemetry.
    pub fn with_brb(self, outcome: &BrbOutcome) -> Self {
        let m = self
            .with_consensus_class(outcome.class())
            .metric("delivered_nodes", f64::from(outcome.delivered_count()))
            .metric("messages", outcome.report.messages_sent as f64)
            .metric("time", outcome.time)
            .with_report(&outcome.report);
        match outcome.latency() {
            Some(latency) => m.metric("latency", latency),
            None => m,
        }
    }

    /// Records the standard metrics of one anti-entropy state-sync run:
    /// the convergence indicator and residual divergence, rounds to
    /// convergence (max gossip rounds any node initiated), data-plane
    /// wire bytes from the engine's payload accounting, the digest/leaf
    /// message split and shipped-entry total, virtual time, plus the
    /// report telemetry. Non-convergence is *data* here (residuals and
    /// the `converged` rate), not a panic.
    pub fn with_sync(self, outcome: &SyncOutcome) -> Self {
        let r = outcome.sync_report();
        // `SyncOutcome::class` would redo the report's divergence pass.
        let class = if r.converged {
            OutcomeClass::Decided
        } else {
            OutcomeClass::Stalled
        };
        self.class(class)
            .metric("converged", if r.converged { 1.0 } else { 0.0 })
            .metric("residual_divergence", r.residual_divergence as f64)
            .metric("rounds", r.rounds as f64)
            .metric("wire_bytes", r.wire_bytes as f64)
            .metric("time", r.time)
            .counter("sync_digest_msgs", r.digest_msgs)
            .counter("sync_leaf_msgs", r.leaf_msgs)
            .counter("sync_entries_sent", r.entries_sent)
            .counter("payload_bytes", r.wire_bytes)
            .with_report(&outcome.report)
    }

    /// Attaches the cell's aggregate telemetry histograms: a pre-rendered
    /// `abe/hist-v1` JSON document (see `abe_telemetry::HistogramSink`).
    /// Rendered into the metric block under the cell's `"hist"` key —
    /// only when present, so telemetry-free sweeps stay byte-identical.
    pub fn with_hist(mut self, hist_json: String) -> Self {
        self.hist = Some(hist_json);
        self
    }

    /// The attached histogram document, if any.
    pub fn hist(&self) -> Option<&str> {
        self.hist.as_deref()
    }

    /// Reads one metric back.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Reads one counter back.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads the outcome class back.
    pub fn get_class(&self) -> Option<OutcomeClass> {
        self.class
    }
}

/// One executed cell: its coordinates plus the measurements it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// What it measured.
    pub metrics: CellMetrics,
}

/// Why a sweep failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A cell's run function panicked; the sweep reports the first
    /// panicking cell in grid order (deterministic under any scheduling).
    CellPanicked {
        /// Expansion index of the failing cell.
        index: usize,
        /// Human-readable grid coordinates of the failing cell.
        coordinates: String,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::CellPanicked {
                index,
                coordinates,
                message,
            } => write!(f, "sweep cell #{index} [{coordinates}] panicked: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The completed sweep: per-cell measurements in grid order plus engine
/// metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOutcome {
    /// The grid axes the sweep ran over.
    pub axes: Vec<Axis>,
    /// The base seed every cell seed was derived from.
    pub base_seed: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock duration of the execution phase.
    pub wall_clock: Duration,
    /// Per-cell results, in deterministic grid-expansion order.
    pub cells: Vec<CellResult>,
}

impl SweepOutcome {
    /// Aggregates the seed axis away: cells sharing all non-seed
    /// coordinates form one [`Group`], in grid order.
    pub fn groups(&self) -> Vec<Group<'_>> {
        let mut groups: Vec<Group<'_>> = Vec::new();
        for result in &self.cells {
            match groups.last_mut() {
                Some(last) if last.key == result.cell.axis_indices => last.cells.push(result),
                _ => groups.push(Group {
                    key: result.cell.axis_indices.clone(),
                    cells: vec![result],
                }),
            }
        }
        groups
    }

    /// Finds the group matching the given `(axis name, value index)`
    /// constraints, if any.
    pub fn group_at<'a>(&'a self, want: &[(&str, usize)]) -> Option<Group<'a>> {
        self.groups()
            .into_iter()
            .find(|g| want.iter().all(|&(axis, idx)| g.idx(axis) == idx))
    }

    /// The deterministic metric block: axes, per-cell results, and group
    /// summaries. Byte-identical for identical specs regardless of worker
    /// count — engine metadata (threads, wall clock) is deliberately
    /// excluded.
    pub fn metrics_json(&self) -> String {
        let axes: Vec<String> = self
            .axes
            .iter()
            .map(|axis| {
                let values: Vec<String> = axis.values.iter().map(AxisValue::to_json).collect();
                format!(
                    "{{\"name\":{},\"values\":[{}]}}",
                    json_str(axis.name),
                    values.join(",")
                )
            })
            .collect();
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|result| {
                let hist = result
                    .metrics
                    .hist
                    .as_ref()
                    .map(|h| format!(",\"hist\":{h}"))
                    .unwrap_or_default();
                format!(
                    "{{\"coords\":{},\"rep\":{},\"seed\":\"{}\",\"metrics\":{},\"counters\":{}{hist}}}",
                    coords_json(&result.cell.coords),
                    result.cell.rep,
                    result.cell.seed,
                    metrics_only_json(&result.metrics),
                    counters_only_json(&result.metrics),
                )
            })
            .collect();
        let groups: Vec<String> = self.groups().iter().map(Group::to_json).collect();
        format!(
            "{{\"base_seed\":{},\"axes\":[{}],\"cells\":[{}],\"groups\":[{}]}}",
            self.base_seed,
            axes.join(","),
            cells.join(","),
            groups.join(","),
        )
    }
}

fn coords_json(coords: &[(&'static str, AxisValue)]) -> String {
    let fields: Vec<String> = coords
        .iter()
        .map(|(name, value)| format!("{}:{}", json_str(name), value.to_json()))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn metrics_only_json(metrics: &CellMetrics) -> String {
    let fields: Vec<String> = metrics
        .metrics
        .iter()
        .map(|(name, value)| format!("{}:{}", json_str(name), abe_stats::json_f64(*value)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn counters_only_json(metrics: &CellMetrics) -> String {
    let fields: Vec<String> = metrics
        .counters
        .iter()
        .map(|(name, value)| format!("{}:{value}", json_str(name)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Cells sharing every non-seed coordinate, aggregated over the seed axis.
#[derive(Debug, Clone)]
pub struct Group<'a> {
    key: Vec<usize>,
    cells: Vec<&'a CellResult>,
}

impl Group<'_> {
    /// Number of cells (seed repetitions) in the group.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the group is empty (never true for groups from
    /// [`SweepOutcome::groups`]).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Index of the group's value on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn idx(&self, axis: &str) -> usize {
        self.cells[0].cell.idx(axis)
    }

    /// The group's value on `axis`.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn value(&self, axis: &str) -> &AxisValue {
        self.cells[0].cell.value(axis)
    }

    /// Aggregates one metric over the group's cells.
    ///
    /// Cells missing the metric are skipped (useful when grid parts
    /// record different metric sets).
    pub fn online(&self, metric: &str) -> Online {
        self.cells
            .iter()
            .filter_map(|c| c.metrics.get(metric))
            .collect()
    }

    /// Mean of one metric over the group's cells.
    pub fn mean(&self, metric: &str) -> f64 {
        self.online(metric).mean()
    }

    /// Total of one counter over the group's cells.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.metrics.get_counter(name))
            .sum()
    }

    /// Human-readable group coordinates, e.g. `n=8, delay=exp`.
    pub fn label(&self) -> String {
        self.cells[0]
            .cell
            .coords
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn to_json(&self) -> String {
        let metric_names: Vec<&'static str> = self
            .cells
            .iter()
            .flat_map(|c| c.metrics.metrics.keys().copied())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let metrics: Vec<String> = metric_names
            .iter()
            .map(|name| {
                format!(
                    "{}:{}",
                    json_str(name),
                    Summary::from(&self.online(name)).to_json()
                )
            })
            .collect();
        let counter_names: Vec<&'static str> = self
            .cells
            .iter()
            .flat_map(|c| c.metrics.counters.keys().copied())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let counters: Vec<String> = counter_names
            .iter()
            .map(|name| format!("{}:{}", json_str(name), self.counter_total(name)))
            .collect();
        format!(
            "{{\"coords\":{},\"cells\":{},\"metrics\":{{{}}},\"counters\":{{{}}}}}",
            coords_json(&self.cells[0].cell.coords),
            self.cells.len(),
            metrics.join(","),
            counters.join(","),
        )
    }
}

/// Runs one cell, converting a panic into a printable error payload.
fn run_cell<F>(run: &F, cell: &Cell) -> Result<CellMetrics, String>
where
    F: Fn(&Cell) -> CellMetrics + Send + Sync,
{
    catch_unwind(AssertUnwindSafe(|| run(cell))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Executes every cell of `spec` on up to `threads` workers and collects
/// the results in grid order.
///
/// Workers are plain `std::thread`s pulling cell indices from a shared
/// [`crossbeam::channel`]; with `threads <= 1` the cells run inline on the
/// calling thread. Because each cell's seed is derived from its grid
/// coordinates alone, the outcome's metric block is **bit-identical for
/// any worker count** — only wall clock changes.
///
/// # Errors
///
/// If one or more cells panic, returns [`SweepError::CellPanicked`] for
/// the first failing cell in grid order (not in completion order, which
/// would be racy), with that cell's grid coordinates in the message.
/// After a failure the sweep aborts early: cells at higher grid indices
/// than the lowest observed failure are skipped — they cannot change the
/// reported error, and running them would only waste wall-clock and
/// flood stderr with panic backtraces. Cells at lower indices still run,
/// so an even earlier failure is always found and the reported cell is
/// deterministic for any worker count.
pub fn run_sweep<F>(spec: &SweepSpec, threads: usize, run: F) -> Result<SweepOutcome, SweepError>
where
    F: Fn(&Cell) -> CellMetrics + Send + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cells = spec.expand();
    let workers = threads.max(1).min(cells.len().max(1));
    let started = Instant::now();
    let mut results: Vec<Option<Result<CellMetrics, String>>> = vec![None; cells.len()];
    // Lowest failing cell index observed so far; cells above it are moot.
    let failed_at = AtomicUsize::new(usize::MAX);

    if workers <= 1 {
        for (i, cell) in cells.iter().enumerate() {
            let outcome = run_cell(&run, cell);
            let aborted = outcome.is_err();
            results[i] = Some(outcome);
            if aborted {
                // Inline execution is already in grid order: nothing after
                // the first failure can beat it.
                break;
            }
        }
    } else {
        let (work_tx, work_rx) = unbounded::<usize>();
        let (result_tx, result_rx) = unbounded::<(usize, Result<CellMetrics, String>)>();
        for i in 0..cells.len() {
            work_tx.send(i).expect("work receiver alive");
        }
        // All work is enqueued up front; dropping the sender lets workers
        // observe a disconnect once the queue drains.
        drop(work_tx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let work_rx = work_rx.clone();
                let result_tx = result_tx.clone();
                let cells = &cells;
                let run = &run;
                let failed_at = &failed_at;
                scope.spawn(move || loop {
                    match work_rx.recv_timeout(Duration::MAX) {
                        Ok(i) => {
                            if i > failed_at.load(Ordering::Relaxed) {
                                continue; // moot: an earlier cell already failed
                            }
                            let outcome = run_cell(run, &cells[i]);
                            if outcome.is_err() {
                                failed_at.fetch_min(i, Ordering::Relaxed);
                            }
                            if result_tx.send((i, outcome)).is_err() {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) | Err(RecvTimeoutError::Timeout) => {
                            return
                        }
                    }
                });
            }
            drop(result_tx);
            drop(work_rx);
            // Collect until every worker has exited and dropped its sender.
            while let Ok((i, outcome)) = result_rx.recv_timeout(Duration::MAX) {
                results[i] = Some(outcome);
            }
        });
    }

    let wall_clock = started.elapsed();
    let mut out = Vec::with_capacity(cells.len());
    for (cell, slot) in cells.into_iter().zip(results) {
        // A `None` slot means the cell was skipped after an earlier
        // failure; the error below is returned before any is reached.
        match slot {
            Some(Ok(metrics)) => out.push(CellResult { cell, metrics }),
            Some(Err(message)) => {
                return Err(SweepError::CellPanicked {
                    index: cell.index,
                    coordinates: cell.label(),
                    message,
                })
            }
            None => unreachable!("cell skipped without a preceding failure"),
        }
    }
    Ok(SweepOutcome {
        axes: spec.axes.clone(),
        base_seed: spec.base_seed,
        threads: workers,
        wall_clock,
        cells: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> SweepSpec {
        SweepSpec::new()
            .axis_u32("n", &[8, 16, 32])
            .axis_str("alg", &["a", "b"])
            .seeds(4)
            .base_seed(7)
    }

    fn toy_run(cell: &Cell) -> CellMetrics {
        // A deterministic function of coordinates and derived seed.
        let n = f64::from(cell.u32("n"));
        let alg_bonus = cell.idx("alg") as f64 * 100.0;
        CellMetrics::new()
            .metric("value", n * 2.0 + alg_bonus + (cell.seed() % 7) as f64)
            .counter("events", cell.seed() % 13)
    }

    #[test]
    fn expansion_is_cartesian_with_seed_innermost() {
        let cells = toy_spec().expand();
        assert_eq!(cells.len(), 3 * 2 * 4);
        // First axis slowest, seed fastest.
        assert_eq!(cells[0].u32("n"), 8);
        assert_eq!(cells[0].idx("alg"), 0);
        assert_eq!(cells[0].rep(), 0);
        assert_eq!(cells[3].rep(), 3);
        assert_eq!(cells[4].idx("alg"), 1);
        assert_eq!(cells[8].u32("n"), 16);
        // Indices are dense and sequential.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index(), i);
        }
    }

    #[test]
    fn empty_spec_yields_one_cell_per_seed() {
        let cells = SweepSpec::new().seeds(3).expand();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].rep(), 2);
    }

    #[test]
    fn seeds_depend_on_coordinates_not_position() {
        let full = toy_spec().expand();
        // The same coordinates in a differently-shaped grid (one n
        // sliced away) derive the same seed.
        let sliced = SweepSpec::new()
            .axis_u32("n", &[16, 32])
            .axis_str("alg", &["a", "b"])
            .seeds(4)
            .base_seed(7)
            .expand();
        let full_16a: Vec<u64> = full
            .iter()
            .filter(|c| c.u32("n") == 16 && c.idx("alg") == 0)
            .map(Cell::seed)
            .collect();
        let sliced_16a: Vec<u64> = sliced
            .iter()
            .filter(|c| c.u32("n") == 16 && c.idx("alg") == 0)
            .map(Cell::seed)
            .collect();
        assert_eq!(full_16a, sliced_16a);
        // Different reps and coordinates give different seeds.
        let mut seeds: Vec<u64> = full.iter().map(Cell::seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), full.len(), "cell seeds must be distinct");
    }

    #[test]
    fn base_seed_changes_every_cell_seed() {
        let a = toy_spec().expand();
        let b = toy_spec().base_seed(8).expand();
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed() != y.seed()));
    }

    #[test]
    fn filter_prunes_combinations() {
        let spec = toy_spec().filter(|c| !(c.value("alg").to_string() == "b" && c.idx("n") > 0));
        let cells = spec.expand();
        // alg=b survives only at n=8: (3 + 1) combos × 4 seeds.
        assert_eq!(cells.len(), 16);
        assert!(cells
            .iter()
            .filter(|c| c.idx("alg") == 1)
            .all(|c| c.u32("n") == 8));
        // Seeds of surviving cells are unchanged by the filter.
        let full = toy_spec().expand();
        for cell in &cells {
            let twin = full
                .iter()
                .find(|c| c.axis_indices == cell.axis_indices && c.rep == cell.rep)
                .unwrap();
            assert_eq!(twin.seed(), cell.seed());
        }
    }

    #[test]
    fn seeds_for_caps_repetitions_per_combo() {
        let spec = toy_spec().seeds_for(|c| if c.idx("alg") == 1 { 2 } else { u64::MAX });
        let cells = spec.expand();
        assert_eq!(cells.len(), 3 * 4 + 3 * 2);
        assert!(cells
            .iter()
            .filter(|c| c.idx("alg") == 1)
            .all(|c| c.rep < 2));
    }

    #[test]
    fn sweep_runs_inline_and_parallel_identically() {
        let single = run_sweep(&toy_spec(), 1, toy_run).unwrap();
        let parallel = run_sweep(&toy_spec(), 8, toy_run).unwrap();
        assert_eq!(single.cells, parallel.cells);
        assert_eq!(single.metrics_json(), parallel.metrics_json());
        assert_eq!(single.threads, 1);
        assert!(parallel.threads > 1);
    }

    #[test]
    fn worker_count_is_bounded_by_cell_count() {
        let spec = SweepSpec::new().axis_u32("n", &[1]).seeds(2);
        let outcome = run_sweep(&spec, 64, |cell| {
            CellMetrics::new().metric("n", f64::from(cell.u32("n")))
        })
        .unwrap();
        assert_eq!(outcome.threads, 2);
    }

    #[test]
    fn empty_grid_completes() {
        let spec = SweepSpec::new().axis_u32("n", &[]).seeds(4);
        let outcome = run_sweep(&spec, 4, |_| CellMetrics::new()).unwrap();
        assert!(outcome.cells.is_empty());
        assert!(outcome.groups().is_empty());
        assert!(outcome.metrics_json().contains("\"cells\":[]"));
    }

    #[test]
    fn panicking_cell_fails_with_coordinates() {
        let spec = toy_spec();
        let err = run_sweep(&spec, 4, |cell| {
            assert!(
                !(cell.u32("n") == 16 && cell.rep() == 1),
                "deliberate failure"
            );
            toy_run(cell)
        })
        .unwrap_err();
        let SweepError::CellPanicked {
            coordinates,
            message,
            ..
        } = &err;
        assert!(coordinates.contains("n=16"), "got: {coordinates}");
        assert!(coordinates.contains("rep=1"), "got: {coordinates}");
        assert!(message.contains("deliberate failure"), "got: {message}");
        let rendered = err.to_string();
        assert!(rendered.contains("n=16") && rendered.contains("panicked"));
    }

    #[test]
    fn failure_aborts_remaining_cells() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Inline execution stops right after the first failure...
        let executed = AtomicUsize::new(0);
        let _ = run_sweep(&toy_spec(), 1, |cell| {
            executed.fetch_add(1, Ordering::Relaxed);
            assert!(cell.index() != 5, "boom");
            toy_run(cell)
        })
        .unwrap_err();
        assert_eq!(executed.load(Ordering::Relaxed), 6);

        // ...and parallel workers skip every cell queued after the lowest
        // failing index once it is known (cells 0..=5 must still run; how
        // many of 6..23 slip through before the watermark lands is racy,
        // but all 24 would run without the abort).
        let executed = AtomicUsize::new(0);
        let err = run_sweep(&toy_spec(), 2, |cell| {
            executed.fetch_add(1, Ordering::Relaxed);
            assert!(cell.index() != 5, "boom");
            toy_run(cell)
        })
        .unwrap_err();
        let SweepError::CellPanicked { index, .. } = err;
        assert_eq!(index, 5);
        assert!(executed.load(Ordering::Relaxed) >= 6);
    }

    #[test]
    fn first_failure_in_grid_order_wins() {
        // Two failing cells; the reported one must be the earlier index
        // regardless of which worker finishes first.
        for threads in [1, 8] {
            let err = run_sweep(&toy_spec(), threads, |cell| {
                assert!(cell.index() < 10, "boom at {}", cell.index());
                toy_run(cell)
            })
            .unwrap_err();
            let SweepError::CellPanicked { index, .. } = err;
            assert_eq!(index, 10);
        }
    }

    #[test]
    fn groups_aggregate_the_seed_axis() {
        let outcome = run_sweep(&toy_spec(), 2, toy_run).unwrap();
        let groups = outcome.groups();
        assert_eq!(groups.len(), 6);
        for group in &groups {
            assert_eq!(group.len(), 4);
            // Group mean equals the mean over its own cells.
            let manual: Online = group
                .cells
                .iter()
                .map(|c| c.metrics.get("value").unwrap())
                .collect();
            assert_eq!(group.mean("value"), manual.mean());
            let manual_events: u64 = group
                .cells
                .iter()
                .map(|c| c.metrics.get_counter("events").unwrap())
                .sum();
            assert_eq!(group.counter_total("events"), manual_events);
        }
        // Group order follows grid order.
        assert_eq!(groups[0].value("n").as_u32(), 8);
        assert_eq!(groups[1].idx("alg"), 1);
        assert_eq!(groups[2].value("n").as_u32(), 16);
    }

    #[test]
    fn group_lookup_by_coordinates() {
        let outcome = run_sweep(&toy_spec(), 2, toy_run).unwrap();
        let g = outcome.group_at(&[("n", 2), ("alg", 1)]).unwrap();
        assert_eq!(g.value("n").as_u32(), 32);
        assert_eq!(g.value("alg").to_string(), "b");
        assert!(outcome.group_at(&[("n", 99)]).is_none());
    }

    #[test]
    fn metrics_json_shape() {
        let outcome = run_sweep(&toy_spec().seeds(1), 1, toy_run).unwrap();
        let json = outcome.metrics_json();
        assert!(json.starts_with("{\"base_seed\":7,\"axes\":["));
        assert!(json.contains("{\"name\":\"n\",\"values\":[8,16,32]}"));
        assert!(json.contains("{\"name\":\"alg\",\"values\":[\"a\",\"b\"]}"));
        assert!(json.contains("\"coords\":{\"n\":8,\"alg\":\"a\"}"));
        assert!(json.contains("\"counters\":{\"events\":"));
        assert!(json.contains("\"groups\":["));
        assert!(json.contains("\"mean\":"));
    }

    #[test]
    fn cell_metrics_accessors() {
        let m = CellMetrics::new().metric("x", 1.5).counter("c", 3);
        assert_eq!(m.get("x"), Some(1.5));
        assert_eq!(m.get("missing"), None);
        assert_eq!(m.get_counter("c"), Some(3));
        assert!(metrics_only_json(&m).contains("\"x\":1.5"));
        assert!(counters_only_json(&m).contains("\"c\":3"));
    }

    #[test]
    fn axis_value_accessors_and_display() {
        assert_eq!(AxisValue::U32(8).to_string(), "8");
        assert_eq!(AxisValue::F64(0.5).to_string(), "0.5");
        assert_eq!(AxisValue::Str("ring".into()).to_string(), "ring");
        assert_eq!(AxisValue::U32(8).as_u32(), 8);
        assert_eq!(AxisValue::F64(0.5).as_f64(), 0.5);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep axis")]
    fn duplicate_axis_names_are_rejected() {
        let _ = SweepSpec::new().axis_u32("n", &[1]).axis_u32("n", &[2]);
    }

    #[test]
    #[should_panic(expected = "unknown sweep axis")]
    fn unknown_axis_lookup_panics() {
        let cells = SweepSpec::new().axis_u32("n", &[1]).expand();
        let _ = cells[0].u32("nope");
    }

    #[test]
    fn telemetry_budget_reaches_every_cell() {
        let budget = Recording::ring(0).histograms(true);
        let cells = toy_spec().telemetry(budget.clone()).expand();
        assert!(cells.iter().all(|c| c.recording() == Some(&budget)));
        // Without a budget, cells carry none.
        assert!(toy_spec().expand().iter().all(|c| c.recording().is_none()));
    }

    #[test]
    fn hist_renders_only_when_attached() {
        let spec = toy_spec().seeds(1);
        let plain = run_sweep(&spec, 1, toy_run).unwrap().metrics_json();
        assert!(!plain.contains("\"hist\""));

        let with_hist = run_sweep(&spec, 1, |cell| {
            toy_run(cell).with_hist(format!("{{\"cell\":{}}}", cell.index()))
        })
        .unwrap()
        .metrics_json();
        assert!(with_hist.contains(",\"hist\":{\"cell\":0}"));
        // Everything before the hist keys is byte-identical: stripping the
        // attachments recovers the telemetry-free document exactly.
        let mut stripped = with_hist.clone();
        for i in 0..spec.expand().len() {
            stripped = stripped.replace(&format!(",\"hist\":{{\"cell\":{i}}}"), "");
        }
        assert_eq!(stripped, plain);
    }
}
