//! Lowering a [`Scenario`] onto the `abe-sweep` engine.
//!
//! [`compile`] performs every semantic check — axis/bind consistency,
//! parameter ranges, workload/topology compatibility, an `expect` class
//! the workload can end in — and returns a [`CompiledScenario`] whose
//! [`run`](CompiledScenario::run) drives [`abe_sweep::run_sweep`]
//! unchanged, with per-cell seeds from grid coordinates.
//! [`run_cell`](CompiledScenario::run_cell) is one `match` on the
//! [`Workload`], each arm recording one experiment family's metric set
//! plus the run's own outcome class (the slot the campaign oracles
//! read). A stalled run is recorded, never asserted away
//! (`CellMetrics::with_election` would panic on it): the verdict belongs
//! to the outcome oracles, so a regressing scenario produces a readable
//! report naming its cells instead of a worker panic.

use std::sync::Arc;

use abe_adversary::{Burst, Reorder, Swap, TargetHeat};
use abe_consensus::{default_faulty, run_benor, run_brb, ConsensusConfig, InputAssignment};
use abe_core::delay::{Deterministic, Exponential, Pareto, SharedDelay, Uniform, Weibull};
use abe_core::fault::FaultPlan;
use abe_core::{AdversaryPlan, NetworkReport, OutcomeClass, Recording, RunConfig};
use abe_election::{
    run_abe, run_abe_calibrated, run_chang_roberts, run_itai_rodeh, run_peterson, ElectionOutcome,
    RingConfig, RingKind,
};
use abe_sim::SeedStream;
use abe_statesync::{run_antientropy, SyncConfig};
use abe_sweep::{run_sweep, Cell, CellMetrics, SweepError, SweepOutcome, SweepSpec};

use crate::model::{
    is_scenario_name, AxisSpec, AxisValues, Bind, DelaySpec, ElectionProtocol, Expectation,
    Scenario, ScenarioError, TopologySpec, Workload,
};

/// The adversary strategy vocabulary, baseline first (e17 sweeps it).
const STRATEGIES: [&str; 5] = ["none", "swap", "burst", "reorder", "adaptive"];

/// The delay-family vocabulary of the `delay` axis (e21 sweeps it): every
/// family is calibrated to the mean of the `delay @delay mean=M`
/// directive.
pub const DELAY_FAMILIES: [&str; 3] = ["exp", "uniform", "det"];

/// The payload node 0 floods in `protocol brb` scenarios (mirrors e20).
const BRB_PAYLOAD: u32 = 0xB10C;

/// The closed axis vocabulary.
const AXES: [&str; 7] = [
    "n",
    "topo",
    "churn",
    "budget",
    "strategy",
    "divergence",
    "delay",
];

/// Axis names are a closed vocabulary so the engine's `&'static str`
/// axis labels can be recovered from parsed strings.
fn static_axis_name(name: &str) -> Option<&'static str> {
    AXES.into_iter().find(|&a| a == name)
}

/// Expected value type of each axis in the closed vocabulary.
fn axis_type_ok(name: &str, values: &AxisValues) -> bool {
    match name {
        "n" | "churn" => matches!(values, AxisValues::U32(_)),
        "budget" | "divergence" => matches!(values, AxisValues::F64(_)),
        "topo" | "strategy" | "delay" => matches!(values, AxisValues::Str(_)),
        _ => false,
    }
}

fn check_finite_positive(value: f64, field: &str) -> Result<(), ScenarioError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::field(
            field,
            format!("must be finite and positive, got {value}"),
        ))
    }
}

fn check_finite_non_negative(value: f64, field: &str) -> Result<(), ScenarioError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::field(
            field,
            format!("must be finite and non-negative, got {value}"),
        ))
    }
}

/// The lowered delay model: fixed, or one calibrated model per `delay`
/// axis family.
enum DelayLowered {
    Fixed(SharedDelay),
    PerFamily(Vec<SharedDelay>),
}

/// A validated scenario, ready to run.
///
/// Holds the scenario plus the resolved pieces the per-cell runner
/// needs (the built delay model, the ring kind per `topo` axis value,
/// the strategy name per `strategy` axis value, the filter as index
/// pairs). Construction is [`compile`]'s job.
pub struct CompiledScenario {
    scenario: Scenario,
    delay: DelayLowered,
    /// Ring kind per `topo` axis value; empty when the topology is fixed.
    topo_kinds: Vec<RingKind>,
    /// Ring kind when the topology is fixed.
    fixed_kind: RingKind,
    /// Strategy name per `strategy` axis value; empty when fixed.
    strategy_values: Vec<String>,
    /// Lowered filter: `(axis, value_idx, only_axis, only_value_idx)`.
    filter: Option<(&'static str, usize, &'static str, usize)>,
    /// Parallel-kernel shards per cell run (1 = sequential). Documents
    /// are shard-invariant; see `abe_core::shard`.
    shards: u32,
}

impl std::fmt::Debug for CompiledScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledScenario")
            .field("scenario", &self.scenario)
            .finish_non_exhaustive()
    }
}

/// Validates a [`Scenario`] and lowers it into a runnable form.
///
/// # Errors
///
/// Every rejection is a [`ScenarioError::Field`] or
/// [`ScenarioError::Missing`] naming the offending field — scenarios
/// from the fuzzer assert on exactly this ("compiles, or explains
/// itself; never panics").
pub fn compile(scenario: &Scenario) -> Result<CompiledScenario, ScenarioError> {
    if !is_scenario_name(&scenario.name) {
        return Err(ScenarioError::field(
            "scenario",
            "name must be non-empty alphanumeric/-/_/.",
        ));
    }

    // Axes: known names, matching value types, non-empty, no duplicates.
    for (i, axis) in scenario.axes.iter().enumerate() {
        let why = if static_axis_name(&axis.name).is_none() {
            "unknown axis (known: n, topo, churn, budget, strategy, divergence, delay)"
        } else if !axis_type_ok(&axis.name, &axis.values) {
            "axis values have the wrong type"
        } else if axis.values.is_empty() {
            "must have at least one value"
        } else if scenario.axes[..i].iter().any(|a| a.name == axis.name) {
            "duplicate axis"
        } else {
            continue;
        };
        return Err(ScenarioError::field(&format!("axis.{}", axis.name), why));
    }
    let axis = |name: &str| scenario.axes.iter().find(|a| a.name == name);
    // A numeric axis's values; none when the axis is absent.
    let u32s = |name: &str| match axis(name).map(|a| &a.values) {
        Some(AxisValues::U32(v)) => v.as_slice(),
        _ => &[],
    };
    let f64s = |name: &str| match axis(name).map(|a| &a.values) {
        Some(AxisValues::F64(v)) => v.as_slice(),
        _ => &[],
    };
    // A driven axis and its `@axis` bind come in pairs: an axis nothing
    // binds, or a bind with no axis, names the axis.
    let check_bound = |name: &str, bound: bool, bind: &str| match (axis(name), bound) {
        (Some(_), false) => Err(ScenarioError::field(
            &format!("axis.{name}"),
            format!("has no consumer; bind it with `{bind}`"),
        )),
        (None, true) => Err(ScenarioError::Missing {
            field: format!("axis.{name}"),
        }),
        _ => Ok(()),
    };

    // Ring size: exactly one of the fixed directive and the `n` axis.
    match (scenario.n, axis("n")) {
        (Some(_), Some(_)) => {
            return Err(ScenarioError::field(
                "n",
                "given both as a fixed directive and as an axis",
            ));
        }
        (None, None) => {
            return Err(ScenarioError::Missing {
                field: "n".to_string(),
            });
        }
        (Some(0), None) => {
            return Err(ScenarioError::field("n", "ring size must be at least 1"));
        }
        (None, Some(_)) if u32s("n").contains(&0) => {
            return Err(ScenarioError::field(
                "axis.n",
                "ring sizes must be at least 1",
            ));
        }
        _ => {}
    }

    // Workload parameters, and workload/topology compatibility: the
    // complete graph is the consensus and sync workloads' own.
    match scenario.workload.election() {
        Some(&ElectionProtocol::AbeCalibrated { a }) => check_finite_positive(a, "protocol.a")?,
        Some(&ElectionProtocol::Abe { a0 }) if !(a0.is_finite() && a0 > 0.0 && a0 < 1.0) => {
            return Err(ScenarioError::field(
                "protocol.a0",
                format!("must lie in the open interval (0, 1), got {a0}"),
            ));
        }
        Some(&ElectionProtocol::Abe { .. }) => {}
        Some(_) if scenario.topology != TopologySpec::UniRing => {
            return Err(ScenarioError::field(
                "topology",
                "baseline protocols run on unidirectional rings only",
            ));
        }
        _ => {}
    }
    if let Workload::Antientropy { key_space: 0 } = scenario.workload {
        return Err(ScenarioError::field(
            "protocol.key-space",
            "the key universe must have at least one key",
        ));
    }
    let consensus = matches!(scenario.workload, Workload::Benor | Workload::Brb);
    let sync = matches!(scenario.workload, Workload::Antientropy { .. });
    if (scenario.topology == TopologySpec::Complete) != (consensus || sync) {
        return Err(ScenarioError::field(
            "topology",
            if consensus {
                "consensus protocols run on the complete graph; write `topology complete`"
            } else if sync {
                "anti-entropy runs on the complete graph; write `topology complete`"
            } else {
                "the complete graph is reserved for consensus and sync protocols \
                 (benor, brb, antientropy)"
            },
        ));
    }
    let classes = scenario.workload.classes();
    if matches!(scenario.expect, Expectation::Class(c) if !classes.contains(&c)) {
        let names: Vec<&str> = classes.iter().map(|c| c.as_str()).collect();
        return Err(ScenarioError::field(
            "expect",
            format!(
                "`{}` is not an outcome of `record {}` cells (expect one of: {}, mixed)",
                scenario.expect.as_str(),
                scenario.workload.record(),
                names.join(", ")
            ),
        ));
    }

    // Divergence: required by (and exclusive to) anti-entropy; the
    // `divergence` axis and the `divergence @divergence` bind pair up
    // like every other driven axis, and every fraction lies in (0, 1].
    let check_divergence = |d: f64, field: &str| -> Result<(), ScenarioError> {
        if d.is_finite() && d > 0.0 && d <= 1.0 {
            Ok(())
        } else {
            Err(ScenarioError::field(
                field,
                format!("must lie in (0, 1], got {d}"),
            ))
        }
    };
    match &scenario.divergence {
        None if sync => {
            return Err(ScenarioError::Missing {
                field: "divergence".to_string(),
            });
        }
        Some(_) if !sync => {
            return Err(ScenarioError::field(
                "divergence",
                "applies to `protocol antientropy` only",
            ));
        }
        Some(Bind::Fixed(d)) => check_divergence(*d, "divergence")?,
        _ => {}
    }
    let divergence_bound = scenario.divergence == Some(Bind::Axis);
    check_bound("divergence", divergence_bound, "divergence @divergence")?;
    for &d in f64s("divergence") {
        check_divergence(d, "axis.divergence")?;
    }

    // Fault budget: consensus-only, and every network size on the grid
    // must clear the Byzantine quorum bound n > 3f (the bound both BRB
    // and the derived default respect; Ben-Or itself needs only n > 2f).
    if let Some(f) = scenario.faulty {
        if !consensus {
            return Err(ScenarioError::field(
                "faulty",
                "the fault budget applies to consensus protocols only",
            ));
        }
        let check_n = |n: u32| -> Result<(), ScenarioError> {
            if n > 3 * f {
                Ok(())
            } else {
                Err(ScenarioError::field(
                    "faulty",
                    format!("n = {n} does not satisfy n > 3f for f = {f}"),
                ))
            }
        };
        for &n in scenario.n.as_slice().iter().chain(u32s("n")) {
            check_n(n)?;
        }
    }

    // Delay model: build it once; parameters are checked here with
    // field-level errors, then by the constructor itself. A `delay`
    // axis pairs with `delay @delay mean=M` exactly like `topo` pairs
    // with `topology @topo`, and lowers to one calibrated model per
    // family value.
    let delay_bound = matches!(scenario.delay, DelaySpec::Axis { .. });
    check_bound("delay", delay_bound, "delay @delay mean=M")?;
    let delay = match (&scenario.delay, axis("delay")) {
        (
            DelaySpec::Axis { mean },
            Some(AxisSpec {
                values: AxisValues::Str(values),
                ..
            }),
        ) => {
            check_finite_positive(*mean, "delay.mean")?;
            DelayLowered::PerFamily(
                values
                    .iter()
                    .map(|f| family_delay(f, *mean))
                    .collect::<Result<_, _>>()?,
            )
        }
        (spec, _) => DelayLowered::Fixed(build_delay(spec)?),
    };

    // Topology axis <-> `topology @topo`.
    let topo_bound = scenario.topology == TopologySpec::Axis;
    check_bound("topo", topo_bound, "topology @topo")?;
    let topo_kinds: Vec<RingKind> = match axis("topo") {
        Some(AxisSpec {
            values: AxisValues::Str(values),
            ..
        }) => values
            .iter()
            .map(|v| match v.as_str() {
                "uni-ring" => Ok(RingKind::Unidirectional),
                "bidi-ring" => Ok(RingKind::Bidirectional),
                other => Err(ScenarioError::field(
                    "axis.topo",
                    format!("unknown topology `{other}`"),
                )),
            })
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };

    // Churn axis <-> `fault churn events=@churn`.
    let churn_bound = scenario
        .fault
        .as_ref()
        .is_some_and(|f| f.events == Bind::Axis);
    check_bound("churn", churn_bound, "fault churn events=@churn")?;
    if let Some(fault) = &scenario.fault {
        check_finite_positive(fault.horizon, "fault.horizon")?;
        check_finite_non_negative(fault.downtime, "fault.downtime")?;
        // Every churn window is primed as at least one kernel event, so
        // more windows than `max-events` cannot all fire; refuse them
        // before `FaultPlan::churn` allocates one per event.
        let (field, events) = match &fault.events {
            Bind::Fixed(events) => ("fault.events", std::slice::from_ref(events)),
            Bind::Axis => ("axis.churn", u32s("churn")),
        };
        if let Some(&e) = events.iter().find(|&&e| u64::from(e) > scenario.max_events) {
            return Err(ScenarioError::field(
                field,
                format!("{e} churn events exceed max-events {}", scenario.max_events),
            ));
        }
    }

    // Strategy/budget axes <-> adversary binds; strategy vocabulary.
    let adversary = scenario.adversary.as_ref();
    let strategy_bound = adversary.is_some_and(|adv| adv.strategy == Bind::Axis);
    let budget_bound = adversary.is_some_and(|adv| adv.budget == Bind::Axis);
    check_bound("strategy", strategy_bound, "adversary strategy=@strategy")?;
    let strategy_values: Vec<String> = match axis("strategy") {
        Some(AxisSpec {
            values: AxisValues::Str(values),
            ..
        }) => {
            for v in values {
                if !STRATEGIES.contains(&v.as_str()) {
                    return Err(ScenarioError::field(
                        "axis.strategy",
                        format!("unknown strategy `{v}` (known: {})", STRATEGIES.join(", ")),
                    ));
                }
            }
            values.clone()
        }
        _ => Vec::new(),
    };
    check_bound("budget", budget_bound, "adversary budget=@budget")?;
    if let Some(adv) = &scenario.adversary {
        if let Bind::Fixed(s) = &adv.strategy {
            if !STRATEGIES.contains(&s.as_str()) {
                return Err(ScenarioError::field(
                    "adversary.strategy",
                    format!("unknown strategy `{s}` (known: {})", STRATEGIES.join(", ")),
                ));
            }
        }
        if let Bind::Fixed(b) = adv.budget {
            check_finite_positive(b, "adversary.budget")?;
        }
        for &b in f64s("budget") {
            check_finite_positive(b, "axis.budget")?;
        }
        if !(adv.burst_p.is_finite() && adv.burst_p > 0.0 && adv.burst_p <= 1.0) {
            return Err(ScenarioError::field(
                "adversary.burst-p",
                format!("must lie in (0, 1], got {}", adv.burst_p),
            ));
        }
        if !(adv.pareto_shape.is_finite() && adv.pareto_shape > 1.0) {
            return Err(ScenarioError::field(
                "adversary.pareto-shape",
                format!("must be finite and > 1, got {}", adv.pareto_shape),
            ));
        }
    }

    if matches!(scenario.workload, Workload::Adversary(_)) && scenario.adversary.is_none() {
        return Err(ScenarioError::field(
            "record",
            "the adversary record mode requires an `adversary` stanza",
        ));
    }

    // Filter: both axes must exist and both values must be on them.
    let filter = match &scenario.filter {
        None => None,
        Some(f) => {
            let resolve =
                |axis_name: &str, value: &str| -> Result<(&'static str, usize), ScenarioError> {
                    let spec = axis(axis_name).ok_or_else(|| {
                        ScenarioError::field("filter", format!("no axis named `{axis_name}`"))
                    })?;
                    let idx = spec
                        .values
                        .texts()
                        .iter()
                        .position(|t| t == value)
                        .ok_or_else(|| {
                            ScenarioError::field(
                                "filter",
                                format!("axis `{axis_name}` has no value `{value}`"),
                            )
                        })?;
                    Ok((static_axis_name(axis_name).expect("axis validated"), idx))
                };
            let (axis_name, value_idx) = resolve(&f.axis, &f.value)?;
            let (only_axis, only_idx) = resolve(&f.only_axis, &f.only_value)?;
            Some((axis_name, value_idx, only_axis, only_idx))
        }
    };

    if scenario.seeds == 0 {
        return Err(ScenarioError::field("seeds", "must be at least 1"));
    }
    if scenario.max_events == 0 {
        return Err(ScenarioError::field("max-events", "must be at least 1"));
    }

    let fixed_kind = match scenario.topology {
        TopologySpec::BidiRing => RingKind::Bidirectional,
        _ => RingKind::Unidirectional,
    };
    Ok(CompiledScenario {
        scenario: scenario.clone(),
        delay,
        topo_kinds,
        fixed_kind,
        strategy_values,
        filter,
        shards: 1,
    })
}

/// One `delay` axis family, calibrated to the directive's mean (e21
/// sweeps all three at δ).
fn family_delay(family: &str, mean: f64) -> Result<SharedDelay, ScenarioError> {
    Ok(match family {
        "exp" => Arc::new(Exponential::from_mean(mean).expect("validated")),
        "uniform" => Arc::new(Uniform::new(0.5 * mean, 1.5 * mean).expect("validated")),
        "det" => Arc::new(Deterministic::new(mean).expect("validated")),
        other => {
            return Err(ScenarioError::field(
                "axis.delay",
                format!(
                    "unknown delay family `{other}` (known: {})",
                    DELAY_FAMILIES.join(", ")
                ),
            ));
        }
    })
}

fn build_delay(spec: &DelaySpec) -> Result<SharedDelay, ScenarioError> {
    Ok(match *spec {
        DelaySpec::Exponential { mean } => {
            check_finite_positive(mean, "delay.mean")?;
            Arc::new(Exponential::from_mean(mean).expect("validated"))
        }
        DelaySpec::Deterministic { value } => {
            check_finite_non_negative(value, "delay.value")?;
            Arc::new(Deterministic::new(value).expect("validated"))
        }
        DelaySpec::Uniform { lo, hi } => {
            check_finite_non_negative(lo, "delay.lo")?;
            check_finite_non_negative(hi, "delay.hi")?;
            if lo > hi {
                return Err(ScenarioError::field("delay.hi", "must be >= lo"));
            }
            Arc::new(Uniform::new(lo, hi).expect("validated"))
        }
        DelaySpec::Pareto { shape, mean } => {
            if !(shape.is_finite() && shape > 1.0) {
                return Err(ScenarioError::field(
                    "delay.shape",
                    format!("must be finite and > 1 for a finite mean, got {shape}"),
                ));
            }
            check_finite_positive(mean, "delay.mean")?;
            Arc::new(Pareto::from_mean(shape, mean).expect("validated"))
        }
        DelaySpec::Weibull { shape, mean } => {
            check_finite_positive(shape, "delay.shape")?;
            check_finite_positive(mean, "delay.mean")?;
            Arc::new(Weibull::from_mean(shape, mean).expect("validated"))
        }
        DelaySpec::Axis { .. } => unreachable!("axis-driven delay lowered by compile"),
    })
}

impl CompiledScenario {
    /// The validated scenario this compiles.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs every cell on the deterministic parallel kernel with
    /// `shards` shards (clamped to at least 1). The emitted document is
    /// byte-identical to the sequential run for any shard count — the
    /// campaign CI gate relies on exactly that.
    #[must_use]
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builds the lowered sweep specification (axes in declaration
    /// order, the scenario's seed count and base seed, the filter as an
    /// index predicate). Rebuilding is cheap; the spec owns a fresh
    /// filter closure each time because closures don't clone.
    pub fn spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::new();
        for axis in &self.scenario.axes {
            let name = static_axis_name(&axis.name).expect("axes validated by compile");
            spec = match &axis.values {
                AxisValues::U32(v) => spec.axis_u32(name, v),
                AxisValues::F64(v) => spec.axis_f64(name, v),
                AxisValues::Str(v) => spec.axis_str(name, v),
            };
        }
        spec = spec
            .seeds(self.scenario.seeds)
            .base_seed(self.scenario.base_seed);
        if let Some((axis, value_idx, only_axis, only_idx)) = self.filter {
            spec = spec.filter(move |c| c.idx(axis) != value_idx || c.idx(only_axis) == only_idx);
        }
        spec
    }

    /// Runs the scenario's sweep on `threads` workers.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepError`] when a cell panics (the error carries
    /// the cell's grid coordinates).
    pub fn run(&self, threads: usize) -> Result<SweepOutcome, SweepError> {
        run_sweep(&self.spec(), threads, |cell| self.run_cell(cell))
    }

    /// This cell's ring size.
    fn cell_n(&self, cell: &Cell) -> u32 {
        self.scenario.n.unwrap_or_else(|| cell.u32("n"))
    }

    /// This cell's delay model (the fixed model, or its `delay` axis
    /// family).
    fn cell_delay(&self, cell: &Cell) -> SharedDelay {
        match &self.delay {
            DelayLowered::Fixed(d) => Arc::clone(d),
            DelayLowered::PerFamily(models) => Arc::clone(&models[cell.idx("delay")]),
        }
    }

    /// This cell's ring kind.
    fn cell_kind(&self, cell: &Cell) -> RingKind {
        if self.scenario.topology == TopologySpec::Axis {
            self.topo_kinds[cell.idx("topo")]
        } else {
            self.fixed_kind
        }
    }

    /// This cell's resolved adversary strategy name, when an adversary
    /// stanza is present.
    fn cell_strategy(&self, cell: &Cell) -> Option<&str> {
        self.scenario
            .adversary
            .as_ref()
            .map(|adv| match &adv.strategy {
                Bind::Fixed(s) => s.as_str(),
                Bind::Axis => self.strategy_values[cell.idx("strategy")].as_str(),
            })
    }

    /// Builds the substrate half of the cell's configuration — delay,
    /// seed, event budget, shards, churn plan, adversary plan. A fault
    /// plan (churn seeded from the cell seed's `churn-plan` child) is
    /// only installed when the scenario has a `fault` stanza and an
    /// adversary plan only when a stanza resolves to a strategy — an
    /// absent stanza leaves the `RunConfig` defaults, which the sweep
    /// regression tests prove byte-identical to empty plans.
    fn cell_run(&self, cell: &Cell) -> RunConfig {
        let mut run = RunConfig::new()
            .delay(self.cell_delay(cell))
            .seed(cell.seed())
            .max_events(self.scenario.max_events)
            .shards(self.shards);
        if let Some(fault) = &self.scenario.fault {
            let events = match fault.events {
                Bind::Fixed(v) => v,
                Bind::Axis => cell.u32("churn"),
            };
            run = run.fault(FaultPlan::churn(
                self.cell_n(cell),
                events,
                fault.horizon,
                fault.downtime,
                SeedStream::new(cell.seed()).child_seed("churn-plan", 0),
            ));
        }
        if let Some(plan) = self.cell_adversary(cell) {
            run = run.adversary(plan);
        }
        run
    }

    /// One election cell's ring configuration, with telemetry recording
    /// `record` installed (`None` records nothing). The sweep runs every
    /// cell through here with `None`; the `trace` subcommand re-runs one
    /// cell with a recording, so both see the same configuration.
    pub fn election_config(&self, cell: &Cell, record: Option<Recording>) -> RingConfig {
        let mut run = self.cell_run(cell);
        run.record = record;
        RingConfig::new(self.cell_n(cell), run).kind(self.cell_kind(cell))
    }

    /// Runs the scenario's election protocol on `cfg`; `None` when the
    /// workload is not an election.
    pub fn run_election(&self, cfg: &RingConfig) -> Option<ElectionOutcome> {
        self.scenario.workload.election().map(|p| elect(p, cfg))
    }

    /// This cell's adversary plan, when a stanza is present.
    fn cell_adversary(&self, cell: &Cell) -> Option<AdversaryPlan> {
        let adv = self.scenario.adversary.as_ref()?;
        let strategy = self.cell_strategy(cell).expect("stanza present");
        let budget = match adv.budget {
            Bind::Fixed(b) => b,
            Bind::Axis => cell.f64("budget"),
        };
        Some(match strategy {
            "none" => AdversaryPlan::none(),
            "swap" => AdversaryPlan::new(
                budget,
                Swap::new(Arc::new(
                    Pareto::from_mean(adv.pareto_shape, budget).expect("validated"),
                )),
            )
            .expect("validated"),
            "burst" => AdversaryPlan::new(budget, Burst::new(adv.burst_p)).expect("validated"),
            "reorder" => AdversaryPlan::new(budget, Reorder::new()).expect("validated"),
            "adaptive" => AdversaryPlan::new(budget, TargetHeat::new()).expect("validated"),
            other => unreachable!("strategy `{other}` rejected by compile"),
        })
    }

    /// One consensus cell's configuration. `faulty` defaults to the
    /// largest legal budget `(n - 1) / 3` derived per cell.
    fn consensus_config(&self, cell: &Cell) -> ConsensusConfig {
        let n = self.cell_n(cell);
        let f = self.scenario.faulty.unwrap_or_else(|| default_faulty(n));
        ConsensusConfig::new(n, f, self.cell_run(cell))
    }

    /// Adds fault telemetry iff the scenario injects faults and
    /// adversary telemetry iff the cell's resolved strategy tampers (the
    /// consensus and sync metric sets).
    fn with_stanzas(
        &self,
        cell: &Cell,
        mut metrics: CellMetrics,
        report: &NetworkReport,
    ) -> CellMetrics {
        if self.scenario.fault.is_some() {
            metrics = metrics.with_faults(report);
        }
        if self.scenario.adversary.is_some() && self.cell_strategy(cell) != Some("none") {
            metrics = metrics.with_adversary(report);
        }
        metrics
    }

    /// Runs one cell and records its workload's metric set and outcome
    /// class.
    pub fn run_cell(&self, cell: &Cell) -> CellMetrics {
        match &self.scenario.workload {
            Workload::Election(p) => {
                let o = elect(p, &self.election_config(cell, None));
                CellMetrics::new()
                    .with_election_unchecked(&o)
                    .metric("knockouts", o.report.counter("knockouts") as f64)
            }
            Workload::Classified(p) => {
                let o = elect(p, &self.election_config(cell, None));
                let class = o.class();
                let mut metrics = CellMetrics::new()
                    .class(class)
                    .metric("completed", f64::from(class == OutcomeClass::Completed))
                    .metric("stalled", f64::from(class == OutcomeClass::Stalled))
                    .metric(
                        "wrong_leader",
                        f64::from(class == OutcomeClass::WrongLeader),
                    )
                    .metric("messages", o.messages as f64)
                    .metric("time", o.time)
                    .with_report(&o.report)
                    .with_faults(&o.report);
                if class == OutcomeClass::Completed {
                    // Survivor-only series, as in e14: stalled runs ride
                    // the event budget, so their totals measure the
                    // budget, not the algorithm.
                    metrics = metrics
                        .metric("messages_ok", o.messages as f64)
                        .metric("time_ok", o.time);
                }
                metrics
            }
            Workload::Adversary(p) => {
                let o = elect(p, &self.election_config(cell, None));
                let metrics = CellMetrics::new().with_election_unchecked(&o);
                if self.cell_strategy(cell) != Some("none") {
                    metrics.with_adversary(&o.report)
                } else {
                    // Baseline cells carry no auditor telemetry, as in
                    // e17: nothing was audited.
                    metrics
                }
            }
            Workload::Benor => {
                let o = run_benor(&self.consensus_config(cell), InputAssignment::Split);
                self.with_stanzas(cell, CellMetrics::new().with_consensus(&o), &o.report)
            }
            Workload::Brb => {
                let o = run_brb(&self.consensus_config(cell), BRB_PAYLOAD);
                self.with_stanzas(cell, CellMetrics::new().with_brb(&o), &o.report)
            }
            Workload::Antientropy { key_space } => {
                let divergence = match self.scenario.divergence {
                    Some(Bind::Fixed(d)) => d,
                    Some(Bind::Axis) => cell.f64("divergence"),
                    None => unreachable!("divergence required by compile"),
                };
                let cfg = SyncConfig::new(self.cell_n(cell), *key_space, self.cell_run(cell))
                    .divergence(divergence);
                let o = run_antientropy(&cfg);
                let metrics = CellMetrics::new()
                    .with_sync(&o)
                    .metric("invented", o.invented().len() as f64);
                self.with_stanzas(cell, metrics, &o.report)
            }
        }
    }
}

/// Runs one election protocol on `cfg`.
fn elect(protocol: &ElectionProtocol, cfg: &RingConfig) -> ElectionOutcome {
    match *protocol {
        ElectionProtocol::AbeCalibrated { a } => run_abe_calibrated(cfg, a),
        ElectionProtocol::Abe { a0 } => run_abe(cfg, a0),
        ElectionProtocol::ItaiRodeh => run_itai_rodeh(cfg),
        ElectionProtocol::ChangRoberts => run_chang_roberts(cfg),
        ElectionProtocol::Peterson => run_peterson(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn base_text() -> String {
        "scenario t\nprotocol abe-calibrated a=1\ndelay exp mean=1\ntopology uni-ring\n\
         n 4\nseeds 1\nrecord election\nexpect completed\n"
            .to_string()
    }

    #[test]
    fn minimal_scenario_compiles_and_runs() {
        let s = parse(&base_text()).unwrap();
        let outcome = compile(&s).unwrap().run(1).unwrap();
        assert_eq!(outcome.cells.len(), 1);
        let m = &outcome.cells[0].metrics;
        assert_eq!(m.get("leaders"), Some(1.0));
        assert!(m.get("knockouts").is_some());
    }

    #[test]
    fn n_must_be_given_exactly_once() {
        let mut s = parse(&base_text()).unwrap();
        s.n = None;
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("n"));
        let s = parse(&base_text().replace("n 4\n", "n 4\naxis n 2 4\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("n"));
    }

    #[test]
    fn unconsumed_axes_are_rejected_with_their_field() {
        let s = parse(&base_text().replace("n 4\n", "n 4\naxis churn 0 1\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("axis.churn"));
        let s = parse(&base_text().replace("n 4\n", "n 4\naxis strategy swap\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("axis.strategy"));
        let s = parse(&base_text().replace("n 4\n", "n 4\naxis topo uni-ring\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("axis.topo"));
    }

    /// `base_text` with `lines` added before its `record` directive.
    fn with_lines(lines: &str) -> Result<CompiledScenario, ScenarioError> {
        compile(&parse(&base_text().replace("record", &format!("{lines}\nrecord"))).unwrap())
    }

    #[test]
    fn missing_bound_axes_are_rejected() {
        let err = with_lines("fault churn events=@churn horizon=8 downtime=2").unwrap_err();
        assert_eq!(err.field_name(), Some("axis.churn"));
    }

    #[test]
    fn fixed_churn_beyond_the_event_budget_is_rejected() {
        let churn = "fault churn events=101 horizon=8 downtime=2";
        assert!(with_lines(&format!("max-events 101\n{churn}")).is_ok());
        let err = with_lines(&format!("max-events 100\n{churn}")).unwrap_err();
        assert_eq!(err.field_name(), Some("fault.events"));
        // The default budget refuses the plan that used to abort the process.
        let err = with_lines("fault churn events=1000000000 horizon=8 downtime=2").unwrap_err();
        assert_eq!(err.field_name(), Some("fault.events"));
    }

    #[test]
    fn churn_axis_beyond_the_event_budget_is_rejected() {
        let churn = "axis churn 0 101 2\nfault churn events=@churn horizon=8 downtime=2";
        assert!(with_lines(&format!("max-events 101\n{churn}")).is_ok());
        let err = with_lines(&format!("max-events 100\n{churn}")).unwrap_err();
        assert_eq!(err.field_name(), Some("axis.churn"));
    }

    #[test]
    fn invalid_parameters_name_their_field() {
        let s = parse(&base_text().replace("delay exp mean=1", "delay exp mean=0")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("delay.mean"));
        let s = parse(&base_text().replace("a=1", "a=-1")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("protocol.a"));
        let err = with_lines("adversary strategy=frotz budget=1").unwrap_err();
        assert_eq!(err.field_name(), Some("adversary.strategy"));
    }

    #[test]
    fn baselines_require_unidirectional_rings() {
        let s = parse(
            &base_text()
                .replace("protocol abe-calibrated a=1", "protocol peterson")
                .replace("topology uni-ring", "topology bidi-ring"),
        )
        .unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("topology"));
    }

    #[test]
    fn adversary_record_requires_stanza() {
        let s = parse(&base_text().replace("record election", "record adversary")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("record"));
    }

    #[test]
    fn filter_values_must_exist() {
        let s = parse(&base_text().replace(
            "record election\n",
            "filter n=9 only-at n=4\nrecord election\n",
        ));
        // `n` is fixed here, so there is no axis to filter on.
        let s2 = s.unwrap();
        assert_eq!(compile(&s2).unwrap_err().field_name(), Some("filter"));
    }

    fn benor_text() -> String {
        "scenario c\nprotocol benor\ndelay exp mean=1\ntopology complete\n\
         n 4\nseeds 2\nrecord consensus\nexpect decided\n"
            .to_string()
    }

    #[test]
    fn minimal_benor_scenario_compiles_and_decides() {
        let s = parse(&benor_text()).unwrap();
        let outcome = compile(&s).unwrap().run(1).unwrap();
        assert_eq!(outcome.cells.len(), 2);
        for cell in &outcome.cells {
            assert_eq!(cell.metrics.get("decided"), Some(1.0));
            assert_eq!(cell.metrics.get("agreement_violation"), Some(0.0));
            assert_eq!(cell.metrics.get("validity_violation"), Some(0.0));
            assert!(cell.metrics.get("rounds").unwrap() >= 1.0);
        }
    }

    #[test]
    fn brb_scenario_with_explicit_faulty_runs() {
        let s = parse(
            &benor_text()
                .replace("protocol benor", "protocol brb")
                .replace("n 4\n", "n 7\nfaulty 2\n"),
        )
        .unwrap();
        let outcome = compile(&s).unwrap().run(1).unwrap();
        for cell in &outcome.cells {
            assert_eq!(cell.metrics.get("decided"), Some(1.0));
            assert_eq!(cell.metrics.get("delivered_nodes"), Some(7.0));
            assert!(cell.metrics.get("latency").unwrap() > 0.0);
        }
    }

    #[test]
    fn consensus_family_is_all_or_nothing() {
        // Consensus protocol off the complete graph.
        let s = parse(&benor_text().replace("topology complete", "topology uni-ring")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("topology"));
        // Complete graph under an election protocol.
        let s = parse(&base_text().replace("topology uni-ring", "topology complete")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("topology"));
        // Consensus protocol without the consensus record mode: no such
        // workload, so parsing refuses it.
        let err = parse(&benor_text().replace("record consensus", "record election")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "field `record`: consensus protocols require `record consensus`"
        );
        // Consensus record mode under an election protocol.
        let err = parse(&base_text().replace("record election", "record consensus")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "field `record`: the consensus record mode requires a consensus protocol (benor, brb)"
        );
    }

    /// Compiles `text` under every `expect` line: exactly the `legal`
    /// ones (space-separated) compile, and every other names `expect`.
    fn assert_expectations(text: &str, legal: &str) {
        let line = text.lines().find(|l| l.starts_with("expect ")).unwrap();
        for class in OutcomeClass::ALL
            .map(OutcomeClass::as_str)
            .into_iter()
            .chain(["mixed"])
        {
            match compile(&parse(&text.replace(line, &format!("expect {class}"))).unwrap()) {
                Ok(_) => assert!(legal.split(' ').any(|l| l == class), "{class} compiled"),
                Err(e) => assert_eq!(e.field_name(), Some("expect"), "{class}: {e}"),
            }
        }
    }

    #[test]
    fn election_expectations_are_election_classes() {
        assert_expectations(&base_text(), "completed stalled wrong-leader mixed");
    }

    #[test]
    fn consensus_expectations_are_consensus_classes() {
        let legal = "decided stalled agreement-violation validity-violation mixed";
        assert_expectations(&benor_text(), legal);
    }

    #[test]
    fn sync_expectations_are_sync_classes() {
        assert_expectations(&sync_text(), "decided stalled mixed");
        let err =
            compile(&parse(&sync_text().replace("expect decided", "expect completed")).unwrap());
        assert_eq!(
            err.unwrap_err().to_string(),
            "field `expect`: `completed` is not an outcome of `record sync` cells \
             (expect one of: decided, stalled, mixed)"
        );
    }

    #[test]
    fn faulty_is_consensus_only_and_bounded_by_quorum() {
        let s = parse(&base_text().replace("n 4\n", "n 4\nfaulty 1\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("faulty"));
        // n = 6 <= 3f for f = 2.
        let s = parse(&benor_text().replace("n 4\n", "n 6\nfaulty 2\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("faulty"));
        // Every n-axis value must clear the bound, not just the first.
        let s = parse(&benor_text().replace("n 4\n", "axis n 7 6\nfaulty 2\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("faulty"));
        // n = 7 > 3f for f = 2 compiles.
        let s = parse(&benor_text().replace("n 4\n", "n 7\nfaulty 2\n")).unwrap();
        assert!(compile(&s).is_ok());
    }

    fn sync_text() -> String {
        "scenario s\nprotocol antientropy key-space=64\ndelay exp mean=1\ntopology complete\n\
         n 4\ndivergence 0.25\nseeds 2\nrecord sync\nexpect decided\n"
            .to_string()
    }

    #[test]
    fn minimal_sync_scenario_compiles_and_converges() {
        let s = parse(&sync_text()).unwrap();
        let outcome = compile(&s).unwrap().run(1).unwrap();
        assert_eq!(outcome.cells.len(), 2);
        for cell in &outcome.cells {
            assert_eq!(cell.metrics.get("converged"), Some(1.0));
            assert_eq!(cell.metrics.get("residual_divergence"), Some(0.0));
            assert_eq!(cell.metrics.get("invented"), Some(0.0));
            assert!(cell.metrics.get("wire_bytes").unwrap() > 0.0);
            assert!(cell.metrics.get_counter("sync_entries_sent").unwrap() > 0);
        }
    }

    #[test]
    fn sync_family_is_all_or_nothing() {
        // Anti-entropy off the complete graph.
        let s = parse(&sync_text().replace("topology complete", "topology uni-ring")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("topology"));
        // Anti-entropy without the sync record mode: no such workload.
        let err = parse(&sync_text().replace("record sync", "record election")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "field `record`: `protocol antientropy` requires `record sync`"
        );
        // Sync record mode under an election protocol.
        let err = parse(&base_text().replace("record election", "record sync")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "field `record`: the sync record mode requires `protocol antientropy`"
        );
        // Divergence is required with antientropy...
        let s = parse(&sync_text().replace("divergence 0.25\n", "")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("divergence"));
        // ...and exclusive to it.
        let s = parse(&base_text().replace("n 4\n", "n 4\ndivergence 0.25\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("divergence"));
        // An empty key universe is rejected.
        let s = parse(&sync_text().replace("key-space=64", "key-space=0")).unwrap();
        assert_eq!(
            compile(&s).unwrap_err().field_name(),
            Some("protocol.key-space")
        );
    }

    #[test]
    fn divergence_fraction_is_range_checked() {
        let s = parse(&sync_text().replace("divergence 0.25", "divergence 1.5")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("divergence"));
        let s = parse(&sync_text().replace("divergence 0.25", "divergence 0")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("divergence"));
        // Axis values are checked too, and the axis needs its consumer.
        let s = parse(&sync_text().replace(
            "divergence 0.25\n",
            "divergence @divergence\naxis divergence 0.1 2\n",
        ))
        .unwrap();
        assert_eq!(
            compile(&s).unwrap_err().field_name(),
            Some("axis.divergence")
        );
        let s = parse(&sync_text().replace("n 4\n", "n 4\naxis divergence 0.1 0.4\n")).unwrap();
        assert_eq!(
            compile(&s).unwrap_err().field_name(),
            Some("axis.divergence")
        );
    }

    #[test]
    fn delay_axis_pairs_with_the_axis_delay_directive() {
        // `delay @delay` without the axis.
        let s = parse(&sync_text().replace("delay exp mean=1", "delay @delay mean=1")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("axis.delay"));
        // A delay axis alongside a fixed delay.
        let s = parse(&sync_text().replace("n 4\n", "n 4\naxis delay exp det\n")).unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("axis.delay"));
        // An unknown family on the axis.
        let s = parse(
            &sync_text()
                .replace("delay exp mean=1", "delay @delay mean=1")
                .replace("n 4\n", "n 4\naxis delay exp cauchy\n"),
        )
        .unwrap();
        assert_eq!(compile(&s).unwrap_err().field_name(), Some("axis.delay"));
        // The full e21 idiom compiles and runs one cell per family.
        let s = parse(
            &sync_text()
                .replace("delay exp mean=1", "delay @delay mean=1")
                .replace("n 4\n", "n 4\naxis delay exp uniform det\n"),
        )
        .unwrap();
        let outcome = compile(&s).unwrap().run(2).unwrap();
        assert_eq!(outcome.cells.len(), 6);
        for cell in &outcome.cells {
            assert_eq!(cell.metrics.get("converged"), Some(1.0));
        }
    }

    #[test]
    fn classified_mode_flags_stalls_without_panicking() {
        // Aggressive churn on a small ring with a tiny event budget:
        // some seeds stall, and the runner must record that, not panic.
        let text = "scenario stall\nprotocol abe-calibrated a=1\ndelay exp mean=1\n\
                    topology uni-ring\nn 8\naxis churn 0 4\nseeds 6\nmax-events 20000\n\
                    fault churn events=@churn horizon=16 downtime=8\n\
                    record classified\nexpect mixed\n";
        let s = parse(text).unwrap();
        let outcome = compile(&s).unwrap().run(2).unwrap();
        assert_eq!(outcome.cells.len(), 12);
        for cell in &outcome.cells {
            let completed = cell.metrics.get("completed").unwrap();
            let stalled = cell.metrics.get("stalled").unwrap();
            let wrong = cell.metrics.get("wrong_leader").unwrap();
            assert_eq!(completed + stalled + wrong, 1.0);
        }
    }
}
