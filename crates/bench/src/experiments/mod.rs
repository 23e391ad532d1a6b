//! The experiment implementations (one module per experiment in
//! `docs/PAPER_MAP.md`).
//!
//! Every experiment runs a grid on the sweep engine (one simulation per
//! cell, seeded from the cell's grid coordinates) and derives its table
//! and findings from the per-group aggregates. Experiments with a
//! committed `.abes` file under `scenarios/` (e1, e14, e17, e19, e21)
//! *are* that file: they load it with `scenario`, run it with
//! `run_scenario`, and only render. e2 renders e1's file a second way.
//! The others declare their grid as a
//! [`SweepSpec`](abe_sweep::SweepSpec) and run it through
//! [`RunCtx::sweep`](crate::RunCtx::sweep).

pub mod e10_clock_drift;
pub mod e11_sync_overhead;
pub mod e12_vs_synchronous;
pub mod e13_known_n;
pub mod e14_crash_churn;
pub mod e15_partitions;
pub mod e16_scaling;
pub mod e17_adversary;
pub mod e18_reorder_sync;
pub mod e19_benor;
pub mod e1_messages;
pub mod e20_brb;
pub mod e21_antientropy;
pub mod e22_churn_sync;
pub mod e2_time;
pub mod e3_activation;
pub mod e4_baselines;
pub mod e5_retransmission;
pub mod e6_theorem1;
pub mod e7_abd_violations;
pub mod e8_adaptive_ablation;
pub mod e9_delay_robustness;

use abe_core::RunConfig;
use abe_election::RingConfig;
use abe_scenario::campaign::check_oracles;
use abe_scenario::{compile, parse, CompiledScenario, DelaySpec, ElectionProtocol, Scenario};
use abe_stats::Online;
use abe_sweep::{AxisValue, Group, SweepOutcome};

use crate::RunCtx;

/// Compiles the committed scenario `text` at `ctx`'s scale, with the
/// context's base seed and shard count. At `--smoke` the file runs as
/// written. At `--quick`/`--full` each line of `quick`/`full` replaces
/// the file's line of the same directive — `n`, `seeds` or `axis NAME`,
/// nothing else — and a churn horizon scales with `n` (e14 spreads its
/// events over 2nδ, the election's expected span).
///
/// # Panics
///
/// Panics if a resize line has no counterpart in the file, or if the
/// result does not parse or compile.
pub(crate) fn scenario(ctx: &RunCtx, text: &str, quick: &str, full: &str) -> CompiledScenario {
    fn key(line: &str) -> Vec<&str> {
        let words = if line.starts_with("axis ") { 2 } else { 1 };
        line.split_whitespace().take(words).collect()
    }
    let mut lines: Vec<&str> = text.lines().collect();
    for new in ctx.scale.pick3("", quick, full).lines() {
        assert!(
            matches!(key(new)[..], ["n"] | ["seeds"] | ["axis", _]),
            "a resize sets only n, seeds and axis values, not `{new}`"
        );
        *lines
            .iter_mut()
            .find(|old| key(old) == key(new))
            .unwrap_or_else(|| panic!("no line in the scenario to resize to `{new}`")) = new;
    }
    let file = parse(text).unwrap_or_else(|e| panic!("committed scenario: {e}"));
    let mut scenario = parse(&lines.join("\n")).unwrap_or_else(|e| panic!("resized scenario: {e}"));
    if let (Some(old), Some(n), Some(fault)) = (file.n, scenario.n, scenario.fault.as_mut()) {
        fault.horizon *= f64::from(n) / f64::from(old);
    }
    scenario.base_seed = ctx.base_seed;
    compile(&scenario)
        .unwrap_or_else(|e| panic!("scenario {}: {e}", scenario.name))
        .with_shards(ctx.shards)
}

/// Runs a compiled scenario on `ctx.threads` workers.
///
/// # Panics
///
/// Panics if a cell panics, or if any cell violates the scenario's
/// outcome oracles (a stalled or split election where `completed` is
/// expected, a safety violation, an auditor violation); the message
/// names the offending cells.
pub(crate) fn run_scenario(ctx: &RunCtx, compiled: &CompiledScenario) -> SweepOutcome {
    let outcome = compiled
        .run(ctx.threads)
        .unwrap_or_else(|err| panic!("{err}"));
    let oracles = check_oracles(compiled.scenario(), &outcome);
    assert!(
        oracles.ok(),
        "scenario {}: {} of {} cells violate the outcome oracles:\n  {}",
        compiled.scenario().name,
        oracles.violations.len(),
        oracles.cells_checked,
        oracles.violations.join("\n  ")
    );
    outcome
}

/// The expected delay δ a scenario's delay model is calibrated to.
pub(crate) fn delta(scenario: &Scenario) -> f64 {
    match scenario.delay {
        DelaySpec::Exponential { mean } | DelaySpec::Axis { mean } => mean,
        ref other => panic!("delay {other:?} declares no mean"),
    }
}

/// The activation constant `a` of an `abe-calibrated` scenario.
pub(crate) fn activation(scenario: &Scenario) -> f64 {
    match scenario.workload.election() {
        Some(ElectionProtocol::AbeCalibrated { a }) => *a,
        _ => panic!("workload {:?} is not abe-calibrated", scenario.workload),
    }
}

/// The values of `outcome`'s axis `name`, converted by `value`.
pub(crate) fn axis<T>(
    outcome: &SweepOutcome,
    name: &str,
    value: impl Fn(&AxisValue) -> T,
) -> Vec<T> {
    let axis = outcome.axes.iter().find(|a| a.name == name);
    let axis = axis.unwrap_or_else(|| panic!("sweep has no axis {name}"));
    axis.values.iter().map(value).collect()
}

/// Activation budget (expected wake-ups per ring traversal) shared by the
/// election experiments that build their grid in Rust; the committed
/// scenarios declare their own (`protocol abe-calibrated a=1`).
pub const A: f64 = 1.0;
/// Expected delay bound δ shared by the experiments that build their
/// grid in Rust; the committed scenarios declare their own.
pub const DELTA: f64 = 1.0;

/// Standard substrate used across experiments: exponential delay with
/// mean `delta`. Carries the context's shard count so `--shards N`
/// applies to every sweep uniformly (reports are shard-invariant; see
/// `abe_core::shard`).
pub(crate) fn substrate(ctx: &RunCtx, delta: f64, seed: u64) -> RunConfig {
    RunConfig::new()
        .delay(std::sync::Arc::new(
            abe_core::delay::Exponential::from_mean(delta).expect("valid delta"),
        ))
        .seed(seed)
        .shards(ctx.shards)
}

/// Standard ring configuration used across election experiments: a
/// unidirectional ring of `n` nodes on [`substrate`].
pub(crate) fn ring(ctx: &RunCtx, n: u32, delta: f64, seed: u64) -> RingConfig {
    RingConfig::new(n, substrate(ctx, delta, seed))
}

/// Pulls the standard election aggregates out of one sweep group,
/// asserting every run in it elected exactly one leader.
///
/// Returns `(messages, time)` accumulators.
pub(crate) fn election_stats(group: &Group<'_>) -> (Online, Online) {
    let leaders = group.online("leaders");
    assert!(
        leaders.min() == Some(1.0) && leaders.max() == Some(1.0),
        "every run must elect exactly one leader ({}: {:?} to {:?} leaders)",
        group.label(),
        leaders.min(),
        leaders.max()
    );
    (group.online("messages"), group.online("time"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_sweep::{run_sweep, CellMetrics, SweepSpec};

    #[test]
    #[should_panic(expected = "every run must elect exactly one leader")]
    fn election_stats_fails_a_group_whose_leader_mean_is_one() {
        // A 0-leader run and a 2-leader run average to exactly 1.
        let spec = SweepSpec::new().seeds(2);
        let outcome = run_sweep(&spec, 1, |cell| {
            CellMetrics::new()
                .metric("leaders", 2.0 * cell.rep() as f64)
                .metric("messages", 1.0)
                .metric("time", 1.0)
        })
        .unwrap();
        election_stats(&outcome.groups()[0]);
    }

    #[test]
    #[should_panic(expected = "30 of 30 cells violate the outcome oracles")]
    fn run_scenario_fails_the_experiment_on_an_oracle_violation() {
        let ctx = RunCtx::smoke();
        let text = include_str!("../../../../scenarios/e1_messages.abes")
            .replace("expect completed", "expect stalled");
        run_scenario(&ctx, &scenario(&ctx, &text, "", ""));
    }
}
