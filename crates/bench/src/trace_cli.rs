//! The `abe-experiments trace` subcommand: re-run one grid cell of an
//! experiment with telemetry recording on.
//!
//! An experiment's sweep measures *aggregates*; this module answers the
//! follow-up question "what actually happened in that cell?" It
//! compiles the experiment's own scenario exactly as the sweep does,
//! selects a single cell of its [`SweepSpec`] by `axis=value`
//! coordinates plus a repetition index, and re-runs just that cell
//! through [`CompiledScenario::election_config`] — the configuration
//! the sweep ran — with a [`Recording`] installed. The captured trace
//! renders as `trace-v1` JSONL (see `docs/TRACE_JSON.md`) and feeds the
//! [`TraceAnalysis`] report: per-node timelines, message causal chains,
//! and the empirical Definition-1 audit, cross-checked against the
//! `BudgetAuditor`'s own `max_edge_mean` when the cell ran under an
//! adversary plan.
//!
//! Recording is an observer (see `abe_telemetry`): the traced re-run
//! produces the byte-identical [`NetworkReport`] the sweep's untraced
//! run produced, and the trace bytes are identical at any
//! `--threads`/`--shards` setting. [`check_cell`] turns those contracts
//! into a CI-runnable differential check.

use std::fmt::Write as _;

use abe_core::{NetworkReport, Recording, RunRecorder};
use abe_scenario::CompiledScenario;
use abe_stats::json_str;
use abe_sweep::{Cell, SweepSpec};
use abe_telemetry::{render_header, validate_trace, JsonlSink, TraceAnalysis};

use crate::experiments::{e14_crash_churn, e17_adversary, e1_messages};
use crate::RunCtx;

/// One re-run of a single grid cell, with optional telemetry capture.
#[derive(Debug)]
pub struct TracedRun {
    /// The run's network report (identical with recording on or off).
    pub report: NetworkReport,
    /// The captured recorder (`None` when recording was off).
    pub telemetry: Option<Box<RunRecorder>>,
    /// The cell's declared Definition-1 per-edge expected-delay bound.
    pub bound: f64,
    /// The `BudgetAuditor`'s observed max per-edge empirical mean, when
    /// the cell ran under an adversary plan (the trace's own audit must
    /// agree with it; see [`analysis_report`]).
    pub audited_max_edge_mean: Option<f64>,
}

impl TracedRun {
    /// The captured recorder.
    ///
    /// # Panics
    ///
    /// Panics if the run was executed without recording.
    pub fn recorder(&self) -> &RunRecorder {
        self.telemetry
            .as_deref()
            .expect("run was executed without recording")
    }
}

/// An experiment the `trace` subcommand can re-run cell-by-cell: one
/// whose committed scenario runs an election.
#[derive(Clone, Copy)]
pub struct TraceableExperiment {
    /// Experiment id, e.g. `"e1"`.
    pub id: &'static str,
    /// One-line description for `trace --list`.
    pub about: &'static str,
    /// The experiment's compiled scenario at a given scale — the one its
    /// sweep runs.
    pub scenario: fn(&RunCtx) -> CompiledScenario,
}

/// Re-runs one cell of `compiled`, optionally recording. The cell's
/// Definition-1 bound is its adversary budget when a strategy tampers,
/// and the delay model's mean otherwise.
pub fn run_cell(compiled: &CompiledScenario, cell: &Cell, record: Option<Recording>) -> TracedRun {
    let cfg = compiled.election_config(cell, record);
    let budget = cfg.run.adversary.budget();
    let bound = budget.unwrap_or_else(|| cfg.run.delay.mean().as_secs());
    let o = compiled
        .run_election(&cfg)
        .expect("traceable experiments run elections");
    TracedRun {
        audited_max_edge_mean: budget.map(|_| o.report.adversary.max_edge_mean),
        report: o.report,
        telemetry: o.telemetry,
        bound,
    }
}

/// The traceable-experiment registry: a subset of the main registry,
/// each entry's committed scenario running an election.
pub fn trace_registry() -> Vec<TraceableExperiment> {
    vec![
        TraceableExperiment {
            id: "e1",
            about: "election message complexity — oblivious exponential delays",
            scenario: e1_messages::scenario,
        },
        TraceableExperiment {
            id: "e14",
            about: "election under crash-recover churn — fault events in the trace",
            scenario: e14_crash_churn::scenario,
        },
        TraceableExperiment {
            id: "e17",
            about: "election under budgeted adversaries — auditor cross-check",
            scenario: e17_adversary::scenario,
        },
    ]
}

/// Selects exactly one cell of `spec` by `axis=value` selectors plus a
/// repetition index.
///
/// # Errors
///
/// Returns a human-readable message when a selector names an unknown
/// axis, no cell matches, or the selectors leave more than one grid
/// combination in play.
pub fn select_cell(
    spec: &SweepSpec,
    selectors: &[(String, String)],
    rep: u64,
) -> Result<Cell, String> {
    for (name, _) in selectors {
        if !spec.axes().iter().any(|a| a.name == name) {
            let known: Vec<&str> = spec.axes().iter().map(|a| a.name).collect();
            return Err(format!(
                "unknown axis {name:?}; this experiment's axes: {}",
                known.join(", ")
            ));
        }
    }
    let matches: Vec<Cell> = spec
        .expand()
        .into_iter()
        .filter(|c| selectors.iter().all(|(k, v)| c.value(k).to_string() == *v))
        .collect();
    if matches.is_empty() {
        let mut axes = String::new();
        for a in spec.axes() {
            let values: Vec<String> = a.values.iter().map(ToString::to_string).collect();
            let _ = write!(axes, "\n  {}: {}", a.name, values.join(", "));
        }
        return Err(format!(
            "no grid cell matches the given coordinates; axis values:{axes}"
        ));
    }
    let mut selected: Vec<Cell> = matches.into_iter().filter(|c| c.rep() == rep).collect();
    match selected.len() {
        0 => Err(format!("no matching cell has rep {rep}")),
        1 => Ok(selected.pop().expect("one cell")),
        n => {
            let examples: Vec<String> = selected.iter().take(4).map(Cell::label).collect();
            Err(format!(
                "{n} cells match — add axis selectors to pin one:\n  {}",
                examples.join("\n  ")
            ))
        }
    }
}

/// Renders the complete `trace-v1` file (header + record lines, each
/// `\n`-terminated) for a traced run. `meta` adds caller header fields
/// as `(name, raw JSON value)` pairs.
pub fn render_trace_file(run: &TracedRun, meta: &[(&str, String)]) -> String {
    let rec = run.recorder();
    let mut sink = JsonlSink::new();
    rec.replay(&mut sink);
    let mut file = render_header(sink.records(), rec.dropped(), meta);
    let body = sink.into_body();
    file.reserve(1 + body.len());
    file.push('\n');
    file.push_str(&body);
    file
}

/// Builds the standard header metadata for a traced cell. Only run
/// *identity* goes in the header — never execution parameters like the
/// shard or thread count — so the whole file stays byte-identical at
/// any `--threads`/`--shards` setting.
pub fn trace_meta(id: &str, ctx: &RunCtx, cell: &Cell) -> Vec<(&'static str, String)> {
    vec![
        ("experiment", json_str(id)),
        ("scale", json_str(ctx.scale.name())),
        ("cell", json_str(&cell.label())),
        ("seed", format!("\"{}\"", cell.seed())),
    ]
}

/// Renders the analysis report for a traced run: per-node timelines,
/// the Definition-1 delay audit against the cell's declared bound, and
/// — for audited (adversarial) cells — the cross-check of the trace's
/// empirical per-edge means against the `BudgetAuditor`'s observed
/// `max_edge_mean`.
pub fn analysis_report(run: &TracedRun) -> String {
    let rec = run.recorder();
    let a = TraceAnalysis::from_records(rec.records());
    let mut out = a.report(Some(run.bound));
    if rec.dropped() > 0 {
        let _ = writeln!(
            out,
            "note: {} records evicted by the retention cap — means below cover the \
             retained window only",
            rec.dropped()
        );
    }
    if let Some(audited) = run.audited_max_edge_mean {
        let traced = a.max_edge_mean().map_or(0.0, |(_, m)| m);
        let agrees = (traced - audited).abs() <= 1e-9 * audited.abs().max(1.0);
        let _ = writeln!(
            out,
            "auditor cross-check: trace max edge mean {traced:.9} vs BudgetAuditor \
             {audited:.9} — {}",
            if agrees { "agree" } else { "DISAGREE" }
        );
    }
    out
}

/// Renders the causal chain starting from message `(edge, seq)` as one
/// line per hop.
pub fn render_chain(run: &TracedRun, edge: u32, seq: u64, limit: usize) -> String {
    let a = TraceAnalysis::from_records(run.recorder().records());
    let hops = a.chain_from(edge, seq, limit);
    if hops.is_empty() {
        return format!("no trace record for message (edge {edge}, seq {seq})\n");
    }
    let mut out = format!("causal chain from (edge {edge}, seq {seq}):\n");
    for (i, hop) in hops.iter().enumerate() {
        let sent = hop
            .sent_at
            .map_or("?".to_string(), |t| format!("{:.6}", t.as_secs()));
        let delivered = hop
            .delivered_at
            .map_or("in flight / dropped".to_string(), |t| {
                format!("{:.6}", t.as_secs())
            });
        let _ = writeln!(
            out,
            "  #{i} e{} seq {}: n{} -> n{}  sent {sent}  delivered {delivered}",
            hop.edge, hop.seq, hop.src, hop.dst
        );
    }
    out
}

/// The differential check behind `trace --check`: proves, for one cell,
/// every observability contract CI relies on.
///
/// 1. recording off vs on produce equal [`NetworkReport`]s (the
///    recorder never perturbs the run), and the untraced run captures
///    nothing;
/// 2. full recording evicts zero records;
/// 3. the rendered `trace-v1` file is schema-valid;
/// 4. re-running at a different `--shards` count yields byte-identical
///    trace and histogram JSON (and the same report);
/// 5. for audited cells, the trace's empirical max per-edge mean agrees
///    with the `BudgetAuditor`'s to 1e-9.
///
/// # Errors
///
/// Returns the first violated contract as a human-readable message.
pub fn check_cell(exp: &TraceableExperiment, ctx: &RunCtx, cell: &Cell) -> Result<String, String> {
    let full = Recording::full().payloads(true).histograms(true);
    let compiled = (exp.scenario)(ctx);
    let untraced = run_cell(&compiled, cell, None);
    if untraced.telemetry.is_some() {
        return Err("untraced run captured telemetry".into());
    }
    let traced = run_cell(&compiled, cell, Some(full.clone()));
    if traced.report != untraced.report {
        return Err("recording perturbed the run: traced report differs from untraced".into());
    }
    let rec = traced
        .telemetry
        .as_deref()
        .ok_or("traced run captured no telemetry")?;
    if rec.dropped() != 0 {
        return Err(format!("full recording evicted {} records", rec.dropped()));
    }
    let bytes = render_trace_file(&traced, &[]);
    let summary = validate_trace(&bytes).map_err(|e| format!("trace-v1 schema: {e}"))?;

    let mut other_ctx = *ctx;
    other_ctx.shards = if ctx.shards == 1 { 2 } else { 1 };
    let other = run_cell(&(exp.scenario)(&other_ctx), cell, Some(full));
    if other.report != traced.report {
        return Err(format!(
            "report differs between {} and {} shards",
            ctx.shards, other_ctx.shards
        ));
    }
    if render_trace_file(&other, &[]) != bytes {
        return Err(format!(
            "trace bytes differ between {} and {} shards",
            ctx.shards, other_ctx.shards
        ));
    }
    let hist = rec
        .histograms()
        .expect("full recording aggregates")
        .to_json();
    let other_hist = other
        .telemetry
        .as_deref()
        .and_then(RunRecorder::histograms)
        .expect("full recording aggregates")
        .to_json();
    if hist != other_hist {
        return Err(format!(
            "histogram JSON differs between {} and {} shards",
            ctx.shards, other_ctx.shards
        ));
    }
    if let Some(audited) = traced.audited_max_edge_mean {
        let a = TraceAnalysis::from_records(rec.records());
        let empirical = a.max_edge_mean().map_or(0.0, |(_, m)| m);
        if (empirical - audited).abs() > 1e-9 * audited.abs().max(1.0) {
            return Err(format!(
                "delay audit disagrees with BudgetAuditor: trace {empirical} vs \
                 auditor {audited}"
            ));
        }
    }
    Ok(format!(
        "ok: {} records, 0 dropped, report unperturbed, trace + histograms \
         byte-identical at {} and {} shards",
        summary.records, ctx.shards, other_ctx.shards
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e1() -> TraceableExperiment {
        trace_registry()[0]
    }

    fn e14() -> TraceableExperiment {
        trace_registry()[1]
    }

    fn e17() -> TraceableExperiment {
        trace_registry()[2]
    }

    #[test]
    fn registry_ids_are_a_subset_of_the_main_registry() {
        let main: Vec<&str> = crate::registry().iter().map(|e| e.id).collect();
        for t in trace_registry() {
            assert!(main.contains(&t.id), "{} not in main registry", t.id);
        }
    }

    #[test]
    fn selection_pins_one_cell() {
        let ctx = RunCtx::smoke();
        let spec = (e1().scenario)(&ctx).spec();
        let cell = select_cell(&spec, &[("n".into(), "16".into())], 3).unwrap();
        assert_eq!(cell.u32("n"), 16);
        assert_eq!(cell.rep(), 3);
    }

    #[test]
    fn selection_errors_are_actionable() {
        let ctx = RunCtx::smoke();
        let spec = (e1().scenario)(&ctx).spec();
        let err = select_cell(&spec, &[("m".into(), "16".into())], 0).unwrap_err();
        assert!(err.contains("unknown axis") && err.contains("n"), "{err}");
        let err = select_cell(&spec, &[("n".into(), "17".into())], 0).unwrap_err();
        assert!(
            err.contains("axis values") && err.contains("8, 16, 64"),
            "{err}"
        );
        let err = select_cell(&spec, &[], 0).unwrap_err();
        assert!(err.contains("add axis selectors"), "{err}");
        let err = select_cell(&spec, &[("n".into(), "16".into())], 99).unwrap_err();
        assert!(err.contains("rep 99"), "{err}");
    }

    #[test]
    fn traced_e1_cell_passes_every_check() {
        let ctx = RunCtx::smoke();
        let spec = (e1().scenario)(&ctx).spec();
        let cell = select_cell(&spec, &[("n".into(), "8".into())], 0).unwrap();
        let summary = check_cell(&e1(), &ctx, &cell).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
    }

    #[test]
    fn traced_e14_churn_cell_passes_every_check() {
        let ctx = RunCtx::smoke();
        let compiled = (e14().scenario)(&ctx);
        let at = [("topo", "uni-ring"), ("churn", "2")].map(|(k, v)| (k.into(), v.into()));
        // Rep 1 completes although two nodes crashed during the run.
        let cell = select_cell(&compiled.spec(), &at, 1).unwrap();
        assert_eq!(compiled.run_cell(&cell).get("completed"), Some(1.0));
        assert_eq!(run_cell(&compiled, &cell, None).report.faults.crashes, 2);
        let summary = check_cell(&e14(), &ctx, &cell).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
    }

    #[test]
    fn traced_e17_adversarial_cell_cross_checks_the_auditor() {
        let ctx = RunCtx::smoke();
        let spec = (e17().scenario)(&ctx).spec();
        let cell = select_cell(
            &spec,
            &[
                ("strategy".into(), "burst".into()),
                ("budget".into(), "4".into()),
            ],
            0,
        )
        .unwrap();
        let summary = check_cell(&e17(), &ctx, &cell).unwrap();
        assert!(summary.starts_with("ok:"), "{summary}");
        let run = run_cell(&(e17().scenario)(&ctx), &cell, Some(Recording::full()));
        assert!(run.audited_max_edge_mean.is_some());
        let report = analysis_report(&run);
        assert!(report.contains("auditor cross-check"), "{report}");
        assert!(report.contains("agree"), "{report}");
        assert!(!report.contains("DISAGREE"), "{report}");
        assert_eq!(run.bound, 4.0);
    }

    #[test]
    fn trace_file_carries_meta_and_chains_resolve() {
        let ctx = RunCtx::smoke();
        let spec = (e1().scenario)(&ctx).spec();
        let cell = select_cell(&spec, &[("n".into(), "8".into())], 1).unwrap();
        let run = run_cell(
            &(e1().scenario)(&ctx),
            &cell,
            Some(Recording::full().payloads(true)),
        );
        let file = render_trace_file(&run, &trace_meta("e1", &ctx, &cell));
        let first = file.lines().next().unwrap();
        assert!(first.contains("\"experiment\":\"e1\""), "{first}");
        assert!(first.contains("\"cell\":\"n=8, rep=1\""), "{first}");
        validate_trace(&file).unwrap();
        let chain = render_chain(&run, 0, 0, 8);
        assert!(chain.contains("causal chain"), "{chain}");
        assert!(chain.contains("#0 e0"), "{chain}");
        assert!(render_chain(&run, 9999, 0, 8).contains("no trace record"));
        let analysis = analysis_report(&run);
        assert!(analysis.contains("definition-1 delay audit"), "{analysis}");
        // Small-sample empirical means may legally exceed the expected-delay
        // bound; the audit must still print a verdict against it per edge.
        assert!(analysis.contains("bound=1.000000"), "{analysis}");
    }

    #[test]
    fn capped_recording_notes_the_eviction_in_the_report() {
        let ctx = RunCtx::smoke();
        let spec = (e1().scenario)(&ctx).spec();
        let cell = select_cell(&spec, &[("n".into(), "8".into())], 0).unwrap();
        let run = run_cell(&(e1().scenario)(&ctx), &cell, Some(Recording::ring(4)));
        assert!(run.recorder().dropped() > 0);
        let report = analysis_report(&run);
        assert!(report.contains("evicted by the retention cap"), "{report}");
    }
}
