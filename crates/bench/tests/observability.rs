//! Observability integration suite.
//!
//! Pins the two hard invariants of the telemetry layer at the harness
//! level:
//!
//! 1. **Recording off is bit-identical to the pre-telemetry harness** —
//!    the engine-stripped `sweep-v1` document of the E1 smoke run must
//!    match the committed golden byte-for-byte.
//! 2. **Recording on never perturbs and never varies** — traced cells
//!    produce the untraced metrics, and trace bytes / histogram JSON are
//!    identical at any `--threads`/`--shards` setting.
//!
//! The per-cell contracts (report equality, zero drops, schema validity,
//! auditor cross-check) are exercised by `trace_cli`'s unit tests and
//! the `trace --check` CI job; this file covers the sweep-level story.

use abe_bench::experiments::e1_messages;
use abe_bench::sweep;
use abe_bench::{trace_cli, RunCtx, Scale};
use abe_core::Recording;
use abe_sweep::{run_sweep, Cell, CellMetrics};

/// Removes the run-specific `"engine":{...},` stanza (flat object — no
/// nested braces) so the rest of the document is a pure function of the
/// sweep specification.
fn strip_engine(doc: &str) -> String {
    let start = doc
        .find("\"engine\":{")
        .expect("document has an engine stanza");
    let end = start + doc[start..].find("},").expect("engine stanza closes") + 2;
    format!("{}{}", &doc[..start], &doc[end..])
}

#[test]
fn e1_smoke_document_is_pinned_with_recording_off() {
    let report = e1_messages::run(&RunCtx::new(Scale::Smoke, 2));
    let doc = strip_engine(&sweep::json::document(&report, "smoke"));
    let golden = include_str!("golden/e1_smoke.json");
    assert_eq!(
        doc, golden,
        "the recording-off E1 smoke document drifted from \
         crates/bench/tests/golden/e1_smoke.json — telemetry must not \
         change untraced runs; if the drift is intentional, regenerate \
         the golden from `abe-experiments e1 --smoke --json` with the \
         engine stanza stripped"
    );
}

#[test]
fn sweep_telemetry_budget_attaches_hists_without_perturbing_metrics() {
    let ctx = RunCtx::smoke();
    // Aggregate-only budget: retain nothing, histogram everything.
    let compiled = e1_messages::scenario(&ctx);
    let spec = || {
        compiled
            .spec()
            .telemetry(Recording::ring(0).histograms(true))
    };
    let run_cell = |cell: &Cell| {
        let o = compiled
            .run_election(&compiled.election_config(cell, cell.recording().cloned()))
            .expect("e1 runs an election");
        let mut metrics = CellMetrics::new().with_election(&o);
        if let Some(h) = o.telemetry.as_deref().and_then(|r| r.histograms()) {
            metrics = metrics.with_hist(h.to_json());
        }
        metrics
    };

    let single = run_sweep(&spec(), 1, run_cell).unwrap();
    let parallel = run_sweep(&spec(), 4, run_cell).unwrap();
    assert_eq!(single.metrics_json(), parallel.metrics_json());
    assert!(single.metrics_json().contains("\"hist\":{"));
    assert!(single.metrics_json().contains("abe/hist-v1"));
    for cell in &single.cells {
        assert!(cell.metrics.hist().is_some(), "{}", cell.cell.label());
    }

    // The recorded metrics equal the untraced sweep's, cell for cell.
    let untraced = compiled.run(1).unwrap();
    assert_eq!(single.cells.len(), untraced.cells.len());
    for (traced, plain) in single.cells.iter().zip(&untraced.cells) {
        assert_eq!(
            traced.metrics.get("messages"),
            plain.metrics.get("messages"),
            "{}",
            traced.cell.label()
        );
        assert_eq!(
            traced.metrics.get("time"),
            plain.metrics.get("time"),
            "{}",
            traced.cell.label()
        );
    }
}

#[test]
fn trace_bytes_are_thread_and_shard_invariant() {
    let exp = trace_cli::trace_registry()[0];
    let mk = |threads: usize, shards: u32| {
        let mut ctx = RunCtx::new(Scale::Smoke, threads);
        ctx.shards = shards;
        ctx
    };
    let spec = (exp.scenario)(&mk(1, 1)).spec();
    let cell = trace_cli::select_cell(&spec, &[("n".into(), "16".into())], 2).unwrap();
    let record = || Some(Recording::full().payloads(true).histograms(true));
    let meta = trace_cli::trace_meta("e1", &mk(1, 1), &cell);
    let base = trace_cli::render_trace_file(
        &trace_cli::run_cell(&(exp.scenario)(&mk(1, 1)), &cell, record()),
        &meta,
    );
    abe_telemetry::validate_trace(&base).unwrap();
    for (threads, shards) in [(8, 1), (1, 2), (8, 4)] {
        let ctx = mk(threads, shards);
        let other = trace_cli::render_trace_file(
            &trace_cli::run_cell(&(exp.scenario)(&ctx), &cell, record()),
            &meta,
        );
        assert_eq!(base, other, "threads={threads} shards={shards}");
    }
}
