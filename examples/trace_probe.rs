//! Trace probe: record a full election trace and read it three ways.
//!
//! Telemetry is an **observer**: turning it on changes nothing about the
//! run. This example proves that first — the traced election returns the
//! exact report of the untraced one — and then takes the captured
//! [`RunRecorder`](abe_networks::telemetry::RunRecorder) through every
//! consumer the layer offers:
//!
//! * `TraceAnalysis` — per-node timelines, the empirical Definition-1
//!   delay audit (each edge's mean *granted* delay against the declared
//!   bound δ), and deliver→send causal chains;
//! * `JsonlSink` — the `trace-v1` JSONL rendering that
//!   `abe-experiments trace --out` writes (see docs/TRACE_JSON.md),
//!   validated here with `validate_trace`;
//! * `HistogramSink` — the fixed-memory `hist-v1` aggregate that sweep
//!   cells embed under a telemetry budget.
//!
//! Everything printed is deterministic: the same seed produces the same
//! bytes at any thread or shard count, because recording stamps events
//! with `(virtual time, kernel key, emission index)` — never with
//! anything the scheduler chose.
//!
//! Run with:
//!
//! ```console
//! $ cargo run --example trace_probe
//! ```

use abe_networks::core::RunConfig;
use abe_networks::election::{run_abe_calibrated, RingConfig};
use abe_networks::telemetry::{render_header, validate_trace, JsonlSink, Recording, TraceAnalysis};

const N: u32 = 12;
const SEED: u64 = 7;
const DELTA: f64 = 1.0;

fn main() {
    // 1. Same run twice: recording off, then on. Identical reports.
    let untraced = run_abe_calibrated(&RingConfig::new(N, RunConfig::new().seed(SEED)), DELTA);
    let cfg = RingConfig::new(
        N,
        RunConfig::new()
            .seed(SEED)
            .record(Recording::full().payloads(true).histograms(true)),
    );
    let traced = run_abe_calibrated(&cfg, DELTA);
    assert_eq!(traced.report, untraced.report, "recording never perturbs");
    assert!(
        untraced.telemetry.is_none(),
        "untraced runs capture nothing"
    );
    let rec = traced.telemetry.as_deref().expect("recording was on");
    println!(
        "ring n = {N}, seed {SEED}: {} trace records, {} dropped, report unperturbed\n",
        rec.len(),
        rec.dropped()
    );

    // 2. Analysis: timelines, causal chains, and the Definition-1 audit.
    let analysis = TraceAnalysis::from_records(rec.records());
    println!("{}", analysis.report(Some(DELTA)));
    if let Some((edge, mean)) = analysis.max_edge_mean() {
        println!(
            "hottest edge {edge}: empirical mean granted delay {mean:.4} s \
             (small samples may legally exceed δ — Definition 1 bounds the expectation)\n"
        );
    }
    println!("causal chain behind the first delivery on edge 0:");
    for hop in analysis.chain_from(0, 0, 8) {
        println!(
            "  edge {} seq {}: node {} -> node {}, sent {:?}, delivered {:?}",
            hop.edge, hop.seq, hop.src, hop.dst, hop.sent_at, hop.delivered_at
        );
    }

    // 3. The trace-v1 JSONL file, exactly as `trace --out` writes it.
    let mut sink = JsonlSink::new();
    rec.replay(&mut sink);
    let file = format!(
        "{}\n{}",
        render_header(sink.records(), rec.dropped(), &[]),
        sink.body()
    );
    let summary = validate_trace(&file).expect("self-rendered traces validate");
    println!(
        "\ntrace-v1: {} lines validate ({} records); first three:",
        file.lines().count(),
        summary.records
    );
    for line in file.lines().take(3) {
        println!("  {line}");
    }

    // 4. The hist-v1 aggregate a sweep telemetry budget would embed.
    let hist = rec.histograms().expect("histograms were on");
    println!("\nhist-v1: {}", hist.to_json());
}
