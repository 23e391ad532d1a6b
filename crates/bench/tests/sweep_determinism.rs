//! Cross-thread determinism guarantees of the sweep engine.
//!
//! The engine's contract: the JSON-visible metric block of a sweep is a
//! pure function of the spec — worker count, shard count and scheduling
//! order must not leak into it — and a panicking cell fails the sweep
//! with its grid coordinates in the error.

use abe_bench::{experiments, ExperimentReport, RunCtx, Scale};
use abe_sweep::{run_sweep, CellMetrics, SweepError, SweepSpec};

/// A minimal recursive-descent JSON syntax checker (no serde in the
/// container). Returns the remaining input on success.
fn skip_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

fn parse_value(s: &str) -> Result<&str, String> {
    let s = skip_ws(s);
    let mut chars = s.chars();
    match chars.next() {
        Some('{') => parse_object(&s[1..]),
        Some('[') => parse_array(&s[1..]),
        Some('"') => parse_string(&s[1..]),
        Some('t') => s.strip_prefix("true").ok_or("bad literal".to_string()),
        Some('f') => s.strip_prefix("false").ok_or("bad literal".to_string()),
        Some('n') => s.strip_prefix("null").ok_or("bad literal".to_string()),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(s.len());
            let number = &s[..end];
            number
                .parse::<f64>()
                .map_err(|e| format!("bad number {number:?}: {e}"))?;
            Ok(&s[end..])
        }
        other => Err(format!("unexpected token {other:?}")),
    }
}

fn parse_string(mut s: &str) -> Result<&str, String> {
    loop {
        let mut chars = s.char_indices();
        match chars.next() {
            Some((_, '"')) => return Ok(&s[1..]),
            Some((_, '\\')) => {
                let (next, escaped) = chars.next().ok_or("dangling escape")?;
                match escaped {
                    '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' => s = &s[next + 1..],
                    'u' => {
                        let hex = s.get(next + 1..next + 5).ok_or("short \\u escape")?;
                        u16::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        s = &s[next + 5..];
                    }
                    other => return Err(format!("bad escape \\{other}")),
                }
            }
            Some((i, c)) if (c as u32) < 0x20 => {
                return Err(format!("raw control char {c:?} at {i}"))
            }
            Some((i, _)) => s = &s[i + s[i..].chars().next().unwrap().len_utf8()..],
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_object(mut s: &str) -> Result<&str, String> {
    s = skip_ws(s);
    if let Some(rest) = s.strip_prefix('}') {
        return Ok(rest);
    }
    loop {
        s = skip_ws(s);
        s = s.strip_prefix('"').ok_or("expected object key")?;
        s = parse_string(s)?;
        s = skip_ws(s);
        s = s.strip_prefix(':').ok_or("expected ':'")?;
        s = parse_value(s)?;
        s = skip_ws(s);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return skip_ws(s)
                .strip_prefix('}')
                .ok_or("expected '}'".to_string());
        }
    }
}

fn parse_array(mut s: &str) -> Result<&str, String> {
    s = skip_ws(s);
    if let Some(rest) = s.strip_prefix(']') {
        return Ok(rest);
    }
    loop {
        s = parse_value(s)?;
        s = skip_ws(s);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return skip_ws(s)
                .strip_prefix(']')
                .ok_or("expected ']'".to_string());
        }
    }
}

/// Asserts `s` is one complete, well-formed JSON value.
fn assert_valid_json(s: &str) {
    match parse_value(s) {
        Ok(rest) => assert!(
            skip_ws(rest).is_empty(),
            "trailing garbage after JSON value: {rest:?}"
        ),
        Err(err) => panic!("invalid JSON ({err}): {}", &s[..s.len().min(200)]),
    }
}

/// Runs an experiment at `(threads, shards)` = (1, 1), (8, 1) and
/// (2, 2) and asserts the three reports agree in everything the
/// document renders outside its engine stanza: the metric block, the
/// table and the findings. Worker count and shard count must not leak
/// into the data.
fn assert_engine_invariant(run: fn(&RunCtx) -> ExperimentReport) {
    let at = |threads, shards| {
        let mut ctx = RunCtx::new(Scale::Smoke, threads);
        ctx.shards = shards;
        run(&ctx)
    };
    let base = at(1, 1);
    assert_eq!(base.sweep.threads, 1);
    for (threads, shards) in [(8, 1), (2, 2)] {
        let other = at(threads, shards);
        let what = format!("{} at threads={threads}, shards={shards}", base.id);
        assert!(other.sweep.threads > 1, "{what}");
        assert_eq!(
            base.sweep.metrics_json(),
            other.sweep.metrics_json(),
            "{what}"
        );
        assert_eq!(base.table.to_csv(), other.table.to_csv(), "{what}");
        assert_eq!(base.findings, other.findings, "{what}");
    }
}

/// Renders an experiment's smoke document and asserts what every
/// `sweep-v1` document holds: valid JSON, its schema and experiment id,
/// and at least one cell (so at least one group: groups partition the
/// cells).
fn smoke_document(report: &ExperimentReport) -> String {
    let doc = abe_bench::sweep::json::document(report, "smoke");
    assert_valid_json(&doc);
    let id = report.id.to_ascii_lowercase();
    assert!(
        doc.starts_with("{\"schema\":\"abe-bench/sweep-v1\""),
        "{id}"
    );
    assert!(doc.contains(&format!("\"experiment\":\"{id}\"")), "{id}");
    assert!(!report.sweep.cells.is_empty(), "{id}: no cells");
    doc
}

fn toy_spec() -> SweepSpec {
    SweepSpec::new()
        .axis_u32("n", &[4, 8, 16])
        .axis_f64("p", &[0.25, 0.5])
        .seeds(5)
        .base_seed(3)
}

fn toy_run(cell: &abe_sweep::Cell) -> CellMetrics {
    // Deterministic in (coordinates, derived seed); includes quotes and
    // unicode-hostile metric values via the string axis path elsewhere.
    let v = f64::from(cell.u32("n")) * cell.f64("p") + (cell.seed() % 101) as f64;
    CellMetrics::new()
        .metric("v", v)
        .counter("seed_mod", cell.seed() % 17)
}

#[test]
fn toy_sweep_is_byte_identical_across_thread_counts() {
    let one = run_sweep(&toy_spec(), 1, toy_run).unwrap();
    let eight = run_sweep(&toy_spec(), 8, toy_run).unwrap();
    assert_eq!(one.metrics_json(), eight.metrics_json());
    assert_valid_json(&one.metrics_json());
}

#[test]
fn e1_smoke_is_byte_identical_across_thread_counts() {
    assert_engine_invariant(experiments::e1_messages::run);
}

#[test]
fn e1_smoke_document_is_valid_json() {
    let report = experiments::e1_messages::run(&RunCtx::new(Scale::Smoke, 2));
    smoke_document(&report);
}

#[test]
fn string_axes_with_special_characters_stay_valid_json() {
    let spec = SweepSpec::new()
        .axis_str("label", &["plain", "with \"quotes\"", "tab\there", "δ=1"])
        .seeds(2);
    let outcome = run_sweep(&spec, 4, |cell| {
        CellMetrics::new().metric("idx", cell.idx("label") as f64)
    })
    .unwrap();
    assert_valid_json(&outcome.metrics_json());
}

#[test]
fn panicking_cell_fails_the_sweep_with_grid_coordinates() {
    let err = run_sweep(&toy_spec(), 4, |cell| {
        assert!(
            !(cell.u32("n") == 8 && cell.f64("p") == 0.5 && cell.rep() == 2),
            "injected fault"
        );
        toy_run(cell)
    })
    .unwrap_err();
    let SweepError::CellPanicked {
        coordinates,
        message,
        ..
    } = &err;
    assert!(coordinates.contains("n=8"), "coordinates: {coordinates}");
    assert!(coordinates.contains("p=0.5"), "coordinates: {coordinates}");
    assert!(coordinates.contains("rep=2"), "coordinates: {coordinates}");
    assert!(message.contains("injected fault"), "message: {message}");
    // The rendered error carries the coordinates too.
    assert!(err.to_string().contains("n=8, p=0.5, rep=2"));
}

#[test]
fn cell_seeds_are_reproducible_across_processes() {
    // Seeds must be a pure function of (coordinates, base seed): pin a few
    // concrete values so any accidental change to the derivation shows up.
    let cells = toy_spec().expand();
    let again = toy_spec().expand();
    let seeds: Vec<u64> = cells.iter().map(|c| c.seed()).collect();
    let seeds_again: Vec<u64> = again.iter().map(|c| c.seed()).collect();
    assert_eq!(seeds, seeds_again);
    // Distinct cells, distinct seeds.
    let mut uniq = seeds.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), seeds.len());
}

mod scaling_regression {
    //! E16 rides the kernel's indexed-queue hot path at the largest grid
    //! sizes; its JSON must stay bit-identical across worker counts like
    //! every other experiment.

    use super::*;
    use abe_bench::experiments::e16_scaling;

    #[test]
    fn e16_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e16_scaling::run);
    }

    #[test]
    fn e16_smoke_document_is_valid_json() {
        // Every run elected exactly one leader: `election_stats` fails the
        // run otherwise. Every run also went through the queue.
        let report = e16_scaling::run(&RunCtx::new(Scale::Smoke, 2));
        smoke_document(&report);
        for cell in &report.sweep.cells {
            let scheduled = cell.metrics.get_counter("queue_scheduled");
            assert!(scheduled > Some(0), "{}", cell.cell.label());
        }
    }
}

mod adversary_regression {
    //! Adversary-layer determinism regressions: an **empty**
    //! `AdversaryPlan` must not perturb a single byte of sweep output,
    //! and the adversary experiments must stay bit-identical across
    //! worker counts.

    use super::*;
    use abe_bench::experiments::{e17_adversary, e18_reorder_sync};
    use abe_core::{AdversaryPlan, RunConfig};
    use abe_election::{run_abe_calibrated, RingConfig};
    use std::sync::Arc;

    #[test]
    fn e1_smoke_json_is_unchanged_by_an_explicit_empty_adversary_plan() {
        // Baseline: e1 as shipped (its runner never touches the
        // adversary API).
        let baseline = abe_bench::experiments::e1_messages::run(&RunCtx::new(Scale::Smoke, 1));
        // The same grid, every run built with an explicitly-empty
        // AdversaryPlan: installing the hook without a strategy must be
        // invisible to the JSON, byte for byte.
        let spec = SweepSpec::new().axis_u32("n", &[8, 16, 64]).seeds(10);
        let replayed = run_sweep(&spec, 1, |cell| {
            let cfg = RingConfig::new(
                cell.u32("n"),
                RunConfig::new()
                    .delay(Arc::new(
                        abe_core::delay::Exponential::from_mean(abe_bench::experiments::DELTA)
                            .unwrap(),
                    ))
                    .seed(cell.seed())
                    .adversary(AdversaryPlan::none()),
            );
            let o = run_abe_calibrated(&cfg, abe_bench::experiments::A);
            CellMetrics::new()
                .metric("knockouts", o.report.counter("knockouts") as f64)
                .with_election(&o)
        })
        .unwrap();
        assert_eq!(baseline.sweep.metrics_json(), replayed.metrics_json());
    }

    #[test]
    fn e17_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e17_adversary::run);
    }

    #[test]
    fn e18_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e18_reorder_sync::run);
    }

    #[test]
    fn adversary_experiment_documents_are_valid_json_with_auditor_telemetry() {
        for (report, id) in [
            (e17_adversary::run(&RunCtx::new(Scale::Smoke, 2)), "e17"),
            (e18_reorder_sync::run(&RunCtx::new(Scale::Smoke, 2)), "e18"),
        ] {
            let doc = smoke_document(&report);
            assert!(
                doc.contains("\"adv_max_edge_mean\""),
                "{id} lacks auditor telemetry"
            );
            assert!(doc.contains("\"adv_clamped\""));
            assert!(doc.contains("\"adv_violations\""));
        }
    }
}

mod consensus_regression {
    //! Consensus-layer determinism regressions: Ben-Or's coin flips come
    //! from dedicated per-node `SeedStream` children, so e19 and e20 must
    //! stay bit-identical across worker counts like every other
    //! experiment — randomized consensus included.

    use super::*;
    use abe_bench::experiments::{e19_benor, e20_brb};

    #[test]
    fn e19_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e19_benor::run);
    }

    #[test]
    fn e20_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e20_brb::run);
    }

    #[test]
    fn consensus_experiment_documents_are_valid_json_with_class_indicators() {
        for (report, id) in [
            (e19_benor::run(&RunCtx::new(Scale::Smoke, 2)), "e19"),
            (e20_brb::run(&RunCtx::new(Scale::Smoke, 2)), "e20"),
        ] {
            let doc = smoke_document(&report);
            assert!(
                doc.contains("\"agreement_violation\""),
                "{id} lacks safety indicators"
            );
            assert!(doc.contains("\"validity_violation\""));
            assert!(doc.contains("\"decided\""));
            // e19's adversarial cells carry the budget auditor's telemetry.
            if id == "e19" {
                assert!(doc.contains("\"adv_max_edge_mean\""));
                assert!(doc.contains("\"adv_violations\""));
            }
        }
    }
}

mod sync_regression {
    //! Data-plane determinism regressions: anti-entropy's dirty-key draws,
    //! gossip pairings, and digest walks all come from per-node
    //! `SeedStream` children, so e21 and e22 must stay bit-identical
    //! across worker counts — and their documents must carry the
    //! convergence indicators the campaign oracles read.

    use super::*;
    use abe_bench::experiments::{e21_antientropy, e22_churn_sync};

    #[test]
    fn e21_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e21_antientropy::run);
    }

    #[test]
    fn e22_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e22_churn_sync::run);
    }

    #[test]
    fn sync_experiment_documents_are_valid_json_with_convergence_indicators() {
        for (report, id) in [
            (e21_antientropy::run(&RunCtx::new(Scale::Smoke, 2)), "e21"),
            (e22_churn_sync::run(&RunCtx::new(Scale::Smoke, 2)), "e22"),
        ] {
            let doc = smoke_document(&report);
            assert!(
                doc.contains("\"converged\"") && doc.contains("\"residual_divergence\""),
                "{id} lacks convergence indicators"
            );
            assert!(doc.contains("\"wire_bytes\""));
            assert!(doc.contains("\"sync_entries_sent\""));
            assert!(doc.contains("\"payload_bytes\""));
        }
    }
}

mod scenario_differential {
    //! The experiments with a committed `.abes` file *are* that file:
    //! at smoke scale each one runs its scenario unchanged, and the
    //! campaign diffs every scenario's document against its committed
    //! golden — so the goldens pin the experiments themselves.

    use super::*;
    use abe_bench::experiments::{
        e14_crash_churn, e17_adversary, e19_benor, e1_messages, e21_antientropy,
    };
    use abe_scenario::campaign::{run_campaign, CampaignOptions};
    use abe_scenario::{compile, parse};
    use std::path::{Path, PathBuf};

    fn corpus_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
    }

    fn corpus_scenario(file: &str) -> abe_scenario::Scenario {
        let path = corpus_dir().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        parse(&text).unwrap_or_else(|e| panic!("parsing {file}: {e}"))
    }

    #[test]
    fn smoke_experiments_run_their_committed_scenarios_unchanged() {
        let ctx = RunCtx::smoke();
        assert_eq!((ctx.base_seed, ctx.shards), (0, 1));
        for (file, compiled) in [
            ("e1_messages.abes", e1_messages::scenario(&ctx)),
            ("e14_crash_churn.abes", e14_crash_churn::scenario(&ctx)),
            ("e17_adversary.abes", e17_adversary::scenario(&ctx)),
            ("e19_benor.abes", e19_benor::scenario(&ctx)),
            ("e21_antientropy.abes", e21_antientropy::scenario(&ctx)),
        ] {
            assert_eq!(compiled.scenario(), &corpus_scenario(file), "{file}");
        }
    }

    #[test]
    fn committed_corpus_matches_its_goldens() {
        let report = run_campaign(&CampaignOptions {
            scenarios_dir: corpus_dir(),
            goldens_dir: corpus_dir().join("goldens"),
            threads: 2,
            shards: 1,
            bless: false,
        })
        .expect("the corpus directory lists");
        assert!(!report.results.is_empty(), "no scenarios in the corpus");
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn campaign_documents_are_valid_json() {
        let scenario = corpus_scenario("e1_messages.abes");
        let outcome = compile(&scenario).unwrap().run(2).unwrap();
        let doc = abe_scenario::campaign::document(&scenario, &outcome);
        assert_valid_json(&doc);
        assert!(doc.starts_with("{\"schema\":\"abe-scenario/campaign-v1\""));
        assert!(doc.contains("\"scenario\":\"e1_messages\""));
    }
}

mod perf_harness {
    //! The `abe-perf` JSON document must parse and pass the same
    //! [`KernelBench::check`](abe_bench::perf::KernelBench::check) that
    //! fails the `abe-perf` binary.

    use super::assert_valid_json;
    use abe_bench::perf::{self, ParamValue, PerfMode};

    #[test]
    fn kernel_bench_smoke_document_is_valid_json_with_throughput() {
        let bench = perf::run(PerfMode::Smoke);
        let names: Vec<_> = bench.suites.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "queue_churn",
                "ring_election",
                "ring_election_parallel",
                "fault_storm",
                "sync_antientropy",
            ]
        );
        bench.check().unwrap();
        let doc = bench.to_json();
        assert_valid_json(&doc);
        assert!(doc.starts_with("{\"schema\":\"abe-bench/kernel-v1\""));
        for field in names
            .iter()
            .chain(&["speedup", "speedup_vs_seq", "work_inflation"])
        {
            assert!(doc.contains(&format!("\"{field}\"")), "{field}");
        }
        // One activation shape: every election cell is one token's lap.
        for cell in &bench.suites[1].cells {
            let Some(&ParamValue::U64(n)) = cell.param("n") else {
                panic!("ring_election cell without n: {}", cell.label());
            };
            assert_eq!(cell.events, 2 * n + 1, "ring_election at n={n}");
        }
    }
}

mod fault_regression {
    //! Fault-layer determinism regressions: an **empty** `FaultPlan` must
    //! not perturb a single byte of sweep output, and the new fault
    //! experiments must stay bit-identical across worker counts.

    use super::*;
    use abe_bench::experiments::{e14_crash_churn, e15_partitions};
    use abe_core::fault::FaultPlan;
    use abe_core::RunConfig;
    use abe_election::{run_abe_calibrated, RingConfig};
    use std::sync::Arc;

    #[test]
    fn e1_smoke_json_is_unchanged_by_an_explicit_empty_fault_plan() {
        // Baseline: e1 as shipped (its runner never touches the fault API).
        let baseline = abe_bench::experiments::e1_messages::run(&RunCtx::new(Scale::Smoke, 1));
        // The same grid, but every run built with an explicitly-empty
        // FaultPlan. The metric block must be byte-identical: installing
        // the fault layer without faults is invisible to the JSON.
        let spec = SweepSpec::new().axis_u32("n", &[8, 16, 64]).seeds(10);
        let replayed = run_sweep(&spec, 1, |cell| {
            let cfg = RingConfig::new(
                cell.u32("n"),
                RunConfig::new()
                    .delay(Arc::new(
                        abe_core::delay::Exponential::from_mean(abe_bench::experiments::DELTA)
                            .unwrap(),
                    ))
                    .seed(cell.seed())
                    .fault(FaultPlan::new()),
            );
            let o = run_abe_calibrated(&cfg, abe_bench::experiments::A);
            CellMetrics::new()
                .metric("knockouts", o.report.counter("knockouts") as f64)
                .with_election(&o)
        })
        .unwrap();
        assert_eq!(baseline.sweep.metrics_json(), replayed.metrics_json());
    }

    #[test]
    fn e14_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e14_crash_churn::run);
    }

    #[test]
    fn e15_smoke_is_byte_identical_across_thread_counts() {
        assert_engine_invariant(e15_partitions::run);
    }

    #[test]
    fn fault_experiment_documents_are_valid_json_with_fault_counters() {
        for (report, id) in [
            (e14_crash_churn::run(&RunCtx::new(Scale::Smoke, 2)), "e14"),
            (e15_partitions::run(&RunCtx::new(Scale::Smoke, 2)), "e15"),
        ] {
            let doc = smoke_document(&report);
            assert!(
                doc.contains("\"fault_crashes\""),
                "{id} lacks fault telemetry"
            );
            assert!(doc.contains("\"fault_dropped_partition\""));
        }
    }
}
