//! Kernel macro-benchmark harness: the perf trajectory's data source.
//!
//! ```text
//! abe-perf                  # full suite, writes BENCH_kernel.json
//! abe-perf --smoke          # minimal grids (CI perf gate)
//! abe-perf --out PATH       # write the JSON document elsewhere
//! ```
//!
//! Runs the fixed suites of [`abe_bench::perf`] (queue churn against both
//! queue backends, ring elections up to 10⁶ nodes, fault-storm dispatch)
//! single-threaded, prints a human summary, and writes one
//! `abe-bench/kernel-v1` JSON document. Exits non-zero when the run
//! breaks [`KernelBench::check`](abe_bench::perf::KernelBench::check) or
//! the churn speedup falls below its floor. Run from the repo root so the
//! default output path lands `BENCH_kernel.json` where the perf
//! trajectory expects it; see `docs/BENCH_JSON.md` for the schema.

use std::io::Write;
use std::process::ExitCode;

use abe_bench::perf::{self, PerfMode};

/// The least indexed-over-heap churn speedup a run may report. On a
/// 2-vCPU x86_64 host the full suite has measured 2.1–4.5x and the smoke
/// grid about 3x; 1.5x leaves room for a noisy shared runner.
const CHURN_FLOOR: f64 = 1.5;

fn main() -> ExitCode {
    let mut mode = PerfMode::Full;
    let mut out = String::from("BENCH_kernel.json");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => mode = PerfMode::Smoke,
            "--full" => mode = PerfMode::Full,
            "--out" => match iter.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("--out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "abe-perf — kernel macro-benchmarks (queue churn, ring elections, \
                     fault storms)\n\nUSAGE:\n  abe-perf [--smoke|--full] [--out PATH]\n\n\
                     Writes an abe-bench/kernel-v1 JSON document (default: \
                     BENCH_kernel.json in the current directory)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "running kernel perf suites [{} mode, 1 thread] ...",
        mode.name()
    );
    let bench = perf::run(mode);

    for suite in &bench.suites {
        println!("## {}", suite.name);
        for cell in &suite.cells {
            println!(
                "  {:<40} {:>12} events  {:>8.3}s  {:>12.0} events/s",
                cell.label(),
                cell.events,
                cell.wall_seconds,
                cell.events_per_sec(),
            );
        }
    }
    println!(
        "## churn speedup: {:.2}x (indexed {:.0} ops/s vs heap baseline {:.0} ops/s)",
        bench.churn.speedup(),
        bench.churn.indexed_events_per_sec,
        bench.churn.baseline_events_per_sec,
    );

    let document = bench.to_json();
    match std::fs::File::create(&out).and_then(|mut f| f.write_all(document.as_bytes())) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(err) => {
            eprintln!("failed to write {out}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(err) = bench.check() {
        eprintln!("kernel bench check failed: {err}");
        return ExitCode::FAILURE;
    }
    if bench.churn.speedup() < CHURN_FLOOR {
        eprintln!(
            "churn speedup {:.2}x is below the {CHURN_FLOOR}x floor",
            bench.churn.speedup()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
