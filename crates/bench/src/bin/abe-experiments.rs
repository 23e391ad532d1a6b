//! Command-line harness regenerating every experiment in `docs/PAPER_MAP.md`.
//!
//! ```text
//! abe-experiments                 # run everything at quick scale
//! abe-experiments --full          # paper-scale sweeps
//! abe-experiments --smoke         # minimal grids (CI perf gate)
//! abe-experiments e1 e4 e6        # a subset
//! abe-experiments --threads 8     # sweep-engine worker count
//! abe-experiments --shards 2      # parallel kernel shards inside each run
//! abe-experiments --json PATH     # machine-readable output (see below)
//! abe-experiments --list          # show the registry
//! abe-experiments --out FILE      # additionally write markdown to FILE
//! abe-experiments --csv DIR       # additionally write one CSV per experiment
//! ```
//!
//! `--json PATH` emits one self-describing document per experiment
//! (schema `abe-bench/sweep-v1`): if exactly one experiment is selected
//! and `PATH` ends in `.json` it is written to that file, otherwise
//! `PATH` is treated as a directory receiving `<id>.json` per experiment.
//! The `"sweep"` block of each document is byte-identical for any
//! `--threads` value.
//!
//! The `campaign` subcommand runs the `scenarios/` corpus against its
//! committed goldens (e1, e14, e17, e19 and e21 run those same files):
//!
//! ```text
//! abe-experiments campaign                   # run scenarios/, diff goldens
//! abe-experiments campaign --bless           # rewrite the goldens
//! abe-experiments campaign --fuzz 32         # + 32 seeded random scenarios
//! abe-experiments campaign --fuzz-seed 7     # ... reproducibly
//! ```
//!
//! The campaign exits nonzero on any golden drift, missing golden, or
//! outcome-oracle violation. See `docs/SCENARIO.md`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use abe_bench::{registry, sweep, trace_cli, RunCtx, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("campaign") {
        return campaign_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return trace_main(&args[1..]);
    }
    let mut scale = Scale::Quick;
    let mut selected: Vec<String> = Vec::new();
    let mut out_file: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut threads: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shards: u32 = 1;
    let mut list_only = false;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--smoke" => scale = Scale::Smoke,
            "--list" => list_only = true,
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => {
                    eprintln!("--shards requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file or directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(path) => out_file = Some(path),
                None => {
                    eprintln!("--out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => match iter.next() {
                Some(dir) => csv_dir = Some(dir),
                None => {
                    eprintln!("--csv requires a directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            id if id.starts_with('-') => {
                eprintln!("unknown flag: {id} (try --help)");
                return ExitCode::FAILURE;
            }
            id => selected.push(id.to_ascii_lowercase()),
        }
    }

    let experiments = registry();
    if list_only {
        for e in &experiments {
            println!("{:>4}  {}", e.id, e.about);
        }
        return ExitCode::SUCCESS;
    }

    for id in &selected {
        if !experiments.iter().any(|e| e.id == id) {
            eprintln!("unknown experiment id: {id} (try --list)");
            return ExitCode::FAILURE;
        }
    }

    let to_run: Vec<_> = experiments
        .iter()
        .filter(|e| selected.is_empty() || selected.iter().any(|s| s == e.id))
        .collect();

    // Single-file JSON mode only makes sense for a single experiment.
    if let Some(path) = &json_path {
        if path.ends_with(".json") && to_run.len() != 1 {
            eprintln!(
                "--json {path}: a .json file path needs exactly one selected experiment \
                 ({} selected); pass a directory instead",
                to_run.len()
            );
            return ExitCode::FAILURE;
        }
    }

    let mut ctx = RunCtx::new(scale, threads);
    ctx.shards = shards;
    let mut rendered = String::new();
    for e in to_run {
        let started = Instant::now();
        eprintln!(
            "running {} ({}) [{} scale, {threads} threads, {shards} shards] ...",
            e.id,
            e.about,
            scale.name()
        );
        let report = (e.run)(&ctx);
        eprintln!(
            "  done in {:.1?} ({} cells, sweep {:.1?})",
            started.elapsed(),
            report.sweep.cells.len(),
            report.sweep.wall_clock
        );
        let section = report.to_string();
        println!("{section}");
        rendered.push_str(&section);
        rendered.push('\n');
        if let Some(dir) = &csv_dir {
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create {dir}: {err}");
                return ExitCode::FAILURE;
            }
            let path = format!("{dir}/{}.csv", e.id);
            match std::fs::File::create(&path)
                .and_then(|mut f| f.write_all(report.table.to_csv().as_bytes()))
            {
                Ok(()) => eprintln!("  wrote {path}"),
                Err(err) => {
                    eprintln!("failed to write {path}: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &json_path {
            let document = sweep::json::document(&report, scale.name());
            let target = if path.ends_with(".json") {
                path.clone()
            } else {
                format!("{path}/{}.json", e.id)
            };
            if let Err(err) = write_creating_dirs(&target, document.as_bytes()) {
                eprintln!("failed to write {target}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("  wrote {target}");
        }
    }

    if let Some(path) = out_file {
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(rendered.as_bytes())) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(err) => {
                eprintln!("failed to write {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}

/// The `trace` subcommand: re-run one grid cell of a traceable
/// experiment with telemetry recording on, emit `trace-v1` JSONL and
/// the analysis report, or run the differential `--check`.
fn trace_main(args: &[String]) -> ExitCode {
    use abe_core::Recording;

    let mut scale = Scale::Quick;
    let mut experiment: Option<String> = None;
    let mut selectors: Vec<(String, String)> = Vec::new();
    let mut rep: u64 = 0;
    let mut threads: usize = 1;
    let mut shards: u32 = 1;
    let mut out: Option<String> = None;
    let mut cap: Option<usize> = None;
    let mut chain: Option<(u32, u64)> = None;
    let mut check = false;
    let mut list_only = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--smoke" => scale = Scale::Smoke,
            "--list" => list_only = true,
            "--check" => check = true,
            "--cell" => match iter.next().and_then(|v| v.split_once('=')) {
                Some((k, v)) => selectors.push((k.to_string(), v.to_string())),
                None => {
                    eprintln!("--cell requires an AXIS=VALUE pair");
                    return ExitCode::FAILURE;
                }
            },
            "--rep" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(r) => rep = r,
                None => {
                    eprintln!("--rep requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => {
                    eprintln!("--shards requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("--out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--cap" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cap = Some(n),
                None => {
                    eprintln!("--cap requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            },
            "--chain" => {
                let parsed = iter.next().and_then(|v| {
                    let (e, s) = v.split_once(':')?;
                    Some((e.parse::<u32>().ok()?, s.parse::<u64>().ok()?))
                });
                match parsed {
                    Some(pair) => chain = Some(pair),
                    None => {
                        eprintln!("--chain requires EDGE:SEQ (two unsigned integers)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "abe-experiments trace — re-run one grid cell with recording on\n\n\
                     USAGE:\n  abe-experiments trace EXPERIMENT [--smoke|--quick|--full]\n\
                     [--cell AXIS=VALUE]... [--rep N] [--shards N] [--threads N]\n\
                     [--out FILE] [--cap N] [--chain EDGE:SEQ] [--check] [--list]\n\n\
                     --cell AXIS=VALUE  pin one grid coordinate (repeatable); the\n\
                                        selectors must identify exactly one combination\n\
                     --rep N            repetition index on the seed axis (default 0)\n\
                     --out FILE         write the trace-v1 JSONL file (see\n\
                                        docs/TRACE_JSON.md); bytes are identical at any\n\
                                        --threads/--shards setting\n\
                     --cap N            retain only the most recent N records\n\
                     --chain EDGE:SEQ   print the causal chain from that message\n\
                     --check            differential mode: recording on/off report\n\
                                        equality, zero drops, schema validity, shard\n\
                                        byte-identity, auditor cross-check\n\
                     --list             show the traceable experiments"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown trace flag: {flag} (try --help)");
                return ExitCode::FAILURE;
            }
            id => experiment = Some(id.to_ascii_lowercase()),
        }
    }

    let traceable = trace_cli::trace_registry();
    if list_only {
        for t in &traceable {
            println!("{:>4}  {}", t.id, t.about);
        }
        return ExitCode::SUCCESS;
    }
    let Some(id) = experiment else {
        eprintln!("trace needs an experiment id (try `trace --list`)");
        return ExitCode::FAILURE;
    };
    let Some(exp) = traceable.iter().find(|t| t.id == id) else {
        eprintln!("experiment {id} is not traceable (try `trace --list`)");
        return ExitCode::FAILURE;
    };

    let mut ctx = RunCtx::new(scale, threads);
    ctx.shards = shards;
    let compiled = (exp.scenario)(&ctx);
    let cell = match trace_cli::select_cell(&compiled.spec(), &selectors, rep) {
        Ok(cell) => cell,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "tracing {id} cell [{}] (seed {}) at {} scale, {shards} shards",
        cell.label(),
        cell.seed(),
        scale.name()
    );

    if check {
        return match trace_cli::check_cell(exp, &ctx, &cell) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("check failed: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let recording = match cap {
        Some(n) => Recording::ring(n).payloads(true).histograms(true),
        None => Recording::full().payloads(true).histograms(true),
    };
    let run = trace_cli::run_cell(&compiled, &cell, Some(recording));
    if let Some(path) = &out {
        let file =
            trace_cli::render_trace_file(&run, &trace_cli::trace_meta(id.as_str(), &ctx, &cell));
        if let Err(err) = write_creating_dirs(path, file.as_bytes()) {
            eprintln!("failed to write {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {path} ({} records, {} dropped)",
            run.recorder().len(),
            run.recorder().dropped()
        );
    }
    print!("{}", trace_cli::analysis_report(&run));
    if let Some((edge, seq)) = chain {
        print!("\n{}", trace_cli::render_chain(&run, edge, seq, 64));
    }
    ExitCode::SUCCESS
}

/// The `campaign` subcommand: run the scenario corpus against its
/// goldens, optionally followed by a seeded fuzz pass.
fn campaign_main(args: &[String]) -> ExitCode {
    use abe_scenario::campaign::{check_oracles, document, CampaignOptions};
    use abe_scenario::{compile, fuzz};

    let mut opts = CampaignOptions {
        scenarios_dir: PathBuf::from("scenarios"),
        goldens_dir: PathBuf::from("scenarios/goldens"),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        shards: 1,
        bless: false,
    };
    let mut fuzz_count: u32 = 0;
    let mut fuzz_seed: u64 = 0;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--bless" => opts.bless = true,
            "--scenarios" => match iter.next() {
                Some(dir) => opts.scenarios_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--scenarios requires a directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--goldens" => match iter.next() {
                Some(dir) => opts.goldens_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--goldens requires a directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.threads = n,
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => opts.shards = n,
                _ => {
                    eprintln!("--shards requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz" => match iter.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) => fuzz_count = n,
                None => {
                    eprintln!("--fuzz requires a scenario count");
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => fuzz_seed = s,
                None => {
                    eprintln!("--fuzz-seed requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "abe-experiments campaign — run the declarative scenario corpus\n\n\
                     USAGE:\n  abe-experiments campaign [--scenarios DIR] [--goldens DIR]\n\
                     [--threads N] [--shards N] [--bless] [--fuzz N] [--fuzz-seed S]\n\n\
                     --scenarios DIR  corpus of .abes files (default: scenarios)\n\
                     --goldens DIR    committed goldens (default: scenarios/goldens)\n\
                     --shards N       parallel-kernel shards per cell run (documents\n\
                                      are byte-identical for any N)\n\
                     --bless          rewrite goldens from this run\n\
                     --fuzz N         also run N seeded random scenarios through the\n\
                                      outcome + determinism oracles\n\
                     --fuzz-seed S    seed for --fuzz (default 0); a failing scenario\n\
                                      is reproducible from its printed seed\n\n\
                     Exits nonzero on any golden drift, missing golden, or oracle\n\
                     violation. See docs/SCENARIO.md."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown campaign argument: {other} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "campaign: corpus {} vs goldens {} [{} threads, {} shards]{}",
        opts.scenarios_dir.display(),
        opts.goldens_dir.display(),
        opts.threads,
        opts.shards,
        if opts.bless { " (blessing)" } else { "" }
    );
    let report = match abe_scenario::run_campaign(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot list {}: {e}", opts.scenarios_dir.display());
            return ExitCode::FAILURE;
        }
    };
    if report.results.is_empty() {
        eprintln!(
            "no .abes scenarios found in {}",
            opts.scenarios_dir.display()
        );
        return ExitCode::FAILURE;
    }
    print!("{}", report.render());
    let mut ok = report.ok();

    if fuzz_count > 0 {
        eprintln!("fuzz: {fuzz_count} scenarios from seed {fuzz_seed}");
        let mut failures = 0u32;
        for scenario in fuzz::corpus(fuzz_count, fuzz_seed) {
            let compiled = match compile(&scenario) {
                Ok(c) => c,
                Err(e) => {
                    println!("FUZZ    {}: does not compile: {e}", scenario.name);
                    failures += 1;
                    continue;
                }
            };
            let (a, b) = match (compiled.run(opts.threads), compiled.run(1)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    println!("FUZZ    {}: run failed: {e}", scenario.name);
                    failures += 1;
                    continue;
                }
            };
            if document(&scenario, &a) != document(&scenario, &b) {
                println!(
                    "FUZZ    {}: document differs between {} threads and 1",
                    scenario.name, opts.threads
                );
                failures += 1;
                continue;
            }
            let oracle = check_oracles(&scenario, &a);
            if !oracle.ok() {
                println!(
                    "FUZZ    {}: {} of {} cells violate the outcome oracles:",
                    scenario.name,
                    oracle.violations.len(),
                    oracle.cells_checked
                );
                for v in oracle.violations.iter().take(3) {
                    println!("        {v}");
                }
                failures += 1;
            }
        }
        println!(
            "fuzz: {}/{fuzz_count} scenarios ok (seed {fuzz_seed})",
            fuzz_count - failures
        );
        ok &= failures == 0;
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `bytes` to `path`, creating missing parent directories.
fn write_creating_dirs(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::File::create(path).and_then(|mut f| f.write_all(bytes))
}

fn print_help() {
    println!(
        "abe-experiments — regenerate the ABE-networks evaluation\n\n\
         USAGE:\n  abe-experiments [--full|--quick|--smoke] [--threads N] [--json PATH]\n\
                  [--list] [--out FILE] [--csv DIR] [IDS...]\n\n\
         IDS: e1 .. e22 (default: all). See docs/PAPER_MAP.md for the\n\
         experiment-to-paper-claim mapping.\n\n\
         --smoke     minimal grids (CI perf gate)\n\
         --threads N sweep-engine worker count (default: all cores);\n\
                     results are bit-identical for any N\n\
         --shards N  deterministic parallel kernel shards per simulation\n\
                     (default 1 = sequential); results are bit-identical\n\
                     for any N\n\
         --json PATH one self-describing JSON document per experiment\n\
                     (single .json file for one experiment, else a directory)\n\n\
         SUBCOMMANDS:\n  campaign  run the declarative scenario corpus against its goldens\n\
                   (see `abe-experiments campaign --help` and docs/SCENARIO.md)\n\
  trace     re-run one grid cell with telemetry recording on, emitting\n\
                   trace-v1 JSONL and an analysis report (see\n\
                   `abe-experiments trace --help` and docs/TRACE_JSON.md)"
    );
}
