//! `abe-benchmark` — the repo benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! abe-benchmark run    [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
//! abe-benchmark repeat [--seed S] [--seconds N] [--smoke]
//! abe-benchmark manifest
//! ```
//!
//! `run --workload NAME` measures one workload in this process and prints
//! its result object as the last line of standard output. Without
//! `--workload`, `run` starts one child process per workload, so each
//! workload's peak memory and allocator state are its own.

mod adapter;
mod digest;
mod metrics;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::{END_TO_END, RUN_SECONDS, WORKLOADS};
use report::RunResult;
use workloads::Settings;

const USAGE: &str = "usage: abe-benchmark run [--workload NAME] [--seed S] [--seconds N] \
                     [--trace 0|1] [--out DIR] [--smoke]\n       \
                     abe-benchmark repeat [--seed S] [--seconds N] [--smoke]\n       \
                     abe-benchmark manifest";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}`; known: {}",
                        known.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a non-negative number"))?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                };
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        workers: workloads::workers(),
    };
    let outcome = workloads::measure(name, &settings).expect("workload names are validated");
    print!("{}", report::human(&outcome, &settings));
    if args.traced {
        let path = args.out.join(format!("trace-{name}.jsonl"));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, span::render_jsonl(&outcome.spans, name)));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let result = RunResult::from_outcome(&outcome, args.traced);
    match result.to_json() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent keeps of one child's run.
struct ChildRun {
    result: RunResult,
    sim_digest: String,
}

/// Runs one workload in a fresh child process, echoing its output.
fn run_child(name: &str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before it returns.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, body) = lines
        .split_last()
        .ok_or_else(|| format!("{name}: child printed nothing"))?;
    for line in body {
        println!("{line}");
    }
    let result = RunResult::from_json(last).map_err(|e| format!("{name}: {e}"))?;
    let sim_digest = body
        .iter()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .ok_or_else(|| format!("{name}: child printed no sim_digest"))?
        .to_string();
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{name}: {} of {} checks failed ({})",
            result.failed, result.attempted, output.status
        ));
    }
    Ok(ChildRun { result, sim_digest })
}

/// Runs every workload once, each in its own child process.
fn run_set(args: &Args) -> Result<Vec<(&'static str, ChildRun)>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w.name, args).map(|run| (w.name, run)))
        .collect()
}

/// `repeat`: the untraced set twice; every workload × end-to-end metric
/// must agree within its bound and every `sim_digest` exactly.
fn repeat(args: &Args) -> ExitCode {
    let args = Args {
        traced: false,
        ..args.clone()
    };
    let sets = match (run_set(&args), run_set(&args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "\n{:<20} {:<13} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for ((name, first), (_, second)) in sets.0.iter().zip(&sets.1) {
        for (metric, bound) in &END_TO_END {
            let value = |run: &ChildRun| run.result.metric(metric.name).unwrap_or(f64::NAN);
            let (a, b) = (value(first), value(second));
            let diff = (b - a).abs() / a.abs();
            let ok = diff <= *bound;
            agree &= ok;
            println!(
                "{name:<20} {:<13} {:>14} {:>14} {:>7.2}% {:>6.0}%{}",
                metric.name,
                report::six_digits(a),
                report::six_digits(b),
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  <-- beyond its bound" }
            );
        }
        let same = first.sim_digest == second.sim_digest;
        agree &= same;
        println!(
            "{name:<20} {:<13} {:>14} {:>14} {}",
            "sim_digest",
            first.sim_digest,
            second.sim_digest,
            if same { "identical" } else { "<-- DIFFERS" }
        );
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "manifest" && rest.is_empty() {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(name, &args),
        ("run", None) => match run_set(&args) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        ("repeat", None) => repeat(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let args = parse_args(&argv(&[
            "--workload",
            "sync-digest",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("sync-digest"));
        assert_eq!((args.seed, args.seconds, args.traced), (7, 3.0, true));
        assert!(!args.smoke);
    }

    #[test]
    fn defaults_are_seed_one_untraced_and_the_manifest_seconds() {
        let args = parse_args(&[]).unwrap();
        assert_eq!(args.workload, None);
        assert_eq!((args.seed, args.traced), (1, false));
        assert_eq!(args.seconds, f64::from(RUN_SECONDS));
    }

    #[test]
    fn bad_input_is_named_not_panicked_on() {
        for (bad, needle) in [
            (vec!["--workload", "nope"], "unknown workload"),
            (vec!["--seed", "x"], "--seed"),
            (vec!["--seconds", "-1"], "--seconds"),
            (vec!["--trace", "2"], "--trace"),
            (vec!["--seed"], "needs a value"),
            (vec!["--frobnicate"], "unknown argument"),
        ] {
            let err = parse_args(&argv(&bad)).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }
}
