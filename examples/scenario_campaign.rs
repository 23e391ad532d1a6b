//! Scenario campaign: run one `.abes` experiment as data.
//!
//! The `scenarios/` corpus describes complete experiments — topology,
//! delay model, fault plan, adversary plan, protocol, grid axes, seeds
//! and the expected outcome class — in a compact text form. This example
//! walks the whole path by hand: parse `scenarios/e14_crash_churn.abes`,
//! compile it down to a sweep over the deterministic engine, run it, and
//! print every grid cell's outcome class — the one its run reported,
//! which the campaign oracles read — next to the scenario's declared
//! expectation. The final line reports the standing oracles
//! (outcome class, adversary budget audit) over the run.
//!
//! The same corpus is what `abe-experiments campaign` diffs against the
//! committed goldens in CI; see `docs/SCENARIO.md` for the grammar.
//!
//! Run with:
//!
//! ```console
//! $ cargo run --example scenario_campaign
//! ```

use std::fs;
use std::process::ExitCode;

use abe_networks::scenario::campaign::check_oracles;
use abe_networks::scenario::{compile, parse};

const SCENARIO: &str = "scenarios/e14_crash_churn.abes";
const THREADS: usize = 4;

fn main() -> ExitCode {
    let text = match fs::read_to_string(SCENARIO) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{SCENARIO}: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    let scenario = parse(&text).expect("corpus scenario parses");
    let compiled = compile(&scenario).expect("corpus scenario compiles");

    println!("scenario {}", scenario.name);
    println!(
        "  record {}   expect {}   {} cells\n",
        scenario.workload.record(),
        scenario.expect.as_str(),
        compiled.spec().expand().len(),
    );

    let outcome = compiled.run(THREADS).expect("sweep runs");

    println!("  {:<40} outcome", "cell");
    for result in &outcome.cells {
        let class = result
            .metrics
            .get_class()
            .map_or("unclassified", |c| c.as_str());
        println!("  {:<40} {class}", result.cell.label());
    }

    let oracle = check_oracles(&scenario, &outcome);
    println!(
        "\noracles: {} cells checked, {} violations",
        oracle.cells_checked,
        oracle.violations.len()
    );
    for violation in &oracle.violations {
        eprintln!("  violation: {violation}");
    }
    if oracle.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
