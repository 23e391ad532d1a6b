//! Fuzz smoke: the seeded random-scenario generator, run end to end.
//!
//! 32 generated scenarios are compiled and executed, and every one is
//! held to the three standing oracles:
//!
//! 1. **Determinism** — the campaign document (and therefore the full
//!    sweep JSON) is byte-identical at 1 worker and at 4 workers.
//! 2. **Budget audit** — wherever an `adv_violations` counter appears,
//!    it is zero: every adversarial run was a legal ABE execution.
//! 3. **Outcome class** — each cell's classified outcome is consistent
//!    with the scenario's declared `expect` line (wrong leaders are
//!    violations everywhere; stalls only where `expect mixed`).
//!
//! The class the oracles read is the run's own, carried in an unrendered
//! slot; every cell's slot must name the class its rendered indicator
//! metrics name, here and in every committed `scenarios/*.abes` file.
//!
//! Every scenario is accounted for: compile failures and run failures
//! are test failures, not silent skips, and `cells_checked` must equal
//! the sweep's actual cell count so no cell can fall out of the audit.
//!
//! The seed is fixed so CI failures reproduce locally with
//! `cargo test -p abe-scenario --test fuzz_smoke`.

use std::collections::BTreeSet;

use abe_scenario::campaign::{check_oracles, document};
use abe_scenario::model::OutcomeClass;
use abe_scenario::{compile, fuzz, parse, Workload};
use abe_sweep::{CellMetrics, SweepOutcome};

/// Matches the `--fuzz-seed` default wired into CI.
const SEED: u64 = 0xabe5_0000_2026_0808;
const COUNT: u32 = 32;

#[test]
fn thirty_two_random_scenarios_satisfy_every_oracle() {
    let corpus = fuzz::corpus(COUNT, SEED);
    assert_eq!(corpus.len(), COUNT as usize, "generator dropped scenarios");

    let mut failures = Vec::new();
    for scenario in &corpus {
        let name = scenario.name.clone();
        let compiled = match compile(scenario) {
            Ok(c) => c,
            Err(e) => {
                failures.push((name.clone(), format!("compile failed: {e}")));
                continue;
            }
        };

        // Oracle 1: determinism across worker counts.
        let single = match compiled.run(1) {
            Ok(o) => o,
            Err(e) => {
                failures.push((name.clone(), format!("run(1) failed: {e}")));
                continue;
            }
        };
        let multi = match compiled.run(4) {
            Ok(o) => o,
            Err(e) => {
                failures.push((name.clone(), format!("run(4) failed: {e}")));
                continue;
            }
        };
        let doc = document(scenario, &single);
        if doc != document(scenario, &multi) {
            failures.push((
                name.clone(),
                "document differs between 1 and 4 workers".to_string(),
            ));
            continue;
        }

        for line in slot_disagreements(&scenario.workload, &single) {
            failures.push((name.clone(), line));
        }

        // Oracles 2 and 3: budget audit + outcome-class consistency.
        let report = check_oracles(scenario, &single);
        assert_eq!(
            report.cells_checked,
            single.cells.len(),
            "{name}: oracle pass skipped cells"
        );
        for violation in &report.violations {
            failures.push((name.clone(), violation.to_string()));
        }
    }

    // One scenario can fail on several lines (one per violating cell):
    // count scenarios, list every line.
    let failed: BTreeSet<&str> = failures.iter().map(|(name, _)| name.as_str()).collect();
    let lines: Vec<String> = failures
        .iter()
        .map(|(name, line)| format!("{name}: {line}"))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {COUNT} fuzz scenarios failed:\n  {}",
        failed.len(),
        lines.join("\n  ")
    );
}

/// Whether a cell's class slot names the class its rendered indicators
/// name: `leaders` for the election and adversary sets, the set
/// indicator for the classified and consensus sets, `converged` and its
/// `residual_divergence` witness for the sync set.
fn slot_agrees(workload: &Workload, m: &CellMetrics) -> bool {
    use OutcomeClass::*;
    let Some(class) = m.get_class() else {
        return false;
    };
    let indicators = |set: &[(&str, OutcomeClass)]| {
        set.iter()
            .all(|&(name, c)| m.get(name) == Some(f64::from(c == class)))
    };
    match workload {
        Workload::Election(_) | Workload::Adversary(_) => match (class, m.get("leaders")) {
            (Completed, Some(l)) => l == 1.0,
            (Stalled, Some(l)) => l == 0.0,
            (WrongLeader, Some(l)) => l >= 2.0,
            _ => false,
        },
        Workload::Classified(_) => indicators(&[
            ("completed", Completed),
            ("stalled", Stalled),
            ("wrong_leader", WrongLeader),
        ]),
        Workload::Benor | Workload::Brb => indicators(&[
            ("decided", Decided),
            ("stalled", Stalled),
            ("agreement_violation", AgreementViolation),
            ("validity_violation", ValidityViolation),
        ]),
        Workload::Antientropy { .. } => {
            let witness = m.get("residual_divergence");
            indicators(&[("converged", Decided)])
                && witness.is_some_and(|r| (r == 0.0) == (class == Decided))
        }
    }
}

/// One line per cell whose class slot disagrees with its indicators.
fn slot_disagreements(workload: &Workload, outcome: &SweepOutcome) -> Vec<String> {
    outcome
        .cells
        .iter()
        .filter(|c| !slot_agrees(workload, &c.metrics))
        .map(|c| format!("{}: class slot {:?}", c.cell.label(), c.metrics.get_class()))
        .collect()
}

#[test]
fn committed_scenarios_record_the_class_their_indicators_name() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "abes"))
        .collect();
    assert_eq!(files.len(), 5, "{files:?}");
    let mut failures = Vec::new();
    for file in &files {
        let scenario = parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        let outcome = compile(&scenario).unwrap().run(2).unwrap();
        for line in slot_disagreements(&scenario.workload, &outcome) {
            failures.push(format!("{}: {line}", scenario.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The corpus itself is a pure function of (count, seed): re-deriving
/// it must reproduce the same scenarios, so a CI failure names exactly
/// the scenario a local rerun will regenerate.
#[test]
fn corpus_is_reproducible_from_the_fixed_seed() {
    let a = fuzz::corpus(8, SEED);
    let b = fuzz::corpus(8, SEED);
    assert_eq!(a, b);
    let prefix = fuzz::corpus(4, SEED);
    assert_eq!(&a[..4], &prefix[..], "corpus is not prefix-stable");
}
