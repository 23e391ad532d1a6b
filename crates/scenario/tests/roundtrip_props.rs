//! Property tests for the `.abes` scenario language.
//!
//! Two contracts keep the corpus trustworthy as the grammar grows:
//!
//! 1. **Round-trip identity** — `parse(print(s)) == s` for every
//!    scenario the generator can produce, and `print` is a fixed point
//!    (printing the re-parsed scenario yields the same bytes). Goldens
//!    are keyed by the printed form, so a lossy printer would silently
//!    decouple a golden from the scenario that produced it.
//! 2. **Compile or explain** — feeding the compiler structurally valid
//!    but semantically dubious scenarios must either succeed or return
//!    a [`ScenarioError`] that names the offending field. Panics and
//!    anonymous errors are both failures: the campaign runner surfaces
//!    these messages directly to whoever edited the scenario file.

use proptest::prelude::*;

use abe_scenario::model::{
    AdversarySpec, AxisValues, Bind, DelaySpec, ElectionProtocol, ScenarioError, Workload,
};
use abe_scenario::{compile, fuzz, parse};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generator-produced scenario survives parse→print→parse
    /// unchanged, and its printed form is a fixed point.
    #[test]
    fn print_parse_round_trip_is_identity(seed in 0u64..1_000_000_000) {
        let scenario = fuzz::random_scenario(seed);
        let printed = scenario.print();
        let reparsed = parse(&printed)
            .map_err(|e| TestCaseError::fail(format!("reparse failed (seed {seed}): {e}")))?;
        prop_assert_eq!(&reparsed, &scenario, "round-trip changed the scenario (seed {})", seed);
        prop_assert_eq!(reparsed.print(), printed, "print is not a fixed point (seed {})", seed);
    }

    /// Generator output always compiles: the fuzz corpus is usable as-is.
    #[test]
    fn generated_scenarios_always_compile(seed in 0u64..1_000_000_000) {
        let scenario = fuzz::random_scenario(seed);
        if let Err(e) = compile(&scenario) {
            return Err(TestCaseError::fail(format!(
                "generated scenario failed to compile (seed {seed}): {e}\n{}",
                scenario.print()
            )));
        }
    }

    /// Perturbed scenarios — a generated scenario with one numeric field
    /// pushed toward an edge — either compile or produce a structured
    /// error naming a field. Never a panic, never an anonymous error.
    #[test]
    fn perturbed_scenarios_compile_or_name_the_field(
        seed in 0u64..1_000_000_000,
        knob in 0usize..8,
        raw in -4.0f64..4.0,
    ) {
        let mut scenario = fuzz::random_scenario(seed);
        // The interesting compile edges all live near zero: a <= 0,
        // shape <= 1, burst-p outside (0, 1], non-positive budgets.
        let value = raw;
        match knob {
            0 | 1 => {
                // Swap the election protocol; a consensus or sync
                // scenario becomes a plain election on the complete graph.
                let protocol = if knob == 0 {
                    ElectionProtocol::AbeCalibrated { a: value }
                } else {
                    ElectionProtocol::Abe { a0: value }
                };
                match &mut scenario.workload {
                    Workload::Election(p) | Workload::Classified(p) | Workload::Adversary(p) => {
                        *p = protocol;
                    }
                    other => *other = Workload::Election(protocol),
                }
            }
            2 => scenario.delay = DelaySpec::Exponential { mean: value },
            3 => scenario.delay = DelaySpec::Pareto { shape: value, mean: 1.0 },
            4 => {
                scenario.adversary = Some(AdversarySpec {
                    strategy: Bind::Fixed("swap".to_string()),
                    budget: Bind::Fixed(value),
                    burst_p: 0.05,
                    pareto_shape: 2.5,
                });
            }
            5 => {
                scenario.adversary = Some(AdversarySpec {
                    strategy: Bind::Fixed("burst".to_string()),
                    budget: Bind::Fixed(1.0),
                    burst_p: value,
                    pareto_shape: 2.5,
                });
            }
            6 => scenario.seeds = (value.abs() as u64).min(4),
            _ => {
                if let Some(axis) = scenario.axes.first_mut() {
                    if let AxisValues::F64(values) = &mut axis.values {
                        values.clear();
                        values.push(value);
                    }
                }
            }
        }
        match compile(&scenario) {
            Ok(_) => {}
            Err(ScenarioError::Field { field, message }) => {
                prop_assert!(!field.is_empty(), "empty field path in error: {}", message);
                prop_assert!(!message.is_empty(), "empty message for field {}", field);
            }
            Err(ScenarioError::Missing { field }) => {
                prop_assert!(!field.is_empty(), "missing-error with empty field path");
            }
            Err(e @ ScenarioError::Syntax { .. }) => {
                return Err(TestCaseError::fail(format!(
                    "compile returned a syntax error for an in-memory scenario: {e}"
                )));
            }
        }
    }

    /// The parser never panics on line-mangled input: deleting,
    /// duplicating, or truncating lines of a valid scenario yields
    /// either a scenario or a syntax error with a line number.
    #[test]
    fn mangled_text_parses_or_reports_a_line(
        seed in 0u64..1_000_000_000,
        victim in 0usize..16,
        mode in 0usize..3,
        cut in 0usize..24,
    ) {
        let printed = fuzz::random_scenario(seed).print();
        let mut lines: Vec<String> = printed.lines().map(str::to_string).collect();
        let idx = victim % lines.len();
        match mode {
            0 => {
                lines.remove(idx);
            }
            1 => {
                let dup = lines[idx].clone();
                lines.insert(idx, dup);
            }
            _ => {
                let line = &mut lines[idx];
                let end = cut.min(line.len());
                // Truncate at a char boundary at or below `end`.
                let mut end = end;
                while !line.is_char_boundary(end) {
                    end -= 1;
                }
                line.truncate(end);
            }
        }
        let mangled = lines.join("\n");
        match parse(&mangled) {
            Ok(s) => {
                // Whatever parsed must still round-trip.
                let reparsed = parse(&s.print())
                    .map_err(|e| TestCaseError::fail(format!("mangled round-trip: {e}")))?;
                prop_assert_eq!(reparsed, s);
            }
            Err(ScenarioError::Syntax { line, .. }) => {
                prop_assert!(line <= lines.len() + 1, "syntax error past end of input");
            }
            Err(ScenarioError::Missing { field }) => {
                prop_assert!(!field.is_empty());
            }
            Err(ScenarioError::Field { field, .. }) => {
                prop_assert!(!field.is_empty());
            }
        }
    }
}
