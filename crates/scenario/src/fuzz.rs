//! Seeded random scenario generation.
//!
//! [`random_scenario`] maps a `u64` seed to a complete, always-valid
//! [`Scenario`] drawn from the space the workspace already proves
//! invariants over — so every generated scenario comes with a free
//! oracle:
//!
//! * plain elections (any protocol) must complete with exactly one
//!   leader;
//! * churn scenarios are recorded classified and expect `mixed`: stalls
//!   are legal, a wrong leader never is (e14's safety finding);
//! * adversary scenarios expect `completed` with zero auditor
//!   violations (e17's legality proof);
//! * consensus scenarios (Ben-Or, reliable broadcast on the complete
//!   graph) must never violate agreement or validity; fault-free
//!   broadcast additionally expects `decided`, while Ben-Or — whose
//!   termination is probabilistic under a finite event budget — is
//!   checked as `mixed` (decide or stall, never disagree);
//! * anti-entropy sync scenarios (fault-free, on the complete graph)
//!   must converge to zero residual divergence (`decided` — the
//!   convergence-oracle suite proves exactly this invariant).
//!
//! Generation is pure seed-derivation ([`abe_sim::SeedStream`]):
//! the same seed always yields the same scenario, so a failing fuzz
//! case is reproducible from the one number the harness prints.

use abe_sim::SeedStream;

use crate::model::{
    AdversarySpec, AxisSpec, AxisValues, Bind, DelaySpec, ElectionProtocol, Expectation, FaultSpec,
    OutcomeClass, Scenario, TopologySpec, Workload, DEFAULT_BURST_P, DEFAULT_MAX_EVENTS,
    DEFAULT_PARETO_SHAPE,
};

/// Deterministic choice helper over one scenario seed.
struct Picker {
    stream: SeedStream,
}

impl Picker {
    fn new(seed: u64) -> Self {
        Self {
            stream: SeedStream::new(seed),
        }
    }

    /// A deterministic draw in `0..n`, independent per label.
    fn pick(&self, label: &str, n: u64) -> u64 {
        self.stream.child_seed(label, 0) % n
    }

    fn choose<'a, T>(&self, label: &str, items: &'a [T]) -> &'a T {
        &items[self.pick(label, items.len() as u64) as usize]
    }
}

/// Generates one always-valid scenario from a seed.
///
/// The scenario compiles (the fuzz smoke test asserts this for every
/// seed it draws) and its declared expectation is an invariant the
/// workspace already regression-tests, so running it under the
/// campaign oracles checks real behaviour, not generator luck.
pub fn random_scenario(seed: u64) -> Scenario {
    let p = Picker::new(seed);
    let name = format!("fuzz_{seed:016x}");
    let delay = random_delay(&p);
    let seeds = 2 + p.pick("seeds", 2); // 2 or 3
    let base_seed = p.pick("base-seed", 3); // 0, 1, or 2

    // Ring size: fixed, or a two-point axis.
    let (n, mut axes, max_n) = if p.pick("n-axis", 2) == 0 {
        let n = *p.choose("n", &[4u32, 6, 8, 10, 12]);
        (Some(n), Vec::new(), n)
    } else {
        let values = p.choose("n-values", &[[4u32, 8], [6, 12], [4, 10]]);
        (
            None,
            vec![AxisSpec {
                name: "n".to_string(),
                values: AxisValues::U32(values.to_vec()),
            }],
            values[1],
        )
    };

    // What every family shares; each arm sets the rest.
    let frame = |workload, topology, axes, expect| Scenario {
        name,
        workload,
        delay,
        topology,
        n,
        axes,
        seeds,
        base_seed,
        max_events: DEFAULT_MAX_EVENTS,
        fault: None,
        faulty: None,
        divergence: None,
        adversary: None,
        filter: None,
        expect,
    };
    match p.pick("family", 5) {
        // Plain election: any protocol; baselines stay on uni-rings.
        0 => {
            let protocol = random_protocol(&p, true);
            let topology = if is_baseline(&protocol) {
                TopologySpec::UniRing
            } else {
                random_topology(&p, &mut axes)
            };
            let completed = Expectation::Class(OutcomeClass::Completed);
            frame(Workload::Election(protocol), topology, axes, completed)
        }
        // Churn: stalls are legal (expect mixed), wrong leaders never.
        1 => {
            let topology = random_topology(&p, &mut axes);
            let events = if p.pick("churn-axis", 2) == 0 {
                axes.push(AxisSpec {
                    name: "churn".to_string(),
                    values: AxisValues::U32(vec![0, 1, 2]),
                });
                Bind::Axis
            } else {
                Bind::Fixed(p.pick("churn", 3) as u32)
            };
            let workload = Workload::Classified(random_protocol(&p, false));
            Scenario {
                max_events: 50_000,
                fault: Some(FaultSpec {
                    events,
                    horizon: 2.0 * f64::from(max_n),
                    downtime: *p.choose("downtime", &[1.0, 2.0, 4.0]),
                }),
                ..frame(workload, topology, axes, Expectation::Mixed)
            }
        }
        // Adversary: legal schedules attack liveness margins, never
        // safety or termination — expect completed, zero violations.
        2 => {
            let topology = random_topology(&p, &mut axes);
            const STRATEGY_SETS: [&[&str]; 3] = [
                &["none", "swap", "burst"],
                &["swap", "reorder", "adaptive"],
                &["none", "adaptive"],
            ];
            let strategy = if p.pick("strategy-axis", 2) == 0 {
                let values = p.choose("strategies", &STRATEGY_SETS);
                axes.push(AxisSpec {
                    name: "strategy".to_string(),
                    values: AxisValues::Str(values.iter().map(|s| s.to_string()).collect()),
                });
                Bind::Axis
            } else {
                Bind::Fixed(
                    (*p.choose(
                        "strategy",
                        &["none", "swap", "burst", "reorder", "adaptive"],
                    ))
                    .to_string(),
                )
            };
            let budget = if p.pick("budget-axis", 2) == 0 {
                axes.push(AxisSpec {
                    name: "budget".to_string(),
                    values: AxisValues::F64(vec![1.0, 2.0]),
                });
                Bind::Axis
            } else {
                Bind::Fixed(*p.choose("budget", &[1.0, 2.0, 4.0]))
            };
            let workload = Workload::Adversary(random_protocol(&p, false));
            let completed = Expectation::Class(OutcomeClass::Completed);
            Scenario {
                adversary: Some(AdversarySpec {
                    strategy,
                    budget,
                    burst_p: DEFAULT_BURST_P,
                    pareto_shape: DEFAULT_PARETO_SHAPE,
                }),
                ..frame(workload, topology, axes, completed)
            }
        }
        // Anti-entropy sync: replicas on the complete graph reconcile a
        // seeded fresh-write divergence. Fault-free anti-entropy always
        // converges to zero residual divergence — the invariant the
        // convergence-oracle suite proves — so the oracle is `decided`.
        3 => {
            let key_space = *p.choose("key-space", &[64u32, 128, 256]);
            let divergence = if p.pick("divergence-axis", 2) == 0 {
                axes.push(AxisSpec {
                    name: "divergence".to_string(),
                    values: AxisValues::F64(vec![0.1, 0.4]),
                });
                Bind::Axis
            } else {
                Bind::Fixed(*p.choose("divergence", &[0.1, 0.25, 0.5]))
            };
            // Half the sync scenarios sweep the calibrated delay-family
            // axis (the e21 idiom); the rest keep the fixed model drawn
            // above.
            let delay_axis = p.pick("delay-axis", 2) == 0;
            if delay_axis {
                axes.push(AxisSpec {
                    name: "delay".to_string(),
                    values: AxisValues::Str(
                        ["exp", "uniform", "det"]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    ),
                });
            }
            let workload = Workload::Antientropy { key_space };
            let decided = Expectation::Class(OutcomeClass::Decided);
            let mut scenario = frame(workload, TopologySpec::Complete, axes, decided);
            scenario.divergence = Some(divergence);
            if delay_axis {
                scenario.delay = DelaySpec::Axis { mean: 1.0 };
            }
            scenario
        }
        // Consensus: Ben-Or or reliable broadcast on the complete
        // graph; agreement and validity must hold under every schedule.
        // Fault-free broadcast always delivers (expect decided);
        // Ben-Or's termination is probabilistic under a finite event
        // budget, so its oracle is mixed: decide or stall, never
        // disagree. Every generated size satisfies n > 3f for f = 1,
        // so an explicit `faulty 1` is always legal.
        _ => {
            let workload = if p.pick("consensus-protocol", 2) == 0 {
                Workload::Benor
            } else {
                Workload::Brb
            };
            let adversary = if p.pick("consensus-adversary", 2) == 0 {
                Some(AdversarySpec {
                    strategy: Bind::Fixed(
                        (*p.choose("consensus-strategy", &["none", "swap", "burst", "adaptive"]))
                            .to_string(),
                    ),
                    budget: Bind::Fixed(*p.choose("consensus-budget", &[1.0, 2.0])),
                    burst_p: DEFAULT_BURST_P,
                    pareto_shape: DEFAULT_PARETO_SHAPE,
                })
            } else {
                None
            };
            let expect = if workload == Workload::Brb && adversary.is_none() {
                Expectation::Class(OutcomeClass::Decided)
            } else {
                Expectation::Mixed
            };
            Scenario {
                max_events: 400_000,
                faulty: if p.pick("consensus-faulty", 2) == 0 {
                    None
                } else {
                    Some(1)
                },
                adversary,
                ..frame(workload, TopologySpec::Complete, axes, expect)
            }
        }
    }
}

fn is_baseline(p: &ElectionProtocol) -> bool {
    matches!(
        p,
        ElectionProtocol::ItaiRodeh | ElectionProtocol::ChangRoberts | ElectionProtocol::Peterson
    )
}

/// ABE protocols with safe parameters; baselines only when allowed
/// (fault and adversary scenarios stay on the ABE protocols the
/// experiments exercise).
fn random_protocol(p: &Picker, allow_baselines: bool) -> ElectionProtocol {
    let limit = if allow_baselines { 5 } else { 2 };
    match p.pick("protocol", limit) {
        0 => ElectionProtocol::AbeCalibrated {
            a: *p.choose("a", &[0.5, 1.0, 2.0]),
        },
        1 => ElectionProtocol::Abe {
            a0: *p.choose("a0", &[0.1, 0.25]),
        },
        2 => ElectionProtocol::ItaiRodeh,
        3 => ElectionProtocol::ChangRoberts,
        _ => ElectionProtocol::Peterson,
    }
}

/// Fixed uni/bidi ring, or a `topo` axis over both.
fn random_topology(p: &Picker, axes: &mut Vec<AxisSpec>) -> TopologySpec {
    match p.pick("topology", 3) {
        0 => TopologySpec::UniRing,
        1 => TopologySpec::BidiRing,
        _ => {
            axes.push(AxisSpec {
                name: "topo".to_string(),
                values: AxisValues::Str(vec!["uni-ring".to_string(), "bidi-ring".to_string()]),
            });
            TopologySpec::Axis
        }
    }
}

fn random_delay(p: &Picker) -> DelaySpec {
    match p.pick("delay", 5) {
        0 => DelaySpec::Exponential {
            mean: *p.choose("mean", &[0.5, 1.0, 2.0]),
        },
        1 => DelaySpec::Deterministic {
            value: *p.choose("value", &[0.5, 1.0]),
        },
        2 => DelaySpec::Uniform { lo: 0.5, hi: 1.5 },
        3 => DelaySpec::Pareto {
            shape: *p.choose("shape", &[1.5, 2.5]),
            mean: 1.0,
        },
        _ => DelaySpec::Weibull {
            shape: *p.choose("shape", &[0.8, 1.0, 2.0]),
            mean: 1.0,
        },
    }
}

/// Generates `count` scenarios from one campaign seed, each scenario
/// seeded independently so corpora of different sizes share a prefix.
pub fn corpus(count: u32, seed: u64) -> Vec<Scenario> {
    let root = SeedStream::new(seed);
    (0..count)
        .map(|i| random_scenario(root.child_seed("fuzz-scenario", u64::from(i))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_scenario(42), random_scenario(42));
        assert_eq!(corpus(4, 7), corpus(4, 7));
        // Corpora of different sizes share their common prefix.
        assert_eq!(corpus(2, 7)[..], corpus(4, 7)[..2]);
    }

    #[test]
    fn every_generated_scenario_compiles_and_round_trips() {
        for scenario in corpus(64, 0xF00D) {
            let text = scenario.print();
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(reparsed, scenario, "{text}");
            compile(&scenario).unwrap_or_else(|e| panic!("{e}\n{text}"));
        }
    }

    #[test]
    fn generator_covers_all_five_families() {
        let scenarios = corpus(48, 1);
        assert!(scenarios.iter().any(|s| s.fault.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::Adversary(_))));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::Election(_))));
        assert!(scenarios.iter().any(|s| s.workload == Workload::Benor));
        assert!(scenarios.iter().any(|s| s.workload == Workload::Brb));
        // The sync family appears, in both its divergence binds.
        let sync = |s: &&Scenario| matches!(s.workload, Workload::Antientropy { .. });
        assert!(scenarios
            .iter()
            .filter(sync)
            .any(|s| s.divergence == Some(Bind::Axis)));
        assert!(scenarios
            .iter()
            .filter(sync)
            .any(|s| matches!(s.divergence, Some(Bind::Fixed(_)))));
    }
}
