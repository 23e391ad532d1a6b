//! A tour of the ABE model's ingredients: delay families, network-class
//! contracts, and clock drift.
//!
//! ```text
//! cargo run --example model_tour
//! ```

use abe_networks::core::clock::{ClockSpec, DriftMode};
use abe_networks::core::delay::{standard_families, Deterministic, Exponential};
use abe_networks::core::{AbeParams, NetworkClass};
use abe_networks::sim::{SimDuration, SimTime, Xoshiro256PlusPlus};
use abe_networks::stats::{fmt_num, quantile, Online, Table};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Delay families at equal mean (δ = 2) ==\n");
    let mut table = Table::new(&["family", "analytic mean", "sample mean", "p99", "bounded?"]);
    for (label, model) in standard_families(2.0) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| model.sample(&mut rng).as_secs())
            .collect();
        let acc: Online = samples.iter().copied().collect();
        table.row(&[
            label.to_string(),
            fmt_num(model.mean().as_secs()),
            fmt_num(acc.mean()),
            fmt_num(quantile(&samples, 0.99).unwrap_or(f64::NAN)),
            match model.upper_bound() {
                Some(b) => format!("<= {}", fmt_num(b.as_secs())),
                None => "no".to_string(),
            },
        ]);
    }
    println!("{table}");
    println!("same mean, wildly different tails — the ABE model treats them all alike.\n");

    println!("== Network-class contracts (Definition 1, machine-checked) ==\n");
    let abe = NetworkClass::Abe(AbeParams::new(2.0, 0.5, 2.0, 0.0)?);
    let abd = NetworkClass::Abd {
        delay_bound: SimDuration::from_secs(2.0),
    };
    let clocks = ClockSpec::new(0.5, 2.0, DriftMode::Fixed)?;
    let zero = Deterministic::zero();

    let exp = Exponential::from_mean(2.0)?;
    println!(
        "exponential(mean 2) against ABE(δ=2):  {:?}",
        abe.validate(&exp, &clocks, &zero).is_ok()
    );
    println!(
        "exponential(mean 2) against ABD(B=2):  {:?}",
        abd.validate(&exp, &clocks, &zero)
    );
    let det = Deterministic::new(2.0)?;
    println!(
        "deterministic(2)    against ABD(B=2):  {:?}",
        abd.validate(&det, &ClockSpec::perfect(), &zero).is_ok()
    );
    println!(
        "deterministic(2)    against ABE(δ=2):  {:?} (ABD ⊂ ABE)\n",
        abe.validate(&det, &clocks, &zero).is_ok()
    );

    println!("== Clock drift (Definition 1.2) ==\n");
    let spec = ClockSpec::new(0.5, 2.0, DriftMode::Wander)?;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    let mut clock = spec.instantiate(&mut rng);
    let mut table = Table::new(&["real time", "local time", "current rate"]);
    let mut real = SimTime::ZERO;
    for _ in 0..6 {
        real += SimDuration::from_secs(5.0);
        let local = clock.advance_to(real);
        table.row(&[
            fmt_num(real.as_secs()),
            fmt_num(local),
            format!("{:.3}", clock.rate()),
        ]);
        clock.real_interval(&spec, 1.0, &mut rng); // wander re-draws the rate
    }
    println!("{table}");
    println!("local time always advances within [0.5x, 2x] of real time — Definition 1.2 holds.");
    Ok(())
}
