//! The paper's motivating example (§1 case iii): election over lossy
//! physical channels with retransmission.
//!
//! ```text
//! cargo run --example lossy_channel
//! ```
//!
//! A message over a lossy channel needs a geometrically distributed number
//! of transmissions — *unbounded*, so no ABD bound exists — yet the
//! expected delay is exactly `slot/p`. That makes the network ABE with
//! δ = slot/p, and the election algorithm runs unmodified.

use std::sync::Arc;

use abe_networks::core::delay::{DelayModel, Retransmission};
use abe_networks::core::RunConfig;
use abe_networks::election::{run_abe_calibrated, RingConfig};
use abe_networks::sim::Xoshiro256PlusPlus;
use abe_networks::stats::{fmt_num, Online, Table};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Lossy channels: average transmissions = 1/p (paper §1, case iii) ==\n");

    let mut table = Table::new(&[
        "p",
        "1/p",
        "measured attempts",
        "measured delay",
        "max delay seen",
    ]);
    for &p in &[0.9, 0.5, 0.25, 0.1] {
        let channel = Retransmission::new(p, 1.0)?;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut attempts = Online::new();
        let mut delay = Online::new();
        for _ in 0..200_000 {
            attempts.push(channel.sample_attempts(&mut rng) as f64);
            delay.push(channel.sample(&mut rng).as_secs());
        }
        table.row(&[
            p.to_string(),
            fmt_num(1.0 / p),
            fmt_num(attempts.mean()),
            fmt_num(delay.mean()),
            fmt_num(delay.max().unwrap_or(0.0)),
        ]);
    }
    println!("{table}");
    println!("note the max column: delays far beyond the mean occur — no hard bound exists,\nso this network is ABE but *not* ABD.\n");

    println!("== Election over the lossy ring (n = 64) ==\n");
    let n: u32 = 64;
    let mut table = Table::new(&["p", "δ = 1/p", "avg messages/n", "avg time", "time/(n·δ)"]);
    for &p in &[0.9, 0.5, 0.25, 0.1] {
        let channel = Retransmission::new(p, 1.0)?;
        let delta = channel.mean().as_secs();
        let mut messages = Online::new();
        let mut time = Online::new();
        for seed in 0..25 {
            let cfg = RingConfig::new(n, RunConfig::new().delay(Arc::new(channel)).seed(seed));
            let outcome = run_abe_calibrated(&cfg, 1.0);
            assert!(outcome.terminated && outcome.leaders == 1);
            messages.push(outcome.messages as f64);
            time.push(outcome.time);
        }
        table.row(&[
            p.to_string(),
            fmt_num(delta),
            fmt_num(messages.mean() / n as f64),
            fmt_num(time.mean()),
            fmt_num(time.mean() / (n as f64 * delta)),
        ]);
    }
    println!("{table}");
    println!("time scales with n·δ = n/p while messages/n and time/(n·δ) stay constant:\nknowing the *expected* delay is all the algorithm ever needed.");
    Ok(())
}
