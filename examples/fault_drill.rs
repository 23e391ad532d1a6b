//! Fault drill: a ring election running through a crash-recover schedule.
//!
//! Walkthrough:
//!
//! 1. Build a [`FaultPlan`] that knocks two nodes out mid-election —
//!    node 5 for `t ∈ [2, 14)` and node 11 for `t ∈ [10, 22)`. The plan
//!    is pure data: times are virtual seconds, and the same plan on the
//!    same seed reproduces the same execution bit for bit (an *empty*
//!    plan reproduces the fault-free run exactly).
//! 2. Hand it to the election runner via
//!    [`RingConfig::fault`](abe_networks::election::RingConfig) and lower
//!    the event budget: stalled elections *livelock* (see below), so the
//!    budget is the stall detector.
//! 3. Run several seeds and classify with
//!    [`ElectionOutcome::class`](abe_networks::election::ElectionOutcome).
//!    The outcome is all-or-nothing, and the fault telemetry says why:
//!
//!    * **no token crossed a down node** → the run completes with exactly
//!      one leader, paying essentially nothing (`completed`, 0 tokens
//!      lost);
//!    * **any token died at a down node** → its sender is left Active
//!      with nothing in flight, and that node purges every token the
//!      idle nodes regenerate, forever (`stalled`, ≥ 1 token lost).
//!      Never two leaders: loss cannot break the election's safety, only
//!      its liveness. Experiment e14 sweeps this trade-off.
//!
//! Run with:
//!
//! ```console
//! $ cargo run --example fault_drill
//! ```

use abe_networks::core::fault::FaultPlan;
use abe_networks::core::{OutcomeClass, RunConfig};
use abe_networks::election::{run_abe_calibrated, RingConfig};

fn main() {
    let n = 16;
    let drill = || {
        FaultPlan::new()
            .crash_recover(5, 2.0, 14.0)
            .crash_recover(11, 10.0, 22.0)
    };

    println!("ring of {n}, outages: node 5 down [2, 14), node 11 down [10, 22)\n");
    println!(
        "{:>6}  {:>9}  {:>11}  {:>8}  {:>8}",
        "seed", "class", "tokens lost", "messages", "time"
    );
    let mut survived = 0;
    let mut classes = Vec::new();
    for seed in 0..8u64 {
        let cfg = RingConfig::new(
            n,
            RunConfig::new()
                .seed(seed)
                .fault(drill())
                .max_events(50_000),
        );
        let o = run_abe_calibrated(&cfg, 1.0);
        println!(
            "{seed:>6}  {:>9}  {:>11}  {:>8}  {:>8.1}",
            o.class().as_str(),
            o.report.faults.dropped_crash,
            o.messages,
            o.time
        );
        // Loss and stalling coincide exactly (e14 verifies this grid-wide).
        assert_eq!(
            o.report.faults.dropped_crash > 0,
            o.class() == OutcomeClass::Stalled
        );
        assert_ne!(
            o.class(),
            OutcomeClass::WrongLeader,
            "loss never breaks safety"
        );
        if o.class() == OutcomeClass::Completed {
            survived += 1;
        }
        classes.push(o.class());
    }
    println!("\n{survived}/8 seeds elected a leader through the drill;");
    println!("every failure lost a token and stalled — none elected two leaders.");
    assert!(classes.contains(&OutcomeClass::Completed));
}
