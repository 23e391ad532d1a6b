//! E13 — the "known ring size" assumption is load-bearing.
//!
//! Paper (§1/§3): the algorithm is for "anonymous, unidirectional ABE
//! rings **of known size n**". This experiment probes what the assumption
//! buys by lying to the nodes: every node believes the ring has size `n'`
//! while the true size is `n`.
//!
//! * `n' > n`: a returning message carries hop ≈ `n < n'` at its
//!   originator, is purged, and the originator goes idle — **no execution
//!   can ever elect**, the run exhausts its budget (livelock).
//! * `n' < n`: a message can reach hop `= n'` at a *different* active
//!   node, which wrongly declares itself leader — **safety fails** and
//!   multiple leaders become possible.
//!
//! Not a claim from the evaluation (the paper has none) but a direct test
//! of a stated model assumption — the kind of negative result a library
//! user needs documented.

use abe_core::delay::Exponential;
use abe_core::{NetworkBuilder, Topology};
use abe_election::{AbeElection, ElectionState};
use abe_sim::RunLimits;
use abe_stats::Table;
use abe_sweep::{CellMetrics, SweepSpec};

use crate::{ExperimentReport, RunCtx};

/// Outcome of one mis-specified run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MisOutcome {
    /// Exactly one leader whose message knocked out all n-1 others.
    Correct,
    /// A leader was declared although not every other node was passive:
    /// its message cannot have travelled the full ring (safety violation;
    /// a symmetric second leader is possible in a continued execution).
    WrongElection,
    /// Budget exhausted with no leader (livelock).
    NoLeader,
}

fn run_with_claimed_n(true_n: u32, claimed_n: u32, seed: u64) -> MisOutcome {
    let a0 = 1.0 / (f64::from(claimed_n) * f64::from(claimed_n));
    let net = NetworkBuilder::new(Topology::unidirectional_ring(true_n).expect("n >= 1"))
        .delay(Exponential::from_mean(1.0).expect("valid mean"))
        .seed(seed)
        .build(|_| AbeElection::new(claimed_n, a0).expect("valid config"))
        .expect("valid build");
    // Budget: enough for dozens of would-be elections at this size.
    let (report, net) = net.run(RunLimits::events(400_000));
    let leaders = net
        .protocols()
        .filter(|p| p.state() == ElectionState::Leader)
        .count();
    let passives = net
        .protocols()
        .filter(|p| p.state() == ElectionState::Passive)
        .count();
    if leaders == 0 || !report.outcome.is_stopped() {
        return MisOutcome::NoLeader;
    }
    // A legitimate winner's message travelled the full ring, leaving every
    // other node passive; anything less is a premature (unsafe) election.
    if leaders == 1 && passives == (true_n as usize) - 1 {
        MisOutcome::Correct
    } else {
        MisOutcome::WrongElection
    }
}

/// Runs E13.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let true_n: u32 = 16;
    let reps = ctx.scale.pick3(10u64, 20, 60);
    let claims: &[u32] = &[8, 12, 15, 16, 17, 24, 32];

    let spec = SweepSpec::new().axis_u32("claimed", claims).seeds(reps);
    let outcome = ctx.sweep(spec, |cell| {
        let verdict = run_with_claimed_n(true_n, cell.u32("claimed"), cell.seed());
        CellMetrics::new()
            .counter("correct", u64::from(verdict == MisOutcome::Correct))
            .counter("wrong", u64::from(verdict == MisOutcome::WrongElection))
            .counter("none", u64::from(verdict == MisOutcome::NoLeader))
    });

    let mut table = Table::new(&[
        "claimed n'",
        "true n",
        "correct",
        "wrong election",
        "no leader",
    ]);
    let mut over_all_no_leader = true;
    let mut exact_all_correct = true;

    for group in outcome.groups() {
        let claimed = group.value("claimed").as_u32();
        let correct = group.counter_total("correct");
        let multi = group.counter_total("wrong");
        let none = group.counter_total("none");
        if claimed > true_n && none != reps {
            over_all_no_leader = false;
        }
        if claimed == true_n && correct != reps {
            exact_all_correct = false;
        }
        table.row(&[
            claimed.to_string(),
            true_n.to_string(),
            correct.to_string(),
            multi.to_string(),
            none.to_string(),
        ]);
    }

    let findings =
        vec![
        format!(
            "exact knowledge (n' = n): {} — every run elects exactly one leader",
            if exact_all_correct { "correct in all runs" } else { "UNEXPECTED failures" }
        ),
        format!(
            "overestimates (n' > n): {} — hop can never reach n' at the originator, so no \
             leader is ever elected (liveness lost)",
            if over_all_no_leader { "no leader in any run" } else { "mostly no leader" }
        ),
        "underestimates (n' < n): wrong or multiple leaders appear — a message reaching hop = n' \
         at a foreign active node is mistaken for the node's own (safety lost); the \"known n\" \
         assumption of §3 is therefore necessary for both safety and liveness"
            .to_string(),
    ];

    ExperimentReport {
        id: "E13",
        title: "Necessity of the known-ring-size assumption",
        claim: "\"anonymous, unidirectional ABE rings of known size n\" (§1/§3)",
        table,
        findings,
        sweep: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_n_is_correct() {
        assert_eq!(run_with_claimed_n(8, 8, 1), MisOutcome::Correct);
    }

    #[test]
    fn overestimate_never_elects() {
        for seed in 0..5 {
            assert_eq!(
                run_with_claimed_n(8, 12, seed),
                MisOutcome::NoLeader,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn underestimate_breaks_safety_sometimes() {
        // Some seed within a small range must show a wrong/multi leader or
        // a non-stopping election; all-correct would mean the assumption
        // is not load-bearing.
        let mut all_correct = true;
        for seed in 0..20 {
            if run_with_claimed_n(16, 8, seed) != MisOutcome::Correct {
                all_correct = false;
                break;
            }
        }
        assert!(!all_correct, "underestimating n should break the algorithm");
    }
}
