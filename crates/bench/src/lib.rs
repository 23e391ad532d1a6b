//! # abe-bench — the evaluation harness
//!
//! Regenerates every experiment in `docs/PAPER_MAP.md`. The brief
//! announcement contains no numbered tables or figures (it is a two-page
//! model paper), so each experiment below is pinned to a **sentence** of
//! the paper; the mapping lives in `docs/PAPER_MAP.md`.
//!
//! Every experiment runs on the parallel deterministic [`abe_sweep`] engine: a
//! declarative grid of configuration axes times a seed axis, executed by a
//! worker pool, with per-cell seeds derived from grid coordinates so the
//! measured numbers are bit-identical at any `--threads` setting.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p abe-bench --bin abe-experiments --release
//! cargo run -p abe-bench --bin abe-experiments --release -- --full   # larger sweeps
//! cargo run -p abe-bench --bin abe-experiments --release -- e1 e4    # a subset
//! cargo run -p abe-bench --bin abe-experiments --release -- \
//!     e1 --smoke --threads 2 --json out/e1.json                      # CI smoke
//! ```
//!
//! Criterion micro-benches (kernel throughput, sampling, scaling) live in
//! `benches/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod sweep;
pub mod trace_cli;

use std::fmt;

use abe_stats::Table;

use abe_sweep::{CellMetrics, SweepOutcome, SweepSpec};

/// How large a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal grids for CI perf gates — a second or two in total.
    Smoke,
    /// Small sweeps, a few seconds total — CI-friendly.
    Quick,
    /// Paper-scale sweeps (larger `n`, more repetitions).
    Full,
}

impl Scale {
    /// Picks `quick` or `full` depending on the scale; `Smoke` picks the
    /// `quick` value (use [`Scale::pick3`] where smoke needs its own grid).
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Smoke | Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Picks between all three scales.
    pub fn pick3<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Lower-case scale name, as used on the CLI and in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Execution context handed to every experiment: the sweep scale plus the
/// engine configuration (worker count, base seed).
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// Grid scale to run at.
    pub scale: Scale,
    /// Worker threads for the sweep engine (1 = inline execution).
    pub threads: usize,
    /// Base seed mixed into every cell's derived seed.
    pub base_seed: u64,
    /// Shards per simulation run (deterministic parallel kernel; 1 =
    /// sequential). Orthogonal to `threads`: `threads` parallelises
    /// *across* sweep cells, `shards` parallelises *inside* each run.
    /// Reports are identical at any setting (see `abe_core::shard`).
    pub shards: u32,
}

impl RunCtx {
    /// A context at the given scale and worker count, base seed 0.
    pub fn new(scale: Scale, threads: usize) -> Self {
        Self {
            scale,
            threads,
            base_seed: 0,
            shards: 1,
        }
    }

    /// Single-threaded quick-scale context (the test default).
    pub fn quick() -> Self {
        Self::new(Scale::Quick, 1)
    }

    /// Single-threaded smoke-scale context.
    pub fn smoke() -> Self {
        Self::new(Scale::Smoke, 1)
    }

    /// Runs `spec` through the sweep engine with this context's settings.
    ///
    /// # Panics
    ///
    /// Panics if any cell panics, with the failing cell's grid coordinates
    /// in the message (see [`abe_sweep::SweepError`]).
    pub fn sweep(
        &self,
        spec: SweepSpec,
        run: impl Fn(&abe_sweep::Cell) -> CellMetrics + Send + Sync,
    ) -> SweepOutcome {
        let spec = spec.base_seed(self.base_seed);
        abe_sweep::run_sweep(&spec, self.threads, run).unwrap_or_else(|err| panic!("{err}"))
    }
}

/// The output of one experiment: a rendered table, prose findings, and the
/// underlying sweep data (cells, summaries, engine metadata) for JSON.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Identifier, e.g. `"E1"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper sentence this experiment tests.
    pub claim: &'static str,
    /// The regenerated table.
    pub table: Table,
    /// Conclusions (fits, pass/fail observations).
    pub findings: Vec<String>,
    /// The raw sweep this report was derived from.
    pub sweep: SweepOutcome,
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        writeln!(f)?;
        writeln!(f, "*Paper claim:* {}", self.claim)?;
        writeln!(f)?;
        write!(f, "{}", self.table)?;
        writeln!(f)?;
        for finding in &self.findings {
            writeln!(f, "- {finding}")?;
        }
        Ok(())
    }
}

/// A runnable experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Identifier, e.g. `"e1"` (lowercase, used on the CLI).
    pub id: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// Entry point.
    pub run: fn(&RunCtx) -> ExperimentReport,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("about", &self.about)
            .finish()
    }
}

/// The full registry, in presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            about: "election message complexity vs n (linear)",
            run: experiments::e1_messages::run,
        },
        Experiment {
            id: "e2",
            about: "election time complexity vs n (linear)",
            run: experiments::e2_time::run,
        },
        Experiment {
            id: "e3",
            about: "activation parameter sweep + calibration finding",
            run: experiments::e3_activation::run,
        },
        Experiment {
            id: "e4",
            about: "ABE vs asynchronous baselines (Itai-Rodeh, Chang-Roberts)",
            run: experiments::e4_baselines::run,
        },
        Experiment {
            id: "e5",
            about: "retransmission channel: mean transmissions and delay = 1/p",
            run: experiments::e5_retransmission::run,
        },
        Experiment {
            id: "e6",
            about: "Theorem 1: >= n messages per synchronised round",
            run: experiments::e6_theorem1::run,
        },
        Experiment {
            id: "e7",
            about: "ABD synchroniser violations under unbounded delay",
            run: experiments::e7_abd_violations::run,
        },
        Experiment {
            id: "e8",
            about: "adaptive vs fixed activation probability (ablation)",
            run: experiments::e8_adaptive_ablation::run,
        },
        Experiment {
            id: "e9",
            about: "delay-distribution robustness at equal expected delay",
            run: experiments::e9_delay_robustness::run,
        },
        Experiment {
            id: "e10",
            about: "clock-drift sensitivity (s_high/s_low sweep)",
            run: experiments::e10_clock_drift::run,
        },
        Experiment {
            id: "e11",
            about: "synchronous algorithm over synchroniser vs native ABE",
            run: experiments::e11_sync_overhead::run,
        },
        Experiment {
            id: "e12",
            about: "ABE election vs native synchronous Itai-Rodeh",
            run: experiments::e12_vs_synchronous::run,
        },
        Experiment {
            id: "e13",
            about: "necessity of the known-ring-size assumption",
            run: experiments::e13_known_n::run,
        },
        Experiment {
            id: "e14",
            about: "election success rate under crash-recover churn",
            run: experiments::e14_crash_churn::run,
        },
        Experiment {
            id: "e15",
            about: "synchroniser pulse skew under partitions and delay storms",
            run: experiments::e15_partitions::run,
        },
        Experiment {
            id: "e16",
            about: "election scaling to 10^6 nodes (million-node kernel stress)",
            run: experiments::e16_scaling::run,
        },
        Experiment {
            id: "e17",
            about: "election complexity under budgeted scheduling adversaries",
            run: experiments::e17_adversary::run,
        },
        Experiment {
            id: "e18",
            about: "synchroniser pulse skew under adversarial FIFO violation",
            run: experiments::e18_reorder_sync::run,
        },
        Experiment {
            id: "e19",
            about: "Ben-Or consensus under budgeted scheduling adversaries",
            run: experiments::e19_benor::run,
        },
        Experiment {
            id: "e20",
            about: "reliable broadcast latency and messages vs fault budget and churn",
            run: experiments::e20_brb::run,
        },
        Experiment {
            id: "e21",
            about: "anti-entropy sync: convergence and wire bytes vs divergence",
            run: experiments::e21_antientropy::run,
        },
        Experiment {
            id: "e22",
            about: "anti-entropy sync under churn, partitions, and adversaries",
            run: experiments::e22_churn_sync::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(ids.len(), 22);
        assert_eq!(ids.len(), sorted.len());
        assert_eq!(ids[0], "e1");
        assert_eq!(ids[21], "e22");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert_eq!(Scale::Smoke.pick(1, 2), 1);
        assert_eq!(Scale::Smoke.pick3(0, 1, 2), 0);
        assert_eq!(Scale::Quick.pick3(0, 1, 2), 1);
        assert_eq!(Scale::Full.pick3(0, 1, 2), 2);
    }

    #[test]
    fn scale_names() {
        assert_eq!(Scale::Smoke.name(), "smoke");
        assert_eq!(Scale::Quick.name(), "quick");
        assert_eq!(Scale::Full.name(), "full");
    }

    #[test]
    fn run_ctx_constructors() {
        let ctx = RunCtx::quick();
        assert_eq!(ctx.scale, Scale::Quick);
        assert_eq!(ctx.threads, 1);
        assert_eq!(ctx.base_seed, 0);
        assert_eq!(RunCtx::smoke().scale, Scale::Smoke);
    }

    #[test]
    fn ctx_sweep_applies_base_seed() {
        let mut ctx = RunCtx::quick();
        ctx.base_seed = 99;
        let outcome = ctx.sweep(SweepSpec::new().axis_u32("n", &[1]).seeds(1), |cell| {
            CellMetrics::new().metric("seed", cell.seed() as f64)
        });
        assert_eq!(outcome.base_seed, 99);
        let other = RunCtx::quick().sweep(SweepSpec::new().axis_u32("n", &[1]).seeds(1), |cell| {
            CellMetrics::new().metric("seed", cell.seed() as f64)
        });
        assert_ne!(
            outcome.cells[0].metrics.get("seed"),
            other.cells[0].metrics.get("seed")
        );
    }

    #[test]
    #[should_panic(expected = "rep=0")]
    fn ctx_sweep_panics_with_coordinates() {
        RunCtx::quick().sweep(SweepSpec::new().axis_u32("n", &[3]).seeds(1), |_| {
            panic!("cell exploded")
        });
    }

    #[test]
    fn report_renders_markdown() {
        let mut table = Table::new(&["n", "messages"]);
        table.row(&["8", "12.5"]);
        let report = ExperimentReport {
            id: "E0",
            title: "smoke",
            claim: "testing",
            table,
            findings: vec!["looks fine".into()],
            sweep: SweepOutcome::default(),
        };
        let s = report.to_string();
        assert!(s.contains("## E0"));
        assert!(s.contains("looks fine"));
        assert!(s.contains("12.5"));
    }
}
