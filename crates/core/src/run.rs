//! The one run surface: substrate configuration plus execution.
//!
//! Definition 1 makes the delay bound δ, the clock bounds and the
//! processing bound γ properties of the *network*, not of the algorithm
//! run on it. [`RunConfig`] is that half of a run — every knob a workload
//! shares with every other workload, declared once — and
//! [`RunConfig::run`] is the single place where those knobs reach a
//! [`NetworkBuilder`], become [`RunLimits`], select sequential or sharded
//! execution, and hand the recorder back. Workload crates add only their
//! own parameters (ring size, fault budget, key space, …) and turn the
//! returned [`Run`] into their outcome type.

use std::sync::Arc;

use abe_sim::{RunLimits, SimTime};
use abe_telemetry::{Recording, RunRecorder};

use crate::adversary::AdversaryPlan;
use crate::builder::NetworkBuilder;
use crate::clock::ClockSpec;
use crate::delay::{Exponential, SharedDelay};
use crate::error::BuildError;
use crate::fault::FaultPlan;
use crate::net::NetworkReport;
use crate::protocol::Protocol;
use crate::topology::Topology;

/// The substrate half of one run: the network model, its faults and
/// adversary, the run limits, and how the run executes and is observed.
///
/// # Examples
///
/// ```
/// use abe_core::{Ctx, InPort, OutPort, Protocol, RunConfig, Topology};
///
/// /// Passes one token around the ring until it has made `laps` hops.
/// #[derive(Debug, Clone)]
/// struct Token {
///     holder: bool,
///     laps: u32,
/// }
/// impl Protocol for Token {
///     type Message = u32;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
///         if self.holder {
///             ctx.send(OutPort(0), 1);
///         }
///     }
///     fn on_message(&mut self, _from: InPort, hops: u32, ctx: &mut Ctx<'_, u32>) {
///         if hops < self.laps {
///             ctx.send(OutPort(0), hops + 1);
///         }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let run = RunConfig::new()
///     .seed(7)
///     .run(Topology::unidirectional_ring(4)?, |i| Token { holder: i == 0, laps: 12 })?;
/// assert!(run.report.outcome.is_quiescent());
/// assert_eq!(run.report.messages_delivered, 12);
/// assert_eq!(run.protocols.len(), 4);
/// assert!(run.telemetry.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Delay model applied to every edge (defaults to exponential with
    /// mean 1).
    pub delay: SharedDelay,
    /// Clock population (defaults to perfect clocks).
    pub clocks: ClockSpec,
    /// Master seed for the run.
    pub seed: u64,
    /// FIFO channels (defaults to `false`: arbitrary reordering).
    pub fifo: bool,
    /// Fault-injection plan (defaults to empty: no faults).
    pub fault: FaultPlan,
    /// Scheduling-adversary plan (defaults to empty: oblivious delays).
    pub adversary: AdversaryPlan,
    /// Event budget (defaults to 5 000 000); a run exceeding it ends with
    /// `RunOutcome::MaxEvents`.
    pub max_events: u64,
    /// Optional virtual-time horizon (seconds); `None` runs to the event
    /// budget, stop, or quiescence.
    pub max_time: Option<f64>,
    /// Shard count for deterministic parallel execution (defaults to 1:
    /// sequential). Any value produces an identical [`NetworkReport`];
    /// see [`shard`](crate::shard).
    pub shards: u32,
    /// Optional telemetry recording budget (defaults to `None`: no
    /// recording). Recording never perturbs the run; the captured
    /// recorder lands on [`Run::telemetry`].
    pub record: Option<Recording>,
}

impl RunConfig {
    /// Exponential delays of mean 1, perfect clocks, seed 0, non-FIFO
    /// channels, no faults, no adversary, a 5 000 000-event budget, no
    /// time horizon, sequential execution, no recording.
    pub fn new() -> Self {
        Self {
            delay: Arc::new(Exponential::from_mean(1.0).expect("1.0 is a valid mean")),
            clocks: ClockSpec::perfect(),
            seed: 0,
            fifo: false,
            fault: FaultPlan::new(),
            adversary: AdversaryPlan::none(),
            max_events: 5_000_000,
            max_time: None,
            shards: 1,
            record: None,
        }
    }

    /// Replaces the delay model.
    pub fn delay(mut self, delay: SharedDelay) -> Self {
        self.delay = delay;
        self
    }

    /// Replaces the clock specification.
    pub fn clocks(mut self, clocks: ClockSpec) -> Self {
        self.clocks = clocks;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables FIFO channels.
    pub fn fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Installs a fault-injection plan for the run.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Installs a budgeted scheduling-adversary plan for the run.
    pub fn adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.adversary = adversary;
        self
    }

    /// Replaces the event budget. Fault experiments lower it: a run that
    /// loses a message can livelock (an election's Active node with no
    /// token in flight purges every later token forever), so stalls are
    /// detected by exhausting the budget rather than by quiescence.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Caps the run at a virtual-time horizon (seconds). Useful for
    /// fixed-duration throughput measurements where the run should end at
    /// `MaxTime` rather than at a protocol-dependent stop.
    ///
    /// # Panics
    ///
    /// Panics if `max_time` is not finite and non-negative.
    #[track_caller]
    pub fn max_time(mut self, max_time: f64) -> Self {
        assert!(
            max_time.is_finite() && max_time >= 0.0,
            "max_time must be finite and non-negative, got {max_time}"
        );
        self.max_time = Some(max_time);
        self
    }

    /// Sets the shard count for deterministic parallel execution (see
    /// [`shard`](crate::shard)); `1` (the default) runs sequentially.
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enables telemetry recording for the run (see [`Recording`]).
    pub fn record(mut self, record: Recording) -> Self {
        self.record = Some(record);
        self
    }

    /// Builds a network of `factory(node_index)` protocols on `topo` under
    /// this configuration, runs it to a stop, quiescence or a limit, and
    /// returns what the run left behind.
    ///
    /// # Errors
    ///
    /// Returns an error if the fault plan names a node or edge `topo` does
    /// not have.
    pub fn run<P>(
        &self,
        topo: Topology,
        factory: impl FnMut(usize) -> P,
    ) -> Result<Run<P>, BuildError>
    where
        P: Protocol + Clone + Send,
        P::Message: Send,
    {
        let mut builder = NetworkBuilder::new(topo)
            .delay_shared(Arc::clone(&self.delay))
            .clocks(self.clocks)
            .fifo(self.fifo)
            .seed(self.seed)
            .fault(self.fault.clone())
            .adversary(self.adversary.clone())
            .shards(self.shards);
        if let Some(record) = &self.record {
            builder = builder.record(record.clone());
        }
        let mut limits = RunLimits::events(self.max_events);
        if let Some(t) = self.max_time {
            limits = limits.with_max_time(SimTime::from_secs(t));
        }
        // `run_sharded` is the sequential `run` at one shard.
        let (report, mut net) = builder.build(factory)?.run_sharded(limits);
        let telemetry = net.take_telemetry();
        Ok(Run {
            report,
            protocols: net.into_protocols(),
            telemetry,
        })
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What one [`RunConfig::run`] leaves behind.
#[derive(Debug, Clone)]
pub struct Run<P> {
    /// The full network report (counters etc.).
    pub report: NetworkReport,
    /// Final protocol states, in node order.
    pub protocols: Vec<P>,
    /// Captured telemetry, when [`RunConfig::record`] enabled recording:
    /// retained trace records, seen/dropped counts, optional histograms.
    pub telemetry: Option<Box<RunRecorder>>,
}

#[cfg(test)]
mod tests {
    use abe_sim::RunOutcome;

    use super::*;
    use crate::adversary::tests::Constant;
    use crate::clock::DriftMode;
    use crate::{Ctx, InPort, OutPort};

    /// Every node sends `left` count-down pings to its successor, one per
    /// tick; whoever receives a `0` — the last ping sent, which overtakes
    /// its predecessors only on non-FIFO channels — stops the network.
    #[derive(Debug, Clone)]
    struct Countdown {
        left: u32,
    }

    impl Protocol for Countdown {
        type Message = u32;

        fn on_tick(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(OutPort(0), self.left);
            }
        }

        fn on_message(&mut self, _from: InPort, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if msg == 0 {
                ctx.stop_network();
            }
        }

        fn wants_tick(&self) -> bool {
            self.left > 0
        }
    }

    fn run(cfg: &RunConfig) -> Run<Countdown> {
        cfg.run(Topology::unidirectional_ring(8).unwrap(), |_| Countdown {
            left: 20,
        })
        .unwrap()
    }

    #[test]
    fn every_knob_reaches_the_network() {
        let base = RunConfig::new().seed(11);
        let reference = run(&base);
        assert_eq!(reference.report.outcome, RunOutcome::Stopped);
        assert!(reference.telemetry.is_none());
        assert_eq!(reference.protocols.len(), 8);

        type Check = fn(&Run<Countdown>, &Run<Countdown>);
        let differs: Check = |r, base| assert_ne!(r.report, base.report);
        let equal: Check = |r, base| assert_eq!(r.report, base.report);
        let table: Vec<(&str, RunConfig, Check)> = vec![
            ("seed", base.clone().seed(12), differs),
            ("fifo", base.clone().fifo(true), differs),
            (
                "delay",
                base.clone()
                    .delay(Arc::new(crate::delay::Deterministic::new(1.0).unwrap())),
                differs,
            ),
            (
                "clocks",
                base.clone()
                    .clocks(ClockSpec::new(0.5, 0.5, DriftMode::Fixed).unwrap()),
                differs,
            ),
            (
                "fault",
                base.clone().fault(FaultPlan::new().crash_stop(3, 0.0)),
                |r, _| assert_eq!(r.report.faults.crashes, 1),
            ),
            (
                "adversary",
                base.clone()
                    .adversary(AdversaryPlan::new(1.0, Constant(0.25)).unwrap()),
                |r, _| {
                    assert!(r.report.adversary.intercepted > 0);
                    assert_eq!(r.report.adversary.intercepted, r.report.messages_sent);
                },
            ),
            ("max_events", base.clone().max_events(10), |r, _| {
                assert_eq!(r.report.outcome, RunOutcome::MaxEvents);
                assert_eq!(r.report.events_processed, 10);
            }),
            ("max_time", base.clone().max_time(0.5), |r, _| {
                assert_eq!(r.report.outcome, RunOutcome::MaxTime);
                assert!(r.report.end_time.as_secs() <= 0.5);
            }),
            ("shards=1", base.clone().shards(1), equal),
            ("shards=2", base.clone().shards(2), equal),
            ("shards=4", base.clone().shards(4), equal),
            ("shards=0 clamps", base.clone().shards(0), equal),
            (
                "record",
                base.clone().record(Recording::full()),
                |r, base| {
                    assert_eq!(r.report, base.report);
                    let rec = r.telemetry.as_deref().expect("recording was on");
                    assert!(!rec.is_empty());
                    assert_eq!(rec.seen(), r.report.trace_records);
                },
            ),
            (
                "record, sharded",
                base.clone().record(Recording::full()).shards(4),
                |r, base| {
                    assert_eq!(r.report, base.report);
                    assert!(!r.telemetry.as_deref().expect("recording was on").is_empty());
                },
            ),
        ];
        for (knob, cfg, check) in table {
            eprintln!("knob: {knob}");
            check(&run(&cfg), &reference);
        }
    }

    #[test]
    fn max_time_rejects_nan_and_negative_horizons() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let caught = std::panic::catch_unwind(|| RunConfig::new().max_time(bad));
            assert!(caught.is_err(), "max_time({bad}) must be rejected");
        }
    }

    #[test]
    fn a_fault_plan_the_topology_cannot_hold_is_a_typed_error() {
        let cfg = RunConfig::new().fault(FaultPlan::new().crash_stop(99, 0.0));
        let err = cfg
            .run(Topology::unidirectional_ring(8).unwrap(), |_| Countdown {
                left: 1,
            })
            .unwrap_err();
        assert!(matches!(err, BuildError::Fault(_)));
    }
}
