//! # abe-core — the ABE network model
//!
//! Runtime implementation of **asynchronous bounded expected delay (ABE)
//! networks** as defined in *Bakhshi, Endrullis, Fokkink, Pang —
//! "Asynchronous Bounded Expected Delay Networks" (PODC 2010)*, Definition 1:
//!
//! 1. a bound `δ` on the **expected** message delay is known (individual
//!    delays may be unbounded and are stochastically independent);
//! 2. bounds `0 < s_low ≤ s_high` on local clock speeds are known;
//! 3. a bound `γ` on the expected local-event processing time is known.
//!
//! The crate provides each ingredient as a composable model plus a runtime
//! that wires them into a deterministic discrete-event simulation:
//!
//! * [`delay`] — distribution families with exact analytic means, including
//!   the paper's lossy-channel [`delay::Retransmission`] model (mean
//!   `slot/p`) and heavy-tailed families;
//! * [`clock`] — per-node local clocks with bounded drift;
//! * [`topology`] — anonymous, port-addressed directed graphs (the
//!   election algorithm's unidirectional ring and richer shapes);
//! * [`AbeParams`] / [`NetworkClass`] — machine-checked network-class
//!   contracts (asynchronous / ABD / ABE, with `ABD ⊂ ABE`);
//! * [`Protocol`] / [`Ctx`] — the anonymous, port-based algorithm API;
//! * [`fault`] — deterministic fault injection (crash-stop / crash-recover
//!   schedules, random drops, partition windows, delay storms), composed
//!   via [`NetworkBuilder::fault`];
//! * [`adversary`] — budgeted scheduling adversaries that *choose* delays
//!   (Definition 1's adversarial clause) under an enforced per-edge
//!   expected-delay bound, composed via [`NetworkBuilder::adversary`];
//! * [`NetworkBuilder`] / [`Network`] — assembly and execution, producing a
//!   [`NetworkReport`] with message counts and experiment counters;
//! * [`RunConfig`] / [`Run`] — the one run surface the workload crates
//!   share: the substrate knobs declared once, and `run(topology,
//!   factory)` from configuration to report, final states and telemetry.
//!
//! ## Example: a token circling an ABE ring
//!
//! ```
//! use abe_core::delay::Exponential;
//! use abe_core::{Ctx, InPort, NetworkBuilder, OutPort, Protocol, Topology};
//! use abe_sim::RunLimits;
//!
//! /// Forwards a token around the ring a fixed number of times.
//! #[derive(Debug)]
//! struct TokenRing {
//!     is_initiator: bool,
//!     remaining: u32,
//! }
//!
//! impl Protocol for TokenRing {
//!     type Message = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         if self.is_initiator {
//!             ctx.send(OutPort(0), ());
//!         }
//!     }
//!     fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.send(OutPort(0), ());
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = NetworkBuilder::new(Topology::unidirectional_ring(8)?)
//!     .delay(Exponential::from_mean(1.0)?)
//!     .seed(42)
//!     .build(|i| TokenRing { is_initiator: i == 0, remaining: 16 })?;
//! let (report, _net) = net.run(RunLimits::unbounded());
//! assert!(report.outcome.is_quiescent());
//! assert!(report.messages_delivered > 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
mod builder;
mod class;
pub mod clock;
pub mod delay;
mod error;
pub mod fault;
mod net;
mod protocol;
mod run;
pub mod shard;
pub mod topology;

pub use abe_telemetry::{Recording, RunRecorder, TraceEvent, TraceRecord};
pub use adversary::{Adversary, AdversaryPlan, AdversaryStats, BudgetAuditor, SendView};
pub use builder::NetworkBuilder;
pub use class::{AbeParams, NetworkClass};
pub use error::{BuildError, ClassViolation, InvalidParamError, TopologyError};
pub use fault::{FaultPlan, FaultStats, OutcomeClass};
pub use net::{NetEvent, Network, NetworkReport, ShardTiming};
pub use protocol::{geometric_trials, Ctx, CtxEffects, InPort, Mark, OutPort, Protocol};
pub use run::{Run, RunConfig};
pub use topology::Topology;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{Deterministic, Exponential};
    use abe_sim::RunLimits;

    /// Node 0 emits `count` pings spaced one tick apart; everyone else
    /// counts what they receive and forwards nothing.
    #[derive(Debug)]
    struct Pinger {
        is_source: bool,
        to_send: u32,
        received: u32,
    }

    impl Protocol for Pinger {
        type Message = u32;

        fn on_tick(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.to_send > 0 {
                self.to_send -= 1;
                ctx.send(OutPort(0), self.to_send);
            }
        }

        fn on_message(&mut self, _from: InPort, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.received += 1;
            ctx.count("received", 1);
        }

        fn wants_tick(&self) -> bool {
            self.is_source && self.to_send > 0
        }
    }

    fn pinger_net(seed: u64) -> Network<Pinger> {
        NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(seed)
            .build(|i| Pinger {
                is_source: i == 0,
                to_send: if i == 0 { 5 } else { 0 },
                received: 0,
            })
            .unwrap()
    }

    #[test]
    fn network_runs_to_quiescence_and_counts() {
        let (report, net) = pinger_net(1).run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert_eq!(report.messages_sent, 5);
        assert_eq!(report.messages_delivered, 5);
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.counter("received"), 5);
        assert_eq!(net.node(1).received, 5);
        assert_eq!(net.node_messages_sent(0), 5);
        assert_eq!(net.node_messages_received(1), 5);
        // Source ticked at least once per message.
        assert!(report.ticks >= 5);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let (a, _) = pinger_net(7).run(RunLimits::unbounded());
        let (b, _) = pinger_net(7).run(RunLimits::unbounded());
        assert_eq!(a, b);
        let (c, _) = pinger_net(8).run(RunLimits::unbounded());
        assert_ne!(a.end_time, c.end_time);
    }

    #[test]
    fn non_fifo_channels_can_reorder() {
        // With exponential delays and sequence-numbered pings, the receiver
        // observing any out-of-order pair proves non-FIFO delivery.
        #[derive(Debug)]
        struct SeqCheck {
            is_source: bool,
            to_send: u32,
            seen: Vec<u32>,
        }
        impl Protocol for SeqCheck {
            type Message = u32;
            fn on_tick(&mut self, ctx: &mut Ctx<'_, u32>) {
                if self.to_send > 0 {
                    let seq = 100 - self.to_send;
                    self.to_send -= 1;
                    ctx.send(OutPort(0), seq);
                }
            }
            fn on_message(&mut self, _from: InPort, msg: u32, _ctx: &mut Ctx<'_, u32>) {
                self.seen.push(msg);
            }
            fn wants_tick(&self) -> bool {
                self.is_source && self.to_send > 0
            }
        }
        let build = |fifo: bool, seed: u64| {
            NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
                .delay(Exponential::from_mean(5.0).unwrap())
                .fifo(fifo)
                .seed(seed)
                .build(|i| SeqCheck {
                    is_source: i == 0,
                    to_send: if i == 0 { 100 } else { 0 },
                    seen: vec![],
                })
                .unwrap()
        };
        // Non-FIFO: some seed shows reordering.
        let reordered = (0..20).any(|seed| {
            let (_, net) = build(false, seed).run(RunLimits::unbounded());
            net.node(1).seen.windows(2).any(|w| w[0] > w[1])
        });
        assert!(reordered, "exponential delays should reorder eventually");
        // FIFO: never reordered, for any seed.
        for seed in 0..20 {
            let (_, net) = build(true, seed).run(RunLimits::unbounded());
            assert!(
                net.node(1).seen.windows(2).all(|w| w[0] <= w[1]),
                "fifo violated at seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_delay_gives_exact_latency() {
        #[derive(Debug)]
        struct OneShot {
            fire: bool,
            got_at: Option<f64>,
        }
        impl Protocol for OneShot {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.fire {
                    ctx.send(OutPort(0), ());
                }
            }
            fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
                self.got_at = Some(ctx.local_time());
                ctx.stop_network();
            }
        }
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(2.5).unwrap())
            .build(|i| OneShot {
                fire: i == 0,
                got_at: None,
            })
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        assert!(report.outcome.is_stopped());
        assert_eq!(report.end_time.as_secs(), 2.5);
        assert_eq!(net.node(1).got_at, Some(2.5));
    }

    #[test]
    fn processing_delay_adds_to_latency() {
        #[derive(Debug)]
        struct OneShot {
            fire: bool,
        }
        impl Protocol for OneShot {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.fire {
                    ctx.send(OutPort(0), ());
                }
            }
            fn on_message(&mut self, _from: InPort, _msg: (), ctx: &mut Ctx<'_, ()>) {
                ctx.stop_network();
            }
        }
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Deterministic::new(2.0).unwrap())
            .processing(Deterministic::new(0.5).unwrap())
            .build(|i| OneShot { fire: i == 0 })
            .unwrap();
        let (report, _) = net.run(RunLimits::unbounded());
        assert_eq!(report.end_time.as_secs(), 2.5);
    }

    #[test]
    fn edge_delay_count_is_validated() {
        let err = NetworkBuilder::new(Topology::unidirectional_ring(3).unwrap())
            .edge_delays(vec![std::sync::Arc::new(Deterministic::zero()) as _])
            .build(|_| Pinger {
                is_source: false,
                to_send: 0,
                received: 0,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::EdgeDelayCount {
                supplied: 1,
                edges: 3
            }
        ));
    }

    #[test]
    fn invalid_tick_interval_fails_build() {
        for interval in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = NetworkBuilder::new(Topology::unidirectional_ring(3).unwrap())
                .tick_interval(interval)
                .build(|_| Pinger {
                    is_source: false,
                    to_send: 0,
                    received: 0,
                })
                .unwrap_err();
            match err {
                BuildError::InvalidParam(e) => assert_eq!(e.param, "tick_interval"),
                other => panic!("tick_interval {interval}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn class_violation_fails_build() {
        let class = NetworkClass::Abe(AbeParams::with_delta(0.5).unwrap());
        let err = NetworkBuilder::new(Topology::unidirectional_ring(3).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .class(class)
            .build(|_| Pinger {
                is_source: false,
                to_send: 0,
                received: 0,
            })
            .unwrap_err();
        assert!(matches!(err, BuildError::Class(_)));
    }

    #[test]
    fn class_conforming_build_succeeds() {
        let class = NetworkClass::Abe(AbeParams::with_delta(1.0).unwrap());
        assert!(
            NetworkBuilder::new(Topology::unidirectional_ring(3).unwrap())
                .delay(Exponential::from_mean(1.0).unwrap())
                .class(class)
                .build(|_| Pinger {
                    is_source: false,
                    to_send: 0,
                    received: 0,
                })
                .is_ok()
        );
    }

    #[test]
    fn max_time_limit_interrupts_run() {
        let net = pinger_net(3);
        let (report, _) = net.run(RunLimits::until(abe_sim::SimTime::from_secs(0.5)));
        assert_eq!(report.outcome, abe_sim::RunOutcome::MaxTime);
    }
}
