//! The graph synchroniser: synchronous rounds over an ABE network.
//!
//! Every node sends **exactly one envelope per round on every out-edge**
//! (carrying that round's application messages, possibly none) and fires
//! its next pulse once it has received one round-`r` envelope on every
//! in-edge. On a unidirectional ring this costs exactly `n` messages per
//! round — meeting the lower bound of the paper's **Theorem 1** ("ABE
//! networks of size n cannot be synchronised with fewer than n messages per
//! round") with equality; on any other strongly connected digraph it costs
//! `m ≥ n` messages per round.
//!
//! Correctness does not assume FIFO links: envelopes carry round numbers
//! and are buffered, since a neighbour may run ahead (bounded by the
//! graph's diameter).

use std::fmt;

use abe_core::{Ctx, InPort, OutPort, Protocol};

use crate::pulse::{PulseCtx, PulseProtocol, RoundInbox};

/// Counter names emitted by [`GraphSynchronizer`].
pub mod counters {
    /// Pulses fired (summed over nodes; divide by `n` for rounds).
    pub const PULSES: &str = "pulses";
    /// Application messages carried inside envelopes.
    pub const APP_MESSAGES: &str = "app-messages";
    /// Synchroniser envelopes sent (the Theorem 1 cost).
    pub const ENVELOPES: &str = "envelopes";
}

/// Envelope exchanged by the synchroniser.
#[derive(Debug, Clone)]
pub struct SyncEnvelope<M> {
    /// The round this envelope belongs to.
    pub round: u64,
    /// Application messages for the destination, sent at pulse `round`.
    pub app: Vec<M>,
}

/// Runs a [`PulseProtocol`] on an asynchronous/ABE network by exchanging
/// one envelope per edge per round.
///
/// Stops locally after `max_rounds` pulses; combine with the application's
/// own [`PulseCtx::request_stop`] for early termination.
#[derive(Clone)]
pub struct GraphSynchronizer<P: PulseProtocol> {
    app: P,
    max_rounds: u64,
    /// The pulse we have fired last; `None` before the first pulse.
    round: Option<u64>,
    inbox: RoundInbox<P::Message>,
    finished: bool,
    /// Largest observed envelope lead: how many rounds ahead of this
    /// node's last pulse the most advanced arriving envelope was.
    max_lead: u64,
}

impl<P: PulseProtocol> GraphSynchronizer<P> {
    /// Wraps `app`, running at most `max_rounds` rounds.
    pub fn new(app: P, max_rounds: u64) -> Self {
        Self {
            app,
            max_rounds,
            round: None,
            inbox: RoundInbox::new(),
            finished: false,
            max_lead: 0,
        }
    }

    /// The wrapped application.
    pub fn app(&self) -> &P {
        &self.app
    }

    /// Rounds completed by this node so far.
    pub fn rounds_fired(&self) -> u64 {
        self.round.map_or(0, |r| r + 1)
    }

    /// Whether this node has stopped pulsing.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The largest **transient pulse skew** this node has witnessed: the
    /// maximum, over all received envelopes, of how many rounds ahead of
    /// this node's own pulse count the sender was when it sent. Bounded
    /// by the graph's diameter on reliable runs; adversarial reordering
    /// and bursts drive it toward that bound.
    pub fn max_lead(&self) -> u64 {
        self.max_lead
    }

    fn fire_pulse(&mut self, round: u64, ctx: &mut Ctx<'_, SyncEnvelope<P::Message>>) {
        let inbox = self.inbox.take(round.wrapping_sub(1));
        // Run the application pulse with a bridged context.
        let (app_sends, stop) = {
            let mut pctx = PulseCtx::new(
                round,
                ctx.network_size(),
                ctx.out_degree(),
                ctx.in_degree(),
                ctx.rng(),
            );
            self.app.on_pulse(round, &inbox, &mut pctx);
            pctx.into_effects()
        };
        ctx.count(counters::PULSES, 1);
        ctx.count(counters::APP_MESSAGES, app_sends.len() as u64);
        // Group application messages per out-port; send exactly one
        // envelope on every out-edge regardless.
        let mut per_port: Vec<Vec<P::Message>> = vec![Vec::new(); ctx.out_degree()];
        for (port, msg) in app_sends {
            per_port[port.0].push(msg);
        }
        self.round = Some(round);
        if stop {
            ctx.stop_network();
            self.finished = true;
            return;
        }
        if round + 1 >= self.max_rounds {
            // Last round: nothing further to coordinate; stop pulsing and
            // send no envelopes (they could never trigger another pulse).
            self.finished = true;
            return;
        }
        for (port, app) in per_port.into_iter().enumerate() {
            ctx.count(counters::ENVELOPES, 1);
            ctx.send(OutPort(port), SyncEnvelope { round, app });
        }
    }

    fn try_advance(&mut self, ctx: &mut Ctx<'_, SyncEnvelope<P::Message>>) {
        while !self.finished {
            let next = self.round.map_or(0, |r| r + 1);
            if next == 0 {
                // First pulse fires unconditionally (round -1 needs no input).
                self.fire_pulse(0, ctx);
                continue;
            }
            if self.inbox.envelopes(next - 1) == ctx.in_degree() {
                self.fire_pulse(next, ctx);
            } else {
                break;
            }
        }
    }
}

impl<P: PulseProtocol> Protocol for GraphSynchronizer<P> {
    type Message = SyncEnvelope<P::Message>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        self.try_advance(ctx);
    }

    fn on_message(&mut self, from: InPort, msg: Self::Message, ctx: &mut Ctx<'_, Self::Message>) {
        // An envelope for round r was sent at the sender's pulse r; the
        // sender's lead over us is r + 1 − rounds_fired (when positive).
        let lead = (msg.round + 1).saturating_sub(self.rounds_fired());
        self.max_lead = self.max_lead.max(lead);
        self.inbox.push(msg.round, from, msg.app);
        self.try_advance(ctx);
    }

    fn heat(&self) -> u32 {
        // Nodes still pulsing are the synchroniser's frontier; a finished
        // node ignores every further envelope.
        u32::from(!self.finished)
    }
}

impl<P: PulseProtocol + fmt::Debug> fmt::Debug for GraphSynchronizer<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphSynchronizer")
            .field("round", &self.round)
            .field("finished", &self.finished)
            .field("app", &self.app)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_core::delay::Exponential;
    use abe_core::{NetworkBuilder, Topology};
    use abe_sim::RunLimits;

    /// Counts the rounds it observes; pure heartbeat (no app messages).
    #[derive(Debug, Default)]
    struct Heartbeat {
        pulses: u64,
    }

    impl PulseProtocol for Heartbeat {
        type Message = ();
        fn on_pulse(&mut self, _round: u64, _inbox: &[(InPort, ())], _ctx: &mut PulseCtx<'_, ()>) {
            self.pulses += 1;
        }
    }

    fn run_heartbeat(
        topo: Topology,
        rounds: u64,
        seed: u64,
    ) -> (abe_core::NetworkReport, Vec<u64>) {
        let net = NetworkBuilder::new(topo)
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(seed)
            .build(|_| GraphSynchronizer::new(Heartbeat::default(), rounds))
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        let pulses = net.protocols().map(|p| p.app().pulses).collect();
        (report, pulses)
    }

    #[test]
    fn all_nodes_fire_all_rounds() {
        let (report, pulses) = run_heartbeat(Topology::unidirectional_ring(8).unwrap(), 10, 1);
        assert!(report.outcome.is_quiescent());
        assert_eq!(pulses, vec![10; 8]);
    }

    #[test]
    fn ring_costs_exactly_n_messages_per_round() {
        // Theorem 1 floor, met with equality on the unidirectional ring.
        let n = 16u64;
        let rounds = 20u64;
        let (report, _) =
            run_heartbeat(Topology::unidirectional_ring(n as u32).unwrap(), rounds, 2);
        // Every node sends one envelope per round except after its last
        // pulse (the final round sends nothing).
        assert_eq!(report.messages_sent, n * (rounds - 1));
        assert_eq!(report.counter(counters::PULSES), n * rounds);
    }

    #[test]
    fn complete_graph_costs_m_messages_per_round() {
        let n = 6u64;
        let m = n * (n - 1);
        let rounds = 5u64;
        let (report, _) = run_heartbeat(Topology::complete(n as u32).unwrap(), rounds, 3);
        assert_eq!(report.messages_sent, m * (rounds - 1));
    }

    #[test]
    fn rounds_stay_synchronised_under_reordering() {
        // Flooding on a synchronised ABE ring must reach node k exactly at
        // round k (BFS distance), as it would on a true synchronous network.
        #[derive(Debug)]
        struct Flood {
            informed_at: Option<u64>,
            announced: bool,
        }
        impl PulseProtocol for Flood {
            type Message = ();
            fn on_pulse(&mut self, round: u64, inbox: &[(InPort, ())], ctx: &mut PulseCtx<'_, ()>) {
                if !inbox.is_empty() && self.informed_at.is_none() {
                    self.informed_at = Some(round);
                }
                if self.informed_at.is_some() && !self.announced {
                    self.announced = true;
                    for p in 0..ctx.out_degree() {
                        ctx.send(OutPort(p), ());
                    }
                }
            }
        }
        let n = 8u32;
        for seed in 0..5 {
            let net = NetworkBuilder::new(Topology::unidirectional_ring(n).unwrap())
                .delay(Exponential::from_mean(1.0).unwrap())
                .seed(seed)
                .build(|i| {
                    GraphSynchronizer::new(
                        Flood {
                            informed_at: if i == 0 { Some(0) } else { None },
                            announced: false,
                        },
                        (n + 2) as u64,
                    )
                })
                .unwrap();
            let (_, net) = net.run(RunLimits::unbounded());
            for (i, p) in net.protocols().enumerate() {
                assert_eq!(
                    p.app().informed_at,
                    Some(i as u64),
                    "node {i} informed at wrong round (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn partition_stalls_rounds_with_skew() {
        // Cut node 0 off for [1, 4): the first envelope lost on the cut
        // permanently blocks its destination (no retransmission), so the
        // run quiesces with nodes at different round counts — nonzero
        // pulse skew — and classifies as stalled.
        use crate::classify_rounds;
        use abe_core::fault::FaultPlan;
        use abe_core::OutcomeClass;

        let rounds = 12u64;
        let net = NetworkBuilder::new(Topology::unidirectional_ring(6).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(11)
            .fault(FaultPlan::new().partition(vec![0], 1.0, 4.0))
            .build(|_| GraphSynchronizer::new(Heartbeat::default(), rounds))
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        assert!(report.outcome.is_quiescent());
        assert!(report.faults.dropped_partition >= 1);
        let fired: Vec<u64> = net.protocols().map(|p| p.rounds_fired()).collect();
        assert_eq!(
            classify_rounds(fired.iter().copied(), rounds),
            OutcomeClass::Stalled
        );
        let skew = fired.iter().max().unwrap() - fired.iter().min().unwrap();
        assert!(skew > 0, "expected pulse skew, got {fired:?}");
    }

    #[test]
    fn app_stop_terminates_network() {
        #[derive(Debug)]
        struct Stopper;
        impl PulseProtocol for Stopper {
            type Message = ();
            fn on_pulse(
                &mut self,
                round: u64,
                _inbox: &[(InPort, ())],
                ctx: &mut PulseCtx<'_, ()>,
            ) {
                if round == 3 {
                    ctx.request_stop();
                }
            }
        }
        let net = NetworkBuilder::new(Topology::unidirectional_ring(4).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(7)
            .build(|_| GraphSynchronizer::new(Stopper, 1000))
            .unwrap();
        let (report, _) = net.run(RunLimits::unbounded());
        assert!(report.outcome.is_stopped());
    }

    #[test]
    fn app_messages_are_delivered_next_round() {
        #[derive(Debug, Default)]
        struct Echo {
            got: Vec<(u64, u8)>,
        }
        impl PulseProtocol for Echo {
            type Message = u8;
            fn on_pulse(&mut self, round: u64, inbox: &[(InPort, u8)], ctx: &mut PulseCtx<'_, u8>) {
                for (_, v) in inbox {
                    self.got.push((round, *v));
                }
                if round == 0 {
                    ctx.send(OutPort(0), 42);
                }
            }
        }
        let net = NetworkBuilder::new(Topology::unidirectional_ring(2).unwrap())
            .delay(Exponential::from_mean(1.0).unwrap())
            .seed(4)
            .build(|_| GraphSynchronizer::new(Echo::default(), 3))
            .unwrap();
        let (report, net) = net.run(RunLimits::unbounded());
        for p in net.protocols() {
            assert_eq!(p.app().got, vec![(1, 42)]);
        }
        assert_eq!(report.counter(counters::APP_MESSAGES), 2);
    }
}
