//! Trace analysis: timelines, causal chains, and the empirical
//! Definition-1 audit.
//!
//! Everything here is a pure function of an in-memory record slice in
//! trace order — the analyses are deterministic and run identically on
//! a freshly recorded trace or one re-read from `trace-v1` JSONL.
//!
//! The headline analysis is [`TraceAnalysis::delay_audit`]: Definition 1
//! of the source paper bounds each channel's *expected* message delay by
//! a constant; the audit recomputes every edge's empirical mean granted
//! delay from `Send` records so it can be cross-checked against the
//! delay model's declared budget or an adversary auditor's observed
//! `max_edge_mean`.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use abe_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};

/// Per-edge roll-up of message traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeStats {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// `Send` records observed.
    pub sends: u64,
    /// `Deliver` records observed.
    pub delivers: u64,
    /// Drops of any kind (`drop_crash` + `drop_partition` + `drop_random`).
    pub drops: u64,
    /// Sum of granted channel delays over sends.
    pub delay_sum: f64,
}

impl EdgeStats {
    /// Empirical mean granted delay (`NaN` with zero sends).
    pub fn mean_delay(&self) -> f64 {
        self.delay_sum / self.sends as f64
    }
}

/// Per-node roll-up of dispatch activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Start/tick/deliver dispatches handled by this node.
    pub dispatches: u64,
    /// Messages this node sent.
    pub sends: u64,
    /// Crash events.
    pub crashes: u64,
    /// Recover events.
    pub recoveries: u64,
    /// `(time, state)` transitions, in order.
    pub states: Vec<(SimTime, &'static str)>,
    /// `(time, value)` decisions, in order.
    pub decisions: Vec<(SimTime, u64)>,
}

/// One hop in a causal chain: a message delivery and the message (if
/// any) that the handling dispatch emitted next along the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainHop {
    /// Edge the message travelled.
    pub edge: u32,
    /// Per-edge send sequence number.
    pub seq: u64,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// When the message entered the channel (`None` if the send record
    /// fell outside the retained window).
    pub sent_at: Option<SimTime>,
    /// When it was handled (`None` if dropped or still in flight).
    pub delivered_at: Option<SimTime>,
}

/// Deterministic analyses over a trace-ordered record slice.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    edges: BTreeMap<u32, EdgeStats>,
    nodes: BTreeMap<u32, NodeStats>,
    /// Per edge, where each message's `Send` and `Deliver` records sit.
    messages: ById<SeqIndex>,
    /// What [`chain_from`](Self::chain_from) reads of each record, in
    /// trace order; payloads are not kept.
    records: Vec<Stamp>,
    span: Option<(SimTime, SimTime)>,
}

/// A record's position and, for a `Send` or `Deliver`, its message.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    time: SimTime,
    key: u64,
    message: Message,
}

#[derive(Debug, Clone, Copy)]
enum Message {
    None,
    Send {
        edge: u32,
        seq: u64,
        src: u32,
        dst: u32,
    },
    Deliver {
        src: u32,
        dst: u32,
    },
}

/// One message of an edge: the indices of its (last) `Send` and
/// `Deliver` records.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    send: Option<usize>,
    deliver: Option<usize>,
}

/// One edge's messages, sorted by `seq`.
///
/// An edge numbers its sends 0, 1, 2, …, so in a kernel trace the slot
/// for `seq` sits at `seq − first` — `first` being where a capped
/// recording's window starts — and a new send appends. Any other trace
/// (gaps, hand-built records) falls back to binary search and stays
/// correct.
#[derive(Debug, Clone, Default)]
struct SeqIndex(Vec<Slot>);

impl SeqIndex {
    fn position(&self, seq: u64) -> Result<usize, usize> {
        let (Some(first), Some(last)) = (self.0.first(), self.0.last()) else {
            return Err(0);
        };
        if last.seq < seq {
            return Err(self.0.len());
        }
        let dense = seq
            .checked_sub(first.seq)
            .and_then(|d| usize::try_from(d).ok());
        match dense {
            Some(i) if self.0.get(i).is_some_and(|s| s.seq == seq) => Ok(i),
            _ => self.0.binary_search_by_key(&seq, |s| s.seq),
        }
    }

    fn get(&self, seq: u64) -> Option<&Slot> {
        self.position(seq).ok().map(|i| &self.0[i])
    }

    fn slot(&mut self, seq: u64) -> &mut Slot {
        let i = self.position(seq).unwrap_or_else(|i| {
            let empty = Slot {
                seq,
                send: None,
                deliver: None,
            };
            self.0.insert(i, empty);
            i
        });
        &mut self.0[i]
    }
}

/// Values keyed by node or edge id, stored densely in first-seen order:
/// finding one costs a hash of the id rather than a walk down a tree.
#[derive(Debug, Clone, Default)]
struct ById<T> {
    slots: HashMap<u32, usize>,
    values: Vec<(u32, T)>,
}

impl<T: Default> ById<T> {
    fn entry(&mut self, id: u32) -> &mut T {
        let next = self.values.len();
        let i = *self.slots.entry(id).or_insert(next);
        if i == next {
            self.values.push((id, T::default()));
        }
        &mut self.values[i].1
    }
}

impl<T> ById<T> {
    fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(&id).map(|&i| &self.values[i].1)
    }
}

/// The roll-ups while records come in, kept by id in first-seen order;
/// [`finish`](Self::finish) sorts them by id once.
#[derive(Default)]
struct Builder {
    edges: ById<(EdgeStats, SeqIndex)>,
    nodes: ById<NodeStats>,
    records: Vec<Stamp>,
    span: Option<(SimTime, SimTime)>,
}

impl Builder {
    fn absorb(&mut self, rec: &TraceRecord) {
        let idx = self.records.len();
        self.span = Some(match self.span {
            None => (rec.time, rec.time),
            Some((lo, hi)) => (lo.min(rec.time), hi.max(rec.time)),
        });
        let mut message = Message::None;
        match &rec.event {
            TraceEvent::Start { node } | TraceEvent::Tick { node } => {
                self.nodes.entry(*node).dispatches += 1;
            }
            &TraceEvent::Send {
                edge,
                src,
                dst,
                seq,
                delay,
                ..
            } => {
                let (e, seqs) = self.edges.entry(edge);
                e.src = src;
                e.dst = dst;
                e.sends += 1;
                e.delay_sum += delay;
                seqs.slot(seq).send = Some(idx);
                self.nodes.entry(src).sends += 1;
                message = Message::Send {
                    edge,
                    seq,
                    src,
                    dst,
                };
            }
            &TraceEvent::Deliver {
                edge,
                src,
                dst,
                seq,
                ..
            } => {
                let (e, seqs) = self.edges.entry(edge);
                e.src = src;
                e.dst = dst;
                e.delivers += 1;
                seqs.slot(seq).deliver = Some(idx);
                self.nodes.entry(dst).dispatches += 1;
                message = Message::Deliver { src, dst };
            }
            TraceEvent::DropCrash { edge, src, dst, .. }
            | TraceEvent::DropPartition { edge, src, dst, .. }
            | TraceEvent::DropRandom { edge, src, dst, .. } => {
                let (e, _) = self.edges.entry(*edge);
                e.src = *src;
                e.dst = *dst;
                e.drops += 1;
            }
            TraceEvent::Crash { node } => {
                self.nodes.entry(*node).crashes += 1;
            }
            TraceEvent::Recover { node } => {
                self.nodes.entry(*node).recoveries += 1;
            }
            TraceEvent::StateChange { node, to } => {
                self.nodes.entry(*node).states.push((rec.time, to));
            }
            TraceEvent::Decide { node, value } => {
                self.nodes.entry(*node).decisions.push((rec.time, *value));
            }
        }
        self.records.push(Stamp {
            time: rec.time,
            key: rec.key,
            message,
        });
    }

    fn finish(self) -> TraceAnalysis {
        let ById { slots, values } = self.edges;
        let mut edges = BTreeMap::new();
        let mut messages = Vec::with_capacity(values.len());
        for (id, (stats, seqs)) in values {
            edges.insert(id, stats);
            messages.push((id, seqs));
        }
        TraceAnalysis {
            edges,
            nodes: self.nodes.values.into_iter().collect(),
            messages: ById {
                slots,
                values: messages,
            },
            records: self.records,
            span: self.span,
        }
    }
}

impl TraceAnalysis {
    /// Builds the analysis from records in trace order, owned or
    /// borrowed (`rec.records()` works as is).
    pub fn from_records<I>(records: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<TraceRecord>,
    {
        let mut build = Builder::default();
        for rec in records {
            build.absorb(rec.borrow());
        }
        build.finish()
    }

    /// Records analysed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-edge statistics, keyed by edge id.
    pub fn edges(&self) -> &BTreeMap<u32, EdgeStats> {
        &self.edges
    }

    /// Per-node statistics, keyed by node id.
    pub fn nodes(&self) -> &BTreeMap<u32, NodeStats> {
        &self.nodes
    }

    /// The `(first, last)` record times, if any records exist.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        self.span
    }

    /// The largest per-edge empirical mean granted delay, with its edge
    /// id — the quantity Definition 1 bounds in expectation.
    pub fn max_edge_mean(&self) -> Option<(u32, f64)> {
        self.edges
            .iter()
            .filter(|(_, e)| e.sends > 0)
            .map(|(id, e)| (*id, e.mean_delay()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Per-edge Definition-1 audit rows `(edge, stats, mean)` for edges
    /// that carried at least one send, in edge-id order.
    pub fn delay_audit(&self) -> Vec<(u32, &EdgeStats, f64)> {
        self.edges
            .iter()
            .filter(|(_, e)| e.sends > 0)
            .map(|(id, e)| (*id, e, e.mean_delay()))
            .collect()
    }

    /// Follows the causal chain starting from message `(edge, seq)`:
    /// each hop is a delivery whose handling dispatch sent the next
    /// message in the chain (the first send of that dispatch, when it
    /// fanned out). Stops at `limit` hops, at a drop, or when the chain
    /// leaves the retained window.
    pub fn chain_from(&self, edge: u32, seq: u64, limit: usize) -> Vec<ChainHop> {
        let mut hops = Vec::new();
        let mut cursor = Some((edge, seq));
        while let Some((edge, seq)) = cursor {
            if hops.len() >= limit {
                break;
            }
            let slot = self.messages.get(edge).and_then(|m| m.get(seq));
            let send_idx = slot.and_then(|s| s.send);
            let deliver_idx = slot.and_then(|s| s.deliver);
            let (src, dst) = match deliver_idx.or(send_idx).map(|i| self.records[i].message) {
                Some(Message::Send { src, dst, .. } | Message::Deliver { src, dst }) => (src, dst),
                _ => break,
            };
            hops.push(ChainHop {
                edge,
                seq,
                src,
                dst,
                sent_at: send_idx.map(|i| self.records[i].time),
                delivered_at: deliver_idx.map(|i| self.records[i].time),
            });
            // The next hop is the first Send emitted by the delivering
            // dispatch: same (time, key), larger sub.
            cursor = deliver_idx.and_then(|i| {
                let head = &self.records[i];
                self.records[i + 1..]
                    .iter()
                    .take_while(|r| r.time == head.time && r.key == head.key)
                    .find_map(|r| match r.message {
                        Message::Send { edge, seq, .. } => Some((edge, seq)),
                        _ => None,
                    })
            });
        }
        hops
    }

    /// Renders a human-readable report: run span, per-node summary
    /// lines (with state/decision timelines), the Definition-1 audit
    /// table, and — when `declared_bound` is given — a verdict per edge.
    pub fn report(&self, declared_bound: Option<f64>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace analysis: {} records", self.len());
        if let Some((lo, hi)) = self.span {
            let _ = writeln!(
                out,
                "span: [{:.6}, {:.6}] virtual seconds",
                lo.as_secs(),
                hi.as_secs()
            );
        }
        let _ = writeln!(out, "\nnodes:");
        for (id, n) in &self.nodes {
            let _ = write!(
                out,
                "  n{id}: {} dispatches, {} sends",
                n.dispatches, n.sends
            );
            if n.crashes > 0 {
                let _ = write!(out, ", {} crashes / {} recoveries", n.crashes, n.recoveries);
            }
            let _ = writeln!(out);
            for (t, s) in &n.states {
                let _ = writeln!(out, "    [{:.6}] state -> {s}", t.as_secs());
            }
            for (t, v) in &n.decisions {
                let _ = writeln!(out, "    [{:.6}] decide = {v}", t.as_secs());
            }
        }
        let _ = writeln!(
            out,
            "\ndefinition-1 delay audit (per-edge mean granted delay):"
        );
        for (id, e, mean) in self.delay_audit() {
            let _ = write!(
                out,
                "  e{id} n{} -> n{}: sends={} delivers={} drops={} mean={:.6}",
                e.src, e.dst, e.sends, e.delivers, e.drops, mean
            );
            if let Some(bound) = declared_bound {
                let _ = write!(
                    out,
                    " bound={bound:.6} {}",
                    if mean <= bound { "OK" } else { "EXCEEDED" }
                );
            }
            let _ = writeln!(out);
        }
        if let Some((edge, mean)) = self.max_edge_mean() {
            let _ = writeln!(out, "max edge mean: e{edge} at {mean:.6}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, key: u64, sub: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(t),
            key,
            sub,
            event,
        }
    }

    fn send(edge: u32, src: u32, dst: u32, seq: u64, delay: f64) -> TraceEvent {
        TraceEvent::Send {
            edge,
            src,
            dst,
            seq,
            size: 8,
            delay,
        }
    }

    fn deliver(edge: u32, src: u32, dst: u32, seq: u64) -> TraceEvent {
        TraceEvent::Deliver {
            edge,
            src,
            dst,
            seq,
            size: 8,
            payload: None,
        }
    }

    /// A 3-node relay: n0 starts and sends to n1; n1's delivery dispatch
    /// forwards to n2.
    fn relay_trace() -> Vec<TraceRecord> {
        vec![
            rec(0.0, 1, 0, TraceEvent::Start { node: 0 }),
            rec(0.0, 1, 1, send(0, 0, 1, 0, 0.5)),
            rec(0.5, 100, 0, deliver(0, 0, 1, 0)),
            rec(0.5, 100, 1, send(1, 1, 2, 0, 0.25)),
            rec(
                0.5,
                100,
                2,
                TraceEvent::StateChange {
                    node: 1,
                    to: "relay",
                },
            ),
            rec(0.75, 200, 0, deliver(1, 1, 2, 0)),
            rec(0.75, 200, 1, TraceEvent::Decide { node: 2, value: 7 }),
        ]
    }

    #[test]
    fn edge_and_node_stats_roll_up() {
        let a = TraceAnalysis::from_records(relay_trace());
        assert_eq!(a.len(), 7);
        assert_eq!(a.edges()[&0].sends, 1);
        assert_eq!(a.edges()[&0].delivers, 1);
        assert_eq!(a.edges()[&1].mean_delay(), 0.25);
        assert_eq!(a.nodes()[&0].sends, 1);
        assert_eq!(a.nodes()[&1].dispatches, 1);
        assert_eq!(a.nodes()[&2].decisions, vec![(SimTime::from_secs(0.75), 7)]);
        assert_eq!(a.max_edge_mean(), Some((0, 0.5)));
    }

    #[test]
    fn chains_follow_deliver_then_send_links() {
        let a = TraceAnalysis::from_records(relay_trace());
        let chain = a.chain_from(0, 0, 8);
        assert_eq!(chain.len(), 2);
        assert_eq!((chain[0].edge, chain[0].src, chain[0].dst), (0, 0, 1));
        assert_eq!((chain[1].edge, chain[1].src, chain[1].dst), (1, 1, 2));
        assert_eq!(chain[1].sent_at, Some(SimTime::from_secs(0.5)));
        assert_eq!(chain[1].delivered_at, Some(SimTime::from_secs(0.75)));
    }

    #[test]
    fn report_includes_audit_verdicts() {
        let a = TraceAnalysis::from_records(relay_trace());
        let ok = a.report(Some(1.0));
        assert!(ok.contains("OK"), "{ok}");
        assert!(!ok.contains("EXCEEDED"));
        let bad = a.report(Some(0.3));
        assert!(bad.contains("EXCEEDED"), "{bad}");
        assert!(bad.contains("state -> relay"));
        assert!(bad.contains("decide = 7"));
    }
}
