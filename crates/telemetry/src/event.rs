//! The typed trace vocabulary: what the kernel can say about a run.
//!
//! A [`TraceEvent`] names one observable kernel action — a message
//! movement, a fault transition, a protocol-declared state change — with
//! the entity ids involved. A [`TraceRecord`] wraps the event with its
//! position in the run: virtual time, the ordering key of the kernel
//! event being handled when the record was emitted, and a sub-index for
//! multiple records emitted by one dispatch. `(time, key, sub)` totally
//! orders a trace and is identical for sequential and sharded execution,
//! which is what makes shard-local traces mergeable byte-for-byte (see
//! [`merge_chunks`](crate::merge_chunks)).

use std::fmt;

use abe_sim::SimTime;

/// One structured kernel event.
///
/// Every variant carries the entity ids (node or edge endpoints) it
/// concerns; message variants additionally carry the per-edge send
/// sequence number `seq` (which pairs a [`Deliver`](Self::Deliver) with
/// its [`Send`](Self::Send)) and the declared wire `size` in bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Node `node` handled its start event (time zero).
    Start {
        /// The starting node.
        node: u32,
    },
    /// Node `node` handled a local clock tick.
    Tick {
        /// The ticking node.
        node: u32,
    },
    /// A message entered edge `edge` as its `seq`-th send.
    Send {
        /// Edge id.
        edge: u32,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-edge send sequence number (0-based).
        seq: u64,
        /// Declared wire size in bytes (0 for control-plane tokens).
        size: u64,
        /// The granted channel delay: what the delay model sampled, after
        /// any adversary interception and auditor clamp, **before** fault
        /// storm stretching and processing delay. This is exactly the
        /// quantity Definition 1 bounds in expectation and the quantity
        /// `BudgetAuditor` audits, so per-edge means over these values
        /// are directly comparable to the audited bound.
        delay: f64,
    },
    /// The `seq`-th send on edge `edge` reached its destination handler.
    Deliver {
        /// Edge id.
        edge: u32,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-edge send sequence number (0-based).
        seq: u64,
        /// Declared wire size in bytes.
        size: u64,
        /// `Debug` rendering of the payload, captured only when the
        /// recording asked for payloads (see
        /// [`Recording::payloads`](crate::Recording::payloads)).
        payload: Option<Box<str>>,
    },
    /// The `seq`-th send on edge `edge` arrived at a crashed node and
    /// was dropped.
    DropCrash {
        /// Edge id.
        edge: u32,
        /// Sending node.
        src: u32,
        /// Receiving (crashed) node.
        dst: u32,
        /// Per-edge send sequence number (0-based).
        seq: u64,
        /// Declared wire size in bytes.
        size: u64,
    },
    /// The `seq`-th send on edge `edge` was dropped by an active
    /// partition at send time.
    DropPartition {
        /// Edge id.
        edge: u32,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-edge send sequence number (0-based).
        seq: u64,
        /// Declared wire size in bytes.
        size: u64,
    },
    /// The `seq`-th send on edge `edge` was dropped by random edge loss
    /// at send time.
    DropRandom {
        /// Edge id.
        edge: u32,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Per-edge send sequence number (0-based).
        seq: u64,
        /// Declared wire size in bytes.
        size: u64,
    },
    /// Node `node` crashed (fault plan).
    Crash {
        /// The crashing node.
        node: u32,
    },
    /// Node `node` recovered (fault plan).
    Recover {
        /// The recovering node.
        node: u32,
    },
    /// Protocol-declared state transition on `node` (via
    /// `Ctx::note_state`).
    StateChange {
        /// The transitioning node.
        node: u32,
        /// The state entered.
        to: &'static str,
    },
    /// Protocol-declared decision on `node` (via `Ctx::decide`).
    Decide {
        /// The deciding node.
        node: u32,
        /// The decided value.
        value: u64,
    },
}

impl TraceEvent {
    /// The stable lowercase name used in `trace-v1` JSONL (`"send"`,
    /// `"deliver"`, `"drop_crash"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Start { .. } => "start",
            TraceEvent::Tick { .. } => "tick",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::DropCrash { .. } => "drop_crash",
            TraceEvent::DropPartition { .. } => "drop_partition",
            TraceEvent::DropRandom { .. } => "drop_random",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Recover { .. } => "recover",
            TraceEvent::StateChange { .. } => "state_change",
            TraceEvent::Decide { .. } => "decide",
        }
    }
}

/// `Display` renders one compact line per event (`"start n0"`,
/// `"deliver n0 -> n1: ()"`, `"crash n1"`), every variant in the same
/// `n<id>` style.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Start { node } => write!(f, "start n{node}"),
            TraceEvent::Tick { node } => write!(f, "tick n{node}"),
            TraceEvent::Send { src, dst, .. } => write!(f, "send n{src} -> n{dst}"),
            TraceEvent::Deliver {
                src, dst, payload, ..
            } => match payload {
                Some(p) => write!(f, "deliver n{src} -> n{dst}: {p}"),
                None => write!(f, "deliver n{src} -> n{dst}"),
            },
            TraceEvent::DropCrash { src, dst, .. } => {
                write!(f, "drop-crash n{src} -> n{dst}")
            }
            TraceEvent::DropPartition { src, dst, .. } => {
                write!(f, "drop-partition n{src} -> n{dst}")
            }
            TraceEvent::DropRandom { src, dst, .. } => {
                write!(f, "drop-random n{src} -> n{dst}")
            }
            TraceEvent::Crash { node } => write!(f, "crash n{node}"),
            TraceEvent::Recover { node } => write!(f, "recover n{node}"),
            TraceEvent::StateChange { node, to } => write!(f, "state n{node} -> {to}"),
            TraceEvent::Decide { node, value } => write!(f, "decide n{node} = {value}"),
        }
    }
}

/// One trace record: an event plus its total position in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time at which the enclosing kernel event was handled.
    pub time: SimTime,
    /// Ordering key of the enclosing kernel event (the same key the
    /// event queue popped it under). Pure function of event identity —
    /// never of scheduling order — so sequential and sharded runs stamp
    /// identical keys.
    pub key: u64,
    /// Index of this record among those emitted while handling that one
    /// kernel event (the head record is 0, its effects follow).
    pub sub: u32,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The `(time, key, sub)` merge key totally ordering a trace.
    pub fn order(&self) -> (SimTime, u64, u32) {
        (self.time, self.key, self.sub)
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}] {}", self.time.as_secs(), self.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reproduces_legacy_lines() {
        assert_eq!(TraceEvent::Start { node: 0 }.to_string(), "start n0");
        assert_eq!(TraceEvent::Tick { node: 3 }.to_string(), "tick n3");
        assert_eq!(TraceEvent::Crash { node: 1 }.to_string(), "crash n1");
        assert_eq!(TraceEvent::Recover { node: 1 }.to_string(), "recover n1");
        let deliver = TraceEvent::Deliver {
            edge: 0,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
            payload: Some("()".into()),
        };
        assert_eq!(deliver.to_string(), "deliver n0 -> n1: ()");
    }

    #[test]
    fn names_are_stable() {
        let send = TraceEvent::Send {
            edge: 0,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
            delay: 0.5,
        };
        assert_eq!(send.name(), "send");
        assert_eq!(TraceEvent::Decide { node: 2, value: 1 }.name(), "decide");
        assert_eq!(
            TraceEvent::StateChange {
                node: 2,
                to: "leader"
            }
            .to_string(),
            "state n2 -> leader"
        );
    }

    #[test]
    fn records_order_by_time_key_sub() {
        let rec = |t: f64, key: u64, sub: u32| TraceRecord {
            time: SimTime::from_secs(t),
            key,
            sub,
            event: TraceEvent::Tick { node: 0 },
        };
        assert!(rec(1.0, 9, 0).order() < rec(2.0, 0, 0).order());
        assert!(rec(1.0, 1, 5).order() < rec(1.0, 2, 0).order());
        assert!(rec(1.0, 1, 0).order() < rec(1.0, 1, 1).order());
    }
}
