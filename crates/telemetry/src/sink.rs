//! The [`Recorder`] trait and the bounded ring sink.

use std::collections::VecDeque;

use crate::event::TraceRecord;

/// Consumes a trace stream, one record at a time, in trace order.
///
/// Implemented by the three built-in sinks — [`RingSink`], the
/// [`JsonlSink`](crate::JsonlSink) writer, and the aggregating
/// [`HistogramSink`](crate::HistogramSink) — and open to callers that
/// want custom analyses without buffering the whole stream.
pub trait Recorder {
    /// Observes one record.
    fn record(&mut self, rec: &TraceRecord);
}

/// A bounded ring of the most recent records, with an exact count of
/// evictions.
#[derive(Debug, Clone)]
pub struct RingSink {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    seen: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` records; capacity 0 counts
    /// every record as dropped.
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            seen: 0,
        }
    }

    /// Records retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records observed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Records evicted or rejected: `seen − len`.
    pub fn dropped(&self) -> u64 {
        self.seen - self.records.len() as u64
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }
}

impl Recorder for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use abe_sim::SimTime;

    fn tick(node: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(f64::from(node)),
            key: 0,
            sub: 0,
            event: TraceEvent::Tick { node },
        }
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let mut ring = RingSink::new(2);
        for node in 0..5 {
            ring.record(&tick(node));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.dropped(), 3);
        let nodes: Vec<u32> = ring
            .iter()
            .map(|r| match r.event {
                TraceEvent::Tick { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut ring = RingSink::new(0);
        ring.record(&tick(0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }
}
