//! # abe-telemetry — structured observability for the ABE kernel
//!
//! This crate is the kernel's observability layer: a typed trace
//! vocabulary ([`TraceEvent`]), a recording pipeline ([`Recording`] /
//! [`RunRecorder`]) that the network world drives while it handles
//! events, three sinks — a bounded [`RingSink`], a `trace-v1` JSONL
//! writer ([`JsonlSink`]), and an aggregating [`HistogramSink`] of
//! deterministic virtual-time histograms — and pure trace analyses
//! ([`TraceAnalysis`]) including the empirical Definition-1 delay
//! audit.
//!
//! ## Determinism contract
//!
//! Recording is an *observer*: it makes zero RNG draws and never
//! feeds back into scheduling, so a run with recording enabled
//! produces the exact report of the same run with recording disabled.
//! Every record is stamped with `(time, key, sub)` — virtual time, the
//! ordering key of the kernel event being handled, and an emission
//! index within that dispatch. Keys are pure functions of event
//! *identity* (kind, entity id, sequence number), never of scheduling
//! order, so sequential and sharded executions stamp identical
//! triples; [`merge_chunks`] re-interleaves shard-local chunks into
//! the exact sequential order, making traces byte-identical at any
//! `--threads`/`--shards` setting. Histograms are pure functions of
//! the merged stream and inherit the same guarantee.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

use abe_sim::SimTime;

pub mod analysis;
pub mod event;
pub mod hist;
pub mod jsonl;
pub mod sink;

pub use analysis::{ChainHop, EdgeStats, NodeStats, TraceAnalysis};
pub use event::{TraceEvent, TraceRecord};
pub use hist::{count_bucket, delay_bucket, HistogramSink, BUCKETS};
pub use jsonl::{
    render_header, render_record, validate_trace, JsonlSink, TraceFileSummary, SCHEMA,
};
pub use sink::{Recorder, RingSink};

/// What to record during a run: a retention policy plus capture flags.
///
/// ```
/// use abe_telemetry::Recording;
///
/// let everything = Recording::full().payloads(true).histograms(true);
/// let bounded = Recording::ring(4096);
/// assert_eq!(bounded.cap(), Some(4096));
/// assert!(everything.capture_payloads());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    cap: Option<usize>,
    payloads: bool,
    histograms: bool,
}

impl Recording {
    /// Retain every record (unbounded memory — size traces with a
    /// smoke-scale run before using on large grids).
    pub fn full() -> Self {
        Self {
            cap: None,
            payloads: false,
            histograms: false,
        }
    }

    /// Retain only the most recent `cap` records, counting evictions.
    pub fn ring(cap: usize) -> Self {
        Self {
            cap: Some(cap),
            ..Self::full()
        }
    }

    /// Also capture `Debug` renderings of delivered payloads (costs a
    /// string per delivery; required to reproduce the legacy
    /// `"deliver n0 -> n1: ()"` trace lines).
    pub fn payloads(mut self, on: bool) -> Self {
        self.payloads = on;
        self
    }

    /// Also aggregate the stream into a [`HistogramSink`] (fixed-size
    /// memory regardless of run length).
    pub fn histograms(mut self, on: bool) -> Self {
        self.histograms = on;
        self
    }

    /// The retention cap (`None` = unbounded).
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Whether delivered payloads are captured.
    pub fn capture_payloads(&self) -> bool {
        self.payloads
    }

    /// Whether histograms are aggregated.
    pub fn aggregate_histograms(&self) -> bool {
        self.histograms
    }
}

/// The recorder a run drives while handling events.
///
/// The world calls [`begin`](Self::begin) when it starts handling a
/// kernel event and [`emit`](Self::emit) for each record that handling
/// produces; the recorder stamps `(time, key, sub)` and routes the
/// record to the retained ring and the optional histogram aggregate.
///
/// Sharded runs give each shard a [`window_buffer`](Self::window_buffer)
/// — an unbounded, histogram-free recorder — and at every window barrier
/// [`drain_before`](Self::drain_before) the part of each buffer that no
/// shard can still add to, then [`merge_chunks`] those prefixes into the
/// master recorder via [`absorb_merged`](Self::absorb_merged),
/// reproducing the sequential stream exactly.
#[derive(Debug, Clone)]
pub struct RunRecorder {
    cap: Option<usize>,
    payloads: bool,
    records: VecDeque<TraceRecord>,
    seen: u64,
    hist: Option<HistogramSink>,
    cur_time: SimTime,
    cur_key: u64,
    cur_sub: u32,
    /// Formatting buffer for captured payloads, reused across records.
    text: String,
}

impl RunRecorder {
    /// A recorder implementing `config`.
    pub fn new(config: &Recording) -> Self {
        Self {
            cap: config.cap,
            payloads: config.payloads,
            records: VecDeque::new(),
            seen: 0,
            hist: config.histograms.then(HistogramSink::new),
            cur_time: SimTime::ZERO,
            cur_key: 0,
            cur_sub: 0,
            text: String::new(),
        }
    }

    /// A shard-local recorder: unbounded (barriers keep draining it), no
    /// histogram (aggregation happens post-merge on the master), same
    /// payload policy.
    pub fn window_buffer(&self) -> Self {
        Self {
            cap: None,
            payloads: self.payloads,
            records: VecDeque::new(),
            seen: 0,
            hist: None,
            cur_time: SimTime::ZERO,
            cur_key: 0,
            cur_sub: 0,
            text: String::new(),
        }
    }

    /// Starts a dispatch: subsequent [`emit`](Self::emit) calls stamp
    /// `(time, key)` with sub-indices 0, 1, 2, …
    pub fn begin(&mut self, time: SimTime, key: u64) {
        self.cur_time = time;
        self.cur_key = key;
        self.cur_sub = 0;
    }

    /// Emits one record under the current dispatch stamp.
    pub fn emit(&mut self, event: TraceEvent) {
        let rec = TraceRecord {
            time: self.cur_time,
            key: self.cur_key,
            sub: self.cur_sub,
            event,
        };
        self.cur_sub += 1;
        self.absorb_merged(rec);
    }

    /// Absorbs one already-stamped record (the merge path).
    pub fn absorb_merged(&mut self, rec: TraceRecord) {
        self.seen += 1;
        if let Some(h) = &mut self.hist {
            h.record(&rec);
        }
        match self.cap {
            Some(0) => return,
            Some(cap) if self.records.len() == cap => {
                self.records.pop_front();
            }
            _ => {}
        }
        self.records.push_back(rec);
    }

    /// Drains the retained records in trace order (used to empty a
    /// window buffer at the end of a sharded run). Leaves `seen`
    /// untouched.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.records.drain(..).collect()
    }

    /// Drains the leading records stamped strictly before `(time, key)`,
    /// in trace order, and keeps the rest. Shards end a window at
    /// different times, so at a barrier only the records before the
    /// earliest event still pending anywhere are final; a record behind a
    /// held one stays held even if its own stamp is smaller (a same-time
    /// dispatch its predecessor created). Leaves `seen` untouched.
    pub fn drain_before(&mut self, time: SimTime, key: u64) -> Vec<TraceRecord> {
        let held = self
            .records
            .iter()
            .position(|r| (r.time, r.key) >= (time, key))
            .unwrap_or(self.records.len());
        self.records.drain(..held).collect()
    }

    /// The `Debug` text of a delivered payload when payloads are
    /// captured, `None` otherwise. The text is formatted into a buffer
    /// the recorder keeps, so each capture allocates once, exactly.
    pub fn payload(&mut self, msg: &dyn fmt::Debug) -> Option<Box<str>> {
        if !self.payloads {
            return None;
        }
        self.text.clear();
        write!(self.text, "{msg:?}").expect("writing to a String cannot fail");
        Some(self.text.as_str().into())
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Records retained.
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

    /// Records evicted by the cap: `seen − len`.
    pub fn dropped(&self) -> u64 {
        self.seen - self.records.len() as u64
    }

    /// The histogram aggregate, if the recording asked for one.
    pub fn histograms(&self) -> Option<&HistogramSink> {
        self.hist.as_ref()
    }

    /// Replays the retained records into `sink` in trace order.
    pub fn replay<R: Recorder>(&self, sink: &mut R) {
        for rec in &self.records {
            sink.record(rec);
        }
    }
}

/// Merges shard-local trace chunks into exact sequential order.
///
/// Each chunk must be a prefix of one shard's not-yet-merged records, in
/// that shard's emission order, cut where no shard can still emit an
/// earlier record ([`RunRecorder::drain_before`]). The merge repeatedly
/// emits the head record with the least `(time, key, sub)` across chunks.
/// This reproduces the sequential trace exactly: every cross-shard
/// arrival lands strictly later than its cause, so
/// the next sequential record is always at some chunk head — and a
/// same-time record with a *smaller* key created by a later dispatch
/// can only sit behind its creator in the creator's own chunk, never
/// at a competing head. (A plain concat-and-sort would reorder exactly
/// those causally-linked same-time records.)
pub fn merge_chunks<F: FnMut(TraceRecord)>(chunks: Vec<Vec<TraceRecord>>, mut emit: F) {
    let mut iters: Vec<std::vec::IntoIter<TraceRecord>> =
        chunks.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<TraceRecord>> = iters.iter_mut().map(Iterator::next).collect();
    loop {
        let mut best: Option<usize> = None;
        for i in 0..heads.len() {
            let Some(candidate) = &heads[i] else { continue };
            best = match best {
                Some(b)
                    if heads[b]
                        .as_ref()
                        .is_some_and(|r| r.order() <= candidate.order()) =>
                {
                    Some(b)
                }
                _ => Some(i),
            };
        }
        let Some(b) = best else { break };
        let rec = heads[b].take().expect("best head exists");
        heads[b] = iters[b].next();
        emit(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, key: u64, sub: u32, node: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(t),
            key,
            sub,
            event: TraceEvent::Tick { node },
        }
    }

    #[test]
    fn recorder_stamps_dispatch_relative_subs() {
        let mut r = RunRecorder::new(&Recording::full());
        r.begin(SimTime::from_secs(1.0), 42);
        r.emit(TraceEvent::Start { node: 0 });
        r.emit(TraceEvent::Send {
            edge: 0,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
            delay: 0.5,
        });
        r.begin(SimTime::from_secs(2.0), 43);
        r.emit(TraceEvent::Tick { node: 0 });
        let stamps: Vec<(u64, u32)> = r.records().map(|x| (x.key, x.sub)).collect();
        assert_eq!(stamps, vec![(42, 0), (42, 1), (43, 0)]);
        assert_eq!(r.seen(), 3);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn capped_recorder_counts_evictions_and_still_aggregates() {
        let mut r = RunRecorder::new(&Recording::ring(1).histograms(true));
        r.begin(SimTime::from_secs(0.0), 1);
        r.emit(TraceEvent::Tick { node: 0 });
        r.begin(SimTime::from_secs(1.0), 2);
        r.emit(TraceEvent::Tick { node: 1 });
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        // The histogram saw both records despite the eviction.
        assert_eq!(r.histograms().unwrap().total_dispatches(), 2);
    }

    #[test]
    fn zero_cap_drops_everything() {
        let mut r = RunRecorder::new(&Recording::ring(0));
        r.begin(SimTime::ZERO, 1);
        r.emit(TraceEvent::Tick { node: 0 });
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn window_buffers_inherit_payload_policy_only() {
        let master = RunRecorder::new(&Recording::ring(8).payloads(true).histograms(true));
        let mut w = master.window_buffer();
        assert!(w.payload(&7).is_some());
        assert!(w.histograms().is_none());
        assert_eq!(w.cap, None);
    }

    #[test]
    fn drain_before_takes_the_final_prefix_and_holds_the_rest() {
        let mut w = RunRecorder::new(&Recording::full()).window_buffer();
        for (t, key) in [(1.0, 10), (1.0, 12), (2.0, 3), (2.0, 9), (2.0, 4)] {
            w.begin(SimTime::from_secs(t), key);
            w.emit(TraceEvent::Tick { node: 0 });
        }
        // (2.0, 4) sits behind the held (2.0, 9): it stays held too.
        let keys = |recs: Vec<TraceRecord>| recs.iter().map(|r| r.key).collect::<Vec<_>>();
        assert_eq!(
            keys(w.drain_before(SimTime::from_secs(2.0), 5)),
            vec![10, 12, 3]
        );
        assert_eq!(w.len(), 2);
        assert!(w.drain_before(SimTime::from_secs(2.0), 5).is_empty());
        assert_eq!(keys(w.drain()), vec![9, 4]);
        assert_eq!(w.seen(), 5);
    }

    #[test]
    fn merge_reproduces_sequential_order() {
        // Shard 0 handled keys 10 (t=1) and 2 (t=1, created by key 10's
        // dispatch on shard 1 — appears after it in shard order).
        let shard0 = vec![rec(1.0, 10, 0, 0), rec(1.0, 10, 1, 0)];
        let shard1 = vec![rec(1.0, 12, 0, 1), rec(2.0, 3, 0, 1)];
        let mut out = Vec::new();
        merge_chunks(vec![shard0, shard1], |r| out.push(r));
        let order: Vec<(f64, u64, u32)> = out
            .iter()
            .map(|r| (r.time.as_secs(), r.key, r.sub))
            .collect();
        assert_eq!(
            order,
            vec![(1.0, 10, 0), (1.0, 10, 1), (1.0, 12, 0), (2.0, 3, 0)]
        );
    }

    #[test]
    fn merge_handles_same_time_key_inversion_at_heads_correctly() {
        // A same-time smaller-key record behind its creator in the same
        // chunk must NOT jump ahead of the creator.
        let shard0 = vec![rec(1.0, 10, 0, 0), rec(1.0, 3, 0, 0)];
        let shard1 = vec![rec(1.0, 11, 0, 1)];
        let mut out = Vec::new();
        merge_chunks(vec![shard0, shard1], |r| out.push(r));
        let keys: Vec<u64> = out.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![10, 3, 11]);
    }

    #[test]
    fn replay_feeds_sinks_in_order() {
        let mut r = RunRecorder::new(&Recording::full());
        r.begin(SimTime::from_secs(0.5), 7);
        r.emit(TraceEvent::Crash { node: 2 });
        let mut ring = RingSink::new(8);
        r.replay(&mut ring);
        assert_eq!(ring.len(), 1);
        assert_eq!(
            ring.iter().next().unwrap().event,
            TraceEvent::Crash { node: 2 }
        );
    }
}
