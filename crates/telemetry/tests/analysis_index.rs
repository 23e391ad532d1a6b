//! `TraceAnalysis::chain_from` against a linear scan of the records.
//!
//! The analysis indexes each edge's messages by `seq` from the first
//! one it sees. Capped recordings are where that offset matters: the
//! window starts mid-run, so a delivery can be retained while its send
//! was evicted, and non-FIFO delivery order puts seqs out of order. The
//! reference below answers every hop by scanning the retained records,
//! which is what the analysis must reproduce.

use abe_consensus::{default_faulty, run_benor, ConsensusConfig, InputAssignment};
use abe_core::RunConfig;
use abe_sim::SimTime;
use abe_telemetry::{ChainHop, Recording, TraceAnalysis, TraceEvent, TraceRecord};

/// The hop for message `(edge, seq)` and the next message, by scanning.
fn scan_hop(
    records: &[TraceRecord],
    edge: u32,
    seq: u64,
) -> Option<(ChainHop, Option<(u32, u64)>)> {
    let is = |r: &TraceRecord, send: bool| match r.event {
        TraceEvent::Send {
            edge: e, seq: s, ..
        } => send && (e, s) == (edge, seq),
        TraceEvent::Deliver {
            edge: e, seq: s, ..
        } => !send && (e, s) == (edge, seq),
        _ => false,
    };
    let send = records.iter().rposition(|r| is(r, true));
    let deliver = records.iter().rposition(|r| is(r, false));
    let (src, dst) = match &records[deliver.or(send)?].event {
        TraceEvent::Send { src, dst, .. } | TraceEvent::Deliver { src, dst, .. } => (*src, *dst),
        _ => unreachable!(),
    };
    let next = deliver.and_then(|i| {
        let head = &records[i];
        records[i + 1..]
            .iter()
            .take_while(|r| r.time == head.time && r.key == head.key)
            .find_map(|r| match r.event {
                TraceEvent::Send { edge, seq, .. } => Some((edge, seq)),
                _ => None,
            })
    });
    let hop = ChainHop {
        edge,
        seq,
        src,
        dst,
        sent_at: send.map(|i| records[i].time),
        delivered_at: deliver.map(|i| records[i].time),
    };
    Some((hop, next))
}

fn scan_chain(records: &[TraceRecord], edge: u32, seq: u64, limit: usize) -> Vec<ChainHop> {
    let mut hops = Vec::new();
    let mut cursor = Some((edge, seq));
    while let Some((edge, seq)) = cursor {
        if hops.len() >= limit {
            break;
        }
        let Some((hop, next)) = scan_hop(records, edge, seq) else {
            break;
        };
        hops.push(hop);
        cursor = next;
    }
    hops
}

fn messages(records: &[TraceRecord]) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Send { edge, seq, .. } | TraceEvent::Deliver { edge, seq, .. } => {
                Some((edge, seq))
            }
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn chains_match_a_linear_scan_on_capped_kernel_traces() {
    let n = 8;
    for cap in [None, Some(300), Some(1000)] {
        let recording = match cap {
            Some(cap) => Recording::ring(cap),
            None => Recording::full(),
        };
        let run = RunConfig::new().seed(3).max_events(4000).record(recording);
        let outcome = run_benor(
            &ConsensusConfig::new(n, default_faulty(n), run),
            InputAssignment::Split,
        );
        let recorder = outcome.telemetry.expect("recording was on");
        let records: Vec<TraceRecord> = recorder.records().cloned().collect();
        let analysis = TraceAnalysis::from_records(recorder.records());
        assert_eq!(analysis.len(), records.len());
        let all = messages(&records);
        assert!(all.len() > 100, "{cap:?}: {} messages", all.len());
        for &(edge, seq) in &all {
            assert_eq!(
                analysis.chain_from(edge, seq, 6),
                scan_chain(&records, edge, seq, 6),
                "cap {cap:?}, message ({edge}, {seq})"
            );
        }
        // Messages outside the window have no chain.
        assert!(analysis.chain_from(0, u64::MAX, 6).is_empty());
        assert!(analysis.chain_from(u32::MAX, 0, 6).is_empty());
    }
}

#[test]
fn sparse_ids_and_out_of_order_seqs_index_correctly() {
    let rec = |t: f64, key: u64, sub: u32, event: TraceEvent| TraceRecord {
        time: SimTime::from_secs(t),
        key,
        sub,
        event,
    };
    let send = |edge: u32, seq: u64, src: u32, dst: u32| TraceEvent::Send {
        edge,
        src,
        dst,
        seq,
        size: 0,
        delay: 1.0,
    };
    let deliver = |edge: u32, seq: u64, src: u32, dst: u32| TraceEvent::Deliver {
        edge,
        src,
        dst,
        seq,
        size: 0,
        payload: Some("x".into()),
    };
    let records = vec![
        // A delivery whose send fell outside the window, then sends
        // from seq 5 up, delivered out of order.
        rec(1.0, 1, 0, deliver(7, 2, 0, 1)),
        rec(1.0, 1, 1, send(u32::MAX, u64::MAX, 1, 2)),
        rec(1.0, 1, 2, send(7, 5, 0, 1)),
        rec(1.0, 1, 3, send(7, 6, 0, 1)),
        rec(1.0, 1, 4, send(7, 9, 0, 1)),
        rec(2.0, 2, 0, deliver(7, 9, 0, 1)),
        rec(2.0, 2, 1, send(u32::MAX, 0, 1, 2)),
        rec(3.0, 3, 0, deliver(7, 5, 0, 1)),
        rec(4.0, 4, 0, deliver(u32::MAX, u64::MAX, 1, 2)),
        rec(4.0, 4, 1, send(7, 3, 0, 1)),
    ];
    let a = TraceAnalysis::from_records(&records);
    let edges: Vec<(u32, u64, u64)> = a
        .edges()
        .iter()
        .map(|(id, e)| (*id, e.sends, e.delivers))
        .collect();
    assert_eq!(edges, vec![(7, 4, 3), (u32::MAX, 2, 1)]);
    for (edge, seq) in messages(&records) {
        assert_eq!(
            a.chain_from(edge, seq, 4),
            scan_chain(&records, edge, seq, 4),
            "message ({edge}, {seq})"
        );
    }
    let chain = a.chain_from(7, 2, 4);
    assert_eq!(chain.len(), 3, "{chain:?}");
    assert_eq!(chain[0].sent_at, None);
    assert_eq!((chain[1].edge, chain[1].seq), (u32::MAX, u64::MAX));
    assert_eq!((chain[2].edge, chain[2].seq), (7, 3));
    assert!(a.chain_from(7, 4, 4).is_empty());
    // Owned and borrowed records build the same analysis.
    let owned = TraceAnalysis::from_records(records.clone());
    assert_eq!(owned.report(Some(1.0)), a.report(Some(1.0)));
}
