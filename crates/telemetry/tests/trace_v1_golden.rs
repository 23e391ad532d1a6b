//! Pins the `trace-v1` record bytes against a committed file.
//!
//! `golden/trace_v1.jsonl` holds one header line and one line per
//! record below: every [`TraceEvent`] variant, strings that need every
//! kind of escape, the largest ordering key, tiny, huge, negative-zero
//! and non-finite floats. The renderer must reproduce it byte for byte.
//! The facade package's `tests/trace_v1_golden.rs` checks the other
//! half: that what the kernel really emits renders into a file the
//! validator accepts in full.

use abe_sim::SimTime;
use abe_telemetry::{render_header, render_record, JsonlSink, Recorder, TraceEvent, TraceRecord};

const GOLDEN: &str = include_str!("golden/trace_v1.jsonl");

/// A string that exercises every escaping rule plus non-ASCII text.
const AWKWARD: &str = "q\"b\\s\nc\u{1}r\rt\té→✓ \u{1f}ünï";

fn rec(t: f64, key: u64, sub: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        time: SimTime::from_secs(t),
        key,
        sub,
        event,
    }
}

fn send(edge: u32, seq: u64, delay: f64) -> TraceEvent {
    TraceEvent::Send {
        edge,
        src: edge,
        dst: edge + 1,
        seq,
        size: 16,
        delay,
    }
}

fn golden_records() -> Vec<TraceRecord> {
    vec![
        rec(0.0, 0, 0, TraceEvent::Start { node: 0 }),
        rec(0.0, 0, 1, send(0, 0, 1e-7)),
        rec(0.0, 0, 2, send(1, 0, f64::NAN)),
        rec(0.0, 0, 3, send(2, 0, f64::INFINITY)),
        rec(0.0, 0, 4, send(3, 0, f64::NEG_INFINITY)),
        rec(1.0 / 3.0, u64::MAX, 0, TraceEvent::Tick { node: 3 }),
        rec(1.0 / 3.0, u64::MAX, 1, send(4, u64::MAX, -0.0)),
        rec(1.0 / 3.0, u64::MAX, 2, send(5, 7, 1e21)),
        rec(1.0 / 3.0, u64::MAX, 3, send(6, 8, 5e-324)),
        rec(
            0.5,
            100,
            0,
            TraceEvent::Deliver {
                edge: 0,
                src: 0,
                dst: 1,
                seq: 0,
                size: 16,
                payload: Some(AWKWARD.into()),
            },
        ),
        rec(
            0.5,
            100,
            1,
            TraceEvent::Deliver {
                edge: 1,
                src: 1,
                dst: 2,
                seq: 0,
                size: 0,
                payload: None,
            },
        ),
        rec(
            0.5,
            100,
            2,
            TraceEvent::Deliver {
                edge: 2,
                src: 2,
                dst: 3,
                seq: 1,
                size: u64::MAX,
                payload: Some("Vote { round: 3, value: true }".into()),
            },
        ),
        rec(
            0.5,
            100,
            3,
            TraceEvent::StateChange {
                node: 1,
                to: AWKWARD,
            },
        ),
        rec(
            0.5,
            100,
            4,
            TraceEvent::StateChange {
                node: 1,
                to: "leader",
            },
        ),
        rec(
            0.5,
            100,
            5,
            TraceEvent::Decide {
                node: u32::MAX,
                value: u64::MAX,
            },
        ),
        rec(
            2.75,
            4_294_967_296,
            0,
            TraceEvent::DropCrash {
                edge: 9,
                src: 4,
                dst: 5,
                seq: 12,
                size: 8,
            },
        ),
        rec(
            2.75,
            4_294_967_296,
            1,
            TraceEvent::DropPartition {
                edge: 10,
                src: 5,
                dst: 4,
                seq: 0,
                size: 1,
            },
        ),
        rec(
            2.75,
            4_294_967_296,
            2,
            TraceEvent::DropRandom {
                edge: u32::MAX,
                src: 0,
                dst: u32::MAX,
                seq: 99,
                size: 1024,
            },
        ),
        rec(1e6, 7, 0, TraceEvent::Crash { node: 5 }),
        rec(1e6 + 0.125, 8, 0, TraceEvent::Recover { node: 5 }),
    ]
}

#[test]
fn trace_v1_bytes_match_the_committed_golden() {
    let records = golden_records();
    let mut sink = JsonlSink::new();
    for r in &records {
        sink.record(r);
    }
    let meta = [
        ("experiment", "\"e1\"".to_string()),
        ("seed", "\"18446744073709551615\"".to_string()),
    ];
    let mut file = render_header(sink.records(), 3, &meta);
    file.push('\n');
    file.push_str(sink.body());
    assert_eq!(
        file, GOLDEN,
        "trace-v1 bytes drifted from golden/trace_v1.jsonl"
    );

    // `render_record` and the sink write the same line.
    let lines: Vec<&str> = GOLDEN.lines().skip(1).collect();
    assert_eq!(lines.len(), records.len());
    for (r, line) in records.iter().zip(lines) {
        assert_eq!(render_record(r), line);
    }
}
