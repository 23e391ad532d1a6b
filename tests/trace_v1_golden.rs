//! A recorded Ben-Or run with payloads renders into a `trace-v1` file
//! the validator accepts in full. It sits here, above `abe-telemetry`,
//! because it drives the consensus workload; the renderer's byte golden
//! stays in `abe-telemetry`'s own `tests/trace_v1_golden.rs`.

use abe_consensus::{default_faulty, run_benor, ConsensusConfig, InputAssignment};
use abe_core::RunConfig;
use abe_telemetry::{render_header, validate_trace, JsonlSink, Recording};

#[test]
fn a_recorded_benor_run_renders_a_valid_trace() {
    let n = 8;
    let run = RunConfig::new()
        .seed(11)
        .record(Recording::full().payloads(true));
    let outcome = run_benor(
        &ConsensusConfig::new(n, default_faulty(n), run),
        InputAssignment::Split,
    );
    let recorder = outcome.telemetry.expect("recording was on");
    assert!(recorder.len() > 1000, "{} records", recorder.len());
    assert_eq!(recorder.dropped(), 0);

    let mut sink = JsonlSink::new();
    recorder.replay(&mut sink);
    assert!(
        sink.body().contains("\"payload\":\""),
        "payload capture was on"
    );
    let mut file = render_header(sink.records(), recorder.dropped(), &[]);
    file.push('\n');
    file.push_str(sink.body());
    let summary = validate_trace(&file).expect("a recorded trace validates");
    assert_eq!(summary.records, recorder.len() as u64);
    assert_eq!(summary.declared_records, summary.records);
}
