//! The benchmark's vocabulary: workload names, metric names with their
//! units and directions, and the bound each end-to-end metric may worsen
//! by. `../BENCHMARK.json` is rendered from these tables (`manifest`
//! subcommand; a test keeps the committed file equal to them).

use std::fmt::Write as _;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 12;

/// A metric's direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "ring-seq-1m",
        why: "the headline: one 10^6-node election, one queue with ~10^6 pending beyond cache; \
              queue, net runtime and delay sampling do nearly all the work, the protocol almost none",
    },
    WorkloadDef {
        name: "ring-shard-uniform",
        why: "the windowed parallel kernel with real lookahead (uniform delays), paired with its \
              sequential twin; where pristine clone, replay and per-window thread spawn must show",
    },
    WorkloadDef {
        name: "ring-shard-exp",
        why: "the paper's canonical exponential delays have zero lookahead, so the sharded kernel \
              single-steps; the only workload where removing that fallback can show",
    },
    WorkloadDef {
        name: "campaign-mix",
        why: "what users run: ~3000 tiny cache-resident cells over six .abes scenarios; build and \
              teardown, scenario, sweep, faults, adversaries and all three protocol crates matter, \
              queue depth does not",
    },
    WorkloadDef {
        name: "sync-digest",
        why: "protocol-dominated: anti-entropy rehashes a 4096-key store per digest, so statesync \
              is most of the time and the kernel little; the only send_sized byte-accounting path",
    },
    WorkloadDef {
        name: "clique-traced",
        why: "recording on where every other workload has it off: Ben-Or broadcast fan-out on \
              K_64, then JSONL render, validation and trace analysis of the records",
    },
];

/// One metric: name, unit, direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by. All are host-side; `events_per_s` counts *simulated* kernel
/// events per *host* second.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (up("events_per_s", "1/s"), 0.20),
    (down("wall_s", "s"), 0.20),
    (down("setup_s", "s"), 0.25),
    (down("peak_rss_mb", "MB"), 0.20),
];

/// Per-layer metrics, printed by the traced pass. Counts come from the
/// simulator's public report structs and repeat exactly; times are host
/// time from spans or isolated probes. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 66] = [
    down("sim.queue.scheduled", "count"),
    down("sim.queue.cancelled", "count"),
    down("sim.queue.popped", "count"),
    down("sim.queue.ns_per_op", "ns"),
    down("sim.queue.share", "ratio"),
    down("sim.rng.ns_per_stream", "ns"),
    down("sim.rng.ns_per_draw", "ns"),
    down("core.delay.samples", "count"),
    down("core.delay.ns_per_sample", "ns"),
    down("core.builder.build_s", "s"),
    down("core.builder.ns_per_node", "ns"),
    down("core.net.events", "count"),
    down("core.net.messages_sent", "count"),
    down("core.net.messages_delivered", "count"),
    down("core.net.ticks", "count"),
    down("core.net.payload_bytes", "bytes"),
    down("core.net.ns_per_event", "ns"),
    down("core.net.ns_per_event_empty", "ns"),
    down("election.ns_per_event_self", "ns"),
    down("consensus.ns_per_event_self", "ns"),
    down("statesync.ns_per_event_self", "ns"),
    down("statesync.rounds", "count"),
    down("statesync.wire_bytes", "bytes"),
    down("statesync.digest.root_us", "us"),
    down("statesync.store.write_ns", "ns"),
    down("core.fault.crashes", "count"),
    down("core.fault.dropped", "count"),
    down("core.fault.storm_deliveries", "count"),
    down("core.fault.ns_per_send_delta", "ns"),
    down("core.adversary.intercepted", "count"),
    down("core.adversary.clamped", "count"),
    down("core.adversary.ns_per_intercept_delta", "ns"),
    up("core.shard.speedup_vs_seq", "ratio"),
    down("core.shard.seq_wall_s", "s"),
    up("core.shard.windows", "count"),
    down("core.shard.single_steps", "count"),
    down("core.shard.fell_back", "count"),
    down("core.shard.busy_s_sum", "s"),
    down("core.shard.critical_path_s", "s"),
    down("core.shard.imbalance", "ratio"),
    down("core.shard.work_inflation", "ratio"),
    down("core.shard.overhead_s", "s"),
    down("telemetry.record.records", "count"),
    down("telemetry.record.dropped", "count"),
    down("telemetry.record.ns_per_record", "ns"),
    down("telemetry.record.overhead_ratio", "ratio"),
    down("telemetry.jsonl.render_ns_per_record", "ns"),
    down("telemetry.jsonl.bytes", "bytes"),
    down("telemetry.jsonl.validate_ns_per_record", "ns"),
    down("telemetry.analysis.ns_per_record", "ns"),
    down("sweep.cells", "count"),
    down("sweep.expand_us_per_cell", "us"),
    down("sweep.run_s", "s"),
    down("sweep.cell_busy_s_sum", "s"),
    up("sweep.parallel_efficiency", "ratio"),
    down("sweep.cell_wall_p50_us", "us"),
    down("sweep.cell_wall_p99_us", "us"),
    down("sweep.render_us_per_cell", "us"),
    down("scenario.parse_us", "us"),
    down("scenario.compile_us", "us"),
    down("scenario.document_us_per_cell", "us"),
    down("scenario.oracles_us_per_cell", "us"),
    down("scenario.document_bytes", "bytes"),
    down("bench.trace_overhead", "ratio"),
    down("bench.iterations", "count"),
    down("bench.failed_share", "ratio"),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(w.name),
            json_str(&why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_and_is_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_and_reasons_fit_the_contract() {
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1));
        for w in &WORKLOADS {
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
