//! The `sweep-v1` document renderer.
//!
//! The engine itself (specs, cells, metrics, `run_sweep`) lives in the
//! `abe-sweep` crate so that other frontends — most importantly the
//! `abe-scenario` compiler — can drive it without depending on this
//! harness; import it from there.

pub mod json {
    //! Self-describing JSON documents for experiment sweeps.
    //!
    //! The harness renders JSON by hand (string primitives come from
    //! [`abe_stats::json_str`]).
    //! Determinism is part of the format's contract: everything under the
    //! `"sweep"` key is a pure function of the sweep specification (see
    //! [`SweepOutcome::metrics_json`](abe_sweep::SweepOutcome::metrics_json)),
    //! so two runs with different `--threads` settings differ only in the
    //! `"engine"` block.
    //!
    //! Document shape (schema `abe-bench/sweep-v1`):
    //!
    //! ```json
    //! {
    //!   "schema": "abe-bench/sweep-v1",
    //!   "experiment": "e1",
    //!   "title": "...",
    //!   "claim": "...",
    //!   "scale": "smoke",
    //!   "engine": {"threads": 2, "base_seed": 0, "cell_count": 30,
    //!              "wall_clock_seconds": 0.41},
    //!   "findings": ["..."],
    //!   "table_csv": "n,messages...\n...",
    //!   "sweep": {"base_seed": 0, "axes": [...], "cells": [...], "groups": [...]}
    //! }
    //! ```

    use abe_stats::json_str;

    use crate::ExperimentReport;

    /// Renders the complete self-describing document for one experiment.
    ///
    /// `scale` is the harness scale name (`smoke` / `quick` / `full`). The
    /// `"sweep"` block is byte-identical across worker counts; the
    /// `"engine"` block records how this particular run was executed.
    pub fn document(report: &ExperimentReport, scale: &str) -> String {
        let findings: Vec<String> = report.findings.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"schema\":\"abe-bench/sweep-v1\",\
             \"experiment\":{experiment},\
             \"title\":{title},\
             \"claim\":{claim},\
             \"scale\":{scale},\
             \"engine\":{{\"threads\":{threads},\"base_seed\":{base_seed},\
             \"cell_count\":{cell_count},\"wall_clock_seconds\":{wall}}},\
             \"findings\":[{findings}],\
             \"table_csv\":{table},\
             \"sweep\":{sweep}}}",
            experiment = json_str(&report.id.to_ascii_lowercase()),
            title = json_str(report.title),
            claim = json_str(report.claim),
            scale = json_str(scale),
            threads = report.sweep.threads,
            base_seed = report.sweep.base_seed,
            cell_count = report.sweep.cells.len(),
            wall = abe_stats::json_f64(report.sweep.wall_clock.as_secs_f64()),
            findings = findings.join(","),
            table = json_str(&report.table.to_csv()),
            sweep = report.sweep.metrics_json(),
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::ExperimentReport;
        use abe_stats::Table;
        use abe_sweep::{run_sweep, CellMetrics, SweepSpec};

        fn sample_report() -> ExperimentReport {
            let spec = SweepSpec::new().axis_u32("n", &[2, 4]).seeds(2);
            let sweep = run_sweep(&spec, 1, |cell| {
                CellMetrics::new().metric("m", f64::from(cell.u32("n")))
            })
            .unwrap();
            let mut table = Table::new(&["n", "m"]);
            table.row(&["2", "2"]);
            ExperimentReport {
                id: "E0",
                title: "sample \"quoted\" title",
                claim: "line one\nline two",
                table,
                findings: vec!["found α".to_string()],
                sweep,
            }
        }

        #[test]
        fn document_embeds_all_sections() {
            let doc = document(&sample_report(), "quick");
            assert!(doc.starts_with("{\"schema\":\"abe-bench/sweep-v1\""));
            assert!(doc.contains("\"experiment\":\"e0\""));
            assert!(doc.contains("\"scale\":\"quick\""));
            assert!(doc.contains("\"title\":\"sample \\\"quoted\\\" title\""));
            assert!(doc.contains("\"claim\":\"line one\\nline two\""));
            assert!(doc.contains("\"cell_count\":4"));
            assert!(doc.contains("\"findings\":[\"found α\"]"));
            assert!(doc.contains("\"sweep\":{\"base_seed\":0"));
        }

        #[test]
        fn sweep_block_is_thread_count_independent() {
            let spec = SweepSpec::new().axis_u32("n", &[2, 4]).seeds(3);
            let run = |cell: &abe_sweep::Cell| {
                CellMetrics::new().metric("m", f64::from(cell.u32("n")) + cell.rep() as f64)
            };
            let a = run_sweep(&spec, 1, run).unwrap();
            let b = run_sweep(&spec, 8, run).unwrap();
            assert_eq!(a.metrics_json(), b.metrics_json());
        }
    }
}
