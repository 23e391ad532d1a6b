//! The golden-campaign runner: execute a corpus of `.abes` files, diff
//! each deterministic sweep document against its committed golden, and
//! check the per-cell outcome oracles.
//!
//! The campaign document (schema `abe-scenario/campaign-v1`) is a pure
//! function of the scenario: it contains the scenario name, the record
//! mode its workload names, the expectation, and the sweep engine's
//! deterministic `metrics_json` block — and nothing about how the run
//! was executed (no thread count, no wall clock). Two runs of the same
//! corpus are byte-identical at any worker count, so goldens under
//! `scenarios/goldens/` are exact regression oracles: any drift is a
//! behaviour change, reported with the grid coordinates of the first
//! diverging cell.
//!
//! Three per-cell **outcome oracles** run before the byte diff:
//!
//! 1. every cell carries the outcome class its run's own outcome
//!    reported (`CellMetrics::get_class`), and a sync cell's
//!    `converged` indicator agrees with its `residual_divergence`
//!    witness — nothing is silently dropped;
//! 2. the class satisfies the scenario's declared [`Expectation`] —
//!    and the safety-violation classes (`wrong-leader`,
//!    `agreement-violation`, `validity-violation`) are violations
//!    under *every* expectation;
//! 3. wherever adversary telemetry is recorded, the auditor's
//!    `adv_violations` counter is zero (the run was a legal ABE
//!    execution).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use abe_stats::json_str;
use abe_sweep::SweepOutcome;

use crate::compile::compile;
use crate::model::{Expectation, Scenario, Workload};
use crate::parse::parse;

/// Where the campaign finds its corpus and goldens, and how it runs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Directory scanned (non-recursively) for `*.abes` files.
    pub scenarios_dir: PathBuf,
    /// Directory holding one `<scenario-name>.json` golden per scenario.
    pub goldens_dir: PathBuf,
    /// Sweep worker threads (any value produces identical documents).
    pub threads: usize,
    /// Parallel-kernel shards per cell run (any value produces
    /// identical documents; 1 = sequential).
    pub shards: u32,
    /// Rewrite goldens from this run instead of diffing against them.
    pub bless: bool,
}

/// Outcome of one scenario in the campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioStatus {
    /// The document matched the committed golden byte-for-byte.
    Matched {
        /// Number of sweep cells executed.
        cells: usize,
    },
    /// `--bless` wrote (or rewrote) the golden from this run.
    Blessed {
        /// Number of sweep cells executed.
        cells: usize,
    },
    /// The document differs from the golden.
    Drift {
        /// Human-readable description locating the first divergence.
        detail: String,
    },
    /// No golden exists yet (run with `--bless` to create it).
    MissingGolden,
    /// One or more cells violated an outcome oracle.
    OracleViolations {
        /// Number of cells checked.
        cells: usize,
        /// One line per violating cell, with grid coordinates.
        violations: Vec<String>,
    },
    /// The scenario failed to load, parse, compile, or run.
    Error(String),
}

/// One scenario's result: file, parsed name, and status.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The `.abes` file, as given.
    pub file: PathBuf,
    /// The scenario's declared name (file stem when it failed to parse).
    pub name: String,
    /// What happened.
    pub status: ScenarioStatus,
}

impl ScenarioResult {
    /// Whether this scenario passed (matched or blessed).
    pub fn ok(&self) -> bool {
        matches!(
            self.status,
            ScenarioStatus::Matched { .. } | ScenarioStatus::Blessed { .. }
        )
    }
}

/// The whole campaign's results, in corpus (filename) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One entry per `.abes` file found.
    pub results: Vec<ScenarioResult>,
}

impl CampaignReport {
    /// True when every scenario matched its golden (or was blessed).
    pub fn ok(&self) -> bool {
        self.results.iter().all(ScenarioResult::ok)
    }

    /// Human-readable summary, one block per scenario.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            match &r.status {
                ScenarioStatus::Matched { cells } => {
                    out.push_str(&format!(
                        "ok      {} ({cells} cells, golden matched)\n",
                        r.name
                    ));
                }
                ScenarioStatus::Blessed { cells } => {
                    out.push_str(&format!("blessed {} ({cells} cells)\n", r.name));
                }
                ScenarioStatus::Drift { detail } => {
                    out.push_str(&format!("DRIFT   {}: {detail}\n", r.name));
                }
                ScenarioStatus::MissingGolden => {
                    out.push_str(&format!(
                        "MISSING {}: no golden — run `campaign --bless` to create it\n",
                        r.name
                    ));
                }
                ScenarioStatus::OracleViolations { cells, violations } => {
                    out.push_str(&format!(
                        "ORACLE  {} ({} of {cells} cells violate):\n",
                        r.name,
                        violations.len()
                    ));
                    for v in violations.iter().take(5) {
                        out.push_str(&format!("        {v}\n"));
                    }
                    if violations.len() > 5 {
                        out.push_str(&format!("        ... {} more\n", violations.len() - 5));
                    }
                }
                ScenarioStatus::Error(e) => {
                    out.push_str(&format!("ERROR   {}: {e}\n", r.name));
                }
            }
        }
        let passed = self.results.iter().filter(|r| r.ok()).count();
        out.push_str(&format!(
            "campaign: {passed}/{} scenarios ok\n",
            self.results.len()
        ));
        out
    }
}

/// Renders the deterministic campaign document for one scenario run.
///
/// Everything in it is a pure function of the scenario — byte-identical
/// at any thread count — which is what makes the goldens exact.
pub fn document(scenario: &Scenario, outcome: &SweepOutcome) -> String {
    format!(
        "{{\"schema\":\"abe-scenario/campaign-v1\",\"scenario\":{},\"record\":{},\"expect\":{},\"sweep\":{}}}\n",
        json_str(&scenario.name),
        json_str(scenario.workload.record()),
        json_str(scenario.expect.as_str()),
        outcome.metrics_json(),
    )
}

/// Per-cell oracle results: how many cells were checked and every
/// violation found. `cells_checked` always equals the sweep's cell
/// count — a cell that cannot be classified is itself a violation,
/// never skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Number of cells examined (always the full sweep).
    pub cells_checked: usize,
    /// One line per violation, each with the cell's grid coordinates.
    pub violations: Vec<String>,
}

impl OracleReport {
    /// True when no cell violated any oracle.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the outcome oracles over every cell of a scenario's sweep.
pub fn check_oracles(scenario: &Scenario, outcome: &SweepOutcome) -> OracleReport {
    let mut violations = Vec::new();
    for cell in &outcome.cells {
        let label = cell.cell.label();
        let Some(class) = cell.metrics.get_class() else {
            violations.push(format!("{label}: no outcome class recorded"));
            continue;
        };
        if let Workload::Antientropy { .. } = scenario.workload {
            // The indicator and its witness must agree: a converged run
            // has zero residual divergence, a stalled run has some.
            let converged = cell.metrics.get("converged").unwrap_or(f64::NAN);
            let residual = cell.metrics.get("residual_divergence").unwrap_or(f64::NAN);
            if !((converged == 1.0 && residual == 0.0) || (converged == 0.0 && residual > 0.0)) {
                violations.push(format!(
                    "{label}: convergence indicators disagree \
                     (converged={converged}, residual_divergence={residual})"
                ));
                continue;
            }
        }
        match scenario.expect {
            _ if class.is_violation() => {
                violations.push(format!("{label}: `{}` (safety violation)", class.as_str()));
            }
            Expectation::Class(expected) if class != expected => {
                violations.push(format!(
                    "{label}: outcome `{}`, scenario expects `{}`",
                    class.as_str(),
                    expected.as_str()
                ));
            }
            _ => {}
        }
        if let Some(v) = cell.metrics.get_counter("adv_violations") {
            if v != 0 {
                violations.push(format!("{label}: adversary auditor reports {v} violations"));
            }
        }
    }
    OracleReport {
        cells_checked: outcome.cells.len(),
        violations,
    }
}

/// Splits the top-level elements of the first `"cells":[...]` array in
/// a campaign document (string-aware balanced-bracket scan). Returns
/// `None` when the document has no such array.
fn cell_chunks(doc: &str) -> Option<Vec<&str>> {
    let start = doc.find("\"cells\":[")? + "\"cells\":[".len();
    let bytes = doc.as_bytes();
    let mut depth = 1usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chunk_start = start;
    let mut chunks = Vec::new();
    for (offset, &b) in bytes[start..].iter().enumerate() {
        let i = start + offset;
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b'}' => depth -= 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    if i > chunk_start {
                        chunks.push(&doc[chunk_start..i]);
                    }
                    return Some(chunks);
                }
            }
            b',' if depth == 1 => {
                chunks.push(&doc[chunk_start..i]);
                chunk_start = i + 1;
            }
            _ => {}
        }
    }
    None
}

fn truncate(s: &str, max: usize) -> &str {
    if s.len() <= max {
        s
    } else {
        let mut end = max;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        &s[..end]
    }
}

/// Locates the first divergence between a golden and a fresh document,
/// in grid coordinates when the drift is inside a cell.
fn describe_drift(golden: &str, fresh: &str, outcome: &SweepOutcome) -> String {
    if let (Some(gold_cells), Some(fresh_cells)) = (cell_chunks(golden), cell_chunks(fresh)) {
        if gold_cells.len() != fresh_cells.len() {
            return format!(
                "cell count changed: golden has {}, this run has {}",
                gold_cells.len(),
                fresh_cells.len()
            );
        }
        for (i, (g, f)) in gold_cells.iter().zip(&fresh_cells).enumerate() {
            if g != f {
                let at = outcome
                    .cells
                    .get(i)
                    .map(|c| c.cell.label())
                    .unwrap_or_else(|| format!("#{i}"));
                return format!(
                    "first diverging cell is {i} ({at}): golden {} ... vs fresh {} ...",
                    truncate(g, 120),
                    truncate(f, 120)
                );
            }
        }
    }
    // Cells agree (or are unscannable): locate the first differing byte.
    let pos = golden
        .bytes()
        .zip(fresh.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| golden.len().min(fresh.len()));
    let boundary = |s: &str, mut i: usize| {
        i = i.min(s.len());
        while !s.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    let ctx_start = pos.saturating_sub(40);
    format!(
        "documents diverge at byte {pos}: golden `...{}` vs fresh `...{}`",
        truncate(&golden[boundary(golden, ctx_start)..], 80),
        truncate(&fresh[boundary(fresh, ctx_start)..], 80)
    )
}

/// The golden file for one scenario name.
fn golden_path(goldens_dir: &Path, name: &str) -> PathBuf {
    goldens_dir.join(format!("{name}.json"))
}

fn run_one(path: &Path, opts: &CampaignOptions) -> ScenarioResult {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let fail = |name: &str, e: String| ScenarioResult {
        file: path.to_path_buf(),
        name: name.to_string(),
        status: ScenarioStatus::Error(e),
    };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&stem, format!("read failed: {e}")),
    };
    let scenario = match parse(&text) {
        Ok(s) => s,
        Err(e) => return fail(&stem, format!("parse failed: {e}")),
    };
    let name = scenario.name.clone();
    let compiled = match compile(&scenario) {
        Ok(c) => c.with_shards(opts.shards),
        Err(e) => return fail(&name, format!("compile failed: {e}")),
    };
    let outcome = match compiled.run(opts.threads) {
        Ok(o) => o,
        Err(e) => return fail(&name, format!("run failed: {e}")),
    };
    let cells = outcome.cells.len();
    let oracle = check_oracles(&scenario, &outcome);
    if !oracle.ok() {
        return ScenarioResult {
            file: path.to_path_buf(),
            name,
            status: ScenarioStatus::OracleViolations {
                cells,
                violations: oracle.violations,
            },
        };
    }
    let fresh = document(&scenario, &outcome);
    let golden_file = golden_path(&opts.goldens_dir, &name);
    if opts.bless {
        if let Err(e) =
            fs::create_dir_all(&opts.goldens_dir).and_then(|()| fs::write(&golden_file, &fresh))
        {
            return fail(&name, format!("blessing golden failed: {e}"));
        }
        return ScenarioResult {
            file: path.to_path_buf(),
            name,
            status: ScenarioStatus::Blessed { cells },
        };
    }
    let status = match fs::read_to_string(&golden_file) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => ScenarioStatus::MissingGolden,
        Err(e) => ScenarioStatus::Error(format!("reading golden failed: {e}")),
        Ok(golden) if golden == fresh => ScenarioStatus::Matched { cells },
        Ok(golden) => ScenarioStatus::Drift {
            detail: describe_drift(&golden, &fresh, &outcome),
        },
    };
    ScenarioResult {
        file: path.to_path_buf(),
        name,
        status,
    }
}

/// Runs the whole campaign: every `*.abes` file in the corpus
/// directory, in filename order.
///
/// # Errors
///
/// Only listing the corpus directory itself can fail; every per-file
/// problem is reported as that scenario's [`ScenarioStatus::Error`].
pub fn run_campaign(opts: &CampaignOptions) -> io::Result<CampaignReport> {
    let mut files: Vec<PathBuf> = fs::read_dir(&opts.scenarios_dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "abes"))
        .collect();
    files.sort();
    let results = files.iter().map(|p| run_one(p, opts)).collect();
    Ok(CampaignReport { results })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse;

    const TEXT: &str = "scenario mini\nprotocol abe-calibrated a=1\ndelay exp mean=1\n\
                        topology uni-ring\naxis n 4 8\nseeds 2\nrecord election\n\
                        expect completed\n";

    #[test]
    fn document_is_thread_count_invariant() {
        let s = parse(TEXT).unwrap();
        let c = compile(&s).unwrap();
        let a = document(&s, &c.run(1).unwrap());
        let b = document(&s, &c.run(4).unwrap());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"abe-scenario/campaign-v1\""));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn document_is_shard_count_invariant() {
        let s = parse(TEXT).unwrap();
        let sequential = document(&s, &compile(&s).unwrap().run(1).unwrap());
        let sharded = document(&s, &compile(&s).unwrap().with_shards(3).run(1).unwrap());
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn oracles_pass_on_healthy_elections_and_count_every_cell() {
        let s = parse(TEXT).unwrap();
        let outcome = compile(&s).unwrap().run(2).unwrap();
        let report = check_oracles(&s, &outcome);
        assert_eq!(report.cells_checked, 4);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn oracles_flag_unexpected_outcomes() {
        // Declare `stalled` for runs that complete: every cell violates.
        let s = parse(&TEXT.replace("expect completed", "expect stalled")).unwrap();
        let outcome = compile(&s).unwrap().run(1).unwrap();
        let report = check_oracles(&s, &outcome);
        assert_eq!(report.violations.len(), 4);
        assert!(report.violations[0].contains("scenario expects `stalled`"));
    }

    #[test]
    fn oracles_flag_unclassified_cells_and_disagreeing_sync_witnesses() {
        let s = parse(
            "scenario s\nprotocol antientropy key-space=16\ndelay exp mean=1\n\
             topology complete\nn 4\ndivergence 0.25\nseeds 3\nrecord sync\nexpect decided\n",
        )
        .unwrap();
        let mut outcome = compile(&s).unwrap().run(1).unwrap();
        assert!(check_oracles(&s, &outcome).ok());
        // A converged cell claiming residual divergence, and a cell that
        // recorded no class at all.
        let tampered = outcome.cells[0].metrics.clone();
        outcome.cells[0].metrics = tampered.metric("residual_divergence", 3.0);
        outcome.cells[2].metrics = abe_sweep::CellMetrics::new();
        let report = check_oracles(&s, &outcome);
        assert_eq!(report.cells_checked, 3);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(
            report.violations[0].contains("convergence indicators disagree"),
            "{:?}",
            report.violations
        );
        assert!(report.violations[1].contains("no outcome class recorded"));
    }

    #[test]
    fn cell_chunks_splits_nested_structures() {
        let doc = r#"{"cells":[{"a":[1,2],"b":"x,]"},{"c":{"d":1}}],"groups":[]}"#;
        let chunks = cell_chunks(doc).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], r#"{"a":[1,2],"b":"x,]"}"#);
        assert_eq!(chunks[1], r#"{"c":{"d":1}}"#);
        assert_eq!(cell_chunks(r#"{"cells":[]}"#).unwrap().len(), 0);
    }

    #[test]
    fn drift_reports_the_first_diverging_cell() {
        let s = parse(TEXT).unwrap();
        let c = compile(&s).unwrap();
        let outcome = c.run(1).unwrap();
        let fresh = document(&s, &outcome);
        // Corrupt the second cell of the golden.
        let chunks = cell_chunks(&fresh).unwrap();
        let golden = fresh.replacen(chunks[1], "{\"tampered\":true}", 1);
        let detail = describe_drift(&golden, &fresh, &outcome);
        assert!(detail.contains("first diverging cell is 1"), "{detail}");
        assert!(detail.contains("n=4"), "{detail}");
    }

    #[test]
    fn campaign_end_to_end_with_blessing() {
        let dir = std::env::temp_dir().join(format!("abes-campaign-{}", std::process::id()));
        let scenarios = dir.join("scenarios");
        let goldens = scenarios.join("goldens");
        fs::create_dir_all(&scenarios).unwrap();
        fs::write(scenarios.join("mini.abes"), TEXT).unwrap();
        let mut opts = CampaignOptions {
            scenarios_dir: scenarios.clone(),
            goldens_dir: goldens.clone(),
            threads: 2,
            shards: 1,
            bless: false,
        };
        // 1. No golden yet: campaign fails with MissingGolden.
        let report = run_campaign(&opts).unwrap();
        assert!(!report.ok());
        assert_eq!(report.results[0].status, ScenarioStatus::MissingGolden);
        // 2. Bless, then the campaign passes.
        opts.bless = true;
        assert!(run_campaign(&opts).unwrap().ok());
        opts.bless = false;
        let report = run_campaign(&opts).unwrap();
        assert!(report.ok(), "{}", report.render());
        // 3. Tamper with the golden: the campaign reports drift.
        let gfile = golden_path(&goldens, "mini");
        let tampered = fs::read_to_string(&gfile)
            .unwrap()
            .replace("\"rep\":0", "\"rep\":9");
        fs::write(&gfile, tampered).unwrap();
        let report = run_campaign(&opts).unwrap();
        assert!(!report.ok());
        assert!(matches!(
            report.results[0].status,
            ScenarioStatus::Drift { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
