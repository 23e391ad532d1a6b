//! What a run prints: the human-readable ledger, and the result object
//! on the last line of standard output.

use std::fmt::Write as _;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::span::totals_by_name;
use crate::stats::Summary;
use crate::workloads::{Outcome, Settings};

/// The result object: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    /// Correctness checks attempted.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The untraced pass reports every end-to-end metric, the traced pass
    /// every per-layer metric.
    pub fn from_outcome(outcome: &Outcome, traced: bool) -> Self {
        let metrics = match &outcome.per_layer {
            Some(layer) if traced => PER_LAYER
                .iter()
                .map(|m| {
                    let value = layer.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), value, m.unit.to_string())
                })
                .collect(),
            _ => END_TO_END
                .iter()
                .map(|(m, _)| {
                    let value = match m.name {
                        "events_per_s" => outcome.events_per_s.median,
                        "wall_s" => outcome.wall_s.median,
                        "setup_s" => outcome.setup_s.median,
                        "peak_rss_mb" => outcome.peak_rss_mb,
                        other => unreachable!("end-to-end metric `{other}` has no source"),
                    };
                    (m.name.to_string(), value, m.unit.to_string())
                })
                .collect(),
        };
        Self {
            correct: outcome.correct(),
            attempted: outcome.checks.attempted,
            failed: outcome.checks.failures.len() as u64,
            metrics,
        }
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// One line of JSON. A value that is not a finite number is a broken
    /// measurement and is refused rather than printed.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}, not a finite number"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Reads back a line written by [`to_json`](Self::to_json).
    pub fn from_json(line: &str) -> Result<Self, String> {
        let mut p = Reader {
            text: line.as_bytes(),
            at: 0,
        };
        let mut result = RunResult {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        let mut seen = Vec::new();
        p.object(|p, key| {
            match key {
                "correct" => result.correct = p.boolean()?,
                "attempted" => result.attempted = p.number()? as u64,
                "failed" => result.failed = p.number()? as u64,
                "metrics" => p.object(|p, name| {
                    let (mut value, mut unit) = (None, None);
                    p.object(|p, field| {
                        match field {
                            "value" => value = Some(p.number()?),
                            "unit" => unit = Some(p.string()?),
                            other => return Err(format!("unexpected metric field `{other}`")),
                        }
                        Ok(())
                    })?;
                    match (value, unit) {
                        (Some(v), Some(u)) => result.metrics.push((name.to_string(), v, u)),
                        _ => return Err(format!("metric `{name}` lacks value or unit")),
                    }
                    Ok(())
                })?,
                other => return Err(format!("unexpected key `{other}`")),
            }
            seen.push(key.to_string());
            Ok(())
        })?;
        p.end()?;
        seen.sort();
        if seen != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result object has keys {seen:?}"));
        }
        Ok(result)
    }
}

/// A reader for the one JSON shape this harness writes: objects with
/// string keys whose values are objects, numbers, booleans or strings
/// without escapes.
struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn skip_space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.text.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        while let Some(&b) = self.text.get(self.at) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.text[start..self.at])
                        .map_err(|e| e.to_string())?
                        .to_string();
                    self.at += 1;
                    return Ok(s);
                }
                b'\\' => return Err(format!("escape at byte {} not supported", self.at)),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_space();
        let start = self.at;
        while self
            .text
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.text[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_space();
        for (word, value) in [("true", true), ("false", false)] {
            if self.text[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        Err(format!("expected true or false at byte {}", self.at))
    }

    /// Reads an object, calling `field` positioned at each value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_space();
        if self.text.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, &key)?;
            self.skip_space();
            match self.text.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_space();
        if self.at == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing text at byte {}", self.at))
        }
    }
}

/// Six significant digits, whatever the magnitude: a set-up of two
/// microseconds and a throughput of two million events per second print
/// in the same column.
pub fn six_digits(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.001 {
        format!("{value:.5e}")
    } else {
        let whole = value.abs().max(1.0).log10().floor() as usize + 1;
        format!("{value:.*}", 6usize.saturating_sub(whole))
    }
}

fn timing_line(out: &mut String, def: &MetricDef, bound: f64, s: &Summary) {
    let _ = write!(
        out,
        "  {:<14} {:>16} {:<4} median of {} (q1 {}, q3 {})",
        def.name,
        six_digits(s.median),
        def.unit,
        s.n,
        six_digits(s.q1),
        six_digits(s.q3)
    );
    if let Some((p, v)) = s.tail {
        let _ = write!(out, ", p{p} {}", six_digits(v));
    }
    let _ = writeln!(out, "; regression beyond {:.0}%", bound * 100.0);
}

/// The ledger a person reads: every metric by name with its unit.
pub fn human(outcome: &Outcome, settings: &Settings) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}, {} workers, {} pass{})",
        outcome.workload,
        settings.seed,
        settings.workers,
        if settings.traced {
            "traced"
        } else {
            "untraced"
        },
        if settings.smoke { ", smoke size" } else { "" },
    );
    let _ = writeln!(out, "sim_digest {:016x}", outcome.sim_digest);
    let _ = writeln!(
        out,
        "checks: {} attempted, {} failed (failed_share {})",
        outcome.checks.attempted,
        outcome.checks.failures.len(),
        outcome.checks.failed_share()
    );
    for failure in &outcome.checks.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    let _ = writeln!(
        out,
        "end to end (host time; {} untraced timed iterations of {} simulated events each):",
        outcome.iterations, outcome.events
    );
    for (def, bound) in &END_TO_END {
        match def.name {
            "events_per_s" => timing_line(&mut out, def, *bound, &outcome.events_per_s),
            "wall_s" => timing_line(&mut out, def, *bound, &outcome.wall_s),
            "setup_s" => timing_line(&mut out, def, *bound, &outcome.setup_s),
            _ => {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>16} {:<4} VmHWM of this process; regression beyond {:.0}%",
                    def.name,
                    six_digits(outcome.peak_rss_mb),
                    def.unit,
                    bound * 100.0
                );
            }
        }
    }
    if let Some(layer) = &outcome.per_layer {
        let _ = writeln!(
            out,
            "per layer (medians over the traced iterations; probes once):"
        );
        for def in &PER_LAYER {
            let value = layer.get(def.name).copied().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<42} {:>16} {}",
                def.name,
                six_digits(value),
                def.unit
            );
        }
        let _ = writeln!(
            out,
            "spans (timed traced iterations): name, count, total s, self s"
        );
        for (name, t) in totals_by_name(&outcome.spans) {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12.6} {:>12.6}",
                name, t.count, t.total_s, t.self_s
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("wall_s".to_string(), 1.203_456_789, "s".to_string()),
                ("events_per_s".to_string(), 1_662_345.25, "1/s".to_string()),
            ],
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_shape() {
        let json = sample().to_json().unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.203456789, \"unit\": \"s\"}, \
             \"events_per_s\": {\"value\": 1662345.25, \"unit\": \"1/s\"}}}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn the_result_line_reads_back() {
        let result = sample();
        assert_eq!(RunResult::from_json(&result.to_json().unwrap()), Ok(result));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut result = sample();
        result.metrics[0].1 = 0.000_012_345_678_901_234;
        let back = RunResult::from_json(&result.to_json().unwrap()).unwrap();
        assert_eq!(back.metric("wall_s"), Some(0.000_012_345_678_901_234));
    }

    #[test]
    fn printed_values_keep_six_significant_digits() {
        assert_eq!(six_digits(0.0), "0.00000");
        assert_eq!(six_digits(0.000_001_525), "1.52500e-6");
        assert_eq!(six_digits(0.863_455_1), "0.86346");
        assert_eq!(six_digits(20.910_156), "20.9102");
        assert_eq!(six_digits(2_316_277.875), "2316278");
    }

    #[test]
    fn a_value_that_is_not_finite_is_refused() {
        let mut result = sample();
        result.metrics[0].1 = f64::NAN;
        assert!(result.to_json().unwrap_err().contains("wall_s"));
    }

    #[test]
    fn a_foreign_or_truncated_line_is_an_error() {
        for bad in [
            "",
            "not json",
            "{\"correct\": true}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 1}}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} trailing",
        ] {
            assert!(RunResult::from_json(bad).is_err(), "{bad}");
        }
    }
}
