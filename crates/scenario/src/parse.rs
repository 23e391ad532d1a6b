//! The `.abes` text form: parser and canonical printer.
//!
//! The format is line-oriented. Each non-empty line is one directive;
//! `#` starts a comment (full-line or trailing); blank lines are
//! ignored. Directives may appear in any order, each at most once
//! (except `axis`, once per axis name). The canonical printer
//! ([`Scenario::print`]) emits directives in a fixed order and omits
//! directives whose value equals the default, so `parse(print(s)) == s`
//! for every scenario and `print(parse(t)) == t` for every canonical
//! text — the properties the round-trip test suite checks.
//!
//! ```text
//! scenario NAME
//! protocol abe-calibrated a=F | abe a0=F | itai-rodeh | chang-roberts | peterson
//!          | benor | brb | antientropy key-space=U32
//! delay exp mean=F | det value=F | uniform lo=F hi=F
//!       | pareto shape=F mean=F | weibull shape=F mean=F
//!       | @delay mean=F         # family from the `delay` axis, at this mean
//! topology uni-ring | bidi-ring | complete | @topo
//! n U32                       # fixed network size (or use an `n` axis)
//! faulty U32                  # consensus fault budget f (default (n-1)/3)
//! divergence F | @divergence  # anti-entropy fresh-write fraction
//! axis NAME V...              # NAME in {n, topo, churn, budget, strategy,
//!                             #          divergence, delay}
//! seeds U64
//! base-seed U64               # default 0
//! max-events U64              # default 5000000
//! fault churn events=(U32|@churn) horizon=F downtime=F
//! adversary strategy=(NAME|@strategy) budget=(F|@budget)
//!           burst-p=F pareto-shape=F
//! filter AXIS=V only-at AXIS=V
//! record election | classified | adversary | consensus | sync
//! expect completed | stalled | wrong-leader | decided
//!        | agreement-violation | validity-violation | mixed
//! ```

use std::fmt::Write as _;

use crate::model::{
    is_scenario_name, AdversarySpec, AxisSpec, AxisValues, Bind, DelaySpec, ElectionProtocol,
    Expectation, FaultSpec, FilterSpec, Scenario, ScenarioError, TopologySpec, Workload,
    DEFAULT_BURST_P, DEFAULT_MAX_EVENTS, DEFAULT_PARETO_SHAPE,
};

/// The `record` modes the text form names.
const RECORD_MODES: [&str; 5] = ["election", "classified", "adversary", "consensus", "sync"];

/// Applies the `record` line to the workload the `protocol` line names
/// (an election protocol alone names `record election`); an illegal
/// pairing names the `record` field.
fn with_record(workload: Workload, record: &str) -> Result<Workload, ScenarioError> {
    let bad = |message: &str| Err(ScenarioError::field("record", message));
    match (workload, record) {
        (w, r) if w.record() == r => Ok(w),
        (Workload::Election(p), "classified") => Ok(Workload::Classified(p)),
        (Workload::Election(p), "adversary") => Ok(Workload::Adversary(p)),
        (Workload::Benor | Workload::Brb, _) => {
            bad("consensus protocols require `record consensus`")
        }
        (_, "consensus") => {
            bad("the consensus record mode requires a consensus protocol (benor, brb)")
        }
        (Workload::Antientropy { .. }, _) => bad("`protocol antientropy` requires `record sync`"),
        _ => bad("the sync record mode requires `protocol antientropy`"),
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Syntax {
        line,
        message: message.into(),
    }
}

/// The one value of a single-valued directive.
fn single<'a>(rest: &[&'a str], line: usize, usage: &str) -> Result<&'a str, ScenarioError> {
    match rest {
        [tok] => Ok(tok),
        _ => Err(syntax(line, format!("expected `{usage}`"))),
    }
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    line: usize,
    directive: &str,
) -> Result<(), ScenarioError> {
    if slot.is_some() {
        return Err(syntax(line, format!("duplicate `{directive}` directive")));
    }
    *slot = Some(value);
    Ok(())
}

/// Splits `key=value` tokens, preserving order.
fn kv_pairs<'a>(toks: &[&'a str], line: usize) -> Result<Vec<(&'a str, &'a str)>, ScenarioError> {
    toks.iter()
        .map(|t| {
            t.split_once('=')
                .ok_or_else(|| syntax(line, format!("expected key=value, got `{t}`")))
        })
        .collect()
}

fn take<'a>(kv: &mut Vec<(&'a str, &'a str)>, key: &str) -> Option<&'a str> {
    kv.iter()
        .position(|(k, _)| *k == key)
        .map(|i| kv.remove(i).1)
}

fn require<'a>(
    kv: &mut Vec<(&'a str, &'a str)>,
    key: &str,
    field: &str,
) -> Result<&'a str, ScenarioError> {
    take(kv, key).ok_or(ScenarioError::Missing {
        field: field.to_string(),
    })
}

fn no_extra(kv: &[(&str, &str)], line: usize) -> Result<(), ScenarioError> {
    match kv.first() {
        Some((k, _)) => Err(syntax(line, format!("unexpected key `{k}`"))),
        None => Ok(()),
    }
}

fn parse_f64(tok: &str, field: &str) -> Result<f64, ScenarioError> {
    tok.parse()
        .map_err(|_| ScenarioError::field(field, format!("not a number: `{tok}`")))
}

fn parse_uint<T: std::str::FromStr>(tok: &str, field: &str) -> Result<T, ScenarioError> {
    tok.parse()
        .map_err(|_| ScenarioError::field(field, format!("not an unsigned integer: `{tok}`")))
}

/// Parses a value that may be an `@axis` binding instead of a literal.
fn bind<T>(
    tok: &str,
    field: &str,
    axis: &str,
    lit: impl FnOnce(&str, &str) -> Result<T, ScenarioError>,
) -> Result<Bind<T>, ScenarioError> {
    match tok.strip_prefix('@') {
        Some(a) if a == axis => Ok(Bind::Axis),
        Some(a) => Err(ScenarioError::field(
            field,
            format!("can only bind `@{axis}` here, got `@{a}`"),
        )),
        None => lit(tok, field).map(Bind::Fixed),
    }
}

/// Parses the `.abes` text form into a [`Scenario`].
///
/// Errors are structured: malformed lines yield
/// [`ScenarioError::Syntax`] with the 1-based line number; bad values
/// yield [`ScenarioError::Field`] naming the field; absent required
/// directives yield [`ScenarioError::Missing`]; a `protocol` line and a
/// `record` line that form no [`Workload`] yield a field error naming
/// `record`. Semantic validation (axis/bind consistency, parameter
/// ranges) is deferred to [`crate::compile()`] so the model stays plain
/// data.
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut name: Option<String> = None;
    let mut protocol: Option<Workload> = None;
    let mut delay: Option<DelaySpec> = None;
    let mut topology: Option<TopologySpec> = None;
    let mut n: Option<u32> = None;
    let mut faulty: Option<u32> = None;
    let mut divergence: Option<Bind<f64>> = None;
    let mut axes: Vec<AxisSpec> = Vec::new();
    let mut seeds: Option<u64> = None;
    let mut base_seed: Option<u64> = None;
    let mut max_events: Option<u64> = None;
    let mut fault: Option<FaultSpec> = None;
    let mut adversary: Option<AdversarySpec> = None;
    let mut filter: Option<FilterSpec> = None;
    let mut record: Option<&str> = None;
    let mut expect: Option<Expectation> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let (dir, rest) = (toks[0], &toks[1..]);
        match dir {
            "scenario" => {
                let tok = single(rest, lineno, "scenario NAME")?;
                if !is_scenario_name(tok) {
                    return Err(ScenarioError::field(
                        "scenario",
                        format!("name must be alphanumeric/-/_/. , got `{tok}`"),
                    ));
                }
                set_once(&mut name, tok.to_string(), lineno, dir)?;
            }
            "protocol" => {
                let Some((&kind, params)) = rest.split_first() else {
                    return Err(syntax(lineno, "expected `protocol NAME [key=value...]`"));
                };
                let mut kv = kv_pairs(params, lineno)?;
                let spec = match kind {
                    "abe-calibrated" => Workload::Election(ElectionProtocol::AbeCalibrated {
                        a: parse_f64(require(&mut kv, "a", "protocol.a")?, "protocol.a")?,
                    }),
                    "abe" => Workload::Election(ElectionProtocol::Abe {
                        a0: parse_f64(require(&mut kv, "a0", "protocol.a0")?, "protocol.a0")?,
                    }),
                    "itai-rodeh" => Workload::Election(ElectionProtocol::ItaiRodeh),
                    "chang-roberts" => Workload::Election(ElectionProtocol::ChangRoberts),
                    "peterson" => Workload::Election(ElectionProtocol::Peterson),
                    "benor" => Workload::Benor,
                    "brb" => Workload::Brb,
                    "antientropy" => Workload::Antientropy {
                        key_space: parse_uint(
                            require(&mut kv, "key-space", "protocol.key-space")?,
                            "protocol.key-space",
                        )?,
                    },
                    other => {
                        return Err(syntax(lineno, format!("unknown protocol `{other}`")));
                    }
                };
                no_extra(&kv, lineno)?;
                set_once(&mut protocol, spec, lineno, dir)?;
            }
            "delay" => {
                let Some((&kind, params)) = rest.split_first() else {
                    return Err(syntax(lineno, "expected `delay MODEL key=value...`"));
                };
                let mut kv = kv_pairs(params, lineno)?;
                let spec = match kind {
                    "exp" => DelaySpec::Exponential {
                        mean: parse_f64(require(&mut kv, "mean", "delay.mean")?, "delay.mean")?,
                    },
                    "det" => DelaySpec::Deterministic {
                        value: parse_f64(require(&mut kv, "value", "delay.value")?, "delay.value")?,
                    },
                    "uniform" => DelaySpec::Uniform {
                        lo: parse_f64(require(&mut kv, "lo", "delay.lo")?, "delay.lo")?,
                        hi: parse_f64(require(&mut kv, "hi", "delay.hi")?, "delay.hi")?,
                    },
                    "pareto" => DelaySpec::Pareto {
                        shape: parse_f64(require(&mut kv, "shape", "delay.shape")?, "delay.shape")?,
                        mean: parse_f64(require(&mut kv, "mean", "delay.mean")?, "delay.mean")?,
                    },
                    "weibull" => DelaySpec::Weibull {
                        shape: parse_f64(require(&mut kv, "shape", "delay.shape")?, "delay.shape")?,
                        mean: parse_f64(require(&mut kv, "mean", "delay.mean")?, "delay.mean")?,
                    },
                    "@delay" => DelaySpec::Axis {
                        mean: parse_f64(require(&mut kv, "mean", "delay.mean")?, "delay.mean")?,
                    },
                    other => {
                        return Err(syntax(lineno, format!("unknown delay model `{other}`")));
                    }
                };
                no_extra(&kv, lineno)?;
                set_once(&mut delay, spec, lineno, dir)?;
            }
            "topology" => {
                let tok = single(rest, lineno, "topology uni-ring|bidi-ring|complete|@topo")?;
                let spec = match tok {
                    "uni-ring" => TopologySpec::UniRing,
                    "bidi-ring" => TopologySpec::BidiRing,
                    "complete" => TopologySpec::Complete,
                    "@topo" => TopologySpec::Axis,
                    other => {
                        return Err(syntax(lineno, format!("unknown topology `{other}`")));
                    }
                };
                set_once(&mut topology, spec, lineno, dir)?;
            }
            "n" => {
                let tok = single(rest, lineno, "n SIZE")?;
                set_once(&mut n, parse_uint(tok, "n")?, lineno, dir)?;
            }
            "faulty" => {
                let tok = single(rest, lineno, "faulty BUDGET")?;
                set_once(&mut faulty, parse_uint(tok, "faulty")?, lineno, dir)?;
            }
            "divergence" => {
                let tok = single(rest, lineno, "divergence FRACTION|@divergence")?;
                let b = bind(tok, "divergence", "divergence", parse_f64)?;
                set_once(&mut divergence, b, lineno, dir)?;
            }
            "axis" => {
                let Some((&axis_name, vals)) = rest.split_first() else {
                    return Err(syntax(lineno, "expected `axis NAME VALUES...`"));
                };
                if axes.iter().any(|a| a.name == axis_name) {
                    return Err(syntax(lineno, format!("duplicate axis `{axis_name}`")));
                }
                let field = format!("axis.{axis_name}");
                let values = match axis_name {
                    "n" | "churn" => AxisValues::U32(
                        vals.iter()
                            .map(|v| parse_uint(v, &field))
                            .collect::<Result<_, _>>()?,
                    ),
                    "budget" | "divergence" => AxisValues::F64(
                        vals.iter()
                            .map(|v| parse_f64(v, &field))
                            .collect::<Result<_, _>>()?,
                    ),
                    "topo" | "strategy" | "delay" => {
                        AxisValues::Str(vals.iter().map(|s| s.to_string()).collect())
                    }
                    other => {
                        return Err(syntax(
                            lineno,
                            format!(
                                "unknown axis `{other}` (known: n, topo, churn, budget, \
                                 strategy, divergence, delay)"
                            ),
                        ));
                    }
                };
                axes.push(AxisSpec {
                    name: axis_name.to_string(),
                    values,
                });
            }
            "seeds" => {
                let tok = single(rest, lineno, "seeds COUNT")?;
                set_once(&mut seeds, parse_uint(tok, "seeds")?, lineno, dir)?;
            }
            "base-seed" => {
                let tok = single(rest, lineno, "base-seed SEED")?;
                set_once(&mut base_seed, parse_uint(tok, "base-seed")?, lineno, dir)?;
            }
            "max-events" => {
                let tok = single(rest, lineno, "max-events CAP")?;
                set_once(&mut max_events, parse_uint(tok, "max-events")?, lineno, dir)?;
            }
            "fault" => {
                let Some((&kind, params)) = rest.split_first() else {
                    return Err(syntax(lineno, "expected `fault churn key=value...`"));
                };
                if kind != "churn" {
                    return Err(syntax(lineno, format!("unknown fault kind `{kind}`")));
                }
                let mut kv = kv_pairs(params, lineno)?;
                let spec = FaultSpec {
                    events: bind(
                        require(&mut kv, "events", "fault.events")?,
                        "fault.events",
                        "churn",
                        parse_uint,
                    )?,
                    horizon: parse_f64(
                        require(&mut kv, "horizon", "fault.horizon")?,
                        "fault.horizon",
                    )?,
                    downtime: parse_f64(
                        require(&mut kv, "downtime", "fault.downtime")?,
                        "fault.downtime",
                    )?,
                };
                no_extra(&kv, lineno)?;
                set_once(&mut fault, spec, lineno, dir)?;
            }
            "adversary" => {
                let mut kv = kv_pairs(rest, lineno)?;
                let spec = AdversarySpec {
                    strategy: bind(
                        require(&mut kv, "strategy", "adversary.strategy")?,
                        "adversary.strategy",
                        "strategy",
                        |tok, _| Ok(tok.to_string()),
                    )?,
                    budget: bind(
                        require(&mut kv, "budget", "adversary.budget")?,
                        "adversary.budget",
                        "budget",
                        parse_f64,
                    )?,
                    burst_p: match take(&mut kv, "burst-p") {
                        Some(tok) => parse_f64(tok, "adversary.burst-p")?,
                        None => DEFAULT_BURST_P,
                    },
                    pareto_shape: match take(&mut kv, "pareto-shape") {
                        Some(tok) => parse_f64(tok, "adversary.pareto-shape")?,
                        None => DEFAULT_PARETO_SHAPE,
                    },
                };
                no_extra(&kv, lineno)?;
                set_once(&mut adversary, spec, lineno, dir)?;
            }
            "filter" => {
                let [restrict, only_at, at] = rest else {
                    return Err(syntax(lineno, "expected `filter AXIS=V only-at AXIS=V`"));
                };
                if *only_at != "only-at" {
                    return Err(syntax(lineno, "expected `filter AXIS=V only-at AXIS=V`"));
                }
                let split = |tok: &str| -> Result<(String, String), ScenarioError> {
                    tok.split_once('=')
                        .map(|(a, v)| (a.to_string(), v.to_string()))
                        .ok_or_else(|| syntax(lineno, format!("expected AXIS=VALUE, got `{tok}`")))
                };
                let (axis, value) = split(restrict)?;
                let (only_axis, only_value) = split(at)?;
                set_once(
                    &mut filter,
                    FilterSpec {
                        axis,
                        value,
                        only_axis,
                        only_value,
                    },
                    lineno,
                    dir,
                )?;
            }
            "record" => {
                let tok = single(rest, lineno, "record MODE")?;
                if !RECORD_MODES.contains(&tok) {
                    return Err(syntax(lineno, format!("unknown record mode `{tok}`")));
                }
                set_once(&mut record, tok, lineno, dir)?;
            }
            "expect" => {
                let tok = single(rest, lineno, "expect CLASS")?;
                let e = Expectation::from_name(tok)
                    .ok_or_else(|| syntax(lineno, format!("unknown expectation `{tok}`")))?;
                set_once(&mut expect, e, lineno, dir)?;
            }
            other => {
                return Err(syntax(lineno, format!("unknown directive `{other}`")));
            }
        }
    }

    let missing = |field: &str| ScenarioError::Missing {
        field: field.to_string(),
    };
    let name = name.ok_or_else(|| missing("scenario"))?;
    let protocol = protocol.ok_or_else(|| missing("protocol"))?;
    Ok(Scenario {
        name,
        delay: delay.ok_or_else(|| missing("delay"))?,
        topology: topology.ok_or_else(|| missing("topology"))?,
        n,
        faulty,
        divergence,
        axes,
        seeds: seeds.ok_or_else(|| missing("seeds"))?,
        base_seed: base_seed.unwrap_or(0),
        max_events: max_events.unwrap_or(DEFAULT_MAX_EVENTS),
        fault,
        adversary,
        filter,
        workload: with_record(protocol, record.ok_or_else(|| missing("record"))?)?,
        expect: expect.ok_or_else(|| missing("expect"))?,
    })
}

fn bind_str<T: std::fmt::Display>(b: &Bind<T>, axis: &str) -> String {
    match b {
        Bind::Fixed(v) => v.to_string(),
        Bind::Axis => format!("@{axis}"),
    }
}

impl Scenario {
    /// Renders the canonical `.abes` text form.
    ///
    /// Directives appear in a fixed order; `base-seed` and `max-events`
    /// are omitted at their defaults, and adversary defaults (`burst-p`,
    /// `pareto-shape`) are always spelled out. The output ends with a
    /// newline and satisfies `parse(s.print()) == Ok(s)`.
    pub fn print(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = match &self.workload {
            Workload::Election(p) | Workload::Classified(p) | Workload::Adversary(p) => match p {
                ElectionProtocol::AbeCalibrated { a } => {
                    writeln!(out, "protocol abe-calibrated a={a}")
                }
                ElectionProtocol::Abe { a0 } => writeln!(out, "protocol abe a0={a0}"),
                ElectionProtocol::ItaiRodeh => writeln!(out, "protocol itai-rodeh"),
                ElectionProtocol::ChangRoberts => writeln!(out, "protocol chang-roberts"),
                ElectionProtocol::Peterson => writeln!(out, "protocol peterson"),
            },
            Workload::Benor => writeln!(out, "protocol benor"),
            Workload::Brb => writeln!(out, "protocol brb"),
            Workload::Antientropy { key_space } => {
                writeln!(out, "protocol antientropy key-space={key_space}")
            }
        };
        let _ = match &self.delay {
            DelaySpec::Exponential { mean } => writeln!(out, "delay exp mean={mean}"),
            DelaySpec::Deterministic { value } => writeln!(out, "delay det value={value}"),
            DelaySpec::Uniform { lo, hi } => writeln!(out, "delay uniform lo={lo} hi={hi}"),
            DelaySpec::Pareto { shape, mean } => {
                writeln!(out, "delay pareto shape={shape} mean={mean}")
            }
            DelaySpec::Weibull { shape, mean } => {
                writeln!(out, "delay weibull shape={shape} mean={mean}")
            }
            DelaySpec::Axis { mean } => writeln!(out, "delay @delay mean={mean}"),
        };
        let _ = writeln!(
            out,
            "topology {}",
            match self.topology {
                TopologySpec::UniRing => "uni-ring",
                TopologySpec::BidiRing => "bidi-ring",
                TopologySpec::Complete => "complete",
                TopologySpec::Axis => "@topo",
            }
        );
        if let Some(n) = self.n {
            let _ = writeln!(out, "n {n}");
        }
        if let Some(f) = self.faulty {
            let _ = writeln!(out, "faulty {f}");
        }
        if let Some(d) = &self.divergence {
            let _ = writeln!(out, "divergence {}", bind_str(d, "divergence"));
        }
        for axis in &self.axes {
            let rendered = axis.values.texts();
            if rendered.is_empty() {
                let _ = writeln!(out, "axis {}", axis.name);
            } else {
                let _ = writeln!(out, "axis {} {}", axis.name, rendered.join(" "));
            }
        }
        let _ = writeln!(out, "seeds {}", self.seeds);
        if self.base_seed != 0 {
            let _ = writeln!(out, "base-seed {}", self.base_seed);
        }
        if self.max_events != DEFAULT_MAX_EVENTS {
            let _ = writeln!(out, "max-events {}", self.max_events);
        }
        if let Some(fault) = &self.fault {
            let _ = writeln!(
                out,
                "fault churn events={} horizon={} downtime={}",
                bind_str(&fault.events, "churn"),
                fault.horizon,
                fault.downtime
            );
        }
        if let Some(adv) = &self.adversary {
            let _ = writeln!(
                out,
                "adversary strategy={} budget={} burst-p={} pareto-shape={}",
                bind_str(&adv.strategy, "strategy"),
                bind_str(&adv.budget, "budget"),
                adv.burst_p,
                adv.pareto_shape
            );
        }
        if let Some(filter) = &self.filter {
            let _ = writeln!(
                out,
                "filter {}={} only-at {}={}",
                filter.axis, filter.value, filter.only_axis, filter.only_value
            );
        }
        let _ = writeln!(out, "record {}", self.workload.record());
        let _ = writeln!(out, "expect {}", self.expect.as_str());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OutcomeClass;

    const E17_STYLE: &str = "\
scenario e17_adversary
protocol abe-calibrated a=1
delay exp mean=1
topology uni-ring
n 16
axis strategy none swap burst reorder adaptive
axis budget 1 4
seeds 5
adversary strategy=@strategy budget=@budget burst-p=0.05 pareto-shape=2.5
filter strategy=none only-at budget=1
record adversary
expect completed
";

    const E14_STYLE: &str = "\
scenario e14_crash_churn
protocol abe-calibrated a=1
delay exp mean=1
topology @topo
n 16
axis topo uni-ring bidi-ring
axis churn 0 2
seeds 5
max-events 100000
fault churn events=@churn horizon=32 downtime=4
record classified
expect mixed
";

    const E19_STYLE: &str = "\
scenario e19_benor
protocol benor
delay exp mean=1
topology complete
axis n 4 7
axis strategy none swap burst reorder adaptive
axis budget 1 4
seeds 3
adversary strategy=@strategy budget=@budget burst-p=0.05 pareto-shape=2.5
filter strategy=none only-at budget=1
record consensus
expect decided
";

    const E21_STYLE: &str = "\
scenario e21_antientropy
protocol antientropy key-space=256
delay @delay mean=1
topology complete
divergence @divergence
axis n 4 8
axis divergence 0.1 0.4
axis delay exp uniform det
seeds 2
record sync
expect decided
";

    const BRB_STYLE: &str = "\
scenario brb_churn
protocol brb
delay exp mean=1
topology complete
n 7
faulty 2
axis churn 0 2
seeds 3
max-events 400000
fault churn events=@churn horizon=12 downtime=6
record consensus
expect mixed
";

    #[test]
    fn canonical_texts_round_trip() {
        for text in [E17_STYLE, E14_STYLE, E19_STYLE, E21_STYLE, BRB_STYLE] {
            let s = parse(text).unwrap();
            assert_eq!(s.print(), text);
            assert_eq!(parse(&s.print()).unwrap(), s);
        }
    }

    #[test]
    fn parses_sync_structure() {
        let s = parse(E21_STYLE).unwrap();
        assert_eq!(s.workload, Workload::Antientropy { key_space: 256 });
        assert_eq!(s.workload.record(), "sync");
        assert_eq!(s.delay, DelaySpec::Axis { mean: 1.0 });
        assert_eq!(s.topology, TopologySpec::Complete);
        assert_eq!(s.divergence, Some(Bind::Axis));
        assert_eq!(s.expect, Expectation::Class(OutcomeClass::Decided));
        // A fixed divergence parses to a fixed bind.
        let fixed =
            parse(&E21_STYLE.replace("divergence @divergence\n", "divergence 0.25\n")).unwrap();
        assert_eq!(fixed.divergence, Some(Bind::Fixed(0.25)));
        // Binding any other axis in the divergence slot is rejected.
        let err = parse(&E21_STYLE.replace("divergence @divergence\n", "divergence @budget\n"))
            .unwrap_err();
        assert_eq!(err.field_name(), Some("divergence"));
    }

    #[test]
    fn parses_consensus_structure() {
        let s = parse(E19_STYLE).unwrap();
        assert_eq!(s.workload, Workload::Benor);
        assert_eq!(s.topology, TopologySpec::Complete);
        assert_eq!(s.workload.record(), "consensus");
        assert_eq!(s.faulty, None);
        assert_eq!(s.expect, Expectation::Class(OutcomeClass::Decided));
        let s = parse(BRB_STYLE).unwrap();
        assert_eq!(s.workload, Workload::Brb);
        assert_eq!(s.faulty, Some(2));
        assert_eq!(s.expect, Expectation::Mixed);
    }

    #[test]
    fn every_protocol_record_pair_is_a_workload_or_names_the_record_field() {
        let protocols = "abe-calibrated a=1,abe a0=0.5,itai-rodeh,chang-roberts,peterson,\
                         benor,brb,antientropy key-space=8";
        let mut legal = 0;
        for protocol in protocols.split(',') {
            for record in RECORD_MODES {
                let text = format!(
                    "scenario p\nprotocol {protocol}\ndelay exp mean=1\ntopology complete\n\
                     n 4\nseeds 1\nrecord {record}\nexpect mixed\n"
                );
                match parse(&text) {
                    Ok(s) => {
                        legal += 1;
                        assert_eq!(s.workload.record(), record);
                        assert_eq!(s.print(), text);
                    }
                    Err(e) => assert_eq!(e.field_name(), Some("record"), "{protocol} / {record}"),
                }
            }
        }
        // 5 election protocols x 3 election modes, benor and brb with
        // `consensus`, antientropy with `sync`; the other 22 are refused.
        assert_eq!(legal, 18);
    }

    #[test]
    fn duplicate_faulty_is_rejected() {
        let err = parse("faulty 1\nfaulty 2\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Syntax { line: 2, .. }));
    }

    #[test]
    fn parses_e14_structure() {
        let s = parse(E14_STYLE).unwrap();
        assert_eq!(s.topology, TopologySpec::Axis);
        assert_eq!(s.max_events, 100_000);
        let fault = s.fault.unwrap();
        assert_eq!(fault.events, Bind::Axis);
        assert_eq!(fault.horizon, 32.0);
        assert_eq!(s.expect, Expectation::Mixed);
        assert_eq!(
            s.workload,
            Workload::Classified(ElectionProtocol::AbeCalibrated { a: 1.0 })
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header comment\n\nscenario c  # trailing\nprotocol peterson\n\
                    delay det value=1\ntopology uni-ring\nn 4\nseeds 1\n\
                    record election\nexpect completed\n";
        let s = parse(text).unwrap();
        assert_eq!(s.name, "c");
        assert_eq!(s.workload, Workload::Election(ElectionProtocol::Peterson));
        assert_eq!(s.expect, Expectation::Class(OutcomeClass::Completed));
    }

    #[test]
    fn adversary_defaults_fill_in() {
        let text = "scenario a\nprotocol abe a0=2\ndelay exp mean=1\ntopology uni-ring\n\
                    n 8\nseeds 1\nadversary strategy=swap budget=2\n\
                    record adversary\nexpect completed\n";
        let adv = parse(text).unwrap().adversary.unwrap();
        assert_eq!(adv.strategy, Bind::Fixed("swap".to_string()));
        assert_eq!(adv.budget, Bind::Fixed(2.0));
        assert_eq!(adv.burst_p, 0.05);
        assert_eq!(adv.pareto_shape, 2.5);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse("scenario a\nfrotz 1\n").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Syntax {
                line: 2,
                message: "unknown directive `frotz`".into()
            }
        );
    }

    #[test]
    fn duplicate_directives_are_rejected() {
        let err = parse("scenario a\nscenario b\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Syntax { line: 2, .. }));
        let err = parse("axis n 2\naxis n 4\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Syntax { line: 2, .. }));
    }

    #[test]
    fn missing_directives_name_the_field() {
        let err = parse("scenario a\n").unwrap_err();
        assert_eq!(err.field_name(), Some("protocol"));
    }

    #[test]
    fn bad_values_name_the_field() {
        let err = parse("delay exp mean=fast\n").unwrap_err();
        assert_eq!(err.field_name(), Some("delay.mean"));
        let err = parse("axis budget 1 x\n").unwrap_err();
        assert_eq!(err.field_name(), Some("axis.budget"));
        let err = parse("fault churn events=@budget horizon=1 downtime=1\n").unwrap_err();
        assert_eq!(err.field_name(), Some("fault.events"));
    }

    #[test]
    fn unknown_axis_is_a_syntax_error() {
        let err = parse("axis flux 1 2\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Syntax { line: 1, .. }));
    }

    #[test]
    fn unexpected_keys_are_rejected() {
        let err = parse("delay exp mean=1 skew=2\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Syntax { .. }));
    }
}
