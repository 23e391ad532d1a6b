//! The `trace-v1` JSONL wire format: rendering and validation.
//!
//! A trace file is line-delimited JSON: a header object (schema name,
//! record/drop counts, caller metadata) followed by one flat object per
//! record. Rendering is **byte-deterministic**: field order is fixed,
//! floats go through the shortest-roundtrip formatter, and `u64` values
//! that can exceed 2⁵³ (the ordering key) are rendered as strings so
//! the file survives double-precision JSON parsers. Two runs that
//! produce the same trace stream therefore produce byte-identical
//! files at any `--threads`/`--shards` setting.
//!
//! See `docs/TRACE_JSON.md` for the field-by-field schema.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

use abe_stats::{write_json_f64, write_json_str};

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::Recorder;

/// The schema identifier in the header line.
pub const SCHEMA: &str = "abe/trace-v1";

/// Renders the header line (no trailing newline). `meta` holds extra
/// fields as `(name, raw JSON value)` pairs — encode strings with
/// [`abe_stats::json_str`] first.
pub fn render_header(records: u64, dropped: u64, meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"schema\":");
    write_json_str(&mut out, SCHEMA);
    write_int(&mut out, ",\"records\":", records);
    write_int(&mut out, ",\"dropped\":", dropped);
    for (name, value) in meta {
        out.push(',');
        write_json_str(&mut out, name);
        out.push(':');
        out.push_str(value);
    }
    out.push('}');
    out
}

/// Renders one record line (no trailing newline).
pub fn render_record(rec: &TraceRecord) -> String {
    let mut out = String::new();
    write_record(&mut out, rec, &mut None);
    out
}

/// Where the last time written into a buffer sits in it, keyed by the
/// time's bits. The records of one dispatch share their time, so
/// [`write_record`] copies those digits instead of formatting the float
/// again.
type LastTime = Option<(u64, Range<usize>)>;

/// Appends one record line (no trailing newline) to `out`: the single
/// writer behind [`render_record`] and [`JsonlSink`], allocating nothing
/// beyond `out`'s own growth. `last_t` must describe `out`.
fn write_record(out: &mut String, rec: &TraceRecord, last_t: &mut LastTime) {
    out.push_str("{\"t\":");
    let t = rec.time.as_secs();
    match last_t {
        Some((bits, digits)) if *bits == t.to_bits() => out.extend_from_within(digits.clone()),
        _ => {
            let start = out.len();
            write_json_f64(out, t);
            *last_t = Some((t.to_bits(), start..out.len()));
        }
    }
    // The key is a string: it can exceed 2^53.
    write_int(out, ",\"key\":\"", rec.key);
    write_int(out, "\",\"sub\":", u64::from(rec.sub));
    // Event names are plain lowercase ASCII: nothing to escape.
    out.push_str(",\"ev\":\"");
    out.push_str(rec.event.name());
    out.push('"');
    match &rec.event {
        TraceEvent::Start { node }
        | TraceEvent::Tick { node }
        | TraceEvent::Crash { node }
        | TraceEvent::Recover { node } => write_int(out, ",\"node\":", u64::from(*node)),
        TraceEvent::StateChange { node, to } => {
            write_int(out, ",\"node\":", u64::from(*node));
            out.push_str(",\"to\":");
            write_json_str(out, to);
        }
        TraceEvent::Decide { node, value } => {
            write_int(out, ",\"node\":", u64::from(*node));
            write_int(out, ",\"value\":", *value);
        }
        TraceEvent::Send {
            edge,
            src,
            dst,
            seq,
            size,
            delay,
        } => {
            write_message(out, *edge, *src, *dst, *seq, *size);
            out.push_str(",\"delay\":");
            write_json_f64(out, *delay);
        }
        TraceEvent::Deliver {
            edge,
            src,
            dst,
            seq,
            size,
            payload,
        } => {
            write_message(out, *edge, *src, *dst, *seq, *size);
            if let Some(p) = payload {
                out.push_str(",\"payload\":");
                write_json_str(out, p);
            }
        }
        TraceEvent::DropCrash {
            edge,
            src,
            dst,
            seq,
            size,
        }
        | TraceEvent::DropPartition {
            edge,
            src,
            dst,
            seq,
            size,
        }
        | TraceEvent::DropRandom {
            edge,
            src,
            dst,
            seq,
            size,
        } => write_message(out, *edge, *src, *dst, *seq, *size),
    }
    out.push('}');
}

/// The five fields every message event starts with.
fn write_message(out: &mut String, edge: u32, src: u32, dst: u32, seq: u64, size: u64) {
    write_int(out, ",\"edge\":", u64::from(edge));
    write_int(out, ",\"src\":", u64::from(src));
    write_int(out, ",\"dst\":", u64::from(dst));
    write_int(out, ",\"seq\":", seq);
    write_int(out, ",\"size\":", size);
}

/// Appends `prefix` and then the decimal digits of `v` — the bytes
/// `{v}` prints, without going through the formatter.
fn write_int(out: &mut String, prefix: &str, mut v: u64) {
    out.push_str(prefix);
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// A [`Recorder`] that streams records into a `trace-v1` body (record
/// lines only; prepend [`render_header`] when writing a file).
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    body: String,
    records: u64,
    last_t: LastTime,
}

impl JsonlSink {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record lines written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The accumulated record lines (each `\n`-terminated).
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Consumes the sink, returning the record lines.
    pub fn into_body(self) -> String {
        self.body
    }
}

impl Recorder for JsonlSink {
    fn record(&mut self, rec: &TraceRecord) {
        write_record(&mut self.body, rec, &mut self.last_t);
        self.body.push('\n');
        self.records += 1;
    }
}

/// Summary returned by a successful [`validate_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileSummary {
    /// Record lines counted (excludes the header).
    pub records: u64,
    /// The `"records"` count the header declared.
    pub declared_records: u64,
    /// The `"dropped"` count the header declared.
    pub declared_dropped: u64,
}

/// Validates a complete `trace-v1` file (header + records) against the
/// schema: JSON well-formedness of every line (numbers must follow the
/// RFC 8259 grammar), required fields per event type, non-decreasing
/// time, contiguous `sub` numbering within each `(t, key)` dispatch
/// group, and header/record count agreement.
///
/// Lines are scanned in place into one reused buffer of borrowed fields;
/// only the values a rule reads are decoded.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_trace(text: &str) -> Result<TraceFileSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let mut obj = FlatObject::default();
    obj.parse(header).map_err(|e| format!("header: {e}"))?;
    match obj.get("schema") {
        Some(JsonScalar::Str(s)) if unescape(s) == SCHEMA => {}
        other => return Err(format!("header schema must be {SCHEMA:?}, got {other:?}")),
    }
    let declared_records = obj.get_u64("records").ok_or("header missing \"records\"")?;
    let declared_dropped = obj.get_u64("dropped").ok_or("header missing \"dropped\"")?;

    let mut records = 0u64;
    let mut prev_t = f64::NEG_INFINITY;
    let mut prev_group: Option<(f64, u64, u64)> = None; // (t, key, sub)
    for (lineno, line) in lines {
        if line.is_empty() {
            continue;
        }
        obj.parse(line)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let t = obj
            .get_f64("t")
            .ok_or_else(|| format!("line {}: missing numeric \"t\"", lineno + 1))?;
        let key = match obj.get("key") {
            Some(JsonScalar::Str(s)) => unescape(s)
                .parse::<u64>()
                .map_err(|_| format!("line {}: \"key\" is not a u64 string", lineno + 1))?,
            _ => return Err(format!("line {}: missing string \"key\"", lineno + 1)),
        };
        let sub = obj
            .get_u64("sub")
            .ok_or_else(|| format!("line {}: missing numeric \"sub\"", lineno + 1))?;
        let ev = match obj.get("ev") {
            Some(JsonScalar::Str(s)) => unescape(s),
            _ => return Err(format!("line {}: missing string \"ev\"", lineno + 1)),
        };
        if t < prev_t {
            return Err(format!("line {}: time went backwards", lineno + 1));
        }
        prev_t = t;
        // Records of one dispatch are contiguous with sub = 0, 1, 2, …
        match prev_group {
            Some((pt, pk, ps)) if pt == t && pk == key => {
                if sub != ps + 1 {
                    return Err(format!(
                        "line {}: sub {} does not continue {} within its dispatch group",
                        lineno + 1,
                        sub,
                        ps
                    ));
                }
            }
            _ => {
                if sub != 0 {
                    return Err(format!(
                        "line {}: dispatch group must start at sub 0, got {sub}",
                        lineno + 1
                    ));
                }
            }
        }
        prev_group = Some((t, key, sub));

        let require = |fields: &[&str]| -> Result<(), String> {
            for f in fields {
                if obj.get(f).is_none() {
                    return Err(format!("line {}: {ev:?} record missing {f:?}", lineno + 1));
                }
            }
            Ok(())
        };
        match ev.as_ref() {
            "start" | "tick" | "crash" | "recover" => require(&["node"])?,
            "state_change" => require(&["node", "to"])?,
            "decide" => require(&["node", "value"])?,
            "send" => require(&["edge", "src", "dst", "seq", "size", "delay"])?,
            "deliver" | "drop_crash" | "drop_partition" | "drop_random" => {
                require(&["edge", "src", "dst", "seq", "size"])?
            }
            other => return Err(format!("line {}: unknown event {other:?}", lineno + 1)),
        }
        records += 1;
    }
    if records != declared_records {
        return Err(format!(
            "header declares {declared_records} records but file has {records}"
        ));
    }
    Ok(TraceFileSummary {
        records,
        declared_records,
        declared_dropped,
    })
}

/// A scalar value in a flat JSON object, borrowed from its line.
#[derive(Clone, Copy)]
enum JsonScalar<'a> {
    /// A string literal's body between the quotes, escapes checked but
    /// not yet decoded (see [`unescape`]).
    Str(&'a str),
    /// A number token that follows the JSON grammar (see [`number`]).
    Num(&'a str),
}

/// Shows the decoded value, as in an error message.
impl fmt::Debug for JsonScalar<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            JsonScalar::Str(raw) => f.debug_tuple("Str").field(&unescape(raw)).finish(),
            JsonScalar::Num(text) => f
                .debug_tuple("Num")
                .field(&number(text).unwrap_or(f64::NAN))
                .finish(),
        }
    }
}

/// The fields of one flat JSON object line, in line order. The buffer is
/// reused from line to line, so validating a file allocates it once.
#[derive(Debug, Default)]
struct FlatObject<'a>(Vec<(Cow<'a, str>, JsonScalar<'a>)>);

impl<'a> FlatObject<'a> {
    fn get(&self, name: &str) -> Option<JsonScalar<'a>> {
        self.0.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    fn get_f64(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(JsonScalar::Num(text)) => number(text),
            _ => None,
        }
    }

    fn get_u64(&self, name: &str) -> Option<u64> {
        let v = self.get_f64(name)?;
        (v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
    }

    /// Replaces the fields with those of `line`: one flat JSON object with
    /// string keys and string or number values — all a `trace-v1` line
    /// ever contains.
    fn parse(&mut self, line: &'a str) -> Result<(), String> {
        self.0.clear();
        let mut s = Scanner { line, pos: 0 };
        s.skip_ws();
        if !s.eat(b'{') {
            return Err("expected '{'".into());
        }
        s.skip_ws();
        if s.peek() == Some(b'}') {
            s.pos += 1;
        } else {
            loop {
                s.skip_ws();
                let key = unescape(s.string()?);
                s.skip_ws();
                if !s.eat(b':') {
                    return Err(format!("expected ':' after key {key:?}"));
                }
                s.skip_ws();
                let value = match s.peek() {
                    Some(b'"') => JsonScalar::Str(s.string()?),
                    Some(_) => JsonScalar::Num(s.number()?),
                    None => return Err("unexpected end of object".into()),
                };
                self.0.push((key, value));
                s.skip_ws();
                if s.eat(b',') {
                    continue;
                }
                if s.eat(b'}') {
                    break;
                }
                let other = s.bump_char();
                return Err(format!("expected ',' or '}}', got {other:?}"));
            }
        }
        s.skip_ws();
        if s.pos < line.len() {
            return Err("trailing characters after object".into());
        }
        Ok(())
    }
}

/// A cursor over one line. `pos` only ever stops on a char boundary:
/// it advances by whole chars or over ASCII bytes.
struct Scanner<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes one char, returning it with its byte offset.
    fn bump_char(&mut self) -> Option<(usize, char)> {
        let c = self.line[self.pos..].chars().next()?;
        let at = self.pos;
        self.pos += c.len_utf8();
        Some((at, c))
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Consumes a string literal, returning its raw body. Escapes are
    /// checked here and decoded only on demand by [`unescape`].
    fn string(&mut self) -> Result<&'a str, String> {
        if !self.eat(b'"') {
            let other = self.bump_char();
            return Err(format!("expected string, got {other:?}"));
        }
        let start = self.pos;
        loop {
            let rest = &self.line.as_bytes()[self.pos..];
            let Some(stop) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err("unterminated string".into());
            };
            self.pos += stop + 1;
            if rest[stop] == b'"' {
                return Ok(&self.line[start..self.pos - 1]);
            }
            match self.bump_char() {
                Some((_, '"' | '\\' | '/' | 'n' | 'r' | 't')) => {}
                Some((_, 'u')) => {
                    for _ in 0..4 {
                        self.bump_char()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                    }
                }
                other => return Err(format!("bad escape {other:?}")),
            }
        }
    }

    /// Consumes a bare value token — everything up to `,`, `}` or
    /// whitespace — which must be one JSON number.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let rest = &self.line.as_bytes()[start..];
        let ends = |b: &u8| *b == b',' || *b == b'}' || b.is_ascii_whitespace();
        let len = json_number_len(rest);
        if len > 0 && rest.get(len).is_none_or(ends) {
            self.pos += len;
            return Ok(&self.line[start..self.pos]);
        }
        let token = &self.line[start..start + rest.iter().position(ends).unwrap_or(rest.len())];
        Err(format!("bad number {token:?}"))
    }
}

/// Decodes a string body [`Scanner::string`] accepted; borrowed when it
/// holds no escape.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let code = chars
                    .by_ref()
                    .take(4)
                    .filter_map(|c| c.to_digit(16))
                    .fold(0, |code, d| code * 16 + d);
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            // `"`, `\` and `/` stand for themselves.
            Some(c) => out.push(c),
            None => {}
        }
    }
    Cow::Owned(out)
}

/// The length of the longest prefix of `t` that is a number under the
/// RFC 8259 grammar, `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
/// (0 if none is). `str::parse::<f64>` alone would also take `NaN`,
/// `inf`, `+1`, `.5`, `1.` and `01`.
fn json_number_len(t: &[u8]) -> usize {
    let digits = |i: usize| t[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(t.first() == Some(&b'-'));
    i += match t.get(i) {
        Some(b'0') => 1,
        Some(b'1'..=b'9') => 1 + digits(i + 1),
        _ => return 0,
    };
    if t.get(i) == Some(&b'.') {
        let frac = digits(i + 1);
        if frac > 0 {
            i += 1 + frac;
        }
    }
    if matches!(t.get(i), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(t.get(i + 1), Some(b'+' | b'-')));
        let exp = digits(i + 1 + sign);
        if exp > 0 {
            i += 1 + sign + exp;
        }
    }
    i
}

/// The value of a number token [`Scanner::number`] accepted. Integers of
/// up to 19 digits are read directly (converting the exact integer
/// rounds exactly as parsing it as a float would).
fn number(text: &str) -> Option<f64> {
    let (negative, digits) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    if digits.len() <= 19 && digits.bytes().all(|b| b.is_ascii_digit()) {
        let v = digits
            .bytes()
            .fold(0u64, |v, d| v * 10 + u64::from(d - b'0')) as f64;
        return Some(if negative { -v } else { v });
    }
    text.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abe_sim::SimTime;

    fn rec(t: f64, key: u64, sub: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(t),
            key,
            sub,
            event,
        }
    }

    fn sample_file() -> String {
        let mut sink = JsonlSink::new();
        sink.record(&rec(0.0, 1, 0, TraceEvent::Start { node: 0 }));
        sink.record(&rec(
            0.5,
            100,
            0,
            TraceEvent::Deliver {
                edge: 0,
                src: 0,
                dst: 1,
                seq: 0,
                size: 16,
                payload: Some("\"msg\"".into()),
            },
        ));
        sink.record(&rec(
            0.5,
            100,
            1,
            TraceEvent::Send {
                edge: 1,
                src: 1,
                dst: 2,
                seq: 0,
                size: 16,
                delay: 0.25,
            },
        ));
        format!(
            "{}\n{}",
            render_header(
                sink.records(),
                0,
                &[("experiment", abe_stats::json_str("e1"))]
            ),
            sink.body()
        )
    }

    #[test]
    fn rendered_traces_validate() {
        let file = sample_file();
        let summary = validate_trace(&file).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.declared_dropped, 0);
    }

    #[test]
    fn header_line_is_first_and_self_describing() {
        let file = sample_file();
        let first = file.lines().next().unwrap();
        assert!(first.starts_with("{\"schema\":\"abe/trace-v1\""));
        assert!(first.contains("\"experiment\":\"e1\""));
    }

    #[test]
    fn keys_render_as_strings() {
        let line = render_record(&rec(1.0, u64::MAX, 0, TraceEvent::Tick { node: 7 }));
        assert!(line.contains(&format!("\"key\":\"{}\"", u64::MAX)));
        assert!(validate_trace(&format!("{}\n{line}", render_header(1, 0, &[]))).is_ok());
    }

    #[test]
    fn validation_rejects_time_regression() {
        let file = format!(
            "{}\n{}\n{}",
            render_header(2, 0, &[]),
            render_record(&rec(2.0, 1, 0, TraceEvent::Tick { node: 0 })),
            render_record(&rec(1.0, 2, 0, TraceEvent::Tick { node: 0 })),
        );
        let err = validate_trace(&file).unwrap_err();
        assert!(err.contains("time went backwards"), "got: {err}");
    }

    #[test]
    fn validation_rejects_broken_sub_numbering() {
        let file = format!(
            "{}\n{}\n{}",
            render_header(2, 0, &[]),
            render_record(&rec(1.0, 5, 0, TraceEvent::Tick { node: 0 })),
            render_record(&rec(1.0, 5, 2, TraceEvent::Tick { node: 0 })),
        );
        let err = validate_trace(&file).unwrap_err();
        assert!(err.contains("does not continue"), "got: {err}");
    }

    #[test]
    fn validation_rejects_count_mismatch_and_bad_json() {
        let file = format!(
            "{}\n{}",
            render_header(5, 0, &[]),
            render_record(&rec(1.0, 1, 0, TraceEvent::Tick { node: 0 })),
        );
        assert!(validate_trace(&file).unwrap_err().contains("declares 5"));
        let garbage = format!("{}\nnot json", render_header(1, 0, &[]));
        assert!(validate_trace(&garbage).is_err());
        assert!(validate_trace("").is_err());
    }

    #[test]
    fn json_str_escapes_control_characters() {
        let to = "a\"b\nc\u{1}d";
        let line = render_record(&rec(1.0, 1, 0, TraceEvent::StateChange { node: 0, to }));
        assert!(line.ends_with(r#","to":"a\"b\nc\u0001d"}"#), "{line}");
        let file = format!("{}\n{line}", render_header(1, 0, &[]));
        assert_eq!(validate_trace(&file).map(|s| s.records), Ok(1));
    }

    #[test]
    fn non_finite_floats_render_null_and_fail_validation() {
        let send = TraceEvent::Send {
            edge: 0,
            src: 0,
            dst: 1,
            seq: 0,
            size: 0,
            delay: f64::INFINITY,
        };
        let line = render_record(&rec(1.0, 1, 0, send));
        assert!(line.ends_with(",\"delay\":null}"), "{line}");
        let file = format!("{}\n{line}", render_header(1, 0, &[]));
        assert_eq!(
            validate_trace(&file),
            Err("line 2: bad number \"null\"".to_string())
        );
    }

    const HEADER: &str = r#"{"schema":"abe/trace-v1","records":1,"dropped":0}"#;
    const TICK: &str = r#"{"t":1,"key":"1","sub":0,"ev":"tick","node":0}"#;

    /// Every rejection, with its exact message. A case names a whole
    /// file, or (starting with `+`) one record line after [`HEADER`].
    #[test]
    fn validation_rejects_each_malformation_with_its_message() {
        let cases: &[(&str, &str)] = &[
            ("", "empty trace file"),
            ("[]", "header: expected '{'"),
            (
                r#"{"schema":"abe/trace-v0","records":0,"dropped":0}"#,
                r#"header schema must be "abe/trace-v1", got Some(Str("abe/trace-v0"))"#,
            ),
            (
                r#"{"schema":1,"records":0,"dropped":0}"#,
                r#"header schema must be "abe/trace-v1", got Some(Num(1.0))"#,
            ),
            (
                r#"{"records":0,"dropped":0}"#,
                r#"header schema must be "abe/trace-v1", got None"#,
            ),
            (
                r#"{"schema":"abe/trace-v1","dropped":0}"#,
                r#"header missing "records""#,
            ),
            (
                r#"{"schema":"abe/trace-v1","records":-1,"dropped":0}"#,
                r#"header missing "records""#,
            ),
            (
                r#"{"schema":"abe/trace-v1","records":0}"#,
                r#"header missing "dropped""#,
            ),
            (
                r#"{"schema":"abe/trace-v1","records":0,"dropped":0,}"#,
                "header: expected string, got Some((49, '}'))",
            ),
            ("+not json", "line 2: expected '{'"),
            (
                r#"+{"key":"1","sub":0,"ev":"tick","node":0}"#,
                r#"line 2: missing numeric "t""#,
            ),
            (
                r#"+{"t":"1","key":"1","sub":0,"ev":"tick","node":0}"#,
                r#"line 2: missing numeric "t""#,
            ),
            (
                r#"+{"t":1,"sub":0,"ev":"tick","node":0}"#,
                r#"line 2: missing string "key""#,
            ),
            (
                r#"+{"t":1,"key":1,"sub":0,"ev":"tick","node":0}"#,
                r#"line 2: missing string "key""#,
            ),
            (
                r#"+{"t":1,"key":"x","sub":0,"ev":"tick","node":0}"#,
                r#"line 2: "key" is not a u64 string"#,
            ),
            (
                r#"+{"t":1,"key":"1","ev":"tick","node":0}"#,
                r#"line 2: missing numeric "sub""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0.5,"ev":"tick","node":0}"#,
                r#"line 2: missing numeric "sub""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"node":0}"#,
                r#"line 2: missing string "ev""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":1,"ev":"tick","node":0}"#,
                "line 2: dispatch group must start at sub 0, got 1",
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"tick"}"#,
                r#"line 2: "tick" record missing "node""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"state_change","node":0}"#,
                r#"line 2: "state_change" record missing "to""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"decide","node":0}"#,
                r#"line 2: "decide" record missing "value""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"send","edge":0,"src":0,"dst":1,"seq":0,"size":0}"#,
                r#"line 2: "send" record missing "delay""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"drop_random","edge":0,"src":0,"dst":1,"seq":0}"#,
                r#"line 2: "drop_random" record missing "size""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"teleport","node":0}"#,
                r#"line 2: unknown event "teleport""#,
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"ti\ck","node":0}"#,
                "line 2: bad escape Some((34, 'c'))",
            ),
            (
                r#"+{"t":1,"key":"1","sub":0,"ev":"\u12g4","node":0}"#,
                r"line 2: bad \u escape",
            ),
            (r#"+{"t":1,"key":"1"#, "line 2: unterminated string"),
            (r#"+{"t" 1}"#, r#"line 2: expected ':' after key "t""#),
            (
                r#"+{"t":1 "key":"1"}"#,
                r#"line 2: expected ',' or '}', got Some((7, '"'))"#,
            ),
            (r#"+{"t":"#, "line 2: unexpected end of object"),
            (r#"+{"t":}"#, r#"line 2: bad number """#),
            (r#"+{"t":true}"#, r#"line 2: bad number "true""#),
            (r#"+{1:2}"#, "line 2: expected string, got Some((1, '1'))"),
            (
                &format!("+{TICK} x"),
                "line 2: trailing characters after object",
            ),
            // Rejected since the validator checks for trailing characters
            // after an empty object too.
            ("{} x", "header: trailing characters after object"),
            ("+{} x", "line 2: trailing characters after object"),
        ];
        for (case, want) in cases {
            let file = match case.strip_prefix('+') {
                Some(line) => format!("{HEADER}\n{line}"),
                None => case.to_string(),
            };
            assert_eq!(
                validate_trace(&file).as_ref().map_err(String::as_str),
                Err(*want),
                "case {case:?}"
            );
        }
        // Rejected since the validator enforces the RFC 8259 number
        // grammar: `str::parse::<f64>` takes each of these, so these
        // otherwise valid records used to pass (a `NaN` time even passed
        // the monotonicity check).
        for bad in [
            "NaN",
            "inf",
            "-infinity",
            "+1",
            ".5",
            "1.",
            "01",
            "-01",
            "-",
            "1e",
            "1e+",
            "0x10",
        ] {
            for (t, node) in [(bad, "0"), ("1", bad)] {
                let line = format!(r#"{{"t":{t},"key":"1","sub":0,"ev":"tick","node":{node}}}"#);
                assert_eq!(
                    validate_trace(&format!("{HEADER}\n{line}")),
                    Err(format!("line 2: bad number {bad:?}")),
                    "{line}"
                );
            }
        }
        // The file-level rules.
        let two = HEADER.replace("\"records\":1", "\"records\":2");
        let second = |t: &str, key: &str, sub: u32| {
            format!(r#"{{"t":{t},"key":"{key}","sub":{sub},"ev":"tick","node":0}}"#)
        };
        for (file, want) in [
            (
                format!("{two}\n{TICK}\n{}", second("0.5", "2", 0)),
                "line 3: time went backwards",
            ),
            (
                format!("{two}\n{TICK}\n{}", second("1", "1", 2)),
                "line 3: sub 2 does not continue 0 within its dispatch group",
            ),
            (
                format!("{HEADER}\n{TICK}\n{}", second("2", "1", 0)),
                "header declares 1 records but file has 2",
            ),
        ] {
            assert_eq!(validate_trace(&file), Err(want.to_string()));
        }
    }

    #[test]
    fn validation_accepts_every_json_number_and_escape() {
        for line in [
            TICK,
            r#"{"t":1e2,"key":"1","sub":0,"ev":"tick","node":0}"#,
            r#"{"t":-0,"key":"1","sub":0,"ev":"tick","node":-0.0}"#,
            r#"{"t":0.5E-3,"key":"1","sub":0.0,"ev":"tick","node":1E+2}"#,
            r#" { "t" : 1 , "key" : "1" , "sub" : 0 , "ev" : "tick" , "node" : 0 } "#,
            r#"{"t":1,"key":"1","sub":0,"ev":"tick","node":0,"x":"\"\\\/\n\r\té"}"#,
            r#"{"t":1,"key":"1","sub":0,"ev":"tick","node":0,"ev":"ignored"}"#,
            r#"{"t":1,"key":"1","sub":0,"ev":"tick","node":18446744073709551616000}"#,
        ] {
            let file = format!("{HEADER}\n{line}\n");
            assert_eq!(validate_trace(&file).map(|s| s.records), Ok(1), "{line}");
        }
    }
}
