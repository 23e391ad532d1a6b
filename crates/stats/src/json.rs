//! Push-style JSON writers shared by every hand-rendered document.
//!
//! The workspace has no serde dependency and renders JSON by hand: sweep-v1 and campaign-v1 documents, `abe-experiments`
//! reports, `trace-v1` record lines. These writers own the one escaping
//! rule set and the one float format (with
//! [`json_f64`](crate::json_f64)) so every producer emits identical
//! bytes, a prerequisite for byte-level golden diffs. The `write_*` forms
//! append to a caller's buffer and allocate nothing of their own.

use std::fmt::Write as _;

/// Appends [`json_f64`](crate::json_f64)`(x)` to `out` without allocating:
/// shortest round-trip digits, never an exponent, `null` when non-finite.
pub fn write_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Renders `s` as a quoted JSON string literal.
///
/// The one escaping rule set every JSON producer in the workspace shares:
/// `"` and `\` are backslash-escaped, `\n` `\r` `\t` use their short
/// forms, other control characters below U+0020 become `\u00xx`, and
/// everything else (non-ASCII included) is copied as is.
///
/// # Examples
///
/// ```
/// use abe_stats::json_str;
///
/// assert_eq!(json_str("δ=1"), "\"δ=1\"");
/// assert_eq!(json_str("a\"b\\c\n\u{1}"), r#""a\"b\\c\n\u0001""#);
/// ```
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Appends [`json_str`]`(s)` to `out` without allocating; a string with
/// nothing to escape is copied in one piece.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    // The common case, checked 16 bytes at a time without a branch per byte.
    let clean = s
        .as_bytes()
        .chunks(16)
        .all(|chunk| !chunk.iter().fold(false, |hit, &b| hit | needs_escape(b)));
    if clean {
        out.push_str(s);
        out.push('"');
        return;
    }
    let mut copied = 0;
    // Every byte that needs escaping is ASCII, so each one sits on a char
    // boundary and the runs between them are valid `str` slices.
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[copied..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\n\t\r"), "\"x\\n\\t\\r\"");
        assert_eq!(json_str("\u{1}\u{1f} "), "\"\\u0001\\u001f \"");
        assert_eq!(json_str("αβ"), "\"αβ\"");
        assert_eq!(json_str(""), "\"\"");
    }

    #[test]
    fn json_str_quotes() {
        assert_eq!(json_str("δ=1"), "\"δ=1\"");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn writers_append_to_the_buffer() {
        let mut out = String::from("[");
        write_json_str(&mut out, "é\"");
        out.push(',');
        write_json_f64(&mut out, 1e-7);
        out.push(',');
        write_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "[\"é\\\"\",0.0000001,null");
    }
}
