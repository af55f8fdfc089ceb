//! The per-window JSON-Lines record of the metrics pipeline and its field
//! values.
//!
//! A record carries its fields as an ordered slice and renders them in that
//! order, floats in shortest round-trip form, so a metrics timeseries is
//! bit-identical across runs and worker-thread counts. The recorder fills
//! records single-threaded at the cluster's window marks and barriers (see
//! the crate docs for the exact hook order), never from worker threads.

use std::io::{self, Write};

/// One metric field value. Floats are serialized with Rust's shortest
/// round-trip formatting, so equal values always render to equal bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// An unsigned integer field (counters).
    Uint(u64),
    /// A floating-point field; non-finite values render as JSON `null`.
    Float(f64),
    /// A boolean field.
    Bool(bool),
    /// A text field.
    Text(&'a str),
}

impl FieldValue<'_> {
    /// Writes the value as a JSON fragment.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_json<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        match *self {
            Self::Uint(v) => write!(out, "{v}"),
            Self::Float(v) => write_number(out, v),
            Self::Bool(v) => write!(out, "{v}"),
            Self::Text(v) => {
                out.write_all(b"\"")?;
                write_escaped(out, v)?;
                out.write_all(b"\"")
            }
        }
    }

    /// Renders the value as a JSON fragment.
    #[must_use]
    pub fn to_json(&self) -> String {
        render(|out| self.write_json(out))
    }
}

/// Collects what `write` writes into a `String`.
pub(crate) fn render(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    // Writing into a `Vec` cannot fail, and every writer here writes whole
    // `str`s, so the bytes are UTF-8; the fallbacks are unreachable.
    write(&mut out).unwrap_or_default();
    String::from_utf8(out).unwrap_or_default()
}

/// Writes a float as a JSON number (`null` when non-finite, which JSON
/// cannot represent).
pub(crate) fn write_number<W: Write + ?Sized>(out: &mut W, value: f64) -> io::Result<()> {
    if value.is_finite() {
        write!(out, "{value}")
    } else {
        out.write_all(b"null")
    }
}

/// Writes `text` escaped for a JSON string literal (without the quotes).
/// Only ASCII needs escaping, so the text is scanned byte by byte and the
/// runs between escapes go out as they are.
pub(crate) fn write_escaped<W: Write + ?Sized>(out: &mut W, text: &str) -> io::Result<()> {
    let bytes = text.as_bytes();
    let mut run = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.write_all(&bytes[run..at])?;
        match byte {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\r' => out.write_all(b"\\r")?,
            b'\t' => out.write_all(b"\\t")?,
            control => write!(out, "\\u{control:04x}")?,
        }
        run = at + 1;
    }
    out.write_all(&bytes[run..])
}

/// One line of the per-window metrics timeseries. It borrows everything it
/// names, so recording one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsRecord<'a> {
    /// Record family: `"camera"`, `"window"`, `"accelerator"`, or
    /// `"cluster"` from the builtin recorder; custom sinks may add more.
    pub kind: &'a str,
    /// Window index the record describes (camera-local for `"camera"`
    /// records, cluster-wide otherwise).
    pub window_index: usize,
    /// Virtual time at the end of the window, in seconds.
    pub end_s: f64,
    /// What the record describes: a camera name, `accelerator-N`, or
    /// `cluster`.
    pub scope: &'a str,
    /// Field name/value pairs, in order.
    pub fields: &'a [(&'a str, FieldValue<'a>)],
}

impl MetricsRecord<'_> {
    /// Writes the record as one JSON-Lines line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_json<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(b"{\"kind\":\"")?;
        write_escaped(out, self.kind)?;
        write!(out, "\",\"window\":{},\"end_s\":", self.window_index)?;
        write_number(out, self.end_s)?;
        out.write_all(b",\"scope\":\"")?;
        write_escaped(out, self.scope)?;
        out.write_all(b"\"")?;
        for (name, value) in self.fields {
            out.write_all(b",\"")?;
            write_escaped(out, name)?;
            out.write_all(b"\":")?;
            value.write_json(out)?;
        }
        out.write_all(b"}")
    }

    /// Renders the record as one JSON-Lines line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        render(|out| self.write_json(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_deterministic_json_lines() {
        let record = MetricsRecord {
            kind: "camera",
            window_index: 3,
            end_s: 120.0,
            scope: "cam-0",
            fields: &[
                ("accuracy", FieldValue::Float(0.875)),
                ("labels", FieldValue::Uint(42)),
                ("note", FieldValue::Text("a\"b")),
            ],
        };
        assert_eq!(
            record.to_json_line(),
            "{\"kind\":\"camera\",\"window\":3,\"end_s\":120,\"scope\":\"cam-0\",\
             \"accuracy\":0.875,\"labels\":42,\"note\":\"a\\\"b\"}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(FieldValue::Float(f64::NAN).to_json(), "null");
        assert_eq!(FieldValue::Float(f64::INFINITY).to_json(), "null");
        assert_eq!(FieldValue::Float(1.5).to_json(), "1.5");
    }

    #[test]
    fn text_escapes_quotes_backslashes_and_control_characters_only() {
        let text = FieldValue::Text("é\"\\\n\r\t\u{1}\u{1f}x→").to_json();
        assert_eq!(text, "\"é\\\"\\\\\\n\\r\\t\\u0001\\u001fx→\"");
        assert_eq!(FieldValue::Text("").to_json(), "\"\"");
    }
}
