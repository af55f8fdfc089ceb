//! The deterministic metrics pipeline: counters, gauges, and the per-window
//! JSON-Lines record they are sampled into.
//!
//! Everything here is ordered — registries store series in [`BTreeMap`]s and
//! records carry their fields as ordered slices — so a metrics
//! timeseries is bit-identical across runs and worker-thread counts.
//! Sampling happens single-threaded at the cluster's window marks and
//! barriers (see the crate docs for the exact hook order), never from
//! worker threads.

use std::collections::BTreeMap;
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

/// The deterministic metrics registry: named counters and gauges, sampled
/// into `"cluster"` [`MetricsRecord`]s at window barriers and at the end of a
/// run. A name's key is allocated the first time it is used, never again.
///
/// Counters are **windowed**: [`MetricsRegistry::take_window`] drains the
/// per-window increments. Gauges report their latest value.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    /// Each counter's increments since the last window.
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// Whether a gauge was set since the last [`MetricsRegistry::take_window`].
    gauges_set: bool,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter.
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        match self.counters.get_mut(name) {
            Some(counter) => *counter += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge to its latest value.
    pub(crate) fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges_set = true;
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Drains the window's counter increments and samples every gauge: the
    /// fields of the `"cluster"` record for the window that just closed,
    /// the counters incremented in it and then every gauge, each in name
    /// order. Returns `None` when no counter was incremented and no gauge
    /// set since the last take (skipped empty windows produce no line).
    pub(crate) fn take_window(&mut self) -> Option<Vec<(&str, FieldValue<'static>)>> {
        let gauges_set = std::mem::take(&mut self.gauges_set);
        if !gauges_set && self.counters.values().all(|&counter| counter == 0) {
            return None;
        }
        let mut fields = Vec::with_capacity(self.counters.len() + self.gauges.len());
        for (name, counter) in &mut self.counters {
            if *counter > 0 {
                fields.push((name.as_str(), FieldValue::Uint(std::mem::take(counter))));
            }
        }
        for (name, value) in &self.gauges {
            fields.push((name.as_str(), FieldValue::Float(*value)));
        }
        Some(fields)
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

    #[test]
    fn take_window_drains_counters_but_keeps_gauges() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("steps", 5);
        registry.gauge_set("accuracy", 0.9);
        let fields = registry.take_window().expect("first window has data");
        assert_eq!(fields, [("steps", FieldValue::Uint(5)), ("accuracy", FieldValue::Float(0.9))]);
        // The next window starts from zero, but the gauge persists.
        registry.gauge_set("accuracy", 0.8);
        let fields = registry.take_window().expect("a set gauge is a change");
        assert_eq!(fields, [("accuracy", FieldValue::Float(0.8))]);
        registry.counter_add("steps", 2);
        let fields = registry.take_window().expect("a counted window");
        assert_eq!(fields, [("steps", FieldValue::Uint(2)), ("accuracy", FieldValue::Float(0.8))]);
    }

    #[test]
    fn a_window_in_which_nothing_changed_produces_no_record() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("steps", 1);
        registry.gauge_set("accuracy", 0.9);
        assert!(registry.take_window().is_some());
        // The gauge still has a value, but nobody set it since the take.
        assert!(registry.take_window().is_none());
        assert!(registry.take_window().is_none());
        registry.gauge_set("accuracy", 0.9);
        assert_eq!(registry.take_window(), Some(vec![("accuracy", FieldValue::Float(0.9))]));
    }

    #[test]
    fn empty_windows_produce_no_record() {
        let mut registry = MetricsRegistry::new();
        assert!(registry.take_window().is_none());
        // A drained counter keeps its key, but not a place in the record.
        registry.counter_add("steps", 1);
        assert!(registry.take_window().is_some());
        assert!(registry.take_window().is_none());
    }
}
