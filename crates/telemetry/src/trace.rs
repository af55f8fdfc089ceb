//! Chrome Trace Event Format output in **virtual time**.
//!
//! The recorder maps the cluster onto the trace viewer's process/thread
//! model: each accelerator is a process (`pid`), each camera a thread
//! (`tid`), cluster-level control events (shares, churn, routing) live on
//! the synthetic [`CLUSTER_PID`] process, and all timestamps are virtual
//! seconds scaled to microseconds. The JSON uses the
//! `{"traceEvents": [...]}` object form, loadable in Perfetto and
//! `chrome://tracing`. Serialization is by hand, straight into the sink's
//! writer, and fully ordered, so the same run always produces the same
//! bytes.

use crate::metrics::{render, write_escaped, write_number, FieldValue};
use std::io::{self, Write};

/// Synthetic process id for cluster-level control events (label exchange,
/// churn, offload routing) that belong to no single accelerator.
pub const CLUSTER_PID: u32 = 65_535;

/// Converts virtual seconds to the trace format's microsecond ticks.
#[must_use]
pub fn virtual_us(seconds: f64) -> u64 {
    if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e6).round() as u64
    } else {
        0
    }
}

/// One Chrome trace event. It borrows everything it names, so recording
/// one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<'a> {
    /// A complete span (`ph: "X"`): one executed phase.
    Complete {
        /// Span label (`label`, `retrain`, `wait`).
        name: &'a str,
        /// Accelerator (process) id.
        pid: u32,
        /// Camera (thread) id.
        tid: u32,
        /// Start, in virtual microseconds.
        ts_us: u64,
        /// Duration, in virtual microseconds.
        dur_us: u64,
        /// Extra payload shown in the viewer's args pane.
        args: &'a [(&'a str, FieldValue<'a>)],
    },
    /// An instant marker (`ph: "i"` in the trace output): drift, share,
    /// churn, uplink.
    Mark {
        /// Marker label.
        name: &'a str,
        /// Process id ([`CLUSTER_PID`] for cluster-level events).
        pid: u32,
        /// Thread id (0 for process-wide markers).
        tid: u32,
        /// Time, in virtual microseconds.
        ts_us: u64,
        /// Extra payload shown in the viewer's args pane.
        args: &'a [(&'a str, FieldValue<'a>)],
    },
    /// A counter sample (`ph: "C"`): accuracy, utilization.
    Counter {
        /// Counter track name.
        name: &'a str,
        /// Process id the track belongs to.
        pid: u32,
        /// Time, in virtual microseconds.
        ts_us: u64,
        /// Series name/value pairs plotted on the track.
        series: &'a [(&'a str, f64)],
    },
    /// Process-name metadata (`ph: "M"`).
    ProcessName {
        /// Process id being named.
        pid: u32,
        /// Display name (`accelerator-N` or `cluster`).
        name: &'a str,
    },
    /// Thread-name metadata (`ph: "M"`).
    ThreadName {
        /// Process id the thread lives in.
        pid: u32,
        /// Thread id being named.
        tid: u32,
        /// Display name (the camera's name).
        name: &'a str,
    },
}

/// Writes `"name":` for an object key.
fn write_key<W: Write + ?Sized>(out: &mut W, name: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    write_escaped(out, name)?;
    out.write_all(b"\":")
}

/// Writes an args object from name/value pairs.
fn write_args<W: Write + ?Sized>(out: &mut W, args: &[(&str, FieldValue<'_>)]) -> io::Result<()> {
    out.write_all(b"{")?;
    for (i, (name, value)) in args.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_key(out, name)?;
        value.write_json(out)?;
    }
    out.write_all(b"}")
}

impl TraceEvent<'_> {
    /// Writes the event as one JSON object.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_json<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        match *self {
            Self::Complete { name, pid, tid, ts_us, dur_us, args } => {
                out.write_all(b"{\"name\":\"")?;
                write_escaped(out, name)?;
                write!(
                    out,
                    "\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\"dur\":{dur_us},\
                     \"args\":"
                )?;
                write_args(out, args)?;
            }
            Self::Mark { name, pid, tid, ts_us, args } => {
                out.write_all(b"{\"name\":\"")?;
                write_escaped(out, name)?;
                write!(
                    out,
                    "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us},\
                     \"args\":"
                )?;
                write_args(out, args)?;
            }
            Self::Counter { name, pid, ts_us, series } => {
                out.write_all(b"{\"name\":\"")?;
                write_escaped(out, name)?;
                write!(out, "\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts_us},\"args\":{{")?;
                for (i, (series_name, value)) in series.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    write_key(out, series_name)?;
                    write_number(out, *value)?;
                }
                out.write_all(b"}")?;
            }
            Self::ProcessName { pid, name } => {
                write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0,\
                     \"args\":{{\"name\":\""
                )?;
                write_escaped(out, name)?;
                out.write_all(b"\"}")?;
            }
            Self::ThreadName { pid, tid, name } => {
                write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\
                     \"args\":{{\"name\":\""
                )?;
                write_escaped(out, name)?;
                out.write_all(b"\"}")?;
            }
        }
        out.write_all(b"}")
    }

    /// Renders the event as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        render(|out| self.write_json(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_us_rounds_and_clamps() {
        assert_eq!(virtual_us(1.5), 1_500_000);
        assert_eq!(virtual_us(-2.0), 0);
        assert_eq!(virtual_us(f64::NAN), 0);
    }

    #[test]
    fn complete_events_render_chrome_format() {
        let event = TraceEvent::Complete {
            name: "label",
            pid: 1,
            tid: 2,
            ts_us: 10,
            dur_us: 20,
            args: &[("samples", FieldValue::Uint(8))],
        };
        assert_eq!(
            event.to_json(),
            "{\"name\":\"label\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":10,\"dur\":20,\
             \"args\":{\"samples\":8}}"
        );
    }

    #[test]
    fn metadata_and_counters_render() {
        let process = TraceEvent::ProcessName { pid: 0, name: "accelerator-0" };
        assert!(process.to_json().contains("\"process_name\""));
        let counter =
            TraceEvent::Counter { name: "accuracy", pid: 0, ts_us: 5, series: &[("cam", 0.5)] };
        assert!(counter.to_json().contains("\"ph\":\"C\""));
        assert!(counter.to_json().contains("\"cam\":0.5"));
    }
}
