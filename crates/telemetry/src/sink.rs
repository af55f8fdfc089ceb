//! Pluggable telemetry sinks, selected by name exactly like schedulers,
//! share policies, and offload policies are.
//!
//! The builtin sinks:
//!
//! - `chrome-trace:<path>` — a Chrome Trace Event Format JSON document
//!   (Perfetto-loadable);
//! - `json-lines:<path>` — the per-window metrics timeseries, one JSON
//!   object per line;
//! - `summary` — counts everything it sees and prints a compact table to
//!   stdout at finish.
//!
//! The two file sinks stream: each creates its file when it is created (a
//! path that cannot be created fails there, before any simulation runs),
//! serialises every event or record straight into one fixed-size
//! [`BufWriter`], and at finish writes the trace's closing bracket and
//! flushes. Memory stays constant however long the run, and a run that
//! errors leaves a partial file behind.
//!
//! `null` is not a sink: it is the family's **reserved** name, meaning no
//! sink at all — [`crate::TelemetryRecorder::with_sink_spec`] adds nothing
//! for it, which keeps the recorder on its telemetry-free fast path. User
//! sinks cannot claim it, and [`create`] refuses it (so does
//! `with_sink_spec`, given a suffix such as `null:x`).
//!
//! Out-of-crate sinks implement [`TelemetrySink`] and [`register`] a name
//! and a `Fn(Option<&str>) -> Result<Box<dyn TelemetrySink>>` that builds
//! one; `examples/telemetry.rs` registers a CSV sink this way. Name storage,
//! case-insensitive lookup, and `:<params>` suffix splitting are
//! [`dacapo_core::registry::Registry`]'s, so the rules match every other
//! family in the workspace.

use crate::error::{Result, TelemetryError};
use crate::metrics::MetricsRecord;
use crate::trace::TraceEvent;
use dacapo_core::registry::{no_params, Registry};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Arc, OnceLock};

/// One destination for telemetry output. All hooks default to no-ops so a
/// sink only implements the streams it cares about; writing sinks flush in
/// [`TelemetrySink::finish`].
pub trait TelemetrySink: Send {
    /// Receives one trace event, in deterministic recording order.
    ///
    /// # Errors
    ///
    /// Sinks surface their first failure; the recorder reports it from
    /// [`crate::TelemetryRecorder::finish`].
    fn on_trace_event(&mut self, event: &TraceEvent<'_>) -> Result<()> {
        let _ = event;
        Ok(())
    }

    /// Receives one per-window metrics record, in deterministic order.
    ///
    /// # Errors
    ///
    /// Same contract as [`TelemetrySink::on_trace_event`].
    fn on_metrics_record(&mut self, record: &MetricsRecord<'_>) -> Result<()> {
        let _ = record;
        Ok(())
    }

    /// Flushes the sink (writes files, prints summaries). Called exactly
    /// once, after the run completes.
    ///
    /// # Errors
    ///
    /// Same contract as [`TelemetrySink::on_trace_event`].
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// How a registered sink is built for one run, from the text after the
/// first `':'` in the spec, if any (the builtin file sinks read their output
/// path from it). It returns [`TelemetryError::InvalidConfig`] for missing or
/// malformed parameters, and [`TelemetryError::Io`] for an output that
/// cannot be opened.
type Build = dyn Fn(Option<&str>) -> Result<Box<dyn TelemetrySink>> + Send + Sync;

/// The global sink registry, seeded with the builtins; storage and lookup
/// rules live in [`dacapo_core::registry`].
fn registry() -> &'static Registry<Build> {
    static REGISTRY: OnceLock<Registry<Build>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        // The recorder's fast-path guarantee ("null" means no telemetry work
        // at all) must survive user registrations.
        let registry: Registry<Build> = Registry::new("telemetry sink", &["null"]);
        registry.register("summary", Arc::new(summary));
        registry.register("chrome-trace", Arc::new(chrome_trace));
        registry.register("json-lines", Arc::new(json_lines));
        registry
    })
}

/// Registers (or replaces) the sink `build` makes under the
/// case-insensitive base `name`.
///
/// # Panics
///
/// Panics if `name` contains `':'` (reserved for parameter suffixes during
/// lookup) or is `"null"` — the reserved no-sink name.
pub fn register(
    name: &str,
    build: impl Fn(Option<&str>) -> Result<Box<dyn TelemetrySink>> + Send + Sync + 'static,
) {
    registry().register(name, Arc::new(build));
}

/// The base names of every registered sink, sorted.
#[must_use]
pub fn registered_names() -> Vec<String> {
    registry().names()
}

/// Whether `spec` is the reserved `"null"` (in any case, without a
/// suffix): no sink at all.
#[must_use]
pub fn is_null(spec: &str) -> bool {
    registry().is_reserved(spec)
}

/// Instantiates the sink selected by `spec` (a registered name with an
/// optional `:<params>` suffix).
///
/// # Errors
///
/// Returns [`TelemetryError::InvalidConfig`] for an unregistered name, the
/// reserved `"null"` (it selects no sink), or malformed parameters, and
/// [`TelemetryError::Io`] for an output file that cannot be created.
pub fn create(spec: &str) -> Result<Box<dyn TelemetrySink>> {
    let (build, params) =
        registry().resolve(spec).map_err(|reason| TelemetryError::InvalidConfig { reason })?;
    build(params)
}

/// Maps an I/O failure at `path` to the crate error type.
fn io_error(path: &str, error: &std::io::Error) -> TelemetryError {
    TelemetryError::Io { path: path.to_string(), reason: error.to_string() }
}

/// An output file being streamed: created up front, written through one
/// fixed-size buffer.
struct FileOut {
    path: String,
    out: BufWriter<File>,
}

impl FileOut {
    /// Creates (or truncates) the file behind a file sink's `:<path>`.
    fn create(sink: &str, params: Option<&str>) -> Result<Self> {
        let Some(path) = params.filter(|p| !p.is_empty()) else {
            return Err(TelemetryError::InvalidConfig {
                reason: format!("the {sink} sink needs an output path: {sink}:<path>"),
            });
        };
        let file = File::create(path).map_err(|e| io_error(path, &e))?;
        Ok(Self { path: path.to_string(), out: BufWriter::new(file) })
    }

    /// Runs `write` against the buffer, naming the path in its error.
    fn write(
        &mut self,
        write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
    ) -> Result<()> {
        write(&mut self.out).map_err(|e| io_error(&self.path, &e))
    }
}

// ---------------------------------------------------------------------------
// Builtin: summary
// ---------------------------------------------------------------------------

/// Counts everything and prints a compact table to stdout at finish.
struct SummarySink {
    trace_events: u64,
    spans: u64,
    instants: u64,
    counter_samples: u64,
    metrics_records: u64,
    last_end_s: f64,
}

impl TelemetrySink for SummarySink {
    fn on_trace_event(&mut self, event: &TraceEvent<'_>) -> Result<()> {
        self.trace_events += 1;
        match event {
            TraceEvent::Complete { .. } => self.spans += 1,
            TraceEvent::Mark { .. } => self.instants += 1,
            TraceEvent::Counter { .. } => self.counter_samples += 1,
            TraceEvent::ProcessName { .. } | TraceEvent::ThreadName { .. } => {}
        }
        Ok(())
    }

    fn on_metrics_record(&mut self, record: &MetricsRecord<'_>) -> Result<()> {
        self.metrics_records += 1;
        self.last_end_s = self.last_end_s.max(record.end_s);
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        println!("telemetry summary");
        println!("  trace events    {:>10}", self.trace_events);
        println!("    spans         {:>10}", self.spans);
        println!("    instants      {:>10}", self.instants);
        println!("    counters      {:>10}", self.counter_samples);
        println!("  metrics records {:>10}", self.metrics_records);
        println!("  last window end {:>10.1}s", self.last_end_s);
        Ok(())
    }
}

fn summary(params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
    no_params("telemetry sink", "summary", params)
        .map_err(|reason| TelemetryError::InvalidConfig { reason })?;
    Ok(Box::new(SummarySink {
        trace_events: 0,
        spans: 0,
        instants: 0,
        counter_samples: 0,
        metrics_records: 0,
        last_end_s: 0.0,
    }))
}

// ---------------------------------------------------------------------------
// Builtin: chrome-trace
// ---------------------------------------------------------------------------

/// Streams the trace document: the header when created, one event a line,
/// the closing bracket at finish.
struct ChromeTraceSink {
    file: FileOut,
    events: u64,
}

impl TelemetrySink for ChromeTraceSink {
    fn on_trace_event(&mut self, event: &TraceEvent<'_>) -> Result<()> {
        let separator: &[u8] = if self.events == 0 { b"\n" } else { b",\n" };
        self.events += 1;
        self.file.write(|out| {
            out.write_all(separator)?;
            event.write_json(out)
        })
    }

    fn finish(&mut self) -> Result<()> {
        self.file.write(|out| {
            out.write_all(b"\n]}\n")?;
            out.flush()
        })
    }
}

fn chrome_trace(params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
    let mut file = FileOut::create("chrome-trace", params)?;
    file.write(|out| out.write_all(b"{\"traceEvents\":["))?;
    Ok(Box::new(ChromeTraceSink { file, events: 0 }))
}

// ---------------------------------------------------------------------------
// Builtin: json-lines
// ---------------------------------------------------------------------------

/// Streams one JSON object per line; zero records make an empty file.
struct JsonLinesSink {
    file: FileOut,
}

impl TelemetrySink for JsonLinesSink {
    fn on_metrics_record(&mut self, record: &MetricsRecord<'_>) -> Result<()> {
        self.file.write(|out| {
            record.write_json(out)?;
            out.write_all(b"\n")
        })
    }

    fn finish(&mut self) -> Result<()> {
        self.file.write(Write::flush)
    }
}

fn json_lines(params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
    Ok(Box::new(JsonLinesSink { file: FileOut::create("json-lines", params)? }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FieldValue;
    use std::path::PathBuf;

    /// A fresh path for one test's output file.
    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dacapo-telemetry-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn registry_resolves_builtins_case_insensitively() {
        let path = temp_path("case.json");
        assert!(create(&format!("CHROME-TRACE:{}", path.display())).is_ok());
        std::fs::remove_file(&path).ok();
        // Without a path, the json-lines builder is reached and names it.
        let err = create("Json-Lines").err().unwrap().to_string();
        assert!(err.contains("json-lines sink needs an output path"), "{err}");
        assert!(create("Summary").is_ok());
        let names = registered_names();
        assert!(!names.contains(&"no-such-sink".to_string()));
        for builtin in ["summary", "chrome-trace", "json-lines"] {
            assert!(names.contains(&builtin.to_string()), "{builtin} missing from {names:?}");
        }
        assert!(!names.contains(&"null".to_string()), "the reserved name is not a sink");
    }

    #[test]
    fn file_sinks_require_a_path() {
        assert!(create("chrome-trace").is_err());
        assert!(create("json-lines:").is_err());
        let path = temp_path("required.json");
        assert!(create(&format!("chrome-trace:{}", path.display())).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_takes_no_parameters() {
        let err = match create("summary:x") {
            Err(err) => err,
            Ok(_) => panic!("summary must reject a suffix"),
        };
        assert!(matches!(err, TelemetryError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("'summary' takes no parameters, got ':x'"), "{err}");
    }

    #[test]
    fn unknown_sinks_report_the_registered_names() {
        let err = match create("no-such-sink") {
            Err(err) => err,
            Ok(_) => panic!("unknown sink must not resolve"),
        };
        assert!(err.to_string().contains("no-such-sink"), "{err}");
        assert!(err.to_string().contains("registered telemetry sink names"), "{err}");
    }

    #[test]
    fn null_detection_ignores_case_but_not_params() {
        assert!(is_null("null"));
        assert!(is_null("NULL"));
        assert!(!is_null("NULL:whatever"), "a suffixed sentinel is an error, not the sentinel");
        assert!(!is_null("summary"));
    }

    #[test]
    fn null_selects_no_sink_with_or_without_a_suffix() {
        for spec in ["null", "Null", "null:x"] {
            let err = match create(spec) {
                Err(err) => err,
                Ok(_) => panic!("'{spec}' must select no sink"),
            };
            assert!(matches!(err, TelemetryError::InvalidConfig { .. }), "{err:?}");
            assert!(err.to_string().contains("stage is absent"), "{err}");
        }
        // The recorder takes the bare name as "no sink" and the suffixed one
        // as the error it is.
        let recorder = crate::TelemetryRecorder::new().with_sink_spec("NULL").unwrap();
        assert!(!recorder.is_enabled());
        assert!(matches!(
            crate::TelemetryRecorder::new().with_sink_spec("null:x"),
            Err(TelemetryError::InvalidConfig { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn registering_over_the_reserved_null_name_panics() {
        register("null", summary);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_record() {
        let path = temp_path("metrics.jsonl");
        let mut sink = create(&format!("json-lines:{}", path.display())).unwrap();
        for window in 0..2 {
            let fields = [("steps", FieldValue::Uint(window as u64))];
            let end_s = (window as f64 + 1.0) * 60.0;
            let record = MetricsRecord {
                kind: "camera",
                window_index: window,
                end_s,
                scope: "cam",
                fields: &fields,
            };
            sink.on_metrics_record(&record).unwrap();
        }
        sink.finish().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            written,
            "{\"kind\":\"camera\",\"window\":0,\"end_s\":60,\"scope\":\"cam\",\"steps\":0}\n\
             {\"kind\":\"camera\",\"window\":1,\"end_s\":120,\"scope\":\"cam\",\"steps\":1}\n"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chrome_trace_sink_wraps_events_in_object_form() {
        let path = temp_path("trace.json");
        let mut sink = create(&format!("chrome-trace:{}", path.display())).unwrap();
        for pid in 0..2 {
            sink.on_trace_event(&TraceEvent::ProcessName { pid, name: "p" }).unwrap();
        }
        sink.finish().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        let event = |pid| TraceEvent::ProcessName { pid, name: "p" }.to_json();
        assert_eq!(written, format!("{{\"traceEvents\":[\n{},\n{}\n]}}\n", event(0), event(1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_outputs_are_an_empty_trace_and_an_empty_timeseries() {
        let (trace, metrics) = (temp_path("empty.json"), temp_path("empty.jsonl"));
        for (spec, path) in [("chrome-trace", &trace), ("json-lines", &metrics)] {
            create(&format!("{spec}:{}", path.display())).unwrap().finish().unwrap();
        }
        assert_eq!(std::fs::read_to_string(&trace).unwrap(), "{\"traceEvents\":[\n]}\n");
        // A blank line is not a JSON-Lines record: no records, no bytes.
        assert_eq!(std::fs::read_to_string(&metrics).unwrap(), "");
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn file_sinks_fail_when_created_at_a_path_that_cannot_be() {
        let path = temp_path("no-such-directory").join("out.json");
        for spec in ["chrome-trace", "json-lines"] {
            let spec = format!("{spec}:{}", path.display());
            match crate::TelemetryRecorder::new().with_sink_spec(&spec) {
                Err(TelemetryError::Io { path: named, .. }) => {
                    assert_eq!(named, path.display().to_string());
                }
                Err(other) => panic!("'{spec}' must fail with an I/O error, got {other:?}"),
                Ok(_) => panic!("'{spec}' must fail before the run"),
            }
        }
    }
}
