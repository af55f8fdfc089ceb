//! Pluggable telemetry sinks, selected by name exactly like schedulers,
//! share policies, and offload policies are.
//!
//! The builtin sinks:
//!
//! - `chrome-trace:<path>` — buffers trace events and writes a Chrome Trace
//!   Event Format JSON document (Perfetto-loadable) to `<path>` at finish;
//! - `json-lines:<path>` — buffers per-window metrics records and writes a
//!   JSON-Lines timeseries to `<path>` at finish;
//! - `summary` — counts everything it sees and prints a compact table to
//!   stdout at finish.
//!
//! `null` is not a sink: it is the family's **reserved** name, meaning no
//! sink at all — [`crate::TelemetryRecorder::with_sink_spec`] adds nothing
//! for it, which keeps the recorder on its telemetry-free fast path. User
//! sinks cannot claim it, and [`create`] refuses it (so does
//! `with_sink_spec`, given a suffix such as `null:x`).
//!
//! Out-of-crate sinks implement [`TelemetrySink`] + [`SinkFactory`] and call
//! [`register`]; `examples/telemetry.rs` registers a CSV sink this way. Name
//! storage, case-insensitive lookup, and `:<params>` suffix splitting are
//! [`dacapo_core::registry::Registry`]'s, so the rules match every other
//! family in the workspace.

use crate::error::{Result, TelemetryError};
use crate::metrics::MetricsRecord;
use crate::trace::TraceEvent;
use dacapo_core::registry::Registry;
use std::sync::{Arc, OnceLock};

/// One destination for telemetry output. All hooks default to no-ops so a
/// sink only implements the streams it cares about; buffering sinks flush
/// in [`TelemetrySink::finish`].
pub trait TelemetrySink: Send {
    /// Receives one trace event, in deterministic recording order.
    ///
    /// # Errors
    ///
    /// Sinks surface their first failure; the recorder reports it from
    /// [`crate::TelemetryRecorder::finish`].
    fn on_trace_event(&mut self, event: &TraceEvent) -> Result<()> {
        let _ = event;
        Ok(())
    }

    /// Receives one per-window metrics record, in deterministic order.
    ///
    /// # Errors
    ///
    /// Same contract as [`TelemetrySink::on_trace_event`].
    fn on_metrics_record(&mut self, record: &MetricsRecord) -> Result<()> {
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

/// Builds [`TelemetrySink`]s from a registered name plus an optional
/// `:<params>` suffix (the builtin file sinks read their output path from
/// it).
pub trait SinkFactory: Send + Sync {
    /// The registry base name (must not contain `':'`).
    fn name(&self) -> &str;

    /// Instantiates the sink for one run. `params` is the text after the
    /// first `':'` in the spec, if any.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvalidConfig`] for missing or malformed
    /// parameters.
    fn create(&self, params: Option<&str>) -> Result<Box<dyn TelemetrySink>>;
}

/// The global sink registry, seeded with the builtins; storage and lookup
/// rules live in [`dacapo_core::registry`].
fn registry() -> &'static Registry<dyn SinkFactory> {
    static REGISTRY: OnceLock<Registry<dyn SinkFactory>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let builtins: [Arc<dyn SinkFactory>; 3] =
            [Arc::new(SummaryFactory), Arc::new(ChromeTraceFactory), Arc::new(JsonLinesFactory)];
        Registry::new(
            "telemetry sink",
            // The recorder's fast-path guarantee ("null" means no telemetry
            // work at all) must survive user registrations.
            &["null"],
            builtins.into_iter().map(|f| (f.name().to_string(), f)).collect(),
        )
    })
}

/// Registers (or replaces) a sink factory under its case-insensitive
/// [`SinkFactory::name`].
///
/// # Panics
///
/// Panics if the factory's name contains `':'` (reserved for parameter
/// suffixes during lookup) or is `"null"` — the reserved no-sink name.
pub fn register(factory: Arc<dyn SinkFactory>) {
    let name = factory.name().to_string();
    registry().register(&name, factory);
}

/// Looks up a sink factory by case-insensitive name, ignoring a `:<params>`
/// suffix (`by_name("chrome-trace:out.json")` resolves `"chrome-trace"`).
#[must_use]
pub fn by_name(name: &str) -> Option<Arc<dyn SinkFactory>> {
    registry().by_name(name)
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
/// reserved `"null"` (it selects no sink), or malformed parameters.
pub fn create(spec: &str) -> Result<Box<dyn TelemetrySink>> {
    let (factory, params) =
        registry().resolve(spec).map_err(|reason| TelemetryError::InvalidConfig { reason })?;
    factory.create(params)
}

/// Maps an I/O failure at `path` to the crate error type.
fn io_error(path: &str, error: &std::io::Error) -> TelemetryError {
    TelemetryError::Io { path: path.to_string(), reason: error.to_string() }
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
    fn on_trace_event(&mut self, event: &TraceEvent) -> Result<()> {
        self.trace_events += 1;
        match event {
            TraceEvent::Complete { .. } => self.spans += 1,
            TraceEvent::Mark { .. } => self.instants += 1,
            TraceEvent::Counter { .. } => self.counter_samples += 1,
            TraceEvent::ProcessName { .. } | TraceEvent::ThreadName { .. } => {}
        }
        Ok(())
    }

    fn on_metrics_record(&mut self, record: &MetricsRecord) -> Result<()> {
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

struct SummaryFactory;

impl SinkFactory for SummaryFactory {
    fn name(&self) -> &str {
        "summary"
    }

    fn create(&self, _params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
        Ok(Box::new(SummarySink {
            trace_events: 0,
            spans: 0,
            instants: 0,
            counter_samples: 0,
            metrics_records: 0,
            last_end_s: 0.0,
        }))
    }
}

// ---------------------------------------------------------------------------
// Builtin: chrome-trace
// ---------------------------------------------------------------------------

/// Buffers serialized trace events; writes the trace document at finish.
struct ChromeTraceSink {
    path: String,
    events: Vec<String>,
}

impl TelemetrySink for ChromeTraceSink {
    fn on_trace_event(&mut self, event: &TraceEvent) -> Result<()> {
        self.events.push(event.to_json());
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        let document = crate::trace::render_trace(&self.events);
        std::fs::write(&self.path, document).map_err(|e| io_error(&self.path, &e))
    }
}

struct ChromeTraceFactory;

impl SinkFactory for ChromeTraceFactory {
    fn name(&self) -> &str {
        "chrome-trace"
    }

    fn create(&self, params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
        let Some(path) = params.filter(|p| !p.is_empty()) else {
            return Err(TelemetryError::InvalidConfig {
                reason: "the chrome-trace sink needs an output path: chrome-trace:<path>".into(),
            });
        };
        Ok(Box::new(ChromeTraceSink { path: path.to_string(), events: Vec::new() }))
    }
}

// ---------------------------------------------------------------------------
// Builtin: json-lines
// ---------------------------------------------------------------------------

/// Buffers metrics records; writes one JSON object per line at finish.
struct JsonLinesSink {
    path: String,
    lines: Vec<String>,
}

impl TelemetrySink for JsonLinesSink {
    fn on_metrics_record(&mut self, record: &MetricsRecord) -> Result<()> {
        self.lines.push(record.to_json_line());
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        let mut document = self.lines.join("\n");
        document.push('\n');
        std::fs::write(&self.path, document).map_err(|e| io_error(&self.path, &e))
    }
}

struct JsonLinesFactory;

impl SinkFactory for JsonLinesFactory {
    fn name(&self) -> &str {
        "json-lines"
    }

    fn create(&self, params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
        let Some(path) = params.filter(|p| !p.is_empty()) else {
            return Err(TelemetryError::InvalidConfig {
                reason: "the json-lines sink needs an output path: json-lines:<path>".into(),
            });
        };
        Ok(Box::new(JsonLinesSink { path: path.to_string(), lines: Vec::new() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FieldValue;

    #[test]
    fn registry_resolves_builtins_case_insensitively() {
        assert!(by_name("CHROME-TRACE:out.json").is_some());
        assert!(by_name("Json-Lines").is_some());
        assert!(by_name("no-such-sink").is_none());
        let names = registered_names();
        for builtin in ["summary", "chrome-trace", "json-lines"] {
            assert!(names.contains(&builtin.to_string()), "{builtin} missing from {names:?}");
        }
        assert!(!names.contains(&"null".to_string()), "the reserved name is not a sink");
    }

    #[test]
    fn file_sinks_require_a_path() {
        assert!(create("chrome-trace").is_err());
        assert!(create("json-lines:").is_err());
        assert!(create("chrome-trace:/tmp/t.json").is_ok());
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
        struct Impostor;
        impl SinkFactory for Impostor {
            fn name(&self) -> &str {
                "null"
            }
            fn create(&self, _params: Option<&str>) -> Result<Box<dyn TelemetrySink>> {
                SummaryFactory.create(None)
            }
        }
        register(Arc::new(Impostor));
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("dacapo-telemetry-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let spec = format!("json-lines:{}", path.display());
        let mut sink = create(&spec).unwrap();
        for window in 0..2 {
            let record = MetricsRecord::new("camera", window, (window as f64 + 1.0) * 60.0, "cam")
                .field("steps", FieldValue::Uint(window as u64));
            sink.on_metrics_record(&record).unwrap();
        }
        sink.finish().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written.lines().count(), 2);
        assert!(written.ends_with('\n'));
        std::fs::remove_file(&path).ok();
    }
}
