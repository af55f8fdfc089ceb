//! Observability: trace and meter an observed cluster run, including a
//! custom CSV metrics sink `dacapo-telemetry` knows nothing about —
//! defined in this file and registered by name, exactly the way an
//! out-of-crate sink would plug in.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use dacapo::telemetry::sink::{self, TelemetrySink};
use dacapo::telemetry::{MetricsRecord, TelemetryError, TelemetryRecorder};
use dacapo_core::{Cluster, ClusterResult, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use std::fs::File;
use std::io::{BufWriter, Write};

/// A metrics sink the telemetry crate has no idea exists: long-format CSV,
/// one row per metric field, streamed through a fixed-size buffer like the
/// builtin file sinks, so its memory does not grow with the run.
struct CsvSink {
    path: String,
    out: BufWriter<File>,
}

/// Maps an I/O failure to the telemetry error naming the file.
fn io_error(path: &str, error: &std::io::Error) -> TelemetryError {
    TelemetryError::Io { path: path.to_string(), reason: error.to_string() }
}

impl TelemetrySink for CsvSink {
    fn on_metrics_record(&mut self, record: &MetricsRecord<'_>) -> Result<(), TelemetryError> {
        for (field, value) in record.fields {
            let row = write!(
                self.out,
                "{},{},{},{},{field},",
                record.kind, record.window_index, record.end_s, record.scope
            )
            .and_then(|()| value.write_json(&mut self.out))
            .and_then(|()| self.out.write_all(b"\n"));
            row.map_err(|e| io_error(&self.path, &e))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TelemetryError> {
        self.out.flush().map_err(|e| io_error(&self.path, &e))
    }
}

/// Builds `"csv:<path>"`.
fn csv(params: Option<&str>) -> Result<Box<dyn TelemetrySink>, TelemetryError> {
    let path = params.filter(|p| !p.is_empty()).ok_or_else(|| TelemetryError::InvalidConfig {
        reason: "the csv sink needs a path: 'csv:<path>'".to_string(),
    })?;
    // Open the file (and write the header) now, so a bad path fails
    // before the run rather than at its end.
    let mut out = BufWriter::new(File::create(path).map_err(|e| io_error(path, &e))?);
    out.write_all(b"kind,window,end_s,scope,field,value\n").map_err(|e| io_error(path, &e))?;
    Ok(Box::new(CsvSink { path: path.to_string(), out }))
}

/// Four cameras cycling the paper scenarios over two shared accelerators,
/// with label sharing so cluster-level telemetry has something to show.
fn build_cluster() -> Result<Cluster, Box<dyn std::error::Error>> {
    let scenarios = Scenario::all();
    let mut cluster = Cluster::new(2).arbiter("fair-share").share("broadcast").share_window_s(60.0);
    for i in 0..4usize {
        let base = &scenarios[i % scenarios.len()];
        let scenario = Scenario::try_from_segments(
            base.name(),
            base.segments().iter().copied().take(2).collect(),
        )?;
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .seed(0x7E1E + i as u64)
            .build()?;
        cluster = cluster.camera(format!("cam-{i}"), config);
    }
    Ok(cluster)
}

/// One observed run writing a Chrome trace, the CSV timeseries, and a
/// stdout summary.
fn traced_run(
    trace_path: &str,
    csv_path: &str,
) -> Result<ClusterResult, Box<dyn std::error::Error>> {
    let mut recorder = TelemetryRecorder::new()
        .with_sink_spec(&format!("chrome-trace:{trace_path}"))?
        .with_sink_spec(&format!("csv:{csv_path}"))?
        .with_sink_spec("summary")?;
    let result = build_cluster()?.run_with(&mut recorder)?;
    let summary = recorder.finish()?;
    println!(
        "recorded {} trace events and {} metrics records\n",
        summary.trace_events, summary.metrics_records
    );
    Ok(result)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register the custom sink once; from here `csv:<path>` is a valid
    //    spec anywhere a recorder is configured, like any builtin.
    sink::register("csv", csv);
    println!("registered telemetry sinks: {}\n", sink::registered_names().join(", "));

    let dir = std::env::temp_dir().join("dacapo_telemetry_example");
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join("trace.json").display().to_string();
    let csv_path = dir.join("metrics.csv").display().to_string();

    // 2. Run observed: virtual-time Chrome trace + CSV timeseries + stdout
    //    summary from one run.
    let observed = traced_run(&trace_path, &csv_path)?;

    // 3. Telemetry must not perturb the simulation: a telemetry-free run
    //    produces the exact same result...
    let plain = build_cluster()?.run()?;
    assert_eq!(observed, plain, "telemetry must not perturb the run");

    // ...and tracing the same run twice produces byte-identical files —
    // the determinism contract that makes traces diffable across PRs.
    let trace_bytes = std::fs::read(&trace_path)?;
    let csv_bytes = std::fs::read(&csv_path)?;
    traced_run(&trace_path, &csv_path)?;
    assert_eq!(trace_bytes, std::fs::read(&trace_path)?, "trace bytes diverged");
    assert_eq!(csv_bytes, std::fs::read(&csv_path)?, "csv bytes diverged");
    println!("re-tracing the run reproduced both files byte-for-byte");

    let csv = String::from_utf8(csv_bytes)?;
    println!("csv timeseries: {} rows at {}", csv.lines().count().saturating_sub(1), csv_path);
    assert!(csv.starts_with("kind,window,end_s,scope,field,value\n"));
    assert!(csv.lines().any(|line| line.starts_with("window,")), "no per-camera window rows");
    let trace = String::from_utf8(std::fs::read(&trace_path)?)?;
    assert!(trace.starts_with("{\"traceEvents\":["), "not a Chrome trace document");
    println!("chrome trace: load {trace_path} in Perfetto or chrome://tracing");

    // 4. Misconfigurations fail fast, before any simulation runs.
    match TelemetryRecorder::new().with_sink_spec("parquet:/tmp/out") {
        Err(TelemetryError::InvalidConfig { reason }) => {
            println!("unknown sink rejected up front: {reason}");
        }
        Err(other) => return Err(format!("expected an invalid-config error, got {other:?}").into()),
        Ok(_) => return Err("expected an invalid-config error, got a recorder".into()),
    }
    Ok(())
}
