//! Shared plumbing for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary in `src/bin/` reproduces one table or figure (see DESIGN.md's
//! experiment index). They share the small utilities here: command-line flag
//! handling (`--quick`, `--json`), tabular printing, and JSON result dumps
//! under `results/`.

pub mod cli;
pub mod runner;

use dacapo_telemetry::TelemetryRecorder;
use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Common command-line options for experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExperimentOptions {
    /// Run a reduced configuration (shorter scenarios, fewer repeats) so the
    /// experiment finishes in seconds rather than minutes.
    pub quick: bool,
    /// Run the smallest meaningful configuration — the CI smoke tier, meant
    /// to populate `results/*.json` on every PR in well under a minute.
    /// Implies [`ExperimentOptions::quick`]; experiments that distinguish
    /// the tiers check `smoke` first.
    pub smoke: bool,
    /// Also write the results as JSON under `results/`.
    pub json: bool,
    /// Write a virtual-time Chrome trace of the observed run to this path
    /// (`--trace <path>`).
    pub trace: Option<String>,
    /// Write the per-window metrics timeseries (JSON Lines) to this path
    /// (`--metrics <path>`).
    pub metrics: Option<String>,
    /// Extra positional arguments (experiment-specific).
    pub extra: Vec<String>,
}

impl ExperimentOptions {
    /// Parses options from `std::env::args`.
    #[must_use]
    pub fn from_args() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument list (used by tests).
    // Not the std trait: this is argument parsing, not collection building.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let mut options = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--smoke" => {
                    options.smoke = true;
                    options.quick = true;
                }
                "--json" => options.json = true,
                "--trace" => options.trace = args.next(),
                "--metrics" => options.metrics = args.next(),
                other => options.extra.push(other.to_string()),
            }
        }
        options
    }

    /// Whether `--trace` or `--metrics` asked for a telemetry-observed run.
    #[must_use]
    pub fn wants_telemetry(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Builds a [`TelemetryRecorder`] from the `--trace` / `--metrics`
    /// flags: a `chrome-trace` sink for the trace path and a `json-lines`
    /// sink for the metrics path. With neither flag set, the recorder is
    /// disabled (the reserved `null` sink's fast path).
    ///
    /// # Errors
    ///
    /// Returns the sink-registry error message for a malformed path.
    pub fn telemetry_recorder(&self) -> Result<TelemetryRecorder, String> {
        let mut recorder = TelemetryRecorder::new();
        if let Some(path) = &self.trace {
            recorder = recorder
                .with_sink_spec(&format!("chrome-trace:{path}"))
                .map_err(|e| e.to_string())?;
        }
        if let Some(path) = &self.metrics {
            recorder = recorder
                .with_sink_spec(&format!("json-lines:{path}"))
                .map_err(|e| e.to_string())?;
        }
        Ok(recorder)
    }
}

/// Renders a table with a header row and aligned columns.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The workspace-root `results/` directory.
///
/// Anchored to the workspace rather than the current directory because
/// cargo runs benches and tests with the *package* directory as cwd:
/// a relative `results/` would scatter records into `crates/bench/results/`
/// when invoked via `cargo bench` but the repo root via `cargo run`.
#[must_use]
pub fn results_dir() -> PathBuf {
    // crates/bench -> crates -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(std::path::Path::parent) {
        Some(root) => root.join("results"),
        None => PathBuf::from("results"),
    }
}

/// Writes a serialisable result to `results/<name>.json` under the
/// workspace root (see [`results_dir`]), returning the path.
///
/// # Errors
///
/// Returns an error string if the directory cannot be created or the file
/// cannot be written.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Result<PathBuf, String> {
    let dir = results_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create results directory: {e}"))?;
    let path = dir.join(format!("{name}.json"));
    let payload =
        serde_json::to_string_pretty(value).map_err(|e| format!("serialisation failed: {e}"))?;
    fs::write(&path, payload).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Formats a fraction as a percentage with one decimal place.
#[must_use]
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags_and_extras() {
        let options = ExperimentOptions::from_iter(
            ["--quick", "--json", "S3"].iter().map(|s| (*s).to_string()),
        );
        assert!(options.quick);
        assert!(!options.smoke);
        assert!(options.json);
        assert_eq!(options.extra, vec!["S3".to_string()]);
        assert_eq!(ExperimentOptions::from_iter(std::iter::empty()), ExperimentOptions::default());
    }

    #[test]
    fn trace_and_metrics_flags_take_values() {
        let options = ExperimentOptions::from_iter(
            ["--trace", "out/trace.json", "--metrics", "out/metrics.jsonl", "--smoke"]
                .iter()
                .map(|s| (*s).to_string()),
        );
        assert_eq!(options.trace.as_deref(), Some("out/trace.json"));
        assert_eq!(options.metrics.as_deref(), Some("out/metrics.jsonl"));
        assert!(options.wants_telemetry());
        assert!(options.extra.is_empty());
        let recorder = options.telemetry_recorder().unwrap();
        assert!(recorder.is_enabled());
    }

    #[test]
    fn without_telemetry_flags_the_recorder_is_disabled() {
        let options = ExperimentOptions::from_iter(std::iter::empty());
        assert!(!options.wants_telemetry());
        let recorder = options.telemetry_recorder().unwrap();
        assert!(!recorder.is_enabled(), "no flags must keep the null fast path");
        // A dangling value flag parses as None rather than an extra.
        let dangling = ExperimentOptions::from_iter(["--trace".to_string()]);
        assert_eq!(dangling.trace, None);
        assert!(dangling.extra.is_empty());
    }

    #[test]
    fn smoke_implies_quick() {
        let options = ExperimentOptions::from_iter(["--smoke".to_string()]);
        assert!(options.smoke);
        assert!(options.quick, "--smoke runs at least as reduced as --quick");
        assert!(!options.json);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["system", "accuracy"],
            &[
                vec!["DaCapo".to_string(), "81.5%".to_string()],
                vec!["OrinHigh-Ekya".to_string(), "75.0%".to_string()],
            ],
        );
        assert!(table.contains("system"));
        assert!(table.contains("OrinHigh-Ekya"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn pct_formats_one_decimal() {
        assert_eq!(pct(0.815), "81.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn write_json_creates_file() {
        let value = vec![1, 2, 3];
        let path = write_json("unit_test_output", &value).unwrap();
        assert!(path.exists());
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_file(path).ok();
    }
}
