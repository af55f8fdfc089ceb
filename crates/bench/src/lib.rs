//! The paper's evaluation as data: every table, figure, ablation and sweep
//! is one function in [`experiments`], all of them are listed once in
//! [`EXPERIMENTS`], and one [`driver`] runs them.
//!
//! An experiment maps [`ExperimentOptions`] (which tier to run) to a
//! [`Report`]: its rows as JSON plus the rendered tables and shape-check
//! text. It prints nothing, writes nothing and cannot read a clock, so the
//! rows are a pure function of experiment and tier — `tests/golden_experiments.rs`
//! holds every one of them to `tests/fixtures/golden/<name>.json` byte for
//! byte. Everything around that is the driver's: flag parsing (an unknown
//! argument is exit code 2, not a silently ignored extra), printing,
//! `results/<name>.json` under `--json`, error → exit code, and the crate's
//! one wall-clock read ([`HostRecord::timed`]), whose measurements go to
//! stdout and `results/BENCH_<name>.json` and never into the rows.
//!
//! The binaries in `src/bin/` are the table's entries by name (CI, the
//! `justfile` and the README call them); `run_all` loops over the table
//! in-process. The README's "Experiments" section is the index: name, paper
//! artefact, tiers.

pub mod cli;
pub mod driver;
pub mod experiments;
pub mod runner;

pub use driver::{Experiment, HostRecord};
pub use experiments::EXPERIMENTS;

use dacapo_telemetry::TelemetryRecorder;
use serde::Serialize;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The flags every experiment binary accepts, as the usage line prints them.
pub const USAGE: &str =
    "[--quick|--smoke] [--json] [--trace <path>] [--metrics <path>] [--show-config]";

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
    /// Also print the Table I hyperparameters (`--show-config`, read by
    /// `fig09_end_to_end`).
    pub show_config: bool,
}

impl ExperimentOptions {
    /// Parses options from an argument list (the process arguments minus the
    /// program name).
    ///
    /// # Errors
    ///
    /// Names the first argument that is not one of [`USAGE`]'s flags, or the
    /// value flag that ends the list without its value.
    // Not the std trait: this is argument parsing, not collection building.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut options = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--smoke" => {
                    options.smoke = true;
                    options.quick = true;
                }
                "--json" => options.json = true,
                "--trace" => options.trace = Some(value()?),
                "--metrics" => options.metrics = Some(value()?),
                "--show-config" => options.show_config = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(options)
    }

    /// Builds a [`TelemetryRecorder`] from the `--trace` / `--metrics`
    /// flags: a `chrome-trace` sink for the trace path and a `json-lines`
    /// sink for the metrics path, each creating its file here. With neither
    /// flag set, the recorder is disabled (the reserved `null` sink's fast
    /// path).
    ///
    /// # Errors
    ///
    /// Returns the sink-registry error message for a malformed path or one
    /// whose file cannot be created.
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

/// Why an experiment, or the driver around it, stopped: the message of
/// whichever error ended it. Any displayable error converts, so experiment
/// bodies use `?` on every crate's `Result` alike; the driver prints the
/// message next to the experiment's name.
#[derive(Debug)]
pub struct Failure(pub String);

impl<E: fmt::Display> From<E> for Failure {
    fn from(error: E) -> Self {
        Self(error.to_string())
    }
}

/// What an experiment produces. Both halves are a pure function of the
/// experiment and its tier: no wall-clock reading reaches either.
#[derive(Debug)]
pub struct Report {
    /// The rows, pretty-printed: the exact bytes of `results/<name>.json`
    /// and of the golden fixture.
    pub rows: String,
    /// The rendered tables and shape-check text, as printed to stdout.
    pub text: String,
}

impl Report {
    /// Serialises `rows` next to the rendered `text`.
    ///
    /// # Errors
    ///
    /// Returns the serialiser's message.
    pub fn new<T: Serialize + ?Sized>(rows: &T, text: String) -> Result<Self, Failure> {
        Ok(Self { rows: serde_json::to_string_pretty(rows)?, text })
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
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.join("results"),
        None => PathBuf::from("results"),
    }
}

/// Writes an already serialised result to `<dir>/<name>.json`, creating the
/// directory, and returns the path. The driver passes [`results_dir`].
///
/// # Errors
///
/// Returns an error string if the directory cannot be created or the file
/// cannot be written.
pub fn write_json(dir: &Path, name: &str, payload: &str) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
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

    fn parse(args: &[&str]) -> Result<ExperimentOptions, String> {
        ExperimentOptions::from_iter(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn options_parse_flags_and_extras() {
        let options = parse(&["--quick", "--json", "--show-config"]).unwrap();
        assert!(options.quick);
        assert!(!options.smoke);
        assert!(options.json);
        assert!(options.show_config);
        assert_eq!(parse(&[]).unwrap(), ExperimentOptions::default());
        // There are no extras: a mistyped flag or a stray positional is an
        // error naming it, not an ignored argument in front of a full run.
        assert_eq!(parse(&["--quik"]).unwrap_err(), "unknown argument '--quik'");
        assert_eq!(parse(&["--quick", "S3"]).unwrap_err(), "unknown argument 'S3'");
    }

    #[test]
    fn trace_and_metrics_flags_take_values() {
        let dir = std::env::temp_dir().join("dacapo-bench-flags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json").display().to_string();
        let metrics = dir.join("metrics.jsonl").display().to_string();
        let options = parse(&["--trace", &trace, "--metrics", &metrics, "--smoke"]).unwrap();
        assert_eq!(options.trace.as_deref(), Some(trace.as_str()));
        assert_eq!(options.metrics.as_deref(), Some(metrics.as_str()));
        let recorder = options.telemetry_recorder().unwrap();
        assert!(recorder.is_enabled());
        // The file sinks create their files up front, so a path under a
        // missing directory fails here rather than after the run.
        let missing = dir.join("no-such-directory").join("trace.json").display().to_string();
        let error = parse(&["--trace", &missing]).unwrap().telemetry_recorder().err().unwrap();
        assert!(error.contains(&missing), "{error}");
    }

    #[test]
    fn without_telemetry_flags_the_recorder_is_disabled() {
        let options = parse(&[]).unwrap();
        let recorder = options.telemetry_recorder().unwrap();
        assert!(!recorder.is_enabled(), "no flags must keep the null fast path");
        // A dangling value flag is an error rather than a silent None.
        assert_eq!(parse(&["--trace"]).unwrap_err(), "--trace needs a value");
        assert_eq!(parse(&["--json", "--metrics"]).unwrap_err(), "--metrics needs a value");
    }

    #[test]
    fn smoke_implies_quick() {
        let options = parse(&["--smoke"]).unwrap();
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
        let dir = std::env::temp_dir().join(format!("dacapo-bench-test-{}", std::process::id()));
        let report = Report::new(&vec![1, 2, 3], String::new()).unwrap();
        let path = write_json(&dir, "unit_test_output", &report.rows).unwrap();
        let content = std::fs::read_to_string(&path);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(path, dir.join("unit_test_output.json"));
        assert_eq!(content.unwrap(), report.rows);
    }
}
