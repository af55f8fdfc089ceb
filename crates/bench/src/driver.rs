//! The one driver behind every experiment binary: parses the flags, runs an
//! entry of [`EXPERIMENTS`], prints its report, writes `results/<name>.json`
//! under `--json`, turns an error into an exit code — and owns the crate's
//! only wall-clock read, [`HostRecord::timed`].

use crate::{
    render_table, results_dir, write_json, ExperimentOptions, Failure, Report, EXPERIMENTS, USAGE,
};
use serde::Serialize;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// One row of [`EXPERIMENTS`]: the name its binary, its `results/` file and
/// its golden fixture share, and the function that produces its report.
#[derive(Debug)]
pub struct Experiment {
    /// Binary name, `results/<name>.json`, `tests/fixtures/golden/<name>.json`.
    pub name: &'static str,
    /// The experiment: options in, report out. The [`HostRecord`] is its only
    /// access to host time, and hands none of it back.
    pub run: fn(&ExperimentOptions, &mut HostRecord) -> Result<Report, Failure>,
}

/// One timed stretch of an experiment, e.g. one sweep point's cluster run.
#[derive(Debug, Serialize)]
struct HostSpan {
    label: String,
    wall_s: f64,
}

/// How long the stretches an experiment chose to time took on this host: the
/// whole content of `results/BENCH_<name>.json`. Rows of `<name>.json` line
/// up with the spans by index where a rate (steps or cameras per second) is
/// wanted; the frozen `benchmark/` is the tracked throughput number.
#[derive(Debug, Serialize)]
pub struct HostRecord {
    bench: &'static str,
    schema_version: u32,
    quick: bool,
    smoke: bool,
    spans: Vec<HostSpan>,
    total_wall_s: f64,
}

impl HostRecord {
    /// An empty record for the experiment named `bench` at the options' tier.
    #[must_use]
    pub fn new(bench: &'static str, options: &ExperimentOptions) -> Self {
        Self {
            bench,
            schema_version: 2,
            quick: options.quick,
            smoke: options.smoke,
            spans: Vec::new(),
            total_wall_s: 0.0,
        }
    }

    /// Runs `run`, recording under `label` how long it took. The caller gets
    /// `run`'s value and nothing else, so a timing cannot reach a report.
    pub fn timed<T>(&mut self, label: impl Into<String>, run: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "the bench crate's one host-clock read; it feeds BENCH_*.json and stdout, \
                      never a report"
        )]
        let started = Instant::now();
        let value = run();
        let wall_s = started.elapsed().as_secs_f64();
        self.spans.push(HostSpan { label: label.into(), wall_s });
        self.total_wall_s += wall_s;
        value
    }

    fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> =
            self.spans.iter().map(|s| vec![s.label.clone(), format!("{:.2}", s.wall_s)]).collect();
        rows.push(vec!["total".to_string(), format!("{:.2}", self.total_wall_s)]);
        let table = render_table(&["Span", "Wall (s)"], &rows);
        format!("\nHost time (this machine, not the modelled system):\n\n{table}")
    }
}

/// Runs one experiment and does everything around it: prints the report,
/// then — if the experiment timed anything — the host spans, which also go
/// to `<dir>/BENCH_<name>.json`, and writes `<dir>/<name>.json` under
/// `--json`.
fn run(experiment: &Experiment, options: &ExperimentOptions, dir: &Path) -> Result<(), Failure> {
    let mut host = HostRecord::new(experiment.name, options);
    let report = (experiment.run)(options, &mut host)?;
    print!("{}", report.text);
    if !host.spans.is_empty() {
        println!("{}", host.render());
        let payload = serde_json::to_string_pretty(&host)?;
        let path = write_json(dir, &format!("BENCH_{}", experiment.name), &payload)?;
        println!("wrote {}", path.display());
    }
    if options.json {
        let path = write_json(dir, experiment.name, &report.rows)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// The process arguments as options, or the error with a one-line usage on
/// stderr and exit code 2.
fn options_or_usage(bin: &str) -> Result<ExperimentOptions, ExitCode> {
    ExperimentOptions::from_iter(std::env::args().skip(1)).map_err(|error| {
        eprintln!("error: {error}\nusage: {bin} {USAGE}");
        ExitCode::from(2)
    })
}

/// `main` of the experiment binary called `name`: exit code 2 for a bad
/// command line (or a name [`EXPERIMENTS`] does not list), 1 if the
/// experiment fails.
#[must_use]
pub fn main(name: &str) -> ExitCode {
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!("error: no experiment is called '{name}'");
        return ExitCode::from(2);
    };
    let options = match options_or_usage(name) {
        Ok(options) => options,
        Err(code) => return code,
    };
    match run(experiment, &options, &results_dir()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure(message)) => {
            eprintln!("error: {name}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `main` of `run_all`: every entry of [`EXPERIMENTS`] in order, in this
/// process, always with `--json`. A failing experiment is reported by name
/// and the rest still run; the exit code is 1 if any failed.
#[must_use]
pub fn run_all() -> ExitCode {
    let mut options = match options_or_usage("run_all") {
        Ok(options) => options,
        Err(code) => return code,
    };
    options.json = true;
    let dir = results_dir();
    let mut failures = Vec::new();
    for experiment in &EXPERIMENTS {
        println!("\n=================== {} ===================\n", experiment.name);
        if let Err(Failure(message)) = run(experiment, &options, &dir) {
            eprintln!("error: {}: {message}", experiment.name);
            failures.push(experiment.name);
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments completed; JSON results are under results/.");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nExperiments with failures: {failures:?}");
        ExitCode::FAILURE
    }
}
