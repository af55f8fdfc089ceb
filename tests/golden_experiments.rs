//! Golden reproductions: every experiment's rows at the `--smoke` tier are
//! held byte for byte to `tests/fixtures/golden/<name>.json`.
//!
//! The fixtures were written by the binaries of commit 3204bab (the last
//! with one hand-rolled `main` per experiment), so they pin the paper's
//! evaluation matrix across every refactor since. A fixture is never edited
//! to make a change pass: a change that means to move an output regenerates
//! it with `just golden` and says so in CHANGES.md. This is the debug-profile
//! half of the pin; CI `cmp`s the same fixtures against what the
//! release-profile "Bench smoke" step wrote.

use dacapo_bench::{ExperimentOptions, HostRecord, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// Runs `name` at the smoke tier and compares its rows with the fixture; the
/// error names the first differing line and how to regenerate.
fn check(name: &str) -> Result<(), String> {
    let experiment = EXPERIMENTS.iter().find(|e| e.name == name).expect("listed in EXPERIMENTS");
    let options = ExperimentOptions { smoke: true, quick: true, ..ExperimentOptions::default() };
    let report = (experiment.run)(&options, &mut HostRecord::new(experiment.name, &options))
        .map_err(|failure| format!("{name} failed: {}", failure.0))?;
    let fixture = format!("tests/fixtures/golden/{name}.json");
    let golden = std::fs::read_to_string(repo_path(&fixture)).expect("fixture is readable");
    if report.rows == golden {
        return Ok(());
    }
    let (mut now, mut pinned) = (report.rows.lines(), golden.lines());
    let mut line = 1;
    let (now, pinned) = loop {
        match (now.next(), pinned.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => break (a.unwrap_or("<end>"), b.unwrap_or("<end>")),
        }
    };
    Err(format!(
        "{name}: rows differ from {fixture}, first at line {line}\n  golden: {pinned}\n  \
         now:    {now}\nIf this change means to move the output, regenerate the fixtures with \
         `just golden` (release `run_all -- --smoke`, then copy `results/<name>.json`) and list \
         the moved golden with its reason in CHANGES.md."
    ))
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        /// The experiments this file pins.
        const PINNED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                if let Err(message) = check(stringify!($name)) {
                    panic!("{message}");
                }
            }
        )*
    };
}

golden![
    table03_models,
    table04_platforms,
    fig08_label_distribution,
    fig03_kernel_breakdown,
    fig02_motivation,
    fig09_end_to_end,
    fig10_accuracy_over_time,
    fig11_temporal_allocation,
    fig12_extreme_scenarios,
    energy_comparison,
    ablation_partition,
    ablation_precision,
    fleet_scaling,
    cluster_contention,
    cross_camera,
    elastic_churn,
    edge_cloud,
];

/// File stems of `directory`'s entries with `extension`.
fn stems(directory: &str, extension: &str) -> BTreeSet<String> {
    std::fs::read_dir(repo_path(directory))
        .expect("directory is readable")
        .map(|entry| entry.expect("entry is readable").path())
        .filter(|path| path.extension().is_some_and(|e| e == extension))
        .map(|path| path.file_stem().expect("has a stem").to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_experiment_has_a_binary_a_fixture_and_a_golden_test() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(table.len(), EXPERIMENTS.len(), "EXPERIMENTS lists a name twice");
    let mut binaries = stems("crates/bench/src/bin", "rs");
    assert!(binaries.remove("run_all"), "run_all is the one binary that is not an experiment");
    assert_eq!(binaries, table, "crates/bench/src/bin/*.rs vs EXPERIMENTS");
    assert_eq!(stems("tests/fixtures/golden", "json"), table, "fixtures vs EXPERIMENTS");
    let pinned: BTreeSet<String> = PINNED.iter().map(|name| (*name).to_string()).collect();
    assert_eq!(pinned, table, "this file's golden![..] list vs EXPERIMENTS");
}
