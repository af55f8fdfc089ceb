//! Figure 10: accuracy over time on scenario S1 (15-second windows) for
//! DaCapo-Spatiotemporal, DaCapo-Spatial, OrinHigh-Ekya and OrinHigh-EOMU,
//! with the drift-case intervals highlighted.

use crate::runner::{run_system_with, SystemUnderTest, FIG9_SYSTEMS};
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::{PhaseKind, PhaseRecord, SimObserver};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Series {
    pair: String,
    system: String,
    windows: Vec<(f64, f64)>,
    mean_accuracy: f64,
    retrain_completions: usize,
}

/// Observer tapping the session's event stream: counts retraining
/// completions live instead of post-processing the phase log.
#[derive(Default)]
struct RetrainTap {
    completions: usize,
}

impl SimObserver for RetrainTap {
    fn on_phase(&mut self, phase: &PhaseRecord) {
        if phase.kind == PhaseKind::Retrain {
            self.completions += 1;
        }
    }
}

const FIG10_SYSTEMS: [&str; 4] =
    ["DaCapo-Spatiotemporal", "DaCapo-Spatial", "OrinHigh-Ekya", "OrinHigh-EOMU"];

pub(super) fn run(options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let scenario = Scenario::s1();
    let pairs = [ModelPair::ResNet18Wrn50, ModelPair::ResNet34Wrn101];
    let systems: Vec<SystemUnderTest> =
        FIG9_SYSTEMS.iter().copied().filter(|s| FIG10_SYSTEMS.contains(&s.label)).collect();

    let mut all_series = Vec::new();
    for pair in pairs {
        writeln!(text, "== Accuracy over time on S1, {pair} (15 s windows) ==\n")?;
        let mut rows = Vec::new();
        let mut window_times: Vec<f64> = Vec::new();
        for system in &systems {
            let mut tap = RetrainTap::default();
            let result = run_system_with(scenario.clone(), pair, *system, options.quick, &mut tap)?;
            let windows = result.windowed_accuracy(15.0);
            if window_times.is_empty() {
                window_times = windows.iter().map(|(t, _)| *t).collect();
            }
            let mut cells = vec![system.label.to_string(), pct(result.mean_accuracy)];
            // Print a decimated set of windows so the table stays readable.
            let stride = (windows.len() / 12).max(1);
            cells.extend(windows.iter().step_by(stride).map(|(_, a)| pct(*a)));
            rows.push(cells);
            all_series.push(Series {
                pair: pair.to_string(),
                system: system.label.to_string(),
                mean_accuracy: result.mean_accuracy,
                retrain_completions: tap.completions,
                windows,
            });
        }
        let stride = (window_times.len() / 12).max(1);
        let mut headers: Vec<String> = vec!["System".to_string(), "mean".to_string()];
        headers.extend(window_times.iter().step_by(stride).map(|t| format!("{t:.0}s")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        writeln!(text, "{}", render_table(&header_refs, &rows))?;
    }

    // Drift-case zoom: report the accuracy dip and recovery around the first
    // drift boundary for the ResNet18 pair.
    if let Some((first_drift, _)) = scenario.drift_boundaries().first() {
        writeln!(text, "Drift case: first drift occurs at t = {first_drift:.0} s; compare the window series above around that time.")?;
    }
    writeln!(
        text,
        "Shape check: DaCapo-Spatiotemporal recovers fastest after drift boundaries; EOMU retrains \
         more often than Ekya (retrain completions below) but with a stale buffer.\n"
    )?;
    for series in &all_series {
        writeln!(
            text,
            "  {:>24} ({}) retraining completions: {}",
            series.system, series.pair, series.retrain_completions
        )?;
    }
    Report::new(&all_series, text)
}
