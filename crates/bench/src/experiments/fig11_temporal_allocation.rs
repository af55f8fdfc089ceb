//! Figure 11: temporal resource-allocation decisions — the retraining vs
//! labeling time split of DaCapo-Spatial (DC-S) and DaCapo-Spatiotemporal
//! (DC-ST) over a three-minute slice of S1 containing a drift, and the
//! accuracy improvement DC-ST obtains.

use crate::runner::{run_system_with, truncate_scenario, SystemUnderTest};
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::{PhaseKind, PhaseRecord, SchedulerKind, SimObserver};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Row {
    pair: String,
    system: String,
    retrain_share: f64,
    label_share: f64,
    accuracy: f64,
    accuracy_improvement_points: f64,
    drift_responses: usize,
}

/// Observer accumulating the temporal allocation live from the event stream:
/// per-kind busy time plus the drift-response count.
#[derive(Default)]
struct AllocationTap {
    label_s: f64,
    retrain_s: f64,
    drift_responses: usize,
}

impl SimObserver for AllocationTap {
    fn on_phase(&mut self, phase: &PhaseRecord) {
        match phase.kind {
            PhaseKind::Label => self.label_s += phase.duration_s,
            PhaseKind::Retrain => self.retrain_s += phase.duration_s,
            PhaseKind::Wait => {}
        }
    }

    fn on_drift(&mut self, _at_s: f64, _response_index: usize) {
        self.drift_responses += 1;
    }
}

pub(super) fn run(options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    // A slice of S1 surrounding its first label-distribution drift (at
    // t = 180 s) with enough post-drift time for the response to play out
    // (the paper collects Figure 11 over a few minutes of S1 around a drift).
    let slice = truncate_scenario(&Scenario::s1(), 5);

    let systems =
        [("DC-S", SchedulerKind::DaCapoSpatial), ("DC-ST", SchedulerKind::DaCapoSpatiotemporal)];

    let mut rows: Vec<Row> = Vec::new();
    for pair in ModelPair::ALL {
        let mut spatial_accuracy = None;
        for (label, scheduler) in systems {
            let mut tap = AllocationTap::default();
            let result = run_system_with(
                slice.clone(),
                pair,
                SystemUnderTest { label: "fig11", platform: "dacapo", scheduler },
                options.quick,
                &mut tap,
            )?;
            let busy = (tap.label_s + tap.retrain_s).max(1e-9);
            if scheduler == SchedulerKind::DaCapoSpatial {
                spatial_accuracy = Some(result.mean_accuracy);
            }
            rows.push(Row {
                pair: pair.to_string(),
                system: label.to_string(),
                retrain_share: tap.retrain_s / busy,
                label_share: tap.label_s / busy,
                accuracy: result.mean_accuracy,
                accuracy_improvement_points: spatial_accuracy
                    .map_or(0.0, |base| (result.mean_accuracy - base) * 100.0),
                drift_responses: tap.drift_responses,
            });
        }
    }

    writeln!(text, "Figure 11: retraining vs labeling time split over a 3-minute S1 slice\n")?;
    let table = render_table(
        &["Pair", "System", "Retrain:Label", "Accuracy", "Improvement", "Drift responses"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.pair.clone(),
                    r.system.clone(),
                    format!("{:.0}:{:.0}", r.retrain_share * 100.0, r.label_share * 100.0),
                    pct(r.accuracy),
                    if r.system == "DC-ST" {
                        format!("{:+.1} pts", r.accuracy_improvement_points)
                    } else {
                        "-".to_string()
                    },
                    r.drift_responses.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;
    writeln!(
        text,
        "Shape check: DC-ST shifts time from retraining to labeling when drift hits (larger \
         labeling share than DC-S) and gains accuracy by doing so."
    )?;
    Report::new(&rows, text)
}
