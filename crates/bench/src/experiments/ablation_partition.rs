//! Ablation: spatial partition sweep.
//!
//! The offline spatial allocator gives the B-SA the *minimum* rows that
//! sustain the input frame rate. This ablation sweeps the T-SA/B-SA split and
//! reports (a) the kernel throughputs from the performance estimator and
//! (b) the end-to-end accuracy of DaCapo-Spatiotemporal on a drifting
//! scenario, showing why the minimal-B-SA choice is the right one: giving
//! inference more rows than it needs only starves retraining and labeling.

use crate::runner::truncate_scenario;
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_accel::estimator::{estimate, PrecisionPlan};
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_core::{ClSimulator, PlatformRates, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Row {
    tsa_rows: usize,
    bsa_rows: usize,
    inference_fps: f64,
    labeling_sps: f64,
    retraining_sps: f64,
    frame_drop_rate: f64,
    accuracy: f64,
}

pub(super) fn run(options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let pair = ModelPair::ResNet18Wrn50;
    let accel_config = AccelConfig::default();
    let accel = DaCapoAccelerator::new(accel_config)?;
    let plan = PrecisionPlan::default();
    let scenario = if options.quick {
        truncate_scenario(&Scenario::s3(), 5)
    } else {
        truncate_scenario(&Scenario::s3(), 10)
    };

    let mut rows = Vec::new();
    for tsa_rows in [4usize, 6, 8, 10, 12, 13, 14] {
        let est = estimate(&accel, pair, tsa_rows, 16, &plan)?;
        let rates = PlatformRates::dacapo_with_tsa_rows(pair, tsa_rows, &accel_config)?;
        let config = SimConfig::builder(scenario.clone(), pair)
            .platform_rates(rates.clone())
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 25)
            .build()?;
        let result = ClSimulator::new(config)?.run()?;
        rows.push(Row {
            tsa_rows,
            bsa_rows: est.bsa_rows,
            inference_fps: est.inference_fps,
            labeling_sps: est.labeling_samples_per_s,
            retraining_sps: est.retraining_samples_per_s,
            frame_drop_rate: rates.frame_drop_rate(30.0),
            accuracy: result.mean_accuracy,
        });
    }

    writeln!(
        text,
        "Ablation: T-SA/B-SA row split, (ResNet18, WideResNet50) on {}\n",
        scenario.name()
    )?;
    let table = render_table(
        &["T-SA", "B-SA", "Inference FPS", "Labeling sps", "Retraining sps", "Drops", "Accuracy"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tsa_rows.to_string(),
                    r.bsa_rows.to_string(),
                    format!("{:.1}", r.inference_fps),
                    format!("{:.1}", r.labeling_sps),
                    format!("{:.1}", r.retraining_sps),
                    pct(r.frame_drop_rate),
                    pct(r.accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;
    writeln!(
        text,
        "Shape check: accuracy peaks where the B-SA is just large enough for 30 FPS (no frame \
         drops) and every remaining row feeds the T-SA; larger B-SAs waste rows, smaller ones \
         drop frames."
    )?;
    Report::new(&rows, text)
}
