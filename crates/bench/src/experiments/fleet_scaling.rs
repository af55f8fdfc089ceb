//! Multi-camera fleet run: all eight scenarios (S1–S6, ES1, ES2) as
//! independent camera sessions, each on a dedicated accelerator of one
//! `Cluster`, executed in parallel with per-camera seeds and aggregated into
//! fleet-level accuracy percentiles, total energy, and drop rate.
//!
//! The fleet is **heterogeneous**: cameras cycle through registry-named
//! platforms (the stock 16×16 DaCapo chip plus two `scaled-dacapo:<rows>`
//! variants), demonstrating per-camera platform selection by name.
//!
//! This is the multi-stream deployment shape the roadmap targets; per-camera
//! results stay bit-identical to solo runs regardless of thread count.

use crate::runner::truncate_scenario;
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::{Cluster, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use std::fmt::Write as _;

/// Registry names the cameras cycle through: a heterogeneous DaCapo-family
/// deployment (same ISA, three chip sizes).
const CAMERA_PLATFORMS: [&str; 3] = ["dacapo", "scaled-dacapo:24", "scaled-dacapo:32"];

pub(super) fn run(options: &ExperimentOptions, host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let pair = ModelPair::ResNet18Wrn50;

    let scenarios = Scenario::all();
    let mut cluster = Cluster::new(scenarios.len());
    let mut platforms = Vec::new();
    for (i, scenario) in scenarios.into_iter().enumerate() {
        let scenario = if options.quick { truncate_scenario(&scenario, 5) } else { scenario };
        let name = format!("cam-{:02}-{}", i, scenario.name());
        let platform = CAMERA_PLATFORMS[i % CAMERA_PLATFORMS.len()];
        let mut builder = SimConfig::builder(scenario, pair)
            .platform(platform)
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .seed(0xDACA90 + i as u64);
        if options.quick {
            builder = builder.measurement(10.0, 20).pretrain_samples(128);
        }
        let config = builder.build()?;
        platforms.push(platform);
        cluster = cluster.camera(name, config);
    }

    let cameras = cluster.len();
    let result = host.timed(format!("{cameras} cameras"), || cluster.run())?.fleet;

    writeln!(
        text,
        "{cameras}-camera fleet, heterogeneous platforms ({}), spatiotemporal scheduling\n",
        CAMERA_PLATFORMS.join(" / ")
    )?;
    let table = render_table(
        &["Camera", "Platform", "Accuracy", "Drift responses", "Drop rate", "Energy (J)"],
        &result
            .cameras
            .iter()
            .zip(&platforms)
            .map(|(c, platform)| {
                vec![
                    c.camera.clone(),
                    (*platform).to_string(),
                    pct(c.result.mean_accuracy),
                    c.result.drift_responses.to_string(),
                    pct(c.result.frame_drop_rate),
                    format!("{:.1}", c.result.energy_joules),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;
    writeln!(
        text,
        "Aggregates: mean {} | p50 {} | p10 {} | min {} accuracy; {} drift responses; \
         {:.1} J total; {} aggregate drop rate",
        pct(result.mean_accuracy),
        pct(result.p50_accuracy),
        pct(result.p10_accuracy),
        pct(result.min_accuracy),
        result.total_drift_responses,
        result.total_energy_joules,
        pct(result.aggregate_drop_rate),
    )?;
    writeln!(
        text,
        "Simulated: {:.0} s of streams across {cameras} cameras",
        result.cameras.iter().map(|c| c.result.duration_s).sum::<f64>(),
    )?;
    Report::new(&result, text)
}
