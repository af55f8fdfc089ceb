//! Cluster contention sweep: 10 → 1000 cameras multiplexed over 1 → 8
//! shared accelerators under the `fair-share` arbiter, cameras cycling
//! through the eight paper scenarios (S1–S6, ES1, ES2).
//!
//! Per sweep point it reports cluster makespan, p50/p99 step stretch, mean
//! accelerator utilization, steps executed, peak event-queue depth and fleet
//! accuracy. Each point's cluster run is timed, so the driver also leaves the
//! per-point wall times in `BENCH_cluster_contention.json`.
//!
//! `--trace <path>` / `--metrics <path>` run the first (smallest) sweep point
//! observed, writing a virtual-time Chrome trace and/or a per-window metrics
//! timeseries.

use super::sweep;
use crate::{cli, pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::Cluster;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct SweepRow {
    cameras: usize,
    accelerators: usize,
    arbiter: String,
    steps: usize,
    peak_event_queue_depth: usize,
    makespan_s: f64,
    p50_step_stretch: f64,
    p99_step_stretch: f64,
    mean_accelerator_utilization: f64,
    mean_accuracy: f64,
    total_drift_responses: usize,
}

fn build_cluster(cameras: usize, accelerators: usize) -> Result<Cluster, Failure> {
    let mut cluster = Cluster::new(accelerators).arbiter("fair-share");
    for i in 0..cameras {
        let config = sweep::camera("sweep-chip", 40.0, sweep::cycled_scenario(i, 2))?
            .seed(0xC1057E4 + i as u64)
            .build()?;
        cluster = cluster.camera(format!("cam-{i:04}"), config);
    }
    Ok(cluster)
}

pub(super) fn run(options: &ExperimentOptions, host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let camera_counts: &[usize] = cli::tier(options, &[10], &[10, 50], &[10, 100, 1000]);
    let accel_counts: &[usize] = cli::tier(options, &[2], &[1, 4], &[1, 2, 4, 8]);

    writeln!(
        text,
        "Cluster contention sweep: cameras {camera_counts:?} x accelerators {accel_counts:?}, \
         fair-share arbiter, scenarios S1-ES2 cycled\n"
    )?;

    // With --trace/--metrics the first (smallest) sweep point runs observed
    // through a telemetry recorder; the rest of the sweep stays unobserved
    // so the host times keep measuring the bare executor.
    let mut recorder = Some(options.telemetry_recorder()?).filter(|r| r.is_enabled());

    let mut rows = Vec::new();
    for &cameras in camera_counts {
        for &accelerators in accel_counts {
            let cluster = build_cluster(cameras, accelerators)?;
            let label = format!("{cameras} cameras x {accelerators} accelerators");
            let result = match recorder.as_mut().filter(|_| rows.is_empty()) {
                Some(recorder) => host.timed(label, || cluster.run_with(recorder))?,
                None => host.timed(label, || cluster.run())?,
            };
            let contention = &result.contention;
            rows.push(SweepRow {
                cameras,
                accelerators,
                arbiter: contention.arbiter.clone(),
                steps: contention.steps_executed,
                peak_event_queue_depth: contention.peak_queue_depth,
                makespan_s: contention.makespan_s,
                p50_step_stretch: contention.p50_step_stretch,
                p99_step_stretch: contention.p99_step_stretch,
                mean_accelerator_utilization: contention.mean_accelerator_utilization,
                mean_accuracy: result.fleet.mean_accuracy,
                total_drift_responses: result.fleet.total_drift_responses,
            });
        }
    }

    if let Some(recorder) = recorder {
        let summary = recorder.finish()?;
        writeln!(
            text,
            "telemetry (first sweep point): {} trace events, {} metrics records",
            summary.trace_events, summary.metrics_records,
        )?;
    }

    let table = render_table(
        &[
            "Cameras",
            "Accels",
            "Makespan (s)",
            "p50 stretch",
            "p99 stretch",
            "Util",
            "Steps",
            "Peak queue",
            "Accuracy",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.cameras.to_string(),
                    r.accelerators.to_string(),
                    format!("{:.0}", r.makespan_s),
                    format!("{:.2}x", r.p50_step_stretch),
                    format!("{:.2}x", r.p99_step_stretch),
                    pct(r.mean_accelerator_utilization),
                    r.steps.to_string(),
                    r.peak_event_queue_depth.to_string(),
                    pct(r.mean_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;
    writeln!(
        text,
        "Executor: {} cameras and {} steps over the sweep, peak event-queue depth {}",
        rows.iter().map(|r| r.cameras).sum::<usize>(),
        rows.iter().map(|r| r.steps).sum::<usize>(),
        rows.iter().map(|r| r.peak_event_queue_depth).max().unwrap_or(0),
    )?;
    Report::new(&rows, text)
}
