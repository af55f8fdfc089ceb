//! Cluster contention sweep: 10 → 1000 cameras multiplexed over 1 → 8
//! shared accelerators under the `fair-share` arbiter, cameras cycling
//! through the eight paper scenarios (S1–S6, ES1, ES2).
//!
//! Per sweep point it reports cluster makespan, p50/p99 step stretch, mean
//! accelerator utilization, and executor throughput (cameras and steps per
//! wall-clock second). Results go to two JSON files under `results/`:
//!
//! * `BENCH_cluster.json` — **always written**: a stable machine-readable
//!   executor-throughput record (cameras/sec stepped, wall time, peak
//!   event-queue depth per sweep point) so future PRs can track regressions.
//! * `cluster_contention.json` — with `--json`: the same rows plus fleet
//!   accuracy aggregates.
//!
//! Run with `cargo run --release -p dacapo-bench --bin cluster_contention
//! [--quick] [--json] [--trace <path>] [--metrics <path>]`; the telemetry
//! flags run the first (smallest) sweep point observed, writing a
//! virtual-time Chrome trace and/or a per-window metrics timeseries.

use dacapo_bench::runner::truncate_scenario;
use dacapo_bench::{cli, pct, render_table, write_json, ExperimentOptions};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{Cluster, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::time::Instant;

/// One sweep point's record in `BENCH_cluster.json`.
#[derive(Debug, Clone, Serialize)]
struct SweepRow {
    cameras: usize,
    accelerators: usize,
    arbiter: String,
    wall_s: f64,
    cameras_per_s: f64,
    steps: usize,
    steps_per_s: f64,
    peak_event_queue_depth: usize,
    makespan_s: f64,
    p50_step_stretch: f64,
    p99_step_stretch: f64,
    mean_accelerator_utilization: f64,
    mean_accuracy: f64,
    total_drift_responses: usize,
}

/// The stable throughput record future PRs diff against.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    bench: &'static str,
    schema_version: u32,
    quick: bool,
    rows: Vec<SweepRow>,
    total_wall_s: f64,
    total_cameras: usize,
    total_cameras_per_s: f64,
    peak_event_queue_depth: usize,
}

/// Synthetic capability sheet so the sweep measures the *executor*, not the
/// spatial allocator: fast enough that a thousand release-mode sessions
/// finish in seconds, partitioned so labeling/retraining rates are
/// independent of inference.
fn sweep_platform() -> PlatformRates {
    PlatformRates::new(
        "sweep-chip",
        KernelRate::fp32(120.0),
        KernelRate::fp32(40.0),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .expect("sweep rates are valid")
}

fn build_cluster(cameras: usize, accelerators: usize) -> Cluster {
    let scenarios = Scenario::all();
    let mut cluster = Cluster::new(accelerators).arbiter("fair-share");
    for i in 0..cameras {
        let scenario = truncate_scenario(&scenarios[i % scenarios.len()], 2);
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(sweep_platform())
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .seed(0xC1057E4 + i as u64)
            .build()
            .expect("sweep camera config builds");
        cluster = cluster.camera(format!("cam-{i:04}"), config);
    }
    cluster
}

fn main() {
    let options = ExperimentOptions::from_args();
    let camera_counts: &[usize] = cli::tier(&options, &[10], &[10, 50], &[10, 100, 1000]);
    let accel_counts: &[usize] = cli::tier(&options, &[2], &[1, 4], &[1, 2, 4, 8]);

    println!(
        "Cluster contention sweep: cameras {camera_counts:?} x accelerators {accel_counts:?}, \
         fair-share arbiter, scenarios S1-ES2 cycled\n"
    );

    // With --trace/--metrics the first (smallest) sweep point runs observed
    // through a telemetry recorder; the rest of the sweep stays unobserved
    // so throughput numbers keep measuring the bare executor.
    let mut recorder = match options.telemetry_recorder() {
        Ok(recorder) if recorder.is_enabled() => Some(recorder),
        Ok(_) => None,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut rows = Vec::new();
    for &cameras in camera_counts {
        for &accelerators in accel_counts {
            let cluster = build_cluster(cameras, accelerators);
            #[expect(
                clippy::disallowed_methods,
                reason = "host-side sweep timing for the progress report; never feeds a run"
            )]
            let started = Instant::now();
            let result = match recorder.as_mut().filter(|_| rows.is_empty()) {
                Some(recorder) => cluster.run_with(recorder).expect("observed sweep cluster runs"),
                None => cluster.run().expect("sweep cluster runs"),
            };
            let wall_s = started.elapsed().as_secs_f64();
            let contention = &result.contention;
            rows.push(SweepRow {
                cameras,
                accelerators,
                arbiter: contention.arbiter.clone(),
                wall_s,
                cameras_per_s: cameras as f64 / wall_s.max(1e-9),
                steps: contention.steps_executed,
                steps_per_s: contention.steps_executed as f64 / wall_s.max(1e-9),
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

    if let Some(recorder) = recorder.take() {
        match recorder.finish() {
            Ok(summary) => println!(
                "telemetry (first sweep point): {} trace events, {} metrics records",
                summary.trace_events, summary.metrics_records,
            ),
            Err(e) => eprintln!("warning: telemetry sink failed: {e}"),
        }
    }

    let table = render_table(
        &[
            "Cameras",
            "Accels",
            "Makespan (s)",
            "p50 stretch",
            "p99 stretch",
            "Util",
            "Wall (s)",
            "Cameras/s",
            "Steps/s",
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
                    format!("{:.2}", r.wall_s),
                    format!("{:.0}", r.cameras_per_s),
                    format!("{:.0}", r.steps_per_s),
                    pct(r.mean_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    let total_wall_s: f64 = rows.iter().map(|r| r.wall_s).sum();
    let total_cameras: usize = rows.iter().map(|r| r.cameras).sum();
    let record = BenchRecord {
        bench: "cluster_contention",
        schema_version: 1,
        quick: options.quick,
        total_wall_s,
        total_cameras,
        total_cameras_per_s: total_cameras as f64 / total_wall_s.max(1e-9),
        peak_event_queue_depth: rows.iter().map(|r| r.peak_event_queue_depth).max().unwrap_or(0),
        rows,
    };
    println!(
        "Executor throughput: {} cameras stepped in {:.1} s wall ({:.0} cameras/s), \
         peak event-queue depth {}",
        record.total_cameras,
        record.total_wall_s,
        record.total_cameras_per_s,
        record.peak_event_queue_depth,
    );

    // The trajectory file is written unconditionally so every invocation
    // leaves a comparable record behind.
    match write_json("BENCH_cluster", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
    if options.json {
        match write_json("cluster_contention", &record.rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
}
