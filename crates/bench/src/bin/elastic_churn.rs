//! Elastic-membership sweep: a camera fleet sharing an accelerator pool
//! while the membership churns — a wave of cameras joins mid-run, others
//! leave, and one accelerator drains for maintenance (its resident sessions
//! snapshot-migrate to the survivors via the public snapshot format).
//!
//! Per churn profile it reports the churn telemetry (joins, leaves,
//! migrations, migration stall, peak residency, orphans), the contention
//! shape, and executor throughput. Results go to two JSON files under
//! `results/`:
//!
//! * `BENCH_churn.json` — **always written**: a stable machine-readable
//!   elasticity record (migrations, stall seconds, wall time per profile)
//!   so future PRs can track regressions.
//! * `elastic_churn.json` — with `--json`: the same rows plus fleet
//!   accuracy aggregates.
//!
//! Run with `cargo run --release -p dacapo-bench --bin elastic_churn
//! [--quick|--smoke] [--json]`.

use dacapo_bench::runner::truncate_scenario;
use dacapo_bench::{cli, pct, render_table, write_json, ExperimentOptions};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{ChurnPlan, Cluster, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::time::Instant;

/// One churn profile's record in `BENCH_churn.json`.
#[derive(Debug, Clone, Serialize)]
struct SweepRow {
    profile: String,
    cameras: usize,
    accelerators: usize,
    joins: usize,
    leaves: usize,
    drains: usize,
    migrations: usize,
    migration_stall_s: f64,
    peak_residency: usize,
    orphaned_cameras: usize,
    makespan_s: f64,
    p99_step_stretch: f64,
    wall_s: f64,
    steps_per_s: f64,
    mean_accuracy: f64,
    reported_cameras: usize,
}

/// The stable elasticity record future PRs diff against.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    bench: &'static str,
    schema_version: u32,
    quick: bool,
    smoke: bool,
    rows: Vec<SweepRow>,
    total_wall_s: f64,
    total_migrations: usize,
}

/// Synthetic capability sheet so the sweep measures the *executor*, not the
/// spatial allocator.
fn sweep_platform() -> PlatformRates {
    PlatformRates::new(
        "churn-chip",
        KernelRate::fp32(120.0),
        KernelRate::fp32(40.0),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .expect("sweep rates are valid")
}

fn camera_config(seed: u64, segments: usize) -> SimConfig {
    let scenarios = Scenario::all();
    let scenario = truncate_scenario(&scenarios[seed as usize % scenarios.len()], segments);
    SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
        .platform_rates(sweep_platform())
        .scheduler(SchedulerKind::DaCapoSpatiotemporal)
        .measurement(10.0, 10)
        .pretrain_samples(64)
        .seed(0xE1A57 + seed)
        .build()
        .expect("sweep camera config builds")
}

/// A named churn profile applied to the base fleet.
fn profiles(
    cameras: usize,
    accelerators: usize,
    segments: usize,
) -> Vec<(&'static str, ChurnPlan)> {
    let horizon_s = segments as f64 * 60.0;
    // A wave of joins in the first half, leaves in the second half, and a
    // drain of the last accelerator near the end of the first third.
    let mut join_wave = ChurnPlan::new();
    for i in 0..cameras.div_ceil(4) {
        join_wave = join_wave.join(
            (i as f64 + 1.0) * 30.0,
            format!("join-{i:02}"),
            camera_config(1000 + i as u64, segments),
        );
    }
    let mut leave_tail = join_wave.clone();
    for i in 0..cameras.div_ceil(4) {
        leave_tail = leave_tail.leave(horizon_s / 2.0 + i as f64 * 15.0, format!("cam-{i:03}"));
    }
    vec![
        ("steady", ChurnPlan::new()),
        ("join-wave", join_wave),
        ("join+leave", leave_tail.clone()),
        ("drain", leave_tail.drain(horizon_s / 3.0, accelerators - 1)),
    ]
}

fn main() {
    let options = ExperimentOptions::from_args();
    let (cameras, accelerators, segments) = cli::tier(&options, (6, 2, 1), (16, 2, 2), (60, 4, 3));

    println!(
        "Elastic churn sweep: {cameras} cameras x {accelerators} accelerators, churn profiles \
         steady / join-wave / join+leave / drain\n"
    );

    let mut rows = Vec::new();
    for (profile, plan) in profiles(cameras, accelerators, segments) {
        let mut cluster = Cluster::new(accelerators).churn(plan);
        for i in 0..cameras {
            cluster = cluster.camera(format!("cam-{i:03}"), camera_config(i as u64, segments));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "host-side sweep timing for the progress report; never feeds a run"
        )]
        let started = Instant::now();
        let result = cluster.run().expect("churn sweep cluster runs");
        let wall_s = started.elapsed().as_secs_f64();
        rows.push(SweepRow {
            profile: profile.to_string(),
            cameras,
            accelerators,
            joins: result.churn.joins,
            leaves: result.churn.leaves,
            drains: result.churn.drains,
            migrations: result.churn.migrations,
            migration_stall_s: result.churn.migration_stall_s,
            peak_residency: result.churn.peak_residency,
            orphaned_cameras: result.churn.orphaned_cameras,
            makespan_s: result.contention.makespan_s,
            p99_step_stretch: result.contention.p99_step_stretch,
            wall_s,
            steps_per_s: result.contention.steps_executed as f64 / wall_s.max(1e-9),
            mean_accuracy: result.fleet.mean_accuracy,
            reported_cameras: result.fleet.cameras.len(),
        });
    }

    let table = render_table(
        &[
            "Profile",
            "Joins",
            "Leaves",
            "Drains",
            "Migrations",
            "Stall (s)",
            "Peak res",
            "Makespan (s)",
            "p99 stretch",
            "Wall (s)",
            "Accuracy",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.profile.clone(),
                    r.joins.to_string(),
                    r.leaves.to_string(),
                    r.drains.to_string(),
                    r.migrations.to_string(),
                    format!("{:.0}", r.migration_stall_s),
                    r.peak_residency.to_string(),
                    format!("{:.0}", r.makespan_s),
                    format!("{:.2}x", r.p99_step_stretch),
                    format!("{:.2}", r.wall_s),
                    pct(r.mean_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    let total_wall_s: f64 = rows.iter().map(|r| r.wall_s).sum();
    let total_migrations: usize = rows.iter().map(|r| r.migrations).sum();
    let record = BenchRecord {
        bench: "elastic_churn",
        schema_version: 1,
        quick: options.quick,
        smoke: options.smoke,
        total_wall_s,
        total_migrations,
        rows,
    };
    println!(
        "Elasticity: {} total migrations across the profiles in {:.1} s wall",
        record.total_migrations, record.total_wall_s,
    );

    // The trajectory file is written unconditionally so every invocation
    // leaves a comparable record behind.
    match write_json("BENCH_churn", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
    if options.json {
        match write_json("elastic_churn", &record.rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
}
