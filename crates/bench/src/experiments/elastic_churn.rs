//! Elastic-membership sweep: a camera fleet sharing an accelerator pool
//! while the membership churns — a wave of cameras joins mid-run, others
//! leave, and one accelerator drains for maintenance (its resident sessions
//! snapshot-migrate to the survivors via the public snapshot format).
//!
//! Per churn profile it reports the churn telemetry (joins, leaves,
//! migrations, migration stall, peak residency, orphans), the contention
//! shape and fleet accuracy. Each profile's cluster run is timed, so the
//! driver also leaves the per-profile wall times in
//! `BENCH_elastic_churn.json`.

use super::sweep;
use crate::{cli, pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::{ChurnPlan, Cluster, SimConfig};
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
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
    mean_accuracy: f64,
    reported_cameras: usize,
}

fn camera_config(seed: u64, segments: usize) -> Result<SimConfig, Failure> {
    let scenario = sweep::cycled_scenario(seed as usize, segments);
    Ok(sweep::camera("churn-chip", 40.0, scenario)?.seed(0xE1A57 + seed).build()?)
}

/// A named churn profile applied to the base fleet.
fn profiles(
    cameras: usize,
    accelerators: usize,
    segments: usize,
) -> Result<Vec<(&'static str, ChurnPlan)>, Failure> {
    let horizon_s = segments as f64 * 60.0;
    // A wave of joins in the first half, leaves in the second half, and a
    // drain of the last accelerator near the end of the first third.
    let mut join_wave = ChurnPlan::new();
    for i in 0..cameras.div_ceil(4) {
        join_wave = join_wave.join(
            (i as f64 + 1.0) * 30.0,
            format!("join-{i:02}"),
            camera_config(1000 + i as u64, segments)?,
        );
    }
    let mut leave_tail = join_wave.clone();
    for i in 0..cameras.div_ceil(4) {
        leave_tail = leave_tail.leave(horizon_s / 2.0 + i as f64 * 15.0, format!("cam-{i:03}"));
    }
    Ok(vec![
        ("steady", ChurnPlan::new()),
        ("join-wave", join_wave),
        ("join+leave", leave_tail.clone()),
        ("drain", leave_tail.drain(horizon_s / 3.0, accelerators - 1)),
    ])
}

pub(super) fn run(options: &ExperimentOptions, host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let (cameras, accelerators, segments) = cli::tier(options, (6, 2, 1), (16, 2, 2), (60, 4, 3));

    writeln!(
        text,
        "Elastic churn sweep: {cameras} cameras x {accelerators} accelerators, churn profiles \
         steady / join-wave / join+leave / drain\n"
    )?;

    let mut rows = Vec::new();
    for (profile, plan) in profiles(cameras, accelerators, segments)? {
        let mut cluster = Cluster::new(accelerators).churn(plan);
        for i in 0..cameras {
            cluster = cluster.camera(format!("cam-{i:03}"), camera_config(i as u64, segments)?);
        }
        let result = host.timed(profile, || cluster.run())?;
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
                    pct(r.mean_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;

    writeln!(
        text,
        "Elasticity: {} total migrations across the profiles",
        rows.iter().map(|r| r.migrations).sum::<usize>(),
    )?;
    Report::new(&rows, text)
}
