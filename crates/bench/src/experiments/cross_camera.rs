//! Cross-camera label-sharing sweep: correlated fleets (derived with
//! `FleetScenario`) run under every sharing policy at several attribute
//! overlaps, measuring how much teacher-labeling time the fleet saves and
//! what it does to fleet accuracy.
//!
//! Per sweep point it reports labels exported/reused, labeling seconds
//! saved, import rejects and fleet accuracy. Each point's cluster run is
//! timed, so the driver also leaves the per-point wall times in
//! `BENCH_cross_camera.json`.

use super::sweep;
use crate::runner::truncate_scenario;
use crate::{cli, pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::Cluster;
use dacapo_datagen::{FleetScenario, Scenario};
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct SweepRow {
    overlap: f64,
    policy: String,
    cameras: usize,
    accelerators: usize,
    windows: usize,
    labels_exported: usize,
    labels_reused: usize,
    labeling_seconds_saved: f64,
    import_rejects: usize,
    mean_accuracy: f64,
    makespan_s: f64,
}

fn build_cluster(
    cameras: usize,
    accelerators: usize,
    overlap: f64,
    policy: &str,
    quick: bool,
) -> Result<Cluster, Failure> {
    let base = truncate_scenario(&Scenario::es1(), if quick { 2 } else { 4 });
    let scenarios = FleetScenario::new(base, cameras)
        .overlap(overlap)
        .offset_step_s(30.0)
        .seed(0xEC40)
        .derive()?;
    let mut cluster = Cluster::new(accelerators).share(policy).share_window_s(30.0);
    for (i, scenario) in scenarios.into_iter().enumerate() {
        let config =
            sweep::camera("sweep-chip", 40.0, scenario)?.seed(0xC1057E4 + i as u64).build()?;
        cluster = cluster.camera(format!("cam-{i:02}"), config);
    }
    Ok(cluster)
}

pub(super) fn run(options: &ExperimentOptions, host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let overlaps: &[f64] = cli::tier(options, &[1.0], &[1.0, 0.2], &[1.0, 0.6, 0.2]);
    let policies: &[&str] = &["none", "broadcast", "correlated:0.6"];
    let (cameras, accelerators) = cli::tier(options, (4, 2), (6, 2), (12, 3));

    writeln!(
        text,
        "Cross-camera sharing sweep: {cameras} cameras x {accelerators} accelerators, \
         overlaps {overlaps:?} x policies {policies:?}, ES1-derived fleet scenarios\n"
    )?;

    let mut rows = Vec::new();
    for &overlap in overlaps {
        for &policy in policies {
            let cluster = build_cluster(cameras, accelerators, overlap, policy, options.quick)?;
            let result = host.timed(format!("overlap {overlap:.1}, {policy}"), || cluster.run())?;
            rows.push(SweepRow {
                overlap,
                policy: policy.to_string(),
                cameras,
                accelerators,
                windows: result.share.windows,
                labels_exported: result.share.labels_exported,
                labels_reused: result.share.labels_reused,
                labeling_seconds_saved: result.share.labeling_seconds_saved,
                import_rejects: result.share.import_rejects,
                mean_accuracy: result.fleet.mean_accuracy,
                makespan_s: result.contention.makespan_s,
            });
        }
    }

    let table = render_table(
        &["Overlap", "Policy", "Exported", "Reused", "Saved (s)", "Rejects", "Accuracy"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.overlap),
                    r.policy.clone(),
                    r.labels_exported.to_string(),
                    r.labels_reused.to_string(),
                    format!("{:.1}", r.labeling_seconds_saved),
                    r.import_rejects.to_string(),
                    pct(r.mean_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;

    for &overlap in overlaps {
        let baseline = rows
            .iter()
            .find(|r| r.overlap == overlap && r.policy == "none")
            .ok_or("none runs in every sweep")?;
        let best = rows
            .iter()
            .filter(|r| r.overlap == overlap && r.policy != "none")
            .max_by(|a, b| a.labeling_seconds_saved.total_cmp(&b.labeling_seconds_saved))
            .ok_or("a sharing policy runs in every sweep")?;
        writeln!(
            text,
            "overlap {:.1}: best policy '{}' saves {:.1} s of teacher labeling \
             (accuracy {} vs {} under none)",
            overlap,
            best.policy,
            best.labeling_seconds_saved - baseline.labeling_seconds_saved,
            pct(best.mean_accuracy),
            pct(baseline.mean_accuracy),
        )?;
    }

    Report::new(&rows, text)
}
