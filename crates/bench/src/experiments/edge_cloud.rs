//! Edge–cloud offload sweep: fleets of edge cameras running the paper
//! scenarios (S1–ES2 cycled) under every builtin offload policy, across
//! uplink profiles from broadband fiber down to a degraded cell link,
//! measuring what cloud labeling buys per uplink byte spent.
//!
//! Per sweep point it reports local/cloud label counts, frames shipped and
//! filtered, uplink bytes, cloud label latency (p50/p99), fleet accuracy,
//! and the headline **accuracy-per-byte**. Each point's cluster run is
//! timed, so the driver also leaves the per-point wall times in
//! `BENCH_edge_cloud.json`.

use super::sweep;
use crate::{cli, pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::{Cluster, EdgeConfig};
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct SweepRow {
    uplink: String,
    policy: String,
    cameras: usize,
    accelerators: usize,
    labels_local: u64,
    labels_cloud: u64,
    frames_shipped: u64,
    frames_filtered: u64,
    bytes_shipped: u64,
    cloud_label_latency_p50_s: f64,
    cloud_label_latency_p99_s: f64,
    mean_accuracy: f64,
    accuracy_per_byte: f64,
    makespan_s: f64,
}

fn build_cluster(
    cameras: usize,
    accelerators: usize,
    segments: usize,
    uplink: &str,
    policy: &str,
) -> Result<Cluster, Failure> {
    let mut cluster = Cluster::new(accelerators).offload(policy).share_window_s(30.0);
    for i in 0..cameras {
        let config = sweep::camera("edge-chip", 12.0, sweep::cycled_scenario(i, segments))?
            .seed(0xED6E + i as u64)
            .edge(EdgeConfig::new(uplink).filter_threshold(0.98))
            .build()?;
        cluster = cluster.camera(format!("cam-{i:02}"), config);
    }
    Ok(cluster)
}

pub(super) fn run(options: &ExperimentOptions, host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let (cameras, accelerators, segments) = cli::tier(options, (4, 2, 1), (6, 2, 2), (12, 3, 3));
    let uplinks: &[&str] = &["broadband", "lte", "degraded"];
    // 8 MB per 30 s window (~4 fps of 60 KB frames): binds on broadband and
    // lte, where unmetered cloud labeling ships 2x that, but stays above
    // what the degraded link can actually move.
    let policies: &[&str] = &["local-only", "cloud-only", "threshold:1", "budget:8000000"];

    writeln!(
        text,
        "Edge-cloud offload sweep: {cameras} cameras x {accelerators} accelerators, \
         uplinks {uplinks:?} x policies {policies:?}, scenarios S1-ES2 cycled\n"
    )?;

    let mut rows = Vec::new();
    for &uplink in uplinks {
        for &policy in policies {
            let cluster = build_cluster(cameras, accelerators, segments, uplink, policy)?;
            let result = host.timed(format!("{uplink}, {policy}"), || cluster.run())?;
            let edge = &result.edge;
            rows.push(SweepRow {
                uplink: uplink.to_string(),
                policy: policy.to_string(),
                cameras,
                accelerators,
                labels_local: edge.labels_local,
                labels_cloud: edge.labels_cloud,
                frames_shipped: edge.frames_shipped,
                frames_filtered: edge.frames_filtered,
                bytes_shipped: edge.bytes_shipped,
                cloud_label_latency_p50_s: edge.cloud_label_latency_p50_s,
                cloud_label_latency_p99_s: edge.cloud_label_latency_p99_s,
                mean_accuracy: result.fleet.mean_accuracy,
                accuracy_per_byte: edge.accuracy_per_byte,
                makespan_s: result.contention.makespan_s,
            });
        }
    }

    let table = render_table(
        &[
            "Uplink",
            "Policy",
            "Local",
            "Cloud",
            "Filtered",
            "MB shipped",
            "p50 lat (s)",
            "Accuracy",
            "Acc/GB",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.uplink.clone(),
                    r.policy.clone(),
                    r.labels_local.to_string(),
                    r.labels_cloud.to_string(),
                    r.frames_filtered.to_string(),
                    format!("{:.1}", r.bytes_shipped as f64 / 1e6),
                    format!("{:.2}", r.cloud_label_latency_p50_s),
                    pct(r.mean_accuracy),
                    format!("{:.3}", r.accuracy_per_byte * 1e9),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;

    for &uplink in uplinks {
        let local = rows
            .iter()
            .find(|r| r.uplink == uplink && r.policy == "local-only")
            .ok_or("local-only runs in every sweep")?;
        let best = rows
            .iter()
            .filter(|r| r.uplink == uplink && r.bytes_shipped > 0)
            .max_by(|a, b| a.accuracy_per_byte.total_cmp(&b.accuracy_per_byte))
            .ok_or("a shipping policy runs in every sweep")?;
        writeln!(
            text,
            "{uplink}: best accuracy-per-byte policy '{}' at {:.3} acc/GB \
             (accuracy {} vs {} local-only, {:.1} MB shipped)",
            best.policy,
            best.accuracy_per_byte * 1e9,
            pct(best.mean_accuracy),
            pct(local.mean_accuracy),
            best.bytes_shipped as f64 / 1e6,
        )?;
    }

    Report::new(&rows, text)
}
