//! Edge–cloud offload sweep: fleets of edge cameras running the paper
//! scenarios (S1–ES2 cycled) under every builtin offload policy, across
//! uplink profiles from broadband fiber down to a degraded cell link,
//! measuring what cloud labeling buys per uplink byte spent.
//!
//! Per sweep point it reports local/cloud label counts, frames shipped and
//! filtered, uplink bytes, cloud label latency (p50/p99), fleet accuracy,
//! and the headline **accuracy-per-byte**. Results go to two JSON files
//! under `results/`:
//!
//! * `BENCH_edge_cloud.json` — **always written**: a stable
//!   machine-readable record (accuracy per byte, labels local vs. cloud per
//!   uplink × policy) so future PRs can track regressions.
//! * `edge_cloud.json` — with `--json`: the same rows.
//!
//! Run with `cargo run --release -p dacapo-bench --bin edge_cloud
//! [--quick|--smoke] [--json]`.

use dacapo_bench::runner::truncate_scenario;
use dacapo_bench::{cli, pct, render_table, write_json, ExperimentOptions};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{Cluster, EdgeConfig, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::time::Instant;

/// One sweep point's record in `BENCH_edge_cloud.json`.
#[derive(Debug, Clone, Serialize)]
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
    wall_s: f64,
}

/// The stable record future PRs diff against.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    bench: &'static str,
    schema_version: u32,
    quick: bool,
    smoke: bool,
    rows: Vec<SweepRow>,
    total_wall_s: f64,
    total_bytes_shipped: u64,
    best_accuracy_per_byte: f64,
}

/// Synthetic capability sheet so the sweep measures the *edge tier*, not
/// the spatial allocator: a deliberately slow local labeler, so offloading
/// to the cloud teacher is a meaningful trade instead of a strict loss.
fn sweep_platform() -> PlatformRates {
    PlatformRates::new(
        "edge-chip",
        KernelRate::fp32(120.0),
        KernelRate::fp32(12.0),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .expect("sweep rates are valid")
}

fn build_cluster(
    cameras: usize,
    accelerators: usize,
    segments: usize,
    uplink: &str,
    policy: &str,
) -> Cluster {
    let scenarios = Scenario::all();
    let mut cluster = Cluster::new(accelerators).offload(policy).share_window_s(30.0);
    for i in 0..cameras {
        let scenario = truncate_scenario(&scenarios[i % scenarios.len()], segments);
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(sweep_platform())
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .seed(0xED6E + i as u64)
            .edge(EdgeConfig::new(uplink).filter_threshold(0.98))
            .build()
            .expect("sweep camera config builds");
        cluster = cluster.camera(format!("cam-{i:02}"), config);
    }
    cluster
}

fn main() {
    let options = ExperimentOptions::from_args();
    let (cameras, accelerators, segments) = cli::tier(&options, (4, 2, 1), (6, 2, 2), (12, 3, 3));
    let uplinks: &[&str] = &["broadband", "lte", "degraded"];
    // 8 MB per 30 s window (~4 fps of 60 KB frames): binds on broadband and
    // lte, where unmetered cloud labeling ships 2x that, but stays above
    // what the degraded link can actually move.
    let policies: &[&str] = &["local-only", "cloud-only", "threshold:1", "budget:8000000"];

    println!(
        "Edge-cloud offload sweep: {cameras} cameras x {accelerators} accelerators, \
         uplinks {uplinks:?} x policies {policies:?}, scenarios S1-ES2 cycled\n"
    );

    let mut rows = Vec::new();
    for &uplink in uplinks {
        for &policy in policies {
            let cluster = build_cluster(cameras, accelerators, segments, uplink, policy);
            #[expect(
                clippy::disallowed_methods,
                reason = "host-side sweep timing for the progress report; never feeds a run"
            )]
            let started = Instant::now();
            let result = cluster.run().expect("sweep cluster runs");
            let wall_s = started.elapsed().as_secs_f64();
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
                wall_s,
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
            "Wall (s)",
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
                    format!("{:.2}", r.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    for &uplink in uplinks {
        let local = rows
            .iter()
            .find(|r| r.uplink == uplink && r.policy == "local-only")
            .expect("local-only runs in every sweep");
        let best = rows
            .iter()
            .filter(|r| r.uplink == uplink && r.bytes_shipped > 0)
            .max_by(|a, b| a.accuracy_per_byte.total_cmp(&b.accuracy_per_byte))
            .expect("a shipping policy runs in every sweep");
        println!(
            "{uplink}: best accuracy-per-byte policy '{}' at {:.3} acc/GB \
             (accuracy {} vs {} local-only, {:.1} MB shipped)",
            best.policy,
            best.accuracy_per_byte * 1e9,
            pct(best.mean_accuracy),
            pct(local.mean_accuracy),
            best.bytes_shipped as f64 / 1e6,
        );
    }

    let total_wall_s: f64 = rows.iter().map(|r| r.wall_s).sum();
    let record = BenchRecord {
        bench: "edge_cloud",
        schema_version: 1,
        quick: options.quick,
        smoke: options.smoke,
        total_wall_s,
        total_bytes_shipped: rows.iter().map(|r| r.bytes_shipped).sum(),
        best_accuracy_per_byte: rows.iter().map(|r| r.accuracy_per_byte).fold(0.0, f64::max),
        rows,
    };

    // The trajectory file is written unconditionally so every invocation
    // leaves a comparable record behind.
    match write_json("BENCH_edge_cloud", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
    if options.json {
        match write_json("edge_cloud", &record.rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
}
