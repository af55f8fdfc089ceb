//! Cross-camera label-sharing sweep: correlated fleets (derived with
//! `FleetScenario`) run under every sharing policy at several attribute
//! overlaps, measuring how much teacher-labeling time the fleet saves and
//! what it does to fleet accuracy.
//!
//! Per sweep point it reports labels exported/reused, labeling seconds
//! saved, import rejects, fleet accuracy, and wall time. Results go to two
//! JSON files under `results/`:
//!
//! * `BENCH_cross_camera.json` — **always written**: a stable
//!   machine-readable record (labels reused, labeling seconds saved per
//!   policy × overlap) so future PRs can track regressions.
//! * `cross_camera.json` — with `--json`: the same rows.
//!
//! Run with `cargo run --release -p dacapo-bench --bin cross_camera
//! [--quick] [--json]`.

use dacapo_bench::runner::truncate_scenario;
use dacapo_bench::{cli, pct, render_table, write_json, ExperimentOptions};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{Cluster, SchedulerKind, SimConfig};
use dacapo_datagen::{FleetScenario, Scenario};
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::time::Instant;

/// One sweep point's record in `BENCH_cross_camera.json`.
#[derive(Debug, Clone, Serialize)]
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
    wall_s: f64,
}

/// The stable record future PRs diff against.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    bench: &'static str,
    schema_version: u32,
    quick: bool,
    rows: Vec<SweepRow>,
    total_wall_s: f64,
    total_labels_reused: usize,
    total_labeling_seconds_saved: f64,
}

/// Synthetic capability sheet so the sweep measures the *sharing subsystem*,
/// not the spatial allocator: fast enough that release-mode fleets finish in
/// seconds, with a labeling rate low enough that reuse is worth real time.
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

fn build_cluster(
    cameras: usize,
    accelerators: usize,
    overlap: f64,
    policy: &str,
    quick: bool,
) -> Cluster {
    let base = truncate_scenario(&Scenario::es1(), if quick { 2 } else { 4 });
    let scenarios = FleetScenario::new(base, cameras)
        .overlap(overlap)
        .offset_step_s(30.0)
        .seed(0xEC40)
        .derive()
        .expect("fleet derivation succeeds");
    let mut cluster = Cluster::new(accelerators).share(policy).share_window_s(30.0);
    for (i, scenario) in scenarios.into_iter().enumerate() {
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(sweep_platform())
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .seed(0xC1057E4 + i as u64)
            .build()
            .expect("sweep camera config builds");
        cluster = cluster.camera(format!("cam-{i:02}"), config);
    }
    cluster
}

fn main() {
    let options = ExperimentOptions::from_args();
    let overlaps: &[f64] = cli::tier(&options, &[1.0], &[1.0, 0.2], &[1.0, 0.6, 0.2]);
    let policies: &[&str] = &["none", "broadcast", "correlated:0.6"];
    let (cameras, accelerators) = cli::tier(&options, (4, 2), (6, 2), (12, 3));

    println!(
        "Cross-camera sharing sweep: {cameras} cameras x {accelerators} accelerators, \
         overlaps {overlaps:?} x policies {policies:?}, ES1-derived fleet scenarios\n"
    );

    let mut rows = Vec::new();
    for &overlap in overlaps {
        for &policy in policies {
            let cluster = build_cluster(cameras, accelerators, overlap, policy, options.quick);
            #[expect(
                clippy::disallowed_methods,
                reason = "host-side sweep timing for the progress report; never feeds a run"
            )]
            let started = Instant::now();
            let result = cluster.run().expect("sweep cluster runs");
            let wall_s = started.elapsed().as_secs_f64();
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
                wall_s,
            });
        }
    }

    let table = render_table(
        &[
            "Overlap",
            "Policy",
            "Exported",
            "Reused",
            "Saved (s)",
            "Rejects",
            "Accuracy",
            "Wall (s)",
        ],
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
                    format!("{:.2}", r.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    for &overlap in overlaps {
        let baseline = rows
            .iter()
            .find(|r| r.overlap == overlap && r.policy == "none")
            .expect("none runs in every sweep");
        let best = rows
            .iter()
            .filter(|r| r.overlap == overlap && r.policy != "none")
            .max_by(|a, b| a.labeling_seconds_saved.total_cmp(&b.labeling_seconds_saved))
            .expect("a sharing policy runs in every sweep");
        println!(
            "overlap {:.1}: best policy '{}' saves {:.1} s of teacher labeling \
             (accuracy {} vs {} under none)",
            overlap,
            best.policy,
            best.labeling_seconds_saved - baseline.labeling_seconds_saved,
            pct(best.mean_accuracy),
            pct(baseline.mean_accuracy),
        );
    }

    let record = BenchRecord {
        bench: "cross_camera",
        schema_version: 1,
        quick: options.quick,
        total_wall_s: rows.iter().map(|r| r.wall_s).sum(),
        total_labels_reused: rows.iter().map(|r| r.labels_reused).sum(),
        total_labeling_seconds_saved: rows.iter().map(|r| r.labeling_seconds_saved).sum(),
        rows,
    };

    // The trajectory file is written unconditionally so every invocation
    // leaves a comparable record behind.
    match write_json("BENCH_cross_camera", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
    if options.json {
        match write_json("cross_camera", &record.rows) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
}
