//! Cluster execution: many cameras contending for a small pool of shared
//! accelerators, arbitrated by policies from the pluggable registry —
//! including one defined *in this file* and registered by name, exactly the
//! way an out-of-crate policy would plug in.
//!
//! ```text
//! cargo run --release --example cluster
//! ```

use dacapo_core::arbiter::{self, Arbiter, GrantRequest};
use dacapo_core::platform::{KernelRate, Sharing};
use dacapo_core::{
    AdmissionPolicy, Cluster, ClusterResult, CoreError, PlatformRates, SchedulerKind, SimConfig,
};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;

/// An arbitration policy `dacapo-core` knows nothing about: shares shrink
/// with the *square root* of the resident count instead of linearly,
/// modelling a pipelined accelerator whose time-sharing overhead is
/// sublinear. With four residents everyone gets 1/2 instead of 1/4.
struct SqrtShare;

impl Arbiter for SqrtShare {
    fn name(&self) -> String {
        "sqrt-share".to_string()
    }

    fn grant(&mut self, request: &GrantRequest<'_>) -> f64 {
        1.0 / (request.residents.len().max(1) as f64).sqrt()
    }
}

/// A fast synthetic platform so the example finishes in seconds.
fn example_platform() -> PlatformRates {
    PlatformRates::new(
        "example-chip",
        KernelRate::fp32(120.0),
        KernelRate::fp32(40.0),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .expect("example rates are valid")
}

/// Twelve cameras cycling through the eight paper scenarios, truncated to
/// two segments (one drift each) for speed.
fn build_cluster(accelerators: usize) -> Result<Cluster, CoreError> {
    let scenarios = Scenario::all();
    let mut cluster = Cluster::new(accelerators);
    for i in 0..12 {
        let source = &scenarios[i % scenarios.len()];
        let scenario = Scenario::try_from_segments(
            source.name().to_string(),
            source.segments().iter().copied().take(2).collect(),
        )
        .expect("paper scenarios have segments");
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(example_platform())
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .seed(0xC1057E4 + i as u64)
            .build()?;
        cluster = cluster.camera(format!("cam-{i:02}"), config);
    }
    Ok(cluster)
}

fn describe(label: &str, result: &ClusterResult) {
    println!(
        "{label:<24} makespan {:>6.0} s | p50 stretch {:>5.2}x | p99 {:>5.2}x | \
         mean util {:>5.1}% | queued {}",
        result.contention.makespan_s,
        result.contention.p50_step_stretch,
        result.contention.p99_step_stretch,
        result.contention.mean_accelerator_utilization * 100.0,
        result.contention.queued_cameras,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register the custom policy once; from here it is addressable by
    //    name anywhere a Cluster is built, like any builtin.
    arbiter::register("sqrt-share", |_| Ok(Box::new(SqrtShare)));
    println!("registered arbiters: {}\n", arbiter::registered_names().join(", "));

    // 2. Twelve cameras on three shared accelerators, four policies. The
    //    per-camera accuracy results are identical in every run — arbitration
    //    stretches the cluster clock, never a session's own timeline.
    let fair = build_cluster(3)?.arbiter("fair-share").run()?;
    describe("fair-share", &fair);
    let priority = build_cluster(3)?.arbiter("priority:3,1").run()?;
    describe("priority:3,1", &priority);
    let drift_first = build_cluster(3)?.arbiter("drift-first:4").run()?;
    describe("drift-first:4", &drift_first);
    let sqrt = build_cluster(3)?.arbiter("sqrt-share").run()?;
    describe("sqrt-share (custom)", &sqrt);

    assert_eq!(fair.fleet, priority.fleet);
    assert_eq!(fair.fleet, drift_first.fleet);
    assert_eq!(fair.fleet, sqrt.fleet);
    println!(
        "\nall four runs: mean accuracy {:.1}%, {} drift responses — identical per-camera \
         results, different cluster clocks",
        fair.fleet.mean_accuracy * 100.0,
        fair.fleet.total_drift_responses,
    );

    // 3. Admission control. Capacity-bound clusters either queue overflow
    //    cameras (they start when a resident finishes)…
    let queued =
        build_cluster(3)?.capacity_per_accelerator(2).admission(AdmissionPolicy::Queue).run()?;
    describe("\nfair-share, capacity 2", &queued);

    //    …or reject them with a typed error naming the first camera past the
    //    bound.
    let rejected =
        build_cluster(3)?.capacity_per_accelerator(2).admission(AdmissionPolicy::Reject).run();
    match rejected {
        Err(CoreError::AdmissionRejected { camera, reason }) => {
            println!("admission rejected: camera '{camera}' ({reason})");
        }
        other => return Err(format!("expected an admission rejection, got {other:?}").into()),
    }
    Ok(())
}
