//! Cross-camera label sharing: a correlated fleet (derived with
//! `FleetScenario`) reusing teacher labels between cameras under policies
//! from the pluggable share registry — including one defined *in this file*
//! and registered by name, exactly the way an out-of-crate policy would
//! plug in.
//!
//! ```text
//! cargo run --release --example cross_camera
//! ```

use dacapo_core::platform::{KernelRate, Sharing};
use dacapo_core::share::{self, ShareContext, SharePolicy};
use dacapo_core::{Cluster, ClusterResult, CoreError, PlatformRates, SchedulerKind, SimConfig};
use dacapo_datagen::{FleetScenario, Scenario};
use dacapo_dnn::zoo::ModelPair;

/// A sharing policy `dacapo-core` knows nothing about: admit a fraction of
/// every peer's batch *proportional to the pair's correlation*, instead of
/// the builtin `correlated` policy's all-or-nothing threshold. A camera
/// whose scenario overlaps a peer's by 80% imports 80% of that peer's
/// exports.
struct ProportionalShare;

impl SharePolicy for ProportionalShare {
    fn name(&self) -> String {
        "proportional".to_string()
    }

    fn admit_fraction(&mut self, ctx: &ShareContext<'_>) -> f64 {
        ctx.correlation.clamp(0.0, 1.0)
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

/// Eight cameras derived from a truncated ES1 with 80% attribute overlap and
/// 30-second drift offsets, contending for two shared accelerators.
fn build_cluster(policy: &str) -> Result<Cluster, Box<dyn std::error::Error>> {
    let base = Scenario::try_from_segments(
        "ES1",
        Scenario::es1().segments().iter().copied().take(3).collect(),
    )?;
    let scenarios =
        FleetScenario::new(base, 8).overlap(0.8).offset_step_s(30.0).seed(0xF1EE7).derive()?;
    let mut cluster = Cluster::new(2).share(policy).share_window_s(30.0);
    for (i, scenario) in scenarios.into_iter().enumerate() {
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
        "{label:<22} accuracy {:>5.1}% | exported {:>5} | reused {:>5} | \
         saved {:>7.1} s | rejects {:>3}",
        result.fleet.mean_accuracy * 100.0,
        result.share.labels_exported,
        result.share.labels_reused,
        result.share.labeling_seconds_saved,
        result.share.import_rejects,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register the custom policy once; from here it is addressable by
    //    name anywhere a Cluster is built, like any builtin.
    share::register("proportional", |_| Ok(Box::new(ProportionalShare)));
    println!("registered share policies: {}\n", share::registered_names().join(", "));

    // 2. The same correlated fleet under four policies. `none` is the
    //    pre-sharing baseline; the others trade label reuse against buffer
    //    purity.
    let none = build_cluster("none")?.run()?;
    describe("none (baseline)", &none);
    let broadcast = build_cluster("broadcast")?.run()?;
    describe("broadcast", &broadcast);
    let correlated = build_cluster("correlated:0.6")?.run()?;
    describe("correlated:0.6", &correlated);
    let proportional = build_cluster("proportional")?.run()?;
    describe("proportional (custom)", &proportional);

    // The baseline exchanges nothing; the sharing policies reuse labels the
    // teacher would otherwise have to produce once per camera.
    assert_eq!(none.share.labels_reused, 0);
    assert_eq!(none.share.windows, 0, "under the reserved 'none' policy no exchange stage runs");
    for shared in [&broadcast, &correlated, &proportional] {
        assert!(shared.share.labels_reused > 0, "{:?}", shared.share);
        assert!(shared.share.labeling_seconds_saved > none.share.labeling_seconds_saved);
    }
    println!(
        "\ncorrelated:0.6 reused {} peer labels, saving {:.0} s of teacher labeling the fleet \
         would otherwise have paid for itself, at {:+.1} pp fleet accuracy vs none",
        correlated.share.labels_reused,
        correlated.share.labeling_seconds_saved,
        (correlated.fleet.mean_accuracy - none.fleet.mean_accuracy) * 100.0,
    );

    // 3. Misconfigurations fail fast, before any simulation runs.
    match build_cluster("clairvoyance")?.run() {
        Err(CoreError::InvalidConfig { reason }) => {
            println!("unknown policy rejected up front: {reason}");
        }
        other => return Err(format!("expected an invalid-config error, got {other:?}").into()),
    }
    Ok(())
}
