//! Edge–cloud offload: a fleet of uplink-equipped cameras shipping frames
//! to a cloud teacher under policies from the pluggable offload registry —
//! including a *stateful* one defined in this file and registered by name,
//! exactly the way an out-of-crate policy would plug in.
//!
//! ```text
//! cargo run --release --example edge_cloud
//! ```

use dacapo_core::edge::{self, OffloadContext, OffloadPolicy};
use dacapo_core::platform::{KernelRate, Sharing};
use dacapo_core::{
    Cluster, ClusterResult, CoreError, EdgeConfig, LabelRoute, PlatformRates, SchedulerKind,
    SimConfig,
};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;

/// An offload policy `dacapo-core` knows nothing about, with real mutable
/// state: route every camera to the cloud, but when a window ships more
/// than `cap` uplink bytes, back off to local labeling for `cooldown`
/// windows before retrying — per camera.
struct Backoff {
    cap: u64,
    cooldown: usize,
    /// Remaining cooldown windows, per camera name.
    cooling: Vec<(String, usize)>,
}

impl OffloadPolicy for Backoff {
    fn route(&mut self, ctx: &OffloadContext<'_>) -> LabelRoute {
        if let Some(slot) = self.cooling.iter().position(|(name, _)| name == ctx.camera) {
            self.cooling[slot].1 -= 1;
            if self.cooling[slot].1 == 0 {
                self.cooling.remove(slot);
            }
            return LabelRoute::Local;
        }
        if ctx.window_bytes > self.cap {
            self.cooling.push((ctx.camera.to_string(), self.cooldown));
            return LabelRoute::Local;
        }
        LabelRoute::Cloud { byte_budget: None }
    }
}

/// Builds `"backoff[:<cap_bytes>[,<cooldown>]]"` (defaults: 4 MB, 2 windows).
fn backoff(params: Option<&str>) -> dacapo_core::Result<Box<dyn OffloadPolicy>> {
    let raw = params.unwrap_or("4000000,2");
    let (cap_raw, cooldown_raw) = raw.split_once(',').unwrap_or((raw, "2"));
    let parse_err = || CoreError::InvalidConfig {
        reason: format!("backoff expects ':<cap_bytes>[,<cooldown>]', got ':{raw}'"),
    };
    let cap = cap_raw.trim().parse::<u64>().map_err(|_| parse_err())?;
    let cooldown = cooldown_raw.trim().parse::<usize>().map_err(|_| parse_err())?;
    if cooldown == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "backoff cooldown must be at least one window".to_string(),
        });
    }
    Ok(Box::new(Backoff { cap, cooldown, cooling: Vec::new() }))
}

/// A fast synthetic platform so the example finishes in seconds; the slow
/// labeling rate is the point — offloading to the cloud teacher is a
/// meaningful trade.
fn example_platform() -> PlatformRates {
    PlatformRates::new(
        "example-chip",
        KernelRate::fp32(120.0),
        KernelRate::fp32(12.0),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .expect("example rates are valid")
}

/// Six cameras cycling the paper scenarios, each with a broadband uplink,
/// contending for two shared accelerators.
fn build_cluster(offload: &str) -> Result<Cluster, Box<dyn std::error::Error>> {
    let scenarios = Scenario::all();
    let mut cluster = Cluster::new(2).offload(offload).share_window_s(30.0);
    for i in 0..6usize {
        let base = &scenarios[i % scenarios.len()];
        let scenario = Scenario::try_from_segments(
            base.name(),
            base.segments().iter().copied().take(2).collect(),
        )?;
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(example_platform())
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .seed(0xEC10D + i as u64)
            .edge(EdgeConfig::new("broadband").filter_threshold(0.98))
            .build()?;
        cluster = cluster.camera(format!("cam-{i:02}"), config);
    }
    Ok(cluster)
}

fn describe(label: &str, result: &ClusterResult) {
    println!(
        "{label:<22} accuracy {:>5.1}% | local {:>5} | cloud {:>5} | \
         shipped {:>6.1} MB | p50 latency {:>5.3} s",
        result.fleet.mean_accuracy * 100.0,
        result.edge.labels_local,
        result.edge.labels_cloud,
        result.edge.bytes_shipped as f64 / 1e6,
        result.edge.cloud_label_latency_p50_s,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register the custom policy once; from here it is addressable by
    //    name anywhere a Cluster is built, like any builtin.
    edge::register_offload("backoff", backoff);
    println!("registered offload policies: {}\n", edge::registered_offload_policies().join(", "));

    // 2. The same uplink-equipped fleet under three policies. `local-only`
    //    is the pre-cloud baseline; the others trade uplink bytes for the
    //    cloud teacher's accuracy.
    let local = build_cluster("local-only")?.run()?;
    describe("local-only (baseline)", &local);
    let cloud = build_cluster("cloud-only")?.run()?;
    describe("cloud-only", &cloud);
    let backoff = build_cluster("backoff:4000000,2")?.run()?;
    describe("backoff (custom)", &backoff);

    // The baseline ships nothing; the cloud routes pay uplink bytes and
    // label latency for a stronger teacher.
    assert_eq!(local.edge.bytes_shipped, 0);
    assert_eq!(local.edge.labels_cloud, 0);
    assert!(cloud.edge.labels_cloud > 0, "{:?}", cloud.edge);
    assert!(backoff.edge.labels_cloud > 0, "{:?}", backoff.edge);
    assert!(
        backoff.edge.labels_local > 0,
        "the cap must trip at least one cooldown: {:?}",
        backoff.edge
    );
    assert!(backoff.edge.bytes_shipped < cloud.edge.bytes_shipped);
    println!(
        "\nbackoff shipped {:.1} MB of cloud-only's {:.1} MB for {:+.1} pp fleet accuracy \
         vs local-only",
        backoff.edge.bytes_shipped as f64 / 1e6,
        cloud.edge.bytes_shipped as f64 / 1e6,
        (backoff.fleet.mean_accuracy - local.fleet.mean_accuracy) * 100.0,
    );

    // 3. Misconfigurations fail fast, before any simulation runs.
    match build_cluster("backoff:fast")?.run() {
        Err(CoreError::InvalidConfig { reason }) => {
            println!("malformed parameters rejected up front: {reason}");
        }
        other => return Err(format!("expected an invalid-config error, got {other:?}").into()),
    }
    match build_cluster("teleport")?.run() {
        Err(CoreError::InvalidConfig { reason }) => {
            println!("unknown policy rejected up front: {reason}");
        }
        other => return Err(format!("expected an invalid-config error, got {other:?}").into()),
    }
    Ok(())
}
