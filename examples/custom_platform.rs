//! Custom platforms: register an externally-defined execution platform and
//! run a heterogeneous fleet that mixes it with the builtin DaCapo chip and
//! a parameterised platform family — all selected per camera by registry
//! name.
//!
//! ```text
//! cargo run --release --example custom_platform
//! ```

use dacapo_core::platform::{self, KernelRate, PlatformRequest, Sharing};
use dacapo_core::{Cluster, PlatformRates, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;

/// An edge NPU nobody baked into `dacapo-core`: a hypothetical 8 W part
/// whose inference engine scales with the requested frame rate and whose
/// training throughput is parameterised (`"edge-npu:<sps>"`).
fn edge_npu(request: &PlatformRequest<'_>) -> dacapo_core::Result<PlatformRates> {
    let retraining_sps = match request.params {
        None => 60.0,
        Some(raw) => raw.parse::<f64>().map_err(|_| dacapo_core::CoreError::InvalidConfig {
            reason: format!("edge-npu expects a retraining samples/s figure, got ':{raw}'"),
        })?,
    };
    PlatformRates::new(
        format!("Edge NPU ({retraining_sps:.0} sps trainer)"),
        KernelRate::fp32(4.0 * request.fps),
        KernelRate::fp32(20.0),
        KernelRate::fp32(retraining_sps),
        Sharing::TimeShared,
        8.0,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register the platform once; from here it is addressable by name
    //    everywhere a SimConfig is built.
    platform::register("edge-npu", edge_npu);
    println!("registered platforms: {}", platform::registered_names().join(", "));

    // 2. Build a heterogeneous fleet: three cameras on the same scenario but
    //    three different platforms — the paper's accelerator, a scaled-up
    //    variant through the parameterised builtin family, and the custom
    //    NPU with an explicit parameter.
    let cameras =
        [("cam-dacapo", "dacapo"), ("cam-scaled", "scaled-dacapo:32"), ("cam-npu", "edge-npu:90")];
    let mut cluster = Cluster::new(cameras.len());
    for (i, (name, platform_name)) in cameras.into_iter().enumerate() {
        let config = SimConfig::builder(Scenario::s2(), ModelPair::ResNet18Wrn50)
            .platform(platform_name)
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .seed(0xDACA90 + i as u64)
            .build()?;
        println!("{name}: runs on '{}' -> {}", platform_name, config.platform_rates()?.name());
        cluster = cluster.camera(name, config);
    }

    // 3. Run and compare: each camera has a dedicated accelerator, so its
    //    result is bit-identical to running that platform alone; the cluster
    //    only adds parallelism.
    let result = cluster.run()?.fleet;
    println!(
        "\n{:<12} {:>28} {:>9} {:>10} {:>11}",
        "camera", "system", "accuracy", "drop rate", "energy"
    );
    for camera in &result.cameras {
        println!(
            "{:<12} {:>28} {:>8.1}% {:>9.1}% {:>10.1}J",
            camera.camera,
            camera.result.system.split(" / ").next().unwrap_or("?"),
            camera.result.mean_accuracy * 100.0,
            camera.result.frame_drop_rate * 100.0,
            camera.result.energy_joules,
        );
    }
    println!(
        "\nfleet: mean {:.1}%, p10 {:.1}%, total energy {:.1} J",
        result.mean_accuracy * 100.0,
        result.p10_accuracy * 100.0,
        result.total_energy_joules
    );
    Ok(())
}
