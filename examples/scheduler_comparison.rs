//! Scheduler comparison: run the four temporal-allocation policies on the
//! same scenario, platform, and model pair — in parallel, as one `Cluster`
//! with a dedicated accelerator per camera session — and compare accuracy,
//! time breakdown, and drift responses.
//!
//! ```text
//! cargo run --release --example scheduler_comparison [scenario]
//! ```

use dacapo_core::{Cluster, PlatformKind, SchedulerKind, SimConfig};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "S5".to_string());
    let scenario = Scenario::by_name(&name).ok_or("unknown scenario (use S1..S6, ES1, ES2)")?;
    let pair = match std::env::args().nth(2).as_deref() {
        Some("vit") => ModelPair::VitB32VitB16,
        Some("resnet34") => ModelPair::ResNet34Wrn101,
        _ => ModelPair::ResNet18Wrn50,
    };
    println!(
        "scenario {} ({} drift events), pair {}\n",
        scenario.name(),
        scenario.drift_boundaries().len(),
        pair
    );

    // One camera per policy, each on its own accelerator: the cluster runs
    // them across worker threads, and each result is bit-identical to
    // running that policy alone.
    let mut cluster = Cluster::new(SchedulerKind::ALL.len());
    for scheduler in SchedulerKind::ALL {
        let config = SimConfig::builder(scenario.clone(), pair)
            .platform(PlatformKind::DaCapo)
            .scheduler(scheduler)
            .build()?;
        cluster = cluster.camera(scheduler.to_string(), config);
    }
    let comparison = cluster.run()?.fleet;

    println!(
        "{:<24} {:>9} {:>9} {:>10} {:>9} {:>7}",
        "scheduler", "accuracy", "retrains", "label time", "idle", "drifts"
    );
    for camera in &comparison.cameras {
        let result = &camera.result;
        let (label_s, _, idle_s) = result.time_breakdown();
        println!(
            "{:<24} {:>8.1}% {:>9} {:>9.0}s {:>8.0}s {:>7}",
            camera.camera,
            result.mean_accuracy * 100.0,
            result.retrain_count(),
            label_s,
            idle_s,
            result.drift_responses
        );
    }
    println!(
        "\nfleet aggregates: mean {:.1}%, p50 {:.1}%, worst {:.1}%, total energy {:.1} J",
        comparison.mean_accuracy * 100.0,
        comparison.p50_accuracy * 100.0,
        comparison.min_accuracy * 100.0,
        comparison.total_energy_joules
    );
    Ok(())
}
