//! What the four cluster sweeps (`cluster_contention`, `cross_camera`,
//! `elastic_churn`, `edge_cloud`) share: one synthetic platform sheet and one
//! camera configuration.

use crate::runner::truncate_scenario;
use crate::Failure;
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{SchedulerKind, SimConfig, SimConfigBuilder};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;

/// A sweep camera on `scenario`, ready for its seed (and edge tier) and
/// `build()`.
///
/// The platform is a synthetic capability sheet named `chip`, so a sweep
/// measures the subsystem it is about — the executor, the sharing barrier,
/// the edge tier — and not the spatial allocator: fast enough that a thousand
/// release-mode sessions finish in seconds, and partitioned so labeling and
/// retraining rates are independent of inference. `labeling_sps` is the one
/// rate that varies (40 by default; the edge sweep slows the local labeler to
/// 12 so that offloading to the cloud teacher is a trade rather than a strict
/// loss).
pub(super) fn camera(
    chip: &str,
    labeling_sps: f64,
    scenario: Scenario,
) -> Result<SimConfigBuilder, Failure> {
    let rates = PlatformRates::new(
        chip,
        KernelRate::fp32(120.0),
        KernelRate::fp32(labeling_sps),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )?;
    Ok(SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
        .platform_rates(rates)
        .scheduler(SchedulerKind::DaCapoSpatiotemporal)
        .measurement(10.0, 10)
        .pretrain_samples(64))
}

/// The `index`-th camera's scenario when a sweep cycles its cameras through
/// the eight paper scenarios (S1–S6, ES1, ES2), cut to `segments` segments.
pub(super) fn cycled_scenario(index: usize, segments: usize) -> Scenario {
    let scenarios = Scenario::all();
    truncate_scenario(&scenarios[index % scenarios.len()], segments)
}
