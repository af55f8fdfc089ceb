//! Multi-camera fleet driver: N independent [`Session`](crate::Session)s,
//! each with its own scenario, seed, and platform, aggregated into one
//! [`FleetResult`].
//!
//! A fleet is the contention-free corner of the cluster design space:
//! [`Fleet::run`] is a thin wrapper over a [`Cluster`](crate::Cluster) with
//! **one dedicated accelerator per camera**, so no session ever shares
//! hardware and every per-camera result is **bit-identical** to running that
//! camera's `Session` alone (property-tested) — worker threads only change
//! wall-clock time, never metrics. When cameras must share accelerators,
//! use [`Cluster`](crate::Cluster) directly and pick an arbitration policy.

use crate::cluster::Cluster;
use crate::config::SimConfig;
use crate::metrics::{mean, percentiles};
use crate::sim::SimResult;
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// One camera's outcome within a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraResult {
    /// The camera's name (unique within the fleet).
    pub camera: String,
    /// The camera's full simulation result, bit-identical to a solo run of
    /// the same configuration.
    pub result: SimResult,
}

/// Aggregate metrics over a completed fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-camera results, in the order cameras were added.
    pub cameras: Vec<CameraResult>,
    /// Mean of the cameras' end-to-end accuracies.
    pub mean_accuracy: f64,
    /// Median (p50) camera accuracy.
    pub p50_accuracy: f64,
    /// 10th-percentile camera accuracy (the fleet's stragglers).
    pub p10_accuracy: f64,
    /// Worst camera accuracy.
    pub min_accuracy: f64,
    /// Total energy across all cameras in joules.
    pub total_energy_joules: f64,
    /// Stream-duration-weighted frame drop rate across the fleet.
    pub aggregate_drop_rate: f64,
    /// Total drift responses issued across the fleet.
    pub total_drift_responses: usize,
}

impl FleetResult {
    /// The camera result with the given name, if present.
    #[must_use]
    pub fn camera(&self, name: &str) -> Option<&SimResult> {
        self.cameras.iter().find(|c| c.camera == name).map(|c| &c.result)
    }
}

/// Builder-style driver for a fleet of camera sessions.
///
/// # Examples
///
/// ```no_run
/// use dacapo_core::{Fleet, SimConfig};
/// use dacapo_datagen::Scenario;
/// use dacapo_dnn::zoo::ModelPair;
///
/// # fn main() -> Result<(), dacapo_core::CoreError> {
/// let mut fleet = Fleet::new();
/// for (i, scenario) in Scenario::all().into_iter().enumerate() {
///     let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
///         .seed(0xDACA90 + i as u64)
///         .build()?;
///     fleet = fleet.camera(format!("cam-{i}"), config);
/// }
/// let result = fleet.run()?;
/// println!("fleet mean accuracy {:.1}%", result.mean_accuracy * 100.0);
/// # Ok(())
/// # }
/// ```
pub struct Fleet {
    cameras: Vec<(String, SimConfig)>,
    threads: usize,
    share: String,
    share_window_s: Option<f64>,
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

impl Fleet {
    /// Creates an empty fleet sized to the machine's available parallelism,
    /// with cross-camera sharing disabled.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        Self { cameras: Vec::new(), threads, share: "none".to_string(), share_window_s: None }
    }

    /// Adds a camera with its own configuration (scenario, seed, platform,
    /// scheduler).
    #[must_use]
    pub fn camera(mut self, name: impl Into<String>, config: SimConfig) -> Self {
        self.cameras.push((name.into(), config));
        self
    }

    /// Caps the number of worker threads (at least one is always used).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects a cross-camera label-sharing policy by registry name (see
    /// [`crate::share::register`]); the default `"none"` keeps cameras fully
    /// independent. With an active policy, correlated cameras reuse each
    /// other's freshly teacher-labeled samples at window boundaries —
    /// per-camera results then legitimately differ from solo runs. Sharing
    /// telemetry is reported on [`crate::ClusterResult::share`]; run the
    /// fleet as a [`Cluster`] (one accelerator per camera) to read it.
    #[must_use]
    pub fn share(mut self, name: impl Into<String>) -> Self {
        self.share = name.into();
        self
    }

    /// Sets the sharing exchange window in virtual seconds (see
    /// [`Cluster::share_window_s`]); only consulted with an active share
    /// policy.
    #[must_use]
    pub fn share_window_s(mut self, window_s: f64) -> Self {
        self.share_window_s = Some(window_s);
        self
    }

    /// Number of cameras currently in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cameras.len()
    }

    /// Whether the fleet has no cameras.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cameras.is_empty()
    }

    /// Runs every camera session to completion across the worker threads and
    /// aggregates the fleet metrics. Implemented as a [`Cluster`] with one
    /// dedicated accelerator per camera, so no arbitration ever slows a
    /// session down.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty fleet, duplicate
    /// camera names, or an invalid camera configuration, and propagates the
    /// first session error otherwise. Configurations are validated up front
    /// and a failing camera aborts the remaining queue, so a bad camera
    /// fails the run fast instead of after every other stream completes.
    pub fn run(self) -> Result<FleetResult> {
        Ok(self.into_cluster()?.run()?.fleet)
    }

    /// Like [`Fleet::run`], but forwards every session and barrier event to
    /// `observer` through the [`crate::SimObserver`] hooks, exactly as
    /// [`Cluster::run_with`](crate::Cluster::run_with) does. Execution is
    /// single-threaded so the observer needs no synchronisation; the
    /// returned result is identical to [`Fleet::run`]'s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fleet::run`].
    pub fn run_with(self, observer: &mut dyn crate::SimObserver) -> Result<FleetResult> {
        Ok(self.into_cluster()?.run_with(observer)?.fleet)
    }

    /// The fleet's underlying one-accelerator-per-camera cluster.
    fn into_cluster(self) -> Result<Cluster> {
        if self.cameras.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "a fleet needs at least one camera".into(),
            });
        }
        let mut cluster = Cluster::new(self.cameras.len()).threads(self.threads).share(self.share);
        if let Some(window_s) = self.share_window_s {
            cluster = cluster.share_window_s(window_s);
        }
        for (name, config) in self.cameras {
            cluster = cluster.camera(name, config);
        }
        Ok(cluster)
    }
}

/// Prefixes a config error with the offending camera's name without
/// re-nesting the "invalid system configuration" wrapper.
pub(crate) fn prefix_camera(name: &str, error: CoreError) -> CoreError {
    let detail = match error {
        CoreError::InvalidConfig { reason } => reason,
        other => other.to_string(),
    };
    CoreError::InvalidConfig { reason: format!("camera '{name}': {detail}") }
}

/// Aggregates per-camera results into fleet-level metrics (shared by
/// [`Fleet`] and [`Cluster`]).
pub(crate) fn aggregate(cameras: Vec<CameraResult>) -> FleetResult {
    // A cluster whose every camera departed before starting has nothing to
    // aggregate; report zeros rather than a vacuous min of +inf.
    let min_floor = if cameras.is_empty() { 0.0 } else { f64::INFINITY };
    let accuracies: Vec<f64> = cameras.iter().map(|c| c.result.mean_accuracy).collect();
    let total_energy_joules = cameras.iter().map(|c| c.result.energy_joules).sum();
    let total_duration: f64 = cameras.iter().map(|c| c.result.duration_s).sum();
    let aggregate_drop_rate = if total_duration > 0.0 {
        cameras.iter().map(|c| c.result.frame_drop_rate * c.result.duration_s).sum::<f64>()
            / total_duration
    } else {
        0.0
    };
    let [p50_accuracy, p10_accuracy] = percentiles(&accuracies, [50.0, 10.0]);
    FleetResult {
        mean_accuracy: mean(&accuracies),
        p50_accuracy,
        p10_accuracy,
        min_accuracy: accuracies.iter().copied().fold(min_floor, f64::min),
        total_energy_joules,
        aggregate_drop_rate,
        total_drift_responses: cameras.iter().map(|c| c.result.drift_responses).sum(),
        cameras,
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the fail-fast test times the host to show validation rejects a fleet before any simulation runs"
)]
mod tests {
    use super::*;
    use crate::sched::SchedulerKind;
    use crate::sim::test_support::short_config;

    #[test]
    fn empty_fleets_and_duplicate_names_are_rejected() {
        assert!(Fleet::new().run().is_err());
        let fleet = Fleet::new()
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .camera("a", short_config(SchedulerKind::NoAdaptation));
        let err = fleet.run().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn bad_camera_configs_fail_before_any_simulation_runs() {
        let mut broken = short_config(SchedulerKind::NoAdaptation);
        broken.scheduler = "not-a-registered-policy".into();
        let fleet = Fleet::new()
            .camera("good", short_config(SchedulerKind::NoAdaptation))
            .camera("broken", broken);
        let started = std::time::Instant::now();
        let err = fleet.run().unwrap_err();
        assert!(err.to_string().contains("broken"), "{err}");
        assert!(err.to_string().contains("not-a-registered-policy"), "{err}");
        assert_eq!(
            err.to_string().matches("invalid system configuration").count(),
            1,
            "camera prefixing must not nest the error wrapper: {err}"
        );
        // Pre-validation rejects the fleet without simulating the good
        // camera (which takes seconds in debug builds).
        assert!(started.elapsed().as_millis() < 500, "validation should fail fast");
    }

    #[test]
    fn unknown_platform_names_fail_fleet_prevalidation() {
        let mut broken = short_config(SchedulerKind::NoAdaptation);
        broken.platform = "warp-core".into();
        let err = Fleet::new()
            .camera("good", short_config(SchedulerKind::NoAdaptation))
            .camera("bad-platform", broken)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("bad-platform"), "{err}");
        assert!(err.to_string().contains("warp-core"), "{err}");
    }

    #[test]
    fn fleet_aggregates_match_per_camera_results() {
        let fleet = Fleet::new()
            .threads(2)
            .camera("calm", short_config(SchedulerKind::DaCapoSpatial))
            .camera("adaptive", short_config(SchedulerKind::DaCapoSpatiotemporal));
        let result = fleet.run().unwrap();
        assert_eq!(result.cameras.len(), 2);
        assert_eq!(result.cameras[0].camera, "calm");
        assert_eq!(result.cameras[1].camera, "adaptive");
        let expected_mean =
            (result.cameras[0].result.mean_accuracy + result.cameras[1].result.mean_accuracy) / 2.0;
        assert!((result.mean_accuracy - expected_mean).abs() < 1e-12);
        let expected_energy: f64 = result.cameras.iter().map(|c| c.result.energy_joules).sum();
        assert!((result.total_energy_joules - expected_energy).abs() < 1e-9);
        assert!(result.min_accuracy <= result.p50_accuracy);
        assert!(result.camera("calm").is_some());
        assert!(result.camera("missing").is_none());
    }

    #[test]
    fn parallel_results_are_bit_identical_to_solo_runs() {
        let solo = crate::ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        let fleet = Fleet::new()
            .threads(4)
            .camera("one", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("two", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .run()
            .unwrap();
        for camera in &fleet.cameras {
            assert_eq!(camera.result, solo);
        }
    }

    #[test]
    fn single_threaded_fleets_work() {
        let result = Fleet::new()
            .threads(1)
            .camera("only", short_config(SchedulerKind::NoAdaptation))
            .run()
            .unwrap();
        assert_eq!(result.cameras.len(), 1);
        assert_eq!(result.total_drift_responses, 0);
    }
}
