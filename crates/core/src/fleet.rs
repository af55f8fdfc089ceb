//! What a multi-camera run reports: one [`CameraResult`] per camera and the
//! [`FleetResult`] aggregates over them, as read from
//! [`ClusterResult::fleet`](crate::ClusterResult::fleet).
//!
//! N independent cameras are a [`Cluster`](crate::Cluster) with one
//! dedicated accelerator per camera, `Cluster::new(N)`: no session ever
//! shares hardware, so every per-camera result is **bit-identical** to
//! running that camera's `Session` alone (property-tested), and worker
//! threads only change wall-clock time, never metrics.

use crate::metrics::{mean, percentiles};
use crate::sim::SimResult;
use crate::CoreError;
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

/// Prefixes a config error with the offending camera's name without
/// re-nesting the "invalid system configuration" wrapper.
pub(crate) fn prefix_camera(name: &str, error: CoreError) -> CoreError {
    let detail = match error {
        CoreError::InvalidConfig { reason } => reason,
        other => other.to_string(),
    };
    CoreError::InvalidConfig { reason: format!("camera '{name}': {detail}") }
}

/// Aggregates per-camera results into fleet-level metrics.
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
    use crate::cluster::Cluster;
    use crate::sched::SchedulerKind;
    use crate::sim::test_support::short_config;

    #[test]
    fn empty_fleets_and_duplicate_names_are_rejected() {
        assert!(Cluster::new(1).run().is_err());
        let err = Cluster::new(2)
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn bad_camera_configs_fail_before_any_simulation_runs() {
        let mut broken = short_config(SchedulerKind::NoAdaptation);
        broken.scheduler = "not-a-registered-policy".into();
        let fleet = Cluster::new(2)
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
        let err = Cluster::new(2)
            .camera("good", short_config(SchedulerKind::NoAdaptation))
            .camera("bad-platform", broken)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("bad-platform"), "{err}");
        assert!(err.to_string().contains("warp-core"), "{err}");
    }

    #[test]
    fn fleet_aggregates_match_per_camera_results() {
        let result = Cluster::new(2)
            .threads(2)
            .camera("calm", short_config(SchedulerKind::DaCapoSpatial))
            .camera("adaptive", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .run()
            .unwrap()
            .fleet;
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
        let fleet = Cluster::new(2)
            .threads(4)
            .camera("one", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("two", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .run()
            .unwrap()
            .fleet;
        for camera in &fleet.cameras {
            assert_eq!(camera.result, solo);
        }
    }

    #[test]
    fn single_threaded_fleets_work() {
        let result = Cluster::new(1)
            .threads(1)
            .camera("only", short_config(SchedulerKind::NoAdaptation))
            .run()
            .unwrap()
            .fleet;
        assert_eq!(result.cameras.len(), 1);
        assert_eq!(result.total_drift_responses, 0);
    }
}
