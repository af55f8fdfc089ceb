//! The one-shot simulation façade and the collected run metrics.
//!
//! The actual execution engine lives in [`crate::session`]: a re-entrant
//! [`Session`](crate::Session) stepped event by event. [`ClSimulator`] is the
//! batch-style compatibility wrapper — it builds a session, steps it to
//! completion, and hands back the final [`SimResult`]. Code that wants
//! mid-run visibility (observers, multi-camera drivers, custom control
//! loops) should use [`Session`](crate::Session) or
//! [`Cluster`](crate::Cluster) directly.

use crate::config::SimConfig;
use crate::session::Session;
use crate::Result;
use dacapo_dnn::zoo::ModelPair;
use serde::{Deserialize, Serialize};

/// What a phase spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Teacher labeling of freshly sampled frames.
    Label,
    /// Student retraining (plus its validation pass).
    Retrain,
    /// Idle retraining/labeling resources (window padding, profiling).
    Wait,
}

/// One executed phase of the temporal schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase type.
    pub kind: PhaseKind,
    /// Start time in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub duration_s: f64,
    /// Samples processed (labeled samples, or retraining sample·epochs).
    pub samples: usize,
    /// Whether this phase was a drift response (buffer reset + extended
    /// labeling).
    pub drift_response: bool,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Platform + scheduler name, e.g. `"DaCapo (16x16 DPEs) / DaCapo-Spatiotemporal"`.
    pub system: String,
    /// Scenario name.
    pub scenario: String,
    /// Model pair evaluated.
    pub pair: ModelPair,
    /// Name of the scheduling policy used (a builtin kind's display name, or
    /// a registered custom policy's name).
    pub scheduler: String,
    /// `(time, accuracy)` samples along the run; accuracy already accounts
    /// for dropped frames (counted as incorrect).
    pub accuracy_timeline: Vec<(f64, f64)>,
    /// Mean of the accuracy timeline (the paper's end-to-end averaged
    /// accuracy).
    pub mean_accuracy: f64,
    /// Fraction of streamed frames dropped by insufficient inference
    /// throughput.
    pub frame_drop_rate: f64,
    /// Total platform energy over the scenario in joules.
    pub energy_joules: f64,
    /// Average platform power in watts.
    pub power_watts: f64,
    /// Executed phases in order.
    pub phases: Vec<PhaseRecord>,
    /// Number of drift responses (buffer resets) the scheduler issued.
    pub drift_responses: usize,
    /// Scenario duration in seconds.
    pub duration_s: f64,
}

impl SimResult {
    /// Accuracy averaged over fixed windows (Figure 10 uses 15-second
    /// windows), returned as `(window end time, accuracy)`.
    ///
    /// A non-positive or non-finite `window_s` defines no windows, so the
    /// returned vector is empty.
    #[must_use]
    pub fn windowed_accuracy(&self, window_s: f64) -> Vec<(f64, f64)> {
        if window_s <= 0.0 || !window_s.is_finite() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut window_end = window_s;
        let mut acc = Vec::new();
        for &(t, a) in &self.accuracy_timeline {
            if t >= window_end {
                if !acc.is_empty() {
                    out.push((window_end, acc.iter().sum::<f64>() / acc.len() as f64));
                    acc.clear();
                }
                // Straight to the window holding `t`, past any empty ones;
                // its end lies beyond `t` even where `window_s` is below
                // `t`'s precision.
                window_end = (t - t.rem_euclid(window_s) + window_s).max(t.next_up());
            }
            acc.push(a);
        }
        if !acc.is_empty() {
            out.push((window_end, acc.iter().sum::<f64>() / acc.len() as f64));
        }
        out
    }

    /// Total seconds spent in each phase kind `(label, retrain, wait)`.
    #[must_use]
    pub fn time_breakdown(&self) -> (f64, f64, f64) {
        let mut label = 0.0;
        let mut retrain = 0.0;
        let mut wait = 0.0;
        for phase in &self.phases {
            match phase.kind {
                PhaseKind::Label => label += phase.duration_s,
                PhaseKind::Retrain => retrain += phase.duration_s,
                PhaseKind::Wait => wait += phase.duration_s,
            }
        }
        (label, retrain, wait)
    }

    /// Number of retraining phases completed.
    #[must_use]
    pub fn retrain_count(&self) -> usize {
        self.phases.iter().filter(|p| p.kind == PhaseKind::Retrain).count()
    }
}

/// The end-to-end continuous-learning simulator: a thin one-shot wrapper over
/// [`Session`].
///
/// See the crate-level example for typical usage.
pub struct ClSimulator {
    session: Session,
}

impl ClSimulator {
    /// Builds a simulator (equivalently: a [`Session`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig)
    /// if the configuration is invalid.
    pub fn new(config: SimConfig) -> Result<Self> {
        Ok(Self { session: Session::new(config)? })
    }

    /// The configuration this simulator was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        self.session.config()
    }

    /// Runs the full scenario and returns the collected metrics.
    ///
    /// # Errors
    ///
    /// Returns an error if a kernel invocation fails (which indicates a
    /// configuration inconsistency, such as mismatched feature dimensions).
    pub fn run(self) -> Result<SimResult> {
        let mut session = self.session;
        session.run_to_end()?;
        Ok(session.into_result())
    }
}

/// Shared fixtures for the core crate's unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use crate::config::SimConfig;
    use crate::platform::{KernelRate, PlatformRates, Sharing};
    use crate::sched::SchedulerKind;
    use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
    use dacapo_dnn::zoo::ModelPair;

    /// A short two-segment scenario with one label-distribution drift, to keep
    /// unit-test simulations fast.
    pub(crate) fn short_scenario() -> Scenario {
        let first = SegmentAttributes::default();
        let second = SegmentAttributes {
            labels: dacapo_datagen::LabelDistribution::All,
            location: dacapo_datagen::Location::Highway,
            ..first
        };
        Scenario::try_from_segments(
            "short",
            vec![
                Segment { attributes: first, duration_s: 60.0 },
                Segment { attributes: second, duration_s: 60.0 },
            ],
        )
        .expect("segments are non-empty with positive durations")
    }

    pub(crate) fn fast_rates(name: &str) -> PlatformRates {
        PlatformRates::new(
            name,
            KernelRate::fp32(120.0),
            KernelRate::fp32(40.0),
            KernelRate::fp32(120.0),
            Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
            1.0,
        )
        .expect("test rates are valid")
    }

    /// Four cameras that share nothing an arena's shape depends on: fp32
    /// and MX (`"dacapo"`) platforms, three feature widths, three mini-batch
    /// sizes — so stepping them through one training arena resizes its
    /// every buffer between residents. Forty seconds each, one drift.
    pub(crate) fn mixed_configs(seed: u64) -> Vec<SimConfig> {
        [(false, 16, 16), (true, 10, 8), (false, 21, 5), (true, 16, 16)]
            .into_iter()
            .enumerate()
            .map(|(i, (mx, feature_dim, batch_size))| {
                let mut segments = short_scenario().segments().to_vec();
                segments.iter_mut().for_each(|segment| segment.duration_s = 20.0);
                let mut config = short_config(SchedulerKind::DaCapoSpatiotemporal);
                config.scenario = Scenario::try_from_segments("mixed", segments)
                    .expect("segments are non-empty with positive durations");
                if mx {
                    config.platform = "dacapo".into();
                }
                config.stream.feature_dim = feature_dim;
                config.hyper.batch_size = batch_size;
                config.pretrain_samples = 48;
                config.seed = seed.wrapping_add(i as u64);
                config
            })
            .collect()
    }

    pub(crate) fn short_config(scheduler: SchedulerKind) -> SimConfig {
        SimConfig::builder(short_scenario(), ModelPair::ResNet18Wrn50)
            .platform_rates(fast_rates("test"))
            .scheduler(scheduler)
            .measurement(5.0, 20)
            .pretrain_samples(128)
            .build()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{short_config, short_scenario};
    use super::*;
    use crate::platform::PlatformKind;
    use crate::sched::SchedulerKind;
    use dacapo_dnn::zoo::ModelPair;

    #[test]
    fn simulation_produces_complete_timeline_and_phases() {
        let result = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.duration_s, 120.0);
        assert_eq!(result.accuracy_timeline.len(), 24); // every 5 s
        assert!(result.mean_accuracy > 0.3, "mean accuracy {}", result.mean_accuracy);
        assert!(result.mean_accuracy <= 1.0);
        assert!(!result.phases.is_empty());
        assert!(result.retrain_count() >= 1);
        let (label, retrain, wait) = result.time_breakdown();
        assert!((label + retrain + wait - 120.0).abs() < 1.0, "{label} + {retrain} + {wait}");
        assert_eq!(result.frame_drop_rate, 0.0);
        assert!((result.energy_joules - 120.0).abs() < 1e-6); // 1 W * 120 s
    }

    #[test]
    fn spatiotemporal_detects_the_injected_drift() {
        let result = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            result.drift_responses >= 1,
            "the label-distribution drift at t=60s should trigger a buffer reset"
        );
    }

    #[test]
    fn spatial_scheduler_never_issues_drift_responses() {
        let result =
            ClSimulator::new(short_config(SchedulerKind::DaCapoSpatial)).unwrap().run().unwrap();
        assert_eq!(result.drift_responses, 0);
        assert!(result.phases.iter().all(|p| !p.drift_response));
    }

    #[test]
    fn ekya_has_idle_profile_time() {
        let result = ClSimulator::new(short_config(SchedulerKind::Ekya)).unwrap().run().unwrap();
        let (_, _, wait) = result.time_breakdown();
        assert!(wait > 0.0, "Ekya should spend window time profiling/idling");
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let a = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        let b = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.accuracy_timeline, b.accuracy_timeline);
        assert_eq!(a.phases.len(), b.phases.len());
    }

    #[test]
    fn frame_drops_scale_down_reported_accuracy() {
        use crate::platform::{KernelRate, PlatformRates, Sharing};
        // Half the 30 FPS stream's inference demand on a time-shared device.
        let starved = PlatformRates::new(
            "starved",
            KernelRate::fp32(15.0),
            KernelRate::fp32(40.0),
            KernelRate::fp32(120.0),
            Sharing::TimeShared,
            1.0,
        )
        .unwrap();
        let config = SimConfig::builder(short_scenario(), ModelPair::ResNet18Wrn50)
            .platform_rates(starved)
            .scheduler(SchedulerKind::Ekya)
            .measurement(5.0, 20)
            .pretrain_samples(128)
            .build()
            .unwrap();
        let result = ClSimulator::new(config).unwrap().run().unwrap();
        assert!((result.frame_drop_rate - 0.5).abs() < 1e-9);
        assert!(
            result.mean_accuracy <= 0.55,
            "dropping half the frames caps accuracy near 50%, got {}",
            result.mean_accuracy
        );
    }

    #[test]
    fn windowed_accuracy_averages_the_timeline() {
        let result = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        let windows = result.windowed_accuracy(15.0);
        assert_eq!(windows.len(), 8); // 120 s / 15 s
        for (_, acc) in windows {
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn windowed_accuracy_handles_degenerate_windows() {
        let result = SimResult {
            system: "test".into(),
            scenario: "test".into(),
            pair: ModelPair::ResNet18Wrn50,
            scheduler: SchedulerKind::DaCapoSpatiotemporal.to_string(),
            accuracy_timeline: vec![(0.0, 0.5), (5.0, 0.7)],
            mean_accuracy: 0.6,
            frame_drop_rate: 0.0,
            energy_joules: 1.0,
            power_watts: 1.0,
            phases: Vec::new(),
            drift_responses: 0,
            duration_s: 10.0,
        };
        assert!(result.windowed_accuracy(0.0).is_empty());
        assert!(result.windowed_accuracy(-15.0).is_empty());
        assert!(result.windowed_accuracy(f64::NAN).is_empty());
        assert!(result.windowed_accuracy(f64::INFINITY).is_empty());
        // A sane window still works on the same result.
        assert_eq!(result.windowed_accuracy(10.0).len(), 1);
        // A window far shorter than the gap between samples holds one
        // sample each, and is found without walking the empty ones.
        for window_s in [1e-9, f64::MIN_POSITIVE] {
            let windows = result.windowed_accuracy(window_s);
            assert_eq!(windows.iter().map(|w| w.1).collect::<Vec<_>>(), [0.5, 0.7]);
            assert!(windows[0].0 > 0.0 && windows[1].0 > 5.0, "{windows:?}");
        }
    }

    #[test]
    fn dacapo_platform_config_builds_and_runs_end_to_end() {
        // Exercise the real platform derivation (spatial allocation) on a
        // short scenario rather than synthetic rates.
        let config = SimConfig::builder(short_scenario(), ModelPair::ResNet18Wrn50)
            .platform(PlatformKind::DaCapo)
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 15)
            .pretrain_samples(96)
            .build()
            .unwrap();
        assert!(!config.platform_rates().unwrap().is_shared());
        let result = ClSimulator::new(config).unwrap().run().unwrap();
        assert!(result.mean_accuracy > 0.2);
        assert!((result.power_watts - 0.236).abs() < 1e-9);
    }
}
