//! System configuration: Table I hyperparameters and the simulation config.

use crate::edge::EdgeConfig;
use crate::platform::{PlatformKind, PlatformRates, PlatformSpec};
use crate::sched::{SchedulerKind, SchedulerSpec};
use crate::{CoreError, Result};
use dacapo_accel::AccelConfig;
use dacapo_datagen::{Scenario, StreamConfig};
use dacapo_dnn::zoo::ModelPair;
use serde::{Deserialize, Serialize};

/// The resource-allocation hyperparameters of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hyperparams {
    /// `N_t`: number of samples drawn from the buffer for one retraining phase.
    pub retrain_samples: usize,
    /// `N_v`: number of samples held out for validation (the paper sets it to
    /// one third of `N_t`).
    pub validation_samples: usize,
    /// `N_l`: number of samples labeled per labeling phase under normal
    /// conditions.
    pub label_samples: usize,
    /// `N_ldd / N_l`: multiplier applied to the labeling quota when data
    /// drift is detected (the paper uses 4).
    pub drift_label_multiplier: usize,
    /// `C_b`: capacity of the labeled sample buffer.
    pub buffer_capacity: usize,
    /// `V_thr`: drift threshold — drift is declared when the accuracy on
    /// freshly labeled data falls below the validation accuracy by more than
    /// this margin (Algorithm 1, line 11 uses `acc_l - acc_v < V_thr` with a
    /// negative threshold).
    pub drift_threshold: f64,
    /// Retraining epochs per phase.
    pub epochs: usize,
    /// Retraining mini-batch size (the paper uses 16).
    pub batch_size: usize,
    /// SGD learning rate (the paper uses 1e-3 for the CNN students; the small
    /// synthetic student trains with a proportionally larger rate).
    pub learning_rate: f32,
    /// Window length in seconds used by the fixed-window baselines
    /// (Ekya / DaCapo-Spatial).
    pub window_seconds: f64,
}

impl Default for Hyperparams {
    fn default() -> Self {
        Self {
            retrain_samples: 128,
            validation_samples: 42,
            label_samples: 96,
            drift_label_multiplier: 4,
            buffer_capacity: 512,
            drift_threshold: -0.10,
            epochs: 3,
            batch_size: 16,
            learning_rate: 0.02,
            window_seconds: 60.0,
        }
    }
}

impl Hyperparams {
    /// Hyperparameters tuned per model pair. Table I's values "are decided
    /// according to the model size, as it has a direct impact on the
    /// computational cost required for retraining" — heavier students get
    /// smaller per-phase sample counts so phases stay short enough to react
    /// to drift.
    #[must_use]
    pub fn for_pair(pair: dacapo_dnn::zoo::ModelPair) -> Self {
        use dacapo_dnn::zoo::ModelPair;
        match pair {
            ModelPair::ResNet18Wrn50 => Self::default(),
            ModelPair::VitB32VitB16 | ModelPair::ResNet34Wrn101 => Self {
                retrain_samples: 96,
                validation_samples: 32,
                label_samples: 64,
                // Smaller labeling/validation batches make the acc_l - acc_v
                // estimate noisier, so the drift threshold widens to keep the
                // false-positive rate (spurious buffer resets) low.
                drift_threshold: -0.13,
                ..Self::default()
            },
        }
    }

    /// `N_ldd`: samples to label when a drift is detected.
    #[must_use]
    pub fn drift_label_samples(&self) -> usize {
        self.label_samples * self.drift_label_multiplier
    }

    /// Validates the hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any count is zero, the
    /// validation set is not smaller than the retraining set, the buffer
    /// cannot hold one retraining draw or the mini-batch and validation set
    /// the first retraining waits for, or the window length or learning
    /// rate is not positive and finite (the reason names the field).
    pub fn validate(&self) -> Result<()> {
        if self.retrain_samples == 0
            || self.validation_samples == 0
            || self.label_samples == 0
            || self.drift_label_multiplier == 0
            || self.buffer_capacity == 0
            || self.epochs == 0
            || self.batch_size == 0
        {
            return Err(CoreError::InvalidConfig {
                reason: "hyperparameter counts must all be positive".into(),
            });
        }
        if self.validation_samples >= self.retrain_samples {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "validation set ({}) must be smaller than the retraining set ({})",
                    self.validation_samples, self.retrain_samples
                ),
            });
        }
        // A sum past `usize::MAX` is a draw no buffer can supply.
        let short = |needs: Option<usize>| needs.is_none_or(|n| self.buffer_capacity < n);
        if short(self.retrain_samples.checked_add(self.validation_samples)) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "buffer_capacity {} cannot supply retrain_samples {} + validation_samples {}",
                    self.buffer_capacity, self.retrain_samples, self.validation_samples
                ),
            });
        }
        // Algorithm 1 labels until the buffer holds a validation set and one
        // mini-batch, and the windowed baselines retrain only once it holds
        // a mini-batch: a buffer too small for both never retrains.
        if short(self.batch_size.checked_add(self.validation_samples)) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "buffer_capacity {} cannot hold batch_size {} + validation_samples {}, \
                     so the first retraining would never start",
                    self.buffer_capacity, self.batch_size, self.validation_samples
                ),
            });
        }
        if self.label_samples.checked_mul(self.drift_label_multiplier).is_none() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "label_samples {} × drift_label_multiplier {} overflows the drift labeling \
                     quota",
                    self.label_samples, self.drift_label_multiplier
                ),
            });
        }
        // `!(x > floor && x.is_finite())` rather than `x <= floor`: NaN and
        // +∞ pass the latter. A NaN learning rate trains weights to NaN; a
        // NaN drift threshold makes Algorithm 1's `acc_l − acc_v < V_thr`
        // always false, so drift detection silently switches off. The
        // threshold is a (negative) accuracy gap and has no floor.
        for (field, value, floor, must_be) in [
            ("window_seconds", self.window_seconds, 0.0, "positive and finite"),
            ("learning_rate", f64::from(self.learning_rate), 0.0, "positive and finite"),
            ("drift_threshold", self.drift_threshold, f64::NEG_INFINITY, "finite"),
        ] {
            if !(value > floor && value.is_finite()) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("{field} must be {must_be}, got {value}"),
                });
            }
        }
        Ok(())
    }
}

/// Full configuration of one end-to-end simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The drifting workload scenario to run.
    pub scenario: Scenario,
    /// The (student, teacher) model pair.
    pub pair: ModelPair,
    /// Execution platform selection: a builtin kind, a registered platform
    /// by name (see [`crate::platform::register`]), or explicit rates.
    /// Resolved into [`PlatformRates`] by [`SimConfig::platform_rates`].
    pub platform: PlatformSpec,
    /// Accelerator hardware configuration consumed by DaCapo-family
    /// platforms when the spec resolves.
    pub accel: AccelConfig,
    /// Temporal resource-allocation policy: a builtin kind or a registered
    /// policy selected by name (see [`crate::sched::register`]).
    pub scheduler: SchedulerSpec,
    /// Table I hyperparameters.
    pub hyper: Hyperparams,
    /// Synthetic stream configuration.
    pub stream: StreamConfig,
    /// Teacher labeling accuracy on easy samples.
    pub teacher_accuracy: f64,
    /// Seconds between accuracy measurements on the timeline.
    pub measure_interval_s: f64,
    /// Frames evaluated per accuracy measurement.
    pub eval_frames_per_measurement: usize,
    /// Number of pre-deployment warm-up samples used to pre-train the student
    /// on the general (mixed-context) distribution.
    pub pretrain_samples: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Optional edge–cloud tier: an uplink to a cloud teacher plus the
    /// near-duplicate filter (see [`crate::edge`]). `None` keeps the camera
    /// purely local.
    pub edge: Option<EdgeConfig>,
}

impl SimConfig {
    /// Starts building a configuration for a scenario and model pair with
    /// paper-default settings.
    #[must_use]
    pub fn builder(scenario: Scenario, pair: ModelPair) -> SimConfigBuilder {
        SimConfigBuilder {
            scenario,
            pair,
            platform: PlatformSpec::Kind(PlatformKind::DaCapo),
            scheduler: SchedulerSpec::Kind(SchedulerKind::DaCapoSpatiotemporal),
            hyper: Hyperparams::for_pair(pair),
            teacher_accuracy: 0.95,
            measure_interval_s: 5.0,
            eval_frames_per_measurement: 40,
            pretrain_samples: 256,
            seed: 0xDACA90,
            accel: AccelConfig::default(),
            edge: None,
        }
    }

    /// Resolves the platform spec into the capability sheet the engine runs
    /// against, for this configuration's model pair, frame rate, and
    /// accelerator hardware.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unregistered platform
    /// name or invalid platform parameters, and propagates the platform's
    /// build errors (e.g. an infeasible spatial allocation).
    pub fn platform_rates(&self) -> Result<PlatformRates> {
        self.platform.resolve(self.pair, self.stream.fps, &self.accel)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for inconsistent settings.
    pub fn validate(&self) -> Result<()> {
        self.hyper.validate()?;
        // Surface bad stream parameters as a typed error here rather than
        // letting FrameStream::new panic mid-construction.
        self.stream.validate().map_err(|e| CoreError::InvalidConfig { reason: e.to_string() })?;
        if !(self.measure_interval_s > 0.0 && self.measure_interval_s.is_finite()) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "measure_interval_s must be positive and finite, got {}",
                    self.measure_interval_s
                ),
            });
        }
        if self.eval_frames_per_measurement == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "need at least one evaluation frame per measurement".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.teacher_accuracy) {
            return Err(CoreError::InvalidConfig {
                reason: "teacher accuracy must be in [0, 1]".into(),
            });
        }
        if let Some(edge) = &self.edge {
            edge.validate()?;
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    scenario: Scenario,
    pair: ModelPair,
    platform: PlatformSpec,
    accel: AccelConfig,
    scheduler: SchedulerSpec,
    hyper: Hyperparams,
    teacher_accuracy: f64,
    measure_interval_s: f64,
    eval_frames_per_measurement: usize,
    pretrain_samples: usize,
    seed: u64,
    edge: Option<EdgeConfig>,
}

impl SimConfigBuilder {
    /// Selects the execution platform: a builtin [`PlatformKind`], the name
    /// of a platform registered with [`crate::platform::register`]
    /// (optionally parameterised, e.g. `.platform("scaled-dacapo:32")`), or
    /// explicit [`PlatformRates`]. This and [`Self::platform_rates`] write
    /// the same selection — the last call wins.
    #[must_use]
    pub fn platform(mut self, platform: impl Into<PlatformSpec>) -> Self {
        self.platform = platform.into();
        self
    }

    /// Uses fully custom platform rates instead of a registered platform
    /// (shorthand for `.platform(PlatformSpec::Rates(rates))`; the last of
    /// this and [`Self::platform`] wins).
    #[must_use]
    pub fn platform_rates(mut self, rates: PlatformRates) -> Self {
        self.platform = PlatformSpec::Rates(rates);
        self
    }

    /// Selects the temporal resource-allocation policy: a
    /// [`SchedulerKind`], or the name of a policy registered with
    /// [`crate::sched::register`] (e.g. `.scheduler("ekya")`).
    #[must_use]
    pub fn scheduler(mut self, scheduler: impl Into<SchedulerSpec>) -> Self {
        self.scheduler = scheduler.into();
        self
    }

    /// Overrides the Table I hyperparameters.
    #[must_use]
    pub fn hyperparams(mut self, hyper: Hyperparams) -> Self {
        self.hyper = hyper;
        self
    }

    /// Overrides the accelerator hardware configuration consumed by
    /// DaCapo-family platforms (e.g. [`PlatformKind::DaCapo`]).
    #[must_use]
    pub fn accelerator(mut self, accel: AccelConfig) -> Self {
        self.accel = accel;
        self
    }

    /// Overrides the teacher's labeling accuracy.
    #[must_use]
    pub fn teacher_accuracy(mut self, accuracy: f64) -> Self {
        self.teacher_accuracy = accuracy;
        self
    }

    /// Overrides the accuracy-measurement cadence.
    #[must_use]
    pub fn measurement(mut self, interval_s: f64, frames: usize) -> Self {
        self.measure_interval_s = interval_s;
        self.eval_frames_per_measurement = frames;
        self
    }

    /// Overrides the number of pre-deployment warm-up samples.
    #[must_use]
    pub fn pretrain_samples(mut self, samples: usize) -> Self {
        self.pretrain_samples = samples;
        self
    }

    /// Overrides the master RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an edge–cloud tier: an uplink profile to a cloud teacher
    /// plus the near-duplicate frame filter (see [`crate::edge`]). Without
    /// it the camera labels purely locally and offload policies skip it.
    #[must_use]
    pub fn edge(mut self, edge: EdgeConfig) -> Self {
        self.edge = Some(edge);
        self
    }

    /// Finalises the configuration, resolving the platform spec once to
    /// fail fast on bad selections.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for inconsistent settings or an
    /// unresolvable platform spec, and [`CoreError::Accel`] if the DaCapo
    /// spatial allocation is infeasible for the requested frame rate.
    pub fn build(self) -> Result<SimConfig> {
        let config = SimConfig {
            scenario: self.scenario,
            pair: self.pair,
            platform: self.platform,
            accel: self.accel,
            scheduler: self.scheduler,
            hyper: self.hyper,
            stream: StreamConfig::default(),
            teacher_accuracy: self.teacher_accuracy,
            measure_interval_s: self.measure_interval_s,
            eval_frames_per_measurement: self.eval_frames_per_measurement,
            pretrain_samples: self.pretrain_samples,
            seed: self.seed,
            edge: self.edge,
        };
        config.validate()?;
        config.platform_rates()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hyperparams_are_valid_and_match_paper_conventions() {
        let hp = Hyperparams::default();
        assert!(hp.validate().is_ok());
        assert_eq!(hp.batch_size, 16);
        assert_eq!(hp.drift_label_multiplier, 4);
        assert_eq!(hp.drift_label_samples(), 4 * hp.label_samples);
        // N_v is one third of N_t.
        assert_eq!(hp.validation_samples, hp.retrain_samples / 3);
        // A drift quota past `usize::MAX` is rejected before a drift can
        // compute it.
        let hp = Hyperparams { label_samples: usize::MAX / 2, ..Hyperparams::default() };
        let reason = invalid_reason(hp.validate());
        assert!(reason.contains("drift_label_multiplier"), "{reason}");
    }

    #[test]
    fn invalid_hyperparams_are_rejected() {
        let hp = Hyperparams { retrain_samples: 0, ..Hyperparams::default() };
        assert!(hp.validate().is_err());
        let hp = Hyperparams { validation_samples: 500, ..Hyperparams::default() };
        assert!(hp.validate().is_err());
        let hp = Hyperparams { buffer_capacity: 10, ..Hyperparams::default() };
        assert!(hp.validate().is_err());
        // Counts whose sum passes `usize::MAX` are rejected, not wrapped.
        let hp = Hyperparams {
            retrain_samples: usize::MAX,
            validation_samples: 42,
            buffer_capacity: usize::MAX,
            ..Hyperparams::default()
        };
        let reason = invalid_reason(hp.validate());
        assert!(reason.contains("retrain_samples"), "{reason}");
        let hp = Hyperparams { window_seconds: 0.0, ..Hyperparams::default() };
        assert!(hp.validate().is_err());
        let hp = Hyperparams { learning_rate: -1.0, ..Hyperparams::default() };
        assert!(hp.validate().is_err());
    }

    /// `reason` of an `InvalidConfig`, or a panic naming what came instead.
    fn invalid_reason(result: Result<()>) -> String {
        match result {
            Err(CoreError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn a_non_finite_learning_rate_is_rejected_by_name() {
        for bad in [f32::NAN, f32::INFINITY] {
            let hp = Hyperparams { learning_rate: bad, ..Hyperparams::default() };
            let reason = invalid_reason(hp.validate());
            assert!(reason.contains("learning_rate"), "{reason}");
        }
    }

    #[test]
    fn a_non_finite_window_length_is_rejected_by_name() {
        for bad in [f64::NAN, f64::INFINITY] {
            let hp = Hyperparams { window_seconds: bad, ..Hyperparams::default() };
            let reason = invalid_reason(hp.validate());
            assert!(reason.contains("window_seconds"), "{reason}");
        }
    }

    #[test]
    fn a_non_finite_drift_threshold_is_rejected_by_name() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let hp = Hyperparams { drift_threshold: bad, ..Hyperparams::default() };
            let built = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
                .hyperparams(hp)
                .build()
                .map(|_| ());
            let reason = invalid_reason(built);
            assert!(reason.contains("drift_threshold"), "{reason}");
        }
    }

    #[test]
    fn a_mini_batch_the_buffer_cannot_supply_is_rejected_by_name() {
        let build = |batch_size| {
            let hp = Hyperparams { batch_size, ..Hyperparams::default() };
            SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).hyperparams(hp).build()
        };
        // 480 + 42 > 512: the bootstrap would label forever.
        let reason = invalid_reason(build(480).map(|_| ()));
        for field in ["batch_size", "validation_samples", "buffer_capacity"] {
            assert!(reason.contains(field), "{reason}");
        }
        // A buffer exactly that large is enough.
        assert!(build(512 - 42).is_ok());
        // A sum past `usize::MAX` is rejected, not wrapped.
        let reason = invalid_reason(build(usize::MAX).map(|_| ()));
        assert!(reason.contains("batch_size"), "{reason}");
    }

    #[test]
    fn a_non_finite_measurement_interval_is_rejected_by_name() {
        let valid = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).build().unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let config = SimConfig { measure_interval_s: bad, ..valid.clone() };
            let reason = invalid_reason(config.validate());
            assert!(reason.contains("measure_interval_s"), "{reason}");
        }
    }

    #[test]
    fn builder_produces_valid_default_config() {
        let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).build().unwrap();
        assert_eq!(config.scheduler, SchedulerKind::DaCapoSpatiotemporal);
        assert_eq!(config.pair, ModelPair::ResNet18Wrn50);
        assert_eq!(config.platform, PlatformKind::DaCapo);
        assert!(config.platform_rates().unwrap().inference_fps_capacity() >= 30.0);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn per_pair_hyperparameters_shrink_for_heavier_students() {
        let light = Hyperparams::for_pair(ModelPair::ResNet18Wrn50);
        let heavy = Hyperparams::for_pair(ModelPair::ResNet34Wrn101);
        let vit = Hyperparams::for_pair(ModelPair::VitB32VitB16);
        assert!(light.validate().is_ok());
        assert!(heavy.validate().is_ok());
        assert!(heavy.retrain_samples < light.retrain_samples);
        assert!(heavy.label_samples < light.label_samples);
        assert_eq!(vit.retrain_samples, heavy.retrain_samples);
        // The builder applies the per-pair tuning automatically.
        let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet34Wrn101).build().unwrap();
        assert_eq!(config.hyper, heavy);
    }

    #[test]
    fn builder_rejects_bad_overrides() {
        let result = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .measurement(0.0, 10)
            .build();
        assert!(result.is_err());
        let result = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .teacher_accuracy(1.5)
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn builder_accepts_gpu_platforms_and_custom_seed() {
        let config = SimConfig::builder(Scenario::s2(), ModelPair::ResNet34Wrn101)
            .platform(PlatformKind::OrinHigh)
            .scheduler(SchedulerKind::Ekya)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(config.seed, 7);
        assert!(config.platform_rates().unwrap().name().contains("Orin"));
        assert_eq!(config.scheduler, SchedulerKind::Ekya);
    }

    #[test]
    fn builder_accepts_platforms_by_registered_name() {
        let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .platform("scaled-dacapo:32")
            .build()
            .unwrap();
        assert_eq!(config.platform, PlatformSpec::Named("scaled-dacapo:32".into()));
        let rates = config.platform_rates().unwrap();
        assert_eq!(rates.tsa_rows() + rates.bsa_rows(), 32);
        // Unregistered names fail at build time, not at session construction.
        let err = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .platform("quantum-annealer")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("quantum-annealer"), "{err}");
    }

    #[test]
    fn builder_attaches_and_validates_the_edge_tier() {
        let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .edge(EdgeConfig::new("lte:20,30"))
            .build()
            .unwrap();
        assert_eq!(config.edge.as_ref().unwrap().uplink, "lte:20,30");
        // Default is purely local.
        let plain = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).build().unwrap();
        assert!(plain.edge.is_none());
        // Bad edge settings fail at build time.
        let err = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .edge(EdgeConfig::new("no-such-uplink"))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no-such-uplink"), "{err}");
        assert!(SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .edge(EdgeConfig::new("lte").filter_threshold(2.0))
            .build()
            .is_err());
    }

    #[test]
    fn builder_threads_the_accelerator_config_to_named_platforms() {
        let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
            .platform("dacapo")
            .accelerator(AccelConfig::scaled_32x32())
            .build()
            .unwrap();
        let rates = config.platform_rates().unwrap();
        assert_eq!(rates.tsa_rows() + rates.bsa_rows(), 32);
        assert_eq!(config.accel, AccelConfig::scaled_32x32());
    }
}
