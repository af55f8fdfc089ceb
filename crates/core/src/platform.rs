//! Execution platforms behind the pluggable platform registry.
//!
//! The continuous-learning engine is platform-agnostic: it only ever consumes
//! a [`PlatformRates`] capability sheet — per-kernel [`KernelRate`]s
//! (throughput + arithmetic precision) for inference, labeling, and
//! retraining, a [`Sharing`] mode describing how the kernels contend for the
//! hardware, and a power draw. Where those capabilities come from is
//! open-ended, mirroring the scheduler registry in [`crate::sched`]:
//!
//! * The builtin [`PlatformKind`]s reproduce the paper's baseline matrix
//!   (the spatially-partitioned DaCapo accelerator, the Jetson Orin at its
//!   60 W and 30 W power modes, and the RTX 3090).
//! * External crates [`register`] a name and a
//!   `Fn(&PlatformRequest<'_>) -> Result<PlatformRates>` that builds the
//!   sheet, and select it by name via [`PlatformSpec::Named`] (the
//!   `SimConfig` builder accepts a `&str` platform directly) — no enum
//!   variant required.
//! * A platform name may carry a `:<params>` suffix that is forwarded to the
//!   build function, so one name describes a whole hardware family:
//!   `"scaled-dacapo:32"` builds a 32×32-DPE DaCapo chip, `"orin-dvfs:45"`
//!   a Jetson Orin pinned to a 45 W DVFS operating point.
//!
//! Builtin platforms are pre-registered under their lower-cased display
//! names (`"dacapo"`, `"orin-high"`, `"orin-low"`, `"rtx-3090"`), plus the
//! two parameterised families `"orin-dvfs"` and `"scaled-dacapo"`.

use crate::registry::{no_params, Registry};
use crate::{CoreError, Result};
use dacapo_accel::estimator::{estimate, spatial_allocation, PrecisionPlan};
use dacapo_accel::gpu::{GpuDevice, UtilizationProfile};
use dacapo_accel::power::PowerModel;
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_dnn::workload::{unit_costs, Kernel};
use dacapo_dnn::zoo::ModelPair;
use dacapo_dnn::QuantMode;
use dacapo_mx::MxPrecision;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Predefined execution platforms, matching the hardware column of the
/// paper's baseline matrix (Section VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// The DaCapo accelerator, spatially partitioned by the offline allocator.
    DaCapo,
    /// Jetson Orin at the default 60 W power mode.
    OrinHigh,
    /// Jetson Orin constrained to 30 W.
    OrinLow,
    /// RTX 3090 (used by the Figure 2 motivation study).
    Rtx3090,
}

impl PlatformKind {
    /// All builtin platform kinds. This is the single source of truth the
    /// platform registry is seeded from.
    pub const ALL: [PlatformKind; 4] = [
        PlatformKind::DaCapo,
        PlatformKind::OrinHigh,
        PlatformKind::OrinLow,
        PlatformKind::Rtx3090,
    ];

    /// The canonical registry name: the lower-cased display name (e.g.
    /// `"orin-high"`), the same convention the scheduler registry uses.
    #[must_use]
    pub fn registry_name(self) -> String {
        self.to_string().to_lowercase()
    }
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformKind::DaCapo => write!(f, "DaCapo"),
            PlatformKind::OrinHigh => write!(f, "Orin-High"),
            PlatformKind::OrinLow => write!(f, "Orin-Low"),
            PlatformKind::Rtx3090 => write!(f, "RTX-3090"),
        }
    }
}

/// Throughput and arithmetic-precision capability of one kernel on a
/// platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelRate {
    /// Sustained throughput in kernel units per second: frames for
    /// inference, samples for labeling and retraining.
    pub units_per_s: f64,
    /// Arithmetic mode the kernel executes in.
    pub quant: QuantMode,
}

impl KernelRate {
    /// An FP32 kernel rate (the GPU baselines).
    #[must_use]
    pub fn fp32(units_per_s: f64) -> Self {
        Self { units_per_s, quant: QuantMode::Fp32 }
    }

    /// An MX block-floating-point kernel rate (DaCapo-style accelerators).
    #[must_use]
    pub fn mx(units_per_s: f64, precision: MxPrecision) -> Self {
        Self { units_per_s, quant: QuantMode::Mx(precision) }
    }

    fn validate(&self, kernel: &str) -> Result<()> {
        if !self.units_per_s.is_finite() || self.units_per_s < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "{kernel} rate must be finite and non-negative, got {}",
                    self.units_per_s
                ),
            });
        }
        Ok(())
    }
}

/// How the three kernels contend for a platform's compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sharing {
    /// Dedicated sub-accelerators: inference owns the B-SA while labeling
    /// and retraining time-share the T-SA (the DaCapo spatial partition).
    /// Inference never eats into labeling/retraining throughput.
    Partitioned {
        /// Rows assigned to the T-SA (labeling + retraining).
        tsa_rows: usize,
        /// Rows assigned to the B-SA (inference).
        bsa_rows: usize,
    },
    /// All three kernels time-share one device (the GPU baselines): the
    /// simulator first charges inference its share of each second and scales
    /// the other kernels' rates by what is left.
    TimeShared,
}

/// Kernel execution capabilities of a platform: what the continuous-learning
/// engine needs to know about the hardware, and nothing else.
///
/// Rates are constructed by registered platforms (or the [`Self::new`]
/// constructor, which validates every capability) rather than by poking
/// public fields, so an engine never sees NaN throughputs, negative power,
/// or a zero-row spatial partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformRates {
    name: String,
    inference: KernelRate,
    labeling: KernelRate,
    retraining: KernelRate,
    sharing: Sharing,
    power_watts: f64,
}

impl PlatformRates {
    /// Builds a validated capability sheet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the name is empty, any kernel
    /// rate is negative or non-finite, the power draw is negative or
    /// non-finite, or a spatial partition has a zero-row sub-accelerator.
    pub fn new(
        name: impl Into<String>,
        inference: KernelRate,
        labeling: KernelRate,
        retraining: KernelRate,
        sharing: Sharing,
        power_watts: f64,
    ) -> Result<Self> {
        let rates =
            Self { name: name.into(), inference, labeling, retraining, sharing, power_watts };
        rates.validate()?;
        Ok(rates)
    }

    /// Re-checks the capability invariants [`Self::new`] enforces. Needed
    /// for sheets that did not pass through the constructor — deserialized
    /// [`PlatformSpec::Rates`] values — before the engine consumes them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] under the same conditions as
    /// [`Self::new`].
    pub fn validate(&self) -> Result<()> {
        if self.name.trim().is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "platform name must not be empty".into(),
            });
        }
        self.inference.validate("inference")?;
        self.labeling.validate("labeling")?;
        self.retraining.validate("retraining")?;
        if !self.power_watts.is_finite() || self.power_watts < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "platform '{}' power must be finite and non-negative, got {}",
                    self.name, self.power_watts
                ),
            });
        }
        if let Sharing::Partitioned { tsa_rows, bsa_rows } = self.sharing {
            if tsa_rows == 0 || bsa_rows == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "platform '{}' spatial partition needs rows in both \
                         sub-accelerators, got T-SA {tsa_rows} / B-SA {bsa_rows}",
                        self.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Derives the rates for a builtin platform, model pair, and frame rate.
    /// For [`PlatformKind::DaCapo`] this runs the offline spatial allocator
    /// on `accel`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-finite or non-positive
    /// frame rate and [`CoreError::Accel`] if the accelerator configuration
    /// is invalid or cannot sustain the frame rate.
    pub fn for_kind(
        kind: PlatformKind,
        pair: ModelPair,
        fps: f64,
        accel: &AccelConfig,
    ) -> Result<Self> {
        validate_fps(fps)?;
        match kind {
            PlatformKind::DaCapo => Self::dacapo(pair, fps, accel),
            PlatformKind::OrinHigh => Self::gpu(GpuDevice::jetson_orin_high(), pair),
            PlatformKind::OrinLow => Self::gpu(GpuDevice::jetson_orin_low(), pair),
            PlatformKind::Rtx3090 => Self::gpu(GpuDevice::rtx_3090(), pair),
        }
    }

    /// Rates of a DaCapo accelerator partitioned by the offline spatial
    /// allocator (minimum B-SA rows that sustain `fps`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-finite or non-positive
    /// frame rate and [`CoreError::Accel`] if the configuration is invalid
    /// or no partition sustains the frame rate.
    pub fn dacapo(pair: ModelPair, fps: f64, accel: &AccelConfig) -> Result<Self> {
        validate_fps(fps)?;
        let accelerator = DaCapoAccelerator::new(*accel)?;
        let plan = PrecisionPlan::default();
        let tsa_rows = spatial_allocation(&accelerator, pair, fps, &plan)?;
        Self::dacapo_with_tsa_rows(pair, tsa_rows, accel)
    }

    /// Rates of a DaCapo accelerator with an explicit T-SA row count (used by
    /// ablations that bypass the spatial allocator).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Accel`] for invalid configurations or
    /// degenerate partitions.
    pub fn dacapo_with_tsa_rows(
        pair: ModelPair,
        tsa_rows: usize,
        accel: &AccelConfig,
    ) -> Result<Self> {
        let accelerator = DaCapoAccelerator::new(*accel)?;
        let plan = PrecisionPlan::default();
        let est = estimate(&accelerator, pair, tsa_rows, 16, &plan)?;
        let power = PowerModel::for_config(accel);
        Self::new(
            format!("DaCapo ({}x{} DPEs)", accel.rows, accel.cols),
            KernelRate::mx(est.inference_fps, plan.inference),
            KernelRate::mx(est.labeling_samples_per_s, plan.labeling),
            KernelRate::mx(est.retraining_samples_per_s, plan.retraining),
            Sharing::Partitioned { tsa_rows: est.tsa_rows, bsa_rows: est.bsa_rows },
            power.total_power_w(),
        )
    }

    /// Rates of a GPU baseline running all three kernels in FP32 on one
    /// time-shared device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the device's roofline yields
    /// non-finite kernel rates or a negative power draw.
    pub fn gpu(device: GpuDevice, pair: ModelPair) -> Result<Self> {
        let costs = unit_costs(pair);
        Self::new(
            device.name.clone(),
            KernelRate::fp32(device.units_per_second(Kernel::Inference, costs.inference_per_frame)),
            KernelRate::fp32(device.units_per_second(Kernel::Labeling, costs.labeling_per_sample)),
            KernelRate::fp32(
                device.units_per_second(Kernel::Retraining, costs.retraining_per_sample),
            ),
            Sharing::TimeShared,
            device.power_w,
        )
    }

    /// Human-readable platform name (appears in result tables).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The inference kernel's capability.
    #[must_use]
    pub fn inference(&self) -> KernelRate {
        self.inference
    }

    /// The labeling kernel's capability.
    #[must_use]
    pub fn labeling(&self) -> KernelRate {
        self.labeling
    }

    /// The retraining kernel's capability.
    #[must_use]
    pub fn retraining(&self) -> KernelRate {
        self.retraining
    }

    /// How the kernels contend for the platform's compute.
    #[must_use]
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }

    /// Whether the three kernels time-share one device (GPU) rather than
    /// running on dedicated sub-accelerators (DaCapo).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.sharing == Sharing::TimeShared
    }

    /// Board/chip power in watts while busy.
    #[must_use]
    pub fn power_watts(&self) -> f64 {
        self.power_watts
    }

    /// Maximum student-inference frame rate the inference resources sustain.
    #[must_use]
    pub fn inference_fps_capacity(&self) -> f64 {
        self.inference.units_per_s
    }

    /// Teacher labeling throughput in samples/second when labeling runs.
    #[must_use]
    pub fn labeling_sps(&self) -> f64 {
        self.labeling.units_per_s
    }

    /// Student retraining throughput in samples/second when retraining runs.
    #[must_use]
    pub fn retraining_sps(&self) -> f64 {
        self.retraining.units_per_s
    }

    /// Arithmetic mode of the student's inference passes.
    #[must_use]
    pub fn inference_quant(&self) -> QuantMode {
        self.inference.quant
    }

    /// Arithmetic mode of the student's retraining passes.
    #[must_use]
    pub fn training_quant(&self) -> QuantMode {
        self.retraining.quant
    }

    /// Rows assigned to the T-SA (zero for time-shared platforms).
    #[must_use]
    pub fn tsa_rows(&self) -> usize {
        match self.sharing {
            Sharing::Partitioned { tsa_rows, .. } => tsa_rows,
            Sharing::TimeShared => 0,
        }
    }

    /// Rows assigned to the B-SA (zero for time-shared platforms).
    #[must_use]
    pub fn bsa_rows(&self) -> usize {
        match self.sharing {
            Sharing::Partitioned { bsa_rows, .. } => bsa_rows,
            Sharing::TimeShared => 0,
        }
    }

    /// Fraction of a shared device consumed by inference at the given frame
    /// rate (zero for DaCapo, whose B-SA is dedicated to inference).
    #[must_use]
    pub fn inference_share(&self, fps: f64) -> f64 {
        if !self.is_shared() || self.inference.units_per_s <= 0.0 {
            return 0.0;
        }
        (fps / self.inference.units_per_s).min(1.0)
    }

    /// Fraction of streamed frames dropped because inference cannot keep up.
    #[must_use]
    pub fn frame_drop_rate(&self, fps: f64) -> f64 {
        if self.inference.units_per_s >= fps {
            0.0
        } else {
            1.0 - self.inference.units_per_s / fps
        }
    }

    /// Effective labeling rate after inference has taken its share of a
    /// shared device.
    #[must_use]
    pub fn effective_labeling_sps(&self, fps: f64) -> f64 {
        self.labeling.units_per_s * (1.0 - self.inference_share(fps))
    }

    /// Effective retraining rate after inference has taken its share of a
    /// shared device.
    #[must_use]
    pub fn effective_retraining_sps(&self, fps: f64) -> f64 {
        self.retraining.units_per_s * (1.0 - self.inference_share(fps))
    }

    /// Energy in joules for `seconds` of operation.
    #[must_use]
    pub fn energy_joules(&self, seconds: f64) -> f64 {
        self.power_watts * seconds
    }
}

/// Validates a stream frame rate before it reaches a build function.
fn validate_fps(fps: f64) -> Result<()> {
    if !fps.is_finite() || fps <= 0.0 {
        return Err(CoreError::InvalidConfig {
            reason: format!("stream frame rate must be finite and positive, got {fps}"),
        });
    }
    Ok(())
}

/// Everything a registered platform gets to build a capability sheet from.
#[derive(Debug, Clone, Copy)]
pub struct PlatformRequest<'a> {
    /// The (student, teacher) model pair that will run on the platform.
    pub pair: ModelPair,
    /// Input stream frame rate the platform must serve (validated finite and
    /// positive before any build function sees it).
    pub fps: f64,
    /// Accelerator hardware configuration, honoured by DaCapo-family
    /// platforms (others are free to ignore it).
    pub accel: &'a AccelConfig,
    /// Parameter suffix of the spec name, if any (`"scaled-dacapo:32"`
    /// resolves the `"scaled-dacapo"` platform with params `Some("32")`).
    pub params: Option<&'a str>,
}

/// How a registered platform builds its capability sheet. It must validate
/// its inputs (including [`PlatformRequest::params`]) and return
/// [`CoreError`] rather than panicking or producing non-finite rates.
type Build = dyn Fn(&PlatformRequest<'_>) -> Result<PlatformRates> + Send + Sync;

/// The Jetson Orin's DVFS envelope, used by the `"orin-dvfs"` platform:
/// power targets between 15 W and the 60 W default. The curve is anchored
/// at the paper's two published operating points — 30 W at 624.8 MHz and
/// 60 W at 1.3 GHz — interpolated linearly between them and scaled
/// proportionally below the 30 W anchor.
const ORIN_DVFS_MIN_W: f64 = 15.0;
const ORIN_DVFS_LOW_W: f64 = 30.0;
const ORIN_DVFS_LOW_FREQUENCY_MHZ: f64 = 624.8;
const ORIN_DVFS_MAX_W: f64 = 60.0;
const ORIN_MAX_FREQUENCY_MHZ: f64 = 1300.0;
const ORIN_PEAK_FP32_TFLOPS: f64 = 5.32;

/// `"orin-dvfs:<watts>"`: a Jetson Orin pinned to an arbitrary DVFS power
/// target, interpolating the discrete 30 W / 60 W modes of the paper into a
/// continuous low-power curve (defaults to 45 W). At the anchors the curve
/// reproduces the stock `orin-low` / `orin-high` throughputs exactly.
fn orin_dvfs(request: &PlatformRequest<'_>) -> Result<PlatformRates> {
    let watts = match request.params {
        None => 45.0,
        Some(raw) => raw.trim().parse::<f64>().map_err(|_| CoreError::InvalidConfig {
            reason: format!("orin-dvfs expects a power target in watts, got ':{raw}'"),
        })?,
    };
    if !watts.is_finite() || !(ORIN_DVFS_MIN_W..=ORIN_DVFS_MAX_W).contains(&watts) {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "orin-dvfs power target must lie in [{ORIN_DVFS_MIN_W}, {ORIN_DVFS_MAX_W}] W, \
                     got {watts}"
            ),
        });
    }
    let frequency_mhz = if watts >= ORIN_DVFS_LOW_W {
        ORIN_DVFS_LOW_FREQUENCY_MHZ
            + (ORIN_MAX_FREQUENCY_MHZ - ORIN_DVFS_LOW_FREQUENCY_MHZ) * (watts - ORIN_DVFS_LOW_W)
                / (ORIN_DVFS_MAX_W - ORIN_DVFS_LOW_W)
    } else {
        ORIN_DVFS_LOW_FREQUENCY_MHZ * watts / ORIN_DVFS_LOW_W
    };
    let device = GpuDevice {
        name: format!("Jetson Orin (DVFS {watts:.0}W)"),
        peak_fp32_tflops: ORIN_PEAK_FP32_TFLOPS * frequency_mhz / ORIN_MAX_FREQUENCY_MHZ,
        memory_bandwidth_gbps: 204.8,
        power_w: watts,
        frequency_mhz,
        utilization: UtilizationProfile::default(),
    };
    PlatformRates::gpu(device, request.pair)
}

/// `"scaled-dacapo:<rows>"`: a DaCapo accelerator scaled to `rows`×`rows`
/// DPEs (defaults to the paper's 32×32 scale-up). [`PlatformRequest::accel`]
/// is the scaling base: its frequency and DRAM bandwidth carry over
/// unchanged and its SRAM scales proportionally with the DPE count, so
/// `.accelerator(..)` overrides compose with the row parameter.
fn scaled_dacapo(request: &PlatformRequest<'_>) -> Result<PlatformRates> {
    let rows = match request.params {
        None => 32,
        Some(raw) => raw.trim().parse::<usize>().map_err(|_| CoreError::InvalidConfig {
            reason: format!("scaled-dacapo expects a DPE row count, got ':{raw}'"),
        })?,
    };
    if !(2..=256).contains(&rows) {
        return Err(CoreError::InvalidConfig {
            reason: format!("scaled-dacapo needs between 2 and 256 DPE rows, got {rows}"),
        });
    }
    let base = *request.accel;
    let accel = AccelConfig {
        rows,
        cols: rows,
        sram_bytes: base.sram_bytes * (rows * rows) / (base.rows * base.cols).max(1),
        ..base
    };
    PlatformRates::dacapo(request.pair, request.fps, &accel)
}

/// The global platform registry, seeded with the builtin kinds and the two
/// parameterised builtin families; storage and lookup rules live in
/// [`crate::registry`].
fn registry() -> &'static Registry<Build> {
    static REGISTRY: OnceLock<Registry<Build>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let registry: Registry<Build> = Registry::new("platform", &[]);
        for kind in PlatformKind::ALL {
            registry.register(
                &kind.registry_name(),
                Arc::new(move |request: &PlatformRequest<'_>| {
                    no_params("platform", &kind.registry_name(), request.params)
                        .map_err(|reason| CoreError::InvalidConfig { reason })?;
                    PlatformRates::for_kind(kind, request.pair, request.fps, request.accel)
                }),
            );
        }
        registry.register("orin-dvfs", Arc::new(orin_dvfs));
        registry.register("scaled-dacapo", Arc::new(scaled_dacapo));
        registry
    })
}

/// Registers (or replaces) the platform `build` describes under the
/// case-insensitive base `name`.
///
/// # Panics
///
/// Panics if `name` contains `':'` — the colon introduces the parameter
/// suffix during lookup, so such a name could never be resolved.
pub fn register(
    name: &str,
    build: impl Fn(&PlatformRequest<'_>) -> Result<PlatformRates> + Send + Sync + 'static,
) {
    registry().register(name, Arc::new(build));
}

/// The base names of every registered platform, sorted.
#[must_use]
pub fn registered_names() -> Vec<String> {
    registry().names()
}

/// How a `SimConfig` selects its execution platform: a builtin kind, a
/// registered platform by name (with an optional `:<params>` suffix), or an
/// explicit capability sheet.
///
/// `Kind(k)` builds the builtin directly; `Named(s)` resolves through the
/// registry, so a custom platform [`register`]ed over a builtin name wins
/// for the named form. Equality is structural: `Named("orin-high")` and
/// `Kind(PlatformKind::OrinHigh)` select the same platform but are
/// different specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlatformSpec {
    /// One of the paper's builtin platforms.
    Kind(PlatformKind),
    /// A platform resolved through the registry at session construction,
    /// optionally parameterised (`"scaled-dacapo:32"`).
    Named(String),
    /// Explicit, pre-built platform rates.
    Rates(PlatformRates),
}

impl PlatformSpec {
    /// Resolves the spec into a capability sheet for the given workload.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid frame rate, an
    /// unregistered platform name, or invalid platform parameters, and
    /// propagates build errors (e.g. an infeasible spatial allocation).
    pub fn resolve(&self, pair: ModelPair, fps: f64, accel: &AccelConfig) -> Result<PlatformRates> {
        validate_fps(fps)?;
        match self {
            PlatformSpec::Kind(kind) => PlatformRates::for_kind(*kind, pair, fps, accel),
            PlatformSpec::Named(name) => {
                let (build, params) = registry()
                    .resolve(name)
                    .map_err(|reason| CoreError::InvalidConfig { reason })?;
                build(&PlatformRequest { pair, fps, accel, params })
            }
            PlatformSpec::Rates(rates) => {
                // Explicit rates may come from deserialized configs that
                // never passed through `PlatformRates::new` — re-check the
                // invariants before the engine consumes them.
                rates.validate()?;
                Ok(rates.clone())
            }
        }
    }
}

impl PartialEq<PlatformKind> for PlatformSpec {
    fn eq(&self, other: &PlatformKind) -> bool {
        *self == PlatformSpec::Kind(*other)
    }
}

impl From<PlatformKind> for PlatformSpec {
    fn from(kind: PlatformKind) -> Self {
        PlatformSpec::Kind(kind)
    }
}

impl From<&str> for PlatformSpec {
    fn from(name: &str) -> Self {
        PlatformSpec::Named(name.to_string())
    }
}

impl From<String> for PlatformSpec {
    fn from(name: String) -> Self {
        PlatformSpec::Named(name)
    }
}

impl From<PlatformRates> for PlatformSpec {
    fn from(rates: PlatformRates) -> Self {
        PlatformSpec::Rates(rates)
    }
}

impl fmt::Display for PlatformSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformSpec::Kind(kind) => write!(f, "{kind}"),
            PlatformSpec::Named(name) => write!(f, "{name}"),
            PlatformSpec::Rates(rates) => write!(f, "{}", rates.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dacapo_platform_sustains_30fps_for_every_pair() {
        let accel = AccelConfig::default();
        for pair in ModelPair::ALL {
            let rates = PlatformRates::dacapo(pair, 30.0, &accel).unwrap();
            assert!(rates.inference_fps_capacity() >= 30.0, "{pair}");
            assert!(!rates.is_shared());
            assert_eq!(rates.tsa_rows() + rates.bsa_rows(), 16, "{pair}");
            assert!(rates.labeling_sps() > 0.0 && rates.retraining_sps() > 0.0);
            assert!((rates.power_watts() - 0.236).abs() < 1e-9);
            assert_eq!(rates.frame_drop_rate(30.0), 0.0, "{pair}");
        }
    }

    #[test]
    fn gpu_platforms_are_shared_and_fp32() {
        let rates =
            PlatformRates::gpu(GpuDevice::jetson_orin_high(), ModelPair::ResNet18Wrn50).unwrap();
        assert!(rates.is_shared());
        assert_eq!(rates.inference_quant(), QuantMode::Fp32);
        assert_eq!(rates.training_quant(), QuantMode::Fp32);
        assert_eq!(rates.power_watts(), 60.0);
        assert_eq!(rates.tsa_rows(), 0);
        assert_eq!(rates.sharing(), Sharing::TimeShared);
    }

    #[test]
    fn power_ratio_between_orin_and_dacapo_matches_paper() {
        let accel = AccelConfig::default();
        let dacapo = PlatformRates::dacapo(ModelPair::ResNet18Wrn50, 30.0, &accel).unwrap();
        let orin =
            PlatformRates::gpu(GpuDevice::jetson_orin_high(), ModelPair::ResNet18Wrn50).unwrap();
        let ratio = orin.power_watts() / dacapo.power_watts();
        assert!((ratio - 254.0).abs() < 2.0, "power ratio {ratio}");
    }

    #[test]
    fn inference_share_and_leftover_scale_gpu_rates() {
        let rates =
            PlatformRates::gpu(GpuDevice::jetson_orin_low(), ModelPair::ResNet34Wrn101).unwrap();
        let share = rates.inference_share(30.0);
        assert!(share > 0.3, "heavy student should eat a large share, got {share}");
        assert!(rates.effective_labeling_sps(30.0) < rates.labeling_sps());
        assert!(rates.effective_retraining_sps(30.0) < rates.retraining_sps());
        // DaCapo never charges inference against T-SA work.
        let accel = AccelConfig::default();
        let dacapo = PlatformRates::dacapo(ModelPair::ResNet34Wrn101, 30.0, &accel).unwrap();
        assert_eq!(dacapo.inference_share(30.0), 0.0);
        assert_eq!(dacapo.effective_labeling_sps(30.0), dacapo.labeling_sps());
    }

    #[test]
    fn orin_low_has_less_leftover_than_orin_high() {
        let pair = ModelPair::ResNet34Wrn101;
        let high = PlatformRates::gpu(GpuDevice::jetson_orin_high(), pair).unwrap();
        let low = PlatformRates::gpu(GpuDevice::jetson_orin_low(), pair).unwrap();
        assert!(low.effective_retraining_sps(30.0) < high.effective_retraining_sps(30.0));
        assert!(low.effective_labeling_sps(30.0) < high.effective_labeling_sps(30.0));
    }

    #[test]
    fn frame_drops_appear_when_capacity_is_insufficient() {
        let rates = PlatformRates::new(
            "slow",
            KernelRate::fp32(15.0),
            KernelRate::fp32(1.0),
            KernelRate::fp32(1.0),
            Sharing::TimeShared,
            10.0,
        )
        .unwrap();
        assert!((rates.frame_drop_rate(30.0) - 0.5).abs() < 1e-9);
        assert_eq!(rates.inference_share(30.0), 1.0);
        assert_eq!(rates.effective_retraining_sps(30.0), 0.0);
    }

    #[test]
    fn for_kind_covers_all_platforms() {
        let accel = AccelConfig::default();
        for kind in PlatformKind::ALL {
            let rates =
                PlatformRates::for_kind(kind, ModelPair::ResNet18Wrn50, 30.0, &accel).unwrap();
            assert!(!rates.name().is_empty());
            assert!(rates.power_watts() > 0.0);
        }
    }

    #[test]
    fn energy_is_power_times_time() {
        let rates = PlatformRates::gpu(GpuDevice::rtx_3090(), ModelPair::ResNet18Wrn50).unwrap();
        assert!((rates.energy_joules(10.0) - 3500.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_capabilities_are_rejected_at_construction() {
        let good = KernelRate::fp32(10.0);
        let build = |inference: KernelRate, sharing: Sharing, power: f64| {
            PlatformRates::new("bad", inference, good, good, sharing, power)
        };
        assert!(build(KernelRate::fp32(f64::NAN), Sharing::TimeShared, 1.0).is_err());
        assert!(build(KernelRate::fp32(f64::INFINITY), Sharing::TimeShared, 1.0).is_err());
        assert!(build(KernelRate::fp32(-1.0), Sharing::TimeShared, 1.0).is_err());
        assert!(build(good, Sharing::TimeShared, f64::NAN).is_err());
        assert!(build(good, Sharing::TimeShared, -2.0).is_err());
        assert!(build(good, Sharing::Partitioned { tsa_rows: 0, bsa_rows: 4 }, 1.0).is_err());
        assert!(build(good, Sharing::Partitioned { tsa_rows: 4, bsa_rows: 0 }, 1.0).is_err());
        assert!(PlatformRates::new("", good, good, good, Sharing::TimeShared, 1.0).is_err());
        assert!(build(good, Sharing::Partitioned { tsa_rows: 8, bsa_rows: 8 }, 1.0).is_ok());
    }

    #[test]
    fn non_finite_frame_rates_error_for_every_builtin() {
        let accel = AccelConfig::default();
        for kind in PlatformKind::ALL {
            for fps in [f64::NAN, f64::INFINITY, 0.0, -30.0] {
                let result = PlatformRates::for_kind(kind, ModelPair::ResNet18Wrn50, fps, &accel);
                assert!(result.is_err(), "{kind} accepted fps {fps}");
            }
        }
    }

    #[test]
    fn builtin_platforms_are_registered_by_display_name() {
        let names = registered_names();
        for kind in PlatformKind::ALL {
            assert!(names.contains(&kind.registry_name()), "{kind} missing from {names:?}");
        }
        // Lookup is case-insensitive and ignores parameter suffixes.
        let resolve = |name: &str| {
            PlatformSpec::Named(name.into()).resolve(
                ModelPair::ResNet18Wrn50,
                30.0,
                &AccelConfig::default(),
            )
        };
        assert_eq!(resolve("DACAPO").unwrap(), resolve("dacapo").unwrap());
        assert!(resolve("scaled-dacapo:32").is_ok());
        assert!(resolve("no-such-platform").is_err());
        assert!(!names.contains(&"no-such-platform".to_string()));
        assert!(names.len() >= 6);
        assert!(names.contains(&"orin-dvfs".to_string()));
    }

    #[test]
    fn named_specs_resolve_bit_identically_to_kinds() {
        let accel = AccelConfig::default();
        for kind in PlatformKind::ALL {
            let by_kind =
                PlatformSpec::Kind(kind).resolve(ModelPair::ResNet18Wrn50, 30.0, &accel).unwrap();
            let by_name = PlatformSpec::Named(kind.registry_name())
                .resolve(ModelPair::ResNet18Wrn50, 30.0, &accel)
                .unwrap();
            assert_eq!(by_kind, by_name, "{kind}");
        }
    }

    #[test]
    fn builtin_providers_reject_parameter_suffixes() {
        let accel = AccelConfig::default();
        let err = PlatformSpec::Named("dacapo:16".into())
            .resolve(ModelPair::ResNet18Wrn50, 30.0, &accel)
            .unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn orin_dvfs_interpolates_the_power_curve() {
        let accel = AccelConfig::default();
        let resolve = |name: &str| {
            PlatformSpec::Named(name.into()).resolve(ModelPair::ResNet18Wrn50, 30.0, &accel)
        };
        let full = resolve("orin-dvfs:60").unwrap();
        let high = resolve("orin-high").unwrap();
        // At the published anchors the DVFS curve reproduces the stock
        // Orin-High / Orin-Low throughputs exactly.
        assert_eq!(full.inference_fps_capacity(), high.inference_fps_capacity());
        assert_eq!(full.power_watts(), high.power_watts());
        let anchor_low = resolve("orin-dvfs:30").unwrap();
        let orin_low = resolve("orin-low").unwrap();
        assert_eq!(anchor_low.inference_fps_capacity(), orin_low.inference_fps_capacity());
        assert_eq!(anchor_low.labeling_sps(), orin_low.labeling_sps());
        assert_eq!(anchor_low.retraining_sps(), orin_low.retraining_sps());
        assert_eq!(anchor_low.power_watts(), orin_low.power_watts());
        let mid = resolve("orin-dvfs:45").unwrap();
        let default = resolve("orin-dvfs").unwrap();
        assert_eq!(mid, default, "the parameterless default is 45 W");
        let low = resolve("orin-dvfs:20").unwrap();
        assert!(low.power_watts() < mid.power_watts());
        assert!(low.inference_fps_capacity() < mid.inference_fps_capacity());
        assert!(mid.inference_fps_capacity() < full.inference_fps_capacity());
        // Out-of-envelope or malformed targets are rejected, not clamped.
        assert!(resolve("orin-dvfs:5").is_err());
        assert!(resolve("orin-dvfs:120").is_err());
        assert!(resolve("orin-dvfs:warp").is_err());
        assert!(resolve("orin-dvfs:NaN").is_err());
    }

    #[test]
    fn scaled_dacapo_grows_the_array() {
        let accel = AccelConfig::default();
        let resolve = |name: &str| {
            PlatformSpec::Named(name.into()).resolve(ModelPair::ResNet18Wrn50, 30.0, &accel)
        };
        let stock = resolve("dacapo").unwrap();
        let scaled = resolve("scaled-dacapo:32").unwrap();
        assert_eq!(scaled, resolve("scaled-dacapo").unwrap(), "default is the 32x32 scale-up");
        assert_eq!(scaled.tsa_rows() + scaled.bsa_rows(), 32);
        assert!(scaled.retraining_sps() > stock.retraining_sps());
        assert!(scaled.power_watts() > stock.power_watts());
        assert!(scaled.name().contains("32x32"), "{}", scaled.name());
        // Scaling to the stock row count reproduces the stock chip.
        assert_eq!(resolve("scaled-dacapo:16").unwrap(), stock);
        // The request's accel config is the scaling base, so `.accelerator`
        // overrides (here a doubled clock) carry through the row parameter.
        let fast = AccelConfig { frequency_hz: 1e9, ..AccelConfig::default() };
        let fast_rates = PlatformSpec::Named("scaled-dacapo:32".into())
            .resolve(ModelPair::ResNet18Wrn50, 30.0, &fast)
            .unwrap();
        assert!(fast_rates.retraining_sps() > scaled.retraining_sps());
        // Zero or degenerate row counts are validation errors.
        assert!(resolve("scaled-dacapo:0").is_err());
        assert!(resolve("scaled-dacapo:1").is_err());
        assert!(resolve("scaled-dacapo:many").is_err());
    }

    #[test]
    fn deserialized_rates_specs_are_validated_at_resolution() {
        // Simulates a hand-edited or deserialized config whose rates never
        // passed through `PlatformRates::new`: the struct literal is only
        // reachable inside this crate, like serde's derived Deserialize.
        let bogus = PlatformRates {
            name: "bogus".into(),
            inference: KernelRate::fp32(f64::NAN),
            labeling: KernelRate::fp32(1.0),
            retraining: KernelRate::fp32(1.0),
            sharing: Sharing::TimeShared,
            power_watts: 1.0,
        };
        let err = PlatformSpec::Rates(bogus)
            .resolve(ModelPair::ResNet18Wrn50, 30.0, &AccelConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("inference rate"), "{err}");
        let negative_power = PlatformRates {
            name: "bogus".into(),
            inference: KernelRate::fp32(60.0),
            labeling: KernelRate::fp32(1.0),
            retraining: KernelRate::fp32(1.0),
            sharing: Sharing::TimeShared,
            power_watts: -5.0,
        };
        assert!(negative_power.validate().is_err());
    }

    #[test]
    fn external_providers_plug_in_through_the_registry() {
        // A platform no builtin enum variant knows about.
        register("photonic", |request| {
            PlatformRates::new(
                "Photonic Mesh",
                KernelRate::fp32(8.0 * request.fps),
                KernelRate::fp32(64.0),
                KernelRate::fp32(256.0),
                Sharing::TimeShared,
                0.5,
            )
        });
        let spec = PlatformSpec::from("photonic");
        let rates = spec.resolve(ModelPair::ResNet18Wrn50, 30.0, &AccelConfig::default()).unwrap();
        assert_eq!(rates.name(), "Photonic Mesh");
        assert_eq!(rates.inference_fps_capacity(), 240.0);
        assert_eq!(rates.power_watts(), 0.5);
    }

    #[test]
    fn unknown_platform_names_fail_cleanly() {
        let spec = PlatformSpec::Named("does-not-exist".to_string());
        let err =
            spec.resolve(ModelPair::ResNet18Wrn50, 30.0, &AccelConfig::default()).unwrap_err();
        assert!(err.to_string().contains("does-not-exist"), "{err}");
        assert!(err.to_string().contains("registered platform names"), "{err}");
    }

    #[test]
    fn spec_equality_is_semantic_across_kind_and_name_forms() {
        // Selection is semantic: a builtin named in any case resolves to its
        // kind's sheet, and a parameterised name never to a builtin's.
        // Equality is structural: a name never equals a kind.
        let accel = AccelConfig::default();
        let resolve =
            |spec: PlatformSpec| spec.resolve(ModelPair::ResNet18Wrn50, 30.0, &accel).unwrap();
        let dacapo = resolve(PlatformKind::DaCapo.into());
        assert_eq!(resolve("dacapo".into()), dacapo);
        assert_eq!(resolve("Orin-High".into()), resolve(PlatformKind::OrinHigh.into()));
        assert_ne!(resolve("scaled-dacapo:32".into()), dacapo);
        assert_ne!(PlatformSpec::from("orin-high"), PlatformSpec::Kind(PlatformKind::OrinLow));
        assert_ne!(PlatformSpec::from("scaled-dacapo:32"), PlatformSpec::from("scaled-dacapo:64"));
        assert_ne!(
            PlatformSpec::from("scaled-dacapo:32"),
            PlatformSpec::Kind(PlatformKind::DaCapo)
        );
        // Explicit rates compare structurally, never against names or kinds.
        let rates = PlatformRates::new(
            "inline",
            KernelRate::fp32(60.0),
            KernelRate::fp32(10.0),
            KernelRate::fp32(10.0),
            Sharing::TimeShared,
            1.0,
        )
        .unwrap();
        assert_eq!(PlatformSpec::from(rates.clone()), PlatformSpec::Rates(rates.clone()));
        assert_ne!(PlatformSpec::from(rates), PlatformSpec::Kind(PlatformKind::DaCapo));
    }

    #[test]
    fn specs_display_like_their_selection() {
        assert_eq!(PlatformSpec::Kind(PlatformKind::OrinLow).to_string(), "Orin-Low");
        assert_eq!(PlatformSpec::from("scaled-dacapo:32").to_string(), "scaled-dacapo:32");
        let rates = PlatformRates::new(
            "Inline Rates",
            KernelRate::fp32(60.0),
            KernelRate::fp32(10.0),
            KernelRate::fp32(10.0),
            Sharing::TimeShared,
            1.0,
        )
        .unwrap();
        assert_eq!(PlatformSpec::Rates(rates).to_string(), "Inline Rates");
    }

    #[test]
    fn providers_see_the_requested_accelerator_config() {
        // The builtin DaCapo platform honours the accel config in the
        // request, so `.accelerator(..)` keeps working through the registry.
        let scaled = AccelConfig::scaled_32x32();
        let rates = PlatformSpec::Named("dacapo".into())
            .resolve(ModelPair::ResNet18Wrn50, 30.0, &scaled)
            .unwrap();
        assert_eq!(rates.tsa_rows() + rates.bsa_rows(), 32);
    }
}
