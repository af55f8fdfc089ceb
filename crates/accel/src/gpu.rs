//! Roofline-style GPU baseline models (Jetson Orin, RTX 3090).
//!
//! The paper compares DaCapo against continuous-learning systems running on
//! an NVIDIA Jetson Orin (at its 30 W and 60 W power settings) and, for the
//! motivation study of Figure 2, an RTX 3090. The baselines' accuracy is
//! limited by how much kernel work fits into a window, which a throughput
//! model captures: each kernel runs at a fraction of the device's peak FP32
//! throughput determined by an empirical utilisation profile (batch-1
//! inference utilises a GPU far less than batched training does).

use dacapo_dnn::workload::Kernel;
use serde::{Deserialize, Serialize};

/// Achieved fraction of peak FP32 throughput per kernel type.
///
/// These reflect the well-known utilisation gap between small-batch
/// inference and batched training on GPUs; they are calibration knobs, not
/// measurements. The defaults are set to reproduce the paper's premise (the
/// `Default` impl says which), not fitted to a profiled device, so a GPU
/// baseline's absolute throughput and accuracy follow from that calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationProfile {
    /// Batch-1 student inference.
    pub inference: f64,
    /// Batch-1 teacher inference (larger model, slightly better utilisation).
    pub labeling: f64,
    /// Batched (16) SGD retraining.
    pub retraining: f64,
}

impl Default for UtilizationProfile {
    fn default() -> Self {
        // Calibrated so the Jetson Orin reproduces the paper's premise: the
        // student alone fits at 30 FPS, the teacher does not (Figure 2), and
        // little headroom remains for labeling/retraining once inference has
        // taken its share — small-batch eager-mode DNN work on an embedded
        // GPU sustains on the order of 10% of peak FP32.
        Self { inference: 0.09, labeling: 0.10, retraining: 0.11 }
    }
}

impl UtilizationProfile {
    fn for_kernel(&self, kernel: Kernel) -> f64 {
        match kernel {
            Kernel::Inference => self.inference,
            Kernel::Labeling => self.labeling,
            Kernel::Retraining => self.retraining,
        }
    }
}

/// A GPU device described by its roofline parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDevice {
    /// Marketing name plus the power mode, e.g. `"Jetson Orin (60W)"`.
    pub name: String,
    /// Peak FP32 throughput in TFLOPs (2 × MACs).
    pub peak_fp32_tflops: f64,
    /// Memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Board power in watts at this power mode.
    pub power_w: f64,
    /// GPU clock in MHz at this power mode.
    pub frequency_mhz: f64,
    /// Per-kernel achieved utilisation.
    pub utilization: UtilizationProfile,
}

impl GpuDevice {
    /// NVIDIA Jetson AGX Orin at its default 60 W power mode (the paper's
    /// "OrinHigh": 1.3 GHz GPU clock, LPDDR5 at 204.8 GB/s).
    #[must_use]
    pub fn jetson_orin_high() -> Self {
        Self {
            name: "Jetson Orin (60W)".to_string(),
            peak_fp32_tflops: 5.32,
            memory_bandwidth_gbps: 204.8,
            power_w: 60.0,
            frequency_mhz: 1300.0,
            utilization: UtilizationProfile::default(),
        }
    }

    /// Jetson AGX Orin constrained to 30 W (the paper's "OrinLow": the GPU
    /// clock drops to 624.8 MHz, the closest setting to DaCapo's 500 MHz).
    #[must_use]
    pub fn jetson_orin_low() -> Self {
        Self {
            name: "Jetson Orin (30W)".to_string(),
            // Throughput scales with the clock: 5.32 * 624.8 / 1300.
            peak_fp32_tflops: 5.32 * 624.8 / 1300.0,
            memory_bandwidth_gbps: 204.8,
            power_w: 30.0,
            frequency_mhz: 624.8,
            utilization: UtilizationProfile::default(),
        }
    }

    /// NVIDIA RTX 3090 (the datacenter-class GPU of the Figure 2 motivation
    /// study).
    #[must_use]
    pub fn rtx_3090() -> Self {
        Self {
            name: "RTX 3090".to_string(),
            peak_fp32_tflops: 35.6,
            memory_bandwidth_gbps: 936.0,
            power_w: 350.0,
            frequency_mhz: 1695.0,
            utilization: UtilizationProfile::default(),
        }
    }

    /// Effective multiply-accumulate throughput for a kernel, in MAC/s.
    #[must_use]
    pub fn effective_macs_per_second(&self, kernel: Kernel) -> f64 {
        // Peak FLOPs counts multiply and add separately; MACs are half that.
        self.peak_fp32_tflops * 1e12 / 2.0 * self.utilization.for_kernel(kernel)
    }

    /// Sustained throughput in units/second for a per-unit MAC cost.
    #[must_use]
    pub fn units_per_second(&self, kernel: Kernel, macs_per_unit: u64) -> f64 {
        if macs_per_unit == 0 {
            f64::INFINITY
        } else {
            self.effective_macs_per_second(kernel) / macs_per_unit as f64
        }
    }

    /// Energy in joules for keeping the board busy for `seconds`.
    ///
    /// GPU boards idle at a substantial fraction of their power cap; 40 % is
    /// used for the idle floor.
    #[must_use]
    pub fn energy_joules(&self, busy_seconds: f64, idle_seconds: f64) -> f64 {
        self.power_w * busy_seconds + 0.4 * self.power_w * idle_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacapo_dnn::zoo::ModelPair;

    #[test]
    fn presets_have_expected_power_ordering() {
        let high = GpuDevice::jetson_orin_high();
        let low = GpuDevice::jetson_orin_low();
        let rtx = GpuDevice::rtx_3090();
        assert_eq!(high.power_w, 60.0);
        assert_eq!(low.power_w, 30.0);
        assert!(rtx.power_w > high.power_w);
        assert!(high.peak_fp32_tflops > low.peak_fp32_tflops);
        assert!(rtx.peak_fp32_tflops > high.peak_fp32_tflops);
    }

    #[test]
    fn orin_low_clock_matches_paper_description() {
        // The paper pins OrinLow at 624.8 MHz, "the closest to DaCapo's 500 MHz".
        let low = GpuDevice::jetson_orin_low();
        assert!((low.frequency_mhz - 624.8).abs() < 1e-6);
    }

    #[test]
    fn training_utilisation_exceeds_batch1_inference() {
        let u = UtilizationProfile::default();
        assert!(u.retraining > u.labeling);
        assert!(u.labeling > u.inference);
    }

    #[test]
    fn rtx3090_sustains_realtime_inference_but_orin_low_struggles_on_big_pair() {
        // The premise of Figure 2: the datacenter GPU never drops frames while
        // the 30 W Orin is marginal for the ResNet34/WideResNet101 pair once
        // labeling and retraining also need time.
        let pair = ModelPair::ResNet34Wrn101;
        let per_frame = pair.student().spec().forward_macs();
        let rtx_fps = GpuDevice::rtx_3090().units_per_second(Kernel::Inference, per_frame);
        let orin_fps = GpuDevice::jetson_orin_low().units_per_second(Kernel::Inference, per_frame);
        assert!(rtx_fps > 300.0, "RTX 3090 should be far above 30 FPS, got {rtx_fps:.0}");
        assert!(orin_fps > 30.0, "inference alone still fits, got {orin_fps:.0}");
        assert!(
            orin_fps < 60.0,
            "but with under 2x headroom there is little left for labeling/retraining ({orin_fps:.0} FPS)"
        );
    }

    #[test]
    fn energy_includes_idle_floor() {
        let gpu = GpuDevice::jetson_orin_high();
        assert_eq!(gpu.energy_joules(1.0, 0.0), 60.0);
        assert!(gpu.energy_joules(0.0, 1.0) > 0.0);
        assert!(gpu.energy_joules(0.0, 1.0) < gpu.energy_joules(1.0, 0.0));
    }

    #[test]
    fn zero_cost_units_are_infinite_throughput() {
        let gpu = GpuDevice::rtx_3090();
        assert!(gpu.units_per_second(Kernel::Inference, 0).is_infinite());
    }
}
