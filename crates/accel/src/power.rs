//! Area, power, and energy model of the DaCapo chip (Table IV).
//!
//! The paper synthesises the RTL in 28 nm with Synopsys Design Compiler and
//! CACTI and reports the chip-level numbers in Table IV: 2.501 mm², 500 MHz,
//! 0.236 W. We reproduce the chip totals exactly and attribute them to
//! components with a documented split so ablations (for example growing the
//! array) scale sensibly.

use crate::config::AccelConfig;
use serde::{Deserialize, Serialize};

/// Area and power of one accelerator component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentBudget {
    /// Component name as it would appear in a synthesis report.
    pub name: String,
    /// Area in square millimetres.
    pub area_mm2: f64,
    /// Power in watts at the nominal 500 MHz operating point.
    pub power_w: f64,
}

/// Chip-level area/power model.
///
/// # Examples
///
/// ```
/// use dacapo_accel::power::PowerModel;
/// use dacapo_accel::AccelConfig;
///
/// let model = PowerModel::for_config(&AccelConfig::default());
/// assert!((model.total_power_w() - 0.236).abs() < 1e-9);
/// assert!((model.total_area_mm2() - 2.501).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    components: Vec<ComponentBudget>,
    frequency_hz: f64,
}

/// Table IV chip power in watts for the 16×16 prototype.
pub const TABLE4_POWER_W: f64 = 0.236;
/// Table IV chip area in mm² for the 16×16 prototype.
pub const TABLE4_AREA_MM2: f64 = 2.501;
/// Table IV operating frequency in Hz.
pub const TABLE4_FREQUENCY_HZ: f64 = 500e6;

/// Fractional split of the chip budget across components.
///
/// The paper does not publish a per-component table; this split follows the
/// usual breakdown of systolic-array accelerators of this size (compute array
/// dominates, then SRAM, then the memory interface and vector/precision
/// conversion units).
const COMPONENT_SPLIT: &[(&str, f64)] = &[
    ("dpe-array", 0.68),
    ("on-chip-sram", 0.18),
    ("memory-interface", 0.07),
    ("precision-conversion-units", 0.04),
    ("vector-processing-units", 0.03),
];

impl PowerModel {
    /// Builds the power model for a hardware configuration. The 16×16
    /// prototype reproduces Table IV exactly; other sizes scale the array and
    /// SRAM components with their capacity.
    #[must_use]
    pub fn for_config(config: &AccelConfig) -> Self {
        let default = AccelConfig::default();
        let dpe_scale = config.num_dpes() as f64 / default.num_dpes() as f64;
        let sram_scale = config.sram_bytes as f64 / default.sram_bytes as f64;
        let freq_scale = config.frequency_hz / default.frequency_hz;
        let components = COMPONENT_SPLIT
            .iter()
            .map(|&(name, fraction)| {
                let scale = match name {
                    "dpe-array" => dpe_scale,
                    "on-chip-sram" => sram_scale,
                    _ => dpe_scale.max(sram_scale).sqrt(),
                };
                ComponentBudget {
                    name: name.to_string(),
                    area_mm2: TABLE4_AREA_MM2 * fraction * scale,
                    power_w: TABLE4_POWER_W * fraction * scale * freq_scale,
                }
            })
            .collect();
        Self { components, frequency_hz: config.frequency_hz }
    }

    /// Per-component budgets.
    #[must_use]
    pub fn components(&self) -> &[ComponentBudget] {
        &self.components
    }

    /// Total chip power in watts.
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.components.iter().map(|c| c.power_w).sum()
    }

    /// Total chip area in mm².
    #[must_use]
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// Energy in joules for running the chip for `seconds` at the given
    /// average utilisation (idle power is modelled as 30 % of active power,
    /// the clock-gating residual).
    #[must_use]
    pub fn energy_joules(&self, seconds: f64, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let active = self.total_power_w() * u;
        let idle = self.total_power_w() * 0.3 * (1.0 - u);
        (active + idle) * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_table4_exactly() {
        let m = PowerModel::for_config(&AccelConfig::default());
        assert!((m.total_power_w() - TABLE4_POWER_W).abs() < 1e-9);
        assert!((m.total_area_mm2() - TABLE4_AREA_MM2).abs() < 1e-9);
        assert_eq!(m.components().len(), COMPONENT_SPLIT.len());
    }

    #[test]
    fn component_split_sums_to_one() {
        let total: f64 = COMPONENT_SPLIT.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_chip_uses_more_power_and_area() {
        let small = PowerModel::for_config(&AccelConfig::default());
        let big = PowerModel::for_config(&AccelConfig::scaled_32x32());
        assert!(big.total_power_w() > small.total_power_w());
        assert!(big.total_area_mm2() > small.total_area_mm2());
    }

    #[test]
    fn power_ratios_vs_orin_match_paper_claims() {
        // The paper's headline: Orin-High (60 W) consumes 254x, Orin-Low
        // (30 W) 127x the DaCapo chip power.
        let m = PowerModel::for_config(&AccelConfig::default());
        let high_ratio = 60.0 / m.total_power_w();
        let low_ratio = 30.0 / m.total_power_w();
        assert!((high_ratio - 254.0).abs() < 1.0, "high ratio {high_ratio}");
        assert!((low_ratio - 127.0).abs() < 1.0, "low ratio {low_ratio}");
    }

    #[test]
    fn energy_grows_with_time_and_utilization() {
        let m = PowerModel::for_config(&AccelConfig::default());
        assert!(m.energy_joules(10.0, 1.0) > m.energy_joules(5.0, 1.0));
        assert!(m.energy_joules(10.0, 1.0) > m.energy_joules(10.0, 0.1));
        assert!(m.energy_joules(10.0, 0.0) > 0.0, "idle power is not zero");
    }
}
