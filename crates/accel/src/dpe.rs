//! Timing and energy model of a single Dot-Product Engine (DPE).
//!
//! A DPE (Section V-B of the paper) holds sixteen 2-bit multipliers arranged
//! as a hierarchical MAC tree, a result-forwarding datapath and an FP32
//! generator. Depending on the MX mode the sixteen multipliers operate as
//! sixteen independent 2-bit multiplies (MX4), four fused 4-bit multiplies
//! (MX6) or one fused 8-bit multiply (MX9), so a full 16-element dot product
//! takes 1, 4, or 16 cycles respectively.

use dacapo_mx::{MxPrecision, BLOCK_SIZE};
use serde::{Deserialize, Serialize};

/// Per-DPE timing/energy characteristics.
///
/// The energy figures are derived from the chip-level Table IV power number
/// (0.236 W at 500 MHz for 256 DPEs plus peripherals) attributed down to the
/// DPE array, for relative energy accounting, not absolute silicon sign-off.
/// No library code reads them; they stay because they serialise inside every
/// `SubAccel`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpeModel {
    /// Energy of one active DPE cycle in joules.
    pub energy_per_active_cycle_j: f64,
    /// Energy of one idle DPE cycle in joules (clock/leakage).
    pub energy_per_idle_cycle_j: f64,
}

impl Default for DpeModel {
    fn default() -> Self {
        // The DPE array accounts for ~0.17 W of the 0.236 W chip power at
        // 500 MHz over 256 DPEs -> ~1.3 pJ per active DPE cycle; idle cycles
        // (clock gating + leakage) cost roughly a fifth of that.
        Self { energy_per_active_cycle_j: 1.3e-12, energy_per_idle_cycle_j: 0.26e-12 }
    }
}

impl DpeModel {
    /// Multiply-accumulate operations one DPE completes per cycle at
    /// `precision`.
    #[must_use]
    pub fn macs_per_cycle(&self, precision: MxPrecision) -> f64 {
        BLOCK_SIZE as f64 / precision.dpe_cycles_per_dot() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_inverse_of_latency() {
        let dpe = DpeModel::default();
        assert_eq!(dpe.macs_per_cycle(MxPrecision::Mx4), 16.0);
        assert_eq!(dpe.macs_per_cycle(MxPrecision::Mx6), 4.0);
        assert_eq!(dpe.macs_per_cycle(MxPrecision::Mx9), 1.0);
    }

    #[test]
    fn active_cycles_cost_more_than_idle() {
        let dpe = DpeModel::default();
        assert!(dpe.energy_per_active_cycle_j > dpe.energy_per_idle_cycle_j);
    }
}
