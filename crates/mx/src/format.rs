//! MX precision formats and block geometry constants.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of values grouped into one MX block.
///
/// The DaCapo paper (and the original MX paper) use 16; the DPE performs one
/// 16-element dot product per block pair.
pub const BLOCK_SIZE: usize = 16;

/// Number of values sharing one 1-bit microexponent.
pub const SUBGROUP_SIZE: usize = 2;

/// Number of subgroups (and therefore microexponent bits) per block.
pub const SUBGROUP_COUNT: usize = BLOCK_SIZE / SUBGROUP_SIZE;

/// The MX precision modes supported by the DaCapo Dot-Product Engine.
///
/// The name encodes the *average* number of bits per element once the shared
/// exponent and microexponent overheads are amortised over the block:
///
/// | mode | sign | mantissa | avg. bits/element | DPE cycles / 16-dot |
/// |------|------|----------|-------------------|---------------------|
/// | MX4  | 1    | 2        | 4                 | 1                   |
/// | MX6  | 1    | 4        | 6                 | 4                   |
/// | MX9  | 1    | 7        | 9                 | 16                  |
///
/// # Examples
///
/// ```
/// use dacapo_mx::MxPrecision;
///
/// assert_eq!(MxPrecision::Mx9.mantissa_bits(), 7);
/// assert_eq!(MxPrecision::Mx4.dpe_cycles_per_dot(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MxPrecision {
    /// 2-bit mantissas; highest throughput, lowest fidelity.
    Mx4,
    /// 4-bit mantissas; the paper's choice for inference and labeling.
    Mx6,
    /// 7-bit mantissas; the paper's choice for retraining.
    Mx9,
}

impl MxPrecision {
    /// All supported precisions, lowest to highest fidelity.
    pub const ALL: [MxPrecision; 3] = [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9];

    /// Number of explicitly stored mantissa bits per element.
    #[must_use]
    pub const fn mantissa_bits(self) -> u32 {
        match self {
            MxPrecision::Mx4 => 2,
            MxPrecision::Mx6 => 4,
            MxPrecision::Mx9 => 7,
        }
    }

    /// Average number of bits per element including amortised shared-exponent
    /// and microexponent storage.
    #[must_use]
    pub const fn bits_per_element(self) -> u32 {
        match self {
            MxPrecision::Mx4 => 4,
            MxPrecision::Mx6 => 6,
            MxPrecision::Mx9 => 9,
        }
    }

    /// Cycles a single DPE needs to complete one 16-element dot product at
    /// this precision.
    ///
    /// The DPE contains sixteen 2-bit multipliers. In MX4 mode all sixteen
    /// 2-bit multiplications proceed in parallel (1 cycle). MX6 fuses four
    /// 2-bit multipliers into each 4-bit multiplication so only four element
    /// products are produced per cycle (4 cycles). MX9 fuses all sixteen into
    /// one 8-bit multiplication (16 cycles).
    #[must_use]
    pub const fn dpe_cycles_per_dot(self) -> u64 {
        match self {
            MxPrecision::Mx4 => 1,
            MxPrecision::Mx6 => 4,
            MxPrecision::Mx9 => 16,
        }
    }

    /// Relative quantisation step of the mantissa, `2^-(mantissa_bits - 1)`,
    /// useful for error-bound reasoning in tests.
    #[must_use]
    pub fn mantissa_ulp(self) -> f32 {
        (2.0f32).powi(-((self.mantissa_bits() as i32) - 1))
    }
}

impl fmt::Display for MxPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MxPrecision::Mx4 => write!(f, "MX4"),
            MxPrecision::Mx6 => write!(f, "MX6"),
            MxPrecision::Mx9 => write!(f, "MX9"),
        }
    }
}

/// How mantissas are reduced from 23 bits to the target width.
///
/// The MX paper truncates; FAST-style designs use stochastic or
/// round-to-nearest rounding. DaCapo's RTL truncates, but round-to-nearest is
/// the better-behaved default for the software simulation, so both are
/// offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoundingMode {
    /// Round to the nearest representable mantissa (ties away from zero).
    #[default]
    Nearest,
    /// Drop the low-order mantissa bits (what the RTL prototype does).
    Truncate,
}

impl fmt::Display for RoundingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundingMode::Nearest => write!(f, "nearest"),
            RoundingMode::Truncate => write!(f, "truncate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mantissa_widths_match_paper() {
        assert_eq!(MxPrecision::Mx4.mantissa_bits(), 2);
        assert_eq!(MxPrecision::Mx6.mantissa_bits(), 4);
        assert_eq!(MxPrecision::Mx9.mantissa_bits(), 7);
    }

    #[test]
    fn bits_per_element_is_consistent_with_block_storage() {
        // The "MXn" name is the amortised per-element cost of a block's exact
        // storage: sign + mantissa per element, plus the 8-bit shared
        // exponent and one microexponent bit per subgroup — for MX9,
        // 8 + 8/16 + 8/16 = 9 bits per element.
        for p in MxPrecision::ALL {
            let bits_per_block =
                (1 + p.mantissa_bits()) * BLOCK_SIZE as u32 + 8 + SUBGROUP_COUNT as u32;
            assert_eq!(bits_per_block, p.bits_per_element() * BLOCK_SIZE as u32, "{p}");
        }
        assert_eq!(MxPrecision::Mx9.bits_per_element(), 9);
        assert_eq!(MxPrecision::Mx6.bits_per_element(), 6);
        assert_eq!(MxPrecision::Mx4.bits_per_element(), 4);
    }

    #[test]
    fn dpe_cycle_counts_match_paper() {
        assert_eq!(MxPrecision::Mx4.dpe_cycles_per_dot(), 1);
        assert_eq!(MxPrecision::Mx6.dpe_cycles_per_dot(), 4);
        assert_eq!(MxPrecision::Mx9.dpe_cycles_per_dot(), 16);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(MxPrecision::Mx6.to_string(), "MX6");
        assert_eq!(RoundingMode::Nearest.to_string(), "nearest");
        assert_eq!(RoundingMode::Truncate.to_string(), "truncate");
    }

    #[test]
    fn precisions_are_ordered_by_fidelity() {
        assert!(MxPrecision::Mx4 < MxPrecision::Mx6);
        assert!(MxPrecision::Mx6 < MxPrecision::Mx9);
    }

    #[test]
    fn mantissa_ulp_halves_per_extra_bit() {
        assert!(MxPrecision::Mx4.mantissa_ulp() > MxPrecision::Mx6.mantissa_ulp());
        assert!(MxPrecision::Mx6.mantissa_ulp() > MxPrecision::Mx9.mantissa_ulp());
        assert!((MxPrecision::Mx4.mantissa_ulp() - 0.5).abs() < f32::EPSILON);
    }
}
