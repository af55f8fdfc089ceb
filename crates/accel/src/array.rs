//! The spatially-partitionable DPE array.

use crate::config::AccelConfig;
use crate::gemm::SubAccel;
use crate::{AccelError, Result};
use serde::{Deserialize, Serialize};

/// The DaCapo accelerator: a row-partitionable array of DPEs.
///
/// # Examples
///
/// ```
/// use dacapo_accel::{AccelConfig, DaCapoAccelerator};
///
/// # fn main() -> Result<(), dacapo_accel::AccelError> {
/// let accel = DaCapoAccelerator::new(AccelConfig::default())?;
/// let partition = accel.partition(12)?;
/// assert_eq!(partition.tsa().rows(), 12);
/// assert_eq!(partition.bsa().rows(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaCapoAccelerator {
    config: AccelConfig,
}

impl DaCapoAccelerator {
    /// Creates an accelerator with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: AccelConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Partitions the array into a T-SA with `tsa_rows` rows and a B-SA with
    /// the remaining rows. DRAM bandwidth is shared in proportion to rows.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidPartition`] unless both sub-accelerators
    /// receive at least one row.
    pub fn partition(&self, tsa_rows: usize) -> Result<Partition> {
        let total = self.config.rows;
        if tsa_rows == 0 || tsa_rows >= total {
            return Err(AccelError::InvalidPartition { tsa_rows, total_rows: total });
        }
        let bsa_rows = total - tsa_rows;
        Ok(Partition {
            tsa: SubAccel::new(
                tsa_rows,
                self.config.cols,
                tsa_rows as f64 / total as f64,
                self.config,
            ),
            bsa: SubAccel::new(
                bsa_rows,
                self.config.cols,
                bsa_rows as f64 / total as f64,
                self.config,
            ),
        })
    }
}

/// A concrete row split of the array into T-SA and B-SA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    tsa: SubAccel,
    bsa: SubAccel,
}

impl Partition {
    /// The Top Sub-Accelerator, which time-shares retraining and labeling.
    #[must_use]
    pub fn tsa(&self) -> &SubAccel {
        &self.tsa
    }

    /// The Bottom Sub-Accelerator, which continuously runs inference.
    #[must_use]
    pub fn bsa(&self) -> &SubAccel {
        &self.bsa
    }

    /// Rows assigned as `(tsa_rows, bsa_rows)`.
    #[must_use]
    pub fn rows(&self) -> (usize, usize) {
        (self.tsa.rows(), self.bsa.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_rows_always_cover_the_array() {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        for tsa_rows in 1..16 {
            let p = accel.partition(tsa_rows).unwrap();
            let (t, b) = p.rows();
            assert_eq!(t + b, 16);
            assert!(b >= 1);
        }
    }

    #[test]
    fn degenerate_partitions_are_rejected() {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        assert!(matches!(accel.partition(0), Err(AccelError::InvalidPartition { .. })));
        assert!(matches!(accel.partition(16), Err(AccelError::InvalidPartition { .. })));
        assert!(matches!(accel.partition(17), Err(AccelError::InvalidPartition { .. })));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        assert!(DaCapoAccelerator::new(AccelConfig { rows: 0, ..AccelConfig::default() }).is_err());
    }

    #[test]
    fn bandwidth_is_shared_proportionally() {
        // A 12-row T-SA should see ~3x the DRAM-bound throughput of a 4-row
        // B-SA on the same memory-bound GEMM.
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        let p = accel.partition(12).unwrap();
        let g = dacapo_dnn::zoo::GemmShape::new(64, 8192, 64); // huge K: memory heavy
        let t = p.tsa().gemm_cycles(&g, dacapo_mx::MxPrecision::Mx4);
        let b = p.bsa().gemm_cycles(&g, dacapo_mx::MxPrecision::Mx4);
        assert!(t.dram_cycles < b.dram_cycles);
    }
}
