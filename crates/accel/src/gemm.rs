//! Output-stationary GEMM tiling and cycle counting on a sub-accelerator.
//!
//! This is the SCALE-Sim-style analytical core of the simulator: a GEMM of
//! shape `M×K·K×N` is tiled into output tiles of `rows × cols`, each DPE
//! accumulating one output element by consuming the K dimension in 16-element
//! MX blocks. Fill/drain of the systolic array and the DRAM bandwidth bound
//! are accounted for per tile pass.

use crate::config::AccelConfig;
use crate::dpe::DpeModel;
use dacapo_dnn::zoo::GemmShape;
use dacapo_mx::{MxPrecision, BLOCK_SIZE};
use serde::{Deserialize, Serialize};

/// Cycle breakdown of one GEMM on a sub-accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GemmCycles {
    /// Cycles the DPE array spends computing (including fill/drain).
    pub compute_cycles: u64,
    /// Cycles implied by the DRAM traffic at the sub-accelerator's share of
    /// bandwidth.
    pub dram_cycles: u64,
    /// The larger of the two: the modelled execution time (compute and DMA
    /// are double-buffered, so they overlap).
    pub total_cycles: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
}

/// A row-partition of the DPE array (T-SA or B-SA) able to execute GEMMs.
///
/// Obtained from [`crate::DaCapoAccelerator::partition`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubAccel {
    rows: usize,
    cols: usize,
    /// Fraction of DRAM bandwidth available to this sub-accelerator.
    bandwidth_share: f64,
    config: AccelConfig,
    dpe: DpeModel,
}

impl SubAccel {
    pub(crate) fn new(rows: usize, cols: usize, bandwidth_share: f64, config: AccelConfig) -> Self {
        Self { rows, cols, bandwidth_share, config, dpe: DpeModel::default() }
    }

    /// Number of DPE rows assigned to this sub-accelerator.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of DPE columns (always the full array width).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cycle breakdown for one GEMM at `precision`.
    ///
    /// GEMMs with zero extent (used by parameter-only layers such as layer
    /// norms) take zero cycles.
    #[must_use]
    pub fn gemm_cycles(&self, gemm: &GemmShape, precision: MxPrecision) -> GemmCycles {
        if gemm.macs() == 0 {
            return GemmCycles {
                compute_cycles: 0,
                dram_cycles: 0,
                total_cycles: 0,
                dram_bytes: 0,
            };
        }
        let (m, k, n) = (gemm.m as u64, gemm.k as u64, gemm.n as u64);
        let repeat = gemm.repeat as u64;

        // --- Compute time -------------------------------------------------
        let tiles_m = m.div_ceil(self.rows as u64);
        let tiles_n = n.div_ceil(self.cols as u64);
        let k_blocks = k.div_ceil(BLOCK_SIZE as u64);
        let cycles_per_tile = k_blocks * precision.dpe_cycles_per_dot()
            // Fill and drain of the systolic pipeline per output tile.
            + (self.rows + self.cols) as u64;
        let compute_cycles = tiles_m * tiles_n * cycles_per_tile * repeat;

        // --- DRAM traffic --------------------------------------------------
        let in_bytes_per_el = f64::from(precision.bits_per_element()) / 8.0;
        let a_bytes = (m * k) as f64 * in_bytes_per_el;
        let b_bytes = (k * n) as f64 * in_bytes_per_el;
        // Outputs leave the precision-conversion unit re-encoded in MX.
        let c_bytes = (m * n) as f64 * in_bytes_per_el;
        // If the smaller operand fits in half the SRAM (double buffering), it
        // is loaded once and the other operand also streams once. Otherwise
        // the loop order that minimises re-reads is chosen, re-reading one
        // operand once per tile pass of the other dimension.
        let half_sram = self.config.sram_bytes as f64 / 2.0;
        let traffic = if a_bytes.min(b_bytes) <= half_sram {
            a_bytes + b_bytes + c_bytes
        } else {
            let a_streamed = a_bytes * tiles_n as f64 + b_bytes;
            let b_streamed = b_bytes * tiles_m as f64 + a_bytes;
            a_streamed.min(b_streamed) + c_bytes
        } * repeat as f64;
        let bytes_per_cycle = self.config.dram_bytes_per_cycle() * self.bandwidth_share;
        let dram_cycles = (traffic / bytes_per_cycle).ceil() as u64;

        GemmCycles {
            compute_cycles,
            dram_cycles,
            total_cycles: compute_cycles.max(dram_cycles),
            dram_bytes: traffic as u64,
        }
    }

    /// Total cycles to execute a sequence of GEMMs back to back.
    #[must_use]
    pub fn gemms_cycles(&self, gemms: &[GemmShape], precision: MxPrecision) -> u64 {
        gemms.iter().map(|g| self.gemm_cycles(g, precision).total_cycles).sum()
    }

    /// Wall-clock seconds to execute a sequence of GEMMs back to back.
    #[must_use]
    pub fn gemms_seconds(&self, gemms: &[GemmShape], precision: MxPrecision) -> f64 {
        self.gemms_cycles(gemms, precision) as f64 / self.config.frequency_hz
    }

    /// Throughput in "units per second" where one unit is the given GEMM
    /// sequence (one inference, one labeled sample, one retraining batch, …).
    #[must_use]
    pub fn units_per_second(&self, gemms: &[GemmShape], precision: MxPrecision) -> f64 {
        let seconds = self.gemms_seconds(gemms, precision);
        if seconds <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / seconds
        }
    }

    /// Effective utilisation of the DPE array for this GEMM sequence:
    /// ideal MAC cycles divided by modelled cycles.
    #[must_use]
    pub fn utilization(&self, gemms: &[GemmShape], precision: MxPrecision) -> f64 {
        let macs: u64 = gemms.iter().map(GemmShape::macs).sum();
        let ideal =
            macs as f64 / ((self.rows * self.cols) as f64 * self.dpe.macs_per_cycle(precision));
        let actual = self.gemms_cycles(gemms, precision) as f64;
        if actual == 0.0 {
            0.0
        } else {
            (ideal / actual).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacapo_dnn::zoo::PaperModel;

    fn sub(rows: usize) -> SubAccel {
        let config = AccelConfig::default();
        SubAccel::new(rows, config.cols, rows as f64 / config.rows as f64, config)
    }

    #[test]
    fn zero_gemm_takes_zero_cycles() {
        let s = sub(8);
        let g = GemmShape { m: 0, k: 0, n: 0, repeat: 0 };
        assert_eq!(s.gemm_cycles(&g, MxPrecision::Mx6).total_cycles, 0);
    }

    #[test]
    fn single_tile_gemm_cycle_count_is_exact() {
        // 16x16 output on a 16-row/16-col array with K = 32 at MX9:
        // 2 K-blocks * 16 cycles + 32 fill/drain = 64 cycles, one tile.
        let s = sub(16);
        let g = GemmShape::new(16, 32, 16);
        let c = s.gemm_cycles(&g, MxPrecision::Mx9);
        assert_eq!(c.compute_cycles, 2 * 16 + 32);
        assert!(c.total_cycles >= c.compute_cycles);
    }

    #[test]
    fn cycles_scale_with_output_tiles() {
        let s = sub(8);
        let small = GemmShape::new(8, 64, 16);
        let tall = GemmShape::new(80, 64, 16); // 10x the M tiles
        let c_small = s.gemm_cycles(&small, MxPrecision::Mx6).compute_cycles;
        let c_tall = s.gemm_cycles(&tall, MxPrecision::Mx6).compute_cycles;
        assert_eq!(c_tall, 10 * c_small);
    }

    #[test]
    fn lower_precision_is_faster() {
        let s = sub(8);
        let g = GemmShape::new(256, 512, 128);
        let mx4 = s.gemms_cycles(&[g], MxPrecision::Mx4);
        let mx6 = s.gemms_cycles(&[g], MxPrecision::Mx6);
        let mx9 = s.gemms_cycles(&[g], MxPrecision::Mx9);
        assert!(mx4 < mx6);
        assert!(mx6 < mx9);
    }

    #[test]
    fn more_rows_never_slower() {
        let g = PaperModel::ResNet18.spec().forward_gemms(1);
        let mut previous = u64::MAX;
        for rows in [2usize, 4, 8, 16] {
            let cycles = sub(rows).gemms_cycles(&g, MxPrecision::Mx6);
            assert!(cycles <= previous, "{rows} rows slower than fewer rows");
            previous = cycles;
        }
    }

    #[test]
    fn resnet18_inference_fits_realtime_on_few_rows() {
        // Sanity-check the headline feasibility: a handful of B-SA rows must
        // sustain 30 FPS ResNet18 inference at MX6, otherwise the paper's
        // spatial allocation could never work.
        let gemms = PaperModel::ResNet18.spec().forward_gemms(1);
        let fps = sub(4).units_per_second(&gemms, MxPrecision::Mx6);
        assert!(fps > 30.0, "4 rows only reach {fps:.1} FPS");
        // And the full array is far faster than needed.
        let fps_full = sub(16).units_per_second(&gemms, MxPrecision::Mx6);
        assert!(fps_full > fps);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let gemms = PaperModel::WideResNet50.spec().forward_gemms(1);
        let u = sub(12).utilization(&gemms, MxPrecision::Mx6);
        assert!(u > 0.2 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn dram_bytes_are_positive_for_real_layers() {
        let s = sub(8);
        let g = GemmShape::new(3136, 576, 128);
        let c = s.gemm_cycles(&g, MxPrecision::Mx6);
        assert!(c.dram_bytes > 0);
        assert!(c.dram_cycles > 0);
    }
}
