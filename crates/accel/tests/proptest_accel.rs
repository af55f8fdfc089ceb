//! Property-based tests for the accelerator cycle and partition models.

use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_dnn::zoo::GemmShape;
use dacapo_mx::MxPrecision;
use proptest::prelude::*;

fn gemm_shape() -> impl Strategy<Value = GemmShape> {
    (1usize..512, 1usize..512, 1usize..256, 1usize..4).prop_map(|(m, k, n, repeat)| GemmShape {
        m,
        k,
        n,
        repeat,
    })
}

fn precision() -> impl Strategy<Value = MxPrecision> {
    prop_oneof![Just(MxPrecision::Mx4), Just(MxPrecision::Mx6), Just(MxPrecision::Mx9)]
}

proptest! {
    /// Every valid partition keeps the row total and both halves usable.
    #[test]
    fn partition_conserves_rows(tsa_rows in 1usize..16) {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        let partition = accel.partition(tsa_rows).unwrap();
        let (tsa, bsa) = partition.rows();
        prop_assert_eq!(tsa, tsa_rows);
        prop_assert_eq!(tsa + bsa, 16);
        prop_assert!(bsa >= 1);
    }

    /// Cycle counts are positive for non-trivial GEMMs and never smaller than
    /// the ideal MAC-limited bound.
    #[test]
    fn cycles_respect_the_compute_bound(gemm in gemm_shape(), precision in precision(), tsa_rows in 1usize..16) {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        let partition = accel.partition(tsa_rows).unwrap();
        let sub = partition.tsa();
        let cycles = sub.gemm_cycles(&gemm, precision);
        prop_assert!(cycles.total_cycles > 0);
        prop_assert!(cycles.total_cycles >= cycles.compute_cycles.max(cycles.dram_cycles));
        // Ideal bound: MACs / (DPEs * MACs-per-cycle).
        let macs_per_cycle = 16.0 / precision.dpe_cycles_per_dot() as f64;
        let ideal = gemm.macs() as f64 / ((sub.rows() * sub.cols()) as f64 * macs_per_cycle);
        prop_assert!(
            cycles.compute_cycles as f64 >= ideal.floor(),
            "compute cycles {} below ideal {}", cycles.compute_cycles, ideal
        );
    }

    /// Higher precision never decreases compute cycles (MX9 serialises the
    /// sixteen 2-bit multipliers), and lower precision never moves *more*
    /// DRAM bytes. (Cycle counts are deliberately not monotone in the row
    /// count: small-M GEMMs pay a longer fill/drain on a taller array, which
    /// is physical behaviour, so only the precision dimension is asserted.)
    #[test]
    fn cycles_are_monotone_in_precision(gemm in gemm_shape()) {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        let partition = accel.partition(8).unwrap();
        let sub = partition.tsa();
        let mx4 = sub.gemm_cycles(&gemm, MxPrecision::Mx4);
        let mx6 = sub.gemm_cycles(&gemm, MxPrecision::Mx6);
        let mx9 = sub.gemm_cycles(&gemm, MxPrecision::Mx9);
        prop_assert!(mx4.compute_cycles <= mx6.compute_cycles);
        prop_assert!(mx6.compute_cycles <= mx9.compute_cycles);
        prop_assert!(mx4.dram_bytes <= mx6.dram_bytes);
        prop_assert!(mx6.dram_bytes <= mx9.dram_bytes);
    }

    /// Splitting a GEMM along M and running the halves back to back is never
    /// cheaper than running the whole GEMM (tiling overhead is superadditive).
    #[test]
    fn split_gemms_cost_at_least_the_whole(m in 2usize..256, k in 1usize..256, n in 1usize..128) {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        let partition = accel.partition(8).unwrap();
        let sub = partition.tsa();
        let whole = GemmShape::new(m, k, n);
        let first = GemmShape::new(m / 2, k, n);
        let second = GemmShape::new(m - m / 2, k, n);
        let whole_cycles = sub.gemms_cycles(&[whole], MxPrecision::Mx6);
        let split_cycles = sub.gemms_cycles(&[first, second], MxPrecision::Mx6);
        prop_assert!(split_cycles + 1 >= whole_cycles,
            "split {} cheaper than whole {}", split_cycles, whole_cycles);
    }
}
