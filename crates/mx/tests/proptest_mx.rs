//! Property-based tests for the MX block floating point implementation.

use dacapo_mx::{MxBlock, MxPrecision, MxVector, BLOCK_SIZE};
use proptest::prelude::*;

/// Finite, reasonably scaled f32 values (avoids overflow in dot products and
/// subnormal territory where MX flushes to zero by design).
fn bounded_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        3 => -1e6f32..1e6f32,
        1 => Just(0.0f32),
        1 => -1.0f32..1.0f32,
    ]
}

fn value_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(bounded_f32(), 1..=max_len)
}

fn any_precision() -> impl Strategy<Value = MxPrecision> {
    prop_oneof![Just(MxPrecision::Mx4), Just(MxPrecision::Mx6), Just(MxPrecision::Mx9),]
}

proptest! {
    /// Round-trip error of any element is bounded by the block maximum times
    /// the mantissa quantisation step (the defining property of block
    /// floating point).
    #[test]
    fn roundtrip_error_bounded_by_block_max(
        values in prop::collection::vec(bounded_f32(), 1..=BLOCK_SIZE),
        precision in any_precision(),
    ) {
        let block = MxBlock::encode(&values, precision).unwrap();
        let decoded = block.decode_valid();
        let block_max = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bound = block_max * precision.mantissa_ulp() + 1e-30;
        for (orig, dec) in values.iter().zip(decoded.iter()) {
            prop_assert!(
                (orig - dec).abs() <= bound,
                "|{} - {}| > {} at {}", orig, dec, bound, precision
            );
        }
    }

    /// Encoding then decoding preserves the number of elements for vectors of
    /// any length.
    #[test]
    fn vector_roundtrip_preserves_length(values in value_vec(300), precision in any_precision()) {
        let v = MxVector::encode(&values, precision).unwrap();
        prop_assert_eq!(v.len(), values.len());
        prop_assert_eq!(v.decode().len(), values.len());
        prop_assert_eq!(v.num_blocks(), values.len().div_ceil(BLOCK_SIZE));
    }

    /// Decoded values never exceed the original block maximum in magnitude by
    /// more than one quantisation step (no spurious amplification).
    #[test]
    fn no_magnitude_amplification(
        values in prop::collection::vec(bounded_f32(), 1..=BLOCK_SIZE),
        precision in any_precision(),
    ) {
        let block = MxBlock::encode(&values, precision).unwrap();
        let block_max = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for dec in block.decode_valid() {
            prop_assert!(dec.abs() <= block_max * (1.0 + precision.mantissa_ulp()) + 1e-30);
        }
    }

    /// Higher precision gives an equal-or-smaller maximum round-trip error on
    /// identical data.
    #[test]
    fn precision_monotonicity(values in value_vec(128)) {
        let mut previous = f32::INFINITY;
        for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
            let decoded = MxVector::quantize(&values, precision).unwrap();
            let max_err = values
                .iter()
                .zip(decoded.iter())
                .map(|(o, d)| (o - d).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(max_err <= previous * (1.0 + 1e-5) + 1e-25);
            previous = max_err;
        }
    }

    /// The MX dot product approximates the FP32 dot product with a relative
    /// error controlled by the precision.
    #[test]
    fn dot_product_tracks_fp32(
        pair in prop::collection::vec((bounded_f32(), bounded_f32()), 1..=256),
    ) {
        let a: Vec<f32> = pair.iter().map(|(x, _)| *x).collect();
        let b: Vec<f32> = pair.iter().map(|(_, y)| *y).collect();
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| f64::from(*x) * f64::from(*y)).sum();
        // Per-element quantisation error is bounded by the *block* maximum
        // times the mantissa step, so bound the dot-product error by
        // ulp * (max|a| * sum|b| + max|a_hat| * max|b| ... ). Using the global
        // maxima gives a conservative but always-valid yardstick.
        let ulp = f64::from(MxPrecision::Mx9.mantissa_ulp());
        let max_a = a.iter().fold(0.0f64, |m, v| m.max(f64::from(v.abs())));
        let max_b = b.iter().fold(0.0f64, |m, v| m.max(f64::from(v.abs())));
        let sum_a: f64 = a.iter().map(|v| f64::from(v.abs())).sum();
        let sum_b: f64 = b.iter().map(|v| f64::from(v.abs())).sum();
        let bound = ulp * (max_a * sum_b + max_b * sum_a)
            + ulp * ulp * max_a * max_b * a.len() as f64
            + 1e-3;
        let qa = MxVector::encode(&a, MxPrecision::Mx9).unwrap();
        let qb = MxVector::encode(&b, MxPrecision::Mx9).unwrap();
        let approx = f64::from(qa.dot(&qb).unwrap());
        prop_assert!(
            (exact - approx).abs() <= bound,
            "exact {} vs approx {} (bound {})", exact, approx, bound
        );
    }

    /// Encoding is deterministic: the same input produces the same blocks.
    #[test]
    fn encoding_is_deterministic(values in value_vec(100), precision in any_precision()) {
        let a = MxVector::encode(&values, precision).unwrap();
        let b = MxVector::encode(&values, precision).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A vector dotted with a zero vector is exactly zero.
    #[test]
    fn dot_with_zero_is_zero(values in value_vec(200), precision in any_precision()) {
        let zeros = vec![0.0f32; values.len()];
        let qa = MxVector::encode(&values, precision).unwrap();
        let qz = MxVector::encode(&zeros, precision).unwrap();
        prop_assert_eq!(qa.dot(&qz).unwrap(), 0.0);
    }
}
