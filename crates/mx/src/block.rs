//! A single MX block: 16 values sharing one exponent and eight microexponents.

use crate::kernel::{self, Format};
use crate::{
    MxError, MxPrecision, Result, RoundingMode, BLOCK_SIZE, SUBGROUP_COUNT, SUBGROUP_SIZE,
};
use serde::{Deserialize, Serialize};

/// One MX-encoded block of [`BLOCK_SIZE`] values.
///
/// The block stores per-element signs and truncated mantissas, one shared
/// 8-bit exponent, and one microexponent bit per [`SUBGROUP_SIZE`]-element
/// subgroup. Values are recovered with [`MxBlock::decode`]; every decoded
/// value is exactly representable in `f32`, so downstream FP32 accumulation
/// matches the hardware's FP32 generator bit-for-bit.
///
/// # Examples
///
/// ```
/// use dacapo_mx::{MxBlock, MxPrecision, RoundingMode};
///
/// # fn main() -> Result<(), dacapo_mx::MxError> {
/// let values = [1.0f32, -2.5, 0.75, 0.0, 10.0, -0.125, 3.0, 4.0,
///               0.5, 0.25, -1.0, 2.0, -4.0, 8.0, -8.0, 1.5];
/// let block = MxBlock::encode(&values, MxPrecision::Mx9, RoundingMode::Nearest)?;
/// let decoded = block.decode();
/// for (orig, dec) in values.iter().zip(decoded.iter()) {
///     assert!((orig - dec).abs() <= 0.08 * 10.0); // bounded by block max * ulp
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MxBlock {
    precision: MxPrecision,
    /// Biased shared exponent (same bias as IEEE-754 single precision).
    shared_exp: u8,
    /// One bit per subgroup; `true` lowers that subgroup's effective exponent
    /// by one, recovering a mantissa bit for small-magnitude subgroups.
    micro: [bool; SUBGROUP_COUNT],
    signs: [bool; BLOCK_SIZE],
    mantissas: [u16; BLOCK_SIZE],
    /// Number of values that were actually supplied (the rest are padding).
    len: usize,
}

impl MxBlock {
    /// Encodes up to [`BLOCK_SIZE`] values into one MX block.
    ///
    /// Shorter slices are zero-padded; the original length is preserved and
    /// respected by [`MxBlock::decode_valid`] and dot products.
    ///
    /// # Errors
    ///
    /// Returns [`MxError::EmptyInput`] for an empty slice,
    /// [`MxError::LengthMismatch`] if more than [`BLOCK_SIZE`] values are
    /// supplied, and [`MxError::NonFiniteInput`] if any value is NaN or
    /// infinite. Subnormal values are flushed to zero.
    pub fn encode(values: &[f32], precision: MxPrecision, rounding: RoundingMode) -> Result<Self> {
        if values.is_empty() {
            return Err(MxError::EmptyInput);
        }
        if values.len() > BLOCK_SIZE {
            return Err(MxError::LengthMismatch { left: values.len(), right: BLOCK_SIZE });
        }
        let format = Format::new(precision, rounding);
        // Padding lanes stay `+0.0`: exponent field zero, code zero.
        let mut bits = [0u32; BLOCK_SIZE];
        for (b, v) in bits.iter_mut().zip(values) {
            *b = v.to_bits();
        }
        let shared = bits.iter().fold(0, |max, &b| max.max(kernel::exponent(b)));
        if shared == kernel::NON_FINITE {
            return Err(MxError::first_non_finite(values, 0));
        }
        let mut block = Self {
            precision,
            // Below `NON_FINITE`, so it fits.
            shared_exp: shared as u8,
            micro: [false; SUBGROUP_COUNT],
            signs: [false; BLOCK_SIZE],
            mantissas: [0; BLOCK_SIZE],
            len: values.len(),
        };
        for (g, pair) in bits.chunks_exact(SUBGROUP_SIZE).enumerate() {
            let sub = pair.iter().fold(0, |max, &b| max.max(kernel::exponent(b)));
            let eff = kernel::effective(sub, shared);
            block.micro[g] = eff != shared;
            for (lane, &b) in pair.iter().enumerate() {
                let i = g * SUBGROUP_SIZE + lane;
                block.signs[i] = kernel::sign(b, shared) != 0;
                // At most seven bits.
                block.mantissas[i] = kernel::code(b, eff, format) as u16;
            }
        }
        Ok(block)
    }

    /// Decodes the full block (including zero padding) back to `f32`.
    #[must_use]
    pub fn decode(&self) -> [f32; BLOCK_SIZE] {
        let shared = u32::from(self.shared_exp);
        let mant_bits = self.precision.mantissa_bits();
        std::array::from_fn(|i| {
            // Saturating: a deserialised block may claim a microexponent
            // under a zero shared exponent, which `encode` never produces.
            let eff = shared.saturating_sub(u32::from(self.micro[i / SUBGROUP_SIZE]));
            let sign = u32::from(self.signs[i]) << 31;
            kernel::value(sign, u32::from(self.mantissas[i]), eff, mant_bits)
        })
    }

    /// Decodes only the values that were originally supplied to
    /// [`MxBlock::encode`], omitting zero padding.
    #[must_use]
    pub fn decode_valid(&self) -> Vec<f32> {
        self.decode()[..self.len].to_vec()
    }

    /// Dot product of two blocks, accumulated in `f32` exactly as the DPE's
    /// FP32 generator does.
    ///
    /// # Errors
    ///
    /// Returns [`MxError::PrecisionMismatch`] if the blocks were encoded at
    /// different precisions (a DPE runs in a single precision mode at a time).
    pub fn dot(&self, other: &Self) -> Result<f32> {
        if self.precision != other.precision {
            return Err(MxError::PrecisionMismatch {
                left: self.precision,
                right: other.precision,
            });
        }
        let a = self.decode();
        let b = other.decode();
        let mut acc = 0.0f32;
        for i in 0..BLOCK_SIZE {
            acc += a[i] * b[i];
        }
        Ok(acc)
    }

    /// Precision this block was encoded at.
    #[must_use]
    pub fn precision(&self) -> MxPrecision {
        self.precision
    }

    /// The biased shared exponent (IEEE-754 single precision bias of 127).
    #[must_use]
    pub fn shared_exponent(&self) -> u8 {
        self.shared_exp
    }

    /// The per-subgroup microexponent bits.
    #[must_use]
    pub fn microexponents(&self) -> [bool; SUBGROUP_COUNT] {
        self.micro
    }

    /// Number of non-padding values in this block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no non-padding values (never true for blocks
    /// produced by [`MxBlock::encode`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The floating-point statement of the format, kept as the test oracle for
/// the integer kernel: encode through `f64` division and rounding, decode
/// through `powi`. Every step is exact in `f64`, so the two must agree bit
/// for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// IEEE-754 single-precision exponent bias.
    const F32_BIAS: i32 = 127;

    pub(crate) fn encode(
        values: &[f32],
        precision: MxPrecision,
        rounding: RoundingMode,
    ) -> MxBlock {
        assert!(!values.is_empty() && values.len() <= BLOCK_SIZE);
        assert!(values.iter().all(|v| v.is_finite()));
        let mut padded = [0.0f32; BLOCK_SIZE];
        padded[..values.len()].copy_from_slice(values);

        // Zero / subnormal values get exponent i32::MIN so they never
        // influence the shared exponent.
        let mut exps = [i32::MIN; BLOCK_SIZE];
        for (i, &v) in padded.iter().enumerate() {
            if v != 0.0 && v.is_normal() {
                exps[i] = ((v.to_bits() >> 23) & 0xFF) as i32;
            }
        }
        let shared = exps.iter().copied().max().unwrap();
        if shared == i32::MIN {
            return MxBlock {
                precision,
                shared_exp: 0,
                micro: [false; SUBGROUP_COUNT],
                signs: [false; BLOCK_SIZE],
                mantissas: [0; BLOCK_SIZE],
                len: values.len(),
            };
        }

        let mut micro = [false; SUBGROUP_COUNT];
        for (g, flag) in micro.iter_mut().enumerate() {
            let start = g * SUBGROUP_SIZE;
            let sub_max = exps[start..start + SUBGROUP_SIZE].iter().copied().max().unwrap();
            *flag = sub_max != i32::MIN && sub_max < shared;
        }

        let mant_bits = precision.mantissa_bits();
        let max_code = (1u32 << mant_bits) - 1;
        let mut signs = [false; BLOCK_SIZE];
        let mut mantissas = [0u16; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            let v = padded[i];
            signs[i] = v.is_sign_negative();
            if exps[i] == i32::MIN {
                continue;
            }
            let eff_exp = shared - i32::from(micro[i / SUBGROUP_SIZE]);
            let significand = 1.0 + ((v.to_bits() & 0x007F_FFFF) as f64) / ((1u64 << 23) as f64);
            let shift = eff_exp - exps[i];
            assert!(shift >= 0, "element exponent exceeds effective shared exponent");
            let scaled = significand / (1u64 << shift.min(62)) as f64;
            let steps = scaled * f64::from(1u32 << (mant_bits - 1));
            let code = match rounding {
                RoundingMode::Nearest => steps.round(),
                RoundingMode::Truncate => steps.floor(),
            };
            mantissas[i] = code.clamp(0.0, f64::from(max_code)) as u16;
        }
        MxBlock { precision, shared_exp: shared as u8, micro, signs, mantissas, len: values.len() }
    }

    pub(crate) fn decode(block: &MxBlock) -> [f32; BLOCK_SIZE] {
        let mut out = [0.0f32; BLOCK_SIZE];
        let mant_bits = block.precision.mantissa_bits();
        for (i, slot) in out.iter_mut().enumerate() {
            let eff_exp = i32::from(block.shared_exp) - i32::from(block.micro[i / SUBGROUP_SIZE]);
            let magnitude = f64::from(block.mantissas[i]) / f64::from(1u32 << (mant_bits - 1))
                * (2.0f64).powi(eff_exp - F32_BIAS);
            *slot = if block.signs[i] { -(magnitude as f32) } else { magnitude as f32 };
        }
        out
    }

    /// `encode` then `decode` of a slice of any length, block by block.
    pub(crate) fn quantize(
        values: &[f32],
        precision: MxPrecision,
        rounding: RoundingMode,
    ) -> Vec<f32> {
        values
            .chunks(BLOCK_SIZE)
            .flat_map(|chunk| decode(&encode(chunk, precision, rounding))[..chunk.len()].to_vec())
            .collect()
    }
}

/// Seeded generators of values that stress the kernel's edges.
#[cfg(test)]
pub(crate) mod hostile {
    /// SplitMix64: small, seedable, good enough to scatter test inputs.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The exponent mixes of the sweep: near the bottom of the range (where
    /// the decode scale goes subnormal), near the top, a narrow band in the
    /// middle (small shifts, so rounding and the clamp matter), and
    /// everything.
    pub(crate) const MIXES: [(u32, u32); 4] = [(1, 12), (243, 254), (120, 130), (1, 254)];

    /// One finite value: a signed zero, a subnormal, or a normal with its
    /// exponent field in `lo..=hi` and a fraction that is zero, one, all
    /// ones, or random.
    pub(crate) fn value(rng: &mut Rng, (lo, hi): (u32, u32)) -> f32 {
        let sign = (rng.below(2) as u32) << 31;
        let fraction = match rng.below(6) {
            0 => 0,
            1 => 1,
            2 => 0x007F_FFFF,
            _ => rng.next() as u32 & 0x007F_FFFF,
        };
        let exponent = match rng.below(8) {
            0 => return f32::from_bits(sign),
            1 => 0,
            _ => lo + rng.below(u64::from(hi - lo + 1)) as u32,
        };
        f32::from_bits(sign | (exponent << 23) | fraction)
    }

    pub(crate) fn values(rng: &mut Rng, mix: (u32, u32), len: usize) -> Vec<f32> {
        (0..len).map(|_| value(rng, mix)).collect()
    }

    /// Bit patterns, so comparisons tell `-0.0` from `+0.0`.
    pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::hostile::bits;
    use super::*;

    fn roundtrip(values: &[f32], precision: MxPrecision) -> Vec<f32> {
        MxBlock::encode(values, precision, RoundingMode::Nearest).unwrap().decode_valid()
    }

    #[test]
    fn all_zero_block_roundtrips_exactly() {
        let values = [0.0f32; 16];
        let decoded = roundtrip(&values, MxPrecision::Mx4);
        assert_eq!(decoded, values);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(
            MxBlock::encode(&[], MxPrecision::Mx9, RoundingMode::Nearest),
            Err(MxError::EmptyInput)
        );
    }

    #[test]
    fn oversized_input_is_rejected() {
        let values = [1.0f32; 17];
        assert!(matches!(
            MxBlock::encode(&values, MxPrecision::Mx9, RoundingMode::Nearest),
            Err(MxError::LengthMismatch { left: 17, right: 16 })
        ));
    }

    #[test]
    fn non_finite_input_is_rejected_with_index() {
        let mut values = [1.0f32; 16];
        values[5] = f32::INFINITY;
        assert!(matches!(
            MxBlock::encode(&values, MxPrecision::Mx6, RoundingMode::Nearest),
            Err(MxError::NonFiniteInput { index: 5, .. })
        ));
    }

    #[test]
    fn powers_of_two_roundtrip_exactly_at_mx9() {
        let values: Vec<f32> = (0..16).map(|i| (2.0f32).powi(i - 8)).collect();
        let decoded = roundtrip(&values, MxPrecision::Mx9);
        // The largest value dominates the shared exponent, so small powers of
        // two lose precision; but values within 2^7 of the max stay exact.
        for (orig, dec) in values.iter().zip(decoded.iter()).skip(9) {
            assert_eq!(orig, dec, "large powers of two should be exact");
        }
    }

    #[test]
    fn uniform_magnitude_block_has_small_relative_error() {
        let values: Vec<f32> = (0..16).map(|i| 1.0 + (i as f32) * 0.05).collect();
        for p in MxPrecision::ALL {
            let decoded = roundtrip(&values, p);
            let tol = p.mantissa_ulp() * 2.0; // shared exponent is ~1 here
            for (orig, dec) in values.iter().zip(decoded.iter()) {
                assert!(
                    (orig - dec).abs() <= tol * 2.0,
                    "{p}: {orig} decoded to {dec} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn error_is_bounded_by_block_maximum() {
        // Quantisation error for any element is bounded by the block max times
        // the mantissa ulp (plus the microexponent's factor-of-two help).
        let values = [
            100.0f32, -3.0, 0.004, 7.5, -90.0, 55.5, 0.0, 1.0, -0.25, 63.0, 12.0, -12.0, 99.0,
            -0.5, 33.3, 2.2,
        ];
        for p in MxPrecision::ALL {
            let decoded = roundtrip(&values, p);
            let max = 100.0f32;
            for (orig, dec) in values.iter().zip(decoded.iter()) {
                assert!(
                    (orig - dec).abs() <= max * p.mantissa_ulp(),
                    "{p}: |{orig} - {dec}| > {}",
                    max * p.mantissa_ulp()
                );
            }
        }
    }

    #[test]
    fn microexponent_set_only_for_small_subgroups() {
        // First subgroup holds the block max, second subgroup is much smaller.
        let mut values = [0.0f32; 16];
        values[0] = 64.0;
        values[1] = 32.0;
        values[2] = 1.0;
        values[3] = 0.5;
        let block = MxBlock::encode(&values, MxPrecision::Mx6, RoundingMode::Nearest).unwrap();
        let micro = block.microexponents();
        assert!(!micro[0], "subgroup containing the max must not set its microexponent");
        assert!(micro[1], "strictly smaller subgroup should set its microexponent");
    }

    #[test]
    fn microexponent_improves_small_subgroup_fidelity() {
        // Compare against a hypothetical encoding without the micro bit by
        // checking the error of the small subgroup stays within half the
        // no-micro bound.
        let mut values = [0.0f32; 16];
        values[0] = 64.0;
        values[2] = 1.9;
        values[3] = 1.7;
        let decoded = roundtrip(&values, MxPrecision::Mx6);
        let ulp_with_micro = 64.0 * MxPrecision::Mx6.mantissa_ulp() / 2.0;
        assert!((decoded[2] - 1.9).abs() <= ulp_with_micro);
        assert!((decoded[3] - 1.7).abs() <= ulp_with_micro);
    }

    #[test]
    fn signs_are_preserved() {
        let values = [
            -1.0f32, 1.0, -2.0, 2.0, -3.0, 3.0, -4.0, 4.0, -5.0, 5.0, -6.0, 6.0, -7.0, 7.0, -8.0,
            8.0,
        ];
        let decoded = roundtrip(&values, MxPrecision::Mx9);
        for (orig, dec) in values.iter().zip(decoded.iter()) {
            assert_eq!(orig.signum(), dec.signum());
        }
    }

    #[test]
    fn subnormals_flush_to_zero() {
        let mut values = [1.0f32; 16];
        values[3] = f32::from_bits(1); // smallest positive subnormal
        let decoded = roundtrip(&values, MxPrecision::Mx9);
        assert_eq!(decoded[3], 0.0);
    }

    #[test]
    fn short_input_is_padded_and_length_preserved() {
        let values = [3.0f32, -1.5, 0.25];
        let block = MxBlock::encode(&values, MxPrecision::Mx9, RoundingMode::Nearest).unwrap();
        assert_eq!(block.len(), 3);
        assert!(!block.is_empty());
        assert_eq!(block.decode_valid().len(), 3);
        assert_eq!(block.decode()[3..], [0.0; 13]);
    }

    #[test]
    fn truncation_never_overestimates_magnitude() {
        let values: Vec<f32> = (1..=16).map(|i| i as f32 * 0.77).collect();
        let block = MxBlock::encode(&values, MxPrecision::Mx6, RoundingMode::Truncate).unwrap();
        for (orig, dec) in values.iter().zip(block.decode().iter()) {
            assert!(dec.abs() <= orig.abs() + 1e-6, "truncation increased |{orig}| to |{dec}|");
        }
    }

    #[test]
    fn dot_product_matches_fp32_within_tolerance() {
        let a: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.3).collect();
        let b: Vec<f32> = (0..16).map(|i| ((i * 3 % 7) as f32) * 0.21).collect();
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let qa = MxBlock::encode(&a, MxPrecision::Mx9, RoundingMode::Nearest).unwrap();
        let qb = MxBlock::encode(&b, MxPrecision::Mx9, RoundingMode::Nearest).unwrap();
        let approx = qa.dot(&qb).unwrap();
        assert!((exact - approx).abs() < 0.05 * exact.abs().max(1.0));
    }

    #[test]
    fn dot_product_rejects_mixed_precision() {
        let a = [1.0f32; 16];
        let qa = MxBlock::encode(&a, MxPrecision::Mx4, RoundingMode::Nearest).unwrap();
        let qb = MxBlock::encode(&a, MxPrecision::Mx9, RoundingMode::Nearest).unwrap();
        assert!(matches!(qa.dot(&qb), Err(MxError::PrecisionMismatch { .. })));
    }

    #[test]
    fn higher_precision_never_has_larger_max_error() {
        let values: Vec<f32> = (0..16).map(|i| ((i * 37 % 23) as f32 - 11.0) * 1.7).collect();
        let mut previous = f32::INFINITY;
        for p in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
            let decoded = roundtrip(&values, p);
            let max_err = values
                .iter()
                .zip(decoded.iter())
                .map(|(o, d)| (o - d).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err <= previous + 1e-6, "{p} worse than lower precision");
            previous = max_err;
        }
    }

    const ROUNDINGS: [RoundingMode; 2] = [RoundingMode::Nearest, RoundingMode::Truncate];

    /// `2^(field − 127)` with the given fraction bits.
    fn float(field: u32, fraction: u32) -> f32 {
        f32::from_bits((field << 23) | fraction)
    }

    /// The kernel against the oracle on one block: the encoded fields, and
    /// the decoded bit patterns.
    fn assert_matches_oracle(values: &[f32]) {
        for precision in MxPrecision::ALL {
            for rounding in ROUNDINGS {
                let block = MxBlock::encode(values, precision, rounding).unwrap();
                let expected = oracle::encode(values, precision, rounding);
                assert_eq!(block, expected, "{precision} {rounding} {:x?}", bits(values));
                assert_eq!(bits(&block.decode()), bits(&oracle::decode(&expected)));
            }
        }
    }

    #[test]
    fn zero_block_decodes_to_positive_zero_in_every_lane() {
        let subnormal = f32::from_bits(0x0040_0001);
        for values in [[-0.0f32; 16], [-subnormal; 16], [0.0; 16]] {
            for precision in MxPrecision::ALL {
                let block = MxBlock::encode(&values, precision, RoundingMode::Nearest).unwrap();
                assert_eq!(block.shared_exponent(), 0);
                assert_eq!(bits(&block.decode()), [0u32; 16]);
            }
            assert_matches_oracle(&values);
        }
    }

    #[test]
    fn zeros_inside_a_non_zero_block_keep_their_sign() {
        let mut values = [1.0f32; 16];
        values[2] = -0.0;
        values[3] = -f32::from_bits(7); // flushed, sign kept
        values[4] = 0.0;
        values[5] = f32::from_bits(7);
        let decoded = roundtrip(&values, MxPrecision::Mx9);
        assert_eq!(bits(&decoded[2..6]), [0x8000_0000, 0x8000_0000, 0, 0]);
        assert_matches_oracle(&values);
    }

    #[test]
    fn rounding_carry_clamps_instead_of_bumping_the_exponent() {
        // 1.9999999 rounds up to 2.0 at every width; the block keeps its
        // exponent and the code saturates at 2^m − 1.
        let values = [float(127, 0x007F_FFFF); 16];
        for precision in MxPrecision::ALL {
            let block = MxBlock::encode(&values, precision, RoundingMode::Nearest).unwrap();
            assert_eq!(block.shared_exponent(), 127);
            let step = precision.mantissa_ulp();
            assert_eq!(block.decode(), [2.0 - step; 16]);
        }
        assert_matches_oracle(&values);
    }

    #[test]
    fn elements_far_below_the_effective_exponent_become_signed_zero() {
        for gap in [25, 26, 31, 32, 40, 100] {
            let mut values = [0.0f32; 16];
            values[0] = float(150, 0);
            values[1] = -float(150 - gap, 0x007F_FFFF); // same subgroup as the maximum
            values[2] = -float(149 - gap, 0x007F_FFFF); // microexponent subgroup: eff = 149
            for precision in MxPrecision::ALL {
                for rounding in ROUNDINGS {
                    let decoded = MxBlock::encode(&values, precision, rounding).unwrap().decode();
                    assert_eq!(bits(&decoded[1..3]), [0x8000_0000; 2], "gap {gap}");
                }
            }
            assert_matches_oracle(&values);
        }
    }

    #[test]
    fn blocks_with_a_tiny_shared_exponent_go_through_subnormal_steps_exactly() {
        for shared in 1..8u32 {
            // Below exponent field 7 one MX9 code unit, 2^(shared − 133), is
            // itself subnormal; values made of a few units still come back
            // exactly.
            let unit = f32::from_bits(1 << (shared + 16));
            let mut values = [0.0f32; 16];
            values[0] = float(shared, 0x0060_0000); // 1.75 × 2^(shared − 127)
            values[1] = -float(shared, 0);
            values[2] = float(shared.max(2) - 1, 0x0040_0000);
            let decoded = roundtrip(&values, MxPrecision::Mx9);
            assert_eq!(decoded[0], 112.0 * unit);
            assert_eq!(decoded[1], -64.0 * unit);
            assert_eq!(decoded[..3], values[..3]);
            assert_matches_oracle(&values);

            // A lone code unit decodes to a true subnormal.
            let block = MxBlock {
                precision: MxPrecision::Mx9,
                shared_exp: shared as u8,
                micro: [false; SUBGROUP_COUNT],
                signs: [true; BLOCK_SIZE],
                mantissas: [1; BLOCK_SIZE],
                len: BLOCK_SIZE,
            };
            assert_eq!(block.decode(), [-unit; 16]);
            assert_eq!(bits(&block.decode()), bits(&oracle::decode(&block)));
            assert_eq!(unit.is_normal(), shared == 7);
        }
    }

    #[test]
    fn every_shift_and_rounding_boundary_matches_the_oracle() {
        for precision in MxPrecision::ALL {
            for gap in 0..32u32 {
                // Bits dropped from the 24-bit significand at this gap; the
                // tie sits at `half`.
                let dropped = 24 + gap - precision.mantissa_bits();
                let half = 1u32.checked_shl(dropped - 1).unwrap_or(0) & 0x007F_FFFF;
                let fractions = [
                    0,
                    1,
                    half.wrapping_sub(1) & 0x007F_FFFF,
                    half,
                    (half + 1) & 0x007F_FFFF,
                    0x007F_FFFF,
                ];
                for fraction in fractions {
                    for negative in [false, true] {
                        let x = float(200 - gap, fraction) * if negative { -1.0 } else { 1.0 };
                        // Beside the maximum (eff = shared), and alone in a
                        // microexponent subgroup (eff = shared − 1) one
                        // binade further down so the gap stays `gap`.
                        let mut beside = [0.0f32; 16];
                        beside[0] = float(200, 0);
                        beside[1] = x;
                        assert_matches_oracle(&beside);
                        let mut apart = [0.0f32; 16];
                        apart[0] = float(201, 0);
                        apart[5] = x;
                        assert_matches_oracle(&apart);
                        assert_matches_oracle(&apart[..6]);
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_blocks_match_the_oracle() {
        let mut rng = hostile::Rng(0xDACA_0001);
        for mix in hostile::MIXES {
            for len in 1..=BLOCK_SIZE {
                for _ in 0..40 {
                    assert_matches_oracle(&hostile::values(&mut rng, mix, len));
                }
            }
        }
    }

    #[test]
    fn decode_of_a_malformed_block_does_not_panic() {
        // Not producible by `encode`: a microexponent under a zero shared
        // exponent and codes wider than the precision.
        let block = MxBlock {
            precision: MxPrecision::Mx4,
            shared_exp: 0,
            micro: [true; SUBGROUP_COUNT],
            signs: [true; BLOCK_SIZE],
            mantissas: [u16::MAX; BLOCK_SIZE],
            len: BLOCK_SIZE,
        };
        assert!(block.decode().iter().all(|v| v.is_finite()));
        let top = MxBlock { shared_exp: 255, micro: [false; SUBGROUP_COUNT], ..block };
        assert!(top.decode().iter().all(|v| v.is_infinite()));
    }
}
