//! The integer MX conversion kernel: `f32` bit patterns in, quantised `f32`
//! bit patterns out.
//!
//! A fake-quantised value is the input's own bit pattern with its low
//! fraction bits rounded away, so a lane never leaves the integer domain
//! ([`requantize`]): no mantissa code is formed, converted to a float and
//! scaled back. [`code`] and [`value`], the two halves of that round trip,
//! stay for [`MxBlock`](crate::MxBlock), which stores codes, and as the
//! reference `requantize` is tested against. Nothing per lane branches on
//! data, so the loops the two drivers run compile to vector instructions.
//!
//! Both drivers work on a subgroup at a time — two lanes, one effective
//! exponent ([`requantize_pair`]) — and differ in where a subgroup's lanes
//! and its block's shared exponent come from: adjacent elements of a slice
//! and a maximum per sixteen of them ([`quantize_run`]), or two rows of a
//! matrix and a maximum down each column ([`quantize_down`]). (The loops run
//! over slices of run-time length on purpose: over fixed sixteen-element
//! arrays the compiler unrolls first and then fails to re-vectorise.) Their
//! vector bodies take whole vectors only, so both drivers hand the kernel
//! widths that are multiples of 16: `quantize_run` whole blocks, a short one
//! zero-padded, and `quantize_down` column groups whose width is a multiple
//! of 16, a ragged one staged at its width rounded up to 16 with zero
//! columns beside it (on 16-lane `zmm` a 10-wide loop never enters its
//! vector body and runs every lane scalar). See the
//! [crate docs](crate#the-integer-algorithm) for the algorithm and why it is
//! exact.

use crate::{MxPrecision, BLOCK_SIZE, SUBGROUP_COUNT, SUBGROUP_SIZE};

/// Lanes the drivers below work on per pass: a whole number of blocks, small
/// enough that the shared exponents gathered for them stay in registers or
/// L1.
pub(crate) const CHUNK: usize = 4 * BLOCK_SIZE;

const SIGN: u32 = 0x8000_0000;
const FRACTION: u32 = 0x007F_FFFF;
const HIDDEN_ONE: u32 = 0x0080_0000;

/// Exponent field of NaN and the infinities. A shared exponent equal to this
/// means the block holds a non-finite value.
pub(crate) const NON_FINITE: u32 = 0xFF;

/// The constants of one precision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Format {
    mant_bits: u32,
    max_code: u32,
}

impl Format {
    pub(crate) fn new(precision: MxPrecision) -> Self {
        let mant_bits = precision.mantissa_bits();
        Self { mant_bits, max_code: (1 << mant_bits) - 1 }
    }
}

/// All-ones when `flag` holds, zero otherwise.
#[inline(always)]
fn mask(flag: bool) -> u32 {
    u32::from(flag).wrapping_neg()
}

/// Biased exponent field. Zeros and subnormals read `0`, the neutral element
/// of the maxima taken over these; NaN and the infinities read
/// [`NON_FINITE`], which no finite value can reach.
#[inline(always)]
pub(crate) fn exponent(bits: u32) -> u32 {
    (bits >> 23) & 0xFF
}

/// Effective exponent of a subgroup: the block's shared exponent, lowered by
/// one where the subgroup's own maximum `sub` is non-zero yet below it (the
/// microexponent).
#[inline(always)]
pub(crate) fn effective(sub: u32, shared: u32) -> u32 {
    shared - u32::from((sub != 0) & (sub < shared))
}

/// Mantissa code: the 24-bit significand shifted down to the subgroup's
/// effective exponent `eff`, rounded to nearest (ties away from zero: half a
/// step is added before the shift), and clamped to the mantissa width. A
/// zero exponent field (zeros, flushed subnormals, padding) gives code `0`.
#[inline(always)]
pub(crate) fn code(bits: u32, eff: u32, format: Format) -> u32 {
    let e = exponent(bits);
    let significand = ((bits & FRACTION) | HIDDEN_ONE) & mask(e != 0);
    // `eff >= e` within a block, so this is at least `24 - mant_bits`; from
    // 25 up the code is zero whatever the shift.
    let shift = (24 + eff - e - format.mant_bits).min(31);
    ((significand + (1 << (shift - 1))) >> shift).min(format.max_code)
}

/// `sign | code × 2^(eff − 127 − (mant_bits − 1))`. Exact: the code has at
/// most seven bits and the scale is a power of two no smaller than `2^-133`,
/// so the product is representable (as a subnormal below `2^-126`).
#[inline(always)]
pub(crate) fn value(sign: u32, code: u32, eff: u32, mant_bits: u32) -> f32 {
    // Exponent field of the scale; at or below zero the scale itself is
    // subnormal and is a single fraction bit.
    let field = eff as i32 - (mant_bits as i32 - 1);
    let scale = if field > 0 { (field as u32) << 23 } else { 1 << (22 + field) };
    let magnitude = code as i32 as f32 * f32::from_bits(scale);
    f32::from_bits(sign | magnitude.to_bits())
}

/// Sign bit of a lane whose block has shared exponent `shared`: an all-zero
/// block decodes to `+0.0` throughout, so its signs are dropped.
#[inline(always)]
pub(crate) fn sign(bits: u32, shared: u32) -> u32 {
    bits & SIGN & mask(shared != 0)
}

/// The encode → decode round trip of one lane, `value(sign, code(..), ..)`
/// without the trip: the magnitude bits of the input, rounded in place.
///
/// One code unit is `2^shift` units of the 24-bit significand, so for
/// `shift ≤ 23` the quantised magnitude is the input's own bit pattern with
/// half a unit added and its low `shift` fraction bits cleared. A carry out
/// of the fraction lands in the exponent field, which is the next power of
/// two's bit pattern. At `shift = 24` (one unit is twice the lane's power of
/// two) rounding to nearest gives exactly one unit, `2^(e + 1 − 127)`: the
/// same add-and-clear with the fraction as the whole mask. From `25` up it
/// gives zero. The clamp is an integer `min` against the bits of `max_code`
/// units, non-negative floats being ordered as their bit patterns are. A non-zero output keeps an exponent field of
/// at least the input's `e ≥ 1`, so it is never subnormal.
#[inline(always)]
fn requantize(bits: u32, eff: u32, shared: u32, format: Format) -> f32 {
    let e = exponent(bits);
    // `eff >= e` within a block, so at least `24 - mant_bits`; from 25 up
    // the lane is zeroed and the two clamps only keep the shifts in the word.
    let shift = 24 + eff - e - format.mant_bits;
    let half = 1 << (shift - 1).min(31);
    let rounded = ((bits & !SIGN) + half) & (u32::MAX << shift.min(23));
    let top = (eff << 23) | ((format.max_code >> 1) << (24 - format.mant_bits));
    let kept = mask((shift < 25) & (e != 0));
    f32::from_bits(sign(bits, shared) | (rounded.min(top) & kept))
}

/// One subgroup through [`requantize`]: two lanes of a block whose shared
/// exponent is `shared`, at the effective exponent their own maximum sets.
#[inline(always)]
fn requantize_pair(a: u32, b: u32, shared: u32, format: Format) -> (f32, f32) {
    let eff = effective(exponent(a).max(exponent(b)), shared);
    (requantize(a, eff, shared, format), requantize(b, eff, shared, format))
}

/// Quantises up to [`CHUNK`] adjacent values — whole blocks: the caller pads
/// a short one with zeros — into `out` (same length). Returns `false`,
/// leaving `out` unspecified, if a value is NaN or infinite.
#[inline]
pub(crate) fn quantize_run(values: &[f32], format: Format, out: &mut [f32]) -> bool {
    debug_assert!(values.len() <= CHUNK && values.len().is_multiple_of(BLOCK_SIZE));
    // Per subgroup, its block's shared exponent: the exponent of the block's
    // largest magnitude, magnitudes being ordered as their bit patterns are.
    let mut shared = [0; CHUNK / SUBGROUP_SIZE];
    let mut top = 0;
    for (shared, block) in
        shared.chunks_exact_mut(SUBGROUP_COUNT).zip(values.chunks_exact(BLOCK_SIZE))
    {
        let max = exponent(block.iter().fold(0, |max, v| max.max(v.to_bits() & !SIGN)));
        shared.fill(max);
        top = top.max(max);
    }
    for ((out, pair), shared) in
        out.chunks_exact_mut(SUBGROUP_SIZE).zip(values.chunks_exact(SUBGROUP_SIZE)).zip(&shared)
    {
        (out[0], out[1]) = requantize_pair(pair[0].to_bits(), pair[1].to_bits(), *shared, format);
    }
    top != NON_FINITE
}

/// Quantises up to sixteen rows of `width ≤ CHUNK` columns **down the
/// columns**: lane `j` is column `j`, its shared exponent the maximum down
/// the rows, its subgroups the row pairs. `src` and `dst` start at the first
/// element and hold rows `stride` apart. Returns `false`, leaving `dst`
/// unspecified, if a value is NaN or infinite.
#[inline]
pub(crate) fn quantize_down(
    src: &[f32],
    dst: &mut [f32],
    stride: usize,
    rows: usize,
    width: usize,
    format: Format,
) -> bool {
    let row = |r: usize| &src[r * stride..r * stride + width];
    let mut shared = [0; CHUNK];
    for r in 0..rows {
        for (shared, v) in shared.iter_mut().zip(row(r)) {
            *shared = (*shared).max(exponent(v.to_bits()));
        }
    }
    // An odd row count leaves the last row alone in its subgroup: a row of
    // zeros stands in for the padding below it.
    const PADDING: [f32; CHUNK] = [0.0; CHUNK];
    let mut spill = [0.0; CHUNK];
    for upper in (0..rows).step_by(SUBGROUP_SIZE) {
        let (up, rest) = (row(upper), &mut dst[upper * stride..]);
        let (lo, out_up, out_lo) = if upper + 1 < rows {
            let (head, tail) = rest.split_at_mut(stride);
            (row(upper + 1), &mut head[..width], &mut tail[..width])
        } else {
            (&PADDING[..width], &mut rest[..width], &mut spill[..width])
        };
        for ((((out_up, out_lo), up), lo), shared) in
            out_up.iter_mut().zip(out_lo).zip(up).zip(lo).zip(&shared)
        {
            (*out_up, *out_lo) = requantize_pair(up.to_bits(), lo.to_bits(), *shared, format);
        }
    }
    !shared[..width].contains(&NON_FINITE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::hostile::Rng;

    /// One lane of [`requantize`] against the code → value round trip it
    /// stands for.
    fn assert_lane(bits: u32, eff: u32, shared: u32, format: Format) {
        let expected = value(sign(bits, shared), code(bits, eff, format), eff, format.mant_bits);
        let got = requantize(bits, eff, shared, format);
        assert!(
            got.to_bits() == expected.to_bits() && !got.is_subnormal(),
            "{bits:#010x} eff {eff} shared {shared} {format:?}: {got:e}, expected {expected:e}"
        );
    }

    #[test]
    fn in_place_rounding_equals_the_decoded_code_and_is_never_subnormal() {
        let mut rng = Rng(0xDACA_0004);
        for precision in MxPrecision::ALL {
            let format = Format::new(precision);
            for gap in 0..=40 {
                // A lone fraction bit `below` places under the first bit
                // kept; none where that is the hidden bit or above it.
                let shift = 24 + gap - format.mant_bits;
                let lone = |below| 1u32.checked_shl(shift - below).unwrap_or(0) & FRACTION;
                let fractions = [0, 1, FRACTION, lone(1), lone(2), FRACTION ^ lone(1)];
                // Zeros and subnormals, the smallest normals, the largest
                // the gap leaves room for.
                let top = 254 - gap;
                for e in [0, 1, 2, top - 1, top] {
                    for fraction in fractions {
                        for negative in [0, SIGN] {
                            let bits = negative | (e << 23) | fraction;
                            for shared in [e + gap, e + gap + 1] {
                                assert_lane(bits, e + gap, shared, format);
                            }
                        }
                    }
                }
                for _ in 0..2_000 {
                    let e = rng.below(u64::from(top) + 1) as u32;
                    let bits = (rng.next() as u32 & (SIGN | FRACTION)) | (e << 23);
                    let shared = e + gap + rng.below(2) as u32;
                    assert_lane(bits, e + gap, shared, format);
                }
            }
        }
    }
}
