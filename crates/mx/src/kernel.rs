//! The integer MX conversion kernel: `f32` bit patterns in, quantised `f32`
//! bit patterns out.
//!
//! The per-lane arithmetic ([`code`], [`value`]) is integer shifts, masks and
//! one exact multiply, with no data-dependent branch, so the loops the two
//! drivers run over it compile to vector instructions. The lanes of a pass
//! are adjacent elements when quantising along a slice ([`quantize_run`]),
//! or neighbouring columns when quantising down the rows of a matrix
//! ([`quantize_down`]); only how the shared and subgroup exponents are
//! gathered differs. (The loops run over slices of run-time length on
//! purpose: over fixed sixteen-element arrays the compiler unrolls first and
//! then fails to re-vectorise.) See the [crate docs](crate#the-integer-algorithm) for
//! the algorithm and why it is exact.

use crate::{MxPrecision, RoundingMode, BLOCK_SIZE, SUBGROUP_SIZE};

/// Lanes the drivers below work on per pass: a whole number of blocks, small
/// enough that the per-lane exponents stay in registers or L1.
pub(crate) const CHUNK: usize = 4 * BLOCK_SIZE;

const SIGN: u32 = 0x8000_0000;
const FRACTION: u32 = 0x007F_FFFF;
const HIDDEN_ONE: u32 = 0x0080_0000;

/// Exponent field of NaN and the infinities. A shared exponent equal to this
/// means the block holds a non-finite value.
pub(crate) const NON_FINITE: u32 = 0xFF;

/// The constants of one precision / rounding-mode pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Format {
    mant_bits: u32,
    max_code: u32,
    /// `1` for round-to-nearest (adds half a step before the shift), `0` for
    /// truncation.
    round: u32,
}

impl Format {
    pub(crate) fn new(precision: MxPrecision, rounding: RoundingMode) -> Self {
        let mant_bits = precision.mantissa_bits();
        Self {
            mant_bits,
            max_code: (1 << mant_bits) - 1,
            round: u32::from(rounding == RoundingMode::Nearest),
        }
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
/// effective exponent `eff`, rounded, and clamped to the mantissa width. A
/// zero exponent field (zeros, flushed subnormals, padding) gives code `0`.
#[inline(always)]
pub(crate) fn code(bits: u32, eff: u32, format: Format) -> u32 {
    let e = exponent(bits);
    let significand = ((bits & FRACTION) | HIDDEN_ONE) & mask(e != 0);
    // `eff >= e` within a block, so this is at least `24 - mant_bits`; from
    // 25 up the code is zero whatever the shift.
    let shift = (24 + eff - e - format.mant_bits).min(31);
    ((significand + (format.round << (shift - 1))) >> shift).min(format.max_code)
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

/// The encode → decode round trip of one lane.
#[inline(always)]
fn requantize(bits: u32, eff: u32, shared: u32, format: Format) -> f32 {
    value(sign(bits, shared), code(bits, eff, format), eff, format.mant_bits)
}

/// Quantises up to [`CHUNK`] adjacent values — whole blocks, the last one
/// possibly short — into `out` (same length). Returns `false`, leaving `out`
/// unspecified, if a value is NaN or infinite.
#[inline]
pub(crate) fn quantize_run(values: &[f32], format: Format, out: &mut [f32]) -> bool {
    // Lane `i`'s exponent sits at `e[i + 1]`, so every lane has a neighbour
    // on either side; lanes past `values.len()` stay zero: padding.
    let mut e = [0; CHUNK + 2];
    for (e, v) in e[1..=CHUNK].iter_mut().zip(values) {
        *e = exponent(v.to_bits());
    }
    let mut shared = [0; CHUNK];
    let mut top = 0;
    for (shared, e) in shared
        .chunks_exact_mut(BLOCK_SIZE)
        .zip(e[1..=CHUNK].chunks_exact(BLOCK_SIZE))
        .take(values.len().div_ceil(BLOCK_SIZE))
    {
        let max = e.iter().fold(0, |m, &x| m.max(x));
        shared.fill(max);
        top = top.max(max);
    }
    for (i, ((((out, v), before), after), shared)) in
        out.iter_mut().zip(values).zip(&e[..CHUNK]).zip(&e[2..]).zip(&shared).enumerate()
    {
        let bits = v.to_bits();
        // The other lane of the subgroup: the next one for even lanes, the
        // previous one for odd lanes (a mask, not a branch, so the loop
        // stays two plain loads).
        let even = mask(i % SUBGROUP_SIZE == 0);
        let partner = (after & even) | (before & !even);
        let eff = effective(exponent(bits).max(partner), *shared);
        *out = requantize(bits, eff, *shared, format);
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
            let (up, lo) = (up.to_bits(), lo.to_bits());
            let eff = effective(exponent(up).max(exponent(lo)), *shared);
            *out_up = requantize(up, eff, *shared, format);
            *out_lo = requantize(lo, eff, *shared, format);
        }
    }
    !shared[..width].contains(&NON_FINITE)
}
