//! MX (microexponent) block floating point arithmetic.
//!
//! This crate implements the MX number format used by the DaCapo accelerator
//! (Kim et al., ISCA 2024), which in turn adopts the format proposed by
//! Darvish Rouhani et al., *"With Shared Microexponents, A Little Shifting
//! Goes a Long Way"* (ISCA 2023).
//!
//! An MX **block** groups [`BLOCK_SIZE`] (16) address-adjacent values and
//! stores:
//!
//! * one 8-bit **shared exponent** — the largest FP32 exponent in the block,
//! * one 1-bit **microexponent** per [`SUBGROUP_SIZE`]-element (2) subgroup —
//!   set when every exponent in the subgroup is strictly smaller than the
//!   shared exponent, which shifts that subgroup's effective exponent down by
//!   one and recovers one bit of precision,
//! * per-element sign and a truncated mantissa whose width depends on the
//!   precision: 2 bits ([`MxPrecision::Mx4`]), 4 bits ([`MxPrecision::Mx6`]),
//!   or 7 bits ([`MxPrecision::Mx9`]).
//!
//! Most computation then happens in the integer domain; accumulation happens
//! in FP32 (the DPE's "FP32 generator"), which is why decoding an MX block to
//! `f32` and multiply-accumulating reproduces the hardware result exactly.
//!
//! # The integer algorithm
//!
//! Conversion never leaves the integer domain. With `m` the mantissa width,
//! and working on the `f32` bit patterns of a block:
//!
//! 1. **Exponents.** Each lane's biased exponent field `e` is
//!    `(bits >> 23) & 0xFF`. The shared exponent is the maximum of the
//!    fields; a subgroup's microexponent is set when the maximum of its two
//!    fields is non-zero yet below the shared one, giving the subgroup's
//!    effective exponent `eff = shared − micro`. Zeros and subnormals have
//!    field `0`, and since `0` is the neutral element of an unsigned maximum
//!    they cannot move any exponent — no masking is needed to "flush" them,
//!    and a block whose shared exponent is `0` is exactly an all-zero block
//!    (decoded as `+0.0` in every lane). NaN and the infinities have field
//!    `255`, which no finite value reaches, so `shared == 255` is the whole
//!    non-finite check.
//! 2. **Codes**, which an [`MxBlock`] stores. The 24-bit significand
//!    `mant24 = 1.fraction` (zero when `e == 0`) is cut down to `m` bits at
//!    the subgroup's scale: `code = min((mant24 + half) >> s, 2^m − 1)` with
//!    `s = 24 + eff − e − m`, where `half = 1 << (s − 1)` rounds to nearest
//!    (ties away from zero) and `half = 0` truncates. `eff ≥ e` within a
//!    block, so `s ≥ 24 − m ≥ 17`. From `s = 25` on the result is zero for any
//!    significand (`mant24 + half < 2^24 + 2^(s−1) ≤ 2^s`), so `s` may be
//!    clamped at `31`: the clamp keeps the shift inside the word without
//!    changing a single code. A carry out of the rounding (`1.11…1` rounding
//!    up to `2.0`) saturates at `2^m − 1` instead of raising the exponent.
//! 3. **Values**, which [`MxBlock::decode`] returns. A code decodes to
//!    `sign | code × 2^(eff − 127 − (m − 1))`, computed as one `f32`
//!    multiply of the code by a power of two built from its bit pattern.
//!    The multiply rounds nothing: `code < 2^7` has at most seven
//!    significant bits, and the scale's exponent is at least
//!    `0 − 127 − 6 = −133`, so the lowest set bit of the product is at
//!    `2^-133` or above — inside the subnormal range, which reaches down to
//!    `2^-149`. At the other end `127 × 2^(254 − 133) < 2^128` stays finite.
//! 4. **Fake quantisation rounds in place.** [`MxVector::quantize_into`] and
//!    [`MxVector::quantize_columns_into`] want the value of step 3 and never
//!    form the code of step 2. One code unit is `2^s` units of the lane's
//!    own significand, so the value is the lane's bit pattern with its low
//!    `s` fraction bits rounded away: with `mag` the bits below the sign,
//!    `(mag + half) & (!0 << s)` for `s ≤ 23`.
//!    * *The carry is the exponent bump.* When the kept bits are all ones
//!      and the rounding adds one more, the add carries out of the fraction
//!      field into the exponent field next to it and leaves `e + 1` over a
//!      zero fraction: the bit pattern of `2^(e + 1 − 127)`, which is the
//!      rounded value. No renormalisation step exists to get wrong.
//!    * *`s = 24`*, one unit being twice the lane's power of two: to nearest,
//!      `mant24 + 2^23` lies in `[2^24, 2^25)` and the code is `1` whatever
//!      the fraction, i.e. `2^(e + 1 − 127)` again — the same add with the
//!      whole fraction cleared, so the mask's shift stops at `23`.
//!      Truncation there, and either mode from `s = 25`, give zero.
//!    * *The clamp is an integer `min`.* The saturated code `2^m − 1` at
//!      `eff` is the float `1.1…1 × 2^(eff − 127)` with `m` ones, bits
//!      `eff << 23 | (2^(m−1) − 1) << (24 − m)`. Non-negative floats are
//!      ordered as their bit patterns, so `min` against those bits catches a
//!      carry past `eff` — including the one that would reach field `255`.
//!    * *No output is subnormal.* A lane with `e = 0` gives zero; any other
//!      lane gives zero or keeps an exponent field of at least its own
//!      `e ≥ 1`. Step 3's subnormal *scale* (`eff < m`) has no counterpart
//!      here: the products it forms from real lanes were normal all along.
//!
//! The same per-lane arithmetic serves sixteen adjacent values
//! ([`MxVector::quantize_into`]) and sixteen rows of a matrix quantised down
//! its columns ([`MxVector::quantize_columns_into`]); only the direction the
//! maxima of step 1 run in differs. It is branch-free, so the loops over it
//! compile to vector instructions, and both drivers give those loops whole
//! vectors: a block short of sixteen values is padded with zeros, and a
//! group of columns whose width is not a multiple of sixteen is staged with
//! zero columns beside it up to the next multiple. Zeros are the neutral
//! element of step 1's maxima, and a zero column shares no block with a real
//! one, so neither padding changes a value. Step 4 is checked lane by lane
//! against steps 2 and 3, and those bit for bit against the format's
//! floating-point definition (`f64` division, `round`, `powi`), which
//! survives in the tests as the oracle.
//!
//! # Examples
//!
//! ```
//! use dacapo_mx::{MxPrecision, MxVector};
//!
//! # fn main() -> Result<(), dacapo_mx::MxError> {
//! let a: Vec<f32> = (0..64).map(|i| (i as f32) * 0.25 - 8.0).collect();
//! let b: Vec<f32> = (0..64).map(|i| ((i % 7) as f32) * 0.5).collect();
//!
//! let qa = MxVector::encode(&a, MxPrecision::Mx9)?;
//! let qb = MxVector::encode(&b, MxPrecision::Mx9)?;
//!
//! let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
//! let approx = qa.dot(&qb)?;
//! assert!((exact - approx).abs() / exact.abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

mod block;
mod error;
mod error_analysis;
mod format;
mod kernel;
mod vector;

pub use block::MxBlock;
pub use error::MxError;
pub use error_analysis::{quantization_error, QuantError};
pub use format::{MxPrecision, RoundingMode, BLOCK_SIZE, SUBGROUP_COUNT, SUBGROUP_SIZE};
pub use vector::MxVector;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, MxError>;
