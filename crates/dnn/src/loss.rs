//! Softmax cross-entropy loss and classification accuracy.
//!
//! # The reference
//!
//! [`cross_entropy`] is the loss as first written: [`ops::softmax_rows`]
//! (`exp(x − max)` per logit through the host's libm `expf`, each row summed
//! left to right, each element divided by its row's sum), then `− ln p` at
//! each label, `− 1` at the label and `× 1/batch`. The training loop runs
//! [`cross_entropy_into`], which writes the same gradient, bit for bit, and
//! computes no loss value: nothing in training reads one.
//!
//! # The kernel
//!
//! A libm call per logit is 160 calls in a 16×10 student step, and a ten-wide
//! row loop never reaches a 16-lane vector body. So [`cross_entropy_into`]
//! takes its `exp` in one pass over all `rows × cols` shifted logits of the
//! batch, straight-line code the compiler vectorises (`exp_where_decided`).
//! For `x` in `[−87, 0]` it computes `v ≈ eˣ` in `f64` (`exp_f64`: a
//! `mul_add` Cody–Waite reduction `x = k·ln 2 + r`, a degree-11 Taylor
//! polynomial in `r`, `× 2ᵏ` through the exponent field). Its `v` is not
//! libm's; it does not have to be. With
//!
//! ```text
//! δ = v·2⁻³²
//! ```
//!
//! a lane whose `(v − δ) as f32` and `(v + δ) as f32` agree emits that value.
//! Every other lane, and `x < −87` (a subnormal or zero result), `x > 0` and
//! NaN, comes out NaN and is recomputed by `f32::exp`, so libm stays the
//! definition. `as f32` is monotone, so every real in `[v − δ, v + δ]` rounds
//! to the emitted `f32`; if libm's own `f64`, before its one rounding to
//! `f32`, lies in that interval, the two agree bit for bit, on any target,
//! vectorised or not. A rounding boundary of `f32` falls inside an interval of
//! relative width 2⁻³¹ for about 0.2 % of the inputs in `[−87, 0]`; only
//! those lanes still call libm.
//!
//! # The error budget (ε = 2⁻⁵³)
//!
//! * **Assumed of libm:** glibc's `expf` (since 2.27 the Arm
//!   optimized-routines algorithm; 2.36 is what the bound was checked
//!   against) evaluates `eˣ` in `f64` and rounds once to `f32`. It documents
//!   0.502 ulp, from a relative error of at most 1.69·2⁻³⁴ before that
//!   rounding (its polynomial), plus a few ε for its table entry and
//!   products: under 0.43·2⁻³².
//! * **Proved of `exp_f64`:** `k` is `x·log₂e` rounded to an integer by
//!   adding 1.5·2⁵², so `|r| ≤ ln 2 / 2` to within 2⁻⁴⁵. `r` is
//!   `(x − k·hi) − k·lo` in two `mul_add`s, each rounding once by at most
//!   2⁻⁵⁵ (`|r| < ½`), and `hi + lo` misses `ln 2` by under 2⁻¹¹⁰, times
//!   `|k| ≤ 126`: `r` is within 2⁻⁵⁴ of `x − k·ln 2`, which is 2⁻⁵⁴ relative
//!   on `eʳ`. The Taylor polynomial to `r¹¹` drops under 6.5·10⁻¹⁵, at most
//!   9.2·10⁻¹⁵ ≈ 2⁻⁴⁶·⁶ of `eʳ ≥ √½`. The eleven fused Horner steps round by
//!   at most `ε·(1 + |r|)·e^|r|` together and the coefficients by
//!   `ε·e^|r|`, under 5ε of `eʳ`. `× 2ᵏ` is exact: `k ∈ [−126, 0]` keeps the
//!   product a normal `f64`. Under 2⁻⁴⁶·⁴ in all, so 2⁻⁴⁵ is the bound the
//!   tests hold.
//! * **Sum:** libm's `f64` and `v` are within 0.43·2⁻³² + 2⁻⁴⁵ of `eˣ`, and
//!   `δ` is 2⁻³² of `v`: more than 2× to spare. `v ∓ δ` round by at most ε
//!   of `v`, 2⁻²¹ of `δ`.
//!
//! So `δ` is 2⁻³², not the 2⁻⁴⁰ of `dacapo-datagen`'s noise kernel: glibc's
//! `expf` is not correctly rounded, and its error before rounding is wider
//! than a 2⁻⁴⁰ bracket. A bracket that narrow decides lanes on the correctly
//! rounded side where libm rounds the other way.
//!
//! The contract rests on glibc's documented bound, and the release kernel
//! tests check it on the host: every `f32` from `+0.0` and `−0.0` down to
//! `−∞` against `f32::exp`.
//!
//! # Zero and NaN
//!
//! `x = ±0` gives `k = 0`, `r = ±0`, `v = 1`: the emitted `1.0` is libm's. An
//! out-of-range lane is a NaN sentinel at both ends of its bracket, so
//! undecided lanes are found with `f32` `!=` (NaN is unequal to itself), never
//! with `to_bits()`, which would call the sentinel decided.

use crate::{DnnError, Result};
use dacapo_tensor::{ops, Matrix};
use std::f64::consts::{LN_2, LOG2_E};

/// `c₀ + c₁·r + c₂·r² + …`, fused Horner.
fn horner(r: f64, coefficients: [f64; 12]) -> f64 {
    let [lower @ .., last] = coefficients;
    lower.iter().rev().fold(last, |acc, &c| acc.mul_add(r, c))
}

/// `eˣ` for `x` in `[−87, 0]`, within 2⁻⁴⁵ relative (module docs). Any
/// other `x` gives a value the caller discards.
#[inline(always)]
fn exp_f64(x: f32) -> f64 {
    // Adding 1.5·2⁵² rounds to an integer, left in the low bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // ln 2 − `LN_2`, to the nearest double.
    const LN_2_LO: f64 = 2.319_046_813_846_299_6e-17;
    // The bits of 1.0.
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    // `1/n!` for n = 0 ..= 11.
    const TAYLOR: [f64; 12] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
    ];
    let x = f64::from(x);
    let shifted = x.mul_add(LOG2_E, SHIFT);
    let k = shifted - SHIFT;
    let r = (-k).mul_add(LN_2_LO, (-k).mul_add(LN_2, x));
    // `k` in two's complement sits in the low bits of `shifted`: shifted into
    // the exponent field and biased, it is 2ᵏ.
    let scale = f64::from_bits((shifted.to_bits() << 52).wrapping_add(ONE));
    horner(r, TAYLOR) * scale
}

/// The `f32` roundings of the two ends of `[v − δ, v + δ]` for `v ≈ eˣ`
/// (module docs), NaN at both ends where `x` is outside `[−87, 0]` or NaN.
/// Equal means every candidate for libm's value rounds to that one `f32`.
#[inline(always)]
fn bracket(x: f32) -> (f32, f32) {
    const TWO_POW_MINUS_32: f64 = 1.0 / (1u64 << 32) as f64;
    let v = if (-87.0..=0.0).contains(&x) { exp_f64(x) } else { f64::NAN };
    let delta = v * TWO_POW_MINUS_32;
    ((v - delta) as f32, (v + delta) as f32)
}

/// Each `x` of `values` becomes `f32::exp(x)` where its bracket decides it,
/// NaN where not. Returns whether every lane was decided.
fn exp_where_decided(values: &mut [f32]) -> bool {
    let mut decided = true;
    for value in values {
        let (low, high) = bracket(*value);
        // `==`, not `to_bits()`: the NaN sentinel has equal bits at both ends.
        decided &= low == high;
        *value = if low == high { low } else { f32::NAN };
    }
    decided
}

/// The row maximum the softmax shifts by: the reference's `f32::max` fold,
/// one compare-and-select a step. NaNs are skipped as `f32::max` skips them
/// (`NaN > max` is false); where `+0.0` and `−0.0` tie, which one is kept may
/// differ, and `x − max` then differs only between `+0.0` and `−0.0`, whose
/// `exp` is `1.0` either way.
fn row_max(row: &[f32]) -> f32 {
    row.iter().fold(f32::NEG_INFINITY, |max, &v| if v > max { v } else { max })
}

/// The lanes [`exp_where_decided`] left NaN, through libm: `exp(x − max)`
/// recomputed from the logits, as the reference computes it. A 16-lane chunk
/// is searched only if an or-reduction over it finds a NaN.
#[inline(never)]
fn settle(logits: &[f32], cols: usize, probs: &mut [f32]) {
    const LANES: usize = 16;
    for (start, chunk) in (0..).step_by(LANES).zip(probs.chunks_mut(LANES)) {
        if chunk.iter().fold(false, |nan, p| nan | p.is_nan()) {
            for (i, p) in (start..).zip(chunk) {
                if p.is_nan() {
                    let row = &logits[i / cols * cols..][..cols];
                    *p = (logits[i] - row_max(row)).exp();
                }
            }
        }
    }
}

/// Computes the mean softmax cross-entropy loss and its gradient with respect
/// to the logits.
///
/// `labels[i]` is the class index of sample `i` (row `i` of `logits`). This
/// is the reference form — one allocated matrix per step — whose gradient
/// tests hold the training loop's [`cross_entropy_into`] bit-identical to.
///
/// # Errors
///
/// Returns [`DnnError::InvalidLabels`] if the number of labels differs from
/// the number of logit rows or any label is out of range.
///
/// # Examples
///
/// ```
/// use dacapo_dnn::loss::cross_entropy;
/// use dacapo_tensor::Matrix;
///
/// # fn main() -> Result<(), dacapo_dnn::DnnError> {
/// let logits = Matrix::from_rows(&[&[2.0, 0.1, -1.0]])?;
/// let (loss, grad) = cross_entropy(&logits, &[0])?;
/// assert!(loss > 0.0);
/// assert_eq!(grad.shape(), (1, 3));
/// # Ok(())
/// # }
/// ```
pub fn cross_entropy(logits: &Matrix, labels: &[usize]) -> Result<(f32, Matrix)> {
    validate_labels(logits, labels)?;
    let probs = ops::softmax_rows(logits);
    let batch = logits.rows() as f32;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        let p = probs[(i, label)].max(1e-12);
        loss -= p.ln();
        grad[(i, label)] -= 1.0;
    }
    // Mean over the batch; scale the gradient accordingly.
    let grad = ops::scale(&grad, 1.0 / batch);
    Ok((loss / batch, grad))
}

/// [`cross_entropy`]'s gradient into a reusable matrix, without allocation
/// and without the loss value.
///
/// Works in passes over the whole batch (module docs): row maxima and
/// shifted logits; one `exp` pass over all `rows × cols` values, the lanes
/// its bracket leaves undecided through libm; each row's sum in the
/// reference's order and the divide by it; the label's `− 1`; one
/// `× 1/batch` pass. Every element still goes through the reference's
/// arithmetic sequence (`exp(x - max)`, `/ sum`, `- 1` at the label,
/// `× 1/batch`), so the gradient is bit-identical to it. This is the loss
/// the training loop runs.
///
/// # Errors
///
/// Returns [`DnnError::InvalidLabels`] under the same conditions as
/// [`cross_entropy`].
pub fn cross_entropy_into(logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> Result<()> {
    validate_labels(logits, labels)?;
    let (rows, cols) = logits.shape();
    let inv_batch = 1.0 / rows as f32;
    grad.resize_for_overwrite(rows, cols).map_err(crate::DnnError::from)?;
    let src = logits.as_slice();
    let dst = grad.as_mut_slice();
    for (row, out) in src.chunks_exact(cols).zip(dst.chunks_exact_mut(cols)) {
        let max = row_max(row);
        for (o, &v) in out.iter_mut().zip(row) {
            *o = v - max;
        }
    }
    if !exp_where_decided(dst) {
        settle(src, cols, dst);
    }
    for out in dst.chunks_exact_mut(cols) {
        let sum = out.iter().fold(0.0f32, |sum, &p| sum + p);
        if sum > 0.0 {
            out.iter_mut().for_each(|p| *p /= sum);
        }
    }
    for (out, &label) in dst.chunks_exact_mut(cols).zip(labels) {
        out[label] -= 1.0;
    }
    for o in dst.iter_mut() {
        *o *= inv_batch;
    }
    Ok(())
}

/// Fraction of rows whose argmax matches the label.
///
/// # Errors
///
/// Returns [`DnnError::InvalidLabels`] under the same conditions as
/// [`cross_entropy`].
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> Result<f32> {
    validate_labels(logits, labels)?;
    Ok(ops::argmax_matches(logits, labels) as f32 / labels.len() as f32)
}

fn validate_labels(logits: &Matrix, labels: &[usize]) -> Result<()> {
    if labels.len() != logits.rows() {
        return Err(DnnError::InvalidLabels {
            reason: format!("{} labels for {} rows of logits", labels.len(), logits.rows()),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= logits.cols()) {
        return Err(DnnError::InvalidLabels {
            reason: format!("label {bad} out of range for {} classes", logits.cols()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Matrix::zeros(4, 5).unwrap();
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0, -10.0]]).unwrap();
        let (loss, _) = cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn confident_wrong_prediction_has_large_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0, -10.0]]).unwrap();
        let (loss, _) = cross_entropy(&logits, &[1]).unwrap();
        assert!(loss > 5.0);
    }

    /// A row of logits of one of six kinds: plain; spread past 87, so some
    /// shifted logits fall below the kernel's range; sprinkled with `±∞` and
    /// NaNs; all equal; a constant plus ulp-sized offsets, so every shifted
    /// logit is within a few ulps of zero; signed zeros, so the row maximum
    /// is a tie between `+0.0` and `−0.0`.
    fn hostile_row(cols: usize, rng: &mut StdRng) -> Vec<f32> {
        const SPECIALS: [f32; 5] =
            [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, f32::MAX];
        const ZEROS: [f32; 4] = [0.0, -0.0, -1.0, f32::NAN];
        match rng.gen_range(0..6u32) {
            0 => (0..cols).map(|_| rng.gen_range(-8.0f32..8.0)).collect(),
            1 => (0..cols).map(|_| rng.gen_range(-120.0f32..40.0)).collect(),
            2 => (0..cols)
                .map(|_| {
                    if rng.gen_range(0..4u32) == 0 {
                        SPECIALS[rng.gen_range(0..SPECIALS.len())]
                    } else {
                        rng.gen_range(-8.0f32..8.0)
                    }
                })
                .collect(),
            3 => {
                let value = [rng.gen_range(-50.0f32..50.0), f32::NEG_INFINITY, f32::NAN]
                    [rng.gen_range(0..3usize)];
                vec![value; cols]
            }
            4 => (0..cols).map(|_| ZEROS[rng.gen_range(0..ZEROS.len())]).collect(),
            _ => {
                let base = rng.gen_range(-4.0f32..4.0);
                (0..cols)
                    .map(|_| f32::from_bits(base.to_bits().wrapping_add(rng.gen_range(0..5u32))))
                    .collect()
            }
        }
    }

    /// `cross_entropy_into`'s gradient is the reference's, bit for bit (NaN
    /// payloads included).
    fn assert_matches_reference(logits: &Matrix, labels: &[usize], grad: &mut Matrix) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (_, expected) = cross_entropy(logits, labels).unwrap();
        cross_entropy_into(logits, labels, grad).unwrap();
        assert_eq!(
            (grad.shape(), bits(grad)),
            (expected.shape(), bits(&expected)),
            "logits {logits:?}, labels {labels:?}"
        );
    }

    #[test]
    fn fused_cross_entropy_is_bit_identical_to_allocating() {
        let mut rng = StdRng::seed_from_u64(40);
        // One gradient matrix across every shape, as the training arena holds it.
        let mut grad = Matrix::zeros(1, 1).unwrap();
        for cols in 1..=40 {
            for rows in 1..=33 {
                for _ in 0..3 {
                    let data: Vec<f32> =
                        (0..rows).flat_map(|_| hostile_row(cols, &mut rng)).collect();
                    let logits = Matrix::from_vec(rows, cols, data).unwrap();
                    let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..cols)).collect();
                    assert_matches_reference(&logits, &labels, &mut grad);
                }
            }
        }
        // The student's 16×10 shape at training spreads: over half of the
        // batches (1,117 of 2,000) have a lane the bracket leaves to libm.
        let mut fell_back = 0;
        for _ in 0..2_000 {
            let logits =
                Matrix::from_vec(16, 10, (0..160).map(|_| rng.gen_range(-12.0f32..12.0)).collect())
                    .unwrap();
            let labels: Vec<usize> = (0..16).map(|_| rng.gen_range(0..10)).collect();
            assert_matches_reference(&logits, &labels, &mut grad);
            let mut shifted: Vec<f32> = logits
                .iter_rows()
                .flat_map(|row| row.iter().map(move |&v| v - row_max(row)))
                .collect();
            fell_back += usize::from(!exp_where_decided(&mut shifted));
        }
        assert!((50..=1_500).contains(&fell_back), "{fell_back} of 2,000 batches fell back");
    }

    /// What a sweep over some inputs found: how many it compared, how many
    /// of those in `[−87, 0]` the kernel left to libm, and the first few
    /// inputs whose `exp` — the kernel's, then libm's for the lanes it left
    /// NaN — is not `f32::exp`'s bits.
    #[derive(Default)]
    struct Sweep {
        inputs: u64,
        in_range: u64,
        fallbacks: u64,
        mismatches: Vec<f32>,
        mismatch_count: u64,
    }

    impl Sweep {
        fn run(&mut self, inputs: &[f32], out: &mut Vec<f32>) {
            out.clear();
            out.extend_from_slice(inputs);
            exp_where_decided(out);
            for (&x, &e) in inputs.iter().zip(out.iter()) {
                self.inputs += 1;
                let e = if e.is_nan() { x.exp() } else { e };
                if e.to_bits() != x.exp().to_bits() {
                    self.mismatch_count += 1;
                    if self.mismatches.len() < 8 {
                        self.mismatches.push(x);
                    }
                }
                if (-87.0..=0.0).contains(&x) {
                    self.in_range += 1;
                    let (low, high) = bracket(x);
                    self.fallbacks += u64::from(low != high);
                }
            }
        }

        fn merge(&mut self, other: Sweep) {
            self.inputs += other.inputs;
            self.in_range += other.in_range;
            self.fallbacks += other.fallbacks;
            self.mismatch_count += other.mismatch_count;
            self.mismatches.extend(other.mismatches);
            self.mismatches.truncate(8);
        }

        fn fallback_share(&self) -> f64 {
            self.fallbacks as f64 / self.in_range as f64
        }

        fn assert_no_mismatch(&self) {
            assert_eq!(
                self.mismatch_count,
                0,
                "{} of {} inputs differ from f32::exp, e.g. {:?}",
                self.mismatch_count,
                self.inputs,
                self.mismatches
                    .iter()
                    .map(|x| format!("{x:e} ({:#010x})", x.to_bits()))
                    .collect::<Vec<_>>()
            );
        }
    }

    /// The patterns `bits − radius ..= bits + radius`.
    fn window(bits: u32, radius: u32) -> impl Iterator<Item = f32> {
        (bits.saturating_sub(radius)..=bits.saturating_add(radius)).map(f32::from_bits)
    }

    #[test]
    fn the_exp_kernel_equals_libm_on_a_strided_sweep_and_hard_windows() {
        const NEG_ZERO: u32 = 0x8000_0000;
        const NEG_INFINITY: u32 = 0xff80_0000;
        let mut out = Vec::new();
        // Every 4,093rd pattern from −0.0 down to −∞, and −∞ itself.
        let strided: Vec<f32> = (NEG_ZERO..=NEG_INFINITY)
            .step_by(4_093)
            .chain([NEG_INFINITY])
            .map(f32::from_bits)
            .collect();
        let mut sweep = Sweep::default();
        sweep.run(&strided, &mut out);
        sweep.assert_no_mismatch();
        let share = sweep.fallback_share();
        // A guard that never fires is not testing the boundary; one that
        // fires often is not a fast path.
        assert!((1e-4..=1e-2).contains(&share), "fallback share {share:e}");

        // Dense windows: both zeros (and the positive side, all fallback),
        // −2ᵉ near zero where `eˣ` crosses the ulps below 1, the kernel's
        // edge at −87 and libm's subnormal and zero edges, and around the
        // first undecided inputs of the sweep.
        let undecided = strided.iter().filter(|&&x| {
            let (low, high) = bracket(x);
            (-87.0..=0.0).contains(&x) && low != high
        });
        let mut hard: Vec<f32> = window(0, 4_096).chain(window(NEG_ZERO, 4_096)).collect();
        for e in -40..=-20 {
            hard.extend(window((-(2.0f32).powi(e)).to_bits(), 512));
        }
        for edge in [-87.0f32, -87.336_55, -103.972_08] {
            hard.extend(window(edge.to_bits(), 4_096));
        }
        for &x in undecided.take(64) {
            hard.extend(window(x.to_bits(), 256));
        }
        hard.extend([f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001), f32::from_bits(!0)]);
        hard.extend([f32::INFINITY, 1.0, 88.7, f32::MAX, f32::MIN_POSITIVE]);
        let mut windows = Sweep::default();
        windows.run(&hard, &mut out);
        windows.assert_no_mismatch();
        assert!(windows.fallbacks > 0, "the windows reach the fallback");
    }

    /// Every non-positive `f32`: `+0.0`, and `−0.0` down to `−∞`
    /// (2,139,095,042 inputs; about 15 s in release on two cores). Ignored in
    /// the test profile, whose opt-level 1 runs it scalar; the release kernel
    /// tests run it with `--include-ignored`.
    #[test]
    #[ignore]
    fn the_exp_kernel_equals_libm_on_every_non_positive_input() {
        const NEG_ZERO: u64 = 0x8000_0000;
        const NEG_INFINITY: u64 = 0xff80_0000;
        const CHUNK: u64 = 1 << 14;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4) as u64;
        let chunks = (NEG_INFINITY - NEG_ZERO) / CHUNK + 1;
        let mut sweep = Sweep::default();
        sweep.run(&[0.0], &mut Vec::new());
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let (mut sweep, mut inputs, mut out) =
                            (Sweep::default(), Vec::new(), Vec::new());
                        for chunk in (t..chunks).step_by(threads as usize) {
                            let start = NEG_ZERO + chunk * CHUNK;
                            let end = (start + CHUNK).min(NEG_INFINITY + 1);
                            inputs.clear();
                            inputs.extend((start..end).map(|bits| f32::from_bits(bits as u32)));
                            sweep.run(&inputs, &mut out);
                        }
                        sweep
                    })
                })
                .collect();
            for worker in workers {
                sweep.merge(worker.join().unwrap());
            }
        });
        eprintln!(
            "{} inputs, {} mismatches; {} of {} in [-87, 0] fell back ({:.3} %)",
            sweep.inputs,
            sweep.mismatch_count,
            sweep.fallbacks,
            sweep.in_range,
            100.0 * sweep.fallback_share()
        );
        assert_eq!(sweep.inputs, 2_139_095_042);
        sweep.assert_no_mismatch();
    }

    #[test]
    fn the_exp_kernel_stays_inside_the_documented_error() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut worst = 0.0f64;
        for i in 0..200_000 {
            // Every other input hugs a reduction boundary, |r| → ln 2 / 2.
            let x = if i % 2 == 0 {
                let k = f64::from(rng.gen_range(-126i32..0)) + 0.5;
                (k * LN_2 + rng.gen_range(-1e-6..1e-6)).clamp(-87.0, 0.0) as f32
            } else {
                rng.gen_range(-87.0f32..0.0)
            };
            let exact = f64::from(x).exp();
            worst = worst.max(((exp_f64(x) - exact) / exact).abs());
        }
        // The documented bound, which leaves room for libm's own ulp.
        assert!(worst <= 1.0 / (1u64 << 45) as f64, "exp off by 2^{}", worst.log2());
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Each row of the softmax cross-entropy gradient sums to zero.
        let logits = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[3.0, 0.0, -3.0]]).unwrap();
        let (_, grad) = cross_entropy(&logits, &[2, 0]).unwrap();
        for row in grad.iter_rows() {
            let sum: f32 = row.iter().sum();
            assert!(sum.abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.2, -0.4, 0.9], &[1.5, 0.3, -0.8]]).unwrap();
        let labels = [2usize, 0usize];
        let (_, grad) = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus[(r, c)] += eps;
                let mut minus = logits.clone();
                minus[(r, c)] -= eps;
                let (lp, _) = cross_entropy(&plus, &labels).unwrap();
                let (lm, _) = cross_entropy(&minus, &labels).unwrap();
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad[(r, c)]).abs() < 1e-3,
                    "grad[{r},{c}] numeric {numeric} vs analytic {}",
                    grad[(r, c)]
                );
            }
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 0]).unwrap(), 1.0);
    }

    #[test]
    fn label_validation() {
        let logits = Matrix::zeros(2, 3).unwrap();
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 3]).is_err());
        assert!(accuracy(&logits, &[0, 5]).is_err());
    }
}
