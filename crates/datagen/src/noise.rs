//! The per-feature Gaussian noise of a frame: Box–Muller without libm on the
//! fast path, bit-identical to `rand_distr::Normal<f32>` (the in-repo shim)
//! by a rounding test.
//!
//! # The reference
//!
//! For each feature, `Normal::new(0.0f32, σ).sample(rng)` takes two
//! `next_u64` values `b₁`, `b₂` and computes, in `f64`,
//!
//! ```text
//! u₁ = max(unit(b₁), 1e-12)      unit(b) = (b >> 11)·2⁻⁵³ ∈ [0, 1)
//! θ  = (2·PI)·unit(b₂)
//! v  = 0.0 + σ·(sqrt(−2·ln u₁)·cos θ)        emitted as  v as f32
//! ```
//!
//! with `ln` and `cos` from the host's libm: 411 of a frame's 527 ns at
//! sixteen features. [`reference()`] is that formula, kept verbatim.
//!
//! # The kernel
//!
//! [`bracket`] evaluates the same expression with two polynomial kernels
//! ([`ln`], [`cos`]) and no call, so a run of lanes ([`LANES`] at a time in
//! [`around`]) is straight-line code the compiler vectorises. (The Horner
//! steps are `mul_add`, one instruction under the workspace's
//! `target-cpu=native`; see `.cargo/config.toml` for what a build without
//! hardware FMA pays.) Its result `v` is not libm's; it does not have to be.
//! With
//!
//! ```text
//! δ = |v|·2⁻⁴⁰ + σ·r·2⁻⁸⁰          r = sqrt(−2·ln u₁)
//! ```
//!
//! a lane whose `(v − δ) as f32` and `(v + δ) as f32` agree emits that value;
//! any other lane is recomputed by [`reference()`]. `as f32` is monotone, so
//! every real in `[v − δ, v + δ]` rounds to the emitted `f32`; if the
//! reference's `f64` lies in that interval the two agree bit for bit — on any
//! target, vectorised or not, fused or not, because nothing below depends on
//! *which* bits the kernel produced, only on how far they are from the truth.
//! A rounding boundary of `f32` falls inside an interval of relative width
//! 2⁻³⁹ with probability ≈ 2⁻³⁹ / 2⁻²³·⁵ — about 2·10⁻⁵ of draws reach
//! libm, and only those depend on the host's libm at all.
//!
//! # The error budget (ε = 2⁻⁵³)
//!
//! Let `V` be the exact value of the expression at the reference's own
//! inputs: `u₁` and the *rounded* angle `θ` are identical doubles on both
//! sides, so neither contributes.
//!
//! * **Assumed of libm:** `ln` and `cos` return within 1 ulp (≤ 2ε relative;
//!   glibc documents exactly that for both). `sqrt`, `×` and `as` are IEEE.
//!   Then the reference is `V·(1 + e)` with `|e| ≤ 6ε`: 2ε from `ln` halved
//!   by the root, ε for the root, 2ε for `cos`, ε for each product; `0.0 +`
//!   and `−2·` are exact.
//! * **Proved of [`ln`]:** with `u₁ = m·2ᵉ`, `m ∈ [√½, √2)` and
//!   `s = (m − 1)/(m + 1)`, `|s| ≤ 0.1716`, `ln u₁ = e·ln 2 + 2·atanh s`.
//!   The series to `s¹⁷` drops `2s¹⁹/19 + …`, under 9·10⁻¹⁶ of `2·atanh s`
//!   (8ε); `s` carries 2ε (`m − 1` is exact, `m + 1` and the quotient round),
//!   the Horner steps and the final product 3ε more. For `e = 0` that is the
//!   whole error, *relative*, however close `u₁` is to 1. For `e ≤ −1` the
//!   `e·LN_2` term adds 2ε of itself, and `|ln u₁| ≥ ln √2` is at least as
//!   large as the series part and half the `e·ln 2` part: ≤ 18ε in all, 10ε
//!   after the root.
//! * **Proved of [`cos`]:** `cos θ = −sin(θ − π/2)` below π and
//!   `sin(θ − 3π/2)` from π up, so `|y| ≤ π/2` and the zeros of `cos` are
//!   the zero of `y`. `y = (θ − hi) − lo` with `hi` the nearest double to
//!   π/2 (3π/2) and `lo` the nearest double to what is left: the first
//!   subtraction is exact wherever `y` is small (Sterbenz: `θ ∈ [hi/2, 2·hi]`)
//!   and rounds by ε elsewhere, the second rounds by ε, and `hi + lo` misses
//!   π/2 (3π/2) by 1.5·10⁻³³ (7.9·10⁻³³). No double is closer to π/2 than
//!   6.1·10⁻¹⁷, or to 3π/2 than 1.8·10⁻¹⁶, so even there the miss is under ε
//!   of `y`; `δ`'s absolute term, worth 8·10⁻²⁵ on `y`, is there so that
//!   this one claim — relative accuracy resting on a cancelling subtraction
//!   — is not load-bearing. The odd Taylor polynomial to `y¹⁹` alternates,
//!   so it drops less than `y²¹/21!`, ≤ 2.6·10⁻¹⁶ of `sin y` (2.3ε, using
//!   `sin y ≥ 2y/π`); Horner rounding is bounded by ε·sinh(y)/sin(y) ≤ 2.4ε
//!   per step. Under 16ε in all.
//! * **Sum:** kernel ≤ 10ε + 16ε + 2ε for its two products, reference ≤ 6ε:
//!   they are within 34ε ≈ 2⁻⁴⁸ of each other and the budget is 2⁻⁴⁰ —
//!   more than 2⁷ to spare.
//!
//! # Zero
//!
//! `0.0 + v` differs from `v` only for `v = −0.0`. For σ > 0 there is none:
//! `r ≥ sqrt(2·2⁻⁵³)` and `|cos θ| ≥ 6.1·10⁻¹⁷`, so `|v| ≥ σ·9·10⁻²⁵`
//! (4·10⁻²⁵ at the default σ) and `δ < |v|`, so both ends of the interval
//! keep `v`'s sign even when they round to zero. σ = 0 is allowed by
//! `StreamConfig::validate`; there the reference computes `0.0 + ±0.0 = +0.0`
//! and a centre of `−0.0` comes out `+0.0`. [`bracket`] keeps the `0.0 +`,
//! so it does the same.

use rand::rngs::StdRng;
use rand::RngCore;
use std::f64::consts::{FRAC_PI_2, LN_2, PI, TAU};

/// Lanes per kernel run: the default `feature_dim`, so a default frame is one
/// run — two 512-bit registers of `f64` on AVX-512 (four 256-bit ones on
/// AVX2) whose dependency chains overlap (a run is latency-bound: 8 lanes
/// cost what 16 do).
const LANES: usize = 16;

/// `rand`'s uniform in `[0, 1)` from 64 random bits (the shim's `unit_f64`).
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `c₀ + c₁·w + c₂·w² + …`, fused Horner.
fn horner(w: f64, coefficients: [f64; 9]) -> f64 {
    let [lower @ .., last] = coefficients;
    lower.iter().rev().fold(last, |acc, &c| acc.mul_add(w, c))
}

/// `ln x` for normal `x` in `(0, 1)`, within 18ε (module docs).
fn ln(x: f64) -> f64 {
    // The bits of 1.0 and of √½, and the fraction field.
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    const FRACTION: u64 = (1 << 52) - 1;
    // `2·atanh(s)/s` as a polynomial in `s²`.
    const ATANH: [f64; 9] = [
        2.0,
        2.0 / 3.0,
        2.0 / 5.0,
        2.0 / 7.0,
        2.0 / 9.0,
        2.0 / 11.0,
        2.0 / 13.0,
        2.0 / 15.0,
        2.0 / 17.0,
    ];
    // Moving the exponent boundary from 1 to √½ puts m in [√½, √2).
    let shifted = x.to_bits() + (ONE - SQRT_HALF);
    let exponent = (shifted >> 52) as i32 - 1023;
    let m = f64::from_bits((shifted & FRACTION) + SQRT_HALF);
    let s = (m - 1.0) / (m + 1.0);
    f64::from(exponent).mul_add(LN_2, s * horner(s * s, ATANH))
}

/// `cos θ` for `θ` in `[0, 2π]`, within 16ε — relative, through both zeros
/// (module docs).
fn cos(theta: f64) -> f64 {
    // π/2 − `FRAC_PI_2`, to the nearest double.
    const FRAC_PI_2_LO: f64 = 6.123_233_995_736_766e-17;
    // The nearest double to 3π/2 (three times `FRAC_PI_2`, exactly) and
    // what it leaves.
    const THREE_FRAC_PI_2: f64 = 3.0 * FRAC_PI_2;
    const THREE_FRAC_PI_2_LO: f64 = 1.836_970_198_721_029_7e-16;
    // `(sin(y)/y − 1)/y²` as a polynomial in `y²`.
    const SIN: [f64; 9] = [
        -1.0 / 6.0,
        1.0 / 120.0,
        -1.0 / 5_040.0,
        1.0 / 362_880.0,
        -1.0 / 39_916_800.0,
        1.0 / 6_227_020_800.0,
        -1.0 / 1_307_674_368_000.0,
        1.0 / 355_687_428_096_000.0,
        -1.0 / 121_645_100_408_832_000.0,
    ];
    let upper = theta >= PI;
    let (hi, lo) =
        if upper { (THREE_FRAC_PI_2, THREE_FRAC_PI_2_LO) } else { (FRAC_PI_2, FRAC_PI_2_LO) };
    let about = (theta - hi) - lo;
    let y = if upper { about } else { -about };
    let w = y * y;
    y.mul_add(w * horner(w, SIN), y)
}

/// The `f32` roundings of the two ends of `[v − δ, v + δ]` for the draw made
/// from `b1`, `b2` (module docs). Equal means every candidate for the
/// reference's value rounds to that one `f32`.
#[inline(always)]
fn bracket(sigma: f64, b1: u64, b2: u64) -> (f32, f32) {
    const TWO_POW_MINUS_40: f64 = 1.0 / (1u64 << 40) as f64;
    let r = (-2.0 * ln(f64::max(unit(b1), 1e-12))).sqrt();
    let v = 0.0 + sigma * (r * cos(TAU * unit(b2)));
    let delta =
        (sigma * r).mul_add(TWO_POW_MINUS_40 * TWO_POW_MINUS_40, v.abs() * TWO_POW_MINUS_40);
    ((v - delta) as f32, (v + delta) as f32)
}

/// The shim's `Normal::<f32>::sample` on the draws `b1`, `b2`, through libm.
#[cold]
#[inline(never)]
fn reference(sigma: f64, b1: u64, b2: u64) -> f32 {
    let u1 = f64::max(unit(b1), 1e-12);
    let u2 = unit(b2);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
    (0.0 + sigma * z) as f32
}

/// The draw a bracket stands for: its value where the rounding test decided
/// it, the reference's where not.
fn settle(sigma: f64, b1: u64, b2: u64, (low, high): (f32, f32)) -> f32 {
    if low == high {
        low
    } else {
        reference(sigma, b1, b2)
    }
}

/// `center[i] + Normal::new(0.0, sigma).sample(rng)` for each `i` in order:
/// the same `2 × center.len()` generator outputs, the same `f32`s.
pub(crate) fn around(center: &[f32], sigma: f32, rng: &mut StdRng) -> Vec<f32> {
    let sigma = f64::from(sigma);
    let mut features = Vec::with_capacity(center.len());
    for run in center.chunks(LANES) {
        // Idle lanes of a ragged last run draw from (0, 0): finite, unused.
        let (mut b1, mut b2) = ([0u64; LANES], [0u64; LANES]);
        for (b1, b2) in b1.iter_mut().zip(&mut b2).take(run.len()) {
            (*b1, *b2) = (rng.next_u64(), rng.next_u64());
        }
        let (mut low, mut high) = ([0.0f32; LANES], [0.0f32; LANES]);
        for (((low, high), b1), b2) in low.iter_mut().zip(&mut high).zip(b1).zip(b2) {
            (*low, *high) = bracket(sigma, b1, b2);
        }
        if low == high {
            features.extend(run.iter().zip(low).map(|(c, noise)| c + noise));
        } else {
            // ≈ 4·10⁻⁴ of default-width runs: some lane is undecided. (Zipped,
            // not indexed by lane: indexing the arrays here costs the decided
            // branch above 8 ns a frame.)
            features.extend(
                run.iter()
                    .zip(b1)
                    .zip(b2)
                    .zip(low)
                    .zip(high)
                    .map(|((((c, b1), b2), low), high)| c + settle(sigma, b1, b2, (low, high))),
            );
        }
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_distr::{Distribution, Normal};

    /// A generator that returns two given outputs: the "RNG rewound to those
    /// draws" the reference samples from.
    struct Replay([u64; 2]);

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            let next = self.0[0];
            self.0.swap(0, 1);
            next
        }
    }

    fn normal(sigma: f32) -> Normal<f32> {
        Normal::new(0.0, sigma).expect("non-negative and finite")
    }

    /// One draw from raw generator outputs, as [`around`] makes it; also
    /// whether the rounding test decided it.
    fn draw(sigma: f32, b1: u64, b2: u64) -> (f32, bool) {
        let sigma = f64::from(sigma);
        let (low, high) = bracket(sigma, b1, b2);
        (settle(sigma, b1, b2, (low, high)), low == high)
    }

    /// The generator outputs whose `unit` is `k·2⁻⁵³ + ulps·2⁻⁵³`, with the
    /// eleven discarded bits set so that a kernel reading them would differ.
    fn bits_of(k: u64, ulps: i64) -> u64 {
        (k.wrapping_add_signed(ulps) << 11) | 0x7ff
    }

    #[test]
    fn hostile_draws_equal_the_reference() {
        const HALF: u64 = 1 << 52; // unit = ½
        let sqrt_half = (0.5f64.sqrt() * (1u64 << 53) as f64) as u64;
        let mut b1s = vec![0, 0x7ff, u64::MAX, bits_of(0, 1), bits_of(HALF, 0)];
        // Mantissas either side of the √½ | √2 exponent split, at three
        // exponents, and u₁ around the 1e-12 clamp.
        for shift in [0, 1, 20] {
            b1s.extend((-2..=2).map(|ulps| bits_of(sqrt_half >> shift, ulps)));
        }
        b1s.extend((-2..=2).map(|ulps| bits_of((1e-12 * (1u64 << 53) as f64) as u64, ulps)));
        // θ at and around the nearest doubles to π/2 and 3π/2 (u₂ = ¼, ¾: the
        // zeros of cos), either side of the split at π (u₂ = ½), and at both
        // ends of the range.
        let mut b2s = vec![0, 0x7ff, u64::MAX, bits_of(0, 1), bits_of(0, 2)];
        for quarter in [HALF / 2, HALF, HALF / 2 * 3] {
            b2s.extend((-2..=2).map(|ulps| bits_of(quarter, ulps)));
        }
        assert_eq!(TAU * unit(bits_of(HALF / 2, 0)), FRAC_PI_2);
        assert_eq!(TAU * unit(bits_of(HALF, 0)), PI);

        let (mut draws, mut decided) = (0, 0);
        for sigma in [0.45f32, 1.0, 0.0, f32::MIN_POSITIVE, 1e-30, 3e38] {
            for &b1 in &b1s {
                for &b2 in &b2s {
                    let (value, fast) = draw(sigma, b1, b2);
                    let expected = normal(sigma).sample(&mut Replay([b1, b2]));
                    assert_eq!(
                        value.to_bits(),
                        expected.to_bits(),
                        "σ = {sigma:e}, b1 = {b1:#x}, b2 = {b2:#x}: {value:e} vs {expected:e}"
                    );
                    draws += 1;
                    decided += usize::from(fast);
                }
            }
        }
        // The table is to meet the kernel, not the fallback. (Where it does
        // not: at a zero of cos, `δ`'s absolute term is a fifth of an `f32`
        // ulp of `v`.)
        assert!(decided * 100 >= draws * 95, "{decided} of {draws} decided by the kernel");
    }

    #[test]
    fn a_million_draws_per_width_equal_the_reference_and_leave_the_same_generator() {
        for (feature_dim, sigma) in [(1, 0.45f32), (10, 0.45), (16, 0.45), (21, 1.7), (40, 0.05)] {
            let mut rng = StdRng::seed_from_u64(feature_dim as u64);
            let (mut draws, mut fallbacks) = (0usize, 0usize);
            while draws < 1_000_000 {
                let center: Vec<f32> =
                    (0..feature_dim).map(|_| rng.gen_range(-1.4f32..1.4)).collect();
                let mut reference_rng = rng.clone();
                let mut bits_rng = rng.clone();
                let features = around(&center, sigma, &mut rng);
                let expected: Vec<f32> =
                    center.iter().map(|c| c + normal(sigma).sample(&mut reference_rng)).collect();
                assert!(
                    features.iter().map(|v| v.to_bits()).eq(expected.iter().map(|v| v.to_bits())),
                    "width {feature_dim} after {draws} draws: {features:?} vs {expected:?}"
                );
                assert_eq!(rng, reference_rng, "width {feature_dim} after {draws} draws");
                for _ in 0..feature_dim {
                    let (b1, b2) = (bits_rng.next_u64(), bits_rng.next_u64());
                    fallbacks += usize::from(!draw(sigma, b1, b2).1);
                }
                draws += feature_dim;
            }
            // ≈ 2·10⁻⁵ expected. A guard that never fires is not testing the
            // boundary; one that always fires is not a fast path.
            let rate = fallbacks as f64 / draws as f64;
            assert!((1e-6..=1e-3).contains(&rate), "width {feature_dim}: fallback rate {rate:e}");
        }
    }

    #[test]
    fn zero_noise_copies_the_centre_and_turns_negative_zero_positive() {
        let center = [-0.0f32, 0.0, 1.5, -2.25, -0.0, f32::MIN_POSITIVE, -0.0, 0.0, -0.0];
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference_rng = rng.clone();
        let features = around(&center, 0.0, &mut rng);
        let expected: Vec<f32> =
            center.iter().map(|c| c + normal(0.0).sample(&mut reference_rng)).collect();
        assert_eq!(
            features.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The reference adds `0.0 + σ·z = +0.0`, and `−0.0 + +0.0 = +0.0`.
        assert_eq!(features[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(features[3], -2.25);
        assert_eq!(rng, reference_rng, "2 × 9 outputs consumed");
    }

    #[test]
    fn the_kernels_stay_inside_the_documented_error() {
        const EPS: f64 = 1.0 / (1u64 << 53) as f64;
        let mut rng = StdRng::seed_from_u64(53);
        let (mut worst_ln, mut worst_cos) = (0.0f64, 0.0f64);
        for i in 0..400_000 {
            // Every other input hugs a hard spot: u₁ → 1, θ → a zero of cos.
            let near = rng.gen_range(0.0..1e-6) * rng.gen_range(0.0..1.0f64);
            let (u1, u2) = match i % 4 {
                0 => (1.0 - near - EPS, 0.25 + near),
                2 => (f64::max(near, 1e-12), 0.75 - near),
                _ => (f64::max(unit(rng.next_u64()), 1e-12), unit(rng.next_u64())),
            };
            let theta = TAU * u2;
            worst_ln = worst_ln.max(((ln(u1) - u1.ln()) / u1.ln()).abs());
            worst_cos = worst_cos.max(((cos(theta) - theta.cos()) / theta.cos()).abs());
        }
        // The documented bounds plus libm's own ulp.
        assert!(worst_ln <= 20.0 * EPS, "ln off by {} ε", worst_ln / EPS);
        assert!(worst_cos <= 18.0 * EPS, "cos off by {} ε", worst_cos / EPS);
    }
}
