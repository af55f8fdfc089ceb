//! Seeded weight initialisers for reproducible experiments.

use crate::{Matrix, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// He (Kaiming) normal initialisation: `N(0, 2 / fan_in)`, the usual choice
/// before ReLU activations.
///
/// # Errors
///
/// Returns an error if either dimension is zero.
///
/// # Examples
///
/// ```
/// use dacapo_tensor::init;
///
/// # fn main() -> Result<(), dacapo_tensor::TensorError> {
/// let w = init::he_normal(64, 32, 42)?;
/// assert_eq!(w.shape(), (64, 32));
/// # Ok(())
/// # }
/// ```
pub fn he_normal(rows: usize, cols: usize, seed: u64) -> Result<Matrix> {
    let std = (2.0f32 / rows as f32).sqrt();
    normal(rows, cols, 0.0, std, seed)
}

/// Uniform initialisation in `[low, high)`.
///
/// # Errors
///
/// Returns an error if either dimension is zero.
///
/// # Panics
///
/// Panics if `low >= high`.
pub fn uniform(rows: usize, cols: usize, low: f32, high: f32, seed: u64) -> Result<Matrix> {
    assert!(low < high, "uniform range must satisfy low < high");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols)?;
    for v in m.as_mut_slice() {
        *v = rng.gen_range(low..high);
    }
    Ok(m)
}

/// Normal initialisation with the given mean and standard deviation
/// (Box-Muller, so no extra dependency is needed here).
///
/// # Errors
///
/// Returns an error if either dimension is zero.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn normal(rows: usize, cols: usize, mean: f32, std: f32, seed: u64) -> Result<Matrix> {
    assert!(std >= 0.0, "standard deviation must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols)?;
    for v in m.as_mut_slice() {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        *v = mean + std * z;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn initialisers_are_deterministic_per_seed() {
        let a = he_normal(10, 10, 7).unwrap();
        let b = he_normal(10, 10, 7).unwrap();
        let c = he_normal(10, 10, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_range_and_zero_dims_fail() {
        let w = uniform(20, 20, -0.25, 0.25, 3).unwrap();
        assert!(w.as_slice().iter().all(|&v| (-0.25..0.25).contains(&v)));
        assert!(uniform(0, 3, 0.0, 1.0, 0).is_err());
    }

    #[test]
    fn he_normal_has_roughly_expected_scale() {
        let w = he_normal(400, 100, 9).unwrap();
        let mean = ops::mean(&w);
        let var = w.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / w.len() as f32;
        let expected = 2.0 / 400.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - expected).abs() / expected < 0.2, "var {var} vs {expected}");
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn uniform_panics_on_inverted_range() {
        let _ = uniform(2, 2, 1.0, 0.0, 0);
    }
}
