//! Trainable layers: dense (fully connected) with optional activation.

use crate::{DnnError, Result};
use dacapo_mx::MxPrecision;
use dacapo_tensor::{init, ops, quant, Matrix};
use serde::{Deserialize, Serialize};

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    #[default]
    Relu,
    /// No activation (used before the softmax output).
    Linear,
}

impl Activation {
    fn forward(self, x: &Matrix) -> Matrix {
        match self {
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Linear => x.clone(),
        }
    }

    /// Elementwise derivative evaluated at the pre-activation values.
    fn backward(self, pre_activation: &Matrix, upstream: &Matrix) -> Result<Matrix> {
        match self {
            Activation::Relu => {
                let mask = pre_activation.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                Ok(ops::hadamard(upstream, &mask)?)
            }
            Activation::Linear => Ok(upstream.clone()),
        }
    }
}

/// A dense (fully connected) layer `y = act(x · W + b)`.
///
/// The forward pass optionally fake-quantises both the activations and the
/// weights through the MX round trip, emulating execution on a DaCapo
/// sub-accelerator configured at that precision.
///
/// [`Dense::forward`] and [`Dense::backward`] are the layer *reference*:
/// each step allocates its result ([`ForwardCache`], [`Gradients`]) and is
/// written for legibility. `Mlp` runs the scratch-based passes of
/// [`batch`](crate::batch), which tests hold bit-identical to this chain.
///
/// # Examples
///
/// ```
/// use dacapo_dnn::{Dense, Activation};
/// use dacapo_tensor::Matrix;
///
/// # fn main() -> Result<(), dacapo_dnn::DnnError> {
/// let layer = Dense::new(4, 3, Activation::Relu, 42)?;
/// let x = Matrix::filled(2, 4, 0.5)?;
/// let (out, _cache) = layer.forward(&x, None)?;
/// assert_eq!(out.shape(), (2, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
}

/// Intermediate values saved by [`Dense::forward`] and consumed by
/// [`Dense::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// The layer input (possibly quantised), needed for the weight gradient.
    input: Matrix,
    /// Pre-activation output, needed for the activation derivative.
    pre_activation: Matrix,
}

/// Gradients produced by [`Dense::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Gradient of the loss with respect to the weights.
    pub weights: Matrix,
    /// Gradient of the loss with respect to the bias.
    pub bias: Matrix,
    /// Gradient of the loss with respect to the layer input (to propagate).
    pub input: Matrix,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] if either dimension is zero.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self> {
        if input_dim == 0 || output_dim == 0 {
            return Err(DnnError::InvalidConfig {
                reason: format!(
                    "dense layer dimensions must be positive, got {input_dim}x{output_dim}"
                ),
            });
        }
        Ok(Self {
            weights: init::he_normal(input_dim, output_dim, seed)?,
            bias: Matrix::zeros(1, output_dim)?,
            activation,
        })
    }

    /// Input dimension (number of rows of the weight matrix).
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension (number of columns of the weight matrix).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters (weights + bias).
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Borrow of the weight matrix (for inspection in tests and tooling).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Forward pass. When `precision` is `Some`, weights and activations are
    /// fake-quantised through the MX round trip before the GEMM.
    ///
    /// Returns the post-activation output and the cache needed for
    /// [`Dense::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::DimensionMismatch`] if `x.cols()` differs from the
    /// layer input dimension.
    pub fn forward(
        &self,
        x: &Matrix,
        precision: Option<MxPrecision>,
    ) -> Result<(Matrix, ForwardCache)> {
        if x.cols() != self.input_dim() {
            return Err(DnnError::DimensionMismatch { expected: self.input_dim(), got: x.cols() });
        }
        let (input, weights) = match precision {
            Some(p) => (quant::quantize_rows(x, p)?, quant::quantize_cols(&self.weights, p)?),
            None => (x.clone(), self.weights.clone()),
        };
        let pre = ops::add_row_broadcast(&ops::matmul(&input, &weights)?, &self.bias)?;
        let out = self.activation.forward(&pre);
        Ok((out, ForwardCache { input, pre_activation: pre }))
    }

    /// Backward pass: given the gradient of the loss with respect to this
    /// layer's output, produce weight/bias/input gradients.
    ///
    /// When `precision` is `Some`, the gradient GEMMs are fake-quantised as
    /// well (this is what running retraining at MX9 means).
    ///
    /// # Errors
    ///
    /// Returns an error if the upstream gradient shape does not match the
    /// cached forward shapes.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        upstream: &Matrix,
        precision: Option<MxPrecision>,
    ) -> Result<Gradients> {
        let delta = self.activation.backward(&cache.pre_activation, upstream)?;
        let (input_t, weights_t) = (ops::transpose(&cache.input), ops::transpose(&self.weights));
        let (d_weights, d_input) = match precision {
            Some(p) => {
                (quant::mx_matmul(&input_t, &delta, p)?, quant::mx_matmul(&delta, &weights_t, p)?)
            }
            None => (ops::matmul(&input_t, &delta)?, ops::matmul(&delta, &weights_t)?),
        };
        let d_bias = ops::sum_rows(&delta);
        Ok(Gradients { weights: d_weights, bias: d_bias, input: d_input })
    }

    /// Applies an SGD step: `W -= lr * dW`, `b -= lr * db`.
    ///
    /// # Errors
    ///
    /// Returns an error if the gradient shapes do not match the parameters.
    pub fn apply_gradients(&mut self, grads: &Gradients, learning_rate: f32) -> Result<()> {
        self.apply_gradients_raw(&grads.weights, &grads.bias, learning_rate)
    }

    /// SGD step on borrowed gradient matrices (the scratch-reuse training
    /// path owns no `Gradients` struct).
    pub(crate) fn apply_gradients_raw(
        &mut self,
        d_weights: &Matrix,
        d_bias: &Matrix,
        learning_rate: f32,
    ) -> Result<()> {
        ops::axpy(&mut self.weights, -learning_rate, d_weights)?;
        ops::axpy(&mut self.bias, -learning_rate, d_bias)?;
        Ok(())
    }

    pub(crate) fn bias(&self) -> &Matrix {
        &self.bias
    }

    pub(crate) fn activation_kind(&self) -> Activation {
        self.activation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_relu_clamp() {
        let layer = Dense::new(3, 2, Activation::Relu, 1).unwrap();
        let x = Matrix::from_rows(&[&[1.0, -1.0, 0.5], &[0.0, 0.0, 0.0]]).unwrap();
        let (out, _) = layer.forward(&x, None).unwrap();
        assert_eq!(out.shape(), (2, 2));
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert!(Dense::new(0, 3, Activation::Relu, 0).is_err());
        assert!(Dense::new(3, 0, Activation::Relu, 0).is_err());
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let layer = Dense::new(3, 2, Activation::Relu, 1).unwrap();
        let x = Matrix::zeros(1, 4).unwrap();
        assert!(matches!(
            layer.forward(&x, None),
            Err(DnnError::DimensionMismatch { expected: 3, got: 4 })
        ));
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        let layer = Dense::new(10, 4, Activation::Linear, 0).unwrap();
        assert_eq!(layer.num_params(), 10 * 4 + 4);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerically verify dL/dW for a tiny layer with L = sum(output).
        let mut layer = Dense::new(2, 2, Activation::Linear, 3).unwrap();
        let x = Matrix::from_rows(&[&[0.3, -0.7]]).unwrap();
        let upstream = Matrix::filled(1, 2, 1.0).unwrap(); // dL/dy for L = sum(y)
        let (_, cache) = layer.forward(&x, None).unwrap();
        let grads = layer.backward(&cache, &upstream, None).unwrap();

        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..2 {
                let orig = layer.weights()[(r, c)];
                let mut perturbed = layer.clone();
                perturbed.weights[(r, c)] = orig + eps;
                let (out_plus, _) = perturbed.forward(&x, None).unwrap();
                perturbed.weights[(r, c)] = orig - eps;
                let (out_minus, _) = perturbed.forward(&x, None).unwrap();
                let numeric = (ops::sum(&out_plus) - ops::sum(&out_minus)) / (2.0 * eps);
                let analytic = grads.weights[(r, c)];
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "dW[{r},{c}] numeric {numeric} vs analytic {analytic}"
                );
            }
        }
        // Keep the borrow checker honest about the original layer still being usable.
        layer.apply_gradients(&grads, 0.1).unwrap();
    }

    #[test]
    fn relu_backward_masks_negative_preactivations() {
        let layer = Dense::new(2, 2, Activation::Relu, 5).unwrap();
        let x = Matrix::from_rows(&[&[10.0, 10.0]]).unwrap();
        let (_, cache) = layer.forward(&x, None).unwrap();
        let upstream = Matrix::filled(1, 2, 1.0).unwrap();
        let grads = layer.backward(&cache, &upstream, None).unwrap();
        // Wherever the pre-activation was <= 0 the weight gradient column is zero.
        for c in 0..2 {
            if cache.pre_activation[(0, c)] <= 0.0 {
                assert_eq!(grads.weights[(0, c)], 0.0);
                assert_eq!(grads.weights[(1, c)], 0.0);
            }
        }
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // One linear layer, L = 0.5 * ||y||^2; gradient steps must shrink L.
        let mut layer = Dense::new(3, 2, Activation::Linear, 9).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 2.0, -1.0]]).unwrap();
        let mut previous = f32::INFINITY;
        for _ in 0..20 {
            let (y, cache) = layer.forward(&x, None).unwrap();
            let loss = 0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>();
            assert!(loss <= previous + 1e-4, "loss increased: {loss} > {previous}");
            previous = loss;
            let grads = layer.backward(&cache, &y, None).unwrap();
            layer.apply_gradients(&grads, 0.05).unwrap();
        }
        assert!(previous < 0.1, "loss should approach zero, got {previous}");
    }

    #[test]
    fn quantised_forward_is_close_to_fp32() {
        let layer = Dense::new(32, 8, Activation::Linear, 11).unwrap();
        let x = init::uniform(4, 32, -1.0, 1.0, 77).unwrap();
        let (exact, _) = layer.forward(&x, None).unwrap();
        let (approx, _) = layer.forward(&x, Some(MxPrecision::Mx9)).unwrap();
        let rel = ops::frobenius_norm(&ops::sub(&exact, &approx).unwrap())
            / ops::frobenius_norm(&exact).max(1e-9);
        assert!(rel < 0.05, "MX9 forward relative error {rel}");
    }

    #[test]
    fn lower_precision_forward_is_noisier() {
        let layer = Dense::new(64, 16, Activation::Linear, 13).unwrap();
        let x = init::uniform(8, 64, -1.0, 1.0, 78).unwrap();
        let (exact, _) = layer.forward(&x, None).unwrap();
        let mut errors = Vec::new();
        for p in [MxPrecision::Mx9, MxPrecision::Mx6, MxPrecision::Mx4] {
            let (approx, _) = layer.forward(&x, Some(p)).unwrap();
            errors.push(
                ops::frobenius_norm(&ops::sub(&exact, &approx).unwrap())
                    / ops::frobenius_norm(&exact).max(1e-9),
            );
        }
        assert!(errors[0] <= errors[1] + 1e-3);
        assert!(errors[1] <= errors[2] + 1e-3);
    }
}
