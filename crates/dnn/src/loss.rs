//! Softmax cross-entropy loss and classification accuracy.

use crate::{DnnError, Result};
use dacapo_tensor::{ops, Matrix};

/// Computes the mean softmax cross-entropy loss and its gradient with respect
/// to the logits.
///
/// `labels[i]` is the class index of sample `i` (row `i` of `logits`). This
/// is the reference form — one allocated matrix per step — that tests hold
/// the training loop's [`cross_entropy_into`] bit-identical to.
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

/// [`cross_entropy`] into a reusable gradient matrix: same loss, same
/// gradient, no allocation.
///
/// Fuses the softmax, the label subtraction, and the `1/batch` scaling into
/// one pass per row. Every element still goes through the identical
/// arithmetic sequence (`exp(x - max)`, `/ sum`, `- 1` at the label,
/// `× 1/batch`), so loss and gradient are bit-identical to the reference
/// form. This is the loss the training loop runs.
///
/// # Errors
///
/// Returns [`DnnError::InvalidLabels`] under the same conditions as
/// [`cross_entropy`].
pub fn cross_entropy_into(logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> Result<f32> {
    validate_labels(logits, labels)?;
    let (rows, cols) = logits.shape();
    let batch = rows as f32;
    let inv_batch = 1.0 / batch;
    grad.resize_for_overwrite(rows, cols).map_err(crate::DnnError::from)?;
    let src = logits.as_slice();
    let dst = grad.as_mut_slice();
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        let row = &src[i * cols..(i + 1) * cols];
        let out = &mut dst[i * cols..(i + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in out.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        if sum > 0.0 {
            for o in out.iter_mut() {
                *o /= sum;
            }
        }
        let p = out[label].max(1e-12);
        loss -= p.ln();
        out[label] -= 1.0;
        for o in out.iter_mut() {
            *o *= inv_batch;
        }
    }
    Ok(loss / batch)
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

    #[test]
    fn fused_cross_entropy_is_bit_identical_to_allocating() {
        let logits = Matrix::from_rows(&[
            &[0.5, -1.0, 2.0, 0.25],
            &[3.0, 0.0, -3.0, 1.5],
            &[-0.75, 0.1, 0.9, -2.0],
        ])
        .unwrap();
        let labels = [2usize, 0, 3];
        let (loss, grad) = cross_entropy(&logits, &labels).unwrap();
        let mut fused = Matrix::zeros(1, 1).unwrap();
        let fused_loss = cross_entropy_into(&logits, &labels, &mut fused).unwrap();
        assert_eq!(fused_loss.to_bits(), loss.to_bits());
        assert_eq!(fused, grad);
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
