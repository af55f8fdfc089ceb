//! MX-quantised matrix operations.
//!
//! The DaCapo accelerator executes GEMMs with MX-compressed operands while
//! accumulating in FP32. These helpers emulate exactly that: operands are
//! quantised block-by-block along the reduction (K) dimension, then the
//! multiplication proceeds in `f32`, so the result matches what the DPE array
//! would produce.
//!
//! An MX GEMM here is that definition run as written: both operands are
//! quantised whole into the [`Workspace`], the left one along its rows
//! ([`MxVector::quantize_rows_into`]) and the right one down its columns
//! ([`MxVector::quantize_columns_into`]), and the f32 GEMM of [`ops`] of the
//! same shape multiplies the copies. `A·Bᵀ` transposes `B` into the
//! workspace first and is then the `A·B` form.
//!
//! That GEMM accumulates with the fused multiply–add, yet the results are
//! those of the two-rounding `acc += a * b`: an MX-quantised value is a
//! mantissa code of at most 7 bits times a power of two, so the product of
//! two of them has at most 14 significant bits and is exact in `f32` — there
//! is no product rounding for the fused form to skip, and both round the
//! same sum. The bound is product underflow: a product below `f32`'s
//! smallest normal (2⁻¹²⁶, operands around 1e-19) can lose bits unfused
//! that fused keeps. For operands that are zero or of magnitude in
//! [2⁻⁴⁰, 2⁴⁰) the equality is property-tested for all three GEMMs at every
//! precision.
//!
//! Quantising along the rows, a width that is a multiple of the 16-element
//! block size — the student's 16-, 64- and 32-wide activations and its
//! 32-wide `δ` — puts no block across two rows, and the matrix goes to the
//! conversion kernel as one run of blocks. A ragged width (the 10-wide
//! logits gradient) is staged: its blocks, each row's last one zero-padded,
//! go to the kernel four at a time as one run. Quantising down the columns,
//! up to 64 columns go at a time. A group whose width is a multiple of 16
//! is quantised in place; a ragged one (the 10-wide `W₂` and logits
//! gradient) is copied row by row into a stage as wide as the next multiple
//! of 16, zero beyond the real columns, quantised there and copied back.
//! Which path runs depends on the operand's shape alone, the values produced
//! on neither.

#[cfg(doc)]
use crate::TensorError;
use crate::{ops, Matrix, Result, Workspace};
use dacapo_mx::{MxError, MxPrecision, MxVector};

/// Quantises every row of a matrix through the MX encode/decode round trip.
///
/// Each row is blocked independently (16-element blocks), mirroring how the
/// memory interface lays out operands along the reduction dimension.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values.
pub fn quantize_rows(a: &Matrix, precision: MxPrecision) -> Result<Matrix> {
    let mut out = Matrix::identity(1);
    quantize_rows_into(a, precision, &mut out)?;
    Ok(out)
}

/// Quantises every row of `a` into a reusable output matrix, allocation-free
/// once `out` has grown to size.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values.
pub fn quantize_rows_into(a: &Matrix, precision: MxPrecision, out: &mut Matrix) -> Result<()> {
    out.resize_for_overwrite(a.rows(), a.cols())?;
    Ok(MxVector::quantize_rows_into(a.as_slice(), a.cols(), precision, out.as_mut_slice())?)
}

/// `error` with a non-finite element's index mapped to its position in the
/// operand.
fn at_position(error: MxError, position: impl Fn(usize) -> usize) -> MxError {
    match error {
        MxError::NonFiniteInput { index, value } => {
            MxError::NonFiniteInput { index: position(index), value }
        }
        other => other,
    }
}

/// Quantises every column of a matrix through the MX encode/decode round trip.
///
/// Used for the right-hand GEMM operand, whose reduction dimension runs down
/// the columns. (This is also what DaCapo's precision-conversion unit does in
/// "column-major" mode when producing transposed operands for retraining.)
/// Bit-identical to transposing, quantising rows, and transposing back; the
/// kernel works down the columns in place of the two transpose copies.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values.
pub fn quantize_cols(a: &Matrix, precision: MxPrecision) -> Result<Matrix> {
    let mut out = Matrix::zeros(a.rows(), a.cols())?;
    quantize_cols_into(a, precision, &mut out)?;
    Ok(out)
}

/// Quantises every column of `a` into a reusable output matrix,
/// allocation-free once `out` has grown to size.
///
/// # Errors
///
/// Returns [`TensorError::Quantization`] if the matrix contains non-finite
/// values.
pub fn quantize_cols_into(a: &Matrix, precision: MxPrecision, out: &mut Matrix) -> Result<()> {
    out.resize_for_overwrite(a.rows(), a.cols())?;
    Ok(MxVector::quantize_columns_into(a.as_slice(), a.cols(), precision, out.as_mut_slice())?)
}

/// MX GEMM into a reusable output: `a` quantised along its rows and `b`
/// down its columns, each whole, into the workspace, then the f32 GEMM of
/// [`ops::matmul_into`] on the two copies — so the result is
/// `matmul_reference(quantize_rows(a), quantize_cols(b))`, bit for bit.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()` and
/// [`TensorError::Quantization`] on non-finite inputs.
pub fn mx_matmul_into(
    a: &Matrix,
    b: &Matrix,
    precision: MxPrecision,
    out: &mut Matrix,
    ws: &mut Workspace,
) -> Result<()> {
    let blocks = ops::reduction_blocks("mx_matmul", a, b, a.shape(), b.shape(), out)?;
    let Workspace { panel, qa, qb, .. } = ws;
    qa.resize(a.len(), 0.0);
    MxVector::quantize_rows_into(a.as_slice(), a.cols(), precision, qa)?;
    qb.resize(b.len(), 0.0);
    MxVector::quantize_columns_into(b.as_slice(), b.cols(), precision, qb)?;
    ops::gemm(qa, qb, blocks, out, panel);
    Ok(())
}

/// MX `A · Bᵀ` into a reusable output: with `A` of shape `m×k` and `B` of
/// shape `n×k`, `B` is transposed whole into the workspace and the product
/// is [`mx_matmul_into`] on `A` and that transpose — quantised down its
/// columns, which is along `B`'s rows, the shared reduction dimension `k`.
/// Transposing first is the cheaper order: `B`'s rows can be as short as
/// the 10 logits, each then a ragged block of its own, while the columns of
/// its transpose are quantised sixteen rows at a time. This is the MX
/// input-gradient kernel of the backward pass: `d_x = δ · Wᵀ`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.cols()` and
/// [`TensorError::Quantization`] on non-finite inputs; a
/// [`MxError::NonFiniteInput`] carries the element's index in its operand.
pub fn mx_matmul_a_bt_into(
    a: &Matrix,
    b: &Matrix,
    precision: MxPrecision,
    out: &mut Matrix,
    ws: &mut Workspace,
) -> Result<()> {
    let (n, k) = b.shape();
    let blocks = ops::reduction_blocks("mx_matmul_a_bt", a, b, a.shape(), (k, n), out)?;
    let Workspace { panel, qa, qb, staged } = ws;
    qa.resize(a.len(), 0.0);
    MxVector::quantize_rows_into(a.as_slice(), k, precision, qa)?;
    staged.resize(b.len(), 0.0);
    ops::transpose_blocks(b.as_slice(), k, n, k, staged, n);
    qb.resize(b.len(), 0.0);
    // Element `kk·n + j` of the transpose is `b[j][kk]`.
    MxVector::quantize_columns_into(staged, n, precision, qb)
        .map_err(|e| at_position(e, |i| (i % n) * k + i / n))?;
    ops::gemm(qa, qb, blocks, out, panel);
    Ok(())
}

/// MX `Aᵀ · B` into a reusable output: with `A` of shape `r×m` and `B` of
/// shape `r×n`, both operands are quantised down their columns — along the
/// shared reduction dimension `r` — then multiplied by the f32 GEMM of
/// [`ops::matmul_at_b`], which reads the left one transposed. Bit-identical
/// to `mx_matmul_into(transpose(A), B)`. This is the MX weight-gradient
/// kernel of the backward pass: `d_w = xᵀ · δ` with the batch as the
/// reduction dimension.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.rows() != b.rows()` and
/// [`TensorError::Quantization`] on non-finite inputs.
pub fn mx_matmul_at_b_into(
    a: &Matrix,
    b: &Matrix,
    precision: MxPrecision,
    out: &mut Matrix,
    ws: &mut Workspace,
) -> Result<()> {
    let (r, m) = a.shape();
    let blocks = ops::reduction_blocks("mx_matmul_at_b", a, b, (m, r), b.shape(), out)?;
    let Workspace { panel, qa, qb, .. } = ws;
    qa.resize(a.len(), 0.0);
    MxVector::quantize_columns_into(a.as_slice(), m, precision, qa)?;
    qb.resize(b.len(), 0.0);
    MxVector::quantize_columns_into(b.as_slice(), b.cols(), precision, qb)?;
    ops::gemm_at_b(qa, qb, blocks, out, panel);
    Ok(())
}

/// MX-quantised GEMM: both operands are quantised along the reduction
/// dimension at `precision`, then multiplied with FP32 accumulation.
/// [`mx_matmul_into`] with a fresh output and workspace.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()` and
/// [`TensorError::Quantization`] on non-finite inputs.
///
/// # Examples
///
/// ```
/// use dacapo_tensor::{Matrix, ops, quant};
/// use dacapo_mx::MxPrecision;
///
/// # fn main() -> Result<(), dacapo_tensor::TensorError> {
/// let a = Matrix::from_fn(8, 32, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1)?;
/// let b = Matrix::from_fn(32, 4, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.2)?;
/// let exact = ops::matmul(&a, &b)?;
/// let quantised = quant::mx_matmul(&a, &b, MxPrecision::Mx9)?;
/// let err = ops::frobenius_norm(&ops::sub(&exact, &quantised)?);
/// assert!(err / ops::frobenius_norm(&exact) < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn mx_matmul(a: &Matrix, b: &Matrix, precision: MxPrecision) -> Result<Matrix> {
    let mut out = Matrix::identity(1);
    mx_matmul_into(a, b, precision, &mut out, &mut Workspace::new())?;
    Ok(out)
}

/// Relative Frobenius-norm error of the MX GEMM against the FP32 GEMM.
///
/// This is the quantity Section III-C of the paper reasons about when arguing
/// MX9 is adequate for retraining and MX6 for inference.
///
/// # Errors
///
/// Propagates shape and quantisation errors from the underlying GEMMs.
pub fn mx_matmul_relative_error(a: &Matrix, b: &Matrix, precision: MxPrecision) -> Result<f32> {
    let exact = ops::matmul(a, b)?;
    let approx = mx_matmul(a, b, precision)?;
    let diff = ops::sub(&exact, &approx)?;
    let denom = ops::frobenius_norm(&exact).max(1e-20);
    Ok(ops::frobenius_norm(&diff) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorError;

    fn operands() -> (Matrix, Matrix) {
        let a = Matrix::from_fn(16, 48, |r, c| (((r * 131 + c * 29) % 37) as f32 - 18.0) * 0.11)
            .unwrap();
        let b = Matrix::from_fn(48, 12, |r, c| (((r * 61 + c * 17) % 41) as f32 - 20.0) * 0.07)
            .unwrap();
        (a, b)
    }

    #[test]
    fn quantize_rows_preserves_shape() {
        let (a, _) = operands();
        let q = quantize_rows(&a, MxPrecision::Mx6).unwrap();
        assert_eq!(q.shape(), a.shape());
    }

    #[test]
    fn quantize_cols_equals_transposed_row_quantisation() {
        let (a, _) = operands();
        let via_cols = quantize_cols(&a, MxPrecision::Mx6).unwrap();
        let via_rows =
            ops::transpose(&quantize_rows(&ops::transpose(&a), MxPrecision::Mx6).unwrap());
        assert_eq!(via_cols, via_rows);
        // Into an output of another shape, reused.
        let mut out = Matrix::filled(3, 70, f32::NAN).unwrap();
        quantize_cols_into(&a, MxPrecision::Mx6, &mut out).unwrap();
        assert_eq!(out, via_rows);
    }

    #[test]
    fn mx9_gemm_is_close_to_fp32() {
        let (a, b) = operands();
        let err = mx_matmul_relative_error(&a, &b, MxPrecision::Mx9).unwrap();
        assert!(err < 0.03, "MX9 relative error {err}");
    }

    #[test]
    fn error_grows_as_precision_drops() {
        let (a, b) = operands();
        let e9 = mx_matmul_relative_error(&a, &b, MxPrecision::Mx9).unwrap();
        let e6 = mx_matmul_relative_error(&a, &b, MxPrecision::Mx6).unwrap();
        let e4 = mx_matmul_relative_error(&a, &b, MxPrecision::Mx4).unwrap();
        assert!(e9 <= e6, "MX9 {e9} vs MX6 {e6}");
        assert!(e6 <= e4, "MX6 {e6} vs MX4 {e4}");
        assert!(e4 < 1.0, "even MX4 should retain some signal, got {e4}");
    }

    #[test]
    fn mx_matmul_validates_shapes() {
        let (a, _) = operands();
        assert!(matches!(
            mx_matmul(&a, &a, MxPrecision::Mx6),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_input_surfaces_as_quantization_error() {
        let mut a = Matrix::zeros(2, 16).unwrap();
        a[(0, 3)] = f32::NAN;
        let b = Matrix::zeros(16, 2).unwrap();
        assert!(matches!(mx_matmul(&a, &b, MxPrecision::Mx6), Err(TensorError::Quantization(_))));
    }

    #[test]
    fn non_finite_in_a_later_panel_reports_its_position_in_b() {
        let a = Matrix::zeros(2, 70).unwrap();
        let mut b = Matrix::zeros(70, 3).unwrap();
        b[(66, 1)] = f32::INFINITY;
        let expected = MxError::NonFiniteInput { index: 66 * 3 + 1, value: f32::INFINITY };
        assert_eq!(mx_matmul(&a, &b, MxPrecision::Mx9), Err(TensorError::Quantization(expected)));
    }

    #[test]
    fn non_finite_in_a_later_row_reports_its_position_in_the_left_operand() {
        // At every position of the operand: a width the whole operand is one
        // run of blocks at, and ragged ones whose blocks are staged — the
        // logits gradient's 10, and 21.
        for (rows, cols) in [(3, 16), (5, 10), (3, 21)] {
            for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                let mut a =
                    Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 - 9.0).unwrap();
                a[(r, c)] = if (r + c) % 2 == 0 { f32::NAN } else { f32::NEG_INFINITY };
                let (b, b_t) = (Matrix::zeros(cols, 4).unwrap(), Matrix::zeros(4, cols).unwrap());
                let (mut out, mut ws) = (Matrix::identity(1), Workspace::new());
                let errors = [
                    quantize_rows_into(&a, MxPrecision::Mx9, &mut out),
                    mx_matmul_into(&a, &b, MxPrecision::Mx9, &mut out, &mut ws),
                    mx_matmul_a_bt_into(&a, &b_t, MxPrecision::Mx9, &mut out, &mut ws),
                ];
                for error in errors {
                    match error {
                        Err(TensorError::Quantization(MxError::NonFiniteInput {
                            index,
                            value,
                        })) => {
                            assert_eq!(index, r * cols + c, "{rows}x{cols}");
                            assert_eq!(value.to_bits(), a[(r, c)].to_bits());
                        }
                        other => panic!("expected NonFiniteInput, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn mx_at_b_gemm_validates_shapes_and_matches_the_transposed_gemm() {
        let (a, b) = operands();
        let (mut out, mut ws) = (Matrix::identity(1), Workspace::new());
        assert!(matches!(
            mx_matmul_at_b_into(&a, &b, MxPrecision::Mx9, &mut out, &mut ws),
            Err(TensorError::ShapeMismatch { op: "mx_matmul_at_b", .. })
        ));
        let x = ops::transpose(&a);
        mx_matmul_at_b_into(&x, &b, MxPrecision::Mx9, &mut out, &mut ws).unwrap();
        assert_eq!(out, mx_matmul(&a, &b, MxPrecision::Mx9).unwrap());
    }

    #[test]
    fn mx_gemm_is_the_f32_gemm_on_quantised_operands() {
        // Shapes straddling the K_BLOCK boundary and non-multiple-of-16 K.
        for (m, k, n) in [(3, 5, 4), (2, 64, 3), (4, 70, 5), (1, 130, 2)] {
            let a = Matrix::from_fn(m, k, |r, c| (((r * 37 + c * 13) % 23) as f32 - 11.0) * 0.13)
                .unwrap();
            let b = Matrix::from_fn(k, n, |r, c| (((r * 19 + c * 7) % 29) as f32 - 14.0) * 0.09)
                .unwrap();
            for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
                let reference = ops::matmul_reference(
                    &quantize_rows(&a, precision).unwrap(),
                    &quantize_cols(&b, precision).unwrap(),
                )
                .unwrap();
                assert_eq!(mx_matmul(&a, &b, precision).unwrap(), reference);
            }
        }
    }

    #[test]
    fn quantised_identity_times_matrix_is_near_identity_map() {
        let a = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) % 5) as f32).unwrap();
        let approx = mx_matmul(&Matrix::identity(8), &a, MxPrecision::Mx9).unwrap();
        let diff = ops::sub(&a, &approx).unwrap();
        assert!(ops::frobenius_norm(&diff) / ops::frobenius_norm(&a) < 0.03);
    }
}
